"""Dot diagram rendering: generators plotted by (q, a) with t-labels.

Text output is a grid whose rows are a-levels in descending order (step 2)
and whose columns step through q (step 2, or 1 when the q-exponents mix
parities); each cell lists the t-exponents
of the generators sitting at that spot, and the bottom row's a-grading is
printed so the absolute normalization is visible.  SVG output draws the
same layout with one arrow per differential entry; in the step-2 layout an
arrow of level N has slope -1/N, since it connects dots offset by (2N, -2).
"""


def _spots(c):
    spots = {}
    for (ea, eq, et) in c.generators:
        spots.setdefault((eq, ea), []).append(et)
    for key in spots:
        spots[key].sort()
    return spots


def _q_step(spots):
    """Column step in q: 2 when every q-exponent has one parity, else 1."""
    return 2 if len({q % 2 for (q, _) in spots}) == 1 else 1


def render_text(c):
    if not c.generators:
        return "(empty complex)\n"
    spots = _spots(c)
    a_values = sorted({a for (_, a) in spots}, reverse=True)
    q_values = range(
        min(q for (q, _) in spots), max(q for (q, _) in spots) + 1, _q_step(spots)
    )
    cells = {}
    width = 1
    for (q, a), ts in spots.items():
        text = ",".join(str(t) for t in ts)
        cells[(q, a)] = text
        width = max(width, len(text))
    lines = []
    if c.label:
        lines.append("# %s" % c.label)
    for a in a_values:
        row = []
        for q in q_values:
            row.append(cells.get((q, a), "").center(width))
        lines.append(("a=%4d | " % a) + " ".join(row).rstrip())
    lines.append("bottom row a-grading: %d" % a_values[-1])
    labels = " ".join(("q=%d" % q).center(width) for q in q_values)
    lines.append(" " * 9 + labels)
    return "\n".join(lines) + "\n"


GRID = 40


def render_svg(c):
    """A self-contained SVG document of the dot diagram."""
    if not c.generators:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="40"></svg>'
    spots = _spots(c)
    qs = [q for (q, _) in spots]
    as_ = [a for (_, a) in spots]
    qlo, qhi = min(qs), max(qs)
    alo, ahi = min(as_), max(as_)
    step = _q_step(spots)

    def xy(eq, ea):
        return (
            GRID + (eq - qlo) // step * GRID,
            GRID + (ahi - ea) // 2 * GRID,
        )

    width = 2 * GRID + (qhi - qlo) // step * GRID
    height = 2 * GRID + (ahi - alo) // 2 * GRID
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (width, height)
    ]
    parts.append(
        '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="7" refY="4" '
        'orient="auto"><path d="M0,0 L8,4 L0,8 z"/></marker></defs>'
    )
    palette = {}
    colors = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085"]
    for n in sorted(c.diffs):
        palette[n] = colors[len(palette) % len(colors)]
    for n, entries in sorted(c.diffs.items()):
        for (s, d, coeff) in entries:
            (sq, sa) = c.generators[s][1], c.generators[s][0]
            (dq, da) = c.generators[d][1], c.generators[d][0]
            x1, y1 = xy(sq, sa)
            x2, y2 = xy(dq, da)
            parts.append(
                '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                'stroke-width="1.2" marker-end="url(#tip)"><title>d_%d: %s</title></line>'
                % (x1, y1, x2, y2, palette[n], n, coeff)
            )
    for (q, a), ts in sorted(spots.items()):
        x, y = xy(q, a)
        parts.append('<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x, y))
        parts.append(
            '<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>'
            % (x, y - 7, ",".join(str(t) for t in ts))
        )
    parts.append(
        '<text x="4" y="%d" font-size="11">a=%d</text>' % (xy(qlo, alo)[1] + 4, alo)
    )
    parts.append("</svg>")
    return "\n".join(parts)
