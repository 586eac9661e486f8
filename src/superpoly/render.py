"""Dot diagram rendering: generators plotted by (q, a) with t-labels.

Text output is a grid whose rows step down through a and whose columns
step up through q, each axis by 2, or by 1 when its exponents mix
parities; each cell lists the t-exponents
of the generators sitting at that spot, and the bottom row's a-grading is
printed so the absolute normalization is visible.  SVG output draws the
same layout with one arrow per differential entry; in the step-2 layout an
arrow of level N has slope -1/N, since it connects dots offset by (2N, -2).
A text grid of more than laurent.WORK_CAP cells raises TooLarge instead.
"""

from .laurent import WORK_CAP, _capped


def _spots(c):
    spots = {}
    for (ea, eq, et) in c.generators:
        spots.setdefault((eq, ea), []).append(et)
    for key in spots:
        spots[key].sort()
    return spots


def _grid(spots):
    """The q columns, ascending, and the a rows, descending; an axis of one parity steps by 2."""
    qs, as_ = [q for (q, _) in spots], [a for (_, a) in spots]
    qstep = 2 if len({q % 2 for q in qs}) == 1 else 1
    astep = 2 if len({a % 2 for a in as_}) == 1 else 1
    return range(min(qs), max(qs) + 1, qstep), range(max(as_), min(as_) - 1, -astep)


def render_text(c):
    if not c.generators:
        return "(empty complex)\n"
    spots = _spots(c)
    q_values, a_values = _grid(spots)
    _capped(len(q_values) * len(a_values), WORK_CAP, "the text grid needs %d x %d cells",
            len(a_values), len(q_values))
    cells = {spot: ",".join(map(str, ts)) for spot, ts in spots.items()}
    width = max(map(len, cells.values()))
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
    cols, rows = _grid(spots)

    def xy(eq, ea):
        return GRID + cols.index(eq) * GRID, GRID + rows.index(ea) * GRID

    width = GRID * (len(cols) + 1)
    height = GRID * (len(rows) + 1)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (width, height)
    ]
    parts.append(
        '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="7" refY="4" '
        'orient="auto"><path d="M0,0 L8,4 L0,8 z"/></marker></defs>'
    )
    colors = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085"]
    palette = {n: colors[i % len(colors)] for i, n in enumerate(sorted(c.diffs))}
    for n, entries in sorted(c.diffs.items()):
        for (s, d, coeff) in entries:
            (sa, sq, _), (da, dq, _) = c.generators[s], c.generators[d]
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
        '<text x="4" y="%d" font-size="11">a=%d</text>' % (height - GRID + 4, rows[-1])
    )
    parts.append("</svg>")
    return "\n".join(parts)
