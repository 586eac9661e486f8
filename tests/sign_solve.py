"""The GF(2) sign solve, kept as the tests' reference for the builders' sign rules.

The package's builders write each arrow's +-1 sign from a closed-form rule
per arrow class and hand signed arrows to complexes.complex_from_arrows.
Before, they handed unsigned arrows to the path below, unchanged here:
_solve_signs finds the signs that make the family anticommute, the least
solution read from edge 0 upward, and solved_complex_from_arrows builds and
verifies the complex.  The rule-signed builders are pinned to it byte for
byte.
"""

from superpoly.complexes import ComplexError, DotComplex, verify
from tuple_walk import _level_pair, _out_edges


def _sign_equations(by_src):
    """Yield, per pair of parallel composites, the set of its edge indices.

    by_src: dict N -> {src: [(dst, edge index), ...]}.  Each set is one
    GF(2) equation: the sign exponents of its edges sum to 1, so that the
    two composites cancel.  Each source is walked once over one out-edge
    map, its paths grouped by (level pair, target), and its equations are
    yielded before the next source is walked.  A target reached by one
    path, or by more than two, is a fault; the least faulty
    (N, M, src, dst) is raised after the walk.
    """
    levels = sorted(by_src)
    width = len(levels)
    mask = (1 << width) - 1
    out = _out_edges([((s, d, e) for s, edges in by_src[n].items() for (d, e) in edges)
                      for n in levels])
    faults = []
    for s, edges in out.items():
        paths = {}
        for (k1, e1) in edges:
            bit = k1 & mask
            for (k2, e2) in out.get(k1 >> width, ()):
                paths.setdefault(k2 | bit, []).append((e1, e2))
        for key, plist in paths.items():
            if len(plist) == 2:
                (a1, a2), (b1, b2) = plist
                yield {a1} ^ {a2} ^ {b1} ^ {b2}
            else:
                faults.append((*_level_pair(key, levels), s, key >> width, len(plist)))
    if faults:
        n, m, s, d, count = min(faults)
        raise ComplexError("unpairable composite d_%d/d_%d path %d -> %d" % (n, m, s, d)
                           if count == 1 else "more than two parallel composites %d -> %d; "
                           "the +-1 sign rule does not apply" % (s, d))


def _solve_signs(arrows):
    """Assign +-1 coefficients making the arrow family anticommute.

    arrows: dict N -> list of (src, dst).  Every length-two composite
    (either order) between a fixed source and target must cancel against
    exactly one partner path, which yields a linear system over GF(2) for
    the sign exponents.  Of its solutions the one returned is least when
    its bits are read from edge 0 upward: an edge whose sign the earlier
    edges do not force keeps +1.  Returns dict N -> list of signs, one per
    arrow of sorted(arrows[N]).  Raises ComplexError when a composite has
    no partner or the system is inconsistent, which means the arrow sets
    themselves are wrong (signs cannot help).
    """
    by_src = {}
    nvars = 0
    for n in sorted(arrows):
        by_src[n] = {}
        for (s, d) in sorted(arrows[n]):
            by_src[n].setdefault(s, []).append((d, nvars))
            nvars += 1
    # Gaussian elimination over GF(2) on a set-of-indices representation,
    # rows keyed by their pivot, the greatest index.  Column -1 is the
    # right-hand side, read back as values[-1] = 1, so a row reduced to
    # that column alone is an inconsistency.  The pivots are the columns that lower ones force,
    # whatever the order of the equations, so each is reduced as it is
    # generated; reduced rows stay a few entries long and are kept as
    # tuples.  Free variables stay 0, i.e. the edge keeps +1.
    rows = {}
    for r in _sign_equations(by_src):
        r.add(-1)
        pivot = max(r)
        while pivot in rows:
            r = r.symmetric_difference(rows[pivot])
            pivot = max(r, default=-1)
        if pivot == -1:
            if r:
                raise ComplexError("sign constraints are inconsistent")
            continue
        rows[pivot] = tuple(r)
    values = [0] * nvars + [1]
    for pivot in sorted(rows):  # values[pivot] is still 0 in its own sum
        values[pivot] = sum(map(values.__getitem__, rows[pivot])) & 1
    bits = iter(values)
    return {n: [-1 if next(bits) else 1 for _ in arrows[n]] for n in sorted(arrows)}


def solved_complex_from_arrows(gradings, arrows, label=None):
    """Build a DotComplex from unsigned arrow sets via the GF(2) sign pass.

    In-package builders only: their int-triple gradings and distinct
    in-range arrows go to DotComplex._trusted, and the result is verified.
    """
    signs = _solve_signs(arrows)
    diffs = {
        n: tuple((s, d, sign) for (s, d), sign in zip(sorted(pairs), signs[n]))
        for n, pairs in arrows.items() if pairs
    }
    c = DotComplex._trusted(tuple(gradings), diffs, label)
    report = verify(c)
    if not report.ok:
        raise ComplexError(
            "constructed complex failed verification: %s" % "; ".join(report.violations)
        )
    return c


def unsigned_arrows(c):
    """{N: [(src, dst), ...]}: c's arrows with their coefficients dropped."""
    return {n: [(s, d) for (s, d, _) in entries] for n, entries in c.diffs.items()}
