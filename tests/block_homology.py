"""The per-block homology, kept as the tests' reference.

The package takes the homology of d_N in one elimination over the whole
level (complexes.homology), with a level of Fractions scaled to integers
once.  This is the routine it replaced, unchanged but for its names: one
elimination per amalgamated bigrade with its own pivots, and a row holding
Fractions scaled by the lcm of its own denominators.  block_survivor and
block_s_invariant are the S-invariant on top of it, as they were.
"""

from collections import Counter
from math import gcd, lcm

from superpoly.complexes import (
    ComplexError,
    GradingMismatch,
    HomologyReport,
    NotCanceling,
    SurvivorOffLine,
    _bad_degrees,
    _bigrade,
    _nonzero_composites,
)
from superpoly.laurent import Poly3


def block_eliminate(rows, pivots):
    """Reduce sparse rows {col: nonzero coeff} into pivots; count the independent ones.

    pivots maps a column to the kept row whose least column it is.  Each
    row is reduced against the pivot at its least column until that column
    is free, and is then kept there; a row reduced to nothing is dependent.
    A unit pivot is cleared with integer arithmetic.  Any other pivot takes
    a fraction-free step, after which the row is divided by the gcd of its
    entries, so entries stay exact and bounded.  A row holding Fractions is
    first scaled by the lcm of its denominators.  Scaling a row never
    changes the rank.  The rows themselves are consumed.
    """
    rank = 0
    for row in rows:
        if any(type(v) is not int for v in row.values()):
            scale = lcm(*(v.denominator for v in row.values()))
            row = {k: int(v * scale) for k, v in row.items()}
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = row
                rank += 1
                break
            a, b = row[col], prow[col]
            unit = b == 1 or b == -1
            if unit:
                f = a * b
            else:
                g = gcd(a, b)
                f = a // g
                row = {k: b // g * v for k, v in row.items()}
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            if not unit:
                content = gcd(*row.values())
                if content > 1:
                    row = {k: v // content for k, v in row.items()}
    return rank


def reference_block_homology(c, n):
    """Homology of (C, d_N) for N >= 0, one elimination per amalgamated bigrade."""
    if type(n) is not int:
        raise TypeError("n must be an int, got %r" % (n,))
    if n < 0:
        raise ValueError("reductions are only defined for N >= 0")
    level, gens = c._verified.get(n, (None, None))
    if level is not c.diffs.get(n) or gens is not c.generators:
        bad = next(_bad_degrees(c, n), None)
        if bad:
            raise GradingMismatch(bad)
        bad = _nonzero_composites(c, [n])
        if bad:
            raise ComplexError("d_%d squared is nonzero on %d -> %d" % bad[0][1:])
    key_of = _bigrade(n)
    keys = [key_of(g) for g in c.generators]
    blocks = {}
    # Its degree puts each d_N entry's target in its source's block, one level down.
    for (s, d, coeff) in c.diffs.get(n, ()):
        blocks.setdefault(keys[s], {}).setdefault(s, {})[d] = coeff
    ranks = {key: block_eliminate(rows.values(), {}) for key, rows in blocks.items()}
    dims = {}
    for key, size in Counter(keys).items():
        dim = size - ranks.get(key, 0) - ranks.get((key[0], key[1] + 1), 0)
        if dim:
            dims[key] = dim
    poly = Poly3({(0, p, k): dim for (p, k), dim in dims.items()})
    return HomologyReport(n, poly, dims)


def block_survivor(c):
    """Generator indices of a d_1 class spanning ker / im in the (0, 0) block."""
    block = [i for i, key in enumerate(map(_bigrade(1), c.generators)) if key == (0, 0)]
    tag = len(c.generators)
    out_rows = {i: {tag + i: 1} for i in block}
    in_rows = {}
    for (s, d, coeff) in c.diffs.get(1, []):
        if s in out_rows:
            out_rows[s][d] = coeff
        elif d in out_rows:
            in_rows.setdefault(s, {})[tag + d] = coeff
    kernel = {}
    block_eliminate(out_rows.values(), kernel)
    image = {}
    block_eliminate(in_rows.values(), image)
    for col in sorted(kernel):
        if col >= tag and block_eliminate([dict(kernel[col])], image):
            return [k - tag for k in kernel[col]]
    return None


def block_s_invariant(c):
    """The a-grading of the unique d_1 survivor, through the per-block routines."""
    report = reference_block_homology(c, 1)
    if report.total_dim != 1:
        raise NotCanceling("d_1 homology has dimension %d, expected 1" % report.total_dim)
    ((p, k),) = report.dims
    if p != 0 or k != 0:
        raise SurvivorOffLine("survivor sits at amalgamated bigrade (%d, %d)" % (p, k))
    support = block_survivor(c)
    if support is None:
        raise SurvivorOffLine("could not isolate a one-dimensional surviving class")
    a_values = {c.generators[i][0] for i in support}
    if len(a_values) != 1:
        raise SurvivorOffLine("surviving class mixes a-gradings %s" % sorted(a_values))
    return a_values.pop()
