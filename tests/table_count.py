"""The row-table per-key homology count, kept as the tests' reference.

The package streams each source's row of the sorted level into the
elimination (complexes._pivots) as soon as it is complete, holds only the
pivot rows, and keeps their columns for homology's count.  This is the
count it replaced, unchanged but for its name and its return value: the
whole level is first read into one table of rows {src: {dst:
coefficient}}, whose rows then go to _eliminate in source order.  It
returns the pivot columns beside the dims.
"""

from collections import Counter

from superpoly.complexes import (
    ComplexError,
    GradingMismatch,
    _bad_degrees,
    _eliminate,
    _int_level,
    _nonzero_composites,
)


def table_count(c, n, key_of, image_of):
    """({key: dim} of the d_N homology per key_of(grading), the set of pivot columns)."""
    level, gens = c._verified.get(n, (None, None))
    if level is not c.diffs.get(n) or gens is not c.generators:
        bad = next(_bad_degrees(c, n), None)
        if bad:
            raise GradingMismatch(bad)
        bad = _nonzero_composites(c, [n])
        if bad:
            raise ComplexError("d_%d squared is nonzero on %d -> %d" % bad[0][1:])
    keys = list(map(key_of, c.generators))
    rows = {}
    for (s, d, coeff) in _int_level(c, n):
        rows.setdefault(s, {})[d] = coeff
    pivots = {}
    _eliminate(rows.values(), pivots)
    into = Counter(map(keys.__getitem__, pivots))
    dims = {key: size - into[key] - into[image_of(key)] for key, size in Counter(keys).items()}
    return {key: dim for key, dim in dims.items() if dim}, set(pivots)
