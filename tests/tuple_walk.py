"""The tuple walk over length-two paths, kept as the tests' reference.

The package finds nonzero squares and anticommutators in one walk whose
out-edges are plain signed int keys (complexes._nonzero_composites).  This
is the walk it replaced, unchanged but for taking each level as an entry
sequence: one out-edge map of (key, value) tuples, every path's value a
product, and at a source that whole(src) rejects every second step looked
at and the other-level ones dropped.  tests/sign_solve.py builds its GF(2)
equations on the same out-edge map.
"""


def _out_edges(per_level):
    """{src: [(dst << L | 1 << pos, value), ...]} over per_level[pos] = (src, dst, value) entries.

    L = len(per_level).  A second step's key or-ed with the first step's
    level bit names the target and the unordered level pair of a path.
    """
    width = len(per_level)
    out = {}
    for pos, entries in enumerate(per_level):
        for (s, d, value) in entries:
            out.setdefault(s, []).append(((d << width) | 1 << pos, value))
    return out


def _level_pair(key, levels):
    """(N, M), N <= M: the levels of the two steps of a path key."""
    bits = key & ((1 << len(levels)) - 1)
    return levels[(bits & -bits).bit_length() - 1], levels[bits.bit_length() - 1]


def tuple_composites(c, levels, whole=None):
    """Sorted (N, M, src, dst), N <= M, where d_N d_M + d_M d_N (d_N^2 if N = M) is nonzero.

    levels must be sorted.  Each source is walked once: its paths through
    any two of the levels are summed into one row keyed by (dst, level pair).
    At a source that whole(src) rejects only the paths within one level are
    summed, so only its squares come back.
    """
    width = len(levels)
    mask = (1 << width) - 1
    out = _out_edges([c.diffs.get(n, ()) for n in levels])
    bad = []
    for s, edges in out.items():
        row = {}
        if whole is None or whole(s):
            for (k1, c1) in edges:
                bit = k1 & mask
                for (k2, c2) in out.get(k1 >> width, ()):
                    row[k2 | bit] = row.get(k2 | bit, 0) + c1 * c2
        else:
            for (k1, c1) in edges:
                bit = k1 & mask
                for (k2, c2) in out.get(k1 >> width, ()):
                    if k2 & bit:
                        row[k2] = row.get(k2, 0) + c1 * c2
        if any(row.values()):
            bad += [(*_level_pair(k, levels), s, k >> width) for k, val in row.items() if val]
    return sorted(bad)
