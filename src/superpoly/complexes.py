"""Triply graded complexes with the anticommuting differential family.

A DotComplex is a finite list of generators, each carrying an (ea, eq, et)
grading triple, together with sparse rational matrices d_N indexed by an
integer level N.  The admissible degree of d_N is

    N > 0:  (-2, 2N, -1)
    N = 0:  (-2, 0, -3)
    N < 0:  (-2, 2N, -1 + 2N)

and the whole family must pairwise anticommute (so in particular each d_N
squares to zero).  That axiom is checked by one walk over the length-two
paths of all levels, source by source.  The in-package builders write each
+-1 sign from a closed-form rule per arrow class, and complex_from_arrows
verifies every build.  Homology with respect to d_N, taken per amalgamated
bigrade, produces the doubly graded reductions.  The N = 1 differential is
canceling, and since it is homogeneous for the full (a, q, t) grading the
S-invariant is read off the d_1 pivots: the a-grading of the one grading
whose homology is nonzero.

Coefficients are ints whenever their denominator is 1 (every built
complex); only a truly non-integer coefficient (say from a .cplx file)
stays a Fraction.  All linear algebra is exact and runs on ints: one
sparse elimination per level, kept on the complex, serves every homology
count and the S-invariant (a Fraction level is first scaled by one constant).
"""

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .laurent import Poly3, _ascii_int, _capped, _int_arg, delta_spectrum, y_genus


class ComplexError(Exception):
    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class GradingMismatch(ComplexError):
    pass


class NotCanceling(ComplexError):
    pass


class SurvivorOffLine(ComplexError):
    pass


class ComplexParseError(ComplexError):
    def __init__(self, message, line):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


def diff_degree(n):
    """Required grading shift of d_N."""
    if n > 0:
        return (-2, 2 * n, -1)
    if n == 0:
        return (-2, 0, -3)
    return (-2, 2 * n, -1 + 2 * n)


class SignLevel(Sequence):
    """A level of +-1 coefficients in (src, dst) order: array('q') src, dst, array('b') sign.

    It reads as the tuple of its (src, dst, sign) triples: len, iteration,
    indexing (a slice is a tuple) and == agree with it.  Builders append to
    its arrays (_weave: whole runs) before handing it on; else it is read-only.
    """

    __slots__ = ("src", "dst", "sign")

    def __init__(self, src=(), dst=(), sign=()):
        self.src, self.dst, self.sign = array("q", src), array("q", dst), array("b", sign)

    def __len__(self):
        return len(self.src)

    def __iter__(self):
        return zip(self.src, self.dst, self.sign)

    def __getitem__(self, i):
        if type(i) is slice:
            return tuple(zip(self.src[i], self.dst[i], self.sign[i]))
        return self.src[i], self.dst[i], self.sign[i]

    def __eq__(self, other):
        return type(other) in (tuple, SignLevel) and tuple(self) == tuple(other)

    def __repr__(self):
        return "SignLevel(%r)" % (tuple(self),)


def _held(entries):
    """A level as held, from its nonzero entries in (src, dst) order (falsy if none):
    a SignLevel as it is, +-1 int entries as a SignLevel, any others as their tuple."""
    if type(entries) is SignLevel:
        return entries
    entries = tuple(entries)
    if entries and all(type(v) is int and v * v == 1 for (_, _, v) in entries):
        return SignLevel(*zip(*entries))
    return entries


class DotComplex:
    """Generators plus the sparse differential family.

    generators: tuple of (ea, eq, et) int triples (repeats allowed).
    diffs: dict N -> sorted (src_index, dst_index, coefficient) entries, the
    coefficient a nonzero int, or a Fraction only when not an integer.  A
    level of +-1 coefficients (every built one) is held as a SignLevel, which
    reads as the tuple of its entries, so diffs reads as it did when every
    level was a tuple; any other level is that tuple itself (see _held).
    A complex is made one of two ways.  The public constructor checks every
    entry: it raises TypeError unless diffs is a dict of (src, dst,
    coefficient) triples, gradings are int triples, level keys and indices
    ints (not bool) and coefficients ints or Fractions; ComplexError, naming
    the entry as .entry = (N, src, dst), for an index outside
    [0, len(generators)) or a (src, dst) pair twice in one level, even if
    one copy has coefficient 0.  The in-package builders, whose entries are
    valid and sorted by construction, hand their levels to _trusted instead.
    verify() records sound levels in _verified, and _pivots (see homology) pivot columns.
    """

    def __init__(self, generators, diffs=None, label=None):
        self.generators = tuple(map(tuple, generators))
        for g in self.generators:
            if len(g) != 3 or not type(g[0]) is type(g[1]) is type(g[2]) is int:
                raise TypeError("gradings must be int triples, got %r" % (g,))
        size = len(self.generators)
        self.diffs, diffs = {}, {} if diffs is None else diffs
        if not isinstance(diffs, dict):
            raise TypeError("diffs must be a dict of levels, got %s" % type(diffs).__name__)
        for n, entries in diffs.items():
            if type(n) is not int:
                raise TypeError("level keys must be ints, got %r" % (n,))
            level = []
            for entry in entries:
                try:
                    s, d, coeff = entry
                except (TypeError, ValueError):
                    raise TypeError("d_%d entry %r is not a (src, dst, coefficient) triple"
                                    % (n, entry)) from None
                if type(coeff) is Fraction and coeff.denominator == 1:
                    coeff = coeff.numerator
                if not type(s) is type(d) is int or type(coeff) not in (int, Fraction):
                    raise TypeError("d_%d entry %r needs int indices and an int or Fraction"
                                    " coefficient" % (n, (s, d, coeff)))
                level.append((s, d, coeff))
            level.sort()
            for i, (s, d, _) in enumerate(level):
                if not (0 <= s < size and 0 <= d < size):
                    raise ComplexError("d_%d entry %d -> %d refers to a missing generator"
                                       % (n, s, d), (n, s, d))
                if i and level[i - 1][0] == s and level[i - 1][1] == d:
                    raise ComplexError("d_%d entry %d -> %d is given twice" % (n, s, d), (n, s, d))
            kept = _held(entry for entry in level if entry[2])
            if kept:
                self.diffs[n] = kept
        self.label = label
        self._verified, self._pivots = {}, {}

    @classmethod
    def _trusted(cls, generators, levels, label=None):
        """The complex over a generator tuple and levels {N: entries}, taken without a check.

        An empty level is dropped.  The entries must be what the constructor
        would keep, in its order: nonzero coefficients, indices in range, no
        (src, dst) pair twice.
        """
        c = cls.__new__(cls)
        c.generators, c.label, c._verified, c._pivots = generators, label, {}, {}
        c.diffs = {n: level for n, entries in levels.items() if (level := _held(entries))}
        return c

    def __len__(self):
        return len(self.generators)

    def poincare(self):
        return Poly3._trusted(dict(Counter(self.generators)))


def mirror_complex(c, label=None):
    """The complex of the mirror knot: dualize.

    Gradings are negated and every arrow is transposed (src and dst swap),
    which keeps each d_N at its own level with its own degree: the shift of
    a reversed arrow between negated endpoints equals the original shift.
    """
    gens = tuple((-ea, -eq, -et) for (ea, eq, et) in c.generators)
    diffs = {n: sorted((d, s, coeff) for (s, d, coeff) in level) for n, level in c.diffs.items()}
    return DotComplex._trusted(gens, diffs, label)


# -- verification -----------------------------------------------------------

def _nonzero_composites(c, levels, whole=None):
    """Sorted (N, M, src, dst), N <= M, where d_N d_M + d_M d_N (d_N^2 if N = M) is nonzero.

    levels must be sorted.  Each source is walked once: its paths through
    any two of the levels are summed into one row keyed by (dst, level pair).
    An out-edge is an int key, its level's bit above its target, negated for
    a -1; another coefficient keeps the key plain and its value in weight.
    A source's keys come in order of size, so at a source that whole(src)
    rejects, each second step is the one run of same-level keys: only the
    paths within one level are summed, so only its squares come back.
    """
    shift = len(c.generators).bit_length()
    low = (1 << shift) - 1
    out = [[] for _ in c.generators] if any(map(c.diffs.get, levels)) else []
    weight = {}
    for pos, n in enumerate(levels):
        bit = 1 << pos + shift
        for s, d, v in c.diffs.get(n, ()):
            if v == 1:
                out[s].append(bit | d)
            elif v == -1:
                out[s].append(-(bit | d))
            else:
                out[s].append(bit | d)
                weight[s, bit | d] = v
    bad = []
    for s, edges in enumerate(out):
        row, full = {}, whole is None or whole(s)
        for k1 in edges:
            if k1 > 0:
                a, one = k1, 1
            else:
                a, one = -k1, -1
            t = a & low
            bit, run = a - t, out[t]
            if not full:
                run = run[bisect_left(run, bit, key=abs):bisect_left(run, bit << 1, key=abs)]
            if weight:
                one = weight.get((s, a), one)
                for k2 in run:
                    b = abs(k2)
                    row[b | bit] = row.get(b | bit, 0) + one * weight.get((t, b), b // k2)
                continue
            for k2 in run:
                if k2 > 0:
                    k = k2 | bit
                    row[k] = row.get(k, 0) + one
                else:
                    k = -k2 | bit
                    row[k] = row.get(k, 0) - one
        for k, value in row.items():
            if value:
                bits = k >> shift
                bad.append((levels[(bits & -bits).bit_length() - 1],
                            levels[bits.bit_length() - 1], s, k & low))
    return sorted(bad)


class VerifyReport:
    """Outcome of verify(): a violation list plus grading statistics."""

    def __init__(self, violations, delta_histogram, thin, g_max, symmetric):
        self.violations = violations
        self.delta_histogram = delta_histogram
        self.thin = thin
        self.g_max = g_max
        self.symmetric = symmetric

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        out = ["FAIL %s" % v for v in self.violations]
        deltas = ",".join(
            "%s:%d" % (("%d/2" % d2) if d2 % 2 else str(d2 // 2), n)
            for d2, n in sorted(self.delta_histogram.items())
        )
        out.append("delta spectrum {%s} -> %s" % (deltas, "thin" if self.thin else "thick"))
        if self.symmetric:
            out.append("q <-> q^-1 symmetry holds at the Poincare level (g_max=%d)" % self.g_max)
        return out


def _bad_degrees(c, n):
    """One message per d_N entry whose grading shift is not diff_degree(N)."""
    want = diff_degree(n)
    gens = c.generators
    for (s, d, _) in c.diffs.get(n, []):
        (a0, q0, t0), (a1, q1, t1) = gens[s], gens[d]
        got = (a1 - a0, q1 - q0, t1 - t0)
        if got != want:
            yield "d_%d entry %d->%d has degree %s, expected %s" % (n, s, d, got, want)


def verify(c, max_eq=None):
    """Check gradings, squares, anticommutators and the Poincare symmetry.

    Never raises for a bad complex; all problems come back in the report
    (a max_eq that is neither None nor an int raises TypeError).
    Squares and anticommutators, found in one walk over every length-two
    path (_nonzero_composites), are reported in (N, M, src, dst) order.
    When max_eq is given, only faults on paths starting at generators with
    eq <= max_eq are reported; this is how truncated (cutoff) complexes are
    checked away from their boundary, where partner paths may have been
    cut off.  The walk still sums the squares at every source, so each
    level whose degrees are right and whose square vanishes everywhere is
    recorded in c._verified with the very level and generators objects it
    was found on, and homology() need not check that level again.
    """
    if max_eq is not None and type(max_eq) is not int:
        raise TypeError("max_eq must be an int or None, got %r" % (max_eq,))
    levels = sorted(c.diffs)
    gens = c.generators
    degree_faults = {n: list(_bad_degrees(c, n)) for n in levels}
    violations = [v for n in levels for v in degree_faults[n]]
    reported = None if max_eq is None else (lambda s: gens[s][1] <= max_eq)
    composites = _nonzero_composites(c, levels, reported)
    squared = {n for (n, m, _, _) in composites if n == m}
    c._verified = {n: (c.diffs[n], gens) for n in levels
                   if not degree_faults[n] and n not in squared}
    for (n, m, s, d) in composites:
        if reported is not None and not reported(s):
            continue
        if n == m:
            violations.append("d_%d squared is nonzero on %d -> %d" % (n, s, d))
        else:
            violations.append("d_%d and d_%d fail to anticommute on %d -> %d" % (n, m, s, d))
    poincare = c.poincare()
    g_max = y_genus(poincare)
    symmetric = g_max is not None
    # A cutoff complex cannot be q-symmetric; only whole complexes are
    # required to pass the Poincare-level symmetry.
    if not symmetric and max_eq is None:
        violations.append("Poincare polynomial not expressible in a, t, y")
    hist = delta_spectrum(poincare)
    return VerifyReport(violations, hist, len(hist) <= 1, g_max, symmetric)


# -- exact homology ---------------------------------------------------------

def _eliminate(rows, pivots):
    """Reduce sparse int rows {col: nonzero coeff} into pivots; count the independent ones.

    pivots maps a column to the kept row whose least column it is.  Each
    row is reduced against the pivot at its least column until that column
    is free, and is then kept there; a row reduced to nothing is dependent.
    A unit pivot is cleared with integer arithmetic.  Any other pivot takes
    a fraction-free step, after which the row is divided by the gcd of its
    entries, so entries stay exact and bounded.  The rows are consumed.
    """
    rank = 0
    for row in rows:
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


def _int_level(c, n):
    """The d_N entries, times the lcm of their denominators if one is a Fraction: same ranks."""
    level = c.diffs.get(n, ())
    if type(level) is tuple and Fraction in set(map(type, map(itemgetter(2), level))):
        scale = lcm(*(v.denominator for (_, _, v) in level))
        return [(s, d, int(v * scale)) for (s, d, v) in level]
    return level


class HomologyReport:
    """Per-bigrade dimensions of the d_N homology plus its Poincare polynomial."""

    def __init__(self, n, poincare, dims):
        self.n = n
        self.poincare = poincare
        self.dims = dims

    @property
    def total_dim(self):
        return sum(self.dims.values())


def _bigrade(n):
    """The amalgamated (block, level) key of a grading under d_N, N >= 0."""
    if n >= 1:
        return lambda g: (n * g[0] + g[1], g[2])
    return lambda g: (g[1], g[2] - g[0])


def _rows(level):
    """An empty row, then each source's row {target: coefficient} of a (src, dst)-sorted level."""
    row, last = {}, None
    for s, d, coeff in level:
        if s != last:
            yield row
            row, last = {}, s
        row[d] = coeff
    yield row


def _pivots(c, n):
    """The pivot columns of d_N's one elimination, an array('q') kept on the complex.

    _rows yields each source's row once the sorted level moves past it, and
    only the pivot rows are held.  The columns are kept in c._pivots[n] with
    the level and generators they were found on, and while both are those
    very objects d_N is not eliminated again.  A wrong-degree entry raises
    GradingMismatch, a nonzero d_N^2 ComplexError naming its least source ->
    target pair; a current verify() record skips both checks.
    """
    level, gens, pivots = c._pivots.get(n, (None, None, None))
    if level is not c.diffs.get(n) or gens is not c.generators:
        level, gens = c._verified.get(n, (None, None))
        if level is not c.diffs.get(n) or gens is not c.generators:
            bad = next(_bad_degrees(c, n), None)
            if bad:
                raise GradingMismatch(bad)
            bad = _nonzero_composites(c, [n])
            if bad:
                raise ComplexError("d_%d squared is nonzero on %d -> %d" % bad[0][1:])
        _eliminate(_rows(_int_level(c, n)), pivots := {})
        pivots = array("q", pivots)  # frees the pivot rows
        c._pivots[n] = c.diffs.get(n), c.generators, pivots
    return pivots


def homology(c, n):
    """Homology of (C, d_N) for N >= 0, per amalgamated bigrade.

    For N >= 1 generators group by (p, k) = (N*ea + eq, et) and the output
    Poincare polynomial lives in q^p t^k.  For N = 0 they group by
    (q, t') = (eq, et - ea) and the output lives in q^eq t^{t'}; this is the
    Alexander-side regrading.  An absent d_N means the zero differential.
    An entry's degree puts its target in the block (p, k - 1) below its
    source's, so the d_N pivot columns (_pivots, whose checks and errors
    are homology's) in (p, k) and (p, k - 1) are its ranks in and out.
    """
    if _int_arg("n", n) < 0:
        raise ValueError("reductions are only defined for N >= 0")
    pivots = _pivots(c, n)
    keys = list(map(_bigrade(n), c.generators))
    into = Counter(map(keys.__getitem__, pivots))
    dims = {(p, k): dim for (p, k), size in Counter(keys).items()
            if (dim := size - into[p, k] - into[p, k - 1])}
    poly = Poly3._trusted({(0, p, k): dim for (p, k), dim in dims.items()})
    return HomologyReport(n, poly, dims)


def s_invariant(c):
    """The a-grading of the unique d_1 survivor, read off the d_1 pivots.

    Every d_1 entry has degree D = (-2, 2, -1) (checked), so the homology
    splits over the gradings, g having dimension size(g) - pivots(g) -
    pivots(g + D).  Summed, that is len(c) - 2 * rank, and when it is 1 the
    one survivor sits at the grading sum of the generators less twice that
    of the pivot columns plus rank * D.  Raises NotCanceling when the d_1
    homology is not one-dimensional and SurvivorOffLine when the survivor is
    off a^S q^{-S} t^0.
    """
    pivots = _pivots(c, 1)
    total = len(c.generators) - 2 * len(pivots)
    if total != 1:
        raise NotCanceling("d_1 homology has dimension %d, expected 1" % total)
    ea, eq, et = (sum(col) - 2 * sum(map(col.__getitem__, pivots)) + len(pivots) * step
                  for col, step in zip(zip(*c.generators), diff_degree(1)))
    if ea + eq != 0 or et != 0:
        raise SurvivorOffLine("survivor sits at amalgamated bigrade (%d, %d)" % (ea + eq, et))
    return ea


# -- constructions ----------------------------------------------------------

def complex_from_arrows(gradings, arrows, label=None):
    """Build a DotComplex from signed arrows and verify it.

    arrows: dict N -> SignLevel, each sign from its builder's closed-form
    rule per arrow class.  In-package builders only: their int-triple
    gradings and sorted in-range arrows go to DotComplex._trusted.  verify()
    then checks every build exactly, and any violation raises ComplexError.
    """
    c = DotComplex._trusted(tuple(gradings), arrows, label)
    report = verify(c)
    if not report.ok:
        raise ComplexError("constructed complex failed verification: %s"
                           % "; ".join(report.violations))
    return c


def _weave(level, *runs):
    """Append (src range, dst range, sign) runs to a SignLevel, woven: the first arrow of each
    run in turn, then the second, and so on; a run after the first may be one arrow short."""
    size = sum(len(src) for src, _, _ in runs)
    for column, part in zip((level.src, level.dst, level.sign), range(3)):
        values = [0] * size
        for w, run in enumerate(runs):
            values[w::len(runs)] = run[part] if part < 2 else [run[2]] * len(run[0])
        column.fromlist(values)


def build_torus_complex(n, m):
    """The dot complex of T(n, m) for n in {2, 3}.

    Generators are the superpolynomial monomials.  T(2, m) is the thin
    complex with no squares.  For n = 3, d_1 is the explicit canceling
    matching, d_{-1} and d_{-2} its image under the q -> q^{-1} involution,
    and the d_2 / d_0 arrows pair each cancelled source with its image.
    Each level is written from whole rows of torus._t3_families, held as
    ranges of generator indices: a level-1 row r maps into the level-0 rows
    t and u of its own and the previous j, a level-2 row s into the level-1
    rows w and v of its own and the next j, and each arrow class out of a
    row is one run (_weave).  The sign is -1 exactly on the d_1 arrows out
    of the odd level-1 entries and on the d_1 and d_{-1} arrows out of
    level 2; complex_from_arrows verifies the result before it is returned.
    """
    from .torus import torus_id, _t3_families

    n, m = torus_id(n, m)
    if n == 2:
        return build_thin_complex((m - 1) // 2, Poly3.zero(), label="T(2,%d)" % m)
    if n != 3:
        raise ValueError("only the n = 2 and n = 3 families have explicit complexes")

    gens, lv0, lv1, lv2 = [], [], [], []
    for level, held in zip(_t3_families(m), (lv0, lv1, lv2)):
        for row in level:
            held.append(range(len(gens), len(gens) + len(row)))
            gens += row
    d1, dm1, d2, dm2, d0 = arrows = [SignLevel() for _ in range(5)]
    for t, u, r in zip(lv0, [range(0)] + lv0, lv1):
        if r:  # row 0 is empty when m = 3k + 1
            _weave(d1, (r[:1], t[:1], 1))
            _weave(d1, (r[2::2], t[1:-1], 1), (r[3::2], u, -1))
            _weave(dm1, (r[:1], t[1:2], 1), (r[1:2], u[:1], 1))
            _weave(dm1, (r[2::2], t[2:], 1))
            for i, level in enumerate((d2, d0, dm2)):
                _weave(level, (r[1::2], t[i:i + len(r) // 2], 1))
    for s, w, v in zip(lv2, lv1, lv1[1:]):
        _weave(d1, (s, v[1:-2:2], -1), (s[1:], w[::2], -1))
        _weave(dm1, (s, v[3::2], -1))
        for i, level in enumerate((d2, d0, dm2)):
            _weave(level, (s, v[2 * i:2 * i + 2 * len(s):2], 1))
    return complex_from_arrows(gens, dict(zip((1, -1, 2, -2, 0), arrows)), label="T(3,%d)" % m)


def build_thin_complex(sawtooth_k, squares, label=None):
    """Thin complex: one zigzag summand plus a four-generator square per term.

    sawtooth_k: signed half-signature; the zigzag is the T(2, |2k|+1) chain
    of torus._t2_family (mirrored when negative: gradings negated, arrows
    transposed; a lone generator when zero).  squares: Poly3 of base
    monomials with nonnegative multiplicities; a base x contributes the
    generators x, x*a^{-2}q^2 t^{-1}, x*a^{-2}q^{-2}t^{-3}, x*a^{-4}t^{-4}
    with the square's two d_1 and two d_{-1} arrows.  Every arrow has sign
    +1 except each square's second d_1 arrow, base+2 -> base+3, which has -1.
    The 2k + 1 + 4 * (sum of multiplicities) generators are counted first:
    past torus.GENERATOR_CAP it raises TooLarge and builds no square.
    """
    from . import torus

    k = abs(_int_arg("sawtooth_k", sawtooth_k))
    sign = -1 if sawtooth_k < 0 else 1
    gens = [(sign * ea, sign * eq, sign * et) for ea, eq, et in torus._t2_family(k)]
    if any(mult < 0 for mult in squares.terms.values()):
        raise ComplexError("square multiplicities must be nonnegative")
    total = len(gens) + 4 * sum(squares.terms.values())
    _capped(total, torus.GENERATOR_CAP, "thin complex has %d generators", total)
    # w_i -> u_i on d_1 and w_i -> u_{i-1} on d_{-1}; [::-1] transposes an arrow.
    d1 = SignLevel(*(range(k + 1, 2 * k + 1), range(1, k + 1))[::sign], [1] * k)
    dm1 = SignLevel(*(range(k + 1, 2 * k + 1), range(k))[::sign], [1] * k)
    b0, b1, b2, b3 = (range(base, total, 4) for base in range(len(gens), len(gens) + 4))
    for (ea, eq, et), mult in sorted(squares.terms.items()):
        gens += [(ea, eq, et), (ea - 2, eq + 2, et - 1), (ea - 2, eq - 2, et - 3),
                 (ea - 4, eq, et - 4)] * mult
    _weave(d1, (b0, b1, 1), (b2, b3, -1))
    _weave(dm1, (b0, b2, 1), (b1, b3, 1))
    return complex_from_arrows(gens, {1: d1, -1: dm1}, label=label)


# -- text round-trip --------------------------------------------------------

def serialize_complex(c):
    """Line-based text form: gen/diff records, ids dense from zero."""
    lines = ["# %s" % c.label] if c.label else []
    lines += ["gen %d %d %d %d" % (i, *g) for i, g in enumerate(c.generators)]
    lines += ["diff %d %d %d %d/%d" % (n, s, d, coeff.numerator, coeff.denominator)
              for n in sorted(c.diffs) for (s, d, coeff) in c.diffs[n]]
    return "\n".join(lines) + "\n"


def deserialize_complex(text, label=None):
    """Parse the gen/diff text form; DotComplex checks the entries, errors get their line."""
    gens = {}
    diffs = {}
    diff_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "gen":
            if len(parts) != 5:
                raise ComplexParseError("gen needs: id ea eq et", lineno)
            try:
                idx, ea, eq, et = map(_ascii_int, parts[1:])
            except ValueError:
                raise ComplexParseError("gen fields must be integers", lineno)
            if idx in gens:
                raise ComplexParseError("duplicate generator id %d" % idx, lineno)
            gens[idx] = (lineno, (ea, eq, et))
        elif parts[0] == "diff":
            if len(parts) != 5:
                raise ComplexParseError("diff needs: N src dst num/den", lineno)
            try:
                n, s, d = map(_ascii_int, parts[1:4])
                num_s, slash, den_s = parts[4].partition("/")
                num = _ascii_int(num_s)
                den = _ascii_int(den_s) if slash else 1
            except ValueError:
                raise ComplexParseError("diff fields must be integers", lineno)
            if den <= 0:
                raise ComplexParseError("denominator must be positive", lineno)
            diffs.setdefault(n, []).append((s, d, Fraction(num, den)))
            diff_lines[(n, s, d)] = lineno
        else:
            raise ComplexParseError("unknown record %r" % parts[0], lineno)
    sparse = [lineno for i, (lineno, _) in gens.items() if not 0 <= i < len(gens)]
    if sparse:
        raise ComplexParseError("generator ids must be dense from 0", min(sparse))
    try:
        return DotComplex([gens[i][1] for i in range(len(gens))], diffs, label=label)
    except ComplexError as exc:
        raise ComplexParseError(str(exc), diff_lines[exc.entry]) from None
