"""Stable (large second index) limits of the torus knot invariants.

After translating the superpolynomial of T(n, m) so that its survivor
corner sits at the origin, the coefficients stabilize as m grows.  The
limit is a power series in nonnegative powers of q and t:

    product over j = 1..n-1 of (1 + a^2 q^{2j} t^{2j+1})
    over the product over j = 2..n of (1 - q^{2j} t^{2j-2}),

and it is realized by an explicit infinite complex built recursively: the
level-n object is a string of pairs of shifted copies of the level-(n-1)
object, with one new canceling differential and one new acyclic one per
level, and the Alexander-side differential given by a shift-by-one-period
embedding.  Everything here is truncated at a q-degree cutoff: generators
with eq > qmax are dropped, and an edge survives only if both endpoints do.
The series in q^{-1} of finite T(n, m), the extreme beta-terms and the
two-bracket T(2, m) form, are truncated series too and live here as well.

The tensor-word bookkeeping gives every differential a sign twist by the
parity of the homological degree carried below its level, which is what
makes the whole family anticommute (all level shifts are odd in t).
"""

from .laurent import (WORK_CAP, Poly3, TooLarge, _capped, _int_arg, at_a_qN, format_poly,
                      q_inverse)
from .complexes import DotComplex, SignLevel, diff_degree
from .torus import khr2_t3_closed, super_t2, super_torus, torus_id, torus_s_invariant


class GenericityMismatch(Exception):
    """The generic (maximal-rank) reduction disagreed with the closed form."""


class TruncSeries:
    """A polynomial truncated at a q-degree cutoff.

    body holds the kept terms; arithmetic through this class silently
    drops anything with eq > qmax, so a product of truncated series is
    correct exactly up to the cutoff whenever all factors have eq >= 0.
    """

    def __init__(self, body, qmax, pairs=0):
        self.qmax = _int_arg("qmax", qmax)
        self.body = Poly3._trusted({k: c for k, c in body.terms.items() if k[1] <= qmax})
        self.pairs = pairs  # term pairs formed by the products this series came from

    def _operand(self, other):
        """(other's body, both operands' pairs) if other is a series with the same
        cutoff, else (other itself, self's pairs)."""
        if isinstance(other, TruncSeries):
            if other.qmax != self.qmax:
                raise ValueError("cutoff mismatch")
            return other.body, self.pairs + other.pairs
        return other, self.pairs

    def __add__(self, other):
        other, pairs = self._operand(other)
        return TruncSeries(self.body + other, self.qmax, pairs)

    def __mul__(self, other):
        other, pairs = self._operand(other)
        # Refused before multiplying: the work lies in the pairs, not in the kept terms,
        # and a route's chain of products adds them up.
        pairs += len(self.body.terms) * (len(other.terms) if isinstance(other, Poly3) else 1)
        _capped(pairs, WORK_CAP, "the series product chain needs %d term pairs", pairs)
        return TruncSeries(self.body * other, self.qmax, pairs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return False
        return (self.qmax, self.body) == (other.qmax, other.body)

    def __repr__(self):
        return "TruncSeries(qmax=%d, %s)" % (self.qmax, self.body)

    def header_text(self):
        return "# qmax=%d\n%s\n" % (self.qmax, format_poly(self.body))


def geometric(ratio, qmax):
    """1 + r + r^2 + ... truncated, for a one-term ratio r of positive q-degree.

    More than WORK_CAP terms raise TooLarge before any is built.
    """
    if len(ratio.terms) != 1:
        raise ValueError("geometric ratio must be one term, got %d" % len(ratio.terms))
    ((ea, eq, et), c), = ratio.terms.items()
    if eq <= 0:
        raise ValueError("geometric ratio must have positive q-degree")
    count = qmax // eq + 1
    _capped(count, WORK_CAP, "the geometric series of ratio %s needs %d terms", ratio, count)
    return TruncSeries(Poly3._trusted(
        {(k * ea, k * eq, k * et): c ** k for k in range(count)}), qmax)


def _check_stable(n, qmax, names=("n", "qmax")):
    """The strand count min(n, max(2, qmax // 2 + 1)): a level l with 2l - 2 > qmax adds
    only the factor 1.  TypeError unless n and qmax are ints (not bools); ValueError unless
    n >= 2 and qmax >= 0.  The messages call the two by names, the caller's names for them."""
    for name, value in zip(names, (n, qmax)):
        _int_arg(name, value)
    if n < 2:
        raise ValueError("need %s >= 2" % names[0])
    if qmax < 0:
        raise ValueError("need %s >= 0" % names[1])
    return min(n, max(2, qmax // 2 + 1))


def stable_super(n, qmax):
    """The stable superpolynomial of the n-strand family, truncated."""
    n = _check_stable(n, qmax)
    out = TruncSeries(Poly3.one(), qmax)
    for j in range(1, n):
        out = out * (1 + Poly3.monomial(1, 2, 2 * j, 2 * j + 1))
    for j in range(2, n + 1):
        out = out * geometric(Poly3.monomial(1, 0, 2 * j, 2 * j - 2), qmax)
    return out


def stable_homfly(n, qmax):
    """Truncation of the stable a-graded Euler characteristic:
    (1 - q^2)/(1 - q^{2n}) prod_j (1 - a^2 q^{2j})/(1 - q^{2j}).

    Computed independently of stable_super (denominators expanded one by
    one), so it can serve as the t = -1 cross-check.
    """
    n = _check_stable(n, qmax)
    out = TruncSeries(Poly3({(0, 0, 0): 1, (0, 2, 0): -1}), qmax)
    out = out * geometric(Poly3.monomial(1, 0, 2 * n, 0), qmax)
    for j in range(1, n):
        out = out * Poly3({(0, 0, 0): 1, (2, 2 * j, 0): -1})
        out = out * geometric(Poly3.monomial(1, 0, 2 * j, 0), qmax)
    return out


def stable_hfk(n, qmax):
    """(1 + q^2 t) sum_i q^{2ni} t^{2(n-1)i}, truncated."""
    _check_stable(n, qmax)
    s = geometric(Poly3.monomial(1, 0, 2 * n, 2 * (n - 1)), qmax)
    return s * (1 + Poly3.monomial(1, 0, 2, 1))


# -- partial beta-term series for general (n, m) ---------------------------

def stable_beta_terms(n, which, depth):
    """Truncated series for the extreme beta-contributions to T(n, m).

    which 'first' expands prod_j (1 + a^2 q^{-2j} t) / (1 - t^{-2j} q^{-2(j+1)}),
    which 'last' the partner prod_j (a^2 + q^{-2j} t^{-(2j+1)}) over the same
    denominators, each denominator as a geometric series in negative powers
    of q.  Terms with q-exponent below -depth are dropped: the series is
    computed as a TruncSeries in q^{-1} with cutoff depth.

    The j = 1 factors match the two bracket terms of the (2, m) series
    expansion exactly; for j >= 2 the factor exponents grow with j so that
    the expansion reproduces the q/t-grading lattice of the middle and
    extreme a-levels of the (3, m) family.
    """
    k = _check_stable(n, depth, ("n", "depth"))  # past k, a factor truncates to 1, or to a^2
    if which not in ("first", "last"):
        raise ValueError("which must be 'first' or 'last'")
    out = TruncSeries(Poly3.one(), depth)
    for j in range(1, k):
        if which == "first":
            numerator = 1 + Poly3.monomial(1, 2, 2 * j, 1)
        else:
            numerator = Poly3.monomial(1, 2, 0, 0) + Poly3.monomial(1, 0, 2 * j, -(2 * j + 1))
        out = out * numerator * geometric(Poly3.monomial(1, 0, 2 * (j + 1), -2 * j), depth)
    return q_inverse(out.body.scale_monomial(1, ea=0 if which == "first" else 2 * (n - k)))


def t2_series_assembly(m, depth):
    """The full two-bracket series form of the T(2, m) superpolynomial.

    (-aqt)^{m-1} (1 - q^{-2} t^{-2})/(1 - q^{-4} t^{-2}) [ B0 + q^{-2m}
    (-t)^{2-m} B1 ] with B0, B1 the bracket series; all denominators are
    expanded to the given q-depth.  For depth comfortably beyond 2m the
    tails telescope away and the result is exactly super_t2((m-1)/2).
    Everything between the brackets is computed in q^{-1}, as TruncSeries
    with cutoff depth.
    """
    _check_stable(m, depth, ("m", "depth"))
    if m < 3 or m % 2 == 0:
        raise ValueError("need odd m >= 3")
    inv_q2t2 = geometric(Poly3.monomial(1, 0, 2, -2), depth)   # 1/(1 - q^{-2} t^{-2})
    inv_q4t2 = geometric(Poly3.monomial(1, 0, 4, -2), depth)   # 1/(1 - q^{-4} t^{-2})
    b0 = inv_q2t2 * (1 + Poly3.monomial(1, 2, 2, 1))
    b1 = inv_q2t2 * (Poly3.monomial(1, 2, 0, 0) + Poly3.monomial(1, 0, 2, -3))
    shifted = TruncSeries(b1.body.scale_monomial((-1) ** (m - 2), eq=2 * m, et=2 - m), depth,
                          b1.pairs)  # a series, so b1's term pairs stay in the route's total
    body = (b0 + shifted) * (1 - Poly3.monomial(1, 0, 2, -2)) * inv_q4t2
    return q_inverse(body.body).scale_monomial((-1) ** (m - 1), ea=m - 1, eq=m - 1, et=m - 1)


# -- the block complex ------------------------------------------------------

def _flag_bit(qmax, pos):
    """Flag l's bit in a word code, l = pos + 2: digit l - 2 in base 2^b, b the bit length
    of qmax // 2 + 3, holds 2 i_l + c_l, so the bit is also half of i_l's step."""
    return 1 << (qmax // 2 + 3).bit_length() * pos


def _level(l):
    """Level l's (period, flag): each step of i_l moves a word by (0, 2l, 2l-2),
    a set flag c_l by (2, 2l-2, 2l-1)."""
    return (0, 2 * l, 2 * l - 2), (2, 2 * l - 2, 2 * l - 1)


def _word_codes(n, qmax):
    """All tensor words ((i_2, c_2), ..., (i_n, c_n)) with eq <= qmax, as (code, grading).

    Level l contributes i_l times its _level period plus, when its flag is
    set, its _level flag.  The code is the sum of 2 i_l + c_l times
    _flag_bit(qmax, l - 2), so a word's code grows only with its highest nonzero
    level; words come in lexicographic order of ((c_2, i_2), ...).  Each level's
    words are counted from the level held before any is built, and more than
    WORK_CAP raise TooLarge.
    """
    words = [(0, (0, 0, 0))]
    for pos in range(n - 1):
        (_, dq, dt), (fa, fq, ft) = _level(pos + 2)
        count = sum((qmax - eq) // dq + (qmax - eq - fq) // dq + 2 for _, (_, eq, _) in words)
        _capped(count, WORK_CAP, "the word build through level %d at qmax %d needs %d words",
                pos + 2, qmax, count)
        bit, new = _flag_bit(qmax, pos), []
        step = 2 * bit
        for code, (ea, eq, et) in words:
            for flag in (0, 1):
                code_f, ea_f = code + flag * bit, ea + flag * fa
                eq_f, et_f = eq + flag * fq, et + flag * ft
                new += [(code_f + i * step, (ea_f, eq_f + i * dq, et_f + i * dt))
                        for i in range((qmax - eq_f) // dq + 1)]
        words = new
    return words


def build_stable_complex(n, qmax):
    """Truncated stable complex with d_1, d_0 and d_{-1} .. d_{-n+1}.

    Words are ((i_2, c_2), ..., (i_n, c_n)); the level-l components are

        d_{-(l-1)}: flag l drops, everything else fixed;
        d_1:        flag l drops, i_l grows by one;
        d_0 (l>2):  flag l drops, i_{l-1} grows by one;

    each with the sign (-1)^(number of set flags below level l).  Every
    level shift is odd in the homological grading, which is exactly what
    makes distinct-level components anticommute with this twist; components
    at one level compose to zero outright since they all clear the flag.
    """
    n, label = _check_stable(n, qmax), "stable-%d" % n  # the label keeps the n asked for
    words = _word_codes(n, qmax)
    # An index is at most qmax // 4, one more in a target, so no digit passes qmax // 2 + 3:
    # flag l dropping with i_l growing adds bit, with i_{l-1} growing twice the bit below.
    bits = [_flag_bit(qmax, pos) for pos in range(n - 1)]
    index = {code: src for src, (code, _) in enumerate(words)}
    diffs = {level: SignLevel() for level in range(1 - n, 2)}
    appends = {level: (d.src.append, d.dst.append, d.sign.append) for level, d in diffs.items()}
    src1, dst1, sign1 = appends[1]
    src0, dst0, sign0 = appends[0]
    drops = [(bit, *appends[-1 - pos]) for pos, bit in enumerate(bits)]
    falling = [(bit, 2 * bits[pos - 1] - bit) for pos, bit in enumerate(bits)][:0:-1]
    # Sources come in index order, a source's d_1 targets in order as l grows and its d_0
    # targets (code + shift, l > 2) as l falls; walking down, each set flag flips sign first,
    # from (-1)^(set flags) to (-1)^(set flags below l).
    for code, src in index.items():
        sign = 1
        for bit, src_d, dst_d, sign_d in drops:
            if code & bit:
                src_d(src), dst_d(index[code - bit]), sign_d(sign)
                if code + bit in index:
                    src1(src), dst1(index[code + bit]), sign1(sign)
                sign = -sign
        for bit, shift in falling:
            if code & bit:
                sign = -sign
                if code + shift in index:
                    src0(src), dst0(index[code + shift]), sign0(sign)
    return DotComplex._trusted(tuple(g for _, g in words), diffs, label)


def stable_khr2_closed(n, qmax):
    """Closed forms for the stable sl(2) reduction, n in {2, 3, 4}."""
    _check_stable(n, qmax)
    if n == 2:
        return geometric(Poly3.monomial(1, 0, 4, 2), qmax) * (1 + Poly3.monomial(1, 0, 6, 3))
    if n == 3:
        block = Poly3({(0, 0, 0): 1, (0, 4, 2): 1, (0, 6, 3): 1, (0, 10, 5): 1})
        return geometric(Poly3.monomial(1, 0, 6, 4), qmax) * block
    if n == 4:
        inner = (
            geometric(Poly3.monomial(1, 0, 6, 4), qmax)
            * (Poly3.monomial(1, 0, 6, 4) + Poly3.monomial(1, 0, 14, 9))
            + Poly3({(0, 0, 0): 1, (0, 4, 2): 1})
        )
        return (
            geometric(Poly3.monomial(1, 0, 8, 6), qmax)
            * (1 + Poly3.monomial(1, 0, 6, 3))
            * inner
        )
    raise ValueError("closed forms exist only for n in {2, 3, 4}")


def _generic_survivors(n, qmax):
    """Graded dimensions left after the generic d_2 reduction, {grading: dim}.

    Starts from the two-strand words, which the reduction leaves alone.
    Level l = 3..n makes a string of pairs of blocks, each a copy of the
    survivors so far moved by i _level periods, the flagged one also by the
    _level flag; the new d_2 component maps each flagged block to its
    partner on every grading-allowed slot, and blocks at different string
    positions do not interact (the filtration assumption).  The published
    genericity assumption is that d_2 has maximal rank, so a da x db block
    has rank min(da, db) by definition.

    Each level discards rank via min-size blocks, so the result at
    q-degree d is reliable once qmax exceeds d by the boundary margin; the
    caller compensates by inflating qmax.  The start's 2 (qmax // 4 + 1) words, at
    least _word_codes's count, and each level's (qmax // 2l + 1) |dims| are capped first.
    """
    count = 2 * (qmax // 4 + 1)
    _capped(count, WORK_CAP, "the generic start at qmax %d needs %d block entries", qmax, count)
    dims = {g: 1 for _, g in _word_codes(2, qmax)}
    sa, sq, st = diff_degree(2)
    for l in range(3, n + 1):
        (_, pq, pt), (fa, fq, ft) = _level(l)
        count = (qmax // pq + 1) * len(dims)
        _capped(count, WORK_CAP, "the generic level %d at qmax %d needs %d block entries",
                l, qmax, count)
        # Shifts are injective and keep order: each block is a sorted shifted copy
        # of dims, the flagged one read off the b-block, and each b-grading is
        # the d_2 target of at most one a-grading.
        dims, survivors = sorted(dims.items()), {}
        for i in range(qmax // pq + 1):
            b_block = {(ea, eq + i * pq, et + i * pt): d
                       for (ea, eq, et), d in dims if eq + i * pq <= qmax}
            for (ea, eq, et), da in list(b_block.items()):
                g = (ea + fa, eq + fq, et + ft)
                if g[1] > qmax:
                    continue
                target = (g[0] + sa, g[1] + sq, g[2] + st)
                r = min(da, b_block.get(target, 0))
                if da - r:
                    survivors[g] = survivors.get(g, 0) + (da - r)
                if r:
                    b_block[target] -= r
            for g, db in b_block.items():
                if db:
                    survivors[g] = survivors.get(g, 0) + db
        dims = survivors
    return dims


def stable_khr2_generic(n, qmax):
    """The generic-route stable sl(2) series: reduce, then set a = q^2."""
    _check_stable(n, qmax)
    margin = 4 * n
    return TruncSeries(at_a_qN(Poly3._trusted(_generic_survivors(n, qmax + margin)), 2), qmax)


def stable_khr2(n, qmax):
    """Stable sl(2) Poincare series by two routes, compared exactly.

    Route one truncates the closed form, n in {2, 3, 4}; route two performs
    the generic maximal-rank reduction on the block complex.  A disagreement
    raises GenericityMismatch (a broken construction on one side).
    """
    closed = stable_khr2_closed(n, qmax)
    generic = stable_khr2_generic(n, qmax)
    if generic != closed:
        raise GenericityMismatch(
            "generic route disagrees with the closed form for n=%d" % n
        )
    return closed


# -- finite versus stable ----------------------------------------------------

def finite_vs_stable(n, m, kind):
    """Largest q-degree D through which the finite invariant is stable.

    The finite T(n, m) invariant, translated so its survivor corner sits at
    the origin, is compared slice by slice against the stable series; the
    returned D is the last degree at which every slice up to D agrees.
    kind 'super' compares superpolynomials, kind 'khr2' the sl(2)
    reductions (n = 2 via the specialization, n = 3 via the closed form).
    """
    n, m = torus_id(n, m)
    if n not in (2, 3):
        raise ValueError("finite families exist for n in {2, 3} only")
    s_inv = torus_s_invariant(n, m)
    qmax = 2 * m + 6 * n + 8
    if kind == "super":
        finite = super_torus(n, m)
        finite = finite.scale_monomial(1, ea=-s_inv, eq=s_inv)
        stable = stable_super(n, qmax)
    elif kind == "khr2":
        if n == 2:
            finite = at_a_qN(super_t2((m - 1) // 2), 2).scale_monomial(1, eq=-s_inv)
        else:
            finite = khr2_t3_closed(m).scale_monomial(1, eq=-s_inv)
        stable = stable_khr2_closed(n, qmax)
    else:
        raise ValueError("kind must be 'super' or 'khr2'")
    limit = stable.qmax
    mismatches = (
        key[1] for key in set(finite.terms) | set(stable.body.terms)
        if key[1] <= limit and finite.terms.get(key, 0) != stable.body.terms.get(key, 0)
    )
    return min(mismatches, default=limit + 1) - 1
