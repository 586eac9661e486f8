"""Closed-form torus knot invariants.

The torus knot T(n, m) here is the standard negatively-crossed one (the
trefoil of the usual tables is T(2, 3)), so its HOMFLY polynomial carries
positive a-exponents and S(T(n, m)) = (n-1)(m-1).  Positive torus knots are
obtained by mirroring, i.e. laurent.mirror.

Two HOMFLY routes are provided: the classical sum over quantum factorials
and a product form obtained by clearing denominators.  Both run through
_binomial_sum on rows in q^2 keyed by (a, q mod 2), t = 0, each one int of
w-bit slots, w derived from the summands: Gaussian binomials from one Pascal
row, each two-term factor as two shifted int additions, then the rows, read
back as lists, go to laurent._divide_rows, exact_divide's running sums.
"""

from collections import Counter
from math import gcd
from operator import add, sub
from sys import byteorder

from .complexes import diff_degree
from .laurent import WORK_CAP, Poly3, _capped, _divide_rows, _int_arg, at_a_qN, exact_divide


class NegativeCoefficient(Exception):
    """A combined closed form failed to be coefficient-nonnegative."""


def torus_id(n, m):
    """Validate (n, m) for a torus knot; returns the pair."""
    if not type(n) is type(m) is int:
        raise TypeError("torus knot indices must be ints, got (%r, %r)" % (n, m))
    if n < 2 or m <= n:
        raise ValueError("need 2 <= n < m, got (%d, %d)" % (n, m))
    if gcd(n, m) != 1:
        raise ValueError("(%d, %d) is a link, not a knot" % (n, m))
    return n, m


def _t3_index(m):
    """(k, e) with m = 3k + 1 + e, e in {0, 1}, for a T(3, m) knot index m."""
    if _int_arg("m", m) < 4 or m % 3 == 0:
        raise ValueError("need m >= 4 coprime to 3, got %d" % m)
    k, r = divmod(m, 3)
    return k, r - 1


def torus_s_invariant(n, m):
    return (_int_arg("n", n) - 1) * (_int_arg("m", m) - 1)


def _gaussian_row(n, w):
    """The Gaussian binomials [n, b], b = 0..n, as rows in q^2 packed in w-bit slots, by
    Pascal's rule [n, b] = [n-1, b-1] + q^{2b} [n-1, b]; [n, b] has b(n-b) + 1 slots."""
    row = [1]
    for k in range(1, n + 1):
        row = [1] + [row[b - 1] + (row[b] << b * w) for b in range(1, k)] + [1]
    return row


def _merge(rows, a, q, size, p, w, op=add):
    """rows[(a, q & 1)] op= q^q * p, p a packed row in q^2 of size slots; absent rows are 0."""
    key, lo = (a, q & 1), q >> 1
    if key not in rows:
        rows[key] = lo, size, op(0, p)
        return
    lo0, size0, p0 = rows[key]
    if lo0 <= lo:
        rows[key] = lo0, max(size0, lo - lo0 + size), op(p0, p << (lo - lo0) * w)
    else:
        rows[key] = lo, max(lo0 - lo + size0, size), op(p0 << (lo0 - lo) * w, p)


def _unpack(p, size, w):
    """The size slots of p, low first, each in [-2^(w-1), 2^(w-1)): with 2^(w-1) added to
    every slot, each is a digit in [0, 2^w), read off the bytes."""
    half, k = 1 << w - 1, w // 8
    raw = (p + half * ((1 << w * size) - 1) // ((1 << w) - 1)).to_bytes(k * size, byteorder)
    if w == 64:  # one machine word per slot
        return [x - half for x in memoryview(raw).cast("Q")]
    return [int.from_bytes(raw[i:i + k], byteorder) - half for i in range(0, k * size, k)]


def _binomial_sum(n, summand):
    """Sum over b < n of (-1)^{n-1-b} a^ea q^eq [n-1, b] prod (a^x q^y - a^u q^v),
    with (ea, eq, [(x, y, u, v), ...]) = summand(b), as {(a, q mod 2, 0): (lo, row in q^2)}.

    A row is one int, entry j times 2^{wj}: the ring map X -> 2^w, so only the total
    must fit to be read back.  [n-1, b] has coefficient sum C(n-1, b) and each factor
    at most doubles the sum of absolute values, so every entry of the total is at most
    2^{n-1+f} in size, f the most factors of a summand: below 2^{w-1} for w >= n + f + 1."""
    summands = [summand(b) for b in range(n)]
    w = 64 * ((n + max(len(factors) for _, _, factors in summands)) // 64 + 1)
    total = {}
    for b, (gauss, (ea, eq, factors)) in enumerate(zip(_gaussian_row(n - 1, w), summands)):
        rows = {(ea, eq & 1): (eq >> 1, b * (n - 1 - b) + 1, gauss if (n - b) % 2 else -gauss)}
        for x, y, u, v in factors:
            out = {}
            for (a, r), (lo, size, p) in rows.items():
                _merge(out, a + x, r + 2 * lo + y, size, p, w)
                _merge(out, a + u, r + 2 * lo + v, size, p, w, sub)
            rows = out
        for (a, r), (lo, size, p) in rows.items():
            _merge(total, a, r + 2 * lo, size, p, w)
    return {(a, r, 0): (lo, _unpack(p, size, w)) for (a, r), (lo, size, p) in total.items()}


# Most q^2-row slots the HOMFLY beta-sum may build: T(39, 40) needs 91,470,978.
HOMFLY_WORK_CAP = 100_000_000


def _homfly_size(n, m):
    """Bounds (built, held) = (n^2 (2nL + W), nW) on homfly_torus's q^2-row slots.

    A summand ends in n rows of at most L = n(n-1)/2 + 1 slots, factor step
    f makes at most 2 such rows from each of its at most f rows, and adds n
    rows to the sum, whose n rows hold at most W = m(n-1) + L slots each."""
    width = n * (n - 1) // 2 + 1
    span = m * (n - 1) + width
    return n * n * (2 * n * width + span), n * span


def homfly_torus(n, m, form="product"):
    """Normalized HOMFLY polynomial of T(n, m).

    form 'jones' evaluates the quantum-factorial sum; form 'product' clears
    denominators in the equivalent product expression.  Both are exact and
    end in laurent._divide_rows on q^{2k} - 1 factors; a NotDivisible there
    would indicate an implementation bug for valid (n, m) and is never swallowed.
    Past HOMFLY_WORK_CAP slots built or WORK_CAP held by _homfly_size's
    bounds, it raises TooLarge before building any row.
    """
    n, m = torus_id(n, m)
    for count, cap in zip(_homfly_size(n, m), (HOMFLY_WORK_CAP, WORK_CAP)):
        _capped(count, cap, "HOMFLY of T(%d, %d) needs up to %d q^2-row entries", n, m, count)
    if form == "jones":
        # Sum over beta of the quantum binomial [n-1]!/([b]![n-1-b]!), that is
        # q^{-b(n-1-b)} [n-1, b], times two-term factors, over [n]! / [1]: the
        # classical factor [1] of the sum cancels against [n]!, and each
        # q^k - q^{-k} = q^{-k} (q^{2k} - 1) of it lifts the sum by q^k.
        rows = _binomial_sum(n, lambda b: (
            m * (n - 1), n * (n + 1) // 2 - 1 - b * (n - 1 - b) - m * (2 * b - n + 1),
            [(1, j, -1, -j) for j in range(b - n + 1, b + 1) if j]))
        return _divide_rows(rows, (0, 2, 0), [(k, 1) for k in range(2, n + 1)])
    if form == "product":
        # Sum over beta of q^{-2mb} prod (a^2 q^{2i} - 1)/(q^{2i} - 1)
        # * prod (a^2 - q^{2j})/(1 - q^{2j}) over prod_{i<n} (q^{2i} - 1), which
        # makes each cofactor a signed Gaussian binomial.  The sum's factor
        # (1 - q^{-2}) cancels the divisor's q^2 - 1 up to q^{-2}, and the whole
        # is scaled by a^s q^{s-2}, s = (n-1)(m-1), and q^{2n} for 1 - q^{-2n}.
        s = (n - 1) * (m - 1)
        rows = _binomial_sum(n, lambda b: (
            s, s - 2 + 2 * n - 2 * m * b,
            [(2, 2 * i, 0, 0) for i in range(1, b + 1)]
            + [(2, 0, 0, 2 * j) for j in range(1, n - b)]))
        return _divide_rows(rows, (0, 2, 0), [(n, 1)] + [(i, 1) for i in range(2, n)])
    raise ValueError("form must be 'jones' or 'product', got %r" % (form,))


# -- superpolynomials for the (2, m) and (3, m) families -------------------

# Most generators an explicit T(2, m) or T(3, m) family may have: T(3, 241)
# has 38,721, T(3, 547) 199,473 and T(2, 199999), the largest T(2, m) under it, 199,999.
GENERATOR_CAP = 200_000


def _t2_family(k):
    """Gradings of the T(2, 2k+1) zigzag: u_0..u_k, then w_1..w_k.

    u_i = a^{2k} q^{4i-2k} t^{2i} and w_i = a^{2k+2} q^{4i-2k-2} t^{2i+1};
    k = 0 leaves the lone generator u_0 = 1.  Past GENERATOR_CAP the 2k + 1
    generators raise TooLarge before any is built.
    """
    _capped(2 * k + 1, GENERATOR_CAP, "T(2, 2k+1) at k = %d has %d generators", k, 2 * k + 1)
    return [(2 * k, 4 * i - 2 * k, 2 * i) for i in range(k + 1)] + [
        (2 * k + 2, 4 * i - 2 * k - 2, 2 * i + 1) for i in range(1, k + 1)
    ]


def super_t2(k):
    """Reduced superpolynomial of T(2, 2k+1): the sum of the _t2_family monomials."""
    if _int_arg("k", k) < 1:
        raise ValueError("need k >= 1")
    return Poly3(dict.fromkeys(_t2_family(k), 1))


def _t3_families(m):
    """Gradings of the three a-levels of the T(3, m) superpolynomial, as rows.

    Returns (level0, level1, level2); level[j][i] is the (ea, eq, et)
    grading of the generator with summation indices (j, i), so repeated
    monomials stay distinguishable by position.  In level 1 the parity of
    i splits the inner sum, the split along which the differentials act,
    and i // 2 is the index within each half.  With m = 3k + 1 + e, e in
    {0, 1}, every grading moves by (2e, 2e, 2e) and every inner range grows
    by e (by 2e in level 1).  The 6k^2 + 4k + 1 + e(4k + 2) generators,
    about (2/3) m^2, are counted first: past GENERATOR_CAP it raises
    TooLarge and builds nothing.
    """
    k, e = _t3_index(m)
    count = 6 * k * k + 4 * k + 1 + e * (4 * k + 2)
    _capped(count, GENERATOR_CAP, "T(3, %d) has %d generators", m, count)
    s = 2 * e
    lv0 = [[(6 * k + s, 6 * j - 4 * i + s, 4 * k + 2 * j - 2 * i + s)
            for i in range(3 * j + 1 + e)] for j in range(k + 1)]
    lv1 = [[(6 * k + 2 + s, 6 * j - 2 * i - 2 + s, 4 * k + 2 * j - 2 * (i // 2) + 1 + s)
            for i in range(6 * j - 1 + s)] for j in range(k + 1)]
    lv2 = [[(6 * k + 4 + s, 6 * j - 4 * i + s, 4 * k + 2 * j - 2 * i + 4 + s)
            for i in range(3 * j + 1 + e)] for j in range(k)]
    return lv0, lv1, lv2


def super_t3(m):
    """Reduced superpolynomial of T(3, m), m coprime to 3."""
    return Poly3(Counter(g for level in _t3_families(m) for row in level for g in row))


def super_torus(n, m):
    """Reduced superpolynomial of T(n, m) for n in {2, 3}, in closed form."""
    n, m = torus_id(n, m)
    if n == 2:
        return super_t2((m - 1) // 2)
    if n == 3:
        return super_t3(m)
    raise ValueError("closed-form superpolynomials exist for n in {2, 3}")


def t3_reduction_terms(m, n_diff):
    """(killed, surviving_images) for the differential d_N, N in {2, 0}.

    killed collects the T(3, m) superpolynomial monomials cancelled by the
    sl(2) reduction, the odd-index part of the middle a-level together with
    the whole top a-level; the same generators are the sources of the
    Alexander-side reduction.  surviving_images shifts each by
    diff_degree(N).  Subtracting both from the superpolynomial and
    specializing (a = q^2 for N = 2, a = t^{-1} for N = 0) gives the
    reduced Poincare polynomial.
    """
    if n_diff not in (2, 0):
        raise ValueError("only the N = 2 and N = 0 reductions are specified")
    _, lv1, lv2 = _t3_families(m)
    shift = diff_degree(n_diff)
    killed = [g for row in lv1 for g in row[1::2]] + [g for row in lv2 for g in row]
    images = [(ea + shift[0], eq + shift[1], et + shift[2]) for ea, eq, et in killed]
    return Poly3(Counter(killed)), Poly3(Counter(images))


def khr2_t3_closed(m):
    """Closed form for the reduced sl(2) Poincare polynomial of T(3, m).

    (1 + q^4 t^2 + q^6 t^3 + q^10 t^5) * a geometric block sum, plus a lone
    top term for m = 3k+1 and minus a cancelling corner term for m = 3k+2.
    The subtraction must cancel inside the sum; a negative coefficient in
    the combined result flags a transcription error and raises.
    """
    k, e = _t3_index(m)
    block = Poly3({(0, 0, 0): 1, (0, 4, 2): 1, (0, 6, 3): 1, (0, 10, 5): 1})
    if e == 0:
        s = Poly3({(0, 6 * k + 6 * i, 4 * i): 1 for i in range(k)})
        out = block * s + Poly3.monomial(1, 0, 12 * k, 4 * k)
    else:
        s = Poly3({(0, 6 * k + 2 + 6 * i, 4 * i): 1 for i in range(k + 1)})
        out = block * s - Poly3.monomial(1, 0, 12 * (k + 1), 4 * k + 5)
    if not out.is_nonnegative():
        raise NegativeCoefficient("sl(2) closed form for T(3,%d) went negative" % m)
    return out


def cp0_t3_closed(m):
    """Closed form for the Alexander-side Poincare polynomial of T(3, m).

    With m = 3k + 1 + e, e in {0, 1}, every grading moves by (0, 2e, e) away
    from q = 0 and the three middle terms q^{+-2} t^{+-1}, 1 come in with e.
    """
    k, e = _t3_index(m)
    shift = -2 * k - e
    terms = Counter((0, eq, et + shift) for eq, et in ((2, 1), (0, 0), (-2, -1))[1 - e:2 + e])
    for i in range(1, k + 1):
        for eq, et in ((6 * i + 2 * e, 2 * i + e), (6 * i - 2 + 2 * e, 2 * i - 1 + e),
                       (-6 * i + 2 - 2 * e, -4 * i + 1 - e), (-6 * i - 2 * e, -4 * i - e)):
            terms[(0, eq, et + shift)] += 1
    return Poly3(terms)


def hfk_t2(k):
    """Closed form for the Alexander-side Poincare polynomial of T(2, 2k+1).

    q^{-2k} t^{-2k} (1 + (1 + q^{-2} t^{-1}) sum_{i=1..k} q^{4i} t^{2i}),
    2k + 1 terms, checked against GENERATOR_CAP before any is built.
    """
    if _int_arg("k", k) < 1:
        raise ValueError("need k >= 1")
    _capped(2 * k + 1, GENERATOR_CAP, "T(2, 2k+1) at k = %d has %d generators", k, 2 * k + 1)
    s = Poly3({(0, 4 * i, 2 * i): 1 for i in range(1, k + 1)})
    body = 1 + (1 + Poly3.monomial(1, 0, -2, -1)) * s
    return body.scale_monomial(1, eq=-2 * k, et=-2 * k)


# -- reduced <-> unreduced ------------------------------------------------

def unreduce(cp, s_inv):
    """Unreduced superpolynomial from a reduced one with invariant S.

    (a - a^{-1}) (a/q)^S + (q^{-1} + a^2 q^{-1} t)(a q^{-1} - a^{-1} q) Q+,
    where Q+ is the positive remainder of the one-step pairing; the pairing
    failure (NoSurvivor, NotDecomposable or NegativeQuotient) propagates.
    """
    from .structchecks import pattern_plus

    s_found, q_plus = pattern_plus(cp)
    if s_found != s_inv:
        raise ValueError(
            "pairing survivor sits at S = %d, not the requested %d" % (s_found, s_inv)
        )
    a_minus = Poly3({(1, 0, 0): 1, (-1, 0, 0): -1})
    lead = a_minus.scale_monomial(1, ea=s_inv, eq=-s_inv)
    bracket = Poly3({(0, -1, 0): 1, (2, -1, 1): 1})
    hook = Poly3({(1, -1, 0): 1, (-1, 1, 0): -1})
    return lead + bracket * hook * q_plus


def khrN_unreduced_prediction(pbar, n_level):
    """Unreduced sl(N) Poincare prediction: pbar(a = q^N) / (q - q^{-1}).

    NotDivisible here means pbar is not a valid unreduced superpolynomial at
    this level, so the error is allowed to surface, as is TooLarge.
    """
    if _int_arg("n_level", n_level) < 1:
        raise ValueError("need N >= 1")
    return exact_divide(at_a_qN(pbar, n_level), Poly3({(0, 1, 0): 1, (0, -1, 0): -1}))
