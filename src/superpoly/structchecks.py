"""Structural predicates and decompositions for superpolynomials.

A thin knot's triply graded data is forced by its two-variable polynomial
and one integer: plotting generators by the combined delta-grading puts
them all on one line, so the homological grading of each monomial is the
affine function of its (a, q)-exponents determined by the invariant S.
This module builds that thin polynomial, splits it into the zigzag summand
plus four-generator squares, runs the one-step and three-step pairing
decompositions driven by the two canceling differentials, and evaluates
the braid-diagram bound on a-exponents.
"""

from .laurent import (
    Poly3,
    _int_arg,
    at_a_one,
    at_t_minus_one,
    delta_spectrum,
    exact_divide,
    homfly_alternates,
    mirror,
    NotDivisible,
    OddExponent,
)
from .torus import super_t2


class StructureError(Exception):
    pass


class NotAlternating(StructureError):
    pass


class NotDecomposable(StructureError):
    pass


class NoSurvivor(StructureError):
    pass


class NegativeQuotient(StructureError):
    pass


class ThinResult:
    """Thin superpolynomial with its zigzag-plus-squares decomposition."""

    def __init__(self, superpoly, s_inv, sawtooth, squares_q):
        self.superpoly = superpoly
        self.s_inv = s_inv
        self.sawtooth = sawtooth
        self.squares_q = squares_q


SQUARE_FACTOR = (1 + Poly3.monomial(1, -2, 2, -1), 1 + Poly3.monomial(1, -2, -2, -3))


def _even_s(s_inv):
    """s_inv, when it is an even int; TypeError when it is no int (or a bool), else ValueError."""
    if _int_arg("s_inv", s_inv) % 2:
        raise ValueError("S must be even, got %d" % s_inv)
    return s_inv


def sawtooth_poly(s_inv):
    """The zigzag summand with invariant S, an even int: a (2, |S|+1) torus polynomial,
    mirrored for negative S, a lone unit for S = 0."""
    if _even_s(s_inv) == 0:
        return Poly3.one()
    base = super_t2(abs(s_inv) // 2)
    return base if s_inv > 0 else mirror(base)


def thin_super(homfly, s_inv):
    """Thin superpolynomial from a two-variable polynomial and S, an even int.

    Each term c a^i q^j (i, j even) becomes |c| a^i q^j t^(i + j/2 - S/2).
    The construction is valid only when the input alternates with the
    global sign matching S, which is checked by specializing back; the
    zigzag-plus-squares split must then come out exact and nonnegative.
    Raises NotAlternating or NotDecomposable when the knot cannot carry a
    thin structure with this S.
    """
    _even_s(s_inv)
    try:
        alternating = homfly_alternates(homfly)
    except OddExponent as exc:
        raise NotAlternating(str(exc))
    if not alternating:
        raise NotAlternating("coefficient signs do not alternate on the q-grid")
    terms = {}
    for (ea, eq, _), c in homfly.terms.items():
        terms[(ea, eq, ea + eq // 2 - s_inv // 2)] = abs(c)
    poly = Poly3(terms)
    if at_t_minus_one(poly) != homfly:
        raise NotAlternating(
            "global sign is inconsistent with S = %d (specialization broke)" % s_inv
        )
    # A nonnegative squares quotient cancels none of the |S| + 1 zigzag monomials.
    if abs(s_inv) + 1 > len(poly.terms):
        raise NotDecomposable("the zigzag of S = %d has %d terms, the polynomial only %d"
                              % (s_inv, abs(s_inv) + 1, len(poly.terms)))
    sawtooth = sawtooth_poly(s_inv)
    try:
        squares = exact_divide(poly - sawtooth, *SQUARE_FACTOR)
    except NotDivisible as exc:
        raise NotDecomposable("squares quotient is inexact: %s" % exc)
    if not squares.is_nonnegative():
        raise NotDecomposable("squares quotient has a negative coefficient")
    return ThinResult(poly, s_inv, sawtooth, squares)


def _splits(p, survivor, binomial):
    """Yield (key, outcome) per positive term of p whose key passes survivor.

    Terms come in canonical order.  The outcome is the quotient of p minus
    that monomial by the binomial when it is exact and nonnegative, else
    the NotDivisible that stopped it, or None for a negative quotient.
    """
    for key, c in p.sorted_terms():
        if c > 0 and survivor(*key):
            try:
                quotient = exact_divide(p - Poly3.monomial(1, *key), binomial)
            except NotDivisible as exc:
                yield key, exc
                continue
            yield key, quotient if quotient.is_nonnegative() else None


def _one_step(p, name, survivor, binomial):
    """(S, Q) from the first exact nonnegative split; else the first failure.

    NoSurvivor when no monomial passes survivor; otherwise a failure of the
    first candidate is raised as NotDecomposable or NegativeQuotient.
    """
    failure = None
    for key, outcome in _splits(p, survivor, binomial):
        if isinstance(outcome, Poly3):
            return key[0], outcome
        if failure is None:
            failure = key[0], outcome
    if failure is None:
        raise NoSurvivor("no monomial of the form %s is present" % name)
    s_inv, exc = failure
    if exc is None:
        raise NegativeQuotient(
            "quotient for %s survivor S=%d has negative coefficients" % (name, s_inv)
        )
    raise NotDecomposable("remainder after %s survivor S=%d: %s" % (name, s_inv, exc))


def pattern_plus(p):
    """S and Q+ with p = a^S q^{-S} + (1 + t a^2 q^{-2}) Q+, Q+ >= 0."""
    return _one_step(p, "plus", lambda ea, eq, et: eq == -ea and et == 0,
                     1 + Poly3.monomial(1, 2, -2, 1))


def pattern_minus(p):
    """S and Q- with p = (aqt)^S + (1 + a^2 q^2 t^3) Q-, Q- >= 0."""
    return _one_step(p, "minus", lambda ea, eq, et: eq == ea and et == ea,
                     1 + Poly3.monomial(1, 2, 2, 3))


def _knight_moves(khr2):
    """(m, n, Q-) for each survivor q^m t^n admitting a split, lazily, in order."""
    if any(ea != 0 for (ea, _, _) in khr2.terms):
        raise ValueError("three-step pairing applies to a-free polynomials")
    splits = _splits(khr2, lambda *key: True, 1 + Poly3.monomial(1, 0, 6, 3))
    return ((eq, et, q) for (_, eq, et), q in splits if isinstance(q, Poly3))


def three_step_pairing(khr2):
    """(m, n, Q-) with khr2 = q^m t^n + (1 + q^6 t^3) Q-, Q- >= 0, or None.

    khr2 must be a-free.  Candidate survivors are scanned in canonical
    monomial order; the first exact nonnegative split is returned, and
    absence of any split comes back as None rather than an error.
    """
    return next(_knight_moves(khr2), None)


def all_three_step_pairings(khr2):
    """Every survivor monomial admitting a three-step split, for inspection."""
    return list(_knight_moves(khr2))


def thin_quotient_test(homfly, s_inv):
    """Does (P - P_zigzag) admit an alternating quotient by the square norms?

    The two sign placements of the degree-two factor, (1 - a^2 q^{+-2}) and
    (1 - a^{-2} q^{+-2}), differ by the unit a^{-4}, which the alternation
    test ignores, so one division decides both: true iff it is exact and
    the quotient is zero or alternating.  S must be an even int, as for sawtooth_poly,
    which checks it before any other work.
    """
    target = homfly - at_t_minus_one(sawtooth_poly(s_inv))
    try:
        quotient = exact_divide(target, *(1 - Poly3.monomial(1, -2, e, 0) for e in (2, -2)))
        return not quotient or homfly_alternates(quotient)
    except (NotDivisible, OddExponent):
        return False


def morton_check(p, writhe, components):
    """Braid bound: w - c + 1 <= every a-exponent of p <= w + c - 1."""
    if not p.terms:
        raise ValueError("the zero polynomial has no a-exponent range")
    lo, hi = p.exponent_range("a")
    return writhe - components + 1 <= lo and hi <= writhe + components - 1


def derived_invariants(p):
    """(g_h, alexander, delta_spectrum) read off a superpolynomial.

    g_h is half the top q-exponent (raises OddExponent when that is odd);
    the Alexander polynomial is the t = -1, then a = 1 specialization; the
    spectrum is the histogram of doubled delta-gradings.
    """
    rng = p.exponent_range("q")
    if rng is None:
        raise ValueError("the zero polynomial has no invariants")
    if rng[1] % 2:
        raise OddExponent("top q-exponent %d is odd" % rng[1])
    g_h = rng[1] // 2
    alexander = at_a_one(at_t_minus_one(p))
    return g_h, alexander, delta_spectrum(p)
