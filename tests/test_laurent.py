"""Core exact-arithmetic layer: ring ops, substitution, division, rewriting."""

import re
import signal
import sys
from contextlib import contextmanager
from itertools import product
from math import gcd
from operator import add, neg

import pytest
from hypothesis import given, settings, strategies as st

from heap_division import STEP_CAP, _check_leading_coefficients, exact_divide as heap_exact_divide
from superpoly import laurent, torus
from superpoly.cli import main
from superpoly.dataset import load_dataset
from superpoly.laurent import (
    LaurentError,
    NotDivisible,
    NotYExpressible,
    OddExponent,
    ParseError,
    Poly3,
    TooLarge,
    YExpansion,
    _divide_rows,
    _y_power,
    at_a_inv_t,
    at_t_minus_one,
    exact_divide,
    format_poly,
    homfly_alternates,
    mirror,
    monomial_substitute,
    parse_poly,
    y_genus,
    y_rewrite,
)
from superpoly.stable import stable_homfly, stable_khr2_closed, stable_super
from superpoly.torus import homfly_torus, khrN_unreduced_prediction, super_t2, super_t3

P_T23 = parse_poly("a^2*q^-2 + a^2*q^2 - a^4")
SUPER_T23 = parse_poly("a^2*q^-2 + a^2*q^2*t^2 + a^4*t^3")


def mono(c, ea=0, eq=0, et=0):
    return Poly3.monomial(c, ea, eq, et)


exponents = st.integers(min_value=-6, max_value=6)
coeffs = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(
    st.tuples(exponents, exponents, exponents), coeffs, max_size=6
).map(Poly3)


class TestArith:
    def test_monomial_products(self):
        assert mono(1, 2, -2) * mono(1, 2, 2) == mono(1, 4)
        diff_sq = (mono(1, 1) - mono(1, -1)) * (mono(1, 1) + mono(1, -1))
        assert diff_sq == mono(1, 2) - mono(1, -2)

    def test_add_zero(self):
        assert P_T23 + Poly3.zero() == P_T23

    def test_integers_coerce(self):
        assert 1 + Poly3.zero() == Poly3.one()
        assert 2 * Poly3.one() - 1 == Poly3.one()

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly3.zero()
        assert p * q == q * p

    def test_no_zero_terms_stored(self):
        p = Poly3({(0, 0, 0): 1}) - Poly3({(0, 0, 0): 1})
        assert p.terms == {}

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly3({(0, 0, 0): 1.5})

    def test_foreign_operand_is_a_type_error(self):
        with pytest.raises(TypeError):
            Poly3.one() + "x"

    @pytest.mark.parametrize("key", [(1.5, 0, 0), ("2", 0, 0), (0, 2.0, 0), (0, 0, None)])
    def test_non_integer_exponent_rejected(self, key):
        with pytest.raises(TypeError):
            Poly3({key: 1})

    @pytest.mark.parametrize(
        "terms, named",
        [
            ({(0, 0): 1}, "(0, 0)"),
            ({(0, 0, 0, 0): 1}, "(0, 0, 0, 0)"),
            ([((0, 0, 0), 1)], "list"),
            ({5: 1}, "5"),
        ],
    )
    def test_malformed_terms_rejected(self, terms, named):
        with pytest.raises(TypeError, match=re.escape(named)):
            Poly3(terms)

    def test_scale_monomial_checks_its_scalars(self):
        with pytest.raises(TypeError):
            P_T23.scale_monomial(1, ea=1.5)
        with pytest.raises(TypeError):
            P_T23.scale_monomial(0.5)
        assert P_T23.scale_monomial(-1, ea=2) == -(P_T23 * mono(1, 2))


def assert_canonical(r, *operands):
    """r holds int triples -> nonzero ints in a dict of its own, as Poly3(...) would build."""
    assert type(r) is Poly3
    for key, c in r.terms.items():
        assert type(key) is tuple and len(key) == 3
        assert all(type(e) is int for e in key)
        assert type(c) is int and c != 0
    assert all(r.terms is not p.terms for p in operands)
    assert r == Poly3(dict(r.terms))


class TestTrustedResults:
    @given(polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_results_are_canonical(self, p, q):
        assert_canonical(p + q, p, q)
        assert_canonical(p - q, p, q)
        assert_canonical(p * q, p, q)
        assert_canonical(-p, p)
        assert_canonical(p + 3, p)
        assert_canonical(2 * p, p)
        assert_canonical(mirror(p), p)
        assert_canonical(p.scale_monomial(-3, 1, -2, 5), p)
        assert_canonical(p.scale_monomial(0, 1), p)
        assert_canonical(monomial_substitute(p, sub_a=mono(-1, 0, 2, 0), sub_t=-1), p)
        assert_canonical(parse_poly(format_poly(p)))
        d = mono(1, 1, -2, 1) - mono(1, 0, 1, -1)
        assert_canonical(exact_divide(p * d, d), p, d)

    def test_cancelling_sum_is_canonical(self):
        assert_canonical(P_T23 - P_T23, P_T23)
        assert_canonical(exact_divide(Poly3.zero(), mono(1, 0, 1) - 1))


def reference_mul(self, other):
    """Poly3.__mul__ as it was before the smaller operand drove the loop.

    self's terms run the outer loop whatever the sizes, and every pair is
    merged into out through get, so a product's keys and coefficients
    compare exactly; swapped in for __mul__ and __rmul__, it is the
    reference multiplication of whole computations.
    """
    if isinstance(other, int):
        other = Poly3.monomial(other)
    elif not isinstance(other, Poly3):
        return NotImplemented
    out = {}
    for (a1, q1, t1), c1 in self.terms.items():
        for (a2, q2, t2), c2 in other.terms.items():
            key = (a1 + a2, q1 + q2, t1 + t2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return Poly3._trusted(out)


def reference_power(p, k):
    out = Poly3.one()
    for _ in range(k):
        out = reference_mul(out, p)
    return out


def use_reference_mul(monkeypatch):
    monkeypatch.setattr(Poly3, "__mul__", reference_mul)
    monkeypatch.setattr(Poly3, "__rmul__", reference_mul)


def assert_product_matches_reference(f, g):
    """f * g has the reference's terms, canonical, in a dict of its own."""
    got = f * g
    want = reference_mul(f, g) if isinstance(f, Poly3) else reference_mul(g, f)
    assert got.terms == want.terms
    assert_canonical(got, *(x for x in (f, g) if isinstance(x, Poly3)))


keys = st.tuples(exponents, exponents, exponents)
few_term_polys = st.dictionaries(keys, coeffs.filter(bool), min_size=1, max_size=3).map(Poly3)
many_term_polys = st.dictionaries(keys, coeffs, min_size=20, max_size=80).map(Poly3)
HOMFLY_PAIRS = [(n, m) for n in range(2, 13) for m in (n + 1, n + 2) if gcd(n, m) == 1]


def stable_outcome(family, n, qmax):
    """The truncated series as text, or the ValueError text."""
    try:
        return format_poly(family(n, qmax).body)
    except ValueError as exc:
        return "ValueError: %s" % exc


class TestMultiply:
    @given(st.one_of(few_term_polys, polys), many_term_polys)
    @settings(max_examples=150, deadline=None)
    def test_unequal_sizes_match_reference(self, small, big):
        assert_product_matches_reference(small, big)
        assert_product_matches_reference(big, small)

    @given(polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_equal_sizes_match_reference(self, p, q):
        assert_product_matches_reference(p, q)
        assert_product_matches_reference(q, p)

    @given(polys, keys.filter(any), st.integers(1, 12), st.sampled_from([1, -1]))
    @settings(max_examples=150, deadline=None)
    def test_cancelling_products_match_reference(self, p, x, k, sign):
        # (1 + s x + ... + (s x)^(k-1)) (1 - s x) = 1 - (s x)^k: every
        # middle term of each later shifted copy cancels.
        geo = Poly3({tuple(i * e for e in x): sign ** i for i in range(k)})
        step = Poly3({(0, 0, 0): 1, x: -sign})
        assert geo * step == Poly3({(0, 0, 0): 1, tuple(k * e for e in x): -sign ** k})
        for f, g in ((geo, step), (p * geo, step), (p * step, geo), (p - p, geo)):
            assert_product_matches_reference(f, g)
            assert_product_matches_reference(g, f)

    @given(polys, st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_empty_and_int_operands_match_reference(self, p, n):
        empty = Poly3()
        for f, g in ((p, empty), (empty, p), (p, n), (n, p), (empty, n), (n, empty)):
            assert_product_matches_reference(f, g)
        assert (p * 0).terms == {} and (0 * p).terms == {}

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_power_is_repeated_product(self, p):
        got = Poly3.one()
        for k in range(10):
            assert got.terms == reference_power(p, k).terms, k
            got = got * p

    @pytest.mark.parametrize("form", ["jones", "product"])
    def test_homfly_torus_matches_reference_mul(self, form, monkeypatch):
        got = [format_poly(homfly_torus(n, m, form)) for n, m in HOMFLY_PAIRS]
        use_reference_mul(monkeypatch)
        want = [format_poly(homfly_torus(n, m, form)) for n, m in HOMFLY_PAIRS]
        for pair, g, r in zip(HOMFLY_PAIRS, got, want):
            assert g == r, pair

    @pytest.mark.parametrize("family", [stable_super, stable_homfly, stable_khr2_closed])
    def test_stable_series_match_reference_mul(self, family, monkeypatch):
        got = [stable_outcome(family, n, 40) for n in range(2, 6)]
        use_reference_mul(monkeypatch)
        assert [stable_outcome(family, n, 40) for n in range(2, 6)] == got

    def test_super_t3_matches_reference_mul(self, monkeypatch):
        ms = [m for m in range(4, 32) if m % 3]
        got = [format_poly(super_t3(m)) for m in ms]
        use_reference_mul(monkeypatch)
        assert [format_poly(super_t3(m)) for m in ms] == got


class TestSubstitution:
    def test_alexander_regrading_of_trefoil(self):
        got = at_a_inv_t(SUPER_T23)
        assert got == parse_poly("q^-2*t^-2 + t^-1 + q^2")

    def test_t_minus_one_recovers_homfly(self):
        assert at_t_minus_one(SUPER_T23) == P_T23

    def test_identity_on_unit(self):
        one = Poly3.one()
        assert monomial_substitute(one, sub_a=mono(1, 0, 5, 0), sub_t=-1) == one

    def test_mirror_involution(self):
        assert mirror(mirror(SUPER_T23)) == SUPER_T23

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_ring_hom(self, p, q):
        sub = dict(sub_a=mono(1, 0, 3, 0), sub_q=mono(-1, 0, -1, 0), sub_t=mono(1, 0, 0, 1))
        assert monomial_substitute(p * q, **sub) == monomial_substitute(
            p, **sub
        ) * monomial_substitute(q, **sub)

    def test_rejects_nonmonomial(self):
        with pytest.raises(ValueError):
            monomial_substitute(P_T23, sub_a=P_T23)


def reference_exact_divide(p, d):
    """The division as it was before the heap: max(rem) once per quotient term.

    Same leading-coefficient check, leading terms, box bound, STEP_CAP and
    errors as the heap division, so quotients (their term order included)
    and NotDivisible and TooLarge texts compare exactly.
    """
    if not d.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return Poly3.zero()
    _check_leading_coefficients(p, d)
    d_lead = max(d.terms)
    d_lead_c = d.terms[d_lead]
    p_keys = list(p.terms)
    d_keys = list(d.terms)
    box_lo = tuple(
        min(k[i] for k in p_keys) - min(k[i] for k in d_keys) for i in range(3)
    )
    box_hi = tuple(
        max(k[i] for k in p_keys) - max(k[i] for k in d_keys) for i in range(3)
    )
    rem = dict(p.terms)
    quo = {}
    while rem:
        r_lead = max(rem)
        c = rem[r_lead]
        if c % d_lead_c:
            raise NotDivisible("leading coefficient %d not divisible by %d" % (c, d_lead_c))
        key = tuple(r_lead[i] - d_lead[i] for i in range(3))
        if any(key[i] < box_lo[i] or key[i] > box_hi[i] for i in range(3)):
            raise NotDivisible("no exact quotient (support escaped the feasible box)")
        if len(quo) == STEP_CAP:
            raise TooLarge("division needs more than %d quotient terms" % STEP_CAP)
        cq = c // d_lead_c
        quo[key] = cq
        for dk, dc in d.terms.items():
            k2 = (key[0] + dk[0], key[1] + dk[1], key[2] + dk[2])
            s = rem.get(k2, 0) - cq * dc
            if s:
                rem[k2] = s
            else:
                rem.pop(k2, None)
    return Poly3(quo)


def divide_outcome(divide, p, d):
    """The quotient's items in insertion order, or the NotDivisible or TooLarge text."""
    try:
        return list(divide(p, d).terms.items())
    except (NotDivisible, TooLarge) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


nonzero_polys = polys.filter(bool)
ESCAPED = "NotDivisible: no exact quotient (support escaped the feasible box)"
perturbations = st.lists(
    st.tuples(exponents, exponents, exponents, st.integers(-3, 3).filter(bool)), max_size=3
)
# Sparse and wide: a box up to 2 * 10**12 + 1 wide on every axis, while the
# small exponents keep products colliding and cancelling.
wide_exponents = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
wide_keys = st.tuples(wide_exponents, wide_exponents, wide_exponents)
wide_polys = st.dictionaries(wide_keys, coeffs, max_size=5).map(Poly3)
wide_perturbations = st.lists(
    st.tuples(wide_keys, st.integers(-3, 3).filter(bool)), max_size=3
)


class TestExactDivide:
    """exact_divide's contract, and the heap division (the tests' reference for
    general divisors) against the division it replaced."""

    def test_binomial(self):
        num = mono(1, 2) - mono(1, -2)
        den = mono(1, 1) - mono(1, -1)
        assert exact_divide(num, den) == mono(1, 1) + mono(1, -1)

    def test_monomial_inverse(self):
        assert heap_exact_divide(Poly3.one(), mono(1, 0, 2, 0)) == mono(1, 0, -2, 0)
        with pytest.raises(ValueError, match="is not a unit binomial"):
            exact_divide(Poly3.one(), mono(1, 0, 2, 0))

    def test_unreduced_round_trip(self):
        # P-bar = P (a - a^{-1})/(q - q^{-1}); rebuild and divide back.
        p41 = parse_poly("a^-2 - q^-2 + 1 - q^2 + a^2")
        qdiff = mono(1, 0, 1, 0) - mono(1, 0, -1, 0)
        pbar_num = p41 * (mono(1, 1) - mono(1, -1))
        assert exact_divide(pbar_num * qdiff, qdiff) == pbar_num

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(Poly3.one(), mono(1, 0, 1, 0) - mono(1, 0, -1, 0))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            heap_exact_divide(Poly3.one(), Poly3.zero())
        with pytest.raises(ValueError, match="divisor 0 is not a unit binomial"):
            exact_divide(Poly3.one(), Poly3.zero())

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_multiply_then_divide(self, p, d):
        if not d.terms:
            return
        assert heap_exact_divide(p * d, d) == p

    @given(polys, nonzero_polys, perturbations)
    @settings(max_examples=300, deadline=None)
    def test_outcomes_match_reference(self, p, d, perturbation):
        product = p * d
        assert divide_outcome(heap_exact_divide, product, d) == divide_outcome(
            reference_exact_divide, product, d
        )
        perturbed = product + Poly3({(a, q, t): c for a, q, t, c in perturbation})
        assert divide_outcome(heap_exact_divide, perturbed, d) == divide_outcome(
            reference_exact_divide, perturbed, d
        )

    @given(wide_polys, wide_polys.filter(bool), wide_perturbations, st.integers(0, 24),
           st.integers(-3, 3).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_wide_outcomes_match_reference(self, p, d, perturbation, pick, delta):
        product = p * d
        assert divide_outcome(heap_exact_divide, product, d) == divide_outcome(
            reference_exact_divide, product, d
        )
        if product.terms:
            keys = list(product.terms)
            perturbation = perturbation + [(keys[pick % len(keys)], delta)]
        perturbed = product + Poly3(dict(perturbation))
        assert divide_outcome(heap_exact_divide, perturbed, d) == divide_outcome(
            reference_exact_divide, perturbed, d
        )

    @pytest.mark.parametrize(
        "p, d, outcome",
        [
            # The quotient box is empty: p spans q^0..q^1, d spans q^0..q^2.
            (parse_poly("1 + q"), parse_poly("1 + q^2"), ESCAPED),
            (parse_poly("3*a^5 + a^2*t^4"), parse_poly("a^3*q + t^7"), ESCAPED),
            # The divisor is constant in t, so the quotient's t-span is p's.
            (
                parse_poly("1 + q") * parse_poly("t^-3 + a*q^2*t^5 - 2*q^-1"),
                parse_poly("1 + q"),
                [((1, 2, 5), 1), ((0, 0, -3), 1), ((0, -1, 0), -2)],
            ),
            # The divisor is constant in q.
            (
                parse_poly("a + t^2") * parse_poly("q^3*t - a^-1*q^-5 + 7*a"),
                parse_poly("a + t^2"),
                [((1, 0, 0), 7), ((0, 3, 1), 1), ((-1, -5, 0), -1)],
            ),
            # The first candidate, q / t, is one below the box in t, but lex
            # between its corners 1 and q: packed, it would look boxed, and
            # the next step would fail on the coefficient -1 instead.  Under the
            # order that puts the least q-exponent first, t leads p and 2*t
            # leads d, so the leading-coefficient check rejects it first.
            pytest.param(parse_poly("2*q + t"), parse_poly("1 + 2*t"),
                         "NotDivisible: leading coefficient 1 not divisible by 2",
                         id="p4-d4-leading-coefficient"),
        ],
    )
    def test_packing_edge_cases(self, p, d, outcome):
        for divide in (heap_exact_divide, reference_exact_divide):
            assert divide_outcome(divide, p, d) == outcome

    @pytest.mark.parametrize(
        "num, den, message",
        [
            ("3*q + 1", "2*q + 2", "leading coefficient 3 not divisible by 2"),
            ("q^3 + 1", "q^2 + 1", "no exact quotient (support escaped the feasible box)"),
        ],
    )
    def test_not_divisible_messages(self, num, den, message):
        for divide in (heap_exact_divide, reference_exact_divide):
            with pytest.raises(NotDivisible) as err:
                divide(parse_poly(num), parse_poly(den))
            assert str(err.value) == message

    def test_wide_quotient_box_is_rejected_at_once(self):
        # Found by test_wide_outcomes_match_reference at --hypothesis-seed=33:
        # d's lex-leading coefficient is 1, and the quotient box spans about
        # 10**12 on every axis, so the heap division alone runs out of memory.
        # Under the order that puts the least a-exponent first, 1 leads p and
        # -7 leads d.
        p = parse_poly("a^-2992974687*q^272*t^2063 + a^524288*q^-1000000000000*t^3"
                       " - a^34359738369*q^-2*t^-1000000000000")
        d = parse_poly("-7*a^-78951*q^-1246033*t + 3*a^-71600*t^-3 + 8*a^-3"
                       " - 2*a^-3*q^3*t^2 + q^493*t^-64701693")
        for divide in (heap_exact_divide, reference_exact_divide):
            assert divide_outcome(divide, p, d) == (
                "NotDivisible: leading coefficient 1 not divisible by -7")

    def test_long_chain_stops_at_the_step_cap(self):
        # Found by test_wide_outcomes_match_reference at --hypothesis-seed=54:
        # both divisions walk a chain of over 10**5 leading terms before the
        # quotient box rejects it, the reference paying for its whole
        # remainder at each step.  STEP_CAP ends both at the same step.
        p = parse_poly("5*a^-393113*t^-433 - 3*a^-3*q^-439019441*t^-1437 + a^-3*q^-179*t^2")
        d = parse_poly("-3*a^-439019441*q^-439019441*t^-1437 + 5*a^-393113*t^-433"
                       " + a^-3*q^-179*t^2 + q^-179*t^2")
        product = p * d
        perturbed = product + Poly3({(-6, -439019620, -1435): 1, list(product.terms)[3]: 1})
        with time_limit(30):
            for divide in (heap_exact_divide, reference_exact_divide):
                assert divide_outcome(divide, perturbed, d) == (
                    "TooLarge: division needs more than %d quotient terms" % STEP_CAP)

    @pytest.mark.parametrize("p, d", [(Poly3.one(), 3), (3, Poly3.one()), (P_T23, "q")])
    def test_foreign_operand_is_a_type_error(self, p, d):
        with pytest.raises(TypeError):
            exact_divide(p, d)

    @pytest.mark.parametrize("form", ["jones", "product"])
    def test_homfly_torus_matches_reference(self, form, monkeypatch):
        pairs = [(n, m) for n in range(2, 10) for m in (n + 1, 2 * n + 1)]
        got = [homfly_torus(n, m, form) for n, m in pairs]
        divisors = []

        def divide_by_product(rows, e, steps):
            # Rows in q^2: a step (g, 1) stands for q^{2g} - 1.
            assert e == Q2 and all(c == 1 for _, c in steps)
            d = q_binomial_product([(2 * g, 0) for g, _ in steps])
            divisors.append(d)
            return reference_exact_divide(rows_to_poly(rows, e), d)

        monkeypatch.setattr(torus, "_divide_rows", divide_by_product)
        want = [homfly_torus(n, m, form) for n, m in pairs]
        assert len(divisors) == len(pairs)
        for (n, m), g, r in zip(pairs, got, want):
            assert format_poly(g) == format_poly(r), (n, m)
            assert list(g.terms.items()) == list(r.terms.items()), (n, m)


def product_of(factors):
    d = Poly3.one()
    for f in factors:
        d = d * f
    return d


def chain_outcome(p, factors):
    """exact_divide's quotient items in insertion order, or None for NotDivisible."""
    try:
        return list(exact_divide(p, *factors).terms.items())
    except NotDivisible:
        return None


def heap_outcome(p, factors):
    """The same from the heap division by the product of the factors."""
    try:
        return list(heap_exact_divide(p, product_of(factors)).terms.items())
    except NotDivisible:
        return None


signs = st.sampled_from([1, -1])
# A factor is c1 x^w + c2 x^(w + v).  Steps along three shared directions make
# factors of one direction with different steps common; any small v is allowed.
binomial_steps = st.one_of(
    st.tuples(st.sampled_from([(0, 1, 0), (1, -1, 0), (1, 2, -3)]),
              st.integers(-3, 3).filter(bool)).map(lambda eg: tuple(eg[1] * x for x in eg[0])),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(any),
)
unit_binomials = st.builds(
    lambda w, v, c1, c2: Poly3({w: c1, tuple(map(add, w, v)): c2}),
    st.tuples(exponents, exponents, exponents), binomial_steps, signs, signs,
)
# One to four factors; the last repeats the first when the flag is set.
binomial_lists = st.tuples(st.lists(unit_binomials, min_size=1, max_size=3), st.booleans()).map(
    lambda fr: fr[0] + fr[0][:1] * fr[1])
# Wide steps: any wide vector, or a small direction times a small step or one
# past WORK_CAP.  Steps just under the cap are left out, since each such row
# takes about a second to divide.
wide_steps = st.one_of(
    wide_keys.filter(any),
    st.tuples(binomial_steps, st.one_of(st.integers(1, 50), st.integers(10**9, 10**12))).map(
        lambda vg: tuple(vg[1] * x for x in vg[0])),
)
wide_unit_binomials = st.builds(
    lambda w, v, c1, c2: Poly3({w: c1, tuple(map(add, w, v)): c2}),
    wide_keys, wide_steps, signs, signs,
)


class TestBinomialChains:
    @given(polys, binomial_lists)
    @settings(max_examples=300, deadline=None)
    def test_exact_products_match_the_heap(self, p, factors):
        product = p * product_of(factors)
        got = chain_outcome(product, factors)
        assert got == sorted(p.terms.items(), reverse=True)
        assert got == heap_outcome(product, factors)

    @given(polys, binomial_lists, perturbations, st.integers(0, 24),
           st.integers(-3, 3).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_perturbed_products_match_the_heap(self, p, factors, perturbation, pick, delta):
        product = p * product_of(factors)
        perturbed = product + Poly3({(a, q, t): c for a, q, t, c in perturbation})
        if product.terms:
            keys = list(product.terms)
            perturbed = perturbed + Poly3.monomial(delta, *keys[pick % len(keys)])
        assert chain_outcome(perturbed, factors) == heap_outcome(perturbed, factors)

    @pytest.mark.parametrize("factors", [
        ["1 - q^2", "1 + q^3", "1 + q^3"],  # both signs, two steps, a repeat
        ["a*q^-1*t - 1", "a^2*q^-2*t^2 + 1", "-a^3*q^-3*t^3 - 1"],
        ["1 + a^-2*q^2*t^-1", "1 + a^-2*q^-2*t^-3"],  # the squares of a thin knot
        ["t^5 - q", "q^2 - a", "a^7 + 1", "a^-1*t^2 + q^3"],  # four directions
    ])
    def test_chains(self, factors):
        factors = [parse_poly(f) for f in factors]
        p = parse_poly("3*a*q^-2 - t^4 + 2 - a^-3*q*t^2")
        assert list(exact_divide(p * product_of(factors), *factors).terms.items()) == sorted(
            p.terms.items(), reverse=True)
        with pytest.raises(NotDivisible):
            exact_divide(p * product_of(factors) + 1, *factors)

    @given(wide_polys, st.lists(wide_unit_binomials, min_size=1, max_size=3),
           wide_perturbations, st.integers(0, 24), st.integers(-3, 3).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_wide_outcomes_multiply_back(self, p, factors, perturbation, pick, delta):
        d = product_of(factors)
        product = p * d
        try:
            assert exact_divide(product, *factors) == p
        except TooLarge:
            pass
        if product.terms:
            keys = list(product.terms)
            perturbation = perturbation + [(keys[pick % len(keys)], delta)]
        perturbed = product + Poly3(dict(perturbation))
        try:
            quotient = exact_divide(perturbed, *factors)
        except (NotDivisible, TooLarge):
            return
        assert quotient * d == perturbed

    @given(polys, binomial_lists, perturbations)
    @settings(max_examples=200, deadline=None)
    def test_root_test_past_the_cap_is_sound(self, p, factors, perturbation):
        perturbed = p * product_of(factors) + Poly3({(a, q, t): c for a, q, t, c in perturbation})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "WORK_CAP", 0)
            try:
                got = chain_outcome(perturbed, factors)
            except TooLarge:
                got = "TooLarge"
        want = heap_outcome(perturbed, factors)
        if got is None:
            assert want is None
        if want is not None:
            assert got in ("TooLarge", want)

    def test_too_large_is_a_laurent_error_and_a_value_error(self):
        assert issubclass(TooLarge, LaurentError) and issubclass(TooLarge, ValueError)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once it has run for seconds.

    Where there is no SIGALRM, the block runs without a limit.
    """
    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Each probe ends in milliseconds; the limit only turns a stall into a failure.
PROBE_SECONDS = 5
THIN_WIDE = "1 + a^-4*q^4 + a^-2000000000000*q^2000000000000"


class TestDivisionProbes:
    def test_unreduced_prediction_of_a_wide_non_multiple(self):
        with time_limit(PROBE_SECONDS), pytest.raises(NotDivisible):
            khrN_unreduced_prediction(parse_poly("q^1000000000000 + 1"), 2)

    def test_wide_exact_quotient_is_too_large(self):
        with time_limit(PROBE_SECONDS), pytest.raises(
                TooLarge, match="1000000000001 dense row entries"):
            exact_divide(parse_poly("q^1000000000000 - 1"), parse_poly("q - 1"))

    def test_step_longer_than_every_row(self):
        with time_limit(PROBE_SECONDS), pytest.raises(NotDivisible):
            exact_divide(parse_poly("1 + q"), parse_poly("q^1000000000000 - 1"))

    @pytest.mark.parametrize("divisor", ["0", "q", "1 + q + q^2", "2*q - 1", "q - 3", "q + q"])
    def test_non_binomial_divisor_is_a_value_error(self, divisor):
        with time_limit(PROBE_SECONDS), pytest.raises(
                ValueError, match="divisor .* is not a unit binomial"):
            exact_divide(P_T23, mono(1, 0, 1) - 1, parse_poly(divisor))

    def test_thin_check_fails_by_the_root_test(self, capsys):
        with time_limit(PROBE_SECONDS):
            assert main(["super", "thin", "--homfly", THIN_WIDE, "--s", "0"]) == 1
        assert capsys.readouterr().err == (
            "check failed: squares quotient is inexact: not divisible by x^(2, -2, 1) +1\n")

    def test_thin_with_a_wide_exact_quotient_exits_2(self, capsys):
        k = 10 ** 12
        squares = mono(1, -2, 2, -1) + 1, mono(1, -2, -2, -3) + 1
        homfly = at_t_minus_one(1 + product_of(squares) * (1 + mono(1, -2 * k, 2 * k, -k)))
        with time_limit(PROBE_SECONDS):
            assert main(["super", "thin", "--homfly", format_poly(homfly), "--s", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: division needs 2000000000004 dense row entries, past 1000000\n")


def q_binomial_product(binomials):
    """prod (q^hi - q^lo) over the (hi, lo) pairs, as one Poly3."""
    d = Poly3.one()
    for hi, lo in binomials:
        d = d * Poly3({(0, hi, 0): 1, (0, lo, 0): -1})
    return d


Q1, Q2 = (0, 1, 0), (0, 2, 0)  # strides of q-rows and of rows in q^2


def rows_to_poly(rows, e):
    """The Poly3 of rows {base: (lo, row)} along e, row[j] at base + (lo + j) e."""
    return Poly3({tuple(x + (lo + j) * y for x, y in zip(base, e)): c
                  for base, (lo, row) in rows.items() for j, c in enumerate(row)})


def poly_to_rows(p, e):
    """{base: (lo, dense row)}: p split into its rows along e, e = (0, s, 0)."""
    fibers = {}
    for (a, q, t), c in p.terms.items():
        fibers.setdefault((a, q % e[1], t), {})[q // e[1]] = c
    return {b: (min(f), [f.get(j, 0) for j in range(min(f), max(f) + 1)])
            for b, f in fibers.items()}


def q_rows_quotient(rows, binomials):
    """q-rows over prod (q^hi - q^lo) by _divide_rows: q^lo comes off lo first."""
    shift = sum(lo for _, lo in binomials)
    return _divide_rows({b: (lo - shift, row) for b, (lo, row) in rows.items()},
                        Q1, [(hi - lo, 1) for hi, lo in binomials])


def divide_q_rows(p, binomials):
    return q_rows_quotient(poly_to_rows(p, Q1), binomials)


def q_binomial_outcome(divide, p, binomials):
    """The quotient's items in insertion order, or None for NotDivisible."""
    try:
        return list(divide(p, binomials).terms.items())
    except NotDivisible:
        return None


def divide_by_heap(p, binomials):
    return heap_exact_divide(p, q_binomial_product(binomials))


# (hi, lo) with hi > lo: q^hi - q^lo = q^lo (q^k - 1) for k = hi - lo in 1..7.
q_binomials = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(1, 7)).map(lambda lk: (lk[0] + lk[1], lk[0])),
    min_size=1, max_size=4,
)


class TestQBinomialDivision:
    @given(polys, q_binomials)
    @settings(max_examples=300, deadline=None)
    def test_quotient_matches_exact_divide(self, p, binomials):
        product = p * q_binomial_product(binomials)
        got = q_binomial_outcome(divide_q_rows, product, binomials)
        assert got == sorted(p.terms.items(), reverse=True)
        assert got == q_binomial_outcome(divide_by_heap, product, binomials)

    @given(polys, q_binomials, perturbations, st.booleans(), st.integers(0, 24),
           st.integers(-3, 3).filter(bool))
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_exact_divide_does(self, p, binomials, perturbation, nudge,
                                                   pick, delta):
        product = p * q_binomial_product(binomials)
        perturbed = product + Poly3({(a, q, t): c for a, q, t, c in perturbation})
        if nudge and product.terms:
            keys = list(product.terms)
            perturbed = perturbed + Poly3.monomial(delta, *keys[pick % len(keys)])
        assert q_binomial_outcome(divide_q_rows, perturbed, binomials) == (
            q_binomial_outcome(divide_by_heap, perturbed, binomials))

    @given(polys, q_binomials, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_padding_zeros_and_input_rows_are_kept(self, p, binomials, before, after):
        rows = {b: (lo - before, [0] * before + row + [0] * after)
                for b, (lo, row) in poly_to_rows(p * q_binomial_product(binomials), Q1).items()}
        copies = {b: (lo, list(row)) for b, (lo, row) in rows.items()}
        got = q_rows_quotient(rows, binomials)
        assert rows == copies
        assert list(got.terms.items()) == sorted(p.terms.items(), reverse=True)

    @pytest.mark.parametrize("p, binomials", [
        ("1", [(1, -1)]),  # shorter than the divisor
        ("q^2 - 1", [(2, 0), (1, 0)]),  # the second factor leaves a remainder
        ("q^3 + 1", [(2, 0)]),
        ("a*q - t + a*q^3 - q^2", [(2, 0)]),  # one of two (a, t) fibers is divisible
    ])
    def test_not_divisible(self, p, binomials):
        with pytest.raises(NotDivisible, match=r"not divisible by x\^\(0, \d, 0\) -1"):
            divide_q_rows(parse_poly(p), binomials)
        with pytest.raises(NotDivisible):
            divide_by_heap(parse_poly(p), binomials)

    def test_zero_dividend(self):
        assert q_rows_quotient({}, [(3, 1)]).terms == {}

    @pytest.mark.parametrize("n", range(13))
    def test_gaussian_row_is_the_factorial_quotient(self, n):
        def factors(k):
            return [Poly3({(0, 2 * i, 0): 1, (0, 0, 0): -1}) for i in range(1, k + 1)]

        row, lists = torus._gaussian_row(n, 64), reference_gaussian_row(n)
        assert len(row) == n + 1
        for b, binomial in enumerate(row):
            size = b * (n - b) + 1
            assert binomial >> 64 * (size - 1) == 1, b  # the leading 1 sits in the top slot
            entries = torus._unpack(binomial, size, 64)
            assert entries == lists[b], b
            divisors = factors(b) + factors(n - b)
            factorial = product_of(factors(n))
            want = exact_divide(factorial, *divisors) if divisors else factorial
            assert rows_to_poly({(0, 0, 0): (0, entries)}, Q2) == want, b


def reference_shift_add(row0, s, row):
    """The q-row row0 + q^s * row, s >= 0, as a new list."""
    out = row0 + [0] * (s + len(row) - len(row0))
    out[s:s + len(row)] = map(add, out[s:s + len(row)], row)
    return out


def reference_gaussian_row(n):
    """The Gaussian binomials [n, b] for b = 0..n as dense lists in q^2 from q^0."""
    row = [[1]]
    for k in range(1, n + 1):
        row = [[1]] + [reference_shift_add(row[b - 1], b, row[b]) for b in range(1, k)] + [[1]]
    return row


def reference_add_row(rows, a, q, row):
    """Add q^q * row, a list in q^2, to rows[(a, q & 1, 0)] at q >> 1; stored lists stay."""
    key, lo = (a, q & 1, 0), q >> 1
    if key in rows:
        lo0, row0 = rows[key]
        if lo0 > lo:
            lo0, row0, lo, row = lo, row, lo0, row0
        lo, row = lo0, reference_shift_add(row0, lo - lo0, row)
    rows[key] = (lo, row)


def reference_rows_binomial_sum(n, summand):
    """The β-sum on dense lists, as it was before the rows were packed ints."""
    gauss = reference_gaussian_row(n - 1)
    total = {}
    for b in range(n):
        ea, eq, factors = summand(b)
        rows = {}
        reference_add_row(rows, ea, eq, gauss[b] if (n - b) % 2 else list(map(neg, gauss[b])))
        for x, y, u, v in factors:
            out = {}
            for (a, r, _), (lo, row) in rows.items():
                reference_add_row(out, a + x, r + 2 * lo + y, row)
                reference_add_row(out, a + u, r + 2 * lo + v, list(map(neg, row)))
            rows = out
        for (a, r, _), (lo, row) in rows.items():
            reference_add_row(total, a, r + 2 * lo, row)
    return total


def reference_binomial_sum(n, summand):
    """The β-sum as it was: each summand a Poly3, times each factor a Poly3."""
    total = Poly3.zero()
    for b, binomial in enumerate(reference_gaussian_row(n - 1)):
        ea, eq, factors = summand(b)
        term = rows_to_poly({(0, 0, 0): (0, binomial)}, Q2).scale_monomial(
            (-1) ** (n - 1 - b), ea=ea, eq=eq)
        for x, y, u, v in factors:
            term = term * (Poly3.monomial(1, x, y) - Poly3.monomial(1, u, v))
        total = total + term
    return total


small = st.integers(-4, 4)
summands = st.lists(
    st.tuples(small, small, st.lists(st.tuples(small, small, small, small), max_size=4)),
    min_size=7, max_size=7,
)


class TestBinomialSum:
    @given(st.integers(2, 7), summands)
    @settings(max_examples=200, deadline=None)
    def test_matches_poly3_summand_loop(self, n, table):
        rows = torus._binomial_sum(n, table.__getitem__)
        assert rows_to_poly(rows, Q2) == reference_binomial_sum(n, table.__getitem__)

    @given(st.integers(2, 7), summands)
    @settings(max_examples=200, deadline=None)
    def test_matches_list_rows_exactly(self, n, table):
        # Same keys in the same order, same lo, same lengths and zero entries.
        assert (list(torus._binomial_sum(n, table.__getitem__).items())
                == list(reference_rows_binomial_sum(n, table.__getitem__).items()))

    @pytest.mark.parametrize("n, table, rows", [
        # a^1 (a - a) and a^2 (a - a): all-zero summands leave rows of zeros
        (2, [(1, 0, [(1, 0, 1, 0)]), (2, 0, [(1, 0, 1, 0)])],
         {(2, 0, 0): (0, [0]), (3, 0, 0): (0, [0])}),
        # (1 - q^6) - (1 + q^2)(1 - q^4) + (1 - 1) = q^4 - q^2, zeros at both ends
        (3, [(0, 0, [(0, 0, 0, 6)]), (0, 0, [(0, 0, 0, 4)]), (0, 0, [(0, 0, 0, 0)])],
         {(0, 0, 0): (0, [0, -1, 1, 0])}),
    ])
    def test_zero_entries_are_kept(self, n, table, rows):
        for binomial_sum in (torus._binomial_sum, reference_rows_binomial_sum):
            assert list(binomial_sum(n, table.__getitem__).items()) == list(rows.items())

    @pytest.mark.parametrize("eq", [0, 2])
    def test_entries_past_one_word(self, eq):
        # 70 factors q - 1 make w = 128.  At eq = 0 the two summands cancel to zeros;
        # at eq = 2 the sum is (q^2 - 1)(q - 1)^70, whose largest entry is about 3.2e19.
        summand = lambda b: (0, eq * b, [(0, 1, 0, 0)] * 70)  # noqa: E731
        rows = torus._binomial_sum(2, summand)
        assert list(rows.items()) == list(reference_rows_binomial_sum(2, summand).items())
        top = max(abs(c) for _, row in rows.values() for c in row)
        assert top > 2 ** 64 if eq else top == 0
        assert rows_to_poly(rows, Q2) == reference_binomial_sum(2, summand)


def rows_outcome(divide, *args):
    """The quotient's items in insertion order, or None for NotDivisible."""
    try:
        return list(divide(*args).terms.items())
    except NotDivisible:
        return None


class TestMixedParityRows:
    """Both q-parities at one a-exponent, which no HOMFLY summand makes: the
    factor q - 1 puts every row's q^{2j} and q^{2j+1} entries side by side."""

    def test_both_parities_of_one_a_exponent(self):
        # -a^3 (q - 1) + a^3 q^2 (q - 1) = a^3 (1 - q - q^2 + q^3)
        rows = torus._binomial_sum(2, lambda b: (3, 2 * b, [(0, 1, 0, 0)]))
        assert rows == {(3, 0, 0): (0, [1, -1]), (3, 1, 0): (0, [-1, 1])}
        assert rows_to_poly(rows, Q2) == parse_poly("a^3 - a^3*q - a^3*q^2 + a^3*q^3")

    @given(st.integers(2, 5), summands, st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.integers(0, 99), st.integers(-3, 3).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_division_matches_heap(self, n, table, gs, pick, delta):
        # Each summand carries every divisor q^{2g} - 1, so the sum is exact.
        mixed = [(ea, eq, factors + [(0, 1, 0, 0)] + [(0, 2 * g, 0, 0) for g in gs])
                 for ea, eq, factors in table]
        rows = torus._binomial_sum(n, mixed.__getitem__)
        assert {(a, 1 - r, t) for a, r, t in rows} == set(rows)
        steps, d = [(g, 1) for g in gs], q_binomial_product([(2 * g, 0) for g in gs])
        got = rows_outcome(_divide_rows, rows, Q2, steps)
        assert got == rows_outcome(heap_exact_divide, rows_to_poly(rows, Q2), d)
        assert got is not None
        # One entry nudged: a monomial off a multiple of d, never divisible.
        keys = sorted(rows)
        lo, row = rows[keys[pick % len(keys)]]
        row = list(row)
        row[pick % len(row)] += delta
        nudged = {**rows, keys[pick % len(keys)]: (lo, row)}
        assert rows_outcome(_divide_rows, nudged, Q2, steps) is None
        assert rows_outcome(heap_exact_divide, rows_to_poly(nudged, Q2), d) is None


Y_POLY = Poly3({(0, 2, 1): 1, (0, 0, 0): 2, (0, -2, -1): 1})


def reference_y_rewrite(p):
    """The rewrite as it was before the closed form, y^g as a reference power of Y_POLY.

    The power is taken once per level here rather than once per term, and
    the q^0 level keeps its own branch.  Levels run in the same order as in
    y_rewrite, so coefficients compare exactly, insertion order included.
    Its three symmetry checks inside the loop reject exactly the inputs that
    y_rewrite's one check rejects; the texts differ, so only raising is compared.
    """
    rem = dict(p.terms)
    coeffs = {}
    while rem:
        top = max(abs(q) for (_, q, _) in rem)
        if top == 0:
            for (ea, _, et), c in rem.items():
                coeffs[(ea, et, 0)] = coeffs.get((ea, et, 0), 0) + c
            break
        if top % 2:
            raise NotYExpressible("odd q-exponent %d cannot come from a power of y" % top)
        g = top // 2
        level = [(key, c) for key, c in rem.items() if key[1] == top]
        if not level:
            raise NotYExpressible("terms at q^%d have no positive-side partner" % (-top))
        y_power = reference_power(Y_POLY, g)
        for (ea, _, et), c in level:
            if rem.get((ea, -top, et - top), 0) != c:
                raise NotYExpressible(
                    "coefficient at a^%d q^%d t^%d has no matching mirror partner"
                    % (ea, top, et)
                )
            coeffs[(ea, et - g, g)] = coeffs.get((ea, et - g, g), 0) + c
            for (_, dq, dt), yc in y_power.terms.items():
                key = (ea, dq, (et - g) + dt)
                s = rem.get(key, 0) - c * yc
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
    return YExpansion(coeffs)


def reference_to_poly(coeffs):
    """Expand {(ea, et, g): c} with Poly3 powers of Y_POLY."""
    out = Poly3.zero()
    for (ea, et, g), c in coeffs.items():
        out = out + reference_power(Y_POLY, g).scale_monomial(c, ea=ea, et=et)
    return out


def rewrite_outcome(rewrite, p):
    """The ordered coefficient items, or None when rewrite raises NotYExpressible."""
    try:
        return list(rewrite(p).coeffs.items())
    except NotYExpressible:
        return None


y_tables = st.dictionaries(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=6),
    ),
    coeffs,
    max_size=6,
)


class TestYPowerClosedForm:
    def test_row_equals_power_in_term_order(self):
        for g in range(61):
            power = [(dq, dt, c) for (_, dq, dt), c in reference_power(Y_POLY, g).terms.items()]
            assert _y_power(g) == power

    @pytest.mark.parametrize("m", [m for m in range(4, 62) if m % 3])
    def test_t3_family_matches_reference(self, m):
        p = super_t3(m)
        assert rewrite_outcome(y_rewrite, p) == rewrite_outcome(reference_y_rewrite, p)

    def test_t2_family_matches_reference(self):
        for k in range(1, 22):
            p = super_t2(k)
            assert rewrite_outcome(y_rewrite, p) == rewrite_outcome(reference_y_rewrite, p)

    def test_table_rows_match_reference(self):
        rows = [rec for rec in load_dataset() if rec.superpoly is not None]
        assert rows
        for rec in rows:
            got = rewrite_outcome(y_rewrite, rec.superpoly)
            assert got is not None, rec.name
            assert got == rewrite_outcome(reference_y_rewrite, rec.superpoly), rec.name

    @given(y_tables, st.lists(st.tuples(st.integers(0, 50), st.sampled_from([-1, 1])), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_perturbed_outcomes_match_reference(self, table, bumps):
        terms = dict(YExpansion(table).to_poly().terms)
        for pick, delta in bumps:
            if terms:
                key = sorted(terms)[pick % len(terms)]
                terms[key] += delta
        p = Poly3(terms)
        # Equal coefficient lists, or None for both: a failure must raise on both sides.
        assert rewrite_outcome(y_rewrite, p) == rewrite_outcome(reference_y_rewrite, p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q^3 + q^-3", "odd q-exponent 3 cannot come from a power of y"),
            (
                "a*q^-4 + q^2*t + 2 + q^-2*t^-1",
                "coefficient at a^1 q^-4 t^0 has no matching mirror partner",
            ),
            (
                "2*a*q^4*t^3 + a*q^-4*t^-1",
                "coefficient at a^1 q^4 t^3 has no matching mirror partner",
            ),
            (
                "2*q^4*t^2 + 3*q^4*t^3 + q^-4*t^-2 + q^-4*t^-1",
                "coefficient at a^0 q^4 t^2 has no matching mirror partner",
            ),
        ],
    )
    def test_asymmetric_inputs_raise_the_same_message(self, text, message):
        """y_rewrite names the first term, in term order, that breaks the symmetry."""
        p = parse_poly(text)
        with pytest.raises(NotYExpressible) as err:
            y_rewrite(p)
        assert str(err.value) == message
        with pytest.raises(NotYExpressible):
            reference_y_rewrite(p)


class TestYRewrite:
    def test_y_itself(self):
        y = parse_poly("q^2*t + 2 + q^-2*t^-1")
        exp = y_rewrite(y)
        assert exp.coeffs == {(0, 0, 1): 1}
        assert exp.g_max == 1

    def test_trefoil_expansion(self):
        exp = y_rewrite(SUPER_T23)
        assert exp.coeffs == {(2, 1, 1): 1, (4, 3, 0): 1, (2, 1, 0): -2}
        assert exp.g_max == 1
        assert exp.to_poly() == SUPER_T23

    def test_lone_power_fails(self):
        with pytest.raises(NotYExpressible):
            y_rewrite(parse_poly("q^4"))

    @given(y_tables)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, table):
        expansion = YExpansion(table)
        source = expansion.to_poly()
        assert source == reference_to_poly(expansion.coeffs)
        got = y_rewrite(source)
        assert got.to_poly() == source
        assert list(got.coeffs.items()) == list(reference_y_rewrite(source).coeffs.items())


def rewrite_genus(p):
    """g_max of y_rewrite(p), or None when it raises NotYExpressible."""
    try:
        return y_rewrite(p).g_max
    except NotYExpressible:
        return None


class TestYGenus:
    @given(
        y_tables,
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 50), st.sampled_from([-1, 1])), max_size=3),
        st.lists(
            st.tuples(st.tuples(exponents, exponents, exponents), coeffs, st.booleans()),
            max_size=2,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_y_rewrite(self, table, perturb, bumps, extra):
        """Half the y-expansions are perturbed: a coefficient bumped or a term added.

        An added term may come with its mirror image, which keeps the
        symmetry and, at an odd q-exponent, leaves only the parity to fail.
        """
        terms = dict(YExpansion(table).to_poly().terms)
        if perturb:
            for pick, delta in bumps:
                if terms:
                    key = sorted(terms)[pick % len(terms)]
                    terms[key] += delta
            for (ea, eq, et), c, mirrored in extra:
                keys = {(ea, eq, et), (ea, -eq, et - eq)} if mirrored else {(ea, eq, et)}
                for key in keys:
                    terms[key] = terms.get(key, 0) + c
        p = Poly3(terms)
        assert y_genus(p) == rewrite_genus(p)
        assert rewrite_outcome(y_rewrite, p) == rewrite_outcome(reference_y_rewrite, p)

    @pytest.mark.parametrize(
        "p, genus",
        [
            (Poly3.zero(), 0),
            (parse_poly("3*a^2*t^-1"), 0),
            (parse_poly("q^-4"), None),
            (parse_poly("a*q^-4 + q^2*t + 2 + q^-2*t^-1"), None),
            (parse_poly("q^-2*t^-1 + q^-6*t^-3"), None),
            (parse_poly("q^3 + q^-3"), None),
            (parse_poly("q*t + q^-1"), None),
            (parse_poly("q^2*t + 2 + q^-2*t^-1"), 1),
            (SUPER_T23, 1),
        ],
        ids=["zero", "q^0 only", "lone negative q", "extra negative-side term",
             "negative side only", "odd q", "odd q, mirror-symmetric", "y", "trefoil"],
    )
    def test_edge_cases(self, p, genus):
        assert y_genus(p) == rewrite_genus(p) == genus
        assert rewrite_outcome(y_rewrite, p) == rewrite_outcome(reference_y_rewrite, p)

    def test_families_and_table_rows(self):
        polys = [super_t3(m) for m in range(4, 62) if m % 3]
        polys += [super_t2(k) for k in range(1, 22)]
        polys += [rec.superpoly for rec in load_dataset() if rec.superpoly is not None]
        for p in polys:
            assert y_genus(p) == rewrite_genus(p) is not None


class TestSigns:
    def test_trefoil_alternates(self):
        assert homfly_alternates(P_T23)

    def test_9_42_alternates(self):
        p = parse_poly("a^-2*q^-2 + a^-2*q^2 - q^-4 - 1 - q^4 + a^2*q^-2 + a^2*q^2")
        assert homfly_alternates(p)

    def test_nonneg(self):
        assert not parse_poly("-1 + q^2").is_nonnegative()
        assert parse_poly("1 + q^2").is_nonnegative()

    def test_odd_exponent(self):
        with pytest.raises(OddExponent):
            homfly_alternates(parse_poly("a + a^-1"))

    def test_broken_alternation(self):
        assert not homfly_alternates(parse_poly("1 + q^2"))


VARIABLE_AXIS = {"a": 0, "q": 1, "t": 2}


def reference_parse_poly(text):
    """parse_poly as a scanner that steps through the text one character at a time.

    Grammar: poly := ['-'] term (('+'|'-') term)*; integer := [0-9]+;
    term := [integer] ('*'? factor)*; factor := ('a'|'q'|'t') ['^' integer].
    Whitespace is ignored, an omitted exponent means 1, an omitted
    coefficient means 1 (with the sign coming from the separator).
    """
    i = 0
    n = len(text)
    terms = {}

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int(allow_sign):
        nonlocal i
        start = i
        if allow_sign and i < n and text[i] in "+-":
            i += 1
        if i >= n or not "0" <= text[i] <= "9":
            raise ParseError("expected an integer", start)
        while i < n and "0" <= text[i] <= "9":
            i += 1
        try:
            return int(text[start:i])
        except ValueError:
            raise ParseError("integer has too many digits", start) from None

    skip_ws()
    if i >= n:
        raise ParseError("empty input", 0)
    sign = 1
    if text[i] == "-":
        sign = -1
        i += 1
    first = True
    while True:
        skip_ws()
        if not first:
            if i >= n:
                break
            if text[i] == "+":
                sign = 1
            elif text[i] == "-":
                sign = -1
            else:
                raise ParseError("expected '+' or '-' between terms", i)
            i += 1
            skip_ws()
        first = False
        coeff = None
        if i < n and "0" <= text[i] <= "9":
            coeff = read_int(False)
        exps = [0, 0, 0]
        saw_factor = False
        while True:
            skip_ws()
            star = i < n and text[i] == "*"
            if star:
                i += 1
                skip_ws()
            if i < n and text[i] in VARIABLE_AXIS:
                axis = VARIABLE_AXIS[text[i]]
                i += 1
                e = 1
                if i < n and text[i] == "^":
                    i += 1
                    e = read_int(True)
                exps[axis] += e
                saw_factor = True
            elif star:
                raise ParseError("expected a factor after '*'", i)
            else:
                break
        if coeff is None:
            if not saw_factor:
                raise ParseError("expected a term", i)
            coeff = 1
        key = (exps[0], exps[1], exps[2])
        s = terms.get(key, 0) + sign * coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        skip_ws()
        if i >= n:
            break
    return Poly3(terms)


def parse_outcome(parse, text):
    """The terms in insertion order, or the ParseError's message and position."""
    try:
        return list(parse(text).terms.items())
    except ParseError as err:
        return str(err), err.pos


ADVERSARIAL_ALPHABET = list("0123456789aqt^*+- ") + ["\t", "x", "/", ".", "\u00b2", "\u0663",
                                                      "\x00"]


class TestText:
    def test_parse_table_entry(self):
        assert parse_poly("a^2*q^-2 + a^2*q^2*t^2 + a^4*t^3") == SUPER_T23

    def test_units(self):
        assert parse_poly("1") == Poly3.one()
        assert parse_poly("0") == Poly3.zero()
        assert format_poly(Poly3.zero()) == "0"

    def test_star_optional_and_spacing(self):
        assert parse_poly("2 a q t^-1 + a") == parse_poly("2*a*q*t^-1 + a")

    def test_star_needs_a_factor(self):
        # term := [integer] ('*'? factor)*: a '*' is always followed by a factor.
        for text, pos in (("q*", 2), ("1*", 2), ("2*q* + a", 5), ("a^2 *  ", 7), ("3**q", 2),
                          ("a*b", 2), ("1* + q", 3)):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert err.value.pos == pos, text
        assert parse_poly("*q + 2 * a*t") == parse_poly("q + 2*a*t")

    def test_canonical_round_trip(self):
        text = format_poly(P_T23)
        assert parse_poly(text) == P_T23
        assert format_poly(parse_poly(text)) == text

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("a^2 + ^3")
        assert err.value.pos > 0
        with pytest.raises(ParseError):
            parse_poly("")
        with pytest.raises(ParseError):
            parse_poly("a^2 b")

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_format_parse_identity(self, p):
        assert parse_poly(format_poly(p)) == p

    def test_integers_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and limit < 5000:
            for text, pos in (("1" * 5000, 0), ("a^" + "1" * 5000, 2), ("q + " + "1" * 5000, 4)):
                with pytest.raises(ParseError) as err:
                    parse_poly(text)
                assert err.value.pos == pos
            with pytest.raises(LaurentError):
                format_poly(Poly3.monomial(10 ** 5000, 1, 2, 3))
        else:
            assert parse_poly("1" * 5000) == Poly3.monomial(int("1" * 5000))

    def test_non_ascii_digits_are_a_parse_error(self):
        # str.isdigit accepts these, but they are not integers of the grammar.
        for text in ("\u00b2", "a^\u00b2", "\u0663*q"):
            with pytest.raises(ParseError):
                parse_poly(text)

    @given(st.text(alphabet=st.sampled_from(ADVERSARIAL_ALPHABET), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_adversarial_text_parses_or_raises_parse_error(self, text):
        try:
            p = parse_poly(text)
        except ParseError:
            return
        canonical = format_poly(p)
        assert parse_poly(canonical) == p
        assert format_poly(parse_poly(canonical)) == canonical


    def test_every_short_text_matches_the_reference(self):
        # All 177,156 strings of length <= 5 over these 11 characters: the same terms
        # in the same order, or the same message at the same position.
        alphabet = list("01aq^*+- x") + ["\u00a0"]
        for length in range(6):
            for chars in product(alphabet, repeat=length):
                text = "".join(chars)
                assert parse_outcome(parse_poly, text) == parse_outcome(reference_parse_poly,
                                                                        text), text

    @given(st.one_of(
        st.text(alphabet=st.sampled_from(ADVERSARIAL_ALPHABET), max_size=40),
        st.lists(st.sampled_from(ADVERSARIAL_ALPHABET + ["a^", "q^-", "t^+", " * ", " + ",
                                                         "1*a^2*q^-2*t^0", "1" * 5000]),
                 max_size=12).map("".join),
    ))
    @settings(max_examples=400, deadline=None)
    def test_adversarial_text_matches_the_reference(self, text):
        assert parse_outcome(parse_poly, text) == parse_outcome(reference_parse_poly, text)

    def test_table_and_long_texts_match_the_reference(self):
        texts = [format_poly(p) for rec in load_dataset()
                 for p in (rec.homfly, rec.khr2, rec.hfk, rec.superpoly) if p is not None]
        texts += ["a^" + "1" * 5000, "-" + "2" * 5000 + "*q", "q*t^-" + "3" * 5000,
                  "a" + " " * 5000 + "^2", "2 *" + " " * 5000, " " * 5000]
        for text in texts:
            assert parse_outcome(parse_poly, text) == parse_outcome(reference_parse_poly, text)


class TestQSymmetry:
    def test_homfly_is_q_symmetric(self):
        # The two-variable polynomial of any knot is fixed by q -> q^{-1}.
        from superpoly.laurent import q_inverse
        from superpoly.torus import homfly_torus

        for (n, m) in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 5)):
            p = homfly_torus(n, m)
            assert q_inverse(p) == p
