"""Core exact-arithmetic layer: ring ops, substitution, division, rewriting."""

import pytest
from hypothesis import given, settings, strategies as st

from superpoly.laurent import (
    NotDivisible,
    NotYExpressible,
    OddExponent,
    ParseError,
    Poly3,
    at_a_inv_t,
    at_t_minus_one,
    exact_divide,
    format_poly,
    mirror,
    monomial_substitute,
    parse_poly,
    positivity_and_alternation,
    y_rewrite,
)

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


class TestExactDivide:
    def test_binomial(self):
        num = mono(1, 2) - mono(1, -2)
        den = mono(1, 1) - mono(1, -1)
        assert exact_divide(num, den) == mono(1, 1) + mono(1, -1)

    def test_monomial_inverse(self):
        assert exact_divide(Poly3.one(), mono(1, 0, 2, 0)) == mono(1, 0, -2, 0)

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
            exact_divide(Poly3.one(), Poly3.zero())

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_multiply_then_divide(self, p, d):
        if not d.terms:
            return
        assert exact_divide(p * d, d) == p


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

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            coeffs,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, table):
        from superpoly.laurent import YExpansion

        source = YExpansion(table).to_poly()
        assert y_rewrite(source).to_poly() == source


class TestSigns:
    def test_trefoil_alternates(self):
        assert positivity_and_alternation(P_T23, "homfly-alternating")

    def test_9_42_alternates(self):
        p = parse_poly("a^-2*q^-2 + a^-2*q^2 - q^-4 - 1 - q^4 + a^2*q^-2 + a^2*q^2")
        assert positivity_and_alternation(p, "homfly-alternating")

    def test_nonneg(self):
        assert not positivity_and_alternation(parse_poly("-1 + q^2"), "nonneg")
        assert positivity_and_alternation(parse_poly("1 + q^2"), "nonneg")

    def test_odd_exponent(self):
        with pytest.raises(OddExponent):
            positivity_and_alternation(parse_poly("a + a^-1"), "homfly-alternating")

    def test_broken_alternation(self):
        assert not positivity_and_alternation(
            parse_poly("1 + q^2"), "homfly-alternating"
        )


class TestText:
    def test_parse_table_entry(self):
        assert parse_poly("a^2*q^-2 + a^2*q^2*t^2 + a^4*t^3") == SUPER_T23

    def test_units(self):
        assert parse_poly("1") == Poly3.one()
        assert parse_poly("0") == Poly3.zero()
        assert format_poly(Poly3.zero()) == "0"

    def test_star_optional_and_spacing(self):
        assert parse_poly("2 a q t^-1 + a") == parse_poly("2*a*q*t^-1 + a")

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


class TestQSymmetry:
    def test_homfly_is_q_symmetric(self):
        # The two-variable polynomial of any knot is fixed by q -> q^{-1}.
        from superpoly.laurent import q_inverse
        from superpoly.torus import homfly_torus

        for (n, m) in ((2, 3), (2, 7), (3, 4), (3, 5), (4, 5)):
            p = homfly_torus(n, m)
            assert q_inverse(p) == p
