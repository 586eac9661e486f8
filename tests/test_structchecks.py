"""Thin construction, pairing decompositions, bounds, derived invariants."""

import pytest

from superpoly.laurent import (
    Poly3,
    at_a_qN,
    at_t_minus_one,
    parse_poly,
)
from superpoly.structchecks import (
    NoSurvivor,
    NotAlternating,
    NotDecomposable,
    all_three_step_pairings,
    derived_invariants,
    morton_check,
    pattern_minus,
    pattern_plus,
    thin_quotient_test,
    thin_super,
    three_step_pairing,
)
from superpoly.torus import homfly_torus, khr2_t3_closed, super_t2, super_t3
from superpoly.dataset import load_dataset

P_941 = parse_poly("a^-2*q^-2 + a^-2*q^2 - q^-4 - 1 - q^4 + a^2*q^-2 + a^2*q^2")
CP_41 = parse_poly("a^-2*t^-2 + q^-2*t^-1 + 1 + q^2*t + a^2*t^2")


class TestThinSuper:
    def test_figure_eight(self):
        result = thin_super(at_t_minus_one(CP_41), 0)
        assert result.superpoly == CP_41
        assert result.sawtooth == Poly3.one()
        assert result.squares_q == Poly3.monomial(1, 2, 0, 2)

    def test_trefoil_is_pure_sawtooth(self):
        result = thin_super(homfly_torus(2, 3), 2)
        assert result.superpoly == super_t2(1)
        assert result.squares_q == Poly3.zero()

    def test_negative_signature_row(self):
        rows = {r.name: r for r in load_dataset()}
        rec = rows["7_4"]
        result = thin_super(rec.homfly, -2)
        assert result.superpoly == rec.superpoly

    def test_table_round_trip(self):
        for rec in load_dataset():
            if rec.superpoly is None:
                continue
            deltas = {2 * et - 2 * ea - eq for (ea, eq, et) in rec.superpoly.terms}
            if len(deltas) != 1:
                continue
            s_inv, _ = pattern_plus(rec.superpoly)
            rebuilt = thin_super(at_t_minus_one(rec.superpoly), s_inv)
            assert rebuilt.superpoly == rec.superpoly, rec.name

    def test_wrong_s_rejected(self):
        with pytest.raises((NotAlternating, NotDecomposable)):
            thin_super(homfly_torus(2, 3), 0)

    def test_thick_knot_rejected(self):
        # Alternation holds but no thin structure exists at the correct S.
        with pytest.raises((NotAlternating, NotDecomposable)):
            thin_super(P_941, 0)

    def test_odd_s_rejected(self):
        with pytest.raises(ValueError):
            thin_super(homfly_torus(2, 3), 1)


class TestPatterns:
    def test_figure_eight_plus(self):
        s_inv, q_plus = pattern_plus(CP_41)
        assert s_inv == 0
        assert q_plus == parse_poly("a^-2*t^-2 + q^2*t")

    def test_t34_both_patterns(self):
        sp = super_t3(4)
        assert pattern_plus(sp)[0] == 6
        assert pattern_minus(sp)[0] == 6

    def test_unknot(self):
        assert pattern_plus(Poly3.one()) == (0, Poly3.zero())
        assert pattern_minus(Poly3.one()) == (0, Poly3.zero())

    def test_no_survivor(self):
        with pytest.raises(NoSurvivor):
            pattern_plus(parse_poly("a^2*q^2"))

    def test_inexact_remainder_is_not_decomposable(self):
        with pytest.raises(NotDecomposable, match="remainder after plus survivor S=0: "):
            pattern_plus(parse_poly("1 + a^2*q^-2*t^2 + a^2*q^-2*t"))

    def test_bundled_rows_nonnegative(self):
        for rec in load_dataset():
            if rec.superpoly is None:
                continue
            s_p, qp = pattern_plus(rec.superpoly)
            s_m, qm = pattern_minus(rec.superpoly)
            assert s_p == s_m == rec.s_inv, rec.name
            assert qp.is_nonnegative() or not qp
            assert qm.is_nonnegative() or not qm

    def test_torus_families(self):
        for k in range(1, 21):
            assert pattern_plus(super_t2(k))[0] == 2 * k
            assert pattern_minus(super_t2(k))[0] == 2 * k
        for m in range(4, 32):
            if m % 3:
                assert pattern_plus(super_t3(m))[0] == 2 * (m - 1)
                assert pattern_minus(super_t3(m))[0] == 2 * (m - 1)


class TestThreeStep:
    def test_trefoil_value(self):
        khr2 = at_a_qN(super_t2(1), 2)
        assert three_step_pairing(khr2) == (6, 2, parse_poly("q^2"))

    def test_lone_monomial(self):
        assert three_step_pairing(parse_poly("q^4")) == (4, 0, Poly3.zero())

    def test_absence_is_none(self):
        assert three_step_pairing(parse_poly("1 + q^2*t")) is None

    def test_t2_family(self):
        # Every (2, m) reduction through m = 21.
        for k in range(1, 11):
            assert three_step_pairing(at_a_qN(super_t2(k), 2)) is not None

    def test_t3_closed_forms(self):
        # Every (3, m) reduction through m = 31.
        for m in range(4, 32):
            if m % 3:
                assert three_step_pairing(khr2_t3_closed(m)) is not None

    def test_all_pairings_superset(self):
        khr2 = at_a_qN(super_t2(1), 2)
        every = all_three_step_pairings(khr2)
        assert (6, 2, parse_poly("q^2")) in every

    def test_requires_a_free(self):
        with pytest.raises(ValueError):
            three_step_pairing(super_t2(1))


class TestQuotient:
    def test_figure_eight_vs_unknot(self):
        ok, which = thin_quotient_test(at_t_minus_one(CP_41), 0)
        assert ok and which in ("positive", "negative")

    def test_torus_self_comparison(self):
        ok, _ = thin_quotient_test(homfly_torus(2, 5), 4)
        assert ok

    def test_9_42(self):
        ok, _ = thin_quotient_test(P_941, 0)
        assert ok

    def test_bundled_thin_rows(self):
        for rec in load_dataset():
            if rec.superpoly is None:
                continue
            deltas = {2 * et - 2 * ea - eq for (ea, eq, et) in rec.superpoly.terms}
            if len(deltas) == 1:
                ok, _ = thin_quotient_test(rec.homfly, rec.s_inv)
                assert ok, rec.name


class TestMorton:
    def test_trefoil_bounds_sharp(self):
        assert morton_check(super_t2(1), 3, 2)
        assert not morton_check(super_t2(1), 0, 2)

    def test_unknot(self):
        assert morton_check(Poly3.one(), 0, 1)

    def test_t34(self):
        assert morton_check(super_t3(4), 8, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            morton_check(Poly3.zero(), 0, 1)


class TestDerived:
    def test_trefoil(self):
        g_h, alexander, spectrum = derived_invariants(super_t2(1))
        assert g_h == 1
        assert alexander == parse_poly("q^-2 - 1 + q^2")
        assert spectrum == {-2: 3}

    def test_t34_genus(self):
        g_h, _, spectrum = derived_invariants(super_t3(4))
        assert g_h == 3  # Seifert genus of the (3,4) torus knot
        assert len(spectrum) > 1  # thick

    def test_unit(self):
        g_h, alexander, _ = derived_invariants(Poly3.one())
        assert g_h == 0 and alexander == Poly3.one()
