"""Thin construction, pairing decompositions, bounds, derived invariants."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from superpoly.laurent import (
    NotDivisible,
    OddExponent,
    Poly3,
    at_a_qN,
    at_t_minus_one,
    exact_divide,
    homfly_alternates,
    parse_poly,
)
from superpoly import structchecks
from superpoly.structchecks import (
    NegativeQuotient,
    NoSurvivor,
    NotAlternating,
    NotDecomposable,
    StructureError,
    all_three_step_pairings,
    derived_invariants,
    morton_check,
    pattern_minus,
    pattern_plus,
    sawtooth_poly,
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

    @pytest.mark.parametrize("call", [sawtooth_poly, lambda s: thin_super(P_941, s),
                                      lambda s: thin_quotient_test(P_941, s)],
                             ids=["sawtooth_poly", "thin_super", "thin_quotient_test"])
    def test_odd_s_named_by_each_entry(self, call):
        with pytest.raises(ValueError, match="^S must be even, got 3$"):
            call(3)

    @pytest.mark.parametrize("s_inv", range(-60, 61, 2))
    def test_sawtooth_has_one_unit_term_per_step(self, s_inv):
        terms = sawtooth_poly(s_inv).terms
        assert len(terms) == abs(s_inv) + 1
        assert set(terms.values()) == {1}

    def test_long_zigzag_rejected_before_it_is_built(self, monkeypatch):
        def unbuilt(s_inv):
            raise AssertionError("sawtooth_poly(%d) was built" % s_inv)

        monkeypatch.setattr(structchecks, "sawtooth_poly", unbuilt)
        homfly = parse_poly("a^2*q^-2 + a^2*q^2 - a^4")
        with pytest.raises(NotDecomposable, match="S = 200000002 has 200000003 terms"):
            thin_super(homfly, 200000002)

    def test_term_count_rejects_only_what_the_split_rejects(self):
        # Where the zigzag outnumbers the terms, the squares split fails as well.
        def rejected_by_count(homfly, s_inv):
            try:
                thin_super(homfly, s_inv)
            except NotDecomposable as exc:
                return str(exc).startswith("the zigzag of S")
            except NotAlternating:
                pass
            return False

        cases = [(rec, s_inv) for rec in load_dataset() for s_inv in range(-16, 17, 2)
                 if rejected_by_count(rec.homfly, s_inv)]
        assert cases
        for rec, s_inv in cases:
            poly = Poly3({(ea, eq, ea + eq // 2 - s_inv // 2): abs(c)
                          for (ea, eq, _), c in rec.homfly.terms.items()})
            try:
                squares = exact_divide(poly - sawtooth_poly(s_inv), *structchecks.SQUARE_FACTOR)
            except NotDivisible:
                continue
            assert not squares.is_nonnegative(), (rec.name, s_inv)


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

    @pytest.mark.parametrize("pattern, name, text", [
        (pattern_plus, "plus", "1 + a^6*q^-6*t^3 - a^2*q^-2*t"),
        (pattern_minus, "minus", "1 + a^6*q^6*t^9 - a^2*q^2*t^3"),
    ])
    def test_negative_quotient(self, pattern, name, text):
        # The remainder divides exactly, but the quotient 1 - (binomial term) is not >= 0.
        message = "^quotient for %s survivor S=0 has negative coefficients$" % name
        with pytest.raises(NegativeQuotient, match=message):
            pattern(parse_poly(text))

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

    def test_negative_quotient_is_none(self):
        # 1 + q^18 t^9 - q^6 t^3 = 1 + (1 + q^6 t^3)(q^12 t^6 - q^6 t^3): exact, not >= 0.
        assert three_step_pairing(parse_poly("1 + q^18*t^9 - q^6*t^3")) is None

    def test_t2_family(self):
        # Every (2, m) reduction through m = 21.
        for k in range(1, 11):
            assert three_step_pairing(at_a_qN(super_t2(k), 2)) is not None

    def test_t3_closed_forms(self):
        # Every (3, m) reduction through m = 31.
        for m in range(4, 32):
            if m % 3:
                assert three_step_pairing(khr2_t3_closed(m)) is not None

    def test_scan_stops_at_the_first_split(self, monkeypatch):
        # Candidates q^2, q^6 t^2, q^8 t^3: the second splits, the third is never tried.
        calls = []

        def counting(*args):
            calls.append(args)
            return exact_divide(*args)

        monkeypatch.setattr(structchecks, "exact_divide", counting)
        khr2 = at_a_qN(super_t2(1), 2)
        assert three_step_pairing(khr2) == (6, 2, parse_poly("q^2"))
        assert len(calls) == 2
        all_three_step_pairings(khr2)
        assert len(calls) == 2 + 3

    def test_all_pairings_superset(self):
        khr2 = at_a_qN(super_t2(1), 2)
        every = all_three_step_pairings(khr2)
        assert (6, 2, parse_poly("q^2")) in every

    def test_requires_a_free(self):
        with pytest.raises(ValueError):
            three_step_pairing(super_t2(1))


def reference_thin_quotient_test(homfly, s_inv):
    """The quotient test with one division per sign placement, as first written."""
    if s_inv % 2:
        raise ValueError("S must be even, got %d" % s_inv)
    target = homfly - at_t_minus_one(sawtooth_poly(s_inv))
    outcomes = {}
    for name, exp in (("positive", 2), ("negative", -2)):
        try:
            quotient = exact_divide(target, *(1 - Poly3.monomial(1, exp, e, 0) for e in (2, -2)))
        except NotDivisible:
            outcomes[name] = False
            continue
        if not quotient:
            outcomes[name] = True
            continue
        try:
            outcomes[name] = homfly_alternates(quotient)
        except OddExponent:
            outcomes[name] = False
    return outcomes["negative"] or outcomes["positive"]


def seeded_quotient_cases(count, seed=0):
    """(homfly, S): zigzag plus a square norm times an even polynomial, some with noise."""
    rng = random.Random(seed)
    norm = (1 - Poly3.monomial(1, 2, 2, 0)) * (1 - Poly3.monomial(1, 2, -2, 0))
    for _ in range(count):
        s_inv = rng.choice((-6, -4, -2, 0, 2, 4, 6))
        f = Poly3({(2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3), 0): rng.choice((-2, -1, 1, 3))
                   for _ in range(rng.randint(0, 4))})
        p = at_t_minus_one(sawtooth_poly(s_inv)) + norm * f
        if rng.random() < 0.3:
            p = p + Poly3.monomial(rng.choice((-1, 1)), rng.randint(-4, 4), rng.randint(-4, 4), 0)
        yield p, s_inv


class TestQuotient:
    def test_one_division_matches_both_placements(self):
        cases = [(rec.homfly, rec.s_inv) for rec in load_dataset()]
        cases += [(homfly_torus(2, m), s) for m in range(3, 16, 2) for s in (-2, 0, m - 1, 1)]
        cases += list(seeded_quotient_cases(400))
        for homfly, s_inv in cases:
            assert (outcome(thin_quotient_test, homfly, s_inv)
                    == outcome(reference_thin_quotient_test, homfly, s_inv)), (homfly, s_inv)

    def test_figure_eight_vs_unknot(self):
        assert thin_quotient_test(at_t_minus_one(CP_41), 0) is True

    def test_torus_self_comparison(self):
        assert thin_quotient_test(homfly_torus(2, 5), 4) is True

    def test_9_42(self):
        assert thin_quotient_test(P_941, 0) is True

    def test_bundled_thin_rows(self):
        for rec in load_dataset():
            if rec.superpoly is None:
                continue
            deltas = {2 * et - 2 * ea - eq for (ea, eq, et) in rec.superpoly.terms}
            if len(deltas) == 1:
                assert thin_quotient_test(rec.homfly, rec.s_inv) is True, rec.name


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


# The earlier scans, one for the one-step pairings and one for the three-step
# pairing, verbatim; the single survivor scan must reproduce their outcomes.


def reference_pairing(p, survivor_of_s, binomial, survivor_name):
    """Shared engine for the one-step pairings.

    Scans candidate survivor monomials in canonical order; for each, the
    remainder must be exactly divisible by the binomial with nonnegative
    quotient.  The first success wins (deterministic); if no candidate
    exists at all, NoSurvivor; otherwise the first candidate's failure is
    reported.
    """
    candidates = []
    for (ea, eq, et), c in p.sorted_terms():
        s_inv = survivor_of_s(ea, eq, et)
        if s_inv is not None and c > 0:
            candidates.append(s_inv)
    if not candidates:
        raise NoSurvivor("no monomial of the form %s is present" % survivor_name)
    first_error = None
    for s_inv in candidates:
        survivor = reference_survivor_monomial(s_inv, survivor_name)
        try:
            quotient = exact_divide(p - survivor, binomial)
        except NotDivisible as exc:
            if first_error is None:
                first_error = NotDecomposable(
                    "remainder after %s survivor S=%d: %s" % (survivor_name, s_inv, exc)
                )
            continue
        if not quotient.is_nonnegative():
            if first_error is None:
                first_error = NegativeQuotient(
                    "quotient for %s survivor S=%d has negative coefficients"
                    % (survivor_name, s_inv)
                )
            continue
        return s_inv, quotient
    raise first_error


def reference_survivor_monomial(s_inv, survivor_name):
    if survivor_name == "plus":
        return Poly3.monomial(1, s_inv, -s_inv, 0)
    return Poly3.monomial(1, s_inv, s_inv, s_inv)


def reference_three_step_splits(khr2):
    """Yield (m, n, Q-) for each survivor q^m t^n admitting a split, in order."""
    if any(ea != 0 for (ea, _, _) in khr2.terms):
        raise ValueError("three-step pairing applies to a-free polynomials")
    binomial = 1 + Poly3.monomial(1, 0, 6, 3)
    for (_, eq, et), c in khr2.sorted_terms():
        if c <= 0:
            continue
        try:
            quotient = exact_divide(khr2 - Poly3.monomial(1, 0, eq, et), binomial)
        except NotDivisible:
            continue
        if quotient.is_nonnegative():
            yield eq, et, quotient


PLUS_BINOMIAL = 1 + Poly3.monomial(1, 2, -2, 1)
MINUS_BINOMIAL = 1 + Poly3.monomial(1, 2, 2, 3)
KNIGHT_BINOMIAL = 1 + Poly3.monomial(1, 0, 6, 3)

REFERENCE_PAIRS = [
    (pattern_plus, lambda p: reference_pairing(
        p, lambda ea, eq, et: ea if (eq == -ea and et == 0) else None, PLUS_BINOMIAL, "plus")),
    (pattern_minus, lambda p: reference_pairing(
        p, lambda ea, eq, et: ea if (eq == ea and et == ea) else None, MINUS_BINOMIAL, "minus")),
    (three_step_pairing, lambda p: next(reference_three_step_splits(p), None)),
    (all_three_step_pairings, lambda p: list(reference_three_step_splits(p))),
]


def outcome(call, *args):
    """The result of call(*args), or its exception's type and text."""
    try:
        return call(*args)
    except (StructureError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(p):
    for public, reference in REFERENCE_PAIRS:
        assert outcome(public, p) == outcome(reference, p), (public.__name__, p)


class TestMatchesReferenceScan:
    def test_table_rows(self):
        for rec in load_dataset():
            for p in (rec.homfly, rec.khr2, rec.hfk, rec.superpoly):
                if p is not None:
                    assert_matches_reference(p)

    def test_torus_families(self):
        for k in range(1, 21):
            assert_matches_reference(super_t2(k))
        for m in range(4, 62):
            if m % 3:
                assert_matches_reference(super_t3(m))
                assert_matches_reference(khr2_t3_closed(m))

    # Each perturbation adds c * a^i q^j t^k * factor: a lone monomial breaks
    # exact division, a multiple of a pairing binomial keeps it.
    @given(
        st.sampled_from([Poly3.one(), CP_41, super_t2(1), super_t2(2), super_t3(4)]),
        st.lists(st.tuples(
            st.sampled_from([-1, 1, 2]), st.integers(-4, 4), st.integers(-6, 6),
            st.integers(-3, 4),
            st.sampled_from([Poly3.one(), PLUS_BINOMIAL, MINUS_BINOMIAL, KNIGHT_BINOMIAL]),
        ), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    @example(Poly3.one(), [(-1, 0, 0, 0, Poly3.one()), (1, 2, 2, 0, Poly3.one())])
    @example(Poly3.one(), [(1, 2, -2, 2, Poly3.one())])
    @example(Poly3.one(), [(-1, 2, -2, 1, PLUS_BINOMIAL)])
    @example(Poly3.one(), [(-1, 2, 2, 3, MINUS_BINOMIAL)])
    @example(Poly3.one(), [(-1, 0, 6, 3, KNIGHT_BINOMIAL)])
    def test_perturbed(self, base, perturbations):
        p = base
        for c, ea, eq, et, factor in perturbations:
            p = p + Poly3.monomial(c, ea, eq, et) * factor
        assert_matches_reference(p)
        assert_matches_reference(at_a_qN(p, 2))
