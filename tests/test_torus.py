"""Torus-knot closed forms against the published displays and each other."""

import re
from math import gcd

import pytest

from heap_division import exact_divide
from superpoly import torus
from superpoly.complexes import build_thin_complex, build_torus_complex
from superpoly.laurent import (
    Poly3,
    TooLarge,
    at_a_qN,
    at_a_inv_t,
    at_t_minus_one,
    format_poly,
    mirror,
    monomial_substitute,
    parse_poly,
    y_rewrite,
)
from superpoly.stable import finite_vs_stable, stable_beta_terms, t2_series_assembly
from superpoly.structchecks import sawtooth_poly, thin_quotient_test, thin_super
from superpoly.torus import (
    NegativeCoefficient,
    _t2_family,
    _t3_families,
    cp0_t3_closed,
    hfk_t2,
    homfly_torus,
    khrN_unreduced_prediction,
    khr2_t3_closed,
    super_t2,
    super_t3,
    super_torus,
    t3_reduction_terms,
    torus_id,
    torus_s_invariant,
    unreduce,
)

P_T23 = parse_poly("a^2*q^-2 + a^2*q^2 - a^4")
P_T34 = parse_poly(
    "a^10 - a^8*q^-4 - a^8*q^-2 - a^8 - a^8*q^2 - a^8*q^4"
    " + a^6*q^-6 + a^6*q^-2 + a^6 + a^6*q^2 + a^6*q^6"
)
SUPER_T34 = parse_poly(
    "a^10*t^8 + a^8*q^-4*t^3 + a^8*q^-2*t^5 + a^8*t^5 + a^8*q^2*t^7 + a^8*q^4*t^7"
    " + a^6*q^-6 + a^6*q^-2*t^2 + a^6*t^4 + a^6*q^2*t^4 + a^6*q^6*t^6"
)


def reference_homfly_jones(n, m):
    """The quantum-factorial route as it was, on the heap division throughout.

    Each quantum binomial [n-1]!/([b]![n-1-b]!) is a heap division of
    quantum factorials, and so is the final division by [n] * [n-1]!.
    """
    def qint(k):
        return Poly3({(0, k, 0): 1, (0, -k, 0): -1})

    def qfactorial(k):
        out = Poly3.one()
        for i in range(1, k + 1):
            out = out * qint(i)
        return out

    fact = qfactorial(n - 1)
    total = Poly3.zero()
    for b in range(n):
        binom = exact_divide(fact, qfactorial(b) * qfactorial(n - 1 - b))
        term = binom.scale_monomial((-1) ** (n - 1 - b), eq=-m * (2 * b - n + 1))
        for j in range(b - n + 1, b + 1):
            if j == 0:
                continue
            term = term * Poly3({(1, j, 0): 1, (-1, -j, 0): -1})
        total = total + term
    total = total.scale_monomial(1, ea=m * (n - 1)) * qint(1)
    return exact_divide(total, qint(n) * fact)


def reference_homfly_product(n, m):
    """The product route as it was, multiplying by each cofactor last.

    Each summand's two-term factors are multiplied up from q^{-2mb} first,
    and the Gaussian-binomial cofactor comes in as one large final product.
    """
    def qe(i, c=1):
        return Poly3.monomial(c, 0, i, 0)

    common = Poly3.one()
    for i in range(1, n):
        common = common * (qe(2 * i) - 1)
    total = Poly3.zero()
    for b in range(n):
        den = Poly3.one()
        for i in range(1, b + 1):
            den = den * (qe(2 * i) - 1)
        for j in range(1, n - b):
            den = den * (1 - qe(2 * j))
        num = qe(-2 * m * b)
        for i in range(1, b + 1):
            num = num * (Poly3.monomial(1, 2, 2 * i, 0) - 1)
        for j in range(1, n - b):
            num = num * (Poly3.monomial(1, 2, 0, 0) - qe(2 * j))
        total = total + num * exact_divide(common, den)
    total = total * (1 - qe(-2))
    total = total.scale_monomial(1, ea=(n - 1) * (m - 1), eq=(n - 1) * (m - 1))
    return exact_divide(total, (1 - qe(-2 * n)) * common)


REFERENCE_GRID = [(n, m) for n in range(2, 11) for m in range(n + 1, 2 * n + 2) if gcd(n, m) == 1]


def reference_cp0_t3_closed(m):
    """The Alexander-side closed form as it was, one branch per m mod 3."""
    k, r = divmod(m, 3)
    if r == 1:
        terms = {(0, 0, -2 * k): 1}
        for i in range(1, k + 1):
            for (eq, et) in (
                (6 * i, 2 * i),
                (6 * i - 2, 2 * i - 1),
                (-6 * i + 2, -4 * i + 1),
                (-6 * i, -4 * i),
            ):
                terms[(0, eq, et - 2 * k)] = terms.get((0, eq, et - 2 * k), 0) + 1
    else:
        terms = {}
        for (eq, et) in ((2, 1), (0, 0), (-2, -1)):
            terms[(0, eq, et - 2 * k - 1)] = 1
        for i in range(1, k + 1):
            for (eq, et) in (
                (6 * i + 2, 2 * i + 1),
                (6 * i, 2 * i),
                (-6 * i, -4 * i),
                (-6 * i - 2, -4 * i - 1),
            ):
                terms[(0, eq, et - 2 * k - 1)] = terms.get((0, eq, et - 2 * k - 1), 0) + 1
    return Poly3(terms)


class TestHomfly:
    def test_trefoil_both_forms(self):
        assert homfly_torus(2, 3, "jones") == P_T23
        assert homfly_torus(2, 3, "product") == P_T23

    def test_t34_display(self):
        assert homfly_torus(3, 4, "jones") == P_T34

    def test_dual_route_sample(self):
        for (n, m) in ((2, 5), (3, 5), (4, 7), (5, 8), (5, 12), (7, 9)):
            assert homfly_torus(n, m, "jones") == homfly_torus(n, m, "product"), (n, m)

    def test_product_route_matches_reference(self):
        for n, m in REFERENCE_GRID:
            got = homfly_torus(n, m, "product")
            assert list(got.terms.items()) == list(reference_homfly_product(n, m).terms.items()), (
                n, m)

    def test_jones_route_matches_reference(self):
        for n, m in REFERENCE_GRID:
            got = homfly_torus(n, m, "jones")
            assert list(got.terms.items()) == list(reference_homfly_jones(n, m).terms.items()), (
                n, m)

    def test_product_route_text_at_17_18(self):
        assert format_poly(homfly_torus(17, 18, "product")) == format_poly(
            reference_homfly_product(17, 18))

    def test_jones_route_text_at_17_18(self):
        assert format_poly(homfly_torus(17, 18, "jones")) == format_poly(
            reference_homfly_jones(17, 18))

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_id(2, 4)
        with pytest.raises(ValueError):
            torus_id(3, 2)
        with pytest.raises(ValueError):
            homfly_torus(2, 3, "fancy")

    @pytest.mark.parametrize("pair", [(2.9, 5), (2, 5.0), ("2", "5"), (True, 3), (2, None)])
    def test_non_int_indices(self, pair):
        pattern = r"torus knot indices must be ints, got \(%r, %r\)" % pair
        with pytest.raises(TypeError, match=pattern):
            torus_id(*pair)
        with pytest.raises(TypeError, match=pattern):
            homfly_torus(*pair)

    @pytest.mark.parametrize("form", ["jones", "product"])
    def test_size_bounds_the_rows_built(self, form, monkeypatch):
        # Slots of every packed row made: each _merge makes one int, Pascal's
        # rule makes [k, b] for 0 < b < k <= n, and each [n, b] may be negated.
        built, held = [0], [0]

        def gaussian_row(n, w):
            built[0] += sum(b * (k - b) + 1 for k in range(n + 1) for b in range(1, k))
            built[0] += sum(b * (n - b) + 1 for b in range(n + 1))
            return gaussian_row0(n, w)

        def merge(rows, a, q, *rest):
            merge0(rows, a, q, *rest)
            built[0] += rows[a, q & 1][1]

        def divide_rows(rows, e, steps):
            held[0] = sum(len(row) for _, row in rows.values())
            return divide_rows0(rows, e, steps)

        gaussian_row0, merge0, divide_rows0 = torus._gaussian_row, torus._merge, torus._divide_rows
        monkeypatch.setattr(torus, "_gaussian_row", gaussian_row)
        monkeypatch.setattr(torus, "_merge", merge)
        monkeypatch.setattr(torus, "_divide_rows", divide_rows)
        for n, m in [(2, 3), (2, 101), (3, 4), (3, 301), (5, 6), (7, 50), (12, 13), (17, 18)]:
            built[0] = 0
            homfly_torus(n, m, form)
            bound_built, bound_held = torus._homfly_size(n, m)
            assert 0 < built[0] <= bound_built and 0 < held[0] <= bound_held, (n, m)

    def test_cap_admits_every_size_in_use(self):
        # CI stops at T(29, 30), the benchmark at T(17, 18) and T(3, 61); the
        # docs time T(35, 36).
        for n, m in [(17, 18), (23, 24), (29, 30), (35, 36), (3, 61)]:
            built, held = torus._homfly_size(n, m)
            assert built <= torus.HOMFLY_WORK_CAP and held <= torus.WORK_CAP, (n, m)

    @pytest.mark.parametrize("form", ["jones", "product"])
    def test_past_the_cap_builds_nothing(self, form, monkeypatch):
        built, held = torus._homfly_size(7, 9)
        monkeypatch.setattr(torus, "HOMFLY_WORK_CAP", built)
        monkeypatch.setattr(torus, "WORK_CAP", held)
        assert homfly_torus(7, 9, form) == homfly_torus(7, 9, "jones")
        for name, count in [("HOMFLY_WORK_CAP", built), ("WORK_CAP", held)]:
            with monkeypatch.context() as mp:
                mp.setattr(torus, name, count - 1)
                mp.setattr(torus, "_gaussian_row", None)
                with pytest.raises(TooLarge, match=r"^HOMFLY of T\(7, 9\) needs up to %d "
                                   r"q\^2-row entries, past %d$" % (count, count - 1)):
                    homfly_torus(7, 9, form)

    @pytest.mark.parametrize("n, m, count, cap", [
        (200, 201, 320812000000, 100000000),
        (40, 41, 103776000, 100000000),
        (3, 1000001, 6000018, 1000000),
    ])
    def test_runaway_sizes_are_too_large(self, n, m, count, cap):
        with pytest.raises(TooLarge, match=r"^HOMFLY of T\(%d, %d\) needs up to %d q\^2-row "
                           r"entries, past %d$" % (n, m, count, cap)):
            homfly_torus(n, m)


@pytest.mark.parametrize("name, closed_form", [
    ("k", super_t2),
    ("k", hfk_t2),
    ("m", _t3_families),
    ("m", super_t3),
    ("m", lambda m: t3_reduction_terms(m, 2)),
    ("m", khr2_t3_closed),
    ("m", cp0_t3_closed),
    ("s_inv", sawtooth_poly),
    ("s_inv", lambda s_inv: thin_super(P_T23, s_inv)),
    ("s_inv", lambda s_inv: thin_quotient_test(P_T23, s_inv)),
    ("sawtooth_k", lambda k: build_thin_complex(k, Poly3.zero())),
])
@pytest.mark.parametrize("index", [True, False, 7.0, "7", None, 2.5, 1.5, "2"])
def test_closed_forms_reject_non_int_index(name, closed_form, index):
    message = "%s must be an int, got %r" % (name, index)
    with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
        closed_form(index)


@pytest.mark.parametrize("bad", [True, False, 2.5, "3", None])
def test_s_invariant_and_slN_prediction_reject_non_int(bad):
    for name, call in (
        ("n", lambda: torus_s_invariant(bad, 4)),
        ("m", lambda: torus_s_invariant(3, bad)),
        ("n_level", lambda: khrN_unreduced_prediction(P_T23, bad)),
    ):
        message = "%s must be an int, got %r" % (name, bad)
        with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
            call()


def test_s_invariant_of_int_pairs():
    assert torus_s_invariant(2, 3) == 2 and torus_s_invariant(3, 7) == 12


class TestSuperT2:
    def test_k1_is_trefoil_row(self):
        assert super_t2(1) == parse_poly("a^2*q^-2 + a^2*q^2*t^2 + a^4*t^3")

    def test_k2_is_51_row(self):
        expected = parse_poly(
            "a^4*q^-4 + a^4*t^2 + a^6*q^-2*t^3 + a^4*q^4*t^4 + a^6*q^2*t^5"
        )
        assert super_t2(2) == expected

    def test_specializes_to_homfly(self):
        for k in (1, 2, 3, 7, 15):
            assert at_t_minus_one(super_t2(k)) == homfly_torus(2, 2 * k + 1)

    def test_t_parity_and_sign(self):
        for k in (1, 4):
            for (ea, _, et), c in super_t2(k).terms.items():
                level = (ea - 2 * k) // 2
                assert et >= 0 and et % 2 == level % 2 and c > 0

    def test_generator_count_is_the_closed_count(self, monkeypatch):
        # At the cap the family and hfk_t2's 2k + 1 terms are built; one past it, neither is.
        for k in range(1, 40):
            count = 2 * k + 1
            monkeypatch.setattr(torus, "GENERATOR_CAP", count)
            assert len(_t2_family(k)) == len(hfk_t2(k).terms) == count
            monkeypatch.setattr(torus, "GENERATOR_CAP", count - 1)
            for call in (_t2_family, hfk_t2):
                with pytest.raises(TooLarge, match=r"^T\(2, 2k\+1\) at k = %d has %d generators, "
                                   r"past %d$" % (k, count, count - 1)):
                    call(k)
            # A thin complex adds four generators per square to its zigzag.
            squares, total = Poly3.monomial(k, 2, 0, 2), count + 4 * k
            monkeypatch.setattr(torus, "GENERATOR_CAP", total)
            assert len(build_thin_complex(-k, squares).generators) == total
            monkeypatch.setattr(torus, "GENERATOR_CAP", total - 1)
            with pytest.raises(TooLarge, match=r"^thin complex has %d generators, past %d$"
                               % (total, total - 1)):
                build_thin_complex(-k, squares)

    @pytest.mark.parametrize("call, k", [
        (lambda: hfk_t2(10 ** 8), 10 ** 8), (lambda: super_t2(10 ** 8), 10 ** 8),
        (lambda: super_torus(2, 20000001), 10 ** 7),
        (lambda: build_torus_complex(2, 10000001), 5 * 10 ** 6),
        (lambda: build_thin_complex(-10 ** 8, Poly3.zero()), 10 ** 8),
        (lambda: thin_quotient_test(parse_poly("1"), 2 * 10 ** 7), 10 ** 7),
        (lambda: finite_vs_stable(2, 2 * 10 ** 8 + 1, "super"), 10 ** 8),
    ], ids=["hfk_t2", "super_t2", "super_torus", "build_torus_complex", "build_thin_complex",
            "thin_quotient_test", "finite_vs_stable"])
    def test_past_the_cap_builds_nothing(self, call, k):
        with pytest.raises(TooLarge, match=r"^T\(2, 2k\+1\) at k = %d has %d generators, past "
                           r"200000$" % (k, 2 * k + 1)):
            call()


class TestSuperT3:
    def test_m4_display(self):
        assert super_t3(4) == SUPER_T34

    def test_specializes_to_homfly(self):
        for m in (4, 5, 7, 8, 10, 11, 25, 31):
            assert at_t_minus_one(super_t3(m)) == homfly_torus(3, m), m

    def test_mirror_is_positive_torus_knot(self):
        p = mirror(super_t3(5))
        assert at_t_minus_one(p) == mirror(homfly_torus(3, 5))
        lo, hi = p.exponent_range("a")
        assert hi < 0  # positive knots carry negative a-powers here

    def test_symmetry_expansion_exists(self):
        for m in (4, 5, 7, 8):
            y_rewrite(super_t3(m))
        for k in (1, 2, 6):
            y_rewrite(super_t2(k))

    def test_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            super_t3(6)

    def test_generator_count_is_the_closed_count(self, monkeypatch):
        # At the cap a family is built; one generator past it, nothing is.
        counts = {m: sum(len(row) for rows in _t3_families(m) for row in rows)
                  for m in range(4, 122) if m % 3}
        for m, count in counts.items():
            monkeypatch.setattr(torus, "GENERATOR_CAP", count)
            _t3_families(m)
            monkeypatch.setattr(torus, "GENERATOR_CAP", count - 1)
            with pytest.raises(TooLarge, match=r"^T\(3, %d\) has %d generators, past %d$"
                               % (m, count, count - 1)):
                _t3_families(m)

    @pytest.mark.parametrize("call", [
        lambda m: build_torus_complex(3, m), super_t3, lambda m: t3_reduction_terms(m, 2),
        lambda m: t3_reduction_terms(m, 0), lambda m: super_torus(3, m),
    ], ids=["build_torus_complex", "super_t3", "t3_reduction_terms-2", "t3_reduction_terms-0",
            "super_torus"])
    def test_past_the_cap_builds_nothing(self, call):
        assert torus.GENERATOR_CAP > 38721  # T(3, 241) stays admitted
        with pytest.raises(TooLarge, match=r"^T\(3, 1000001\) has 666668000001 generators"):
            call(1000001)


class TestSuperTorus:
    def test_dispatches_to_the_closed_forms(self):
        assert super_torus(2, 7) == super_t2(3)
        assert super_torus(3, 4) == SUPER_T34 == super_t3(4)

    def test_other_strand_counts_rejected(self):
        with pytest.raises(ValueError, match=r"closed-form superpolynomials exist for n in \{2, 3\}"):
            super_torus(4, 5)


class TestReductions:
    def test_t34_sl2_five_terms(self):
        killed, images = t3_reduction_terms(4, 2)
        reduced = at_a_qN(super_t3(4) - killed - images, 2)
        assert reduced == parse_poly("q^6 + q^10*t^2 + q^12*t^3 + q^12*t^4 + q^16*t^5")
        assert reduced == khr2_t3_closed(4)

    def test_t34_alexander_five_terms(self):
        killed, images = t3_reduction_terms(4, 0)
        reduced = at_a_inv_t(super_t3(4) - killed - images)
        assert reduced == parse_poly("q^-6*t^-6 + q^-4*t^-5 + t^-2 + q^4*t^-1 + q^6")
        assert reduced == cp0_t3_closed(4)

    def test_subtraction_matches_closed_forms_through_91(self):
        for m in range(4, 92):
            if m % 3 == 0:
                continue
            sp = super_t3(m)
            killed, images = t3_reduction_terms(m, 2)
            assert at_a_qN(sp - killed - images, 2) == khr2_t3_closed(m), m
            killed0, images0 = t3_reduction_terms(m, 0)
            assert at_a_inv_t(sp - killed0 - images0) == cp0_t3_closed(m), m

    def test_killed_lists_are_subsets(self):
        sp = super_t3(7)
        killed, images = t3_reduction_terms(7, 2)
        assert (sp - killed - images).is_nonnegative()

    def test_hfk_t2_values(self):
        assert hfk_t2(1) == parse_poly("q^-2*t^-2 + t^-1 + q^2")
        for k in (1, 2, 5):
            assert hfk_t2(k) == at_a_inv_t(super_t2(k))

    def test_cp0_t3_matches_reference(self):
        for m in (m for m in range(4, 200) if m % 3):
            got = cp0_t3_closed(m)
            assert list(got.terms.items()) == list(reference_cp0_t3_closed(m).terms.items()), m

    def test_khr2_t3_nonnegative_combination(self):
        for m in (5, 8, 11, 14):
            assert khr2_t3_closed(m).is_nonnegative()

    def test_only_the_two_published_levels(self):
        with pytest.raises(ValueError):
            t3_reduction_terms(4, 1)


class TestUnreduced:
    def test_figure_eight(self):
        cp41 = parse_poly("a^-2*t^-2 + q^-2*t^-1 + 1 + q^2*t + a^2*t^2")
        got = unreduce(cp41, 0)
        bracket = Poly3({(0, -1, 0): 1, (2, -1, 1): 1})
        hook = Poly3({(1, -1, 0): 1, (-1, 1, 0): -1})
        q_plus = parse_poly("a^-2*t^-2 + q^2*t")
        expected = Poly3({(1, 0, 0): 1, (-1, 0, 0): -1}) + bracket * hook * q_plus
        assert got == expected

    def test_unknot(self):
        assert unreduce(Poly3.one(), 0) == Poly3({(1, 0, 0): 1, (-1, 0, 0): -1})

    def test_t2_family_closed_form(self):
        # (a - a^{-1})(a/q)^{2k} + a^{2k}(a^2 q^{-2} - 1)(a^{-1} + a t) sum q^{4i-2k} t^{2i}
        for k in (1, 2, 4):
            s = Poly3({(0, 4 * i - 2 * k, 2 * i): 1 for i in range(1, k + 1)})
            expected = Poly3({(1, 0, 0): 1, (-1, 0, 0): -1}).scale_monomial(
                1, ea=2 * k, eq=-2 * k
            ) + (
                (Poly3.monomial(1, 2, -2, 0) - 1)
                * Poly3({(-1, 0, 0): 1, (1, 0, 1): 1})
                * s
            ).scale_monomial(1, ea=2 * k)
            assert unreduce(super_t2(k), 2 * k) == expected

    def test_sl2_prediction_matches_t2_closed_form(self):
        for k in (1, 2, 5, 9):
            pbar = unreduce(super_t2(k), 2 * k)
            expected = Poly3({(0, 2 * k + 1, 0): 1, (0, 2 * k - 1, 0): 1})
            for i in range(1, k + 1):
                expected = expected + Poly3.monomial(1, 0, 4 * i + 2 * k - 1, 2 * i)
                expected = expected + Poly3.monomial(1, 0, 4 * i + 2 * k + 3, 2 * i + 1)
            assert khrN_unreduced_prediction(pbar, 2) == expected

    def test_figure_eight_slN_prediction(self):
        cp41 = parse_poly("a^-2*t^-2 + q^-2*t^-1 + 1 + q^2*t + a^2*t^2")
        pbar = unreduce(cp41, 0)
        for n in (2, 3, 4, 7):
            ladder = Poly3({(0, 2 * i - n + 1, 0): 1 for i in range(n)})
            short = Poly3({(0, 2 * i - n + 1, 0): 1 for i in range(n - 1)})
            expected = ladder + (
                (1 + Poly3.monomial(1, 0, 2 * n, 1))
                * (Poly3.monomial(1, 0, -2 * n, -2) + Poly3.monomial(1, 0, 2, 1))
                * short
            )
            assert khrN_unreduced_prediction(pbar, n) == expected

    def test_divisibility_through_level_ten(self):
        pbars = [unreduce(super_t2(2), 4), unreduce(super_t3(5), 8)]
        for pbar in pbars:
            for n in range(1, 11):
                khrN_unreduced_prediction(pbar, n)  # raises on failure

    def test_unknot_sl3_quantum_dimension(self):
        pbar = Poly3({(1, 0, 0): 1, (-1, 0, 0): -1})
        assert khrN_unreduced_prediction(pbar, 3) == parse_poly("q^2 + 1 + q^-2")


class TestBetaSeries:
    def test_first_term_matches_t2_bracket(self):
        # The two-strand bracket: (1 + a^2 q^{-2} t)/(1 - q^{-4} t^{-2}).
        depth = 20
        got = stable_beta_terms(2, "first", depth)
        ratio = Poly3.monomial(1, 0, -4, -2)
        expected = Poly3.zero()
        power = Poly3.one()
        while power:
            expected = expected + power + Poly3.monomial(1, 2, -2, 1) * power
            power = Poly3(
                {k: c for k, c in (power * ratio).terms.items() if k[1] >= -depth}
            )
        expected = Poly3({k: c for k, c in expected.terms.items() if k[1] >= -depth})
        assert got == expected

    def test_last_term_leading_shape(self):
        got = stable_beta_terms(2, "last", 8)
        assert got.coeff(2, 0, 0) == 1 and got.coeff(0, -2, -3) == 1

    def test_full_t2_assembly_is_exact(self):
        for m in (3, 5, 7):
            assert t2_series_assembly(m, 2 * m + 6) == super_t2((m - 1) // 2)

    @pytest.mark.parametrize("call, error, name", [
        (lambda: stable_beta_terms(2, "first", -1), ValueError, "depth"),
        (lambda: stable_beta_terms(2.5, "first", 3), TypeError, "n"),
        (lambda: stable_beta_terms(True, "first", 3), TypeError, "n"),
        (lambda: stable_beta_terms(1, "last", 3), ValueError, "n"),
        (lambda: stable_beta_terms(2, "last", 3.0), TypeError, "depth"),
        (lambda: stable_beta_terms(2, "first", False), TypeError, "depth"),
        (lambda: t2_series_assembly(5, -1), ValueError, "depth"),
        (lambda: t2_series_assembly(5.0, 10), TypeError, "m"),
        (lambda: t2_series_assembly(True, 10), TypeError, "m"),
        (lambda: t2_series_assembly(4, 10), ValueError, "m"),
        (lambda: t2_series_assembly(5, 10.5), TypeError, "depth"),
    ])
    def test_arguments_are_checked(self, call, error, name):
        with pytest.raises(error, match=r"\b%s\b" % name):
            call()

    def test_zero_depth_is_a_cutoff(self):
        assert stable_beta_terms(2, "first", 0) == Poly3.one()

    def test_t2_assembly_at_t_minus_one(self):
        for m in (3, 5):
            assert at_t_minus_one(t2_series_assembly(m, 2 * m + 6)) == homfly_torus(2, m)

    def test_t3_first_term_grading_lattice(self):
        # The a-free part of the three-strand series, read from the survivor
        # corner, must reproduce the (j, i) grading lattice of the bottom
        # a-level of the finite superpolynomial for large m.
        depth = 18
        series = stable_beta_terms(3, "first", depth)
        a0 = {(-eq, -et) for (ea, eq, et), c in series.terms.items() if ea == 0}
        m = 31  # large enough that the corner window is stable
        k = (m - 1) // 3
        sp = super_t3(m)
        lo_a = min(ea for (ea, _, _) in sp.terms)
        corner_q = -2 * (m - 1)
        lattice = {
            (eq - corner_q, et)
            for (ea, eq, et) in sp.terms
            if ea == lo_a
        }
        window = {p for p in lattice if p[0] <= depth}
        assert window == {p for p in a0 if p[0] <= depth}
