"""Stable limits: series, block complexes, reductions, agreement windows."""

import sys
import threading
import time
from itertools import count, islice, takewhile

import pytest

from superpoly import stable
from superpoly.laurent import (Poly3, TooLarge, at_a_qN, at_t_minus_one, parse_poly,
                              q_inverse)
from superpoly.complexes import _eliminate, homology, verify
from superpoly.stable import (
    GenericityMismatch,
    TruncSeries,
    _generic_survivors,
    build_stable_complex,
    finite_vs_stable,
    geometric,
    stable_beta_terms,
    stable_hfk,
    stable_homfly,
    stable_khr2,
    stable_khr2_closed,
    stable_khr2_generic,
    stable_super,
    t2_series_assembly,
)


class TestSeries:
    def test_two_strand_low_terms(self):
        got = stable_super(2, 8)
        assert got.body == parse_poly(
            "1 + q^4*t^2 + a^2*q^2*t^3 + a^2*q^6*t^5 + q^8*t^4"
        )

    def test_qmax_zero(self):
        assert stable_super(2, 0).body == Poly3.one()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_euler_matches_stable_homfly(self, n):
        qmax = 60
        lhs = TruncSeries(at_t_minus_one(stable_super(n, qmax).body), qmax)
        assert lhs == stable_homfly(n, qmax)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_homological_parity(self, n):
        # Homological grading congruent to half the a-grading mod 2.
        for (ea, _, et) in stable_super(n, 30).body.terms:
            assert (et - ea // 2) % 2 == 0

    def test_truncation_arithmetic(self):
        s = TruncSeries(Poly3.one(), 4)
        grown = s * Poly3.monomial(1, 0, 6, 2)
        assert grown.body == Poly3.zero()
        with pytest.raises(ValueError):
            geometric(Poly3.one(), 10)
        with pytest.raises(ValueError):
            geometric(Poly3.zero(), 10)
        with pytest.raises(ValueError, match="one term"):
            geometric(Poly3({(0, 2, 0): 1, (0, 4, 1): 1}), 10)

    def test_series_past_the_term_cap_builds_nothing(self, monkeypatch):
        # At the cap the series is built; one term past it, nothing is.
        ratio = Poly3.monomial(-1, 2, 6, 1)
        for cap in (1, 2, 7, 40):
            monkeypatch.setattr(stable, "WORK_CAP", cap)
            assert len(geometric(ratio, 6 * cap - 1).body.terms) == cap
            with pytest.raises(TooLarge, match=r"^the geometric series of ratio -1\*a\^2\*q\^6"
                               r"\*t\^1 needs %d terms, past %d$" % (cap + 1, cap)):
                geometric(ratio, 6 * cap)

    def test_series_product_past_the_pair_cap_is_refused(self, monkeypatch):
        # 3 x 4 term pairs: at a cap of 12 the product is formed, at 11 it is not.
        s = TruncSeries(parse_poly("1 + q^2 + a^2*q^2*t^3"), 10)
        factor = parse_poly("1 + q^4*t^2 + q^6*t^4 + q^8*t^6")
        monkeypatch.setattr(stable, "WORK_CAP", 12)
        want = TruncSeries(s.body * factor, 10)
        assert s * factor == want
        assert s * TruncSeries(factor, 10) == want
        monkeypatch.setattr(stable, "WORK_CAP", 11)
        for other in (factor, TruncSeries(factor, 10)):
            with pytest.raises(TooLarge, match=r"^the series product chain needs 12 term "
                               r"pairs, past 11$"):
                s * other

    def test_series_product_chain_adds_its_pairs(self, monkeypatch):
        # Every product adds its pairs to those its operands came from, and a sum
        # keeps both operands' pairs, so a chain of small products is refused whole.
        s = TruncSeries(parse_poly("1 + q^2"), 10)
        factor = parse_poly("1 + q^4*t^2")
        monkeypatch.setattr(stable, "WORK_CAP", 100)
        once = s * factor                        # 2 x 2
        twice = once * factor                    # 4 + 4 x 2
        assert (s.pairs, once.pairs, twice.pairs) == (0, 4, 12)
        assert (once * once).pairs == 4 + 4 + 4 * 4
        assert (once + twice).pairs == (twice + once).pairs == 16
        assert (once + factor).pairs == 4
        assert twice * factor == TruncSeries(s.body * factor * factor * factor, 10)
        monkeypatch.setattr(stable, "WORK_CAP", 11)
        with pytest.raises(TooLarge, match=r"^the series product chain needs 12 term pairs, "
                           r"past 11$"):
            once * factor

    @pytest.mark.parametrize("m, depth", [(3, 0), (5, 10), (9, 24), (41, 120)])
    def test_t2_series_route_counts_every_product(self, monkeypatch, m, depth):
        # The route's last product carries the pairs of every product before it,
        # the bracket b1's included.
        own, carried = [], []
        mul = TruncSeries.__mul__

        def counted(self, other):
            terms = other.body.terms if isinstance(other, TruncSeries) else other.terms
            own.append(len(self.body.terms) * len(terms))
            out = mul(self, other)
            carried.append(out.pairs)
            return out

        monkeypatch.setattr(TruncSeries, "__mul__", counted)
        t2_series_assembly(m, depth)
        assert len(own) == 4
        assert carried[-1] == sum(own)

    def test_beta_terms_past_the_term_cap_end_at_once(self):
        start = time.monotonic()
        with pytest.raises(TooLarge, match=r"^the geometric series of ratio 1\*a\^0\*q\^4"
                           r"\*t\^-2 needs 250000001 terms, past 1000000$"):
            stable_beta_terms(2, "first", 10 ** 9)
        assert time.monotonic() - start < 1

    def test_header_round_trip(self):
        from superpoly.laurent import parse_poly as pp

        text = stable_super(2, 8).header_text()
        head, body = text.splitlines()
        assert head == "# qmax=8"
        assert pp(body) == stable_super(2, 8).body


STABLE_INPUT_FUNCTIONS = [
    stable_super, stable_homfly, stable_hfk, build_stable_complex, stable_khr2_generic,
    stable_khr2_closed,
]


@pytest.mark.parametrize("fn", STABLE_INPUT_FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("n, qmax, message", [
    (1, 10, "need n >= 2"),
    (0, 10, "need n >= 2"),
    (-3, 10, "need n >= 2"),
    (3, -4, "need qmax >= 0"),
    (2, -1, "need qmax >= 0"),
])
def test_stable_inputs_checked(fn, n, qmax, message):
    with pytest.raises(ValueError, match=message):
        fn(n, qmax)


@pytest.mark.parametrize("fn", STABLE_INPUT_FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("n, qmax, name", [
    (3, 10.5, "qmax"),
    (3.0, 10, "n"),
    (True, 10, "n"),
    (3, False, "qmax"),
    ("3", 10, "n"),
    (3, None, "qmax"),
])
def test_stable_input_types_checked(fn, n, qmax, name):
    # A float cutoff used to be truncated quietly (qmax=10.5 gave qmax=10).
    with pytest.raises(TypeError, match="^%s must be an int, got " % name):
        fn(n, qmax)


@pytest.mark.parametrize("qmax", [10.5, 10.0, True])
def test_series_cutoff_must_be_an_int(qmax):
    with pytest.raises(TypeError, match="^qmax must be an int, got "):
        TruncSeries(Poly3.one(), qmax)
    with pytest.raises(TypeError, match="^qmax must be an int, got "):
        stable_khr2_closed(3, qmax)


class TestStableComplex:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_poincare_matches_series(self, n):
        qmax = 40
        c = build_stable_complex(n, qmax)
        assert c.poincare() == stable_super(n, qmax).body

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_axioms_away_from_boundary(self, n):
        qmax = 40
        c = build_stable_complex(n, qmax)
        levels = sorted(c.diffs)
        assert levels == sorted({1, 0, *[-i for i in range(1, n)]} - ({0} if n == 2 else set()))
        report = verify(c, max_eq=qmax - 2 * n)
        assert report.ok, report.violations[:3]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_alexander_side_homology(self, n):
        qmax = 40
        c = build_stable_complex(n, qmax)
        got = TruncSeries(homology(c, 0).poincare, qmax)
        assert got == stable_hfk(n, qmax)

    def test_two_strand_chain_shape(self):
        c = build_stable_complex(2, 12)
        # Alternating chain: equal numbers of flagged and unflagged dots
        # inside the window, connected by single arrows.
        assert all(len(entries) >= 3 for entries in c.diffs.values())
        assert sorted(c.diffs) == [-1, 1]

    @pytest.mark.parametrize("n, qmax", [(2, 41), (3, 40), (5, 30), (7, 24)])
    def test_word_build_past_the_cap_is_refused(self, monkeypatch, n, qmax):
        # Level counts only grow, so the last one is the word total: at a cap
        # of the total the complex is built, one below it the last level is refused.
        total = len(stable._word_codes(n, qmax))
        monkeypatch.setattr(stable, "WORK_CAP", total)
        assert len(build_stable_complex(n, qmax)) == total
        monkeypatch.setattr(stable, "WORK_CAP", total - 1)
        with pytest.raises(TooLarge, match=r"^the word build through level %d at qmax %d needs "
                           r"%d words, past %d$" % (n, qmax, total, total - 1)):
            build_stable_complex(n, qmax)


def unclamped_stable_complex(n, qmax):
    """(generators, diffs) of build_stable_complex with every level 2..n built."""
    words = stable._word_codes(n, qmax)
    bits = [stable._flag_bit(qmax, pos) for pos in range(n - 1)]
    index = {code: src for src, (code, _) in enumerate(words)}
    diffs = {level: [] for level in range(1 - n, 2)}
    for code, src in index.items():
        sign = 1
        for pos, bit in enumerate(bits):
            if code & bit:
                dropped = code - bit
                diffs[-1 - pos].append((src, index[dropped], sign))
                if dropped + 2 * bit in index:
                    diffs[1].append((src, index[dropped + 2 * bit], sign))
                if pos and dropped + 2 * bits[pos - 1] in index:
                    diffs[0].append((src, index[dropped + 2 * bits[pos - 1]], sign))
                sign = -sign
    return tuple(g for _, g in words), {l: tuple(sorted(e)) for l, e in diffs.items() if e}


def unclamped_series(n, qmax):
    """(stable_super, stable_homfly) with a factor for every strand up to n."""
    sup = TruncSeries(Poly3.one(), qmax)
    for j in range(1, n):
        sup = sup * (1 + Poly3.monomial(1, 2, 2 * j, 2 * j + 1))
    for j in range(2, n + 1):
        sup = sup * geometric(Poly3.monomial(1, 0, 2 * j, 2 * j - 2), qmax)
    hom = TruncSeries(parse_poly("1 - q^2"), qmax) * geometric(Poly3.monomial(1, 0, 2 * n, 0), qmax)
    for j in range(1, n):
        hom = hom * Poly3({(0, 0, 0): 1, (2, 2 * j, 0): -1})
        hom = hom * geometric(Poly3.monomial(1, 0, 2 * j, 0), qmax)
    return sup, hom


def unclamped_beta_terms(n, which, depth):
    """stable_beta_terms with the factor of every j = 1 .. n - 1 multiplied in."""
    out = TruncSeries(Poly3.one(), depth)
    for j in range(1, n):
        if which == "first":
            numerator = 1 + Poly3.monomial(1, 2, 2 * j, 1)
        else:
            numerator = Poly3.monomial(1, 2, 0, 0) + Poly3.monomial(1, 0, 2 * j, -(2 * j + 1))
        out = out * numerator * geometric(Poly3.monomial(1, 0, 2 * (j + 1), -2 * j), depth)
    return q_inverse(out.body)


@pytest.mark.parametrize("depth", range(18))
def test_beta_strands_past_the_depth_change_nothing(depth):
    """A factor with 2j > depth truncates to 1 ('first') or to a^2 ('last'), so
    stable_beta_terms runs to k = max(2, depth // 2 + 1) and scales by a^(2(n - k))."""
    clamped = max(2, depth // 2 + 1)
    for n in range(2, clamped + 4):
        for which in ("first", "last"):
            assert stable_beta_terms(n, which, depth) == unclamped_beta_terms(n, which, depth)


@pytest.mark.parametrize("qmax", [*range(21), 40])
def test_strands_past_the_cutoff_change_nothing(qmax):
    """A level l with 2l - 2 > qmax adds only the factor 1: n is clamped to
    max(2, qmax // 2 + 1), and the label keeps the n asked for.  _check_stable
    computes the clamp, under stable_beta_terms's names as well."""
    clamped = max(2, qmax // 2 + 1)
    for n in (2, 3, 10 ** 6 + 1):
        assert stable._check_stable(n, qmax) == min(n, clamped)
        assert stable._check_stable(n, qmax, ("n", "depth")) == min(n, clamped)
    for n in range(clamped, clamped + 4):
        c = build_stable_complex(n, qmax)
        assert c.label == "stable-%d" % n
        assert (c.generators, c.diffs) == unclamped_stable_complex(n, qmax)
        assert (stable_super(n, qmax), stable_homfly(n, qmax)) == unclamped_series(n, qmax)


class TestKhr2:
    def test_two_strand_expansion(self):
        got = stable_khr2(2, 12)
        assert got.body == parse_poly(
            "1 + q^4*t^2 + q^6*t^3 + q^8*t^4 + q^10*t^5 + q^12*t^6"
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_routes_agree(self, n):
        stable_khr2(n, 40)

    def test_generic_route_matches_closed_three_strand(self):
        assert stable_khr2_generic(3, 30) == stable_khr2_closed(3, 30)

    def test_survivors_per_period_three_strand(self):
        # Four survivors per period block before the a = q^2 amalgamation.
        from superpoly.stable import _generic_survivors

        dims = _generic_survivors(3, 40)
        per_block = {}
        for (ea, eq, et), d in dims.items():
            i = et // 4 if ea == 0 else (et - 3) // 4
            per_block[i] = per_block.get(i, 0) + d
        # Count only blocks that sit fully inside the boundary margin.
        full = [i for i in per_block if 6 * i + 6 <= 30]
        assert full and all(per_block[i] == 4 for i in full)

    def test_five_strand_generic_only_runs(self):
        series = stable_khr2_generic(5, 16)
        assert series.body.coeff(0, 0, 0) == 1

    def test_five_strand_generic_past_the_old_prime_supply(self):
        # From qmax 108 a fixed list of prime coefficients used to run out
        # for five strands; the maximal-rank route draws no coefficients.
        qmax = 108
        series = stable_khr2_generic(5, qmax)
        euler = TruncSeries(at_a_qN(stable_homfly(5, qmax).body, 2), qmax)
        assert TruncSeries(at_t_minus_one(series.body), qmax) == euler

    def test_generic_route_at_tested_sizes(self):
        # Work 338,352 at (3, 2012) and 33,801 at (7, 148), the margin 4n included.
        assert stable_khr2_generic(3, 2000) == stable_khr2_closed(3, 2000)
        series = stable_khr2_generic(7, 120)
        euler = TruncSeries(at_a_qN(stable_homfly(7, 120).body, 2), 120)
        assert TruncSeries(at_t_minus_one(series.body), 120) == euler

    def test_generic_route_past_the_cap_is_refused(self, monkeypatch):
        # (3, 40): the start is 2 * 11 blocks of one word, level 3 is 7 blocks of 21.
        monkeypatch.setattr(stable, "WORK_CAP", 147)
        _generic_survivors(3, 40)
        monkeypatch.setattr(stable, "WORK_CAP", 146)
        with pytest.raises(TooLarge, match=r"^the generic level 3 at qmax 40 needs 147 block "
                           r"entries, past 146$"):
            _generic_survivors(3, 40)
        monkeypatch.setattr(stable, "WORK_CAP", 21)
        with pytest.raises(TooLarge, match=r"^the generic start at qmax 40 needs 22 block "
                           r"entries, past 21$"):
            _generic_survivors(3, 40)

    def test_unsupported_strands(self):
        with pytest.raises(ValueError):
            stable_khr2(5, 20)


# -- the earlier series and survivor routines, kept as references ------------

def reference_geometric(ratio, qmax):
    """1 + r + r^2 + ... by Poly3 products, each power truncated; r of positive q-degrees."""
    total = Poly3.one()
    power = Poly3.one()
    while True:
        power = Poly3({k: c for k, c in (power * ratio).terms.items() if k[1] <= qmax})
        if not power:
            break
        total = total + power
    return TruncSeries(total, qmax)


def reference_generic_survivors(n, qmax):
    """The generic d_2 reduction written recursively, with its own period, flag and shift."""
    if n == 2:
        return {g: 1 for _, g in stable._word_codes(2, qmax)}
    period = (0, 2 * n, 2 * n - 2)
    flag = (2, 2 * n - 2, 2 * n - 1)
    inner = reference_generic_survivors(n - 1, qmax)
    survivors = {}
    i = 0
    while i * period[1] <= qmax:
        b_block = {}
        a_block = {}
        for g, d in inner.items():
            gb = (g[0], g[1] + i * period[1], g[2] + i * period[2])
            if gb[1] <= qmax:
                b_block[gb] = b_block.get(gb, 0) + d
            ga = (gb[0] + flag[0], gb[1] + flag[1], gb[2] + flag[2])
            if ga[1] <= qmax:
                a_block[ga] = a_block.get(ga, 0) + d
        for g, da in sorted(a_block.items()):
            target = (g[0] - 2, g[1] + 4, g[2] - 1)
            db = b_block.get(target, 0)
            r = min(da, db)
            if da - r:
                survivors[g] = survivors.get(g, 0) + (da - r)
            b_block[target] = db - r
        for g, db in sorted(b_block.items()):
            if db:
                survivors[g] = survivors.get(g, 0) + db
        i += 1
    return survivors


class TestReferences:
    """The one-term geometric series and the level loop against the earlier routines."""

    RATIOS = [Poly3.monomial(c, 0, eq, et) for c in (1, -1)
              for eq, et in ((1, 0), (2, -2), (4, 2), (6, 4), (8, 6), (10, 0))]
    RATIOS += [Poly3.monomial(1, 2, 3, -5), Poly3.monomial(-1, -3, 7, 1)]

    @pytest.mark.parametrize("ratio", RATIOS, ids=str)
    def test_geometric(self, ratio):
        for qmax in range(-3, 82):
            got, want = geometric(ratio, qmax), reference_geometric(ratio, qmax)
            assert got.qmax == want.qmax == qmax
            assert list(got.body.terms.items()) == list(want.body.terms.items()), qmax

    @pytest.mark.parametrize("n", range(2, 8))
    def test_generic_survivors(self, n):
        for qmax in range(0, 82):
            got = stable._generic_survivors(n, qmax)
            want = reference_generic_survivors(n, qmax)
            assert list(got.items()) == list(want.items()), qmax

    @pytest.mark.parametrize("n", range(2, 8))
    def test_generic_series(self, n):
        # The earlier amalgamation wrote a = q^2 out by hand.
        for qmax in range(0, 82, 9):
            amalgamated = {}
            for (ea, eq, et), d in reference_generic_survivors(n, qmax + 4 * n).items():
                key = (0, 2 * ea + eq, et)
                amalgamated[key] = amalgamated.get(key, 0) + d
            got = stable_khr2_generic(n, qmax)
            want = TruncSeries(Poly3(amalgamated), qmax)
            assert list(got.body.terms.items()) == list(want.body.terms.items()), qmax


# -- the earlier generic route: consecutive primes, rank by elimination ------

PRIMES = [2]  # every prime found so far, shared by all readers


def primes_from(start):
    """The primes from the start-th on (2 is the 0th); each is found once per process."""
    for i in count(start):
        while i >= len(PRIMES):
            k = len(PRIMES)
            prime = next(c for c in count(PRIMES[k - 1] + 1)
                         if all(c % p for p in takewhile(lambda p: p * p <= c, PRIMES)))
            PRIMES[k : k + 1] = [prime]  # not append: a racing thread stores this same prime
        yield PRIMES[i]


def prime_survivors(n, qmax, deficient, seed_offset=0):
    """_generic_survivors with each d_2 block filled with consecutive primes.

    The rank of each block is taken by _eliminate; every block whose rank
    falls short of min(da, db) is appended to deficient as (n, grading,
    rows), so the caller can tell where the two routes may part.
    """
    if n == 2:
        return _generic_survivors(2, qmax)
    period = (0, 2 * n, 2 * n - 2)
    flag = (2, 2 * n - 2, 2 * n - 1)
    inner = prime_survivors(n - 1, qmax, deficient, seed_offset + 1)
    prime_iter = primes_from(seed_offset * 97)
    survivors = {}
    i = 0
    while i * period[1] <= qmax:
        b_block = {}
        a_block = {}
        for g, d in inner.items():
            gb = (g[0], g[1] + i * period[1], g[2] + i * period[2])
            if gb[1] <= qmax:
                b_block[gb] = b_block.get(gb, 0) + d
            ga = (gb[0] + flag[0], gb[1] + flag[1], gb[2] + flag[2])
            if ga[1] <= qmax:
                a_block[ga] = a_block.get(ga, 0) + d
        for g, da in sorted(a_block.items()):
            target = (g[0] - 2, g[1] + 4, g[2] - 1)
            db = b_block.get(target, 0)
            rows = [{j: next(prime_iter) for j in range(db)} for _ in range(da)]
            dense = [[row[j] for j in range(db)] for row in rows]
            r = _eliminate(rows, {})
            if r < min(da, db):
                deficient.append((n, g, dense))
            if da - r:
                survivors[g] = survivors.get(g, 0) + (da - r)
            b_block[target] = db - r
        for g, db in sorted(b_block.items()):
            if db:
                survivors[g] = survivors.get(g, 0) + db
        i += 1
    return survivors


def prime_route(monkeypatch, n, qmax):
    """(stable_khr2_generic(n, qmax) by the prime route, its rank-deficient blocks)."""
    deficient = []
    monkeypatch.setattr(stable, "_generic_survivors",
                        lambda n, qmax: prime_survivors(n, qmax, deficient))
    series = stable.stable_khr2_generic(n, qmax)
    monkeypatch.undo()
    return series, deficient


def sieve(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    is_prime = [True] * limit
    is_prime[0:2] = [False, False]
    for p in range(2, int(limit ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = [False] * len(range(p * p, limit, p))
    return [p for p in range(limit) if is_prime[p]]


class TestPrimeSupply:
    """The prime stream of the reference route above."""

    def test_first_500_primes_match_a_sieve(self):
        primes = sieve(3572)
        assert len(primes) == 500
        assert list(islice(primes_from(0), 500)) == primes
        assert list(islice(primes_from(97), 200)) == primes[97:297]

    def test_threads_growing_the_list_agree(self):
        base = len(PRIMES)
        want = sieve(20 * (base + 2000))[base : base + 2000]
        results = []

        def read():
            results.append(list(islice(primes_from(base), 2000)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 6
        assert PRIMES[base : base + 2000] == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_generic_route_at_qmax_40(self, monkeypatch, n):
        qmax = 40
        series = stable_khr2_generic(n, qmax)
        if n == 4:
            assert series == stable_khr2_closed(4, qmax)
        euler = TruncSeries(at_a_qN(stable_homfly(n, qmax).body, 2), qmax)
        assert TruncSeries(at_t_minus_one(series.body), qmax) == euler
        # Reading far past what the prime route needs must not change it.
        next(islice(primes_from(5000), 1))
        assert prime_route(monkeypatch, n, qmax) == (series, [])


class TestMaximalRank:
    @pytest.mark.parametrize("n, qmax", [(3, 200), (4, 300), (5, 100), (6, 108)])
    def test_prime_route_agrees_where_its_blocks_have_full_rank(self, monkeypatch, n, qmax):
        assert prime_route(monkeypatch, n, qmax) == (stable_khr2_generic(n, qmax), [])

    def test_prime_route_is_wrong_at_seven_strands(self, monkeypatch):
        # Consecutive primes are not generic: two of the 3 x 3 blocks drawn
        # for (7, 120) are singular, and the prime route's output leaves
        # maximal rank at two terms whose errors cancel at t = -1.
        series, deficient = prime_route(monkeypatch, 7, 120)
        singular = [[4073, 4079, 4091], [4093, 4099, 4111], [4127, 4129, 4133]]
        assert singular in [rows for (_, _, rows) in deficient]
        assert [rows[0][0] for (_, _, rows) in deficient] == [4073, 238657]
        want = stable_khr2_generic(7, 120)
        assert want.body.coeff(0, 110, 84) == 1 and series.body.coeff(0, 110, 84) == 2
        assert want.body.coeff(0, 110, 86) == 29 and series.body.coeff(0, 110, 86) == 28
        wrong = {k for k in set(series.body.terms) | set(want.body.terms)
                 if series.body.terms.get(k) != want.body.terms.get(k)}
        assert wrong == {(0, 110, 84), (0, 110, 86)}
        assert at_t_minus_one(series.body) == at_t_minus_one(want.body)

    def test_singular_block_can_fall_outside_the_cutoff(self, monkeypatch):
        # (8, 60) also draws a singular block, but past the cutoff.
        series, deficient = prime_route(monkeypatch, 8, 60)
        assert deficient
        assert series == stable_khr2_generic(8, 60)


class TestWindows:
    def test_super_window_trefoil(self):
        assert finite_vs_stable(2, 3, "super") >= 4

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13, 15])
    def test_khr2_window_two_strand(self, m):
        assert finite_vs_stable(2, m, "khr2") >= 2 * m

    @pytest.mark.parametrize("m", [4, 5, 7, 8, 10, 11])
    def test_khr2_window_three_strand(self, m):
        assert finite_vs_stable(3, m, "khr2") >= 2 * m

    def test_windows_are_finite(self):
        # The finite polynomial eventually stops, so the window is bounded.
        assert finite_vs_stable(2, 3, "khr2") <= 30

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            finite_vs_stable(2, 3, "alexander")
