"""Complex axioms, homology engine, constructions, serialization."""

import functools
import os
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import sign_solve
from block_homology import block_s_invariant, block_survivor, reference_block_homology
from sign_solve import _sign_equations, _solve_signs, unsigned_arrows
from tuple_walk import tuple_composites
from superpoly import complexes
from superpoly.laurent import Poly3, at_a_qN, delta_spectrum, format_poly, parse_poly, y_genus
from superpoly.complexes import (
    ComplexError,
    ComplexParseError,
    DotComplex,
    GradingMismatch,
    NotCanceling,
    SignLevel,
    VerifyReport,
    _bad_degrees,
    _bigrade,
    _eliminate,
    _int_level,
    _nonzero_composites,
    build_thin_complex,
    build_torus_complex,
    deserialize_complex,
    diff_degree,
    homology,
    mirror_complex,
    s_invariant,
    serialize_complex,
    verify,
)
from superpoly.dataset import load_dataset
from superpoly.stable import build_stable_complex
from superpoly.structchecks import thin_super
from superpoly.torus import (
    cp0_t3_closed,
    hfk_t2,
    khr2_t3_closed,
    super_t2,
    super_t3,
)


GEN_LINES = st.builds(
    "gen {} {} {} {}".format,
    st.integers(-1, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
)
DIFF_LINES = st.builds(
    "diff {} {} {} {}/{}".format,
    st.integers(-2, 2), st.integers(-1, 4), st.integers(-1, 4), st.integers(-2, 2),
    st.integers(-1, 3),
)
GARBAGE_LINES = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "gen", "diff", "gen 0 x 0 0", "gen 0 0 0 0 0", "diff 1 0 1 a/b", "diff 1 0 1 1/2/3",
        "diff 1 0 1", "edge 0 1", "# comment", "", "gen 0 0 0 0 # tail",
    ]),
)


def trefoil_complex():
    return build_torus_complex(2, 3)


class TestVerify:
    def test_trefoil_passes_and_is_thin(self):
        report = verify(trefoil_complex())
        assert report.ok
        assert report.thin and report.delta_histogram == {-2: 3}

    def test_t34_five_differentials(self):
        c = build_torus_complex(3, 4)
        assert sorted(c.diffs) == [-2, -1, 0, 1, 2]
        assert verify(c).ok

    @pytest.mark.parametrize("max_eq", ["3", 2.5, 3.0, True],
                             ids=["str", "float", "whole float", "bool"])
    def test_non_int_max_eq_is_a_type_error(self, max_eq):
        pattern = "^max_eq must be an int or None, got %s$" % re.escape(repr(max_eq))
        with pytest.raises(TypeError, match=pattern):
            verify(build_stable_complex(4, 20), max_eq)

    def test_bad_grading_reported(self):
        c = DotComplex([(2, 0, 1), (0, 4, 0)], {1: [(0, 1, 1)]})
        report = verify(c)
        assert not report.ok
        assert any("degree" in v for v in report.violations)

    def test_broken_square_reported(self):
        gens = [(4, 0, 2), (2, 2, 1), (0, 4, 0)]
        c = DotComplex(gens, {1: [(0, 1, 1), (1, 2, 1)]})
        report = verify(c)
        assert any("squared" in v for v in report.violations)

    def test_anticommutator_reported(self):
        # A four-generator square: top, its two images, and the corner.
        gens = [(2, 0, 2), (0, 2, 1), (0, -2, -1), (-2, 0, -2)]
        diffs = {1: [(0, 1, 1), (2, 3, 1)], -1: [(0, 2, 1), (1, 3, 1)]}
        report = verify(DotComplex(gens, diffs))
        assert any("anticommute" in v for v in report.violations)
        diffs_ok = {1: [(0, 1, 1), (2, 3, 1)], -1: [(0, 2, 1), (1, 3, -1)]}
        assert verify(DotComplex(gens, diffs_ok)).ok

    def test_one_fail_line_per_violation(self):
        # A whole complex that is not q-symmetric: a lone q^2 generator.
        report = verify(DotComplex([(0, 2, 0)], {}))
        assert len(report.violations) == 1
        fails = [line for line in report.lines() if line.startswith("FAIL")]
        assert fails == ["FAIL %s" % report.violations[0]]


# -- the length-two path walk against the per-pair references ---------------

def reference_adjacency(entries):
    """Sparse entries regrouped by source: {src: [(dst, coeff), ...]}."""
    by_src = {}
    for (s, d, c) in entries:
        by_src.setdefault(s, []).append((d, c))
    return by_src


def reference_composites(orders, sources):
    """Sum of sparse products from the given sources; {(src, dst): coeff}.

    orders: (inner, outer) pairs of adjacencies; each contributes outer
    applied after inner.  Only nonzero entries of the sum are returned.
    This is the walk verify and homology made once per pair of levels.
    """
    out = {}
    for s in sources:
        row = {}
        for (inner, outer) in orders:
            for (mid, c) in inner.get(s, ()):
                for (d, c2) in outer.get(mid, ()):
                    row[d] = row.get(d, 0) + c * c2
        for d, val in row.items():
            if val:
                out[(s, d)] = val
    return out


def reference_verify(c, max_eq=None):
    """verify() composing every pair of levels on its own, over every source."""
    gens = c.generators
    violations = [v for n in sorted(c.diffs) for v in _bad_degrees(c, n)]
    levels = sorted(c.diffs)
    adj = {n: reference_adjacency(c.diffs[n]) for n in levels}
    for i, n in enumerate(levels):
        for m in levels[i:]:
            orders = [(adj[n], adj[m])] if m == n else [(adj[n], adj[m]), (adj[m], adj[n])]
            sources = [
                s for s in adj[n].keys() | adj[m].keys()
                if max_eq is None or gens[s][1] <= max_eq
            ]
            for (s, d) in sorted(reference_composites(orders, sources)):
                if n == m:
                    violations.append("d_%d squared is nonzero on %d -> %d" % (n, s, d))
                else:
                    violations.append(
                        "d_%d and d_%d fail to anticommute on %d -> %d" % (n, m, s, d)
                    )
    g_max = y_genus(c.poincare())
    if g_max is None and max_eq is None:
        violations.append("Poincare polynomial not expressible in a, t, y")
    hist = delta_spectrum(c.poincare())
    return VerifyReport(violations, hist, len(hist) <= 1, g_max, g_max is not None)


def reference_square_error(c, n):
    """The text homology raises for a d_N with nonzero square, or None."""
    adj = reference_adjacency(c.diffs.get(n, []))
    bad = reference_composites([(adj, adj)], adj)
    return "d_%d squared is nonzero on %d -> %d" % (n, *min(bad)) if bad else None


PATH_COEFFS = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])


@st.composite
def path_complexes(draw):
    """Up to seven generators with random arrows, self-loops included, on up to four levels."""
    size = draw(st.integers(1, 7))
    grading = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    gens = draw(st.lists(grading, min_size=size, max_size=size))
    index = st.integers(0, size - 1)
    level = st.dictionaries(st.tuples(index, index), PATH_COEFFS, max_size=10)
    diffs = draw(st.dictionaries(st.integers(-2, 2), level, max_size=4))
    return DotComplex(gens, {n: [(s, d, v) for (s, d), v in e.items()] for n, e in diffs.items()})


@st.composite
def layered_complexes(draw):
    """(complex, N): layers j = 0, 1, ... at grading j * diff_degree(N), d_N arrows j -> j + 1.

    Every arrow respects the amalgamated grading, so homology either raises
    for a nonzero d_N^2 or returns dimensions.
    """
    n = draw(st.sampled_from([0, 1, 2]))
    gens, layers = [], []
    for j, size in enumerate(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))):
        layers.append(list(range(len(gens), len(gens) + size)))
        gens += [tuple(j * x for x in diff_degree(n))] * size
    entries = []
    for upper, lower in zip(layers, layers[1:]):
        pairs = st.tuples(st.sampled_from(upper), st.sampled_from(lower))
        drawn = draw(st.dictionaries(pairs, PATH_COEFFS, max_size=5))
        entries += [(s, d, v) for (s, d), v in drawn.items()]
    return DotComplex(gens, {n: entries}), n


class TestPathWalk:
    @given(path_complexes(), st.one_of(st.none(), st.integers(-3, 3)))
    @settings(max_examples=400, deadline=None)
    def test_verify_matches_per_pair_reference(self, c, max_eq):
        report = verify(c, max_eq)
        want = reference_verify(c, max_eq)
        assert report.violations == want.violations
        assert report.lines() == want.lines()

    @given(layered_complexes())
    @settings(max_examples=300, deadline=None)
    def test_square_error_matches_per_pair_reference(self, case):
        c, n = case
        want = reference_square_error(c, n)
        try:
            dims = homology(c, n).dims
        except ComplexError as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert dims == reference_dims(c, n)

    def test_built_complexes_match_per_pair_reference(self):
        for c in [build_torus_complex(3, 31), *_sign_cases()]:
            assert verify(c).lines() == reference_verify(c).lines(), c.label
            for n in (0, 1, 2):
                assert reference_square_error(c, n) is None
                assert homology(c, n).dims == reference_dims(c, n), c.label


class TestHomology:
    def test_trefoil_reductions(self):
        c = trefoil_complex()
        assert homology(c, 1).poincare == Poly3.one()
        assert homology(c, 2).poincare == parse_poly("q^2 + q^6*t^2 + q^8*t^3")
        assert homology(c, 0).poincare == parse_poly("q^-2*t^-2 + t^-1 + q^2")
        assert homology(c, 5).poincare == at_a_qN(c.poincare(), 5)

    def test_empty_complex(self):
        empty = DotComplex([], {})
        assert empty.poincare() == Poly3.zero()
        assert homology(empty, 2).poincare == Poly3.zero()

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            homology(trefoil_complex(), -1)

    @pytest.mark.parametrize("n", [2.0, True, "1", None], ids=["float", "bool", "str", "None"])
    def test_non_int_level_is_a_type_error(self, n):
        with pytest.raises(TypeError, match="^n must be an int, got %s$" % re.escape(repr(n))):
            homology(trefoil_complex(), n)

    def test_grading_mismatch_detected(self):
        c = DotComplex([(2, 0, 1), (0, 4, 0)], {1: [(0, 1, 1)]})
        with pytest.raises(GradingMismatch):
            homology(c, 1)

    def test_nonzero_square_raises(self):
        # d_1^2 != 0 on a three-generator chain would give dimension -1.
        c = DotComplex([(4, 0, 2), (2, 2, 1), (0, 4, 0)], {1: [(0, 1, 1), (1, 2, 1)]})
        with pytest.raises(ComplexError, match="d_1 squared is nonzero on 0 -> 2"):
            homology(c, 1)

    def test_nonzero_square_with_nonnegative_dims_raises(self):
        # Every block dimension stays >= 0 here, so only the d_N^2 check
        # can tell that this is not a complex.
        c = DotComplex(
            [(4, 0, 2), (2, 2, 1), (2, 2, 1), (0, 4, 0)], {1: [(0, 1, 1), (1, 3, 1)]}
        )
        with pytest.raises(ComplexError, match="d_1 squared is nonzero on 0 -> 3"):
            homology(c, 1)
        with pytest.raises(ComplexError, match="d_1 squared is nonzero on 0 -> 3"):
            reference_unblocked_dims(c, 1)

    def test_thin_dimension_correspondence(self):
        # With no level-2 or level-0 arrows both reductions keep everything.
        c = build_thin_complex(0, Poly3.monomial(1, 2, 0, 2))
        n = len(c)
        assert homology(c, 0).total_dim == n
        assert homology(c, 2).total_dim == n


def random_valid_complex(rng):
    """A random graded complex with d_N^2 = 0, at most 12 generators.

    Starts from a chain of arrow-disjoint matched pairs in admissible
    gradings (so the square vanishes trivially), then conjugates by a
    random invertible change of basis inside repeated-grading groups,
    which fills in dense entries without breaking any axiom.
    """
    n_level = rng.choice([0, 1, 1, 2, 3])
    from superpoly.complexes import diff_degree

    deg = diff_degree(n_level)
    spots = []
    gens = []
    for _ in range(rng.randrange(3, 7)):
        base = (
            2 * rng.randrange(-2, 3),
            2 * rng.randrange(-3, 4),
            rng.randrange(-3, 4),
        )
        mult = rng.randrange(1, 3)
        for _ in range(mult):
            if len(gens) < 12:
                gens.append(base)
    pairs = []
    used = set()
    order = list(range(len(gens)))
    rng.shuffle(order)
    for s in order:
        if s in used:
            continue
        target_grading = tuple(gens[s][i] + deg[i] for i in range(3))
        choices = [
            d
            for d in order
            if d not in used and d != s and gens[d] == target_grading
        ]
        if choices and rng.random() < 0.8:
            d = choices[0]
            pairs.append((s, d))
            used.add(s)
            used.add(d)
    entries = [(s, d, Fraction(rng.choice([1, -1, 2]))) for (s, d) in pairs]
    c = DotComplex(gens, {n_level: entries})
    # Conjugate by a block change of basis on identical gradings.
    groups = {}
    for i, g in enumerate(gens):
        groups.setdefault(g, []).append(i)
    basis = {i: {i: Fraction(1)} for i in range(len(gens))}
    inverse = {i: {i: Fraction(1)} for i in range(len(gens))}
    for idxs in groups.values():
        if len(idxs) < 2 or rng.random() < 0.3:
            continue
        a, b = idxs[0], idxs[1]
        lam = Fraction(rng.choice([1, -1, 2, 3]))
        # Elementary shear e_a -> e_a + lam e_b preserves the grading.
        basis[a] = {a: Fraction(1), b: lam}
        inverse[a] = {a: Fraction(1), b: -lam}
    matrix = {}
    for (s, d, coeff) in entries:
        for s2, cs in inverse[s].items():
            for d2, cd in basis[d].items():
                key = (s2, d2)
                matrix[key] = matrix.get(key, 0) + coeff * cs * cd
    conj = [(s, d, coeff) for (s, d), coeff in matrix.items() if coeff]
    return DotComplex(gens, {n_level: conj}), n_level


class TestHomologyOracle:
    def test_blocked_equals_brute_force(self):
        rng = random.Random(20210622)
        for _ in range(120):
            c, n_level = random_valid_complex(rng)
            if n_level < 0:
                continue
            report = verify(c)
            # Random gradings are not mirror-symmetric; only the axioms
            # touching the differential must hold.
            structural = [
                v for v in report.violations if "expressible" not in v
            ]
            assert not structural, structural
            blocked = homology(c, n_level).dims
            brute = reference_unblocked_dims(c, n_level)
            merged = {}
            for (p, k), dim in blocked.items():
                merged[k] = merged.get(k, 0) + dim
            assert merged == brute


class TestSInvariant:
    def test_torus_values(self):
        assert s_invariant(trefoil_complex()) == 2
        assert s_invariant(build_torus_complex(3, 4)) == 6

    def test_unknot(self):
        assert s_invariant(DotComplex([(0, 0, 0)], {})) == 0

    def test_not_canceling(self):
        c = DotComplex([(0, 0, 0), (4, -4, 0)], {})
        with pytest.raises(NotCanceling):
            s_invariant(c)


class TestConstructions:
    @pytest.mark.parametrize("m", [4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 31])
    def test_t3_family(self, m):
        c = build_torus_complex(3, m)
        assert verify(c).ok
        assert c.poincare() == super_t3(m)
        assert homology(c, 1).poincare == Poly3.one()
        assert homology(c, 2).poincare == khr2_t3_closed(m)
        assert homology(c, 0).poincare == cp0_t3_closed(m)
        assert s_invariant(c) == 2 * (m - 1)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_t2_family(self, k):
        c = build_torus_complex(2, 2 * k + 1)
        assert verify(c).ok
        assert c.poincare() == super_t2(k)
        assert homology(c, 0).poincare == hfk_t2(k)
        assert s_invariant(c) == 2 * k

    def test_mirror(self):
        c = mirror_complex(build_torus_complex(3, 5), label="positive (3,5)")
        assert verify(c).ok
        assert s_invariant(c) == -8

    def test_thin_builder_negative_sawtooth(self):
        c = build_thin_complex(-2, Poly3.zero())
        assert verify(c).ok
        assert s_invariant(c) == -4

    def test_unsupported_strands(self):
        with pytest.raises(ValueError):
            build_torus_complex(4, 5)


class TestSerialization:
    def test_round_trip(self):
        c = build_torus_complex(3, 4)
        text = serialize_complex(c)
        back = deserialize_complex(text)
        assert back.generators == c.generators
        assert back.diffs == c.diffs
        assert verify(back).ok

    def test_trefoil_file_shape(self):
        text = serialize_complex(trefoil_complex())
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert sum(1 for l in lines if l.startswith("gen ")) == 3
        assert sum(1 for l in lines if l.startswith("diff ")) == 2

    def test_dangling_index(self):
        with pytest.raises(ComplexParseError, match="d_1 entry 0 -> 5") as err:
            deserialize_complex("gen 0 0 0 0\ndiff 1 0 5 1/1\n")
        assert err.value.line == 2

    def test_sparse_ids_rejected(self):
        with pytest.raises(ComplexParseError):
            deserialize_complex("gen 0 0 0 0\ngen 2 0 0 0\n")

    def test_duplicate_edge_rejected(self):
        text = "gen 0 2 0 1\ngen 1 0 2 0\ndiff 1 0 1 1/1\ndiff 1 0 1 2/1\n"
        with pytest.raises(ComplexParseError, match="d_1 entry 0 -> 1") as err:
            deserialize_complex(text)
        assert err.value.line == 4

    def test_bad_denominator(self):
        with pytest.raises(ComplexParseError):
            deserialize_complex("gen 0 0 0 0\ngen 1 -2 2 -1\ndiff 1 0 1 1/0\n")

    @pytest.mark.parametrize(
        "record",
        ["gen \u0660 2 0 1", "gen 1 0 \uff12 0", "diff 1 0 1 1_0/1", "diff 1 0 1 3/",
         "diff \u0661 0 1 1/1", "diff 1 0 1 1/\u0661", "gen 1 +0 -2 0x1"],
        ids=["Arabic-Indic id", "fullwidth eq", "underscore", "empty denominator",
             "non-ASCII level", "non-ASCII denominator", "hex grading"],
    )
    def test_numbers_are_ascii_only(self, record):
        with pytest.raises(ComplexParseError, match="must be integers") as err:
            deserialize_complex("gen 0 2 0 1\n" + record + "\n")
        assert err.value.line == 2

    def test_signed_ascii_numbers_parse(self):
        c = deserialize_complex("gen +0 2 0 1\ngen 1 -0 +2 0\ndiff +1 0 1 -3/+2\n")
        assert c.generators == ((2, 0, 1), (0, 2, 0))
        assert c.diffs == {1: ((0, 1, Fraction(-3, 2)),)}

    def test_comments_and_blanks(self):
        text = "# hello\n\ngen 0 0 0 0  # inline\n"
        c = deserialize_complex(text)
        assert len(c) == 1

    @given(st.lists(st.one_of(GEN_LINES, DIFF_LINES, GARBAGE_LINES), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_parses_or_names_a_line(self, lines):
        text = "\n".join(lines)
        try:
            c = deserialize_complex(text)
        except ComplexParseError as exc:
            assert 1 <= exc.line <= len(text.splitlines())
            return
        back = deserialize_complex(serialize_complex(c))
        assert back.generators == c.generators
        assert back.diffs == c.diffs


# -- the constructor as the one validation boundary --------------------------

def reference_dot_complex(generators, diffs):
    """The set-based constructor: (generators, {N: sorted entries}) or ComplexError.

    Independent reference for the DotComplex constructor on int-typed
    input.  It drops a zero entry before any check, whereas the
    constructor checks zero entries too (see zero_entry_at_fault).
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    out = {}
    for n, entries in diffs.items():
        seen = set()
        cleaned = []
        for (src, dst, coeff) in entries:
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff == 0:
                continue
            if not (0 <= src < len(gens)):
                raise ComplexError("source index %d out of range" % src)
            if not (0 <= dst < len(gens)):
                raise ComplexError("target index %d out of range" % dst)
            if (src, dst) in seen:
                raise ComplexError("duplicate entry (%d, %d) in d_%d" % (src, dst, n))
            seen.add((src, dst))
            cleaned.append((src, dst, coeff))
        if cleaned:
            out[int(n)] = sorted(cleaned)
    return gens, out


def faulty_entries(generators, diffs):
    """The (N, src, dst) entries that are out of range or given twice in their level."""
    size = len(generators)
    faults = set()
    for n, entries in diffs.items():
        pairs = [(s, d) for (s, d, _) in entries]
        for (s, d) in pairs:
            if not (0 <= s < size and 0 <= d < size) or pairs.count((s, d)) > 1:
                faults.add((n, s, d))
    return faults


def zero_entry_at_fault(generators, diffs):
    """Whether some entry with coefficient 0 is out of range or given twice."""
    faults = faulty_entries(generators, diffs)
    return any(
        (n, s, d) in faults and coeff == 0
        for n, entries in diffs.items() for (s, d, coeff) in entries
    )


@st.composite
def raw_complexes(draw):
    """Int-typed generators and entries, with duplicates, zeros and bad indices."""
    grading = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    gens = draw(st.lists(grading, max_size=5))
    index = st.integers(-1, len(gens))
    coeff = st.one_of(
        st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)])
    )
    level = st.lists(st.tuples(index, index, coeff), max_size=6)
    return gens, draw(st.dictionaries(st.integers(-2, 2), level, max_size=3))


TWO_GENS = [(2, 0, 1), (0, 2, 0)]


class TestConstructorBoundary:
    @given(raw_complexes())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_set_based_reference(self, case):
        gens, diffs = case
        try:
            want = reference_dot_complex(gens, diffs)
        except ComplexError:
            want = None
        try:
            c = DotComplex(gens, diffs)
            got = (list(c.generators), {n: list(e) for n, e in c.diffs.items()})
        except ComplexError as exc:
            assert exc.entry in faulty_entries(gens, diffs)
            got = None
        if got is None and want is not None:
            # The one stated difference: a zero entry is checked, then dropped.
            assert zero_entry_at_fault(gens, diffs)
        else:
            assert got == want
            if got is not None:
                types = {n: [type(x[2]) for x in e] for n, e in got[1].items()}
                assert types == {n: [type(x[2]) for x in e] for n, e in want[1].items()}

    @pytest.mark.parametrize(
        "gens, diffs",
        [
            ([(1.5, 0, 0)], {}),
            ([(0, 0)], {}),
            (TWO_GENS, {1.5: [(0, 1, 1)]}),
            (TWO_GENS, {1: [(0, 1, 0.1)]}),
            (TWO_GENS, {1: [(0, 1, "1/2")]}),
            (TWO_GENS, {1: [(0.0, 1, 1)]}),
        ],
        ids=["float grading", "2-tuple grading", "float level", "float coefficient",
             "string coefficient", "float index"],
    )
    def test_non_int_input_is_a_type_error(self, gens, diffs):
        with pytest.raises(TypeError):
            DotComplex(gens, diffs)

    def test_faults_name_their_entry(self):
        with pytest.raises(ComplexError, match="d_1 entry 0 -> 5 ") as err:
            DotComplex(TWO_GENS, {1: [(0, 5, 1)]})
        assert err.value.entry == (1, 0, 5)
        with pytest.raises(ComplexError, match="d_-1 entry 0 -> 1 ") as err:
            DotComplex(TWO_GENS, {-1: [(0, 1, 1), (0, 1, 0)]})
        assert err.value.entry == (-1, 0, 1)

    @pytest.mark.parametrize(
        "entry", [(0, 0), (0, 0, 1, 1), 5, None], ids=["pair", "quadruple", "int", "None"]
    )
    def test_non_triple_entry_is_a_type_error_naming_it(self, entry):
        with pytest.raises(TypeError, match=r"d_0 entry %s is not a \(src, dst, coefficient\)"
                           % re.escape(repr(entry))):
            DotComplex([(0, 0, 0)], {0: [entry]})

    @pytest.mark.parametrize("diffs", [[(0, 0, 1)], [], "d_1"], ids=["list", "empty list", "str"])
    def test_non_dict_diffs_is_a_type_error(self, diffs):
        with pytest.raises(TypeError, match="diffs must be a dict of levels, got %s"
                           % type(diffs).__name__):
            DotComplex([(0, 0, 0)], diffs)

    def test_zero_entries_are_checked_then_dropped(self):
        with pytest.raises(ComplexError):
            DotComplex(TWO_GENS, {1: [(0, 9, 0)]})
        assert DotComplex(TWO_GENS, {1: [(0, 1, 0)]}).diffs == {}

    def test_generators_are_tuples_and_levels_laid_out_by_coefficient(self):
        for c in (build_torus_complex(3, 4), DotComplex([[0, 0, 0]], {0: [[0, 0, 1]]})):
            assert type(c.generators) is tuple
            assert all(type(g) is tuple for g in c.generators)
            assert all(type(e) is SignLevel for e in c.diffs.values())
        c = DotComplex(TWO_GENS, {1: [(0, 1, 2)], 0: [(0, 1, Fraction(1, 2))], -1: [(0, 1, -1)]})
        assert [type(c.diffs[n]) for n in (1, 0, -1)] == [tuple, tuple, SignLevel]


def built_complexes():
    """Outputs of every in-package builder that assembles its complex with DotComplex._trusted."""
    for n in range(2, 7):
        for qmax in (0, 5, 24, 40):
            yield build_stable_complex(n, qmax)
    for m in range(3, 24, 2):
        yield build_torus_complex(2, m)
    for m in range(4, 62):
        if m % 3:
            yield build_torus_complex(3, m)
    for rec in load_dataset():
        if rec.superpoly is not None and len(delta_spectrum(rec.superpoly)) == 1:
            thin = thin_super(rec.homfly, rec.s_inv)
            c = build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)
            yield c
            yield mirror_complex(c, label="mirror " + rec.name)
    for c in (build_stable_complex(4, 24), build_torus_complex(3, 31), trefoil_complex()):
        yield mirror_complex(c)


class TestTrustedBuilders:
    def test_fields_equal_the_checking_constructor(self):
        for c in built_complexes():
            checked = DotComplex(c.generators, c.diffs, c.label)
            # repr tells tuples from lists and ints from Fractions, and keeps level order.
            assert repr(c.generators) == repr(checked.generators), c.label
            assert repr(c.diffs) == repr(checked.diffs), c.label
            assert c.label == checked.label

    def test_every_square_vanishes(self):
        for c in built_complexes():
            for n in c.diffs:
                assert _nonzero_composites(c, [n]) == [], (c.label, n)


def tampered_square(c, n):
    """c.diffs[n] with the sign of its first entry that d_N^2 = 0 depends on flipped."""
    level = c.diffs[n]
    for k, (s, d, coeff) in enumerate(level):
        flipped = level[:k] + ((s, d, -coeff),) + level[k + 1:]
        if reference_square_error(DotComplex(c.generators, {n: flipped}), n):
            return flipped
    raise AssertionError("no entry of d_%d takes part in a square" % n)


class TestVerifyRecord:
    def test_recorded_levels_skip_the_checks(self, monkeypatch):
        walked = []
        walk = complexes._nonzero_composites

        def counted(c, levels, *rest):
            walked.append(levels)
            return walk(c, levels, *rest)

        monkeypatch.setattr(complexes, "_nonzero_composites", counted)
        c = build_stable_complex(4, 30)
        before = [homology(c, n).dims for n in (0, 1)]
        assert walked == [[0], [1]]
        assert verify(c, max_eq=30 - 8).ok
        assert sorted(c._verified) == sorted(c.diffs)
        walked.clear()
        assert [homology(c, n).dims for n in (0, 1)] == before
        assert walked == []

    def test_boundary_square_fault_is_not_recorded(self):
        # A square fault past max_eq is not reported, but still keeps its
        # level out of the record, so homology finds it.
        c = DotComplex([(4, 0, 2), (2, 2, 1), (0, 4, 0)], {1: [(0, 1, 1), (1, 2, 1)]})
        assert verify(c, max_eq=-1).violations == []
        assert 1 not in c._verified
        with pytest.raises(ComplexError, match="d_1 squared is nonzero on 0 -> 2"):
            homology(c, 1)

    @pytest.mark.parametrize("build, n", [
        (lambda: build_stable_complex(4, 30), 1),
        (lambda: build_stable_complex(5, 24), 0),
        (lambda: build_torus_complex(3, 7), 1),
    ], ids=["stable(4,30) d_1", "stable(5,24) d_0", "T(3,7) d_1"])
    def test_replaced_level_is_checked_again(self, build, n):
        c = build()
        verify(c, max_eq=10)
        assert n in c._verified
        c.diffs[n] = tampered_square(c, n)
        want = reference_square_error(c, n)
        with pytest.raises(ComplexError, match="^%s$" % want):
            homology(c, n)

    def test_replaced_generators_are_checked_again(self):
        c = build_torus_complex(3, 7)
        s, _, _ = c.diffs[1][0]
        gens = list(c.generators)
        gens[s] = (gens[s][0], gens[s][1] + 2, gens[s][2])
        c.generators = tuple(gens)
        with pytest.raises(GradingMismatch, match="d_1 entry %d->" % s):
            homology(c, 1)

    def test_unverified_complex_gets_every_check(self):
        c = build_stable_complex(4, 30)
        assert c._verified == {}
        c.diffs[1] = tampered_square(c, 1)
        with pytest.raises(ComplexError, match="^%s$" % reference_square_error(c, 1)):
            homology(c, 1)
        c = DotComplex([(2, 0, 1), (0, 4, 0)], {1: [(0, 1, 1)]})
        with pytest.raises(GradingMismatch):
            homology(c, 1)


def reference_solve_signs(arrows):
    """The list-scan GF(2) sign solve: every row is reduced by every earlier one.

    Independent reference for sign_solve._solve_signs: each kept row pivots
    on its greatest index, and back-substitution runs up from the least
    pivot.  The equations come pair of levels by pair of levels, not in
    _sign_equations' order; both must return the same signs.
    """
    edges = []
    edge_index = {}
    for n in sorted(arrows):
        for (s, d) in sorted(arrows[n]):
            edge_index[(n, s, d)] = len(edges)
            edges.append((n, s, d))
    levels = sorted(arrows)
    by_src = {n: {} for n in levels}
    for n in levels:
        for (s, d) in arrows[n]:
            by_src[n].setdefault(s, []).append(d)
    equations = []
    for i, n in enumerate(levels):
        for m in levels[i:]:
            paths = {}
            for (first, second) in ((n, m), (m, n)) if m != n else ((n, n),):
                for (s, mid) in arrows[first]:
                    for d in by_src[second].get(mid, []):
                        paths.setdefault((s, d), []).append(
                            (edge_index[(first, s, mid)], edge_index[(second, mid, d)])
                        )
            for (s, d), plist in sorted(paths.items()):
                assert len(plist) == 2, (n, m, s, d)
                row = set()
                for e in plist[0] + plist[1]:
                    row ^= {e}
                equations.append((row, 1))
    reduced = []
    for (r, rhs) in equations:
        r = set(r)
        for (pr, prhs, pivot) in reduced:
            if pivot in r:
                r ^= pr
                rhs ^= prhs
        if r:
            reduced.append((r, rhs, max(r)))
        else:
            assert not rhs
    values = [0] * len(edges)
    for (r, rhs, pivot) in sorted(reduced, key=lambda x: x[2]):
        for e in r - {pivot}:
            rhs ^= values[e]
        values[pivot] = rhs
    return {edge: -1 if values[i] else 1 for i, edge in enumerate(edges)}


def _sign_cases():
    for k in range(1, 6):
        yield build_torus_complex(2, 2 * k + 1)
    for m in range(4, 32):
        if m % 3:
            yield build_torus_complex(3, m)
    for rec in load_dataset():
        if rec.superpoly is not None and len(delta_spectrum(rec.superpoly)) == 1:
            thin = thin_super(rec.homfly, rec.s_inv)
            yield build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)


def edge_indices(arrows):
    """(by_src, nvars): {N: {src: [(dst, edge index), ...]}} with edges numbered level by level."""
    by_src = {}
    nvars = 0
    for n in sorted(arrows):
        by_src[n] = {}
        for (s, d) in sorted(arrows[n]):
            by_src[n].setdefault(s, []).append((d, nvars))
            nvars += 1
    return by_src, nvars


def reference_sign_equations(by_src):
    """The GF(2) equations generated pair of levels by pair of levels.

    Each pair rescans every source of its two levels, and the first faulty
    (source, target) of the first pair with a fault raises at once.
    """
    levels = sorted(by_src)
    for i, n in enumerate(levels):
        for m in levels[i:]:
            orders = ((n, m), (m, n)) if m != n else ((n, n),)
            for s in sorted(set(by_src[n]) | set(by_src[m])):
                paths = {}
                for (first, second) in orders:
                    for (mid, e1) in by_src[first].get(s, []):
                        for (d, e2) in by_src[second].get(mid, []):
                            paths.setdefault(d, []).append((e1, e2))
                for d, plist in sorted(paths.items()):
                    if len(plist) == 1:
                        raise ComplexError(
                            "unpairable composite d_%d/d_%d path %d -> %d" % (n, m, s, d)
                        )
                    if len(plist) > 2:
                        raise ComplexError(
                            "more than two parallel composites %d -> %d; "
                            "the +-1 sign rule does not apply" % (s, d)
                        )
                    (a1, a2), (b1, b2) = plist
                    row = set()
                    for e in (a1, a2, b1, b2):
                        if e in row:
                            row.remove(e)
                        else:
                            row.add(e)
                    yield tuple(row)


def least_index_solve_signs(arrows, sign_equations=reference_sign_equations):
    """The former sign rule: rows pivot on their least index.

    Its solution is the least one read from the last edge downward, where
    _solve_signs' is the least read from edge 0 upward.  Both are valid
    signs and must raise the same errors.  The equations come from the
    per-pair reference walk unless given.
    """
    by_src, nvars = edge_indices(arrows)
    rows = {}
    for r in sign_equations(by_src):
        r = set(r) | {nvars}
        pivot = min(r)
        while pivot in rows:
            r = r.symmetric_difference(rows[pivot])
            pivot = min(r, default=nvars)
        if pivot == nvars:
            if r:
                raise ComplexError("sign constraints are inconsistent")
            continue
        rows[pivot] = tuple(r)
    values = [0] * nvars + [1]
    for pivot in sorted(rows, reverse=True):
        values[pivot] = sum(values[e] for e in rows[pivot] if e != pivot) % 2
    signs = {}
    start = 0
    for n in sorted(arrows):
        stop = start + len(arrows[n])
        signs[n] = [-1 if v else 1 for v in values[start:stop]]
        start = stop
    return signs


def equations_outcome(sign_equations, arrows):
    """Every equation as a sorted tuple, sorted; or the error text."""
    try:
        return sorted(tuple(sorted(r)) for r in sign_equations(edge_indices(arrows)[0]))
    except ComplexError as exc:
        return str(exc)


def solve_outcome(solve, arrows):
    """The signs, or the type and text of the error."""
    try:
        return solve(arrows)
    except ComplexError as exc:
        return type(exc), str(exc)


class TestSignSolve:
    def test_keyed_elimination_matches_list_scan(self):
        for c in _sign_cases():
            arrows = unsigned_arrows(c)
            signs = _solve_signs(arrows)
            keyed = {
                (n, s, d): sign
                for n, pairs in arrows.items()
                for (s, d), sign in zip(sorted(pairs), signs[n])
            }
            assert keyed == reference_solve_signs(arrows), c.label

    def test_descending_order_matches_streaming(self, monkeypatch):
        # The signs do not depend on the order the equations come in:
        # generation order, reversed, or a seeded shuffle.
        generated = sign_solve._sign_equations
        rng = random.Random(12)
        orders = [lambda eqs: eqs[::-1], lambda eqs: rng.sample(eqs, len(eqs))]
        for c in [build_torus_complex(3, 61), *_sign_cases()]:
            arrows = unsigned_arrows(c)
            want = _solve_signs(arrows)
            for order in orders:
                monkeypatch.setattr(sign_solve, "_sign_equations",
                                    lambda by_src: iter(order(list(generated(by_src)))))
                assert _solve_signs(arrows) == want, c.label
                monkeypatch.undo()

    def test_former_signs_give_the_same_invariants(self):
        changed = []
        for c in [build_torus_complex(3, 61), *_sign_cases()]:
            arrows = unsigned_arrows(c)
            signs = least_index_solve_signs(arrows)
            old = DotComplex(c.generators, {
                n: [(s, d, sign) for (s, d), sign in zip(sorted(pairs), signs[n])]
                for n, pairs in arrows.items()
            })
            if old.diffs != c.diffs:
                changed.append(c.label)
            for n in (0, 1, 2):
                new_h, old_h = homology(c, n), homology(old, n)
                assert (new_h.poincare, new_h.dims) == (old_h.poincare, old_h.dims), (c.label, n)
            assert s_invariant(old) == s_invariant(c), c.label
            assert verify(old).lines() == verify(c).lines(), c.label
        # The rule changed the signs of the torus and thin complexes with squares.
        assert {"T(3,61)", "4_1"} <= set(changed) and "T(2,11)" not in changed

    def test_signs_are_least_from_edge_zero_up(self, monkeypatch):
        # Against every assignment of seeded random systems: the least
        # solution read from edge 0 upward, or the error when none exists.
        rng = random.Random(2026)
        consistent = 0
        for _ in range(300):
            nvars = rng.randint(1, 12)
            hidden = [rng.randint(0, 1) for _ in range(nvars)]
            equations = []
            for _ in range(rng.randint(0, nvars + 3)):
                row = tuple(e for e in range(nvars) if rng.random() < 0.3)
                if rng.random() < 0.1 or sum(hidden[e] for e in row) % 2:
                    equations.append(row)
            masks = [sum(1 << e for e in row) for row in equations]
            solutions = [
                bits for bits in range(1 << nvars)
                if all(bin(bits & mask).count("1") % 2 for mask in masks)
            ]
            monkeypatch.setattr(sign_solve, "_sign_equations", lambda by_src: map(set, equations))
            arrows = {1: [(e, e + 1) for e in range(nvars)]}
            if not solutions:
                with pytest.raises(ComplexError, match="^sign constraints are inconsistent$"):
                    _solve_signs(arrows)
                continue
            consistent += 1
            # Edge 0 is the most significant bit of the reading.
            least = min(solutions, key=lambda bits: [bits >> e & 1 for e in range(nvars)])
            assert _solve_signs(arrows) == {1: [-1 if least >> e & 1 else 1 for e in range(nvars)]}
        assert 150 < consistent < 300

    def test_unpairable_composite_error_is_unchanged(self):
        arrows = {1: [(0, 1), (1, 2)]}
        want = (ComplexError, "unpairable composite d_1/d_1 path 0 -> 2")
        assert solve_outcome(_solve_signs, arrows) == want
        assert solve_outcome(least_index_solve_signs, arrows) == want

    @pytest.mark.parametrize(
        "equations",
        [[(0, 1), (1, 2), (0, 2)], [(2, 0), (), (1,)]],
        ids=["odd cycle", "empty equation"],
    )
    def test_inconsistent_system_error_is_unchanged(self, monkeypatch, equations):
        # Small arrow sets whose composites all pair up give consistent
        # systems, so the equations are fed in directly.
        monkeypatch.setattr(sign_solve, "_sign_equations", lambda by_src: map(set, equations))
        arrows = {1: [(0, 1), (1, 2), (2, 3)]}
        want = (ComplexError, "sign constraints are inconsistent")
        assert solve_outcome(_solve_signs, arrows) == want
        patched = lambda a: least_index_solve_signs(a, sign_solve._sign_equations)  # noqa: E731
        assert solve_outcome(patched, arrows) == want

    def test_equations_match_per_pair_reference(self):
        for c in [build_torus_complex(3, 61), *_sign_cases()]:
            arrows = unsigned_arrows(c)
            got = equations_outcome(_sign_equations, arrows)
            assert got == equations_outcome(reference_sign_equations, arrows), c.label

    @given(path_complexes())
    @settings(max_examples=400, deadline=None)
    def test_random_equations_match_per_pair_reference(self, c):
        arrows = unsigned_arrows(c)
        want = equations_outcome(reference_sign_equations, arrows)
        assert equations_outcome(_sign_equations, arrows) == want

    @pytest.mark.parametrize("arrows, want", [
        ({1: [(0, 1), (5, 6), (6, 7)], 2: [(1, 2)]},
         "unpairable composite d_1/d_1 path 5 -> 7"),
        ({1: [(0, 1), (5, 6), (5, 8), (5, 9), (6, 7), (8, 7), (9, 7)], 2: [(1, 2)]},
         "more than two parallel composites 5 -> 7; the +-1 sign rule does not apply"),
    ], ids=["unpairable", "three parallel"])
    def test_first_fault_is_the_per_pair_walks(self, arrows, want):
        # Source 0 has an unpairable d_1/d_2 path, met first source by
        # source; the d_1/d_1 fault at source 5 is met first pair by pair.
        assert solve_outcome(_solve_signs, arrows) == (ComplexError, want)
        assert solve_outcome(least_index_solve_signs, arrows) == (ComplexError, want)
        diffs = {n: [(s, d, 1) for (s, d) in a] for n, a in arrows.items()}
        c = DotComplex([(0, 0, 0)] * 10, diffs)
        assert verify(c).lines() == reference_verify(c).lines()
        walk = [v for v in verify(c).violations if "has degree" not in v]
        assert walk[:2] == ["d_1 squared is nonzero on 5 -> 7",
                            "d_1 and d_2 fail to anticommute on 0 -> 2"]


# -- the elimination engine against dense Fraction references ---------------

def reference_rank(rows):
    """Rank of a dense Fraction matrix given as a list of row lists."""
    if not rows:
        return 0
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pv
                row = rows[r]
                prow = rows[rank]
                for j in range(col, ncols):
                    row[j] -= f * prow[j]
        rank += 1
        col += 1
    return rank


def reference_dense(srcs, dsts, entries):
    """Dense Fraction matrix of the entries running from srcs (rows) to dsts."""
    spos = {idx: j for j, idx in enumerate(srcs)}
    dpos = {idx: j for j, idx in enumerate(dsts)}
    mat = [[Fraction(0)] * len(dsts) for _ in srcs]
    for (s, d, coeff) in entries:
        if s in spos and d in dpos:
            mat[spos[s]][dpos[d]] += coeff
    return mat


def reference_kernel_mod_image(out_rows, in_rows):
    """A vector spanning ker(out) / im(in), by Gauss-Jordan on [out | I]."""
    ncols = len(out_rows)
    if ncols == 0:
        return None
    width = len(out_rows[0]) if out_rows and out_rows[0] else 0
    aug = [list(row) + [Fraction(0)] * ncols for row in out_rows]
    for i in range(ncols):
        aug[i][width + i] = Fraction(1)
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, ncols):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        for r in range(ncols):
            if r != rank and aug[r][col]:
                f = aug[r][col] / pv
                for j in range(col, width + ncols):
                    aug[r][j] -= f * aug[rank][j]
        rank += 1
    kernel = [row[width:] for row in aug[rank:]]
    basis = [list(row) for row in in_rows if any(row)]
    before = reference_rank(basis)
    for vec in kernel:
        if reference_rank(basis + [list(vec)]) > before:
            return vec
    return None


def grouped(c, key_of):
    """Generator indices grouped by key_of(grading), in generator order."""
    by_key = {}
    for idx, g in enumerate(c.generators):
        by_key.setdefault(key_of(g), []).append(idx)
    return by_key


def reference_dims(c, n, key_of=None):
    """d_N homology per amalgamated bigrade from dense ranks of every block.

    key_of, when given, replaces the amalgamated (block, level) key; d_N
    must lower its level by one within a block.
    """
    by_key = grouped(c, key_of or _bigrade(n))
    entries = c.diffs.get(n, [])
    ranks = {
        key: reference_rank(reference_dense(idxs, by_key.get((key[0], key[1] - 1), []), entries))
        for key, idxs in by_key.items()
    }
    dims = {}
    for key, idxs in by_key.items():
        dim = len(idxs) - ranks[key] - ranks.get((key[0], key[1] + 1), 0)
        if dim:
            dims[key] = dim
    return dims


def reference_unblocked_dims(c, n):
    """Brute-force route: {k: dim} from dense ranks of the whole d_N between homological levels.

    Blocks by homological level only, not by bigrade, so it cross-checks
    how homology() splits d_N.  Like homology(), it raises ComplexError for
    a d_N with nonzero square.
    """
    error = reference_square_error(c, n)
    if error:
        raise ComplexError(error)
    level_of = _bigrade(n)
    dims = reference_dims(c, n, lambda g: (0, level_of(g)[1]))
    return {k: dim for (_, k), dim in dims.items()}


def reference_survivor(c):
    """Support of the d_1 survivor found by the dense reference."""
    by_key = grouped(c, _bigrade(1))
    block = by_key[(0, 0)]
    entries = c.diffs.get(1, [])
    vec = reference_kernel_mod_image(
        reference_dense(block, by_key.get((0, -1), []), entries),
        reference_dense(by_key.get((0, 1), []), block, entries),
    )
    return None if vec is None else [block[j] for j, v in enumerate(vec) if v]


ENTRY_VALUES = [
    1, -1, 2, -2, 3, -3, 2 ** 61 - 1, -(2 ** 31 - 1), 1000003,
    Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3),
]


@st.composite
def sparse_rows(draw):
    """Sparse rows {col: nonzero coeff}, with some rows combined from others."""
    ncols = draw(st.integers(1, 7))
    cols = st.integers(0, ncols - 1)
    values = st.sampled_from(ENTRY_VALUES)
    rows = draw(st.lists(st.dictionaries(cols, values, max_size=ncols), max_size=7))
    if rows:
        picks = st.integers(0, len(rows) - 1)
        for (i, j, a, b) in draw(st.lists(st.tuples(picks, picks, values, values), max_size=4)):
            combo = {k: a * rows[i].get(k, 0) + b * rows[j].get(k, 0) for k in range(ncols)}
            rows.append({k: v for k, v in combo.items() if v})
    return ncols, rows


def _survivor_cases():
    for m in range(3, 22, 2):
        yield build_torus_complex(2, m)
    for m in range(4, 32):
        if m % 3:
            yield build_torus_complex(3, m)
    yield mirror_complex(build_torus_complex(3, 5))
    for rec in load_dataset():
        c = rec.load_complex()
        if c is None and rec.superpoly is not None and len(delta_spectrum(rec.superpoly)) == 1:
            thin = thin_super(rec.homfly, rec.s_inv)
            c = build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)
        if c is not None:
            yield c


def int_rows(rows):
    """Each row times the lcm of its denominators: integer rows of the same rank."""
    scaled = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row.values()))
        scaled.append({k: int(v * scale) for k, v in row.items()})
    return scaled


class TestEliminationEngine:
    @given(sparse_rows())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_dense_reference(self, case):
        ncols, rows = case
        dense = [[row.get(k, 0) for k in range(ncols)] for row in rows]
        assert _eliminate(int_rows(rows), {}) == reference_rank(dense)

    def test_rank_deficient_non_unit(self):
        # Row 1 is 3/2 row 0, and row 3 is row 0 / 2 + row 2.
        rows = [
            {0: 6, 1: 4}, {0: 9, 1: 6}, {1: Fraction(2, 3), 2: 5},
            {0: 3, 1: Fraction(8, 3), 2: 5},
        ]
        dense = [[row.get(k, 0) for k in range(3)] for row in rows]
        pivots = {}
        assert _eliminate(int_rows(rows), pivots) == 2 == reference_rank(dense)
        assert all(type(v) is int for row in pivots.values() for v in row.values())

    def test_homology_matches_dense_reference(self):
        rng = random.Random(0xD1FF)
        for _ in range(200):
            c, n_level = random_valid_complex(rng)
            assert homology(c, n_level).dims == reference_dims(c, n_level)

    def test_s_invariant_is_the_a_grading_of_the_dense_survivor(self):
        for c in _survivor_cases():
            (a_grading,) = {c.generators[i][0] for i in reference_survivor(c)}
            assert s_invariant(c) == a_grading, c.label

    def test_integer_coefficients_stored_as_int(self):
        c = DotComplex([(4, 0, 2), (2, 2, 1)], {1: [(0, 1, Fraction(4, 2))]})
        assert type(c.diffs[1][0][2]) is int
        c = deserialize_complex("gen 0 4 0 2\ngen 1 2 2 1\ndiff 1 0 1 3/2\n")
        assert c.diffs[1][0][2] == Fraction(3, 2)
        assert serialize_complex(c).endswith("diff 1 0 1 3/2\n")


# -- one elimination per level against the per-block reference --------------

def block_outcome(homology_of, s_invariant_of, c):
    """(dims items in order, Poincare text) per level 0..3, then S, or each error's type and text."""
    out = []
    for call in [lambda n=n: homology_of(c, n) for n in range(4)] + [lambda: s_invariant_of(c)]:
        try:
            result = call()
        except (ComplexError, ValueError) as exc:
            out.append((type(exc), str(exc)))
            continue
        if isinstance(result, int):
            out.append(result)
        else:
            out.append((list(result.dims.items()), format_poly(result.poincare)))
    return out


def assert_matches_block_reference(c):
    assert block_outcome(homology, s_invariant, c) == block_outcome(
        reference_block_homology, block_s_invariant, c
    ), c.label


def halved_level(c, n):
    """c with every d_N coefficient halved: a level of Fractions (or ints) with the same ranks."""
    diffs = {lv: [(s, d, Fraction(v, 2) if lv == n else v) for (s, d, v) in entries]
             for lv, entries in c.diffs.items()}
    return DotComplex(c.generators, diffs, label=c.label)


def bundled_942():
    path = os.path.join(os.path.dirname(complexes.__file__), "data", "9_42.cplx")
    with open(path) as fh:
        return deserialize_complex(fh.read(), label="9_42")


def graded_conjugate(c, rng):
    """c in a random integer basis of each (a, q, t) grading: every d_N becomes B d_N B^-1.

    B is block diagonal over the gradings, a product of random integer
    shears inside each repeated grading, so degrees, squares and
    anticommutators all survive and only the supports of the classes grow.
    """
    groups = {}
    for i, g in enumerate(c.generators):
        groups.setdefault(g, []).append(i)
    cols, inverse = {}, {}  # cols[j] = {i: B[i][j]}, inverse[k] = {l: B^-1[k][l]}
    for idxs in groups.values():
        k = len(idxs)
        b = [[int(r == s) for s in range(k)] for r in range(k)]
        inv = [row[:] for row in b]
        for _ in range(k + 2 if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            lam = rng.choice([1, -1, 2, -2, 3])
            b[i] = [x + lam * y for x, y in zip(b[i], b[j])]
            for row in inv:
                row[j] -= lam * row[i]
        for r, x in enumerate(idxs):
            cols[x] = {idxs[s]: b[s][r] for s in range(k) if b[s][r]}
            inverse[x] = {idxs[s]: v for s, v in enumerate(inv[r]) if v}
    diffs = {}
    for n, entries in c.diffs.items():
        out = {}
        for (src, dst, v) in entries:
            for i, bv in cols[src].items():
                for l, iv in inverse[dst].items():
                    out[i, l] = out.get((i, l), 0) + bv * v * iv
        diffs[n] = [(i, l, v) for (i, l), v in out.items() if v]
    return DotComplex(c.generators, diffs, label=c.label)


def bundled_thin_complexes():
    for rec in load_dataset():
        if rec.superpoly is not None and len(delta_spectrum(rec.superpoly)) == 1:
            thin = thin_super(rec.homfly, rec.s_inv)
            yield build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)


class TestMatchesBlockReference:
    def test_t3_family(self):
        for m in range(4, 122):
            if m % 3:
                assert_matches_block_reference(build_torus_complex(3, m))

    def test_thin_complexes_of_the_bundled_rows(self):
        count = 0
        for c in bundled_thin_complexes():
            assert_matches_block_reference(c)
            count += 1
        assert count

    def test_t3_and_thin_complexes_in_random_graded_bases(self):
        rng = random.Random(0x5EED)
        wide = 0
        cases = [build_torus_complex(3, m) for m in range(4, 62) if m % 3]
        for c in cases + list(bundled_thin_complexes()):
            for _ in range(2):
                conj = graded_conjugate(c, rng)
                assert_matches_block_reference(conj)
                wide += len(block_survivor(conj)) > 1
        # The survivor's grading repeats in some thin complexes (6_1, 6_3,
        # 7_6, 7_7), so the class search there runs on wider supports.
        assert wide

    @pytest.mark.parametrize("n, qmax", [(4, 40), (5, 40), (6, 30)])
    def test_stable_complexes(self, n, qmax):
        assert_matches_block_reference(build_stable_complex(n, qmax))

    def test_bundled_942_and_its_mirror(self):
        c = bundled_942()
        for case in (c, mirror_complex(c), halved_level(c, 1), mirror_complex(halved_level(c, 1))):
            assert_matches_block_reference(case)
        assert s_invariant(halved_level(c, 1)) == s_invariant(c)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_valid_complexes(self, rng, fractions):
        c, n_level = random_valid_complex(rng)
        if fractions:
            # A diagonal change of basis by rationals keeps every square zero.
            f = [Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 7])) for _ in c.generators]
            c = DotComplex(c.generators, {n: [(s, d, v * f[s] / f[d]) for (s, d, v) in entries]
                                          for n, entries in c.diffs.items()})
        assert_matches_block_reference(c)

    def test_int_level_is_the_level_itself(self):
        c = build_torus_complex(3, 7)
        assert all(_int_level(c, n) is c.diffs[n] for n in c.diffs)
        assert _int_level(c, 5) == ()

    def test_fraction_level_is_scaled_by_one_constant(self):
        c = DotComplex([(0, 0, 0), (-2, 2, -1), (0, 4, 0), (-2, 6, -1)],
                       {1: [(0, 1, Fraction(1, 2)), (2, 3, Fraction(-2, 3))]})
        assert _int_level(c, 1) == [(0, 1, 3), (2, 3, -4)]


# -- compact levels and the signed-key walk -----------------------------------

def walk_cases():
    """Built T(3, m), thin, stable and mirrored complexes, each with the eq cutoff verify uses."""
    for m in (4, 5, 7, 31, 61):
        yield build_torus_complex(3, m), None
    for c in bundled_thin_complexes():
        yield c, None
        yield mirror_complex(c), None
    for n, qmax in [(2, 12), (4, 30), (5, 24), (6, 40)]:
        c = build_stable_complex(n, qmax)
        yield c, qmax - 2 * n
        yield mirror_complex(c), None
    yield mirror_complex(build_torus_complex(3, 31)), None
    yield bundled_942(), None


def cutoff(c, max_eq):
    return None if max_eq is None else (lambda s: c.generators[s][1] <= max_eq)


def tuple_walk_verify(c, max_eq, monkeypatch):
    """verify(c, max_eq) with the tuple walk in place of the signed-key walk: (lines, record)."""
    with monkeypatch.context() as patch:
        patch.setattr(complexes, "_nonzero_composites", tuple_composites)
        report = verify(c, max_eq)
    return report.lines(), sorted(c._verified)


@st.composite
def perturbed_complexes(draw):
    """A small built complex with some coefficients replaced (0, non-unit ints, Fractions),
    and a cutoff for the walk: None or an eq bound."""
    base = draw(st.sampled_from(perturbed_bases()))
    diffs = {n: list(level) for n, level in base.diffs.items()}
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from(sorted(diffs)))
        if diffs[n]:
            k = draw(st.integers(0, len(diffs[n]) - 1))
            s, d, _ = diffs[n][k]
            diffs[n][k] = (s, d, draw(st.one_of(st.just(0), PATH_COEFFS)))
    eqs = sorted({eq for (_, eq, _) in base.generators})
    return DotComplex(base.generators, diffs, base.label), draw(st.sampled_from([None, *eqs]))


@functools.cache
def perturbed_bases():
    return [build_torus_complex(3, 7), build_stable_complex(4, 16), build_stable_complex(5, 14),
            mirror_complex(build_torus_complex(3, 5)),
            build_thin_complex(-2, Poly3.monomial(2, 2, 0, 2))]


class TestSignedKeyWalk:
    def test_built_complexes_match_the_tuple_walk(self, monkeypatch):
        for c, max_eq in walk_cases():
            levels = sorted(c.diffs)
            for eq in {None, max_eq}:
                assert _nonzero_composites(c, levels, cutoff(c, eq)) == \
                    tuple_composites(c, levels, cutoff(c, eq)), (c.label, eq)
                want = tuple_walk_verify(c, eq, monkeypatch)
                assert (verify(c, eq).lines(), sorted(c._verified)) == want, (c.label, eq)

    @given(perturbed_complexes())
    @settings(max_examples=300, deadline=None)
    def test_perturbed_complexes_match_the_tuple_walk(self, case):
        c, max_eq = case
        levels = sorted(c.diffs)
        whole = cutoff(c, max_eq)
        assert _nonzero_composites(c, levels, whole) == tuple_composites(c, levels, whole)
        for n in levels:
            assert _nonzero_composites(c, [n]) == tuple_composites(c, [n])

    @given(path_complexes(), st.one_of(st.none(), st.integers(-3, 3)))
    @settings(max_examples=300, deadline=None)
    def test_random_complexes_match_the_tuple_walk(self, c, max_eq):
        levels = sorted(c.diffs)
        whole = cutoff(c, max_eq)
        assert _nonzero_composites(c, levels, whole) == tuple_composites(c, levels, whole)

    def test_verify_record_matches_the_tuple_walk_on_perturbed_levels(self, monkeypatch):
        rng = random.Random(7)
        for base in perturbed_bases():
            for _ in range(10):
                diffs = {n: list(level) for n, level in base.diffs.items()}
                for n in rng.sample(sorted(diffs), 2):
                    k = rng.randrange(len(diffs[n]))
                    s, d, v = diffs[n][k]
                    diffs[n][k] = (s, d, rng.choice([0, -v, 2 * v, Fraction(v, 2)]))
                c = DotComplex(base.generators, diffs)
                for max_eq in (None, max(eq for (_, eq, _) in c.generators) - 4):
                    want = tuple_walk_verify(c, max_eq, monkeypatch)
                    assert (verify(c, max_eq).lines(), sorted(c._verified)) == want


SERIALIZED_SHA256 = {
    # serialize_complex of each, as the tuple-held levels wrote it.
    "T(3,31)": "f6eeeaeb000ae8c57326678a0edb831232b59204932ea76ed1541663f6111b84",
    "T(2,9)": "4b7fba1e59757a18f3f81b4f805ecafc472247172a22201159a5214f7763ee6f",
    "stable(5,30)": "b7dd5f591b32618d4a870103bbf9848b0fd5dd0d6c5c993b80e19986750ad26d",
    "mirror stable(4,24)": "1b08546a8426f94122736315812e2aeae5a906304eacffef507f668b3f207c52",
    "thin 7_7": "7047e96fe91251e8c984db212c50a075338c3c85daa65a7ac9f22d0917aad69e",
    "thin -3 7_7": "af4c48e83bb1d0ea7589e673d31061e6cfc42a35b316983cb5507a04f5948baf",
    "9_42": "de7337544520fff1fa8a0eddcc11e6102687d0c996c21741d55975b719e61cff",
}


def serialized_cases():
    rec = next(r for r in load_dataset() if r.name == "7_7")
    squares = thin_super(rec.homfly, rec.s_inv).squares_q
    yield "T(3,31)", build_torus_complex(3, 31)
    yield "T(2,9)", build_torus_complex(2, 9)
    yield "stable(5,30)", build_stable_complex(5, 30)
    yield "mirror stable(4,24)", mirror_complex(build_stable_complex(4, 24))
    yield "thin 7_7", build_thin_complex(rec.s_inv // 2, squares, label=rec.name)
    yield "thin -3 7_7", build_thin_complex(-3, squares)
    yield "9_42", bundled_942()


class TestCompactLevels:
    def test_view_reads_as_its_tuple(self):
        for c, _ in walk_cases():
            for n, level in c.diffs.items():
                if type(level) is not SignLevel:
                    continue
                t = tuple(zip(level.src, level.dst, level.sign))
                assert len(level) == len(t) and tuple(level) == t and list(level) == list(t)
                for k in {0, len(t) // 2, len(t) - 1, -1, -len(t)}:
                    assert level[k] == t[k]
                for a, b in [(None, 3), (2, -1), (None, None), (5, 2), (1, None)]:
                    assert level[a:b] == t[a:b] and type(level[a:b]) is tuple
                assert level == t and t == level and not level != t
                assert level != list(t) and level == SignLevel(*zip(*t))
                with pytest.raises(IndexError):
                    level[len(t)]
                assert repr(level) == "SignLevel(%r)" % (t,)

    def test_unequal_views(self):
        a = SignLevel([0, 1], [2, 3], [1, -1])
        assert a != SignLevel([0, 1], [2, 3], [1, 1])
        assert a != ((0, 2, 1),) and a != ((0, 2, 1), (1, 3, -1), (1, 4, 1))
        assert a == ((0, 2, 1), (1, 3, -1)) and a != [(0, 2, 1), (1, 3, -1)]
        assert (0, 2, 1) in a and a.index((1, 3, -1)) == 1
        assert len(SignLevel()) == 0 and not SignLevel()

    def test_serialized_text_is_unchanged(self):
        import hashlib

        for name, c in serialized_cases():
            text = serialize_complex(c)
            assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256[name], name
            assert serialize_complex(deserialize_complex(text, label=c.label)) == text

    def test_halved_942_file_verifies_and_reduces_the_same(self):
        path = os.path.join(os.path.dirname(complexes.__file__), "data", "9_42.cplx")
        with open(path) as fh:
            lines = fh.read().splitlines()
        halved = []
        for line in lines:
            parts = line.split()
            if parts[:2] == ["diff", "1"]:
                num, den = parts[4].split("/")
                parts[4] = "%s/%d" % (num, 2 * int(den))
                line = " ".join(parts)
            halved.append(line)
        c, half = bundled_942(), deserialize_complex("\n".join(halved) + "\n")
        # The file's d_1 is +-1, its d_{-1} holds +-2; halved, d_1 holds +-1/2.
        assert [type(c.diffs[n]) for n in (1, -1)] == [SignLevel, tuple]
        assert [type(half.diffs[n]) for n in (1, -1)] == [tuple, tuple]
        assert {type(v) for (_, _, v) in half.diffs[1]} == {Fraction}
        assert verify(half).lines() == verify(c).lines() and verify(half).ok
        for n in (0, 1, 2):
            assert homology(half, n).poincare == homology(c, n).poincare
        assert s_invariant(half) == s_invariant(c)

    @pytest.mark.parametrize("build, n", [
        (lambda: build_stable_complex(4, 30), 1),
        (lambda: build_stable_complex(5, 24), 0),
        (lambda: build_torus_complex(3, 13), 1),
    ], ids=["stable(4,30) d_1", "stable(5,24) d_0", "T(3,13) d_1"])
    def test_replaced_sign_level_is_checked_again(self, build, n):
        # A new SignLevel equal but for one sign is not the level verify recorded.
        c = build()
        verify(c, max_eq=10)
        assert n in c._verified
        tampered = SignLevel(*zip(*tampered_square(c, n)))
        c.diffs[n] = tampered
        want = reference_square_error(c, n)
        assert want and _nonzero_composites(c, [n]) == tuple_composites(c, [n])
        with pytest.raises(ComplexError, match="^%s$" % want):
            homology(c, n)
        assert not verify(c).ok and n not in c._verified


class TestMemory:
    def test_stable_complex_held_and_verify_peak(self):
        # Parent figures on CPython 3.11: 4.64 MiB held, 5.50 MiB verify peak.
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            c = build_stable_complex(5, 70)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert verify(c, max_eq=60).ok
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held < 3 * 2 ** 20, held
        assert peak < 4 * 2 ** 20, peak
