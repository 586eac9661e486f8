"""Each knot family's generators are described once; these pin that description.

The reference_* routines below are the earlier constructions, which wrote
each family out per case: one branch per residue of m mod 3 for T(3, m), a
separate T(2, 2k+1) chain in the torus and thin builders, a stable word
list and two-strand base case built by while loops, word codes computed
from the nested word tuples, and a stable complex indexed by those tuples.
The single-description code must reproduce them exactly.  The torus and
thin builders write each arrow's sign from a closed-form rule; their
complexes are pinned to the GF(2) sign solve of tests/sign_solve.py.
"""

import re

import pytest

from sign_solve import solved_complex_from_arrows, unsigned_arrows
from superpoly import complexes
from superpoly.complexes import (
    ComplexError,
    DotComplex,
    build_thin_complex,
    build_torus_complex,
    serialize_complex,
)
from superpoly.dataset import load_dataset
from superpoly.laurent import Poly3, delta_spectrum
from superpoly.stable import _check_stable, _generic_survivors, _word_codes, build_stable_complex
from superpoly.structchecks import thin_super
from superpoly.torus import _t3_families

T3_MS = [m for m in range(4, 122) if m % 3]


def reference_t3_families(m):
    """(k, level0, level1, level2), one branch per residue of m mod 3."""
    if m < 4 or m % 3 == 0:
        raise ValueError("need m >= 4 coprime to 3, got %d" % m)
    k, r = divmod(m, 3)
    lv0, lv1, lv2 = [], [], []
    if r == 1:
        for j in range(k + 1):
            for i in range(3 * j + 1):
                lv0.append(((j, i), (6 * k, 6 * j - 4 * i, 4 * k + 2 * j - 2 * i)))
        for j in range(1, k + 1):
            for i in range(6 * j - 1):
                et = 4 * k + 2 * j - 2 * (i // 2) + 1
                parity = "even" if i % 2 == 0 else "odd"
                lv1.append(((parity, j, i // 2), (6 * k + 2, 6 * j - 2 * i - 2, et)))
        for j in range(k):
            for i in range(3 * j + 1):
                lv2.append(((j, i), (6 * k + 4, 6 * j - 4 * i, 4 * k + 2 * j - 2 * i + 4)))
    else:
        for j in range(k + 1):
            for i in range(3 * j + 2):
                lv0.append(((j, i), (6 * k + 2, 6 * j - 4 * i + 2, 4 * k + 2 * j - 2 * i + 2)))
        for j in range(k + 1):
            for i in range(6 * j + 1):
                et = 4 * k + 2 * j - 2 * (i // 2) + 3
                parity = "even" if i % 2 == 0 else "odd"
                lv1.append(((parity, j, i // 2), (6 * k + 4, 6 * j - 2 * i, et)))
        for j in range(k):
            for i in range(3 * j + 2):
                lv2.append(((j, i), (6 * k + 6, 6 * j - 4 * i + 2, 4 * k + 2 * j - 2 * i + 6)))
    return k, lv0, lv1, lv2


def reference_t3_inputs(m):
    """(gradings, arrows, label) of T(3, m), ranges recomputed per residue."""
    k, lv0, lv1, lv2 = reference_t3_families(m)
    gens = []
    index = {}
    for fam, entries in (("lv0", lv0), ("lv1", lv1), ("lv2", lv2)):
        for key, g in entries:
            index[(fam, key)] = len(gens)
            gens.append(g)
    rem1 = m % 3 == 1

    def even_range(j):
        return 3 * j if rem1 else 3 * j + 1

    def odd_range(j):
        return 3 * j - 1 if rem1 else 3 * j

    def top_range(j):
        return 3 * j + 1 if rem1 else 3 * j + 2

    d1, dm1, d2, dm2, d0 = [], [], [], [], []
    for j in range(k + 1):
        for i in range(even_range(j)):
            src = index[("lv1", ("even", j, i))]
            d1.append((src, index[("lv0", (j, i))]))
            dm1.append((src, index[("lv0", (j, i + 1))]))
        for i in range(odd_range(j)):
            src = index[("lv1", ("odd", j, i))]
            d2.append((src, index[("lv0", (j, i))]))
            d0.append((src, index[("lv0", (j, i + 1))]))
            dm2.append((src, index[("lv0", (j, i + 2))]))
            if i >= 1:
                d1.append((src, index[("lv0", (j - 1, i - 1))]))
            else:
                dm1.append((src, index[("lv0", (j - 1, 0))]))
    for j in range(k):
        for i in range(top_range(j)):
            src = index[("lv2", (j, i))]
            d1.append((src, index[("lv1", ("odd", j + 1, i))]))
            if i >= 1:
                d1.append((src, index[("lv1", ("even", j, i - 1))]))
            dm1.append((src, index[("lv1", ("odd", j + 1, i + 1))]))
            d2.append((src, index[("lv1", ("even", j + 1, i))]))
            d0.append((src, index[("lv1", ("even", j + 1, i + 1))]))
            dm2.append((src, index[("lv1", ("even", j + 1, i + 2))]))
    return gens, {1: d1, -1: dm1, 2: d2, -2: dm2, 0: d0}, "T(3,%d)" % m


def reference_t2_complex(m):
    """The T(2, m) chain written out on its own."""
    k = (m - 1) // 2
    gens = []
    index = {}
    for i in range(k + 1):
        index[("u", i)] = len(gens)
        gens.append((2 * k, 4 * i - 2 * k, 2 * i))
    for i in range(1, k + 1):
        index[("w", i)] = len(gens)
        gens.append((2 * k + 2, 4 * i - 2 * k - 2, 2 * i + 1))
    d1 = [(index[("w", i)], index[("u", i)]) for i in range(1, k + 1)]
    dm1 = [(index[("w", i)], index[("u", i - 1)]) for i in range(1, k + 1)]
    return solved_complex_from_arrows(gens, {1: d1, -1: dm1}, label="T(2,%d)" % m)


def reference_thin_complex(sawtooth_k, squares, label=None):
    """The thin builder with its own copy of the T(2, 2k+1) chain."""
    gens = []
    d1 = []
    dm1 = []
    k = sawtooth_k
    if k == 0:
        gens.append((0, 0, 0))
    else:
        ka = abs(k)
        negate = k < 0
        base = len(gens)
        for i in range(ka + 1):
            g = (2 * ka, 4 * i - 2 * ka, 2 * i)
            gens.append(tuple(-x for x in g) if negate else g)
        for i in range(1, ka + 1):
            g = (2 * ka + 2, 4 * i - 2 * ka - 2, 2 * i + 1)
            gens.append(tuple(-x for x in g) if negate else g)
        for i in range(1, ka + 1):
            w = base + ka + i
            if not negate:
                d1.append((w, base + i))
                dm1.append((w, base + i - 1))
            else:
                d1.append((base + i, w))
                dm1.append((base + i - 1, w))
    for (ea, eq, et), mult in sorted(squares.terms.items()):
        if mult < 0:
            raise ComplexError("square multiplicities must be nonnegative")
        for _ in range(mult):
            base = len(gens)
            gens.append((ea, eq, et))
            gens.append((ea - 2, eq + 2, et - 1))
            gens.append((ea - 2, eq - 2, et - 3))
            gens.append((ea - 4, eq, et - 4))
            d1.append((base, base + 1))
            d1.append((base + 2, base + 3))
            dm1.append((base, base + 2))
            dm1.append((base + 1, base + 3))
    return solved_complex_from_arrows(gens, {1: d1, -1: dm1}, label=label)


def reference_words(n, qmax):
    """Tensor words level by level, each index run found by a while loop."""
    words = [((), (0, 0, 0))]
    for level in range(2, n + 1):
        period = (0, 2 * level, 2 * level - 2)
        flag_shift = (2, 2 * level - 2, 2 * level - 1)
        new = []
        for word, g in words:
            for flag in (0, 1):
                base = (
                    g[0] + flag * flag_shift[0],
                    g[1] + flag * flag_shift[1],
                    g[2] + flag * flag_shift[2],
                )
                i = 0
                while True:
                    eq = base[1] + i * period[1]
                    if eq > qmax:
                        break
                    new.append(
                        (word + ((i, flag),), (base[0], eq, base[2] + i * period[2]))
                    )
                    i += 1
        words = new
    return words


def reference_word_codes(n, qmax):
    """(code, grading) of each word: 2 i_l + flag l as digit l - 2 in base 2^b, b the bit
    length of qmax // 2 + 3."""
    base = 2 ** (qmax // 2 + 3).bit_length()
    coded = []
    for word, g in reference_words(n, qmax):
        code = 0
        for pos, (i_l, flag) in enumerate(word):
            code += (2 * i_l + flag) * base ** pos
        coded.append((code, g))
    return coded


def reference_two_strand_survivors(qmax):
    """The base case of the generic reduction: every two-strand dot, dimension one."""
    period = (0, 4, 2)
    flag = (2, 2, 3)
    dims = {}
    for f in (0, 1):
        i = 0
        while True:
            g = (f * flag[0], f * flag[1] + i * period[1], f * flag[2] + i * period[2])
            if g[1] > qmax:
                break
            dims[g] = dims.get(g, 0) + 1
            i += 1
    return dims


def reference_stable_complex(n, qmax):
    """The stable complex with each target found by slicing and hashing its word tuple."""
    _check_stable(n, qmax)
    words = reference_words(n, qmax)
    index = {w: i for i, (w, _) in enumerate(words)}
    gens = [g for (_, g) in words]
    diffs = {}

    def add(level_n, src, dst_word, coeff):
        if dst_word in index:
            diffs.setdefault(level_n, []).append((src, index[dst_word], coeff))

    for src, (word, _) in enumerate(words):
        sign = 1
        for pos, (i_l, flag) in enumerate(word):
            level = pos + 2
            if flag:
                dropped = word[:pos] + ((i_l, 0),) + word[pos + 1 :]
                add(-(level - 1), src, dropped, sign)
                advanced = word[:pos] + ((i_l + 1, 0),) + word[pos + 1 :]
                add(1, src, advanced, sign)
                if pos >= 1:
                    i_prev, f_prev = word[pos - 1]
                    shifted = (
                        word[: pos - 1]
                        + ((i_prev + 1, f_prev), (i_l, 0))
                        + word[pos + 1 :]
                    )
                    add(0, src, shifted, sign)
                sign = -sign
    return DotComplex(gens, diffs, label="stable-%d" % n)


def _construction_inputs(monkeypatch, build, *args):
    """(gradings, unsigned arrows with each level sorted, label) that build hands to
    complex_from_arrows; the signs are pinned separately."""
    seen = []

    def record(gradings, arrows, label=None):
        seen.append((list(gradings),
                     {n: sorted((s, d) for s, d, _ in a) for n, a in arrows.items() if a}, label))

    monkeypatch.setattr(complexes, "complex_from_arrows", record)
    build(*args)
    (inputs,) = seen
    return inputs


class TestT3:
    @pytest.mark.parametrize("m", T3_MS)
    def test_families(self, m):
        # Row entry (j, i) of each level is the reference's key (j, i); in
        # level 1 it is the key (parity of i, j, i // 2).
        _, *expected = reference_t3_families(m)
        levels = _t3_families(m)
        for rows, entries in zip(levels, expected):
            assert [g for row in rows for g in row] == [g for _, g in entries]
        for rows, entries in zip(levels[::2], expected[::2]):
            assert [(j, i) for j, row in enumerate(rows) for i in range(len(row))] == [
                key for key, _ in entries]
        assert [(("even", "odd")[i % 2], j, i // 2)
                for j, row in enumerate(levels[1]) for i in range(len(row))] == [
            key for key, _ in expected[1]]

    @pytest.mark.parametrize("m", T3_MS)
    def test_arrows(self, monkeypatch, m):
        gens, arrows, label = reference_t3_inputs(m)
        expected = (gens, {n: sorted(a) for n, a in arrows.items() if a}, label)
        assert _construction_inputs(monkeypatch, build_torus_complex, 3, m) == expected

    @pytest.mark.parametrize("m", T3_MS)
    def test_serialized(self, m):
        # The rule signs are the GF(2) solve's, byte for byte.
        expected = serialize_complex(solved_complex_from_arrows(*reference_t3_inputs(m)))
        assert serialize_complex(build_torus_complex(3, m)) == expected

    @pytest.mark.parametrize("m", [7, 31])
    def test_flipped_rule_sign_is_caught(self, monkeypatch, m):
        # One level-2 d_{-1} arrow taken to +1: verify must refuse the build
        # and name the d_{-1} faults at that arrow's source.
        build = complexes.complex_from_arrows
        top = sum(map(len, _t3_families(m)[2]))
        flipped = []

        def tamper(gradings, arrows, label=None):
            first = len(gradings) - top
            k, (s, d, sign) = next((k, a) for k, a in enumerate(arrows[-1]) if a[0] >= first)
            assert sign == -1
            arrows[-1][k] = (s, d, 1)
            flipped.append(s)
            return build(gradings, arrows, label)

        monkeypatch.setattr(complexes, "complex_from_arrows", tamper)
        with pytest.raises(ComplexError) as err:
            build_torus_complex(3, m)
        head, _, faults = str(err.value).partition(": ")
        assert head == "constructed complex failed verification"
        pattern = re.compile(r"d_(-?\d+) (?:and d_(-?\d+) fail to anticommute|squared is nonzero)"
                             r" on (\d+) -> \d+")
        found = [pattern.fullmatch(v) for v in faults.split("; ")]
        assert found and all(found)
        assert all("-1" in f.group(1, 2) and int(f.group(3)) == flipped[0] for f in found)

    @pytest.mark.parametrize("m", [3, 6, 9, 0, -4, 2])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError, match="need m >= 4 coprime to 3"):
            _t3_families(m)


class TestT2:
    def test_torus_builder(self):
        for m in range(3, 60, 2):
            expected = serialize_complex(reference_t2_complex(m))
            assert serialize_complex(build_torus_complex(2, m)) == expected, m

    @pytest.mark.parametrize("squares", [
        Poly3.zero(),
        # q-symmetric bases (eq = 0), one with multiplicity two.
        Poly3({(4, 0, 2): 1, (6, 0, 5): 2, (-2, 0, -1): 1}),
    ])
    def test_thin_builder(self, squares):
        for k in range(-6, 7):
            expected = serialize_complex(reference_thin_complex(k, squares, label="k%d" % k))
            assert serialize_complex(build_thin_complex(k, squares, label="k%d" % k)) == expected

    def test_bundled_thin_rows(self):
        # Every thin row of the bundled table, against the GF(2) solve on its arrows.
        rows = 0
        for rec in load_dataset():
            if rec.superpoly is not None and len(delta_spectrum(rec.superpoly)) == 1:
                thin = thin_super(rec.homfly, rec.s_inv)
                c = build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)
                expected = solved_complex_from_arrows(c.generators, unsigned_arrows(c), rec.name)
                assert serialize_complex(c) == serialize_complex(expected), rec.name
                rows += 1
        assert rows == 14


class TestStableWords:
    def test_words(self):
        for n in range(1, 7):
            for qmax in range(-3, 61):
                assert _word_codes(n, qmax) == reference_word_codes(n, qmax), (n, qmax)

    def test_two_strand_base_case(self):
        for qmax in range(-3, 101):
            got = _generic_survivors(2, qmax)
            expected = reference_two_strand_survivors(qmax)
            assert list(got.items()) == list(expected.items()), qmax


class TestStableBuild:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_serialized(self, n):
        for qmax in (0, 1, 2, 5, 11, 24, 40, 60, 70):
            expected = serialize_complex(reference_stable_complex(n, qmax))
            assert serialize_complex(build_stable_complex(n, qmax)) == expected, (n, qmax)
