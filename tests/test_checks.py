"""The exact text of every check in the battery, passing and failing.

Each failing case is a hand-built record list run through
check_rows(records, only=name); the records need not be loadable, so the
dimensions check, which only fails on rows the loader rejects, is reached
here too.
"""

import pytest

from superpoly import checks, laurent
from superpoly.checks import check_rows
from superpoly.complexes import DotComplex, build_torus_complex, serialize_complex
from superpoly.dataset import KnotRecord, load_dataset
from superpoly.laurent import parse_poly

TREFOIL = next(r for r in load_dataset() if r.name == "3_1")


def record(name, s_inv=0, homfly="1", **columns):
    """A KnotRecord with sigma 0 and the polynomial columns given as text."""
    polys = {k: parse_poly(v) for k, v in columns.items() if k != "complex_path"}
    return KnotRecord(name, s_inv, 0, parse_poly(homfly),
                      complex_path=columns.get("complex_path"), **polys)


def trefoil(name, s_inv=2, **columns):
    """The bundled trefoil row under another name, with columns replaced."""
    fields = {"khr2": TREFOIL.khr2, "hfk": TREFOIL.hfk, "superpoly": TREFOIL.superpoly}
    fields.update(columns)
    return KnotRecord(name, s_inv, 2, TREFOIL.homfly, **fields)


def complex_file(tmp_path, name, c):
    path = tmp_path / name
    path.write_text(serialize_complex(c))
    return str(path)


def only(name, records):
    return list(check_rows(records, only=name))


def test_bundled_table_passes_with_these_texts():
    assert list(check_rows(load_dataset())) == [
        ("thin-roundtrip", True, "thin reconstruction reproduces every thin row"),
        ("patterns", True, "one-step pairings succeed with the tabulated S on every row"),
        ("three-step", True, "three-step pairing exists for every tabulated sl(2) polynomial"),
        ("symmetry", True, "every superpolynomial is expressible in a, t, y"),
        ("quotient", True, "alternating-quotient test passes on every thin row"),
        ("dimensions", True, "dimension equals the absolute coefficient sum on thin rows"),
        ("complexes", True, "bundled and reconstructed complexes verify with the right S"),
        ("morton", True, "braid bounds hold on the torus sample"),
        ("genus", True, "holomorphic genus matches the Seifert genus on the sample"),
    ]


def test_thin_roundtrip_names_the_first_bad_row():
    shifted = TREFOIL.superpoly.scale_monomial(1, et=2)
    rows = [trefoil("good"), trefoil("A", superpoly=shifted), trefoil("B", superpoly=shifted)]
    assert only("thin-roundtrip", rows) == [
        ("thin-roundtrip", False, "A: thin reconstruction disagrees")]


@pytest.mark.parametrize("row, message", [
    (record("A", superpoly="1 + a^2*q^-2*t^2 + a^2*q^-2*t"),
     "A: remainder after plus survivor S=0: not divisible by x^(2, -2, 1) +1"),
    (trefoil("A", s_inv=4), "A: pairing gives S=2/2, table says 4"),
])
def test_patterns(row, message):
    assert only("patterns", [trefoil("good"), row]) == [("patterns", False, message)]


def test_three_step():
    rows = [trefoil("good"), record("A", khr2="1 + q^2")]
    assert only("three-step", rows) == [("three-step", False, "A: no three-step pairing")]


def test_symmetry():
    rows = [trefoil("good"), record("A", superpoly="1 + q*t")]
    assert only("symmetry", rows) == [
        ("symmetry", False, "A: odd q-exponent 1 cannot come from a power of y")]


def test_symmetry_runs_no_expansion(monkeypatch):
    # The row asks the one symmetry rule; the genus expansion, cubic in the top
    # q-exponent, is never started.
    def no_expansion(g):
        raise AssertionError("y_rewrite ran")
    monkeypatch.setattr(laurent, "_y_power", no_expansion)
    rows = [trefoil("good"), record("A", superpoly="q^2000 + q^-2000*t^-2000")]
    assert only("symmetry", rows) == [
        ("symmetry", True, "every superpolynomial is expressible in a, t, y")]


def test_quotient():
    rows = [trefoil("good"), trefoil("A", s_inv=-2)]
    assert only("quotient", rows) == [
        ("quotient", False, "A: thin row fails the alternating-quotient test")]


@pytest.mark.parametrize("row, message", [
    (record("A", superpoly="2"), "A: thin dimension 2 != coefficient sum 1"),
    (record("A", homfly="3", superpoly="1 + a^2*t"), "A: dimension below the visible bound"),
])
def test_dimensions(row, message):
    assert only("dimensions", [trefoil("good"), row]) == [("dimensions", False, message)]


def test_complexes(tmp_path):
    t23 = complex_file(tmp_path, "t23.cplx", build_torus_complex(2, 3))
    broken = tmp_path / "broken.cplx"
    broken.write_text("gen 0 2 0 1\ngen 1 0 4 0\ndiff 1 0 1 1/1\n")
    cases = [
        (trefoil("A", complex_path=str(broken)),
         "A: d_1 entry 0->1 has degree (-2, 4, -1), expected (-2, 2, -1)"),
        (trefoil("A", superpoly=parse_poly("1"), complex_path=t23),
         "A: complex does not realize the superpolynomial"),
        (record("A", complex_path=complex_file(tmp_path, "two.cplx",
                                               DotComplex([(0, 0, 0), (0, 0, 0)]))),
         "A: d_1 homology has dimension 2, expected 1"),
        (record("A", complex_path=complex_file(tmp_path, "off.cplx", DotComplex([(2, 0, 0)]))),
         "A: survivor sits at amalgamated bigrade (2, 0)"),
        (trefoil("A", s_inv=4, superpoly=None, complex_path=t23), "A: complex S=2, table says 4"),
        # A thin row of square multiplicity 50,000: 1 + 4 * 50,000 generators are refused.
        (record("A", homfly="1 + 50000*a^2 - 50000*q^2 - 50000*q^-2 + 50000*a^-2",
                superpoly="1 + 50000*a^2*t^2 + 50000*q^2*t + 50000*q^-2*t^-1 "
                          "+ 50000*a^-2*t^-2"),
         "A: thin complex has 200001 generators, past 200000"),
    ]
    for row, message in cases:
        assert only("complexes", [trefoil("good"), row]) == [("complexes", False, message)]


def test_a_crash_is_a_failure_line(tmp_path):
    missing = str(tmp_path / "missing.cplx")
    assert only("complexes", [record("A", complex_path=missing)]) == [
        ("complexes", False, "crashed: [Errno 2] No such file or directory: %r" % missing)]


def test_morton(monkeypatch):
    monkeypatch.setattr(checks, "morton_check", lambda p, writhe, components: False)
    assert only("morton", []) == [("morton", False, "T(2,3) violates the braid bound")]


def test_genus(monkeypatch):
    monkeypatch.setattr(checks, "derived_invariants", lambda p: (0, None, None))
    assert only("genus", []) == [
        ("genus", False, "T(2,3): top q-degree is not twice the genus")]


def test_unknown_check():
    assert only("nope", [TREFOIL]) == [("nope", False, "unknown check")]
