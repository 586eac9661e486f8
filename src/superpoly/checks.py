"""The aggregated consistency battery run by the check command.

Every check prints one PASS/FAIL line; the battery result is the
conjunction.  The checks live in one table, CHECKS, from name to a
function of the records returning (ok, message), so the command can run a
single one with --only.
"""

from .laurent import TooLarge, _y_check, delta_spectrum
from .torus import super_t2, super_torus
from .structchecks import (StructureError, derived_invariants, morton_check, pattern_minus,
                           pattern_plus, thin_quotient_test, thin_super, three_step_pairing)
from .complexes import NotCanceling, SurvivorOffLine, build_thin_complex, s_invariant, verify
from .dataset import load_dataset


def _is_thin(superpoly):
    return len(delta_spectrum(superpoly)) <= 1


def _each_row(check, passed, errors=()):
    """A battery check from a row check, which returns a failure message or None.

    The first row whose check gives a message, or raises one of errors,
    fails the battery check with that message after the row's name.
    """
    def run(records):
        for rec in records:
            try:
                message = check(rec)
            except errors as exc:
                message = str(exc)
            if message is not None:
                return False, "%s: %s" % (rec.name, message)
        return True, passed
    return run


def _thin_roundtrip(rec):
    if rec.superpoly is not None and _is_thin(rec.superpoly):
        if thin_super(rec.homfly, rec.s_inv).superpoly != rec.superpoly:
            return "thin reconstruction disagrees"


def _patterns(rec):
    if rec.superpoly is not None:
        s_plus, _ = pattern_plus(rec.superpoly)
        s_minus, _ = pattern_minus(rec.superpoly)
        if s_plus != rec.s_inv or s_minus != rec.s_inv:
            return "pairing gives S=%d/%d, table says %d" % (s_plus, s_minus, rec.s_inv)


def _three_step(rec):
    if rec.khr2 is not None and three_step_pairing(rec.khr2) is None:
        return "no three-step pairing"


def _symmetry(rec):
    if rec.superpoly is not None:
        return _y_check(rec.superpoly)[1]


def _quotient(rec):
    ok = thin_quotient_test(rec.homfly, rec.s_inv)
    if not ok and rec.superpoly is not None and _is_thin(rec.superpoly):
        return "thin row fails the alternating-quotient test"


def _dimensions(rec):
    if rec.superpoly is None:
        return None
    dim, visible = rec.superpoly.dimension(), rec.homfly.dimension()
    if _is_thin(rec.superpoly):
        if dim != visible:
            return "thin dimension %d != coefficient sum %d" % (dim, visible)
    elif dim < visible:
        return "dimension below the visible bound"


def _complex(rec):
    c = rec.load_complex()
    if c is None and rec.superpoly is not None and _is_thin(rec.superpoly):
        thin = thin_super(rec.homfly, rec.s_inv)
        c = build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)
    if c is None:
        return None
    report = verify(c)
    if not report.ok:
        return report.violations[0]
    if rec.superpoly is not None and c.poincare() != rec.superpoly:
        return "complex does not realize the superpolynomial"
    s_found = s_invariant(c)
    if s_found != rec.s_inv:
        return "complex S=%d, table says %d" % (s_found, rec.s_inv)


def _morton(records):
    # Standard braid diagram data for the torus families: an n-strand,
    # m-cycle diagram has writhe m(n-1) and an oriented resolution with
    # n circles.  The bound constrains the full superpolynomial.
    for (n, m) in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        if not morton_check(super_torus(n, m), m * (n - 1), n):
            return False, "T(%d,%d) violates the braid bound" % (n, m)
    return True, "braid bounds hold on the torus sample"


def _genus(records):
    for (n, m) in ((2, 3), (2, 5), (2, 7), (2, 9)):
        g_h, _, _ = derived_invariants(super_t2((m - 1) // 2))
        if 2 * g_h != (n - 1) * (m - 1):
            return False, "T(%d,%d): top q-degree is not twice the genus" % (n, m)
    return True, "holomorphic genus matches the Seifert genus on the sample"


CHECKS = {
    "thin-roundtrip": _each_row(_thin_roundtrip, "thin reconstruction reproduces every thin row"),
    "patterns": _each_row(_patterns, "one-step pairings succeed with the tabulated S on every row",
                          StructureError),
    "three-step": _each_row(_three_step,
                            "three-step pairing exists for every tabulated sl(2) polynomial"),
    "symmetry": _each_row(_symmetry, "every superpolynomial is expressible in a, t, y"),
    "quotient": _each_row(_quotient, "alternating-quotient test passes on every thin row"),
    "dimensions": _each_row(_dimensions,
                            "dimension equals the absolute coefficient sum on thin rows"),
    "complexes": _each_row(_complex, "bundled and reconstructed complexes verify with the right S",
                           (NotCanceling, SurvivorOffLine, TooLarge)),
    "morton": _morton,
    "genus": _genus,
}


def check_rows(records, only=None):
    """Run the battery; yields (name, ok, message) triples."""
    for name in [only] if only else CHECKS:
        if name not in CHECKS:
            yield name, False, "unknown check"
            continue
        try:
            ok, message = CHECKS[name](records)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, message = False, "crashed: %s" % exc
        yield name, ok, message


def run_battery(dataset_path=None, only=None):
    """Load, validate, run; returns process exit status."""
    try:
        records = load_dataset(dataset_path)
        if not records:
            raise ValueError("no records")
    except Exception as exc:
        print("FAIL dataset: %s" % exc)
        return 1
    print("loaded %d records" % len(records))
    status = 0
    for name, ok, message in check_rows(records, only=only):
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, message))
        if not ok:
            status = 1
    return status
