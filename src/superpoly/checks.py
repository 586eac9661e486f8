"""The aggregated consistency battery run by the check command.

Every check prints one PASS/FAIL line; the battery result is the
conjunction.  Individual checks are registered by name so the command can
run a single one with --only.
"""

from .laurent import delta_spectrum, y_rewrite, NotYExpressible
from .torus import super_t2, super_torus
from .structchecks import (
    StructureError,
    derived_invariants,
    morton_check,
    pattern_minus,
    pattern_plus,
    thin_quotient_test,
    thin_super,
    three_step_pairing,
)
from .complexes import (
    NotCanceling,
    SurvivorOffLine,
    build_thin_complex,
    s_invariant,
    verify,
)
from .dataset import load_dataset


def _is_thin(superpoly):
    return len(delta_spectrum(superpoly)) <= 1


def check_rows(records, only=None):
    """Run the battery; yields (name, ok, message) triples."""

    def rows_with(attr):
        return [r for r in records if getattr(r, attr) is not None]

    checks = {}

    def thin_roundtrip():
        for rec in rows_with("superpoly"):
            if not _is_thin(rec.superpoly):
                continue
            rebuilt = thin_super(rec.homfly, rec.s_inv).superpoly
            if rebuilt != rec.superpoly:
                return False, "%s: thin reconstruction disagrees" % rec.name
        return True, "thin reconstruction reproduces every thin row"

    checks["thin-roundtrip"] = thin_roundtrip

    def patterns():
        for rec in rows_with("superpoly"):
            try:
                s_plus, _ = pattern_plus(rec.superpoly)
                s_minus, _ = pattern_minus(rec.superpoly)
            except StructureError as exc:
                return False, "%s: %s" % (rec.name, exc)
            if s_plus != rec.s_inv or s_minus != rec.s_inv:
                return False, "%s: pairing gives S=%d/%d, table says %d" % (
                    rec.name,
                    s_plus,
                    s_minus,
                    rec.s_inv,
                )
        return True, "one-step pairings succeed with the tabulated S on every row"

    checks["patterns"] = patterns

    def three_step():
        for rec in rows_with("khr2"):
            if three_step_pairing(rec.khr2) is None:
                return False, "%s: no three-step pairing" % rec.name
        return True, "three-step pairing exists for every tabulated sl(2) polynomial"

    checks["three-step"] = three_step

    def symmetry():
        for rec in rows_with("superpoly"):
            try:
                y_rewrite(rec.superpoly)
            except NotYExpressible as exc:
                return False, "%s: %s" % (rec.name, exc)
        return True, "every superpolynomial is expressible in a, t, y"

    checks["symmetry"] = symmetry

    def quotient():
        for rec in records:
            ok, _ = thin_quotient_test(rec.homfly, rec.s_inv)
            thin = rec.superpoly is not None and _is_thin(rec.superpoly)
            if thin and not ok:
                return False, "%s: thin row fails the alternating-quotient test" % rec.name
        return True, "alternating-quotient test passes on every thin row"

    checks["quotient"] = quotient

    def dimensions():
        for rec in rows_with("superpoly"):
            dim = rec.superpoly.dimension()
            visible = rec.homfly.dimension()
            if _is_thin(rec.superpoly):
                if dim != visible:
                    return False, "%s: thin dimension %d != coefficient sum %d" % (
                        rec.name,
                        dim,
                        visible,
                    )
            elif dim < visible:
                return False, "%s: dimension below the visible bound" % rec.name
        return True, "dimension equals the absolute coefficient sum on thin rows"

    checks["dimensions"] = dimensions

    def complexes():
        for rec in records:
            c = rec.load_complex()
            if c is None and rec.superpoly is not None and _is_thin(rec.superpoly):
                thin = thin_super(rec.homfly, rec.s_inv)
                c = build_thin_complex(rec.s_inv // 2, thin.squares_q, label=rec.name)
            if c is None:
                continue
            report = verify(c)
            if not report.ok:
                return False, "%s: %s" % (rec.name, report.violations[0])
            if rec.superpoly is not None and c.poincare() != rec.superpoly:
                return False, "%s: complex does not realize the superpolynomial" % rec.name
            try:
                s_found = s_invariant(c)
            except (NotCanceling, SurvivorOffLine) as exc:
                return False, "%s: %s" % (rec.name, exc)
            if s_found != rec.s_inv:
                return False, "%s: complex S=%d, table says %d" % (
                    rec.name,
                    s_found,
                    rec.s_inv,
                )
        return True, "bundled and reconstructed complexes verify with the right S"

    checks["complexes"] = complexes

    def morton():
        # Standard braid diagram data for the torus families: an n-strand,
        # m-cycle diagram has writhe m(n-1) and an oriented resolution with
        # n circles.  The bound constrains the full superpolynomial.
        for (n, m) in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
            p = super_torus(n, m)
            if not morton_check(p, m * (n - 1), n):
                return False, "T(%d,%d) violates the braid bound" % (n, m)
        return True, "braid bounds hold on the torus sample"

    checks["morton"] = morton

    def genus():
        for (n, m) in ((2, 3), (2, 5), (2, 7), (2, 9)):
            g_h, _, _ = derived_invariants(super_t2((m - 1) // 2))
            if 2 * g_h != (n - 1) * (m - 1):
                return False, "T(%d,%d): top q-degree is not twice the genus" % (n, m)
        return True, "holomorphic genus matches the Seifert genus on the sample"

    checks["genus"] = genus

    names = [only] if only else list(checks)
    for name in names:
        if name not in checks:
            yield name, False, "unknown check"
            continue
        try:
            ok, message = checks[name]()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, message = False, "crashed: %s" % exc
        yield name, ok, message


def run_battery(dataset_path=None, only=None, out=None):
    """Load, validate, run; returns process exit status."""
    import sys

    out = out or sys.stdout
    try:
        records = load_dataset(dataset_path)
        if not records:
            raise ValueError("no records")
    except Exception as exc:
        print("FAIL dataset: %s" % exc, file=out)
        return 1
    print("loaded %d records" % len(records), file=out)
    status = 0
    for name, ok, message in check_rows(records, only=only):
        print("%s %s: %s" % ("PASS" if ok else "FAIL", name, message), file=out)
        if not ok:
            status = 1
    return status
