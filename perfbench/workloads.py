"""The four workloads: seeded inputs, the timed operation, and its check.

An operation is one input together with its check.  `run()` is the timed
call into the library; `check(output)` runs outside the timed region and
returns None when the output is right, else a one-line reason.  Reference
values come from computations independent of the one being timed (closed
forms, the other HOMFLY route, the bundled table, plain integer lists in
`oracles`), never from a stored copy of an earlier output.

Each workload function returns (ops, largest).  The largest input is
pinned and the seed draws the others from narrow bands, so that
`largest_op_s` times the same input for every seed and the seed moves
`wall_s` by little.
"""

import contextlib
import io
import os
import random
import xml.etree.ElementTree as ET
from functools import cached_property
from math import gcd

from superpoly import cli
from superpoly.complexes import (
    build_torus_complex,
    deserialize_complex,
    homology,
    s_invariant,
    verify,
)
from superpoly.dataset import bundled_path, load_dataset
from superpoly.laurent import ParseError, parse_poly
from superpoly.stable import (
    build_stable_complex,
    stable_hfk,
    stable_homfly,
    stable_khr2,
    stable_khr2_generic,
    stable_super,
)
from superpoly.torus import (
    homfly_torus,
    khr2_t3_closed,
    super_t2,
    super_t3,
    unreduce,
)

import oracles

COMPLEX_9_42 = os.path.join(os.path.dirname(bundled_path()), "9_42.cplx")


def _differs(got, want, what):
    if got != want:
        return "%s differs from the reference" % what
    return None


# -- torus-t3 ----------------------------------------------------------------

class TorusOp:
    """build_torus_complex(3, m), its d_0/d_1/d_2 homology and S."""

    def __init__(self, m):
        self.m = m
        self.name = "T(3,%d)" % m

    def run(self):
        c = build_torus_complex(3, self.m)
        h = {n: homology(c, n).poincare for n in (0, 1, 2)}
        return {"complex": c, "h": h, "s": s_invariant(c)}

    @cached_property
    def homfly(self):
        return dict(homfly_torus(3, self.m).terms)

    def check(self, out):
        h = out["h"]
        return (
            _differs(oracles.euler(out["complex"].poincare().terms), self.homfly,
                     "Poincare polynomial at t = -1")
            or _differs(oracles.euler(h[2].terms), oracles.a_to_q(self.homfly, 2),
                        "d_2 homology at t = -1")
            or _differs(oracles.euler(h[0].terms), oracles.a_to_q(self.homfly, 0),
                        "d_0 homology at t = -1")
            or _differs(h[1].terms, {(0, 0, 0): 1}, "d_1 homology")
            or _differs(out["s"], 2 * (self.m - 1), "S-invariant")
        )


def torus_t3(rng):
    # One m from each pair (3k+1, 3k+2); T(3, 61) is always the largest.
    ms = [3 * k + 1 + rng.randrange(2) for k in (10, 13, 16)]
    largest = TorusOp(61)
    return [TorusOp(m) for m in ms] + [largest], largest


# -- stable-complex ----------------------------------------------------------

class StableOp:
    """build_stable_complex(n, qmax), verify away from the cutoff, d_0 and d_1 homology."""

    def __init__(self, n, qmax):
        self.n = n
        self.qmax = qmax
        self.name = "stable(%d,%d)" % (n, qmax)

    def run(self):
        c = build_stable_complex(self.n, self.qmax)
        report = verify(c, max_eq=self.qmax - 2 * self.n)
        return {
            "complex": c,
            "violations": report.violations,
            "h0": homology(c, 0).poincare,
            "h1": homology(c, 1).poincare,
        }

    @cached_property
    def reference(self):
        sup = dict(stable_super(self.n, self.qmax).body.terms)
        homfly = dict(stable_homfly(self.n, self.qmax).body.terms)
        return {
            "super": sup,
            "euler_ok": oracles.euler(sup) == homfly,
            "hfk": dict(stable_hfk(self.n, self.qmax).body.terms),
        }

    def check(self, out):
        ref = self.reference
        if not ref["euler_ok"]:
            return "stable_super at t = -1 differs from stable_homfly"
        if out["violations"]:
            return "verify: %s" % out["violations"][0]
        return (
            _differs(out["complex"].poincare().terms, ref["super"], "Poincare polynomial")
            or _differs(out["h0"].terms, ref["hfk"], "d_0 homology")
            or _differs(oracles.q_at_most(out["h1"].terms, self.qmax), {(0, 0, 0): 1},
                        "d_1 homology through the cutoff")
        )


def stable_complex(rng):
    # stable(5, 70) is pinned: its largest block has 116 rows.
    q4 = rng.choice((76, 78, 80))
    q5 = rng.choice((46, 48, 50))
    largest = StableOp(5, 70)
    return [StableOp(4, q4), StableOp(5, q5), largest], largest


# -- generic-sl2 -------------------------------------------------------------

class GenericOp:
    """stable_khr2(n, qmax) for n <= 4 (closed form cross-checked), else the generic route alone."""

    def __init__(self, n, qmax):
        self.n = n
        self.qmax = qmax
        self.name = "khr2(%d,%d)" % (n, qmax)

    def run(self):
        # stable_khr2 raises GenericityMismatch when the two routes disagree;
        # the harness counts that as a failed operation.
        if self.n <= 4:
            return stable_khr2(self.n, self.qmax).body
        return stable_khr2_generic(self.n, self.qmax).body

    @cached_property
    def euler_reference(self):
        homfly = stable_homfly(self.n, self.qmax).body.terms
        return oracles.q_at_most(oracles.a_to_q(oracles.euler(homfly), 2), self.qmax)

    def check(self, out):
        return _differs(oracles.euler(out.terms), self.euler_reference,
                        "sl(2) series at t = -1")


def generic_sl2(rng):
    # The generic route draws prime coefficients from a finite list that
    # runs out from qmax 108 for n = 5, so the pinned size stays at 40.
    ops = [GenericOp(n, rng.choice((32, 36, 40, 44, 48))) for n in (2, 3, 4)]
    largest = GenericOp(5, 40)
    return ops + [largest], largest


# -- homfly-cli --------------------------------------------------------------

class HomflyOp:
    """homfly_torus(n, m) by the quantum-factorial and the product route."""

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.name = "homfly(%d,%d)" % (n, m)

    def run(self):
        return (homfly_torus(self.n, self.m, "jones"), homfly_torus(self.n, self.m, "product"))

    def check(self, out):
        jones, product = out
        if jones != product:
            return "the two HOMFLY routes disagree"
        at_a_one = oracles.a_to_q(product.terms, 0)
        return _differs(at_a_one, oracles.alexander_torus(self.n, self.m),
                        "HOMFLY at a = 1 (Alexander polynomial)")


def _expect_poly(reference, header=None):
    """A stdout checker: the printed polynomial re-parses to reference()."""

    def check(text):
        if header is not None:
            first, _, text = text.partition("\n")
            if first != header:
                return "header %r, expected %r" % (first, header)
        try:
            printed = parse_poly(text)
        except ParseError as exc:
            return "printed polynomial does not parse: %s" % exc
        return _differs(printed, reference(), "printed polynomial")

    return check


def _check_battery(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("loaded "):
        return "no 'loaded' line"
    bad = [line for line in lines[1:] if not line.startswith("PASS ")]
    if bad or len(lines) < 2:
        return "battery line not PASS: %r" % (bad[:1] or "none")
    return None


def _complex_9_42():
    with open(COMPLEX_9_42) as fh:
        return deserialize_complex(fh.read())


def _check_render_text(text):
    # Each generator shows up as one t-label in the grid rows.
    labels = 0
    for line in text.splitlines():
        if line.startswith("a="):
            cells = line.partition("|")[2].split()
            labels += sum(len(cell.split(",")) for cell in cells)
    return _differs(labels, len(_complex_9_42().generators), "t-label count")


def _check_render_svg(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return "SVG does not parse: %s" % exc
    svg = "{http://www.w3.org/2000/svg}"
    c = _complex_9_42()
    arrows = sum(len(entries) for entries in c.diffs.values())
    spots = {(eq, ea) for (ea, eq, _) in c.generators}
    return (
        _differs(len(root.findall(svg + "line")), arrows, "arrow count")
        or _differs(len(root.findall(svg + "circle")), len(spots), "dot count")
    )


def _check_verify(text):
    lines = text.splitlines()
    return None if lines and lines[-1] == "OK" else "verify did not print OK"


class CliOp:
    """One in-process `superpoly` command; stdout and stderr are captured."""

    def __init__(self, argv, check_stdout):
        self.argv = [str(a) for a in argv]
        self.name = "cli " + " ".join(os.path.basename(a) for a in self.argv)
        self.check_stdout = check_stdout

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(self.argv)
        return status, out.getvalue(), err.getvalue()

    def check(self, out):
        status, stdout, stderr = out
        if status != 0:
            return "exit status %s: %s" % (status, stderr.strip()[:200])
        return self.check_stdout(stdout)


def _coprime_pair(rng, ns):
    n = rng.choice(ns)
    return n, rng.choice([m for m in (n + 1, n + 2) if gcd(n, m) == 1])


def homfly_cli(rng):
    # T(17, 18) is pinned; the seeded pairs stay small so the seed barely
    # moves the total.
    largest = HomflyOp(17, 18)
    ops = [HomflyOp(*_coprime_pair(rng, ns)) for ns in ((3, 4), (6, 7), (9, 10))]
    ops.append(largest)

    hn, hm = _coprime_pair(rng, (4, 5, 6))
    m3 = rng.choice((7, 8, 10, 11, 13))
    m2 = rng.choice((5, 7, 9, 11))
    mr = rng.choice((7, 8, 10, 11))
    q_super = rng.choice((24, 28, 32))
    q_khr2 = rng.choice((24, 28, 32))
    q_hfk = rng.choice((24, 28, 32))
    records = load_dataset()
    thin_rows = [
        r for r in records
        if r.superpoly is not None
        and len({2 * et - 2 * ea - eq for (ea, eq, et) in r.superpoly.terms}) == 1
    ]
    row = rng.choice(thin_rows)
    row_9_42 = next(r for r in records if r.name == "9_42")
    ops += [
        CliOp(["homfly", "torus", hn, hm, "--form", "jones"],
              _expect_poly(lambda: homfly_torus(hn, hm, "product"))),
        CliOp(["super", "torus", 3, m3], _expect_poly(lambda: super_t3(m3))),
        CliOp(["super", "torus", 2, m2, "--unreduced"],
              _expect_poly(lambda: unreduce(super_t2((m2 - 1) // 2), m2 - 1))),
        CliOp(["super", "thin", "--homfly", str(row.homfly), "--s", row.s_inv],
              _expect_poly(lambda: row.superpoly)),
        CliOp(["reduce", "--torus", 3, mr, "--n", 2], _expect_poly(lambda: khr2_t3_closed(mr))),
        CliOp(["reduce", "--complex", COMPLEX_9_42, "--n", 0],
              _expect_poly(lambda: row_9_42.hfk)),
        CliOp(["stable", "--n", 3, "--qmax", q_super],
              _expect_poly(lambda: stable_super(3, q_super).body, "# qmax=%d" % q_super)),
        CliOp(["stable", "--n", 2, "--qmax", q_khr2, "--reduce", 2],
              _expect_poly(lambda: stable_khr2(2, q_khr2).body, "# qmax=%d" % q_khr2)),
        CliOp(["stable", "--n", 3, "--qmax", q_hfk, "--reduce", 0],
              _expect_poly(lambda: stable_hfk(3, q_hfk).body, "# qmax=%d" % q_hfk)),
        CliOp(["check", "--dataset", "bundled"], _check_battery),
        CliOp(["render", "--complex", COMPLEX_9_42, "--format", "text"], _check_render_text),
        CliOp(["render", "--complex", COMPLEX_9_42, "--format", "svg"], _check_render_svg),
        CliOp(["verify", "--complex", COMPLEX_9_42], _check_verify),
    ]
    return ops, largest


WORKLOADS = {
    "torus-t3": torus_t3,
    "stable-complex": stable_complex,
    "generic-sl2": generic_sl2,
    "homfly-cli": homfly_cli,
}


def make(name, seed):
    """(operation list, pinned largest operation) of one workload for one seed."""
    return WORKLOADS[name](random.Random(seed))
