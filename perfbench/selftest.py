"""Self-tests of the benchmark's reference computations and checks.

    python3 perfbench/selftest.py

Every workload check must accept the library's real output on a small
input and reject a deliberately perturbed copy, so that no check is
vacuous.  The speed probe process must answer and then end.
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.use_checkout_source()

from superpoly.laurent import Poly3  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXTRA = Poly3.monomial(1, 0, 2, 1)


class AlexanderTest(unittest.TestCase):
    def test_trefoil(self):
        self.assertEqual(
            oracles.alexander_torus(2, 3),
            {(0, -2, 0): 1, (0, 0, 0): -1, (0, 2, 0): 1},
        )

    def test_t34(self):
        # x^6 - x^5 + x^3 - x + 1, centred by x^-3, at x = q^2.
        self.assertEqual(
            oracles.alexander_torus(3, 4),
            {(0, -6, 0): 1, (0, -4, 0): -1, (0, 0, 0): 1, (0, 4, 0): -1, (0, 6, 0): 1},
        )


class SpeedProbeTest(unittest.TestCase):
    def test_samples_then_the_process_ends(self):
        with speed.SpeedProbe() as probe:
            probe.sample()
            probe.sample()
        self.assertEqual(len(probe.samples), 2)
        self.assertTrue(all(t > 0 for t in probe.samples))
        self.assertIsNotNone(probe.proc.returncode)


class ChecksRejectPerturbedOutput(unittest.TestCase):
    def assert_rejects(self, op, out):
        self.assertIsNotNone(op.check(out), "%s accepted a perturbed output" % op.name)

    def test_torus(self):
        op = workloads.TorusOp(7)
        out = op.run()
        self.assertIsNone(op.check(out))
        self.assert_rejects(op, dict(out, s=out["s"] + 2))
        for n in (0, 1, 2):
            self.assert_rejects(op, dict(out, h={**out["h"], n: out["h"][n] + EXTRA}))
        wrong = workloads.TorusOp(8)
        self.assert_rejects(wrong, dict(out, s=2 * (8 - 1)))

    def test_stable(self):
        op = workloads.StableOp(4, 24)
        out = op.run()
        self.assertIsNone(op.check(out))
        self.assert_rejects(op, dict(out, violations=["d_1 squared is nonzero on 0 -> 1"]))
        self.assert_rejects(op, dict(out, h0=out["h0"] + EXTRA))
        self.assert_rejects(op, dict(out, h1=out["h1"] + EXTRA))
        self.assert_rejects(workloads.StableOp(4, 26), out)

    def test_generic(self):
        for n in (3, 5):
            op = workloads.GenericOp(n, 20)
            out = op.run()
            self.assertIsNone(op.check(out))
            self.assert_rejects(op, out + EXTRA)

    def test_homfly(self):
        op = workloads.HomflyOp(3, 4)
        jones, product = op.run()
        self.assertIsNone(op.check((jones, product)))
        self.assert_rejects(op, (jones, product + Poly3.monomial(1, 2, 0, 0)))
        shifted = product + Poly3.monomial(1, 0, 2, 0)
        self.assert_rejects(op, (shifted, shifted))

    def test_cli(self):
        ops, _ = workloads.homfly_cli(random.Random(1))
        ops = [op for op in ops if isinstance(op, workloads.CliOp)]
        self.assertEqual(
            {op.argv[0] for op in ops},
            {"homfly", "super", "reduce", "stable", "check", "render", "verify"},
        )
        for op in ops:
            status, stdout, stderr = op.run()
            self.assertIsNone(op.check((status, stdout, stderr)), op.name)
            self.assert_rejects(op, (1, stdout, stderr))
            self.assert_rejects(op, (status, self.perturb(op, stdout), stderr))
            self.assert_rejects(op, (status, "not a polynomial\n", stderr))

    @staticmethod
    def perturb(op, stdout):
        command = op.argv[0]
        if command == "check":
            return stdout.replace("PASS", "FAIL", 1)
        if command == "verify":
            return stdout.replace("OK", "INVALID")
        if command == "render" and "svg" in op.argv:
            return stdout.replace("</svg>", "")
        if command == "render":
            return stdout.replace("a=", "#", 1)
        return stdout.rstrip("\n") + " + 1*a^0*q^2*t^1\n"


if __name__ == "__main__":
    unittest.main()
