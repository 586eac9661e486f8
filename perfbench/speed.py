"""Machine-speed probe that scales the end-to-end times.

On a virtual machine shared with other tenants, the speed of the same
pure-Python code drifts by tens of percent over minutes, and ten runs in a
row then spread wider than any useful regression bound.  The probe times a
fixed piece of pure-Python work of the same kind as the engine's: a
tuple-keyed dict with a working set of tens of MB, sparse products and
Fraction elimination.  It imports nothing from `superpoly`, so no change to
the package moves it.

`run.py` keeps one probe process (`python3 perfbench/speed.py`) beside the
workload, asks it for a sample between operations, outside their timing,
and multiplies each end-to-end time by REFERENCE_S / (median sample of the
run): times are reported in seconds at the reference speed.  The probe runs
in its own process so that its memory does not show in `peak_rss_mb`.
"""

import gc
import subprocess
import sys
import time
from fractions import Fraction

# Median probe time on the machine the reference figures in README.md were
# taken on, so scaled times read close to wall time there.
REFERENCE_S = 0.23


def _dict_work():
    table = {}
    for i in range(150000):
        table[(i, i & 7, i % 13)] = [i, -i]
    total = 0
    for key, value in table.items():
        total += key[0] + value[1]
    return total


def _sparse_product():
    a = {(i % 5, 2 * i - 120, i % 7): (-1) ** i * (i + 1) for i in range(120)}
    b = {(i % 3, 120 - 2 * i, i % 4): i + 2 for i in range(120)}
    out = {}
    for (a1, q1, t1), c1 in a.items():
        for (a2, q2, t2), c2 in b.items():
            key = (a1 + a2, q1 + q2, t1 + t2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return len(out)


def _fraction_elimination():
    n = 16
    rows = [
        [Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 3) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows[n - 1][n - 1]


def probe():
    """Seconds the fixed work takes now."""
    gc.collect()
    start = time.perf_counter()
    _dict_work()
    _sparse_product()
    _fraction_elimination()
    return time.perf_counter() - start


class SpeedProbe:
    """The probe process; `sample()` returns one probe time in seconds."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.samples = []

    def sample(self):
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe process ended early")
        self.samples.append(float(line))

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    main()
