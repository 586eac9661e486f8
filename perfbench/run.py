"""Run one workload of the superpoly benchmark and print its metrics.

    python3 perfbench/run.py --workload torus-t3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The process is single-threaded.  It repeats whole rounds of the
workload's operation list until `--seconds` have passed, checks every
output outside the timed region, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (median
round time), `largest_op_s` (median time of the workload's pinned largest
input), `peak_rss_mb`, and `setup_s` (median over fresh interpreters,
started before and after the rounds, of the time from process start to
ready).  The three times are scaled to the reference machine speed by
`speed.py`; the unscaled times and the scale go to the result file.  With
`--trace 1` the library is wrapped by `tracer` and the metrics are the
per-layer ones, unscaled, as medians over rounds.
Result and span files go to `perfbench/out/`.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
SPEED_EVERY_S = 1.0


def use_checkout_source():
    """Import superpoly from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import superpoly

    if not os.path.abspath(superpoly.__file__).startswith(SRC + os.sep):
        raise ImportError("superpoly imported from %s, not %s" % (superpoly.__file__, SRC))


def setup(workload, seed):
    """Import the package, load the bundled table, generate the inputs.

    Returns (ops, largest), or None for an unknown workload name.
    """
    use_checkout_source()
    import superpoly.cli  # noqa: F401  (the CLI and the checks battery)
    from superpoly.dataset import load_dataset

    import workloads

    load_dataset()
    if workload not in workloads.WORKLOADS:
        return None
    return workloads.make(workload, seed)


def setup_samples(workload, seed, count):
    """Process start to ready, in `count` fresh interpreters one after another."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_rounds(ops, seconds, tracer, speed_probe):
    """Whole rounds of ops until `seconds` have passed; per-round op times.

    With a speed probe, a probe sample is taken before an operation whenever
    SPEED_EVERY_S have passed since the last one.
    """
    rounds = []
    attempted = failed = wrong = 0
    began = time.perf_counter()
    last_probe = None
    while True:
        if tracer is not None:
            tracer.begin_round()
        times = []
        for op in ops:
            if speed_probe is not None and (
                last_probe is None or time.perf_counter() - last_probe >= SPEED_EVERY_S
            ):
                speed_probe.sample()
                last_probe = time.perf_counter()
            gc.collect()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                out = op.run()
                problem = None
            except Exception:  # a raising operation is a failed one; keep going
                out = None
                problem = "raised:\n" + traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            times.append(elapsed)
            attempted += 1
            if problem is None:
                problem = op.check(out)
                wrong += problem is not None
            if problem is not None:
                failed += 1
                print("FAILED %s: %s" % (op.name, problem), file=sys.stderr)
            del out
        rounds.append(times)
        if time.perf_counter() - began >= seconds:
            return rounds, attempted, failed, wrong


def end_to_end(rounds, largest, setup_s, scale):
    """The end-to-end metrics; times are multiplied by the speed scale."""
    return {
        "wall_s": {"value": scale * statistics.median(sum(r) for r in rounds), "unit": "s"},
        "largest_op_s": {
            "value": scale * statistics.median(r[largest] for r in rounds),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "setup_s": {"value": scale * setup_s, "unit": "s"},
    }


def per_layer(tracer):
    from tracer import METRICS

    totals = tracer.round_totals()
    metrics = {}
    for name, layer, field, unit in METRICS:
        pick = statistics.median if unit == "s" else statistics.median_low
        value = pick(t[layer][field] for t, _ in totals)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(o for _, o in totals)
    return metrics, overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        made = setup(args.workload, args.seed)
    except ImportError as exc:
        print("cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    if made is None:
        parser.error("unknown workload %r" % args.workload)
    ops, largest = made
    if args.probe_setup:
        print("ready %r" % time.monotonic())
        return 0
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.name for op in ops],
        "largest_op": largest.name,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        rounds, attempted, failed, wrong = run_rounds(ops, args.seconds, tracer, None)
        tracer.uninstall()
        metrics, overhead = per_layer(tracer)
        record["traced_wall_s"] = statistics.median(sum(r) for r in rounds)
        record["size_overhead_s"] = overhead
        record["spans"] = len(tracer.layer)
        tracer.write(stem + ".spans.tsv.gz")
    else:
        # Half the set-up probes run before the rounds and half after, so
        # that they sample the same stretch of time as the operations.
        probes = setup_samples(args.workload, args.seed, SETUP_PROBES // 2 + 1)
        with speed.SpeedProbe() as speed_probe:
            rounds, attempted, failed, wrong = run_rounds(ops, args.seconds, None, speed_probe)
        probes += setup_samples(args.workload, args.seed, SETUP_PROBES // 2)
        scale = speed.REFERENCE_S / statistics.median(speed_probe.samples)
        metrics = end_to_end(rounds, ops.index(largest), statistics.median(probes), scale)
        record["setup_samples_s"] = probes
        record["speed_samples_s"] = speed_probe.samples
        record["scale"] = scale
    record["round_op_s"] = rounds
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("%s seed %d: %d rounds, wall_s per round %s" % (
        args.workload, args.seed, len(rounds), " ".join("%.3f" % sum(r) for r in rounds)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
