"""Benchmark of the drinfeld package on four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S    # every workload

Run from the repository root; the package is imported from ``src/``.  The
items of a workload (``workloads.py``) run in rounds, each round in a fresh
order drawn from the seed, and every answer is checked.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

* ``--trace 0``: the end-to-end metrics.  Items run until the next one is not
  expected to end within ``--seconds`` (the first round always completes).
  ``run_s`` and ``cpu_s`` are the time of one round: the sum over items of
  each item's median wall and CPU time.  ``peak_rss_mb`` is the process's
  peak resident memory, and ``setup_s`` the median over fresh processes of
  the time to import drinfeld and build the items.
* ``--trace 1``: one untraced round, then traced rounds while the next is
  expected to end within ``--seconds`` (at least one); the per-layer metrics
  of ``tracing.py`` are medians over the traced rounds.

Host speed.  On a virtual machine whose cores are shared with other tenants,
speed can drift by a third or more within minutes.  So every reported time is
scaled to a nominal host: a fixed reference computation that does not
use drinfeld is timed every ``REF_EVERY_S`` between items (and before each
set-up probe), and times are multiplied by ``REF_NOMINAL_S`` over the median
reference time measured alongside them.  The unscaled times, the reference
timings and the factor are printed and kept in the results file.

An item that raises (``GuardError`` included), exits or gives a wrong answer
counts as failed; it does not stop the run.  Each run also writes
``perfbench/results/<workload>-seed<N>-trace<T>.json`` with the environment
(nproc, Python, numpy), the samples and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("sweep", "h0-large", "cartan", "extfield")
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 7
REF_SAMPLES = 4
REF_EVERY_S = 1.0
REF_NOMINAL_S = 0.030


def import_workloads():
    """Import drinfeld from this checkout's ``src/`` and the workload module."""
    if not (SRC / "drinfeld" / "__init__.py").is_file():
        sys.exit(f"error: no drinfeld package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(workload):
    """Time one fresh process's import of drinfeld and build of the items."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def reference_s():
    """One timing of a fixed computation that does not use drinfeld, in parts
    like the items' work: a pure-Python loop, int64 matrix products mod p
    that fit in cache and that do not, and elementwise int64 work on an array
    larger than the cache."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc = (acc * 31 + i) % 1000003
    a = np.arange(128 * 128, dtype=np.int64).reshape(128, 128) % 13
    for _ in range(2):
        a = (a @ a + acc) % 13
    b = np.arange(224 * 224, dtype=np.int64).reshape(224, 224) % 13
    b = (b @ b.T + acc) % 13
    big = np.arange(1 << 19, dtype=np.int64)
    big = (big * 31 + acc) % 1000003
    return time.perf_counter() - t0


class HostSpeed:
    """Reference timings taken alongside the measured work."""

    def __init__(self):
        self.samples = []
        self._next = 0.0

    def sample(self):
        self.samples.extend(reference_s() for _ in range(REF_SAMPLES))
        self._next = time.perf_counter() + REF_EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self):
        """Factor that turns a time measured here into nominal-host time."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def run_item(item, host):
    """Run one item; returns ``(wall_s, cpu_s, ok, output_bytes)``."""
    host.sample_if_due()
    gc.collect()  # each item starts from the same heap, whatever ran before
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        ok, out_bytes = item.run()
    except (Exception, SystemExit) as exc:  # a failed item, not a failed run
        print(f"item {item.name!r} raised {exc!r}", file=sys.stderr)
        ok, out_bytes = False, 0
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if not ok:
        print(f"item {item.name!r} failed", file=sys.stderr)
    return wall, cpu, ok, out_bytes


def shuffled(items, rng):
    order = items[:]
    rng.shuffle(order)
    return order


def run_round(items, rng, host):
    """Every item once, in a seeded order; returns a list of samples."""
    return [run_item(item, host) for item in shuffled(items, rng)]


def round_wall(samples):
    return sum(s[0] for s in samples)


def sample_items(items, rng, deadline, host):
    """Rounds of the items until the next item is not expected to end by
    ``deadline``; returns ``{name: [sample, ...]}``."""
    samples = {item.name: [] for item in items}
    while True:
        for item in shuffled(items, rng):
            done = samples[item.name]
            if done and time.perf_counter() + statistics.median(s[0] for s in done) > deadline:
                return samples
            done.append(run_item(item, host))


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def measure_untraced(items, rng, deadline, host, report):
    samples = sample_items(items, rng, deadline, host)
    report["samples"] = samples
    wall = sum(statistics.median(s[0] for s in runs) for runs in samples.values())
    cpu = sum(statistics.median(s[1] for s in runs) for runs in samples.values())
    report["unscaled"] = {"run_s": wall, "cpu_s": cpu}
    metrics = {
        "run_s": wall * host.scale(),
        "cpu_s": cpu * host.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, [s for runs in samples.values() for s in runs]


def measure_traced(workloads, items, rng, deadline, host, report):
    import tracing

    steal0 = tracing.host_steal_s()
    plain = run_round(items, rng, host)
    rounds, per_round = [], []
    with tracing.Tracer() as tracer:
        while True:
            rec = run_round(items, rng, host)
            spans = tracer.reset()
            rounds.append(rec)
            per_round.append(tracing.layer_metrics(spans, round_wall(rec)))
            per_round[-1]["cli.output_bytes"] = sum(s[3] for s in rec)
            if time.perf_counter() + statistics.fmean(map(round_wall, rounds)) > deadline:
                break
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    report["unscaled"] = dict(metrics)
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if unit == "s" and name in metrics:
            metrics[name] *= host.scale()
    metrics["host.steal_s"] = tracing.host_steal_s() - steal0
    metrics["host.ref_ms"] = statistics.median(host.samples) * 1e3
    metrics["trace.overhead"] = statistics.median(map(round_wall, rounds)) / round_wall(plain)
    report["rounds"] = [plain] + rounds
    report["span_summary_last_round"] = tracing.span_summary(spans)
    report["spans_last_round"] = spans
    report["predictions"] = workloads.PREDICTIONS
    return metrics, [s for rec in [plain] + rounds for s in rec]


def measure(workloads, workload, seed, seconds, trace):
    setup_host = HostSpeed()
    setup = []
    for _ in range(SETUP_PROBES):
        setup_host.sample()
        setup.append(setup_probe(workload))
    items = workloads.build(workload)
    rng = random.Random(seed)
    host = HostSpeed()
    deadline = time.perf_counter() + seconds
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_samples_s": setup,
              "setup_reference_s": setup_host.samples}
    if trace:
        import tracing

        metrics, flat = measure_traced(workloads, items, rng, deadline, host, report)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, flat = measure_untraced(items, rng, deadline, host, report)
        metrics["setup_s"] = statistics.median(setup) * setup_host.scale()
        units = END_TO_END_UNITS
    report["reference_s"] = host.samples
    report["host_scale"] = host.scale()
    attempted = len(flat)
    failed = sum(not s[2] for s in flat)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))
    env = report["environment"]
    unscaled = ", ".join(f"{k} {report['unscaled'][k]:.6g}" for k in ("run_s", "cpu_s")
                         if k in report["unscaled"])
    print(f"{workload}: {attempted} items run, {failed} failed (fail_frac {failed / attempted:.4f})")
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    print(f"host scale {host.scale():.4f}, set-up {setup_host.scale():.4f}; unscaled: "
          f"{unscaled + ', ' if unscaled else ''}setup_s {statistics.median(setup):.6g}")
    for name, rec in result["metrics"].items():
        print(f"  {workload} {name} = {rec['value']:.6g} {rec['unit']}")
    return result


def run_all(args):
    """Every workload, each in its own process; prints all metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with status {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, rec in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = rec
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        import_workloads().build(args.workload)
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(import_workloads(), args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
