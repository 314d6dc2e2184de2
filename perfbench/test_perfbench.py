"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_workloads()
import tracing  # noqa: E402


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _order(workload, seed):
    names = [item.name for item in workloads.build(workload)]
    random.Random(seed).shuffle(names)
    return names


def test_count_metrics_do_not_depend_on_seed():
    seeds = (1, 5)
    assert _order("sweep", seeds[0]) != _order("sweep", seeds[1])
    first, second = (_traced("sweep", seed) for seed in seeds)
    counts = [
        name for name in tracing.PER_LAYER_UNITS
        if name.endswith(("_calls", "_cells")) or name == "cli.output_bytes"
    ]
    assert first["failed"] == second["failed"] == 0
    assert first["metrics"]["ff.kernel_calls"]["value"] > 0
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_corrupted_pin_and_raising_item_count_as_failed():
    pins = workloads.load_pins()
    corrupted = dict(pins, q9_m6="0" * 64)

    def q9_item(item_pins):
        return next(i for i in workloads.build("extfield", item_pins) if i.name == "action q9_m6")

    items = [q9_item(pins), q9_item(corrupted), workloads.Item("raises", lambda: 1 // 0)]
    host = run.HostSpeed()
    assert [run.run_item(item, host)[2] for item in items] == [True, False, False]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _) in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
