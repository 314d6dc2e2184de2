"""The benchmark's workloads: fixed items that drive drinfeld's public entry
points, and the checks that decide whether each item's answer is right.

Every input is fixed; the seed only permutes the order in which the items
of a round run.  Items look their entry points up on the module at call time
(``cli.main``, ``modrep.cartan_check``, ...) so that the timing wrappers of a
traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from drinfeld import cli, closedform, curve, ff, modrep

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass
class Item:
    """One unit of work: ``run`` returns ``(answer_ok, output_bytes)``."""

    name: str
    run: Callable[[], tuple]


# Workload name -> (one-line reason it was chosen, item descriptions).
WORKLOADS = {
    "sweep": (
        "the main job, oracle-certified tables; ~80% in comp_factors_oracle "
        "hom-space kernels, so the Brauer oracle and _hom_basis show here",
        [
            "drinfeld sweep --p-values 3,5,7 --m-values 2,3,6 --format json",
            "drinfeld verify --p 11 --m 2 --format json",
        ],
    ),
    "h0-large": (
        "H0 at dim 378/385: ModuleRep.validate (int64 @, matpow) and the "
        "B-oracle, no composition factors; float matmul and blockwise show here",
        [
            "drinfeld decompose --p 11 --m 4 --oracle --format json",
            "drinfeld decompose --p 13 --m 3 --oracle --format json",
        ],
    ),
    "cartan": (
        "52 Cartan certificates on induced modules (socle oracle + Fraction "
        "solve), no H0; ff kernel work moves it, blockwise/Brauer must not",
        [
            "cartan_check(a, b, p) for p in (5, 7), a in [0, p-2], b in [1, p-1]",
        ],
    ),
    "extfield": (
        "the only r > 1 work: table-driven GF(p^r) action matrices, large JSON "
        "rendering and FqMatrix matmul/inverse",
        [
            "drinfeld action --p 3 --r 2 --m 6 --element 0,1 1 1 0,1 --format json",
            "drinfeld action --p 5 --r 2 --m 2 --element 0,1 1 1 3,3 --format json",
            "drinfeld action --p 3 --r 3 --m 2 --element 0,1,0 1 1 0,2,1 --format json",
            "q=9, m=6: M(g) @ M(w) == M(gw) and M(t) @ M(t).inv() == I",
        ],
    ),
}

# Which per-layer metric of the traced run should move which end-to-end
# metric, on which workloads, written down before any optimisation.
_FF_KERNEL_WORKLOADS = ["sweep", "cartan", "h0-large"]
PREDICTIONS = [
    ("modrep.comp_factors_s", "run_s", ["sweep", "cartan"]),
    ("modrep.validate_s", "run_s", ["h0-large"]),
    ("modrep.b_oracle_s", "run_s", ["h0-large"]),
    ("modrep.induce_s", "run_s", ["cartan"]),
    ("modrep.cartan_solve_s", "run_s", ["cartan"]),
    ("modrep.self_s", "run_s", ["h0-large", "sweep"]),
    *((f"ff.{k}_s", "run_s", _FF_KERNEL_WORKLOADS) for k in ("rref", "kernel", "rank", "inv", "matpow")),
    ("ff.max_cells", "peak_rss_mb", ["sweep"]),
    ("ff.fq_matmul_s", "run_s", ["extfield"]),
    ("ff.fq_inv_s", "run_s", ["extfield"]),
    ("curve.action_s", "run_s", ["extfield", "h0-large"]),
    ("curve.basis_s", "run_s", ["extfield"]),
    ("cli.self_s", "run_s", ["extfield"]),
    ("cli.output_bytes", "run_s", ["extfield"]),
    ("closedform.s", "run_s", ["sweep"]),
]

SWEEP_P = (3, 5, 7)
SWEEP_M = (2, 3, 6)
VERIFY_PM = (11, 2)
H0_LARGE_PM = ((11, 4), (13, 3))
CARTAN_P = (5, 7)
# (label, p, r, m, element tokens) of the extension-field action items
EXT_ACTIONS = (
    ("q9_m6", 3, 2, 6, ("0,1", "1", "1", "0,1")),
    ("q25_m2", 5, 2, 2, ("0,1", "1", "1", "3,3")),
    ("q27_m2", 3, 3, 2, ("0,1,0", "1", "1", "0,2,1")),
)
LAW_PRM = (3, 2, 6)


def call_cli(argv):
    """Run the ``drinfeld`` entry point in-process; returns (status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def matrix_digest(matrix):
    """sha256 of an action matrix given as parsed JSON cells."""
    return hashlib.sha256(np.asarray(matrix, dtype=np.int64).tobytes()).hexdigest()


def load_pins():
    return json.loads(PINS_PATH.read_text())


def _d_vector(report):
    """The oracle's d-vector of one verify record, read from the detail of its
    composition-factor check (the only place the output states it)."""
    check = next(c for c in report["checks"] if c["name"] == "composition factors")
    return tuple(int(v) for v in re.findall(r"-?\d+", check["detail"]))


def _expected_d(p, m):
    d = closedform.comp_factors_h0(m, p)
    return tuple(d[t] for t in range(1, p + 1))


def _verify_records_ok(records, expected):
    got = {(rec["p"], rec["m"]): rec for rec in records}
    if set(got) != set(expected):
        return False
    return all(
        rec["all_passed"] and _d_vector(rec) == expected[pm] for pm, rec in got.items()
    )


def _sweep_items():
    grid = {(p, m): _expected_d(p, m) for p in SWEEP_P for m in SWEEP_M}
    single = {VERIFY_PM: _expected_d(*VERIFY_PM)}
    argv_sweep = [
        "sweep",
        "--p-values", ",".join(map(str, SWEEP_P)),
        "--m-values", ",".join(map(str, SWEEP_M)),
        "--format", "json",
    ]
    argv_verify = ["verify", "--p", str(VERIFY_PM[0]), "--m", str(VERIFY_PM[1]), "--format", "json"]

    def run_sweep():
        status, out = call_cli(argv_sweep)
        doc = json.loads(out)
        ok = status == 0 and doc["all_passed"] and _verify_records_ok(doc["grid"], grid)
        return ok, len(out)

    def run_verify():
        status, out = call_cli(argv_verify)
        ok = status == 0 and _verify_records_ok([json.loads(out)], single)
        return ok, len(out)

    return [Item("sweep 3,5,7 x 2,3,6", run_sweep), Item("verify 11 2", run_verify)]


def _h0_large_items():
    def make(p, m):
        argv = ["decompose", "--p", str(p), "--m", str(m), "--oracle", "--format", "json"]

        def run():
            status, out = call_cli(argv)
            doc = json.loads(out)
            ok = status == 0 and doc["diff"] == [] and doc["oracle"] == doc["summands"]
            return ok, len(out)

        return Item(f"decompose --oracle {p} {m}", run)

    return [make(p, m) for p, m in H0_LARGE_PM]


def _cartan_items():
    def make(a, b, p):
        def run():
            return modrep.cartan_check(a, b, p).ok, 0

        return Item(f"cartan {a} {b} {p}", run)

    return [make(a, b, p) for p in CARTAN_P for a in range(p - 1) for b in range(1, p)]


def _group_law_ok():
    p, r, m = LAW_PRM
    ctx = ff.make_field(p, r)
    basis = curve.BasisSet(p**r, m)
    g = curve.GroupElement(ctx.element([0, 1]), ctx.one, ctx.one, ctx.element([0, 1]))
    w, t = modrep.w_gen(ctx), modrep.t_gen(ctx)
    Mg, Mw, Mgw, Mt = (curve.action_matrix(x, basis) for x in (g, w, g * w, t))
    law = (Mg @ Mw) == Mgw
    inverse = (Mt @ Mt.inv()) == ff.FqMatrix.identity(ctx, len(basis))
    return law and inverse, 0


def _extfield_items(pins):
    def make(label, p, r, m, element):
        argv = ["action", "--p", str(p), "--r", str(r), "--m", str(m), "--element", *element, "--format", "json"]

        def run():
            status, out = call_cli(argv)
            doc = json.loads(out)
            ok = (
                status == 0
                and (doc["q"], doc["m"]) == (p**r, m)
                and matrix_digest(doc["matrix"]) == pins[label]
            )
            return ok, len(out)

        return Item(f"action {label}", run)

    items = [make(*spec) for spec in EXT_ACTIONS]
    items.append(Item("group law q9_m6", _group_law_ok))
    return items


def build(name, pins=None):
    """The item list of one workload; ``pins`` overrides the committed
    action-matrix digests (the benchmark's own test corrupts one)."""
    if name == "sweep":
        return _sweep_items()
    if name == "h0-large":
        return _h0_large_items()
    if name == "cartan":
        return _cartan_items()
    if name == "extfield":
        return _extfield_items(load_pins() if pins is None else pins)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
