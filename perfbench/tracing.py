"""Per-layer timing spans for a traced benchmark run.

The tracer replaces the public functions that ``cli``, ``modrep``, ``curve``
and ``closedform`` call across layer boundaries with timing wrappers, keeps
every span in memory with its parent, and turns a round's spans into the
per-layer metrics.  Only traced runs import this module.

Layers are the package modules; a span's layer is the part of its name before
the first dot.  Functions are rebound in every module that names them except
``ff`` itself, so ``ff`` kernels are timed where other layers call them and
their internal calls to each other stay inside one span.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

import drinfeld
from drinfeld import cli, closedform, curve, ff, modrep

# Modules whose bindings are rebound; the package namespace is included so
# calls through ``drinfeld.<name>`` are timed too.
_IMPORTERS = (drinfeld, cli, closedform, curve, modrep)


def _arg_cells(args, out):
    shape = np.shape(args[0])
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _out_cells(args, out):
    return out.rows * out.cols


def _table_path(args):
    return args[0].ctx.r > 1


# (defining module, attribute, span name, cells of one call or None)
_FUNCTIONS = (
    (ff, "rref_array", "ff.rref", _arg_cells),
    (ff, "kernel_array", "ff.kernel", _arg_cells),
    (ff, "rank_array", "ff.rank", _arg_cells),
    (ff, "inv_array", "ff.inv", _arg_cells),
    (ff, "matpow_array", "ff.matpow", _arg_cells),
    (curve, "action_matrix", "curve.action", _out_cells),
    (modrep, "h0_module", "modrep.h0_module", None),
    (modrep, "decompose_b_oracle", "modrep.b_oracle", None),
    (modrep, "comp_factors_oracle", "modrep.comp_factors", None),
    (modrep, "induce_to_g", "modrep.induce", None),
    (modrep, "_solve_exact", "modrep.cartan_solve", None),
    (modrep, "cartan_check", "modrep.cartan", None),
    (modrep, "verify_full", "modrep.verify", None),
    (closedform, "b_decomposition", "closedform.b_decomposition", None),
    (closedform, "comp_factors_h0", "closedform.comp_factors_h0", None),
    (closedform, "g_decomposition", "closedform.g_decomposition", None),
    (closedform, "c_abt", "closedform.c_abt", None),
    (closedform, "proj_cover_factors", "closedform.proj_cover_factors", None),
    (cli, "main", "cli.main", None),
)

# (class, method, span name, cells or None, predicate on args or None);
# FqMatrix ops are spans only on the table-driven r > 1 path.
_METHODS = (
    (modrep.ModuleRep, "validate", "modrep.validate", None, None),
    (curve.BasisSet, "__init__", "curve.basis", None, None),
    (ff.FqMatrix, "__matmul__", "ff.fq_matmul", None, _table_path),
    (ff.FqMatrix, "inv", "ff.fq_inv", None, _table_path),
)

# Per-layer metric -> unit; the traced run reports exactly these.
PER_LAYER_UNITS = {
    "modrep.comp_factors_s": "s",
    "modrep.validate_s": "s",
    "modrep.b_oracle_s": "s",
    "modrep.induce_s": "s",
    "modrep.cartan_solve_s": "s",
    "modrep.self_s": "s",
    **{f"ff.{k}_{suffix}": ("s" if suffix == "s" else "count")
       for k in ("rref", "kernel", "rank", "inv", "matpow") for suffix in ("s", "calls")},
    "ff.rref_cells": "count",
    "ff.kernel_cells": "count",
    "ff.max_cells": "count",
    "ff.fq_matmul_s": "s",
    "ff.fq_inv_s": "s",
    "ff.fq_calls": "count",
    "curve.basis_s": "s",
    "curve.action_s": "s",
    "curve.action_calls": "count",
    "curve.action_cells": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "closedform.s": "s",
    "closedform.calls": "count",
    "host.steal_s": "s",
    "host.ref_ms": "ms",
    "trace.overhead": "ratio",
    "trace.uncovered_frac": "ratio",
}

# Stage metric -> span name whose outermost inclusive time it reports.
_STAGE_SPANS = {
    "modrep.comp_factors_s": "modrep.comp_factors",
    "modrep.validate_s": "modrep.validate",
    "modrep.b_oracle_s": "modrep.b_oracle",
    "modrep.induce_s": "modrep.induce",
    "modrep.cartan_solve_s": "modrep.cartan_solve",
    "ff.fq_matmul_s": "ff.fq_matmul",
    "ff.fq_inv_s": "ff.fq_inv",
    "curve.basis_s": "curve.basis",
    "curve.action_s": "curve.action",
    **{f"ff.{k}_s": f"ff.{k}" for k in ("rref", "kernel", "rank", "inv", "matpow")},
}


class Tracer:
    """Collects spans ``[name, parent index, start, end, cells]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, cells=None, when=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if cells is not None:
                rec[4] = cells(args, out)
            return out

        return wrapper

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for home, attr, name, cells in _FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, cells)
            for mod in _IMPORTERS:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr, name, cells, when in _METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, cells, when))
        return self

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def reset(self):
        """Drop collected spans; returns the ones dropped."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def _durations(spans):
    """Each span's duration and self time (duration minus its children's)."""
    dur = [s[3] - s[2] for s in spans]
    own = dur[:]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            own[s[1]] -= dur[i]
    return dur, own


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one round from its spans and its wall time.

    ``<stage>_s`` is the inclusive time of the outermost spans of that name,
    ``<layer>.self_s`` a layer's span time minus its children's, and
    ``trace.uncovered_frac`` the share of the round no top-level span covers
    (the benchmark's own checking and bookkeeping).
    """
    dur, own = _durations(spans)

    def nested_in(i, pred):
        j = spans[i][1]
        while j >= 0:
            if pred(spans[j][0]):
                return True
            j = spans[j][1]
        return False

    outer = {}
    calls = {}
    for i, s in enumerate(spans):
        name = s[0]
        if not nested_in(i, name.__eq__):
            outer[name] = outer.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1

    def layer_self(layer):
        return sum((own[i] for i, s in enumerate(spans) if s[0].startswith(layer + ".")), 0.0)

    def cells(name):
        return sum(s[4] for s in spans if s[0] == name)

    closed_outer = [
        i for i, s in enumerate(spans)
        if s[0].startswith("closedform.") and not nested_in(i, lambda nm: nm.startswith("closedform."))
    ]
    metrics = {metric: outer.get(span, 0.0) for metric, span in _STAGE_SPANS.items()}
    for k in ("rref", "kernel", "rank", "inv", "matpow"):
        metrics[f"ff.{k}_calls"] = calls.get(f"ff.{k}", 0)
    metrics.update({
        "modrep.self_s": layer_self("modrep"),
        "ff.rref_cells": cells("ff.rref"),
        "ff.kernel_cells": cells("ff.kernel"),
        "ff.max_cells": max((s[4] for s in spans if s[0].startswith("ff.")), default=0),
        "ff.fq_calls": calls.get("ff.fq_matmul", 0) + calls.get("ff.fq_inv", 0),
        "curve.action_calls": calls.get("curve.action", 0),
        "curve.action_cells": cells("curve.action"),
        "cli.self_s": layer_self("cli"),
        "closedform.s": sum(dur[i] for i in closed_outer),
        "closedform.calls": len(closed_outer),
        "trace.uncovered_frac": (wall_s - sum(dur[i] for i, s in enumerate(spans) if s[1] < 0)) / wall_s,
    })
    return metrics


def span_summary(spans):
    """Calls, inclusive and self seconds per span name, for the trace file."""
    dur, own = _durations(spans)
    out = {}
    for i, s in enumerate(spans):
        rec = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += dur[i]
        rec["self_s"] += own[i]
    return out


def host_steal_s():
    """Machine-wide stolen CPU seconds so far, from /proc/stat (0.0 where the
    file or its steal column is missing)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
