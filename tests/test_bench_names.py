"""The names that the benchmark harness binds in the package.

perfbench/tracing.py wraps functions and methods by name, and the extfield
workload's group-law check multiplies, inverts and compares FqMatrix
values, so a trim of the package that drops one of them breaks the
benchmark.  The harness files are imported as they are, by path.
"""

import importlib.util
import sys
from pathlib import Path

from drinfeld import ff

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_binds_resolves():
    tracing = _load("tracing")
    for home, attr, *_ in tracing._FUNCTIONS:
        assert callable(getattr(home, attr, None)), (home.__name__, attr)
    for cls, attr, *_ in tracing._METHODS:
        # Tracer.install reads the method from the class's own namespace
        assert callable(vars(cls).get(attr)), (cls.__name__, attr)
    with tracing.Tracer():  # installs every wrapper, and takes them out on exit
        pass


def test_the_group_law_check_runs_on_fqmatrix():
    for attr in ("identity", "__matmul__", "inv", "__eq__"):
        assert attr in vars(ff.FqMatrix), attr
    assert _load("workloads")._group_law_ok() == (True, 0)
