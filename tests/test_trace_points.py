"""Every point the benchmark's tracer patches still exists in the package.

bench/tracing.py wraps library functions by (module, attribute) and lists a
metric as skipped when its point is gone, so a rename would otherwise pass
unnoticed.  The module is loaded from its file and only read: nothing is
patched here.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
POINTS = sorted(
    {(module, attr) for _, module, attr, _ in tracing.SPANS}
    | {(module, attr) for _, module, attr in tracing.COUNTERS}
)


@pytest.mark.parametrize("module,attr", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_trace_point_resolves(module, attr):
    assert tracing._resolve(module, attr) is not None, f"{module}.{attr} is gone"
