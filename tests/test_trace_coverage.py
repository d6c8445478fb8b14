"""Every point the benchmark's tracer patches is reached by a traced pass.

tests/test_trace_points.py checks that each patched name exists; a name that
exists but is never called passes it, and its per-layer metric is then
missing or NaN.  This runs bench/pipeline.py traced on the small input of
tests/test_bench_pipeline.py and reads the trace it writes: every span name
of bench/tracing.py occurs, and every counter is above zero.  It also checks
the objects the benchmark's hooks read: `lexica.rows` counts each input
file's rows after last-wins duplicates, the labels the batches carry make
`model.encode_cache_hit_ratio` finite, and the per-layer metrics are strict
JSON.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from test_bench_pipeline import ROOT, inputs  # noqa: F401  (inputs is a fixture)
from test_trace_points import tracing


def test_every_trace_point_is_called(tmp_path, inputs):  # noqa: F811
    spec = dict(inputs, src=str(ROOT / "src"), seed=1, epochs=1, train_words=None,
                modes=["fused-beta"], out_dir=str(tmp_path), trace=True)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "pipeline.py"), str(spec_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    seen = {trace["names"][span[0]] for span in trace["spans"]}
    never = sorted({name for name, *_ in tracing.SPANS} - seen)
    assert not never, f"spans never recorded: {never}"
    counts = trace["counts"]
    zero = sorted(name for name, *_ in tracing.COUNTERS if not counts.get(name, 0) > 0)
    assert not zero, f"counters never incremented: {zero}"

    # each parse span read one input file; lexica.rows adds up their rows
    rows = 0
    for path in inputs["views"]:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        rows += len({line.split("\t")[0].casefold() for line in lines if line and line[0] != "#"})
    n_parses = sum(trace["names"][span[0]] == "lexica.parse" for span in trace["spans"])
    assert n_parses % len(inputs["views"]) == 0
    assert counts["lexica.rows"] == n_parses // len(inputs["views"]) * rows

    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert counts["model.labels_evaluated"] > 0
    assert math.isfinite(result["layers"]["model.encode_cache_hit_ratio"])
    json.dumps(result["layers"], allow_nan=False)
