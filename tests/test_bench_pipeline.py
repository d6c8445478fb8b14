"""The benchmark's pipeline pass still runs against the library.

bench/pipeline.py calls the library by name and bench/tracing.py patches it
by name, so a changed signature fails every benchmark pass, and a patch
point that exists but is never called reads as NaN in the result line.
This runs one untraced and one traced pass on a tiny synthetic input in a
subprocess, as bench/run.py does, and checks the result each writes.  It
reads bench/ and writes only under the test's temporary directory.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lexifuse.evaluation import split_corpus, synth_generate, write_corpus
from lexifuse.lexica import write_lexicon
from lexifuse.rng import RngStream

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench_inputs")
    data = synth_generate(60, 1, 0.1, 300, 20, RngStream(1))
    views = []
    for view in data.views:
        path = d / f"{view.id}.tsv"  # the benchmark reads the view id from the file stem
        write_lexicon(view, path)
        views.append(str(path))
    train, test = split_corpus(data.corpus, 240)
    write_corpus(d / "corpus_train.tsv", train, seed=1)
    write_corpus(d / "corpus_test.tsv", test, seed=1)
    return {
        "views": views,
        "corpus_train": str(d / "corpus_train.tsv"),
        "corpus_test": str(d / "corpus_test.tsv"),
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_pipeline_pass(tmp_path, inputs, trace):
    spec = dict(inputs, src=str(ROOT / "src"), seed=1, epochs=1, train_words=None,
                modes=["fused-beta"], out_dir=str(tmp_path), trace=trace)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "pipeline.py"), str(spec_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["failed"] == 0, result["errors"]
    assert result["unified_entries"] == result["words"]
    if trace:
        assert result["skipped"] == []
        bad = {k: v for k, v in result["layers"].items() if not math.isfinite(v)}
        assert not bad, f"non-finite per-layer metrics: {bad}"
