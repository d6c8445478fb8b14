"""lexifuse benchmark: three synthetic pipeline workloads, end-to-end and
per-layer metrics, correctness checks.

Usage (from the repository root):
    python3 bench/run.py --workload fuse-train --seed 0 --seconds 20 --trace 0

The seed drives synth_generate; its views and corpus are written to files
before any timing, so the pipeline receives only files.  Each pass of the
workload runs in a fresh process (bench/pipeline.py) with a different
PYTHONHASHSEED.  With --trace 0 passes repeat until --seconds have been
measured (at least two, so same-seed reruns can be compared byte for byte)
and the end-to-end metrics are medians over passes.  With --trace 1 one
untraced pass is followed by two traced ones; the per-layer metrics are
medians over the traced passes.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# Whole-run limit: every pass gets the time that is left of it.
DEADLINE_S = 170.0
TRACED_PASSES = 2
MIN_RECOVERY = 0.90  # acceptance criterion 4


@dataclass(frozen=True)
class Workload:
    n_words: int
    views_per_family: int
    n_texts: int
    n_train_texts: int
    epochs: int
    train_words: int | None  # None trains on the whole vocabulary
    modes: tuple[str, ...]


ALL_MODES = ("fused-mean", "fused-beta", "concat",
             "single:bin0", "single:pair0", "single:rater0", "single:sig0")

# Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "fuse-train": Workload(2000, 2, 2500, 2000, 4, None, ("fused-beta",)),
    "eval-modes": Workload(500, 1, 2500, 2000, 1, None, ALL_MODES),
    "export-large": Workload(50000, 2, 500, 400, 1, 256, ("fused-beta",)),
}

END_TO_END = {  # name -> (unit, better)
    "pipeline_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_word_epochs_per_s": ("1/s", "higher"),
    "export_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# The end-to-end metrics BENCHMARK.json bounds and the result line carries:
# the ones steady on every workload (bench/README.md, "Steadiness").
GATED = ("pipeline_s", "setup_s", "peak_rss_mb")
# Span names whose share of the train stage is printed in a traced run.
SHARES = ("model.encode", "model.decode_emit", "tape.backward", "distributions.sample",
          "distributions.kl", "training.batch_gradient", "training.adam", "training.noise",
          "model.checkpoint_write")
QUALITY = {  # printed and checked, not gated by BENCHMARK.json
    "final_mean_elbo": ("nats/word", "higher"),
    "recovery": ("ratio", "higher"),
    "fused_beta_accuracy": ("ratio", "higher"),
    "fused_margin": ("ratio", "higher"),
    "failed_ratio": ("ratio", "lower"),
}


def blas_threads() -> int | str:
    """Thread count of numpy's bundled OpenBLAS, read through its C API."""
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def prepare(w: Workload, seed: int, inputs: Path) -> tuple[dict, dict, dict]:
    """Write the workload's views and corpus split; returns (file spec,
    input record, ground-truth class per word)."""
    from lexifuse.evaluation import split_corpus, synth_generate, write_corpus
    from lexifuse.lexica import write_lexicon
    from lexifuse.rng import RngStream

    inputs.mkdir(parents=True)
    data = synth_generate(w.n_words, w.views_per_family, 0.1, w.n_texts, 20, RngStream(seed))
    views = []
    for view in data.views:
        path = inputs / f"{view.id}.tsv"  # the file stem is the view id
        write_lexicon(view, path)
        views.append(str(path))
    train, test = split_corpus(data.corpus, w.n_train_texts)
    write_corpus(inputs / "corpus_train.tsv", train, seed=seed)
    write_corpus(inputs / "corpus_test.tsv", test, seed=seed)
    labels = sum(len(v.entries) for v in data.views)
    words = len(set().union(*(v.entries for v in data.views)))
    record = {
        "seed": seed,
        "words": words,
        "views": len(data.views),
        "mean_views_per_word": labels / words,
        "texts": len(data.corpus),
        "tokens": sum(len(t) for t in data.corpus.texts),
        "epochs": w.epochs,
        "train_words": w.train_words or words,
        "modes": list(w.modes),
    }
    files = {
        "views": views,
        "corpus_train": str(inputs / "corpus_train.tsv"),
        "corpus_test": str(inputs / "corpus_test.tsv"),
    }
    return files, record, data.word_classes


def run_pass(k: int, traced: bool, base: dict, work: Path, deadline: float) -> dict:
    out = work / f"pass{k}"
    out.mkdir()
    spec = dict(base, out_dir=str(out), trace=traced)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED=str(k))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "pipeline.py"), str(spec_path)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"out": out, "traced": traced, "attempted": 1, "failed": 1,
                "errors": [f"pass {k} timed out"]}
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"out": out, "traced": traced, "attempted": 1, "failed": 1,
                "errors": [f"pass {k} exited {proc.returncode}: {' | '.join(tail)}"]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return dict(result, out=out, traced=traced)


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def recovery(unified_path: Path, truth: dict[str, int]) -> float:
    """Share of words in >= 2 views whose posterior argmax is the true class."""
    from lexifuse.unified import read_unified

    hits = n = 0
    for e in read_unified(unified_path).entries():
        if e.n_views >= 2:
            n += 1
            hits += max(range(3), key=lambda c: e.mean[c]) == truth[e.word]
    return hits / n


def checks(name: str, passes: list[dict], truth: dict, trace: bool) -> tuple[list, dict]:
    """Correctness checks over every pass; returns (checks, quality values)."""
    done = [p for p in passes if p["failed"] == 0 and "pipeline_s" in p]
    out: list[tuple[str, bool, str]] = []
    out.append(("every stage of every pass succeeded", len(done) == len(passes),
                "; ".join(e for p in passes for e in p["errors"]) or f"{len(passes)} passes"))
    if not done:
        return out, {}
    entries = {p["unified_entries"] for p in done}
    words = {p["words"] for p in done}
    out.append(("unified lexicon reads back, one entry per word",
                entries == words and len(entries) == 1, f"{entries} entries, {words} words"))
    elbos = [x for p in done for x in p["mean_elbo"]]
    out.append(("mean ELBO finite every epoch", all(math.isfinite(x) for x in elbos),
                f"final {done[0]['mean_elbo'][-1]:.6f}"))
    for artifact in ("unified.tsv", "checkpoint.json"):
        digests = {digest(p["out"] / artifact) for p in done}
        out.append((f"{artifact} byte-identical across {len(done)} same-seed passes"
                    + (" (traced and untraced)" if trace else ""),
                    len(digests) == 1 and None not in digests, f"{len(digests)} distinct"))
    quality = {
        "final_mean_elbo": done[0]["mean_elbo"][-1],
        "recovery": recovery(done[0]["out"] / "unified.tsv", truth),
        "fused_beta_accuracy": done[0]["accuracy"]["fused-beta"],
        "failed_ratio": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    }
    singles = [a for m, a in done[0]["accuracy"].items() if m.startswith("single:")]
    if singles:
        quality["fused_margin"] = quality["fused_beta_accuracy"] - max(singles)
    if name == "fuse-train":
        out.append((f"recovery >= {MIN_RECOVERY}", quality["recovery"] >= MIN_RECOVERY,
                    f"{quality['recovery']:.4f}"))
    traced = [p for p in done if p["traced"]]
    if trace:
        from tracing import REPEATABLE

        for metric in REPEATABLE:
            seen = {p["layers"].get(metric) for p in traced}
            out.append((f"{metric} repeats exactly", len(traced) == TRACED_PASSES and len(seen) == 1,
                        f"{sorted(seen, key=str)}"))
    return out, quality


def end_to_end(p: dict) -> dict[str, float]:
    s = p["stages"]
    return {
        "pipeline_s": p["pipeline_s"],
        "setup_s": statistics.median(p["setup_s"]),
        "train_word_epochs_per_s": p["train_words"] * len(p["mean_elbo"]) / p["train_in_s"],
        "export_s": s["export"],
        "eval_s": s["eval"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def show(name: str, value, unit: str, better: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<14} ({better} is better){note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lexifuse" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'lexifuse'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lexifuse

    if Path(lexifuse.__file__).resolve().parent != (SRC / "lexifuse").resolve():
        print(f"error: imported lexifuse from {lexifuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        files, inputs, truth = prepare(w, args.seed, work / "inputs")
        base = dict(files, src=str(SRC), seed=args.seed, epochs=w.epochs,
                    train_words=w.train_words, modes=list(w.modes))
        t0 = time.monotonic()
        passes = [run_pass(0, False, base, work, deadline)]
        if args.trace:
            for k in range(1, 1 + TRACED_PASSES):
                passes.append(run_pass(k, True, base, work, deadline))
        else:
            while True:
                took = time.monotonic() - t0
                if len(passes) >= 2 and took >= args.seconds:
                    break
                if time.monotonic() + took / len(passes) > deadline:
                    break
                passes.append(run_pass(len(passes), False, base, work, deadline))
        result_checks, quality = checks(args.workload, passes, truth, bool(args.trace))
        record = report(args, inputs, passes, result_checks, quality)
        trace = passes[-1]["out"] / "trace.json"
        if args.trace and trace.exists():
            shutil.copyfile(trace, OUT / f"{args.workload}.trace.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps(record["result"]))
    return 0


def report(args, inputs: dict, passes: list[dict], result_checks: list, quality: dict) -> dict:
    env = environment()
    print(f"lexifuse benchmark: workload {args.workload}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in inputs.items() if k != "modes"))
    done = [p for p in passes if p["failed"] == 0 and "pipeline_s" in p]
    untraced = [end_to_end(p) for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    metrics: dict[str, dict] = {}
    setup = [x for p in done if not p["traced"] for x in p["setup_s"]]
    e2e = medians(untraced)
    if setup:
        e2e["setup_s"] = statistics.median(setup)
    if not args.trace:
        print(f"end-to-end (median of {len(untraced)} untraced passes, setup_s of {len(setup)} "
              "ingests; too few samples for an upper percentile; * = bounded in BENCHMARK.json):")
        for name, (unit, better) in END_TO_END.items():
            if name in e2e:
                values = ", ".join(f"{r[name]:.4g}" for r in untraced)
                show(("* " if name in GATED else "  ") + name, e2e[name], unit, better,
                     f"  passes: {values}")
                if name in GATED:
                    metrics[name] = {"value": e2e[name], "unit": unit}
    else:
        from tracing import PER_LAYER, upper_percentile

        layers = medians([p["layers"] for p in traced])
        batch_ms = [ms for p in traced for ms in p["batch_ms"]]
        upper_label = ""
        if batch_ms and "training.batches" in layers:
            layers["training.batch_ms.p50"] = statistics.median(batch_ms)
            layers["training.batch_ms.upper"], upper_label = upper_percentile(batch_ms)
        skipped = sorted({m for p in traced for m in p["skipped"]})
        overhead = (statistics.median(p["pipeline_s"] for p in traced)
                    - statistics.median(r["pipeline_s"] for r in untraced)) if traced and untraced else None
        print(f"per-layer (traced self time, median of {len(traced)} traced passes):")
        for name, (unit, better, _) in PER_LAYER.items():
            if name in layers:
                note = f"  ({upper_label}, pooled over traced passes)" if name.endswith(".upper") else ""
                show(name, layers[name], unit, better, note)
                metrics[name] = {"value": layers[name], "unit": unit}
        if overhead is not None:
            show("trace.overhead_s", overhead, "s", "lower",
                 "  (traced minus untraced pipeline_s)")
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if traced:
            # Shares of the train stage's wall time, as the cProfile baseline
            # in ROADMAP.md reports them.
            self_s = medians([p["self_s"] for p in traced])
            train_s = statistics.median(p["stages"]["train"] for p in traced)
            print("  shares of traced train stage: " + ", ".join(
                f"{k} {100 * self_s[k] / train_s:.1f}%" for k in SHARES if k in self_s))
        print("  skipped (patch point absent): " + (", ".join(skipped) or "none"))
    print("quality:")
    for name, (unit, better) in QUALITY.items():
        if name in quality:
            show(name, quality[name], unit, better)
    print("checks:")
    for label, ok, detail in result_checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    correct = bool(result_checks) and all(ok for _, ok, _ in result_checks)
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    return {"environment": env, "inputs": inputs, "checks": result_checks, "quality": quality,
            "end_to_end": e2e,
            "passes": [{k: v for k, v in p.items() if k not in ("layers", "self_s")} for p in passes],
            "result": result}


if __name__ == "__main__":
    sys.exit(main())
