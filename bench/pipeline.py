"""One closed-loop pass of a benchmark workload, in a process of its own.

Usage: python3 bench/pipeline.py SPEC.json

The spec names the input files (views, train and test corpus), the package
source directory, the training epochs and word sample, the feature modes to
evaluate, the output directory and whether to trace.  The pass runs the
stages a user would run, in order: ingest (parse the views, read the
corpora, build the vocabulary, priors and observations), train (writes
the checkpoint), export (the `lexifuse export` command, then read_unified
of its output), eval (featurize, fit and score per feature mode) and
report (coverage plus the report CSV).  An untraced pass then repeats
ingest, untimed by pipeline_s, for up to 1 s or 10 times.  It writes result.json, and with
tracing on also trace.json, into the output directory.

A stage that raises LexifuseError (or a command that exits non-zero) is
counted as failed and ends the pass; nothing else is caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


SETUP_REPEAT_S = 1.0
SETUP_REPEATS = 10


class StageFailed(Exception):
    pass


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from lexifuse import cli, evaluation, lexica, model, rng, training, unified
    from lexifuse.errors import LexifuseError

    from tracing import Tracer, install, layer_metrics

    out = Path(spec["out_dir"])
    tracer = missing = None
    if spec["trace"]:
        tracer = Tracer()
        missing = install(tracer)

    stages: dict[str, float] = {}
    counts = {"attempted": 0, "failed": 0}
    errors: list[str] = []
    facts: dict = {}

    def stage(name: str, fn):
        counts["attempted"] += 1
        region = tracer.region(f"stage.{name}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with region:
                value = fn()
        except (LexifuseError, StageFailed) as e:
            counts["failed"] += 1
            errors.append(f"{name}: {e}")
            raise StageFailed(name) from e
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0
        return value

    def ingest():
        views = [lexica.parse_lexicon(p) for p in spec["views"]]
        tr = evaluation.read_corpus(spec["corpus_train"])
        te = evaluation.read_corpus(spec["corpus_test"])
        k = max(tr.n_classes, te.n_classes)
        tr = dataclasses.replace(tr, n_classes=k)
        te = dataclasses.replace(te, n_classes=k)
        vocab = lexica.build_vocabulary(views)
        priors = {w: lexica.compute_prior(w, views, vocab) for w in vocab.sorted_words()}
        obs = model.observations_from_views(views, vocab, priors)
        return views, tr, te, vocab, obs

    def fit(views, vocab, obs):
        n = spec["train_words"] or len(obs)
        sample = obs[:: max(1, len(obs) // n)][:n]
        config = training.TrainConfig(seed=spec["seed"], epochs=spec["epochs"])
        # Heads for every view even when the word sample misses one, so the
        # checkpoint covers all view files; on the full vocabulary this is
        # the same initial state train() builds itself.
        init = training.init_model(views, config, rng.stream_for(config.seed, "init"))
        t0 = time.perf_counter()
        result = training.train(
            vocab, sample, config, init_state=init,
            checkpoint_path=out / "checkpoint.json", log_path=out / "training_log.csv",
        )
        facts["train_in_s"] = time.perf_counter() - t0
        facts["train_words"] = len(sample)
        facts["mean_elbo"] = [row["mean_elbo"] for row in result.log]

    def export():
        argv = ["export", "--checkpoint", str(out / "checkpoint.json"),
                "--views", *spec["views"], "--out", str(out / "unified.tsv")]
        code = cli.main(argv)
        if code != 0:
            raise StageFailed(f"lexifuse export exited {code}")
        return unified.read_unified(out / "unified.tsv")

    t_start = time.perf_counter()
    try:
        views, tr, te, vocab, obs = stage("ingest", ingest)
        facts["words"] = len(obs)
        stage("train", lambda: fit(views, vocab, obs))
        lexicon = stage("export", export)
        facts["unified_entries"] = len(lexicon)
        featurizers = {
            mode: evaluation.make_featurizer(mode, unified=lexicon, views=views)
            for mode in spec["modes"]
        }
        accuracy = {}
        for mode, feat in featurizers.items():
            accuracy[mode] = stage("eval", lambda: evaluation.evaluate(tr, te, feat))
        facts["accuracy"] = accuracy

        def report():
            rows = [
                {"mode": mode, "dataset": "synth", "n_train": len(tr), "n_test": len(te),
                 "accuracy": acc, "coverage": evaluation.coverage(featurizers[mode], tr),
                 "feature_dim": featurizers[mode].dim}
                for mode, acc in accuracy.items()
            ]
            evaluation.write_report(out / "report.csv", rows, seed=spec["seed"])

        stage("report", report)
        facts["pipeline_s"] = time.perf_counter() - t_start
        facts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Ingestion is short on the small workloads, so an untraced pass
        # repeats it, after the pipeline, for a steadier setup_s median.
        setup = [stages["ingest"]]
        while not tracer and sum(setup) < SETUP_REPEAT_S and len(setup) < SETUP_REPEATS:
            t0 = time.perf_counter()
            ingest()
            setup.append(time.perf_counter() - t0)
        facts["setup_s"] = setup
    except StageFailed:
        pass

    result = {"stages": stages, "errors": errors, **counts, **facts}
    if tracer is not None:
        layers, self_s, batch_ms, skipped = layer_metrics(tracer, missing)
        result.update(layers=layers, self_s=self_s, batch_ms=batch_ms, skipped=skipped)
        tracer.dump(out / "trace.json")
    text = json.dumps(result, sort_keys=True, allow_nan=True)
    (out / "result.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
