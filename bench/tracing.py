"""Outside-in tracing of the lexifuse pipeline for the benchmark.

Public functions are wrapped at the module attribute their caller looks up
(export_lexicon calls posterior_params through lexifuse.unified, so that is
the name patched), so no file of the package changes.  Each wrapped call
records a span (name, start, end, parent) in memory; a few hot inner
functions only bump a counter.  Per-layer metrics are computed from the
spans once the pass is over, and the spans are written to a file then.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  A patch point that no longer exists is skipped, and
every metric that reads it is listed as skipped instead of reported.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans kept as parallel lists, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(counts, args, result) runs once it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "clock": "perf_counter_ns",
            "names": table,
            "columns": ["name", "start", "end", "parent"],
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def _rows(counts, args, view):
    counts["lexica.rows"] += len(view)


def _labels(counts, args, result):
    counts["model.labels_evaluated"] += sum(len(obs.labels) for obs in args[1])


def _nodes(counts, args, result):
    counts["tape.nodes"] += len(args[0])


def _file_bytes(key):
    def after(counts, args, result):
        counts[key] += os.path.getsize(args[0])

    return after


def _tokens(counts, args, result):
    counts["evaluation.tokens"] += sum(len(text) for text in args[1].texts)


def _fit(counts, args, model):
    counts["evaluation.fit_iters"] += model.n_iter
    counts["evaluation.fit_converged"] += int(model.converged)


# (span name, module, attribute, hook).  Functions imported into another
# module are patched in each namespace the pipeline calls them through.
SPANS = [
    ("lexica.parse", "lexifuse.lexica", "parse_lexicon", _rows),
    ("lexica.parse", "lexifuse.cli", "parse_lexicon", _rows),
    ("lexica.vocabulary", "lexifuse.lexica", "build_vocabulary", None),
    ("lexica.vocabulary", "lexifuse.cli", "build_vocabulary", None),
    ("lexica.prior", "lexifuse.lexica", "compute_prior", None),
    ("lexica.prior", "lexifuse.cli", "compute_prior", None),
    ("model.observations", "lexifuse.model", "observations_from_views", None),
    ("model.observations", "lexifuse.cli", "observations_from_views", None),
    ("training.noise", "lexifuse.training", "frozen_noise", None),
    ("training.batch_gradient", "lexifuse.training", "batch_gradient", _labels),
    ("training.adam", "lexifuse.training", "adam_step", None),
    ("model.checkpoint_write", "lexifuse.training", "save_checkpoint", _file_bytes("model.checkpoint_bytes")),
    ("model.encode", "lexifuse.model", "encode_vars", None),
    ("model.decode_emit", "lexifuse.model", "decode_vars", None),
    ("model.decode_emit", "lexifuse.model", "emission_ll_var", None),
    ("distributions.sample", "lexifuse.model", "dirichlet_sample_vars", None),
    ("distributions.kl", "lexifuse.model", "dirichlet_kl_var", None),
    ("tape.backward", "lexifuse.tape", "Tape.backward", _nodes),
    ("cli.export", "lexifuse.cli", "cmd_export", None),
    ("model.checkpoint_read", "lexifuse.cli", "load_checkpoint", None),
    ("unified.export", "lexifuse.cli", "export_lexicon", None),
    ("model.posterior", "lexifuse.unified", "posterior_params", None),
    ("unified.write", "lexifuse.cli", "write_unified", _file_bytes("unified.bytes")),
    ("unified.read", "lexifuse.unified", "read_unified", None),
    ("evaluation.featurize", "lexifuse.evaluation", "Featurizer.featurize_corpus", _tokens),
    ("evaluation.fit", "lexifuse.evaluation", "fit_logistic", _fit),
]

# (counter name, module, attribute): called too often for a span each.
COUNTERS = [
    ("special.gamma_quantile", "lexifuse.distributions", "gamma_quantile"),
    ("special.gammainc_p", "lexifuse.special", "gammainc_p"),
]


def _resolve(module: str, attr: str):
    """(owner, name, current value) of a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def install(tracer: Tracer) -> set[str]:
    """Patch every span and counter point; returns the names with an absent point."""
    missing = set()
    for name, module, attr, after in SPANS:
        found = _resolve(module, attr)
        if found is None:
            missing.add(name)
            continue
        owner, key, fn = found
        setattr(owner, key, tracer.span(name, fn, after))
    for name, module, attr in COUNTERS:
        found = _resolve(module, attr)
        if found is None:
            missing.add(name)
            continue
        owner, key, fn = found
        setattr(owner, key, tracer.counter(name, fn))
    return missing


def upper_percentile(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, and its label.

    With fewer than 11 samples no percentile qualifies; the median is
    returned instead and the label says so.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), f"p50 (only {n} samples)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


# metric -> (unit, better, span and counter names it reads)
PER_LAYER = {
    "training.batch_gradient_s": ("s", "lower", ["training.batch_gradient"]),
    "training.batch_ms.p50": ("ms", "lower", ["training.batch_gradient"]),
    "training.batch_ms.upper": ("ms", "lower", ["training.batch_gradient"]),
    "training.batches": ("count", "lower", ["training.batch_gradient"]),
    "training.adam_s": ("s", "lower", ["training.adam"]),
    "training.noise_s": ("s", "lower", ["training.noise"]),
    "model.encode_s": ("s", "lower", ["model.encode"]),
    "model.encode_calls": ("count", "lower", ["model.encode"]),
    "model.encode_cache_hit_ratio": ("ratio", "higher", ["model.encode", "training.batch_gradient"]),
    "model.decode_emit_s": ("s", "lower", ["model.decode_emit"]),
    "distributions.sample_s": ("s", "lower", ["distributions.sample"]),
    "distributions.kl_s": ("s", "lower", ["distributions.kl"]),
    "special.newton_iters_per_quantile": (
        "iters/quantile", "lower", ["special.gammainc_p", "special.gamma_quantile"]),
    "tape.backward_s": ("s", "lower", ["tape.backward"]),
    "tape.nodes_per_batch": ("nodes/batch", "lower", ["tape.backward"]),
    "evaluation.featurize_s": ("s", "lower", ["evaluation.featurize"]),
    "evaluation.tokens": ("count", "lower", ["evaluation.featurize"]),
    "evaluation.fit_s": ("s", "lower", ["evaluation.fit"]),
    "evaluation.fit_iters": ("count", "lower", ["evaluation.fit"]),
    "evaluation.fit_converged_ratio": ("ratio", "higher", ["evaluation.fit"]),
    "lexica.parse_s": ("s", "lower", ["lexica.parse"]),
    "lexica.rows": ("count", "lower", ["lexica.parse"]),
    "lexica.vocabulary_s": ("s", "lower", ["lexica.vocabulary"]),
    "lexica.prior_s": ("s", "lower", ["lexica.prior"]),
    "model.observations_s": ("s", "lower", ["model.observations"]),
    "model.posterior_s": ("s", "lower", ["model.posterior"]),
    "model.checkpoint_read_s": ("s", "lower", ["model.checkpoint_read"]),
    "model.checkpoint_write_s": ("s", "lower", ["model.checkpoint_write"]),
    "model.checkpoint_bytes": ("bytes", "lower", ["model.checkpoint_write"]),
    "unified.export_s": ("s", "lower", ["unified.export"]),
    "unified.write_s": ("s", "lower", ["unified.write"]),
    "unified.read_s": ("s", "lower", ["unified.read"]),
    "unified.bytes": ("bytes", "lower", ["unified.write"]),
    "cli.export_s": ("s", "lower", ["cli.export"]),
}

# Counts that are a pure function of the inputs: equal on every same-seed pass.
REPEATABLE = (
    "tape.nodes_per_batch",
    "special.newton_iters_per_quantile",
    "model.encode_calls",
    "evaluation.fit_iters",
    "training.batches",
)


def layer_metrics(tracer: Tracer, missing: set[str]) -> tuple[dict, dict, list[float], list[str]]:
    """(per-layer metrics, self seconds by span name, batch_gradient durations
    in ms, skipped metric names).

    The two batch_ms percentiles are left to the caller, which pools the
    batch durations of several passes before taking them.
    """
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    self_ns = list(dur)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            self_ns[p] -= dur[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    batch_ms = []
    for i, name in enumerate(tracer.names):
        self_s[name] += self_ns[i] * 1e-9
        calls[name] += 1
        if name == "training.batch_gradient":
            batch_ms.append(dur[i] * 1e-6)
    c = tracer.counts
    values = {
        "training.batches": len(batch_ms),
        "model.encode_calls": calls["model.encode"],
        "model.encode_cache_hit_ratio": 1.0 - _ratio(calls["model.encode"], c["model.labels_evaluated"]),
        "special.newton_iters_per_quantile": _ratio(c["special.gammainc_p"], c["special.gamma_quantile"]),
        "tape.nodes_per_batch": _ratio(c["tape.nodes"], calls["tape.backward"]),
        "evaluation.tokens": c["evaluation.tokens"],
        "evaluation.fit_iters": c["evaluation.fit_iters"],
        "evaluation.fit_converged_ratio": _ratio(c["evaluation.fit_converged"], calls["evaluation.fit"]),
        "lexica.rows": c["lexica.rows"],
        "model.checkpoint_bytes": c["model.checkpoint_bytes"],
        "unified.bytes": c["unified.bytes"],
    }
    metrics, skipped = {}, []
    for metric, (_, _, sources) in PER_LAYER.items():
        if missing.intersection(sources):
            skipped.append(metric)
        elif metric in values:
            metrics[metric] = values[metric]
        elif metric.endswith("_s"):
            metrics[metric] = sum(self_s[s] for s in sources)
    return metrics, dict(self_s), batch_ms, skipped
