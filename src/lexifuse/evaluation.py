"""Downstream text-classification protocol and a synthetic benchmark.

Texts become feature vectors by averaging per-word polarity features under
a chosen representation: a corpus maps its tokens to type ids once, and each
feature mode then costs one gather of table rows per corpus.  A multinomial
logistic regression (l2 1e-4 on the weights, unpenalized bias) is fit on the
training split by Newton steps to a gradient norm of 1e-8, with a warning
when a fit stops short, and scored on the test split.  The synthetic
generator produces views and corpora with known ground-truth word sentiment
so the whole pipeline can be exercised without external datasets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import FLOAT_FORMAT, ConfigError, ParseError, UsageError, header, read_lines, write_lines
from .lexica import (
    BINARY,
    NEGATIVE,
    NEUTRAL,
    PAIR_CONTINUOUS,
    POSITIVE,
    RATER_HISTOGRAM,
    SIGNED_CONTINUOUS,
    LexiconView,
    ScaleFamily,
    binary,
    casefold_each,
    merge_words,
    pair_continuous,
    rater_histogram,
    signed_continuous,
)
from .rng import RngStream
from .unified import UnifiedLexicon

log = logging.getLogger(__name__)


class _SeparatorTable(dict):
    """A `str.translate` table that keeps an alphanumeric code point and
    turns any other into a space, classifying each code point on first use."""

    def __missing__(self, c: int) -> int:
        out = self[c] = c if chr(c).isalnum() else 32
        return out


_SEPARATORS = _SeparatorTable()


def tokenize(text: str) -> list[str]:
    """Case-fold, then split at every character that `str.isalnum` rejects,
    so `it's` reads as `it`, `s`.  The shared table grows by one entry per
    distinct character read."""
    return text.casefold().translate(_SEPARATORS).split()


@dataclass(frozen=True)
class LabeledCorpus:
    texts: tuple[tuple[str, ...], ...]
    labels: tuple[int, ...]
    n_classes: int

    def __post_init__(self):
        if not self.texts:
            raise ConfigError("corpus must contain at least one text")
        if len(self.texts) != len(self.labels):
            raise ConfigError(
                f"{len(self.texts)} texts but {len(self.labels)} labels"
            )
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        for y in self.labels:
            if not 0 <= y < self.n_classes:
                raise ConfigError(f"label {y} outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.texts)

    @cached_property
    def token_index(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """(the distinct token types in order of first use, each token's type
        id, as int32 to halve what the cache holds, each text's length),
        built on first use: the texts never change."""
        tokens = list(chain.from_iterable(self.texts))
        ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
        token_type = np.fromiter(map(ids.__getitem__, tokens), np.int32, len(tokens))
        return tuple(ids), token_type, np.array([len(text) for text in self.texts], dtype=np.intp)

    def types(self) -> set[str]:
        return set(self.token_index[0])


def read_corpus(path: str | Path) -> LabeledCorpus:
    """Read a `label<TAB>text` TSV; `#` lines and blanks are skipped.  Its
    classes are 0 to its largest label."""
    path = Path(path)
    texts: list[tuple[str, ...]] = []
    labels: list[int] = []
    for lineno, raw in enumerate(read_lines(path, "corpus file"), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if "\t" not in raw:
            raise ParseError("expected `label<TAB>text`", path=str(path), line=lineno)
        head, body = raw.split("\t", 1)
        try:
            label = int(head)
        except ValueError as e:
            raise ParseError(f"bad label {head!r}", path=str(path), line=lineno) from e
        if label < 0:
            raise ParseError(f"negative label {label}", path=str(path), line=lineno)
        labels.append(label)
        texts.append(tuple(tokenize(body)))
    if not labels:
        raise ParseError("corpus has no data rows", path=str(path), line=1)
    return LabeledCorpus(texts=tuple(texts), labels=tuple(labels), n_classes=max(labels) + 1)


def write_corpus(
    path: str | Path,
    corpus: LabeledCorpus,
    *,
    seed: int | None = None,
    config_hash: str | None = None,
) -> None:
    lines = header("labeled corpus", seed=seed, config_hash=config_hash)
    for label, text in zip(corpus.labels, corpus.texts):
        lines.append(f"{label}\t{' '.join(text)}")
    write_lines(path, lines)


def split_corpus(corpus: LabeledCorpus, n_train: int) -> tuple[LabeledCorpus, LabeledCorpus]:
    if not 0 < n_train < len(corpus):
        raise ConfigError(
            f"n_train must be in (0, {len(corpus)}), got {n_train}"
        )
    return (
        LabeledCorpus(corpus.texts[:n_train], corpus.labels[:n_train], corpus.n_classes),
        LabeledCorpus(corpus.texts[n_train:], corpus.labels[n_train:], corpus.n_classes),
    )


# ---------------------------------------------------------------------------
# Featurizers

def _single_feature(family: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Each label row on its view's own numeric scale: (n, 2) for pairs, else
    (n, 1); a rater histogram is the mean of its ratings' buckets (below the
    midpoint -1, at it 0, above it +1)."""
    tag = family.tag
    if tag == BINARY:
        return np.where(values == 1.0, 1.0, -1.0)
    if tag == RATER_HISTOGRAM:
        buckets = np.sign(values - (family.n_points - 1) / 2)
        return buckets.sum(axis=1, keepdims=True) / family.width
    return values


def _concat_feature(family: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Each label row as its block of a concat feature, family.width wide."""
    if family.tag == RATER_HISTOGRAM:
        return 2.0 * values / (family.n_points - 1) - 1.0
    return _single_feature(family, values)


_GATHER_FLOATS = 1 << 15  # floats gathered at once by featurize_corpus (256 KiB)


class Featurizer:
    """Maps words (and corpora) to fixed-dimension polarity features.

    rows is one (n_words, dim) array of feature rows; index maps each
    case-folded covered word to its row, and lookups case-fold the token.  A
    text's features are the mean of its covered tokens' rows, or zeros when
    it has none.
    """

    def __init__(self, index: dict[str, int], rows: np.ndarray):
        self.dim = int(rows.shape[1])
        self.index = index
        self.rows = rows

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self.index

    def featurize_corpus(self, corpus: LabeledCorpus) -> np.ndarray:
        """One row per text: each type is case-folded and looked up once,
        then the texts with m covered tokens are averaged together, in
        (texts, m, dim) gathers of at most _GATHER_FLOATS floats (or one
        text), each of which sums in the same order as the mean of one
        text's rows on its own."""
        types, token_type, lengths = corpus.token_index
        get = self.index.get
        type_row = np.fromiter((get(t.casefold(), -1) for t in types), np.intp, len(types))
        covered = type_row[token_type] >= 0
        counts = np.bincount(np.repeat(np.arange(len(lengths)), lengths)[covered], minlength=len(lengths))
        rows = type_row[token_type[covered]]
        starts = np.cumsum(counts) - counts
        out = np.zeros((len(lengths), self.dim))
        for m in np.flatnonzero(np.bincount(counts)[1:]) + 1:  # the counts that occur, 0 aside
            group = np.flatnonzero(counts == m)
            step = max(1, _GATHER_FLOATS // (m * self.dim))
            for texts in (group[i:i + step] for i in range(0, len(group), step)):
                out[texts] = self.rows[rows[starts[texts, None] + np.arange(m)]].mean(axis=1)
        return out


def make_featurizer(
    mode: str,
    *,
    unified: UnifiedLexicon | None = None,
    views: list[LexiconView] | None = None,
) -> Featurizer:
    """Build the featurizer named by mode, computing each word's row once.

    - fused-mean, fused-beta: the unified lexicon's posterior mean or
      pseudocounts.
    - single:<view id>: one view on its own numeric scale; rater histograms
      collapse to the mean of per-rating buckets (below midpoint -1,
      midpoint 0, above +1).
    - concat: all views side by side (id order), each on its raw numeric
      scale; rater histograms stay n_raters-dimensional, rescaled to
      [-1, 1].  Views that miss a word contribute their neutral value
      (zeros after centering).
    """
    if mode == "fused-mean" or mode == "fused-beta":
        if unified is None:
            raise ConfigError(f"mode {mode} needs a unified lexicon")
        # the lexicon's own index: its rows sorted by their unique case-folded words
        return Featurizer(unified._index, unified.mean if mode == "fused-mean" else unified.beta)
    if mode == "concat":
        if not views:
            raise ConfigError("mode concat needs input views")
        views = sorted(views, key=lambda v: v.id)
        index, rows = merge_words(views)
        ends = np.cumsum([v.family.width for v in views])
        table = np.zeros((len(index), ends[-1]))
        for v, at, end in zip(views, rows, ends):
            table[at, end - v.family.width:end] = _concat_feature(v.family, v.values)
        return Featurizer(index, table)
    if mode.startswith("single:"):
        vid = mode.split(":", 1)[1]
        for v in views or []:
            if v.id == vid:
                return Featurizer(dict(zip(v.words, range(len(v)))), _single_feature(v.family, v.values))
        raise ConfigError(f"mode {mode}: no view with id {vid!r}")
    raise ConfigError(
        f"unknown mode {mode!r} (expected fused-mean, fused-beta, single:<view>, concat)"
    )


# ---------------------------------------------------------------------------
# Multinomial logistic regression

L2 = 1e-4  # penalty on the weights; the bias is unpenalized
GRAD_TOL = 1e-8  # a fit has converged when its gradient norm is below this
MAX_STEPS = 50  # cap on Newton steps; converging fits take about 3 to 12


@dataclass(eq=False)
class LogisticModel:
    weights: np.ndarray
    bias: np.ndarray
    converged: bool
    n_iter: int

    def decision(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.bias

    def accuracy(self, features: np.ndarray, labels) -> float:
        return float(np.mean(np.argmax(self.decision(features), axis=1) == np.asarray(labels)))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def fit_logistic(features: np.ndarray, labels) -> LogisticModel:
    """Minimize mean cross-entropy + (L2/2)*||W||^2 over [W | b] by Newton
    steps with Armijo backtracking, starting from zero.

    Adding one constant to every class's bias leaves the objective as it is,
    so the Hessian H is singular along the unit vector u of that shift.  The
    gradient is orthogonal to u (each row's residuals sum to zero over the
    classes), so solving with H + u u^T instead is exact and keeps each step
    orthogonal to u.  The fit has converged only when the gradient norm is
    below GRAD_TOL; a singular Hessian, a failed line search or MAX_STEPS
    steps end it unconverged, with a warning.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise UsageError(f"bad shapes: features {x.shape}, labels {y.shape}")
    if y.size == 0 or y.min() == y.max():  # not np.unique, whose first call imports numpy.ma
        raise UsageError("fit_logistic needs at least two classes in the labels")
    n, d = x.shape
    k = int(y.max()) + 1
    xb = np.hstack([x, np.ones((n, 1))])
    onehot = np.eye(k)[y]
    penalty = np.append(np.full(d, L2), 0.0)  # per column of [W | b]

    def objective(theta):
        logp = _log_softmax(xb @ theta.T)
        p = np.exp(logp)
        val = -np.mean(logp[np.arange(n), y]) + 0.5 * float(np.sum(penalty * theta * theta))
        return val, (p - onehot).T @ xb / n + penalty * theta, p

    theta = np.zeros((k, d + 1))
    val, grad, p = objective(theta)
    steps = 0
    while (gnorm := float(np.linalg.norm(grad))) >= GRAD_TOL and steps < MAX_STEPS:
        # H = mean over rows of (diag(p) - p p^T) kron ([x | 1]^T [x | 1])
        px = (p[:, :, None] * xb[:, None, :]).reshape(n, -1)
        hess = -(px.T @ px)
        for c in range(k):
            block = slice(c * (d + 1), (c + 1) * (d + 1))
            hess[block, block] += px[:, block].T @ xb
        hess = hess / n + np.diag(np.tile(penalty, k))
        hess[d::d + 1, d::d + 1] += 1.0 / k  # u u^T: u is 1/sqrt(k) at each bias
        try:
            step = -np.linalg.solve(hess, grad.ravel()).reshape(k, d + 1)
        except np.linalg.LinAlgError:
            break
        slope = float(np.sum(grad * step))
        if not slope < 0.0:  # also catches a step that is not finite
            break
        # halve from the full step until Armijo holds, or, once the decrease
        # is below what float sums resolve, until the gradient shrinks
        for t in 0.5 ** np.arange(40):
            trial = objective(theta + t * step)
            if trial[0] <= val + 1e-4 * t * slope or (
                abs(trial[0] - val) <= 16 * np.finfo(float).eps * abs(val)
                and np.linalg.norm(trial[1]) < gnorm
            ):
                break
        else:
            break
        theta = theta + t * step
        val, grad, p = trial
        steps += 1
    converged = gnorm < GRAD_TOL
    if not converged:
        log.warning("logistic fit stopped unconverged after %d Newton steps: gradient norm %.3g",
                    steps, gnorm)
    return LogisticModel(weights=theta[:, :d], bias=theta[:, d], converged=converged, n_iter=steps)


def evaluate(corpus_train: LabeledCorpus, corpus_test: LabeledCorpus, featurizer: Featurizer) -> float:
    """Fit on the training split, whose labels give the classes, and return
    accuracy on the test split."""
    model = fit_logistic(featurizer.featurize_corpus(corpus_train), corpus_train.labels)
    return model.accuracy(featurizer.featurize_corpus(corpus_test), corpus_test.labels)


def coverage(words, corpus: LabeledCorpus) -> float:
    """Percentage of the corpus's unique token types found in `words`
    (anything supporting `in`: a set, a view's entries, a featurizer)."""
    types = corpus.types()
    if not types:
        return 0.0
    hit = sum(1 for t in types if t in words)
    return 100.0 * hit / len(types)


def restrict_vocabulary(fused: UnifiedLexicon, view: LexiconView) -> UnifiedLexicon:
    """Fused rows limited to the view's words, compared case-folded as
    lookups in either are."""
    keep = np.fromiter(map(set(view.words).__contains__, casefold_each(fused.words)), bool, len(fused))
    words = list(compress(fused.words, keep))
    return UnifiedLexicon(words, fused.beta[keep], fused.mean[keep], fused.n_views[keep], fused.meta)


# ---------------------------------------------------------------------------
# Report output

REPORT_COLUMNS = ("mode", "dataset", "n_train", "n_test", "accuracy", "coverage", "feature_dim")


def _csv_field(value) -> str:
    """A free-text field quoted as csv.QUOTE_MINIMAL quotes one: when it holds
    a comma, a double quote, a CR or an LF."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_report(path: str | Path, rows: list[dict], *, seed=None, config_hash=None) -> None:
    row = ",".join(["%s"] * 4 + [FLOAT_FORMAT] * 2 + ["%s"])  # accuracy and coverage are floats
    lines = [*header("evaluation report", seed=seed, config_hash=config_hash), ",".join(REPORT_COLUMNS)]
    for r in rows:  # mode and dataset are free text
        lines.append(row % (_csv_field(r["mode"]), _csv_field(r["dataset"]), *map(r.__getitem__, REPORT_COLUMNS[2:])))
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# Synthetic benchmark

_POLAR = (POSITIVE, NEGATIVE)


@dataclass(eq=False)
class SynthData:
    views: list[LexiconView]
    corpus: LabeledCorpus
    word_classes: dict[str, int]


def _emit_label(family: ScaleFamily, cls: int, rng: RngStream) -> tuple:
    """One label of the class as its row of values."""
    tag = family.tag
    if tag == BINARY:
        return (1 if cls == POSITIVE else 0,)
    if tag == SIGNED_CONTINUOUS:
        if cls == POSITIVE:
            return (rng.uniform(0.1, 1.0),)
        if cls == NEGATIVE:
            return (rng.uniform(-1.0, -0.1),)
        return (rng.uniform(-0.04, 0.04),)
    if tag == PAIR_CONTINUOUS:
        if cls == POSITIVE:
            return (rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.3))
        if cls == NEGATIVE:
            return (rng.uniform(0.0, 0.3), rng.uniform(0.6, 1.0))
        center = rng.uniform(0.1, 0.4)
        delta = rng.uniform(-0.02, 0.02)
        return (center + delta, center - delta)
    # rater histogram: ratings concentrated above/below the midpoint for
    # polar classes, symmetric around it for neutral
    mid = (family.n_points - 1) // 2
    if cls == POSITIVE:
        ratings = tuple(int(rng.integers(mid + 2, family.n_points)) for _ in range(family.n_raters))
    elif cls == NEGATIVE:
        ratings = tuple(int(rng.integers(0, mid - 1)) for _ in range(family.n_raters))
    else:
        half = min(mid, family.n_points - 1 - mid)
        pairs = []
        for _ in range(family.n_raters // 2):
            d = int(rng.integers(0, half + 1))
            pairs.extend((mid - d, mid + d))
        if family.n_raters % 2:
            pairs.append(mid)
        ratings = tuple(pairs)
    return ratings


def _synth_families() -> list[tuple[str, ScaleFamily]]:
    return [
        ("bin", binary()),
        ("pair", pair_continuous()),
        ("rater", rater_histogram(10, 9)),
        ("sig", signed_continuous()),
    ]


def synth_generate(
    n_words: int,
    n_views_per_family: int,
    label_noise: float,
    n_texts: int,
    text_len: int,
    rng: RngStream,
) -> SynthData:
    """Views plus a labeled corpus with known per-word ground truth.

    Each word draws a ground-truth class uniformly from {positive,
    negative, neutral}.  Every view covers a uniform 40-70% subset of the
    words it can express (binary views list polar words only) and emits a
    label for the truth class, flipped to a uniform expressible class with
    probability label_noise.  Texts are uniform bags of words labeled by
    the majority ground-truth polarity of their tokens; ties are resampled
    so the corpus is a clean two-class problem, which needs a polar word:
    if every word draws neutral, that is a ConfigError, raised before any
    view or text is drawn.
    """
    if n_words < 1 or n_views_per_family < 1 or n_texts < 1 or text_len < 1:
        raise ConfigError("synth sizes must be positive")
    if not 0.0 <= label_noise < 0.5:
        raise ConfigError(f"label_noise must be in [0, 0.5), got {label_noise}")

    words = [f"word{i:04d}" for i in range(n_words)]
    truth_rng = rng.split("truth")
    word_classes = {w: int(truth_rng.integers(0, 3)) for w in words}
    if not any(c in _POLAR for c in word_classes.values()):
        raise ConfigError(f"every synth word ({n_words}) drew neutral, so no text can be labeled; "
                          "use more words or another seed")

    views = []
    for stem, family in _synth_families():
        for j in range(n_views_per_family):
            vid = f"{stem}{j}"
            view_rng = rng.split(f"view:{vid}")
            if family.tag == BINARY:
                eligible = [w for w in words if word_classes[w] in _POLAR]
                expressible = _POLAR
            else:
                eligible = words
                expressible = (POSITIVE, NEGATIVE, NEUTRAL)
            frac = view_rng.uniform(0.4, 0.7)
            n_cov = max(1, round(frac * len(eligible)))
            order = view_rng.permutation(len(eligible))
            covered = sorted(eligible[i] for i in order[:n_cov])
            values = []
            for w in covered:
                cls = word_classes[w]
                if view_rng.uniform(0.0, 1.0) < label_noise:
                    cls = expressible[int(view_rng.integers(0, len(expressible)))]
                values.append(_emit_label(family, cls, view_rng))
            views.append(LexiconView(vid, family, covered, values))

    text_rng = rng.split("texts")
    texts = []
    labels = []
    for _ in range(n_texts):
        while True:
            tokens = tuple(words[int(text_rng.integers(0, n_words))] for _ in range(text_len))
            n_pos = sum(1 for t in tokens if word_classes[t] == POSITIVE)
            n_neg = sum(1 for t in tokens if word_classes[t] == NEGATIVE)
            if n_pos != n_neg:
                break
        texts.append(tokens)
        labels.append(POSITIVE if n_pos > n_neg else NEGATIVE)
    corpus = LabeledCorpus(texts=tuple(texts), labels=tuple(labels), n_classes=2)
    return SynthData(views=views, corpus=corpus, word_classes=word_classes)
