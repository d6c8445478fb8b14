"""The per-row lexicon code the library ran before its columnar views, kept
as the tests' oracle: one frozen, validated PolarityLabel per row, the
row-by-row parser, the per-label coarse class, the per-word prior and the
per-label features.  It also converts between a word -> label dict and a
columnar LexiconView.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lexifuse.errors import ConfigError, DomainError, ParseError, read_lines
from lexifuse.lexica import (
    BINARY,
    COMPONENTS,
    DEFAULT_TAU,
    DEFAULT_TAU_R,
    PAIR_CONTINUOUS,
    RATER_HISTOGRAM,
    SIGNED_CONTINUOUS,
    LexiconView,
    ScaleFamily,
    ViewSchema,
    _parse_header_family,
)


@dataclass(frozen=True)
class PolarityLabel:
    """One word's label under a specific scale family.

    value shapes: Binary -> int in {0, 1}; SignedContinuous -> float in
    [-1, 1]; PairContinuous -> (pos, neg) floats each in [0, 1];
    RaterHistogram -> tuple of n_raters ints each in [0, n_points).
    """

    family: ScaleFamily
    value: int | float | tuple

    def __post_init__(self):
        tag = self.family.tag
        v = self.value
        if tag == BINARY:
            if v not in (0, 1):
                raise DomainError(f"Binary label must be 0 or 1, got {v!r}")
        elif tag == SIGNED_CONTINUOUS:
            if not isinstance(v, float) or not -1.0 <= v <= 1.0:
                raise DomainError(f"SignedContinuous label must be a float in [-1, 1], got {v!r}")
        elif tag == PAIR_CONTINUOUS:
            if not (isinstance(v, tuple) and len(v) == 2) or not all(
                isinstance(x, float) and 0.0 <= x <= 1.0 for x in v
            ):
                raise DomainError(f"PairContinuous label must be two floats in [0, 1], got {v!r}")
        else:  # RATER_HISTOGRAM
            n, p = self.family.n_raters, self.family.n_points
            if not (isinstance(v, tuple) and len(v) == n) or not all(
                isinstance(x, int) and 0 <= x < p for x in v
            ):
                raise DomainError(
                    f"RaterHistogram label must be {n} integers in [0, {p}), got {v!r}"
                )

    @property
    def row(self) -> list[float]:
        """The label as its row of a view's values."""
        v = self.value
        return [float(x) for x in v] if isinstance(v, tuple) else [float(v)]


@dataclass(frozen=True)
class DirichletPrior:
    """Per-word prior concentration over (positive, negative, neutral)."""

    alpha: tuple[float, float, float]

    def __post_init__(self):
        if len(self.alpha) != 3:
            raise ConfigError(f"prior must have 3 components, got {len(self.alpha)}")
        if any(a < 1.0 for a in self.alpha):
            raise ConfigError(f"prior components must be >= 1, got {self.alpha}")
        if sum(a > 1.0 for a in self.alpha) > 1:
            raise ConfigError(f"at most one prior component may exceed 1, got {self.alpha}")


@dataclass(frozen=True)
class RowView:
    """What the row-by-row parser read: word -> label, plus its counts."""

    id: str
    family: ScaleFamily
    entries: dict[str, PolarityLabel]
    n_dupes: int
    n_skipped: int


def label_of(family: ScaleFamily, row) -> PolarityLabel:
    """A row of a view's values as the oracle's label."""
    row = [float(x) for x in row]
    if family.tag == BINARY:
        return PolarityLabel(family, int(row[0]))
    if family.tag == SIGNED_CONTINUOUS:
        return PolarityLabel(family, row[0])
    if family.tag == PAIR_CONTINUOUS:
        return PolarityLabel(family, tuple(row))
    return PolarityLabel(family, tuple(int(x) for x in row))


def view_of(view_id: str, family: ScaleFamily, labels: dict) -> LexiconView:
    """A columnar view of word -> label, or word -> the label's value."""
    words = sorted(labels)
    rows = [
        (lab if isinstance(lab, PolarityLabel) else PolarityLabel(family, lab)).row
        for lab in (labels[w] for w in words)
    ]
    return LexiconView(view_id, family, words, np.array(rows, dtype=float).reshape(-1, family.width))


def _parse_label(token: str, family: ScaleFamily, schema: ViewSchema, path: str, lineno: int) -> PolarityLabel:
    tag = family.tag
    try:
        if tag == BINARY:
            t = token.casefold()
            if t in schema.binary_tokens:
                v: int | float | tuple = schema.binary_tokens[t]
            elif t in ("0", "1"):
                v = int(t)
            else:
                raise DomainError(f"unrecognized binary label {token!r}")
        elif tag == SIGNED_CONTINUOUS:
            v = float(token)
        elif tag == PAIR_CONTINUOUS:
            fields = token.split(",")
            if len(fields) != 2:
                raise ParseError(f"pair label needs two comma-separated values, got {token!r}")
            v = (float(fields[0]), float(fields[1]))
        else:
            fields = token.split(",")
            v = tuple(int(f) for f in fields)
        return PolarityLabel(family, v)
    except ValueError as e:
        raise ParseError(f"unparseable label {token!r}", path=path, line=lineno) from e
    except DomainError as e:
        raise DomainError(str(e), path=path, line=lineno) from e
    except ParseError as e:
        raise ParseError(str(e), path=path, line=lineno) from e


def parse_rows(path: str | Path, schema: ViewSchema | None = None) -> RowView:
    """The row-by-row parser: each data line is split, checked and turned
    into a validated PolarityLabel in file order."""
    path = Path(path)
    schema = schema or ViewSchema()
    lines = read_lines(path, "lexicon file")

    family = schema.family
    if lines and lines[0].startswith("#family="):
        header_family = _parse_header_family(lines[0], str(path))
        if family is None:
            family = header_family
        elif family != header_family:
            raise ConfigError(
                f"{path}: schema family {family.tag} contradicts file header {header_family.tag}"
            )
    if family is None:
        raise ConfigError(f"{path}: no schema given and no #family= header present")
    for option, given, tag in (
        ("neg_col", schema.neg_col is not None, PAIR_CONTINUOUS),
        ("pos", 1 in schema.binary_tokens.values(), BINARY),
        ("neg", 0 in schema.binary_tokens.values(), BINARY),
    ):
        if given and family.tag != tag:
            raise ConfigError(f"{path}: schema option {option} applies only to {tag}, not {family.tag}")

    entries: dict[str, PolarityLabel] = {}
    n_dupes = 0
    n_skipped = 0
    needed = max(schema.word_col, schema.value_col, schema.neg_col or 0) + 1
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) < needed:
            raise ParseError(
                f"expected at least {needed} tab-separated fields, got {len(fields)}",
                path=str(path),
                line=lineno,
            )
        word = fields[schema.word_col].strip()
        if not word:
            raise ParseError("empty word", path=str(path), line=lineno)
        if any(ch.isspace() for ch in word):
            n_skipped += 1
            continue
        word = word.casefold()
        token = fields[schema.value_col].strip()
        if schema.neg_col is not None:
            token = f"{token},{fields[schema.neg_col].strip()}"
        label = _parse_label(token, family, schema, str(path), lineno)
        if word in entries:
            n_dupes += 1
        entries[word] = label
    return RowView(schema.id or path.stem, family, entries, n_dupes, n_skipped)


def coarse_sentiment(label: PolarityLabel) -> str:
    """Collapse one label to positive/negative/neutral (see coarse_class)."""
    tag = label.family.tag
    if tag == BINARY:
        return "positive" if label.value == 1 else "negative"
    if tag == SIGNED_CONTINUOUS:
        if label.value > DEFAULT_TAU:
            return "positive"
        if label.value < -DEFAULT_TAU:
            return "negative"
        return "neutral"
    if tag == PAIR_CONTINUOUS:
        pos, neg = label.value
        if pos - neg > DEFAULT_TAU:
            return "positive"
        if neg - pos > DEFAULT_TAU:
            return "negative"
        return "neutral"
    mean = sum(label.value) / len(label.value)
    midpoint = (label.family.n_points - 1) / 2.0
    if mean > midpoint + DEFAULT_TAU_R:
        return "positive"
    if mean < midpoint - DEFAULT_TAU_R:
        return "negative"
    return "neutral"


def compute_prior(word: str, views: list[LexiconView]) -> DirichletPrior:
    """Uniform (1,1,1), boosted by c(w) on the agreed class when every view
    containing the word assigns the same coarse class."""
    containing = [v for v in views if word in v.entries]
    if not containing:
        raise ConfigError(f"word {word!r} not in vocabulary")
    classes = {coarse_sentiment(label_of(v.family, v.entries[word])) for v in containing}
    alpha = [1.0, 1.0, 1.0]
    if len(classes) == 1:
        alpha[COMPONENTS.index(classes.pop())] += float(len(containing))
    return DirichletPrior(tuple(alpha))


def membership(vocab) -> dict[str, tuple[str, ...]]:
    """word -> the sorted ids of the views containing it."""
    out: dict[str, list[str]] = {w: [] for w in vocab.words}
    for vid in sorted(vocab.rows):
        for row in vocab.rows[vid]:
            out[vocab.words[row]].append(vid)
    return {w: tuple(vs) for w, vs in out.items()}


def _bucket(rating: int, n_points: int) -> float:
    mid = (n_points - 1) / 2
    if rating < mid:
        return -1.0
    if rating > mid:
        return 1.0
    return 0.0


def single_feature(label: PolarityLabel) -> np.ndarray:
    """One label on its view's own numeric scale (see make_featurizer)."""
    tag = label.family.tag
    if tag == BINARY:
        return np.array([1.0 if label.value == 1 else -1.0])
    if tag == SIGNED_CONTINUOUS:
        return np.array([float(label.value)])
    if tag == PAIR_CONTINUOUS:
        return np.array([float(label.value[0]), float(label.value[1])])
    buckets = [_bucket(r, label.family.n_points) for r in label.value]
    return np.array([sum(buckets) / len(buckets)])


def concat_feature(label: PolarityLabel) -> np.ndarray:
    """One label as its block of a concat feature."""
    if label.family.tag == RATER_HISTOGRAM:
        top = label.family.n_points - 1
        return np.array([2.0 * r / top - 1.0 for r in label.value])
    return single_feature(label)
