"""Lexicon ingestion: scale families, label validation, the combined
vocabulary, and per-word Dirichlet priors.

Sentiment lexica disagree about what a label even is: some give a hard
positive/negative call, some a signed strength, some a (positive, negative)
pair, some a histogram of rater scores.  Each file is parsed into a
LexiconView whose labels are validated against its declared ScaleFamily;
everything downstream works over these normalized views.

The latent polarity components are indexed (positive, negative, neutral) =
(0, 1, 2) everywhere in this package.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DomainError, ParseError, read_input

log = logging.getLogger(__name__)

COMPONENTS = ("positive", "negative", "neutral")
POSITIVE, NEGATIVE, NEUTRAL = 0, 1, 2

BINARY = "Binary"
SIGNED_CONTINUOUS = "SignedContinuous"
PAIR_CONTINUOUS = "PairContinuous"
RATER_HISTOGRAM = "RaterHistogram"
_FAMILY_TAGS = (BINARY, SIGNED_CONTINUOUS, PAIR_CONTINUOUS, RATER_HISTOGRAM)

# Default agreement thresholds: labels this close to the neutral point are
# not treated as polar.
DEFAULT_TAU = 0.05
DEFAULT_TAU_R = 0.5


@dataclass(frozen=True)
class ScaleFamily:
    """The label domain of one lexicon."""

    tag: str
    n_raters: int | None = None
    n_points: int | None = None

    def __post_init__(self):
        if self.tag not in _FAMILY_TAGS:
            raise ConfigError(f"unknown scale family {self.tag!r}; expected one of {_FAMILY_TAGS}")
        if self.tag == RATER_HISTOGRAM:
            if not (isinstance(self.n_raters, int) and self.n_raters > 0):
                raise ConfigError("RaterHistogram needs a positive n_raters")
            if not (isinstance(self.n_points, int) and self.n_points >= 2):
                raise ConfigError("RaterHistogram needs n_points >= 2")
        elif self.n_raters is not None or self.n_points is not None:
            raise ConfigError(f"{self.tag} does not take n_raters/n_points")

    @property
    def width(self) -> int:
        """Numbers per label: one rating per rater, two for a pair, else one."""
        if self.tag == RATER_HISTOGRAM:
            return self.n_raters
        return 2 if self.tag == PAIR_CONTINUOUS else 1

    def header(self) -> str:
        if self.tag == RATER_HISTOGRAM:
            return f"#family={self.tag},n_raters={self.n_raters},n_points={self.n_points}"
        return f"#family={self.tag}"


def binary() -> ScaleFamily:
    return ScaleFamily(BINARY)


def signed_continuous() -> ScaleFamily:
    return ScaleFamily(SIGNED_CONTINUOUS)


def pair_continuous() -> ScaleFamily:
    return ScaleFamily(PAIR_CONTINUOUS)


def rater_histogram(n_raters: int = 10, n_points: int = 9) -> ScaleFamily:
    return ScaleFamily(RATER_HISTOGRAM, n_raters=n_raters, n_points=n_points)


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


@dataclass(frozen=True)
class LexiconView:
    """One parsed lexicon: id, scale family, word -> label."""

    id: str
    family: ScaleFamily
    entries: dict[str, PolarityLabel]

    def __post_init__(self):
        for word, label in self.entries.items():
            if label.family != self.family:
                raise ConfigError(f"entry {word!r} has family {label.family.tag}, view has {self.family.tag}")
            if word != word.casefold():
                raise ConfigError(f"entry {word!r} is not case-folded")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CombinedVocabulary:
    """Union of view vocabularies with per-word view membership."""

    membership: dict[str, tuple[str, ...]]

    def sorted_words(self) -> list[str]:
        return sorted(self.membership)

    def __contains__(self, word: str) -> bool:
        return word in self.membership

    def __len__(self) -> int:
        return len(self.membership)


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
class ViewSchema:
    """How to read one lexicon file.

    family None means the file's own `#family=` header declares it.  Binary
    token maps let files spell 1/0 as e.g. positive/negative.  Nonnegative
    column indices select fields from tab-separated rows; pair labels may
    sit in one comma-joined column or split across value_col/neg_col.
    """

    family: ScaleFamily | None = None
    id: str | None = None
    word_col: int = 0
    value_col: int = 1
    neg_col: int | None = None
    binary_tokens: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for key in ("word_col", "value_col", "neg_col"):
            col = getattr(self, key)
            if col is not None and col < 0:
                raise ConfigError(f"schema option {key} must be a nonnegative column index, got {col}")


# Family words of a schema string; auto leaves the family to the file header.
_SCHEMA_FAMILIES = {"auto": None, "binary": BINARY, "signed": SIGNED_CONTINUOUS,
                    "pair": PAIR_CONTINUOUS, "rater": RATER_HISTOGRAM}


def parse_schema(text: str) -> ViewSchema:
    """Parse a schema string like 'binary,pos=good,neg=bad' or 'auto'.

    Grammar: `<family>[,opt=val...]` with family in {auto, binary, signed,
    pair, rater}; options: id, word_col, value_col, neg_col, raters, points,
    pos, neg, each at most once, with pos and neg different tokens once
    case-folded.  raters and points need the rater family
    (an auto schema takes them from the `#family=` header); parse_lexicon
    checks neg_col, pos and neg against the family the view settles on.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty schema string")
    fam_word = parts[0].lower()
    if fam_word not in _SCHEMA_FAMILIES:
        raise ConfigError(f"unknown schema family {fam_word!r}")
    opts: dict[str, str] = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ConfigError(f"schema option {p!r} is not key=value")
        k, v = p.split("=", 1)
        k = k.strip()
        if k in opts:
            raise ConfigError(f"schema option {k} is given twice")
        opts[k] = v.strip()

    def pop_int(key: str, default: int | None) -> int | None:
        if key not in opts:
            return default
        try:
            return int(opts.pop(key))
        except ValueError as e:
            raise ConfigError(f"schema option {key} must be an integer") from e

    tag = _SCHEMA_FAMILIES[fam_word]
    if tag == RATER_HISTOGRAM:
        family = rater_histogram(n_raters=pop_int("raters", 10), n_points=pop_int("points", 9))
    else:
        family = None if tag is None else ScaleFamily(tag)
    word_col = pop_int("word_col", 0)
    value_col = pop_int("value_col", 1)
    neg_col = pop_int("neg_col", None)
    view_id = opts.pop("id", None)
    tokens = {value: opts.pop(key).casefold() for key, value in (("pos", 1), ("neg", 0)) if key in opts}
    if len(set(tokens.values())) < len(tokens):
        raise ConfigError(f"schema options pos and neg share the token {tokens[1]!r}")
    binary_tokens = {token: value for value, token in tokens.items()}
    if opts:
        raise ConfigError(f"schema options {sorted(opts)} are unknown or do not apply to {fam_word}")
    return ViewSchema(
        family=family,
        id=view_id,
        word_col=word_col,
        value_col=value_col,
        neg_col=neg_col,
        binary_tokens=binary_tokens,
    )


def _parse_header_family(line: str, path: str) -> ScaleFamily:
    body = line[len("#family="):].strip()
    parts = [p.strip() for p in body.split(",")]
    tag = parts[0]
    kv: dict[str, int] = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ParseError(f"bad family header option {p!r}", path=path, line=1)
        k, v = p.split("=", 1)
        k = k.strip()
        if k in kv:
            raise ParseError(f"family header option {k!r} is given twice", path=path, line=1)
        try:
            kv[k] = int(v)
        except ValueError as e:
            raise ParseError(f"family header option {k!r} must be an integer", path=path, line=1) from e
    try:
        if tag == RATER_HISTOGRAM:
            unknown = sorted(set(kv) - {"n_raters", "n_points"})
            if unknown:
                raise ConfigError(f"unknown RaterHistogram header options {unknown}")
            return ScaleFamily(tag, n_raters=kv.get("n_raters", 10), n_points=kv.get("n_points", 9))
        if kv:
            raise ConfigError(f"{tag} takes no header options")
        return ScaleFamily(tag)
    except ConfigError as e:
        raise ParseError(str(e), path=path, line=1) from e


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


def parse_lexicon(path: str | Path, schema: ViewSchema | None = None) -> LexiconView:
    """Read one lexicon file into a validated LexiconView.

    Files in the normalized format declare their family on line one
    (`#family=...`); other layouts need an explicit schema.  Duplicate words
    resolve last-wins; entries containing whitespace are skipped.  Both are
    counted and logged as warnings.
    """
    path = Path(path)
    schema = schema or ViewSchema()
    lines = read_input(path, "lexicon file").splitlines()

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

    if n_dupes:
        log.warning("%s: %d duplicate words resolved last-wins", path, n_dupes)
    if n_skipped:
        log.warning("%s: %d multi-word entries skipped", path, n_skipped)
    return LexiconView(id=schema.id or path.stem, family=family, entries=entries)


def _format_label(label: PolarityLabel) -> str:
    tag = label.family.tag
    if tag == BINARY:
        return str(label.value)
    if tag == SIGNED_CONTINUOUS:
        return repr(label.value)
    if tag == PAIR_CONTINUOUS:
        return f"{label.value[0]!r},{label.value[1]!r}"
    return ",".join(str(r) for r in label.value)


def write_lexicon(view: LexiconView, path: str | Path) -> None:
    """Serialize a view to the normalized format (sorted, round-trip exact)."""
    path = Path(path)
    rows = [view.family.header()]
    for word in sorted(view.entries):
        rows.append(f"{word}\t{_format_label(view.entries[word])}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def build_vocabulary(views: list[LexiconView]) -> CombinedVocabulary:
    """Union of all view vocabularies with exact membership."""
    if not views:
        raise ConfigError("build_vocabulary needs at least one view")
    ids = [v.id for v in views]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"view ids must be unique, got {ids}")
    membership: dict[str, list[str]] = {}
    for view in views:
        for word in view.entries:
            membership.setdefault(word, []).append(view.id)
    return CombinedVocabulary({w: tuple(sorted(vs)) for w, vs in sorted(membership.items())})


def coarse_sentiment(label: PolarityLabel) -> str:
    """Collapse any label to one of positive/negative/neutral.

    Continuous scales use a dead-zone of width DEFAULT_TAU around the
    neutral point so near-zero strengths do not count as polar; rater
    histograms compare the mean rating against the scale midpoint with
    slack DEFAULT_TAU_R.
    """
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


def compute_prior(word: str, views: list[LexiconView], vocab: CombinedVocabulary) -> DirichletPrior:
    """Per-word prior: uniform (1,1,1), boosted by c(w) on the agreed class
    when every view containing the word assigns the same coarse class."""
    if word not in vocab:
        raise ConfigError(f"word {word!r} not in vocabulary")
    containing = vocab.membership[word]
    by_id = {v.id: v for v in views}
    classes = {coarse_sentiment(by_id[vid].entries[word]) for vid in containing}
    alpha = [1.0, 1.0, 1.0]
    if len(classes) == 1:
        alpha[COMPONENTS.index(classes.pop())] += float(len(containing))
    return DirichletPrior(tuple(alpha))
