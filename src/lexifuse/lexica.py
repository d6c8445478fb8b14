"""Lexicon ingestion: scale families, label validation, the combined
vocabulary, and per-word Dirichlet priors.

Sentiment lexica disagree about what a label even is: some give a hard
positive/negative call, some a signed strength, some a (positive, negative)
pair, some a histogram of rater scores.  Each file is parsed into a
LexiconView held as columns: its words, sorted, case-folded and unique, and
one (n, width) float array of their label values, which the view's own
constructor sets up from rows in file order.  Parsing splits the file into
fields in one pass (errors.Rows), then checks the field counts and the words
and converts the labels a whole column at a time; only when one of these
checks or the view's domain check fails does it walk the rows one by one, in
file order, to raise the first bad row's error at its line.  The vocabulary
(with its word index and prior table), the encoder inputs, the featurizers
and the writers all read these columns.

The latent polarity components are indexed (positive, negative, neutral) =
(0, 1, 2) everywhere in this package.
"""

from __future__ import annotations

import logging
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ParseError, Rows, write_lines

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
            if not (type(self.n_raters) is int and self.n_raters > 0):  # a bool is not a count
                raise ConfigError("RaterHistogram needs a positive n_raters")
            if not (type(self.n_points) is int and self.n_points >= 2):
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


def out_of_domain(family: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Per row of an (n, width) value array, whether it is not a label of the
    family: Binary 0 or 1; SignedContinuous in [-1, 1]; PairContinuous two
    values in [0, 1]; RaterHistogram n_raters integers in [0, n_points).
    Each test passes only a good value, so nan fails it."""
    tag = family.tag
    if tag == BINARY:
        ok = (values == 0.0) | (values == 1.0)
    elif tag == SIGNED_CONTINUOUS:
        ok = (values >= -1.0) & (values <= 1.0)
    elif tag == PAIR_CONTINUOUS:
        ok = (values >= 0.0) & (values <= 1.0)
    else:
        ok = (values >= 0.0) & (values < family.n_points) & (values == np.floor(values))
    return ~ok.all(axis=1)


def _domain_message(family: ScaleFamily, value) -> str:
    tag = family.tag
    if tag == BINARY:
        return f"Binary label must be 0 or 1, got {value!r}"
    if tag == SIGNED_CONTINUOUS:
        return f"SignedContinuous label must be a float in [-1, 1], got {value!r}"
    if tag == PAIR_CONTINUOUS:
        return f"PairContinuous label must be two floats in [0, 1], got {value!r}"
    n, p = family.n_raters, family.n_points
    return f"RaterHistogram label must be {n} integers in [0, {p}), got {value!r}"


def casefold_each(strings: list[str]) -> list[str]:
    """Each string case-folded.  Folding goes character by character and never
    makes or removes a line feed, so unless a string holds one, folding the
    strings joined by line feeds in one call and splitting gives the same."""
    folded = "\n".join(strings).casefold().split("\n") if strings else []
    return folded if len(folded) == len(strings) else [s.casefold() for s in strings]


@dataclass(frozen=True, eq=False)
class LexiconView:
    """One lexicon as columns: id, scale family, `words` (sorted, case-folded,
    unique) and `values`, an (n, width) float array holding word i's label in
    row i, read-only.  The constructor takes the rows in file order and owns
    the label checks: values not of that shape and a word that parse_lexicon
    never yields (empty, starting with '#' or holding whitespace, which a
    lexicon file cannot carry) are ConfigErrors, a row outside the family's
    domain a DomainError, raised before it resolves repeats; it then
    case-folds, keeps a repeated word's last row and sorts."""

    id: str
    family: ScaleFamily
    words: list[str]
    values: np.ndarray

    def __post_init__(self):
        words = list(self.words)
        shape = (len(words), self.family.width)
        try:
            values = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):  # rows of differing lengths, or not numbers
            values = None
        if values is None or values.shape != shape and not (values.size == 0 == len(words)):
            got = "rows that do not stack as floats" if values is None else values.shape
            raise ConfigError(f"view {self.id!r} ({self.family.header()}) needs values of shape {shape}, got {got}")
        values = values.reshape(shape)
        joined = "".join(words)  # splits into just itself only if no word holds whitespace
        if words and ("" in words or joined.split() != [joined] or "\n#" in "\n" + "\n".join(words)):
            word = next(w for w in words if w.split() != [w] or w[0] == "#")
            raise ConfigError(f"view {self.id!r}: word {word!r} is empty, starts with '#' or holds "
                              "whitespace, so no lexicon file can carry it")
        bad = out_of_domain(self.family, values)
        if bad.any():
            i = int(np.argmax(bad))
            value = values[i].tolist()
            raise DomainError(
                f"view {self.id!r}, word {words[i]!r}: "
                + _domain_message(self.family, value[0] if len(value) == 1 else tuple(value))
            )
        last = dict(zip(casefold_each(words), range(len(words))))  # a repeated word keeps its last row
        words = sorted(last)
        values = values[np.fromiter(map(last.__getitem__, words), np.intp, len(words))]  # a copy
        values.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def entries(self) -> dict[str, np.ndarray]:
        """word -> its row of values, for lookups by word."""
        return dict(zip(self.words, self.values))


def merge_words(views: list[LexiconView]) -> tuple[dict[str, int], list[np.ndarray]]:
    """The sorted union of the views' words as an index, word -> its row, and
    for each view the union's row of each of its words."""
    words = sorted(set().union(*(view.words for view in views)))
    index = dict(zip(words, range(len(words))))
    return index, [np.fromiter(map(index.__getitem__, v.words), np.intp, len(v)) for v in views]


@dataclass(frozen=True, eq=False)
class CombinedVocabulary:
    """The union of the views' words as columns: `words` sorted, `index`
    (word -> its row), and per view id `rows`, the vocabulary row of each of
    the view's words in the view's order, and `families`, the view's scale
    family; `views` are the views it was built from, in order."""

    words: list[str]
    index: dict[str, int]
    rows: dict[str, np.ndarray]
    families: dict[str, ScaleFamily]
    views: tuple[LexiconView, ...]

    def sorted_words(self) -> list[str]:
        return list(self.words)

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def n_views(self) -> np.ndarray:
        """The number of views containing each word, in vocabulary order."""
        return np.bincount(np.concatenate(list(self.rows.values())), minlength=len(self.words))

    @cached_property
    def shared(self) -> dict[str, int]:
        """Per view id, how many of the view's words another view also covers."""
        return {vid: int(np.count_nonzero(self.n_views[rows] > 1)) for vid, rows in self.rows.items()}

    @cached_property
    def priors(self) -> np.ndarray:
        """Each word's prior concentration over the components, read-only, one
        row per word: uniform (1, 1, 1), boosted by c(w), the number of views
        containing the word, on the class they all assign it when they agree."""
        votes = np.zeros((len(self), 3))
        for view in self.views:
            votes[self.rows[view.id], coarse_class(view.family, view.values)] += 1.0
        n = votes.sum(axis=1, keepdims=True)
        table = 1.0 + np.where(votes == n, n, 0.0)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ViewSchema:
    """How to read one lexicon file.

    family None means the file's own `#family=` header declares it.  Binary
    token maps let files spell 1/0 as e.g. positive/negative.  Nonnegative
    column indices, no two the same, select fields from tab-separated rows;
    pair labels may sit in one comma-joined column or split across
    value_col/neg_col.
    """

    family: ScaleFamily | None = None
    id: str | None = None
    word_col: int = 0
    value_col: int = 1
    neg_col: int | None = None
    binary_tokens: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        named: dict[int, str] = {}  # column -> the option naming it
        for key in ("word_col", "value_col", "neg_col"):
            col = getattr(self, key)
            if col is None:
                continue
            if col < 0:
                raise ConfigError(f"schema option {key} must be a nonnegative column index, got {col}")
            if col in named:
                raise ConfigError(f"schema options {named[col]} and {key} both name column {col}")
            named[col] = key


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


def _single_digit_ratings(tokens: list[str], width: int) -> np.ndarray | None:
    """The ratings as an (n, width) array if every token is `width` single
    ASCII digits joined by commas (then every odd character of the tokens
    joined by commas is a comma), else None."""
    flat = ",".join(tokens)
    digits = flat[0::2]
    if (set(map(len, tokens)) <= {2 * width - 1} and flat[1::2] == "," * (len(digits) - 1)
            and digits.isascii() and digits.isdigit()):
        return (np.frombuffer(digits.encode("ascii"), np.uint8) - 48).reshape(-1, width).astype(float)
    return None


def _label_values(tokens: list[str], family: ScaleFamily, binary_tokens: dict) -> np.ndarray | None:
    """The tokens' labels as an (n, width) float array, converted on whole
    columns as float() (int() for ratings) reads each number, or None if a
    token does not convert; an unknown binary token reads as nan."""
    tag, width = family.tag, family.width
    try:
        if tag == BINARY:
            table = {"0": 0, "1": 1, **binary_tokens}  # any other token maps to None, then nan
            values = np.array(list(map(table.get, casefold_each(tokens))), dtype=float)
        elif tag == SIGNED_CONTINUOUS:
            values = np.array(tokens, dtype=float)
        elif tag == PAIR_CONTINUOUS or (values := _single_digit_ratings(tokens, width)) is None:
            numbers = ",".join(tokens).split(",") if tokens else []
            if list(map(",".join, zip(*[iter(numbers)] * width))) != tokens:  # a token of the wrong size
                return None
            values = np.array(numbers if tag == PAIR_CONTINUOUS else list(map(int, numbers)), dtype=float)
    except (ValueError, OverflowError):  # not a number, or a rating beyond the float range
        return None
    return values.reshape(-1, width)


def _check_row(fields: list[str], schema: ViewSchema, family: ScaleFamily, needed: int) -> None:
    """Raise the ParseError or DomainError that one data row's fields make."""
    if len(fields) < needed:
        raise ParseError(f"expected at least {needed} tab-separated fields, got {len(fields)}")
    word = fields[schema.word_col].strip()
    if not word:
        raise ParseError("empty word")
    token = ",".join(fields[c].strip() for c in (schema.value_col, schema.neg_col) if c is not None)
    value = _label_values([token], family, schema.binary_tokens)
    if len(word.split()) > 1 or word[0] == "#" or (value is not None and not out_of_domain(family, value)[0]):
        return  # a multi-word entry or a word starting with '#', skipped, or a label of the family
    tag = family.tag
    if tag == BINARY:
        raise DomainError(f"unrecognized binary label {token!r}")
    parts = [token] if tag == SIGNED_CONTINUOUS else token.split(",")
    if tag == PAIR_CONTINUOUS and len(parts) != 2:
        raise ParseError(f"pair label needs two comma-separated values, got {token!r}")
    try:
        numbers = list(map(int if tag == RATER_HISTOGRAM else float, parts))
    except ValueError:
        raise ParseError(f"unparseable label {token!r}") from None
    raise DomainError(_domain_message(family, numbers[0] if tag == SIGNED_CONTINUOUS else tuple(numbers)))


def parse_lexicon(path: str | Path, schema: ViewSchema | None = None) -> LexiconView:
    """Read one lexicon file into a validated LexiconView.

    Files in the normalized format declare their family on line one
    (`#family=...`); other layouts need an explicit schema.  Duplicate words
    resolve last-wins; entries containing whitespace, and words starting with
    `#`, which any artifact that writes them first would read as comments,
    are skipped.  Each is counted and logged.  The first bad row (too few
    fields, an empty word, or a label that does not parse or lies outside
    the family's domain) raises a ParseError or DomainError at its line.
    Each column is checked whole, the domain by the view; the rows are
    walked one by one only once a check fails.
    """
    path = Path(path)
    schema = schema or ViewSchema()
    rows = Rows(path, "lexicon file")

    family = schema.family
    if rows.others.get(1, "").startswith("#family="):
        header_family = _parse_header_family(rows.others[1], str(path))
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

    needed = max(schema.word_col, schema.value_col, schema.neg_col or 0) + 1
    view = None
    if not len(rows.counts) or rows.counts.min() >= needed:
        words = list(map(str.strip, rows.column(schema.word_col)))
        tokens = list(map(str.strip, rows.column(schema.value_col)))
        if schema.neg_col is not None:
            tokens = list(map("{},{}".format, tokens, map(str.strip, rows.column(schema.neg_col))))
        n_rows, n_hashed = len(words), 0
        # stripped words joined split into more than one part only if one holds whitespace; a
        # word can start with '#' only off column 0, as a data line never starts with one
        hashed = schema.word_col > 0 and "\t#" in "\t" + "\t".join(words)
        if "" not in words and (len("".join(words).split()) > 1 or hashed):
            n_hashed = sum(word[0] == "#" and len(word.split()) == 1 for word in words)
            kept = [i for i, word in enumerate(words) if len(word.split()) == 1 and word[0] != "#"]
            words, tokens = list(map(words.__getitem__, kept)), list(map(tokens.__getitem__, kept))
        values = None if "" in words else _label_values(tokens, family, schema.binary_tokens)
        with suppress(DomainError):  # the view refuses a label outside the family's domain
            view = None if values is None else LexiconView(schema.id or path.stem, family, words, values)
    if view is None:  # some row is bad: walk them in file order to raise its error
        for line, fields in rows.walk():
            try:
                _check_row(fields, schema, family, needed)
            except ParseError as e:
                raise type(e)(str(e), path=str(path), line=line) from None
        raise AssertionError(f"{path}: a column check failed on rows that all pass")

    if len(view) < len(words):
        log.warning("%s: %d duplicate words resolved last-wins", path, len(words) - len(view))
    if len(words) + n_hashed < n_rows:
        log.warning("%s: %d multi-word entries skipped", path, n_rows - len(words) - n_hashed)
    if n_hashed:
        log.warning("%s: %d words starting with '#' skipped", path, n_hashed)
    return view


def write_lexicon(view: LexiconView, path: str | Path) -> None:
    """Serialize a view to the normalized format (sorted, round-trip exact):
    integers for binary and rater labels, repr() floats otherwise.  A view
    file is an input to later runs, so its floats must read back exactly,
    which errors.FLOAT_FORMAT's 12 digits do not."""
    if view.family.tag in (BINARY, RATER_HISTOGRAM):
        labels = [",".join(map(str, row)) for row in view.values.astype(np.int64).tolist()]
    else:
        labels = [",".join(map(repr, row)) for row in view.values.tolist()]
    write_lines(path, [view.family.header(), *map("{}\t{}".format, view.words, labels)])


def build_vocabulary(views: list[LexiconView]) -> CombinedVocabulary:
    """Union of all view vocabularies with exact membership.  With two or
    more views, one warning names every view that shares no word with any
    other."""
    if not views:
        raise ConfigError("build_vocabulary needs at least one view")
    ids = [v.id for v in views]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"view ids must be unique, got {ids}")
    index, rows = merge_words(views)
    vocab = CombinedVocabulary(
        list(index), index, dict(zip(ids, rows)), {v.id: v.family for v in views}, tuple(views)
    )
    alone = [vid for vid in ids if not vocab.shared[vid]]
    if len(views) > 1 and alone:
        log.warning("views %s share no word with any other view", alone)
    return vocab


def coarse_class(family: ScaleFamily, values: np.ndarray) -> np.ndarray:
    """Each label row collapsed to the index of positive, negative or neutral.

    Continuous scales use a dead-zone of width DEFAULT_TAU around the
    neutral point so near-zero strengths do not count as polar; rater
    histograms compare the mean rating against the scale midpoint with
    slack DEFAULT_TAU_R.
    """
    tag = family.tag
    if tag == BINARY:
        return np.where(values[:, 0] == 1.0, POSITIVE, NEGATIVE)
    if tag == SIGNED_CONTINUOUS:
        up, down = values[:, 0] > DEFAULT_TAU, values[:, 0] < -DEFAULT_TAU
    elif tag == PAIR_CONTINUOUS:
        pos, neg = values[:, 0], values[:, 1]
        up, down = pos - neg > DEFAULT_TAU, neg - pos > DEFAULT_TAU
    else:
        mean = values.sum(axis=1) / family.width
        midpoint = (family.n_points - 1) / 2.0
        up, down = mean > midpoint + DEFAULT_TAU_R, mean < midpoint - DEFAULT_TAU_R
    return np.where(up, POSITIVE, np.where(down, NEGATIVE, NEUTRAL))


def compute_prior(word: str, views: list[LexiconView], vocab: CombinedVocabulary) -> np.ndarray:
    """The word's row of vocab.priors, a read-only (3,) array.  views must be
    the ones the vocabulary was built from, in the same order."""
    if tuple(views) != vocab.views:  # views compare by identity
        raise ConfigError(f"views {[v.id for v in views]} are not the ones the vocabulary was built from")
    row = vocab.index.get(word)
    if row is None:
        raise ConfigError(f"word {word!r} not in vocabulary")
    return vocab.priors[row]
