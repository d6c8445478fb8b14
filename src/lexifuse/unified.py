"""The fused lexicon: one Dirichlet concentration per word, held as arrays.

`UnifiedLexicon` is the only in-memory form.  It keeps four parallel arrays
sorted by case-folded word: `words`, `beta` (n, 3), `mean` (n, 3) and
`n_views` (n,).  Its constructor checks the invariants once, vectorized, for
an export and a file read alike: no word holds a tab or line feed or
starts with `#` (after any leading whitespace), which its file would read
as a comment, every beta component is finite and >= 1, n_views >= 1,
sum(beta) - 3 equals n_views, and mean equals beta / sum(beta).
Each test is written to pass only on a good value, so nan and inf fail it.
`read_unified` splits the file in one pass (errors.Rows) and converts each
value column whole; when a row does not read, a word repeats or a check
fails, it reports the first failing row as a ParseError at its line.

The on-disk form is a UTF-8 TSV with the `#` attribution header (tool
version, seed, config hash) and values printed with errors.FLOAT_FORMAT, one
row per word in the lexicon's order.  A value read back can differ from the
exported one in its 12th significant digit, but rewriting a file that was
read back reproduces it byte for byte.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, compress, islice
from pathlib import Path

import numpy as np

from .errors import FLOAT_FORMAT, ConfigError, ParseError, Rows, header, header_meta, write_lines
from .lexica import LexiconView, build_vocabulary, casefold_each
from .model import ModelState, posterior_params

log = logging.getLogger(__name__)

_COLUMNS = (
    "word",
    "beta_pos",
    "beta_neg",
    "beta_neu",
    "mean_pos",
    "mean_neg",
    "mean_neu",
    "n_views",
)


@dataclass(frozen=True)
class UnifiedEntry:
    """One row of a fused lexicon, as `entries` returns it."""

    word: str
    beta: tuple[float, float, float]
    mean: tuple[float, float, float]
    n_views: int


class _InvalidRow(ConfigError):
    """A row that breaks an invariant; `row` is its index in the input order."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _check_rows(words: list[str], beta: np.ndarray, mean: np.ndarray, n_views: np.ndarray) -> None:
    total = beta.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        passed = {
            "n_views must be >= 1": n_views >= 1,
            "beta components must be finite and >= 1":
                np.isfinite(beta).all(axis=1) & (beta >= 1.0).all(axis=1),
            "sum(beta) - 3 must equal n_views":
                np.abs(total - 3.0 - n_views) <= 1e-9 * np.maximum(1.0, total),
            "mean must equal beta / sum(beta)":
                (np.abs(mean - beta / total[:, None]) <= 1e-9).all(axis=1),
        }
    ok = np.logical_and.reduce(list(passed.values()))
    if not ok.all():
        i = int(np.argmin(ok))
        reason = next(message for message, rows in passed.items() if not rows[i])
        raise _InvalidRow(
            f"{reason}: word {words[i]!r}, beta {beta[i].tolist()}, "
            f"mean {mean[i].tolist()}, n_views {n_views[i]}",
            i,
        )


class UnifiedLexicon:
    """A fused lexicon as parallel arrays sorted by case-folded word; `_index`
    maps each case-folded word to its row, for the fused featurizers.  The
    rows may come in any order; a word that repeats (after case-folding) or
    that write_unified cannot write on a line of its own is a ConfigError."""

    def __init__(self, words, beta, mean, n_views, meta: dict[str, str] | None = None):
        beta, mean = np.asarray(beta, dtype=float), np.asarray(mean, dtype=float)
        n_views = np.asarray(n_views, dtype=int)
        n = len(words)
        if beta.shape != (n, 3) or mean.shape != (n, 3) or n_views.shape != (n,):
            raise ConfigError(
                f"{n} words need beta and mean of shape ({n}, 3) and n_views of shape "
                f"({n},), got {beta.shape}, {mean.shape} and {n_views.shape}"
            )
        joined = "".join(words)
        if "\t" in joined or "\n" in joined or "\n#" in "\n" + "\n".join(map(str.lstrip, words)):
            i = next(i for i, w in enumerate(words) if "\t" in w or "\n" in w or w.lstrip()[:1] == "#")
            raise _InvalidRow(f"word {words[i]!r} starts with '#' or holds a tab or line feed, so no "
                              "unified lexicon file can carry it", i)
        _check_rows(words, beta, mean, n_views)
        keys = casefold_each(list(words))
        order = sorted(range(n), key=keys.__getitem__)
        self._index: dict[str, int] = dict(zip(map(keys.__getitem__, order), range(n)))
        if len(self._index) < n:
            first: dict[str, int] = {}
            for row, i in enumerate(order):
                if first.setdefault(keys[i], row) != row:
                    raise _InvalidRow(f"word {words[i]!r} repeats", i)
        self.words = list(map(words.__getitem__, order))
        self.beta, self.mean, self.n_views = beta[order], mean[order], n_views[order]
        self.meta = dict(meta or {})

    def _entry(self, row: int) -> UnifiedEntry:
        beta, mean = tuple(self.beta[row].tolist()), tuple(self.mean[row].tolist())
        return UnifiedEntry(self.words[row], beta, mean, int(self.n_views[row]))

    def __len__(self) -> int:
        return len(self.words)

    def entries(self) -> list[UnifiedEntry]:
        return [self._entry(row) for row in range(len(self.words))]


def export_lexicon(model: ModelState, views: list[LexiconView]) -> UnifiedLexicon:
    """The fused lexicon of the views' words, via the trained encoders.

    Words that a view without a head covers are skipped rather than
    aborting the export, with one warning naming those views and the first
    few skipped words.  The other views go to posterior_params,
    which refuses one whose family differs from its head's with a
    ConfigError.
    """
    vocab = build_vocabulary(views)
    missing = sorted({v.id for v in views} - model.scales.keys())
    beta = posterior_params([v for v in views if v.id not in missing], model, vocab)
    words, n_views = vocab.words, vocab.n_views
    if missing:
        keep = np.ones(len(vocab), dtype=bool)
        for vid in missing:
            keep[vocab.rows[vid]] = False
        lost = np.flatnonzero(~keep)
        log.warning("export skipped %d of %d words: no head for views %s; first skipped %s",
                    len(lost), len(vocab), missing, ", ".join(repr(words[row]) for row in lost[:5]))
        words, beta, n_views = list(compress(words, keep)), beta[keep], n_views[keep]
    mean = beta / beta.sum(axis=1, keepdims=True)
    return UnifiedLexicon(words, beta, mean, n_views)


def write_unified(
    path: str | Path,
    lexicon: UnifiedLexicon,
    *,
    seed: int | None = None,
    config_hash: str | None = None,
) -> None:
    head = [*header("unified polarity lexicon", seed=seed, config_hash=config_hash), "\t".join(_COLUMNS)]
    row = "\t".join(["%s", *[FLOAT_FORMAT] * 6, "%d"])
    columns = [lexicon.words, *np.hstack([lexicon.beta, lexicon.mean]).T.tolist(), lexicon.n_views.tolist()]
    write_lines(path, chain(head, map(row.__mod__, zip(*columns))))


def _first_bad_row(rows: Rows, path: Path) -> None:
    """Raise the first bad row's ParseError: a wrong column count, a value
    that does not parse, an n_views beyond int64 or a repeated word."""
    first_line: dict[str, int] = {}
    for line, parts in islice(rows.walk(), 1, None):
        try:
            if len(parts) != len(_COLUMNS):
                raise ValueError(f"expected {len(_COLUMNS)} columns, got {len(parts)}")
            [float(p) for p in parts[1:7]]
            if not -2**63 <= (n := int(parts[7])) < 2**63:
                raise ValueError(f"n_views {n} is beyond int64")
            if (key := parts[0].casefold()) in first_line:
                raise ValueError(f"word {parts[0]!r} repeats line {first_line[key]}")
        except ValueError as e:
            raise ParseError(str(e), path=str(path), line=line) from None
        first_line[key] = line


def read_unified(path: str | Path) -> UnifiedLexicon:
    """Read a unified lexicon file: `#` comments give the meta, the first
    row is the column header.  Each value column is converted whole; only
    when that or the lexicon's checks fail are the rows walked in file
    order, to raise the first bad row's ParseError at its line."""
    path = Path(path)
    rows = Rows(path, "unified lexicon file")
    if not len(rows.numbers):
        raise ParseError("missing header row", path=str(path), line=1)
    if tuple(names := rows.fields[:rows.counts[0]]) != _COLUMNS:
        raw = "\t".join(names)
        raise ParseError(f"expected header {' '.join(_COLUMNS)!r}, got {raw!r}", path=str(path),
                         line=int(rows.numbers[0]))
    try:
        if (rows.counts != len(_COLUMNS)).any():
            raise ValueError("a row's column count differs")
        width = len(_COLUMNS)  # every row has it: each column is a slice, past the header row
        columns = [rows.fields[width + c::width] for c in range(width)]
        values = np.array(columns[1:7], dtype=float)
        n_views = np.array(list(map(int, columns[7])), dtype=np.int64)
        return UnifiedLexicon(columns[0], values[:3].T, values[3:].T, n_views, header_meta(rows.others.values()))
    except (ValueError, OverflowError, ConfigError) as e:
        _first_bad_row(rows, path)  # raises unless every row reads and no word repeats
        at = int(rows.numbers[e.row + 1]) if isinstance(e, _InvalidRow) else None
        raise ParseError(str(e), path=str(path), line=at) from e
