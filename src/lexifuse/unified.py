"""Materialized fused lexicon: per-word concentration vector and posterior mean.

The on-disk form is a UTF-8 TSV, sorted by word, with `#` attribution
headers (tool version, seed, config hash) and values printed with `%.12g`.
That does not round-trip a double exactly (1/3 needs 17 digits): a value
read back can differ from the exported one by half a unit in its 12th
significant digit.  Reruns are byte-identical because equal doubles format
the same way, and rewriting a file that was read back reproduces it byte for
byte, because a 12-digit decimal survives the trip through a double.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigError, ParseError, read_input
from .lexica import LexiconView, build_vocabulary
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
    word: str
    beta: tuple[float, float, float]
    mean: tuple[float, float, float]
    n_views: int

    def __post_init__(self):
        if len(self.beta) != 3 or len(self.mean) != 3:
            raise ConfigError("beta and mean must have 3 components")
        if self.n_views < 1:
            raise ConfigError(f"n_views must be >= 1, got {self.n_views}")
        total = sum(self.beta)
        for b in self.beta:
            if not b >= 1.0:
                raise ConfigError(f"beta components must be >= 1, got {self.beta}")
        if abs(sum(self.beta) - 3.0 - self.n_views) > 1e-9 * max(1.0, total):
            raise ConfigError(
                f"sum(beta) - 3 must equal n_views: beta={self.beta}, n_views={self.n_views}"
            )
        for m, b in zip(self.mean, self.beta):
            if abs(m - b / total) > 1e-9:
                raise ConfigError(f"mean {self.mean} is not beta/sum(beta) for beta {self.beta}")


def export_lexicon(model: ModelState, views: list[LexiconView]) -> list[UnifiedEntry]:
    """One entry per word of the views via the trained encoders, sorted by word.

    Words that a view without an encoder covers are skipped with a warning
    rather than aborting the export.
    """
    vocab = build_vocabulary(views)
    missing = {v.id for v in views} - model.encoders.keys()
    beta = posterior_params([v for v in views if v.id not in missing], model.encoders)
    mean = beta / beta.sum(axis=1, keepdims=True)
    rows = zip(beta.tolist(), mean.tolist())
    entries = []
    skipped = 0
    for word in vocab.sorted_words():
        vids = vocab.membership[word]
        lost = sorted(missing.intersection(vids))
        if len(lost) < len(vids):  # a covered view gave the word a row
            b, m = next(rows)
        if lost:
            skipped += 1
            log.warning("skipping %r: no encoder for views %s", word, lost)
            continue
        entries.append(UnifiedEntry(word=word, beta=tuple(b), mean=tuple(m), n_views=len(vids)))
    if skipped:
        log.warning("export skipped %d of %d words", skipped, len(vocab))
    return entries


class UnifiedLexicon:
    """Loaded fused lexicon with case-folded exact lookup."""

    def __init__(self, entries: list[UnifiedEntry], meta: dict[str, str] | None = None):
        self.meta = dict(meta or {})
        self._by_word: dict[str, UnifiedEntry] = {}
        for e in entries:
            self._by_word[e.word.casefold()] = e

    def lookup(self, word: str) -> UnifiedEntry | None:
        return self._by_word.get(word.casefold())

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._by_word

    def __len__(self) -> int:
        return len(self._by_word)

    def words(self) -> list[str]:
        return sorted(self._by_word)

    def entries(self) -> list[UnifiedEntry]:
        return [self._by_word[w] for w in self.words()]


def write_unified(
    path: str | Path,
    entries: list[UnifiedEntry],
    *,
    seed: int | None = None,
    config_hash: str | None = None,
) -> None:
    lines = [f"# unified polarity lexicon (lexifuse {__version__})"]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    if config_hash is not None:
        lines.append(f"# config_hash: {config_hash}")
    lines.append("\t".join(_COLUMNS))
    for e in sorted(entries, key=lambda e: e.word):
        lines.append(
            "\t".join(
                (
                    e.word,
                    *(f"{b:.12g}" for b in e.beta),
                    *(f"{m:.12g}" for m in e.mean),
                    str(e.n_views),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_unified(path: str | Path) -> UnifiedLexicon:
    path = Path(path)
    meta: dict[str, str] = {}
    entries: list[UnifiedEntry] = []
    first_line: dict[str, int] = {}
    saw_header = False
    for lineno, raw in enumerate(read_input(path, "unified lexicon file").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        parts = raw.split("\t")
        if not saw_header:
            if tuple(parts) != _COLUMNS:
                raise ParseError(
                    f"expected header {' '.join(_COLUMNS)!r}, got {raw!r}",
                    path=str(path),
                    line=lineno,
                )
            saw_header = True
            continue
        if len(parts) != len(_COLUMNS):
            raise ParseError(
                f"expected {len(_COLUMNS)} columns, got {len(parts)}",
                path=str(path),
                line=lineno,
            )
        try:
            entry = UnifiedEntry(
                word=parts[0],
                beta=tuple(float(p) for p in parts[1:4]),
                mean=tuple(float(p) for p in parts[4:7]),
                n_views=int(parts[7]),
            )
        except (ValueError, ConfigError) as e:
            raise ParseError(str(e), path=str(path), line=lineno) from e
        key = entry.word.casefold()
        if key in first_line:
            raise ParseError(
                f"word {entry.word!r} repeats line {first_line[key]}", path=str(path), line=lineno
            )
        first_line[key] = lineno
        entries.append(entry)
    if not saw_header:
        raise ParseError("missing header row", path=str(path), line=1)
    return UnifiedLexicon(entries, meta)
