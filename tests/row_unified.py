"""The line-by-line unified lexicon reader the library ran before it split
files in one pass, kept as the tests' oracle for read_unified: each line is
split, checked and converted in file order, and the first bad line raises.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lexifuse.errors import ConfigError, ParseError, read_lines
from lexifuse.unified import _COLUMNS, UnifiedLexicon, _InvalidRow


def read_unified(path: str | Path) -> UnifiedLexicon:
    path = Path(path)
    meta: dict[str, str] = {}
    words: list[str] = []
    values: list[list[float]] = []
    n_views: list[int] = []
    first_line: dict[str, int] = {}
    saw_header = False
    for lineno, raw in enumerate(read_lines(path, "unified lexicon file"), start=1):
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
            row = [float(p) for p in parts[1:7]]
            n = int(parts[7])
        except ValueError as e:
            raise ParseError(str(e), path=str(path), line=lineno) from e
        if not -2**63 <= n < 2**63:
            raise ParseError(f"n_views {n} is beyond int64", path=str(path), line=lineno)
        key = parts[0].casefold()
        if key in first_line:
            raise ParseError(
                f"word {parts[0]!r} repeats line {first_line[key]}", path=str(path), line=lineno
            )
        first_line[key] = lineno
        words.append(parts[0])
        values.append(row)
        n_views.append(n)
    if not saw_header:
        raise ParseError("missing header row", path=str(path), line=1)
    table = np.array(values, dtype=float).reshape(-1, 6)
    try:
        return UnifiedLexicon(words, table[:, :3], table[:, 3:], n_views, meta)
    except ConfigError as e:
        row_lines = list(first_line.values())  # each row's line, in file order
        at = row_lines[e.row] if isinstance(e, _InvalidRow) else None
        raise ParseError(str(e), path=str(path), line=at) from e
