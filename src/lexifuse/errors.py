"""Exception hierarchy shared across the package, the one reader of input
files that maps their failures onto it, the one splitter of tab-separated
input files into fields, and the one writer of artifacts, which owns the
text-artifact format: the attribution header (`header`, read back by
`header_meta`), FLOAT_FORMAT and `write_lines`.

Each class maps to one CLI exit-code category: usage/configuration -> 2,
parse/domain -> 3, numeric -> 4.
"""

import contextlib
import errno
import os
import secrets
from collections.abc import Iterable
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__

# Every computed float a text artifact prints.  12 significant digits do not
# round-trip a double exactly (1/3 needs 17), so a value read back can differ
# from the written one by half a unit in its 12th digit.  Reruns are still
# byte-identical, because equal doubles print the same, and a value read back
# prints as it was read, because a 12-digit decimal survives a double.
FLOAT_FORMAT = "%.12g"


class LexifuseError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(LexifuseError):
    """Bad configuration, missing files, mismatched dimensions, misuse."""

    exit_code = 2


class UsageError(ConfigError):
    """API misuse (bad arguments to a library call)."""


class ParseError(LexifuseError):
    """Malformed input file; carries the offending line number when known."""

    exit_code = 3

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class DomainError(ParseError):
    """A value lies outside the domain its scale family allows."""


class NumericError(LexifuseError):
    """Non-finite quantity encountered during optimization."""

    exit_code = 4


def read_input(path: Path, what: str) -> str:
    """An input file's text, less a leading UTF-8 byte-order mark.  A missing,
    non-regular or unreadable file is a ConfigError; bytes that are not UTF-8
    are a ParseError naming the line."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what} {path} is not a regular file")
    try:
        data = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}") from None
    data = data.removeprefix(b"\xef\xbb\xbf")  # a BOM, cut so that e.start below indexes data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"not UTF-8: byte 0x{data[e.start]:02x}", path=str(path), line=line) from None


def read_lines(path: Path, what: str) -> list[str]:
    """An input file's lines.  Only a line feed ends a line, so line i of the
    list is line i of read_input's error messages; a carriage return right
    before it is dropped.  Other Unicode line boundaries (U+0085, U+2028,
    ...) stay inside their line."""
    text = read_input(path, what)
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    if lines[-1].endswith("\r"):
        lines[-1] = lines[-1][:-1]
    return lines


# First bytes that surely start a data line; other lines are classed by str.lstrip.
_DATA_START = np.array([0x20 < b < 0x7F and b != ord("#") for b in range(256)])


class Rows:
    """An input file's data rows, split into tab-separated fields in one pass.

    The data rows are the lines (as read_lines gives them) that are neither
    blank nor a comment by str.lstrip().  `numbers` holds each row's line
    number, `fields` all rows' fields one row after another, `counts` each
    row's number of fields, and `others` each other line by its number.
    """

    def __init__(self, path: Path, what: str):
        lines = read_lines(path, what)
        raw = np.frombuffer("\n".join(lines).encode() + b"\n", np.uint8)
        ends = np.flatnonzero(raw == 10)
        data = _DATA_START[raw[np.concatenate(([0], ends[:-1] + 1))]]  # each line's first byte
        for i in np.flatnonzero(~data).tolist():
            data[i] = lines[i].lstrip()[:1] not in ("", "#")
        # an ASCII byte never occurs inside a multi-byte UTF-8 sequence
        tabs = np.searchsorted(np.flatnonzero(raw == ord("\t")), ends)
        self.numbers = np.flatnonzero(data) + 1
        self.counts = np.diff(tabs, prepend=0)[data] + 1
        self.others = {i + 1: lines[i] for i in np.flatnonzero(~data).tolist()}
        joined = "\t".join(compress(lines, data.tolist()))
        del raw, lines  # freed before the fields exist, which hold the same text
        self.fields = joined.split("\t") if len(self.numbers) else []

    def column(self, c: int) -> list[str]:
        """Field c of every row; every row must have more than c fields."""
        k = self.counts
        return list(map(self.fields.__getitem__, (np.cumsum(k) - k + c).tolist()))

    def walk(self):
        """Each row's line number and fields, in file order."""
        start = 0
        for line, count in zip(self.numbers.tolist(), self.counts.tolist()):
            yield line, self.fields[start:start + count]
            start += count


@contextlib.contextmanager
def output_errors(path: Path):
    """Raise the OSErrors that say `path` cannot be made as a ConfigError
    naming it; others, such as a full disk, propagate as they are."""
    try:
        yield
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _open_beside(path: Path):
    """(name, handle) of a new UTF-8 file in `path`'s directory."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    with output_errors(path):
        return tmp, open(tmp, "x", encoding="utf-8")


def check_writable(path: str | Path) -> None:
    """Raise now the ConfigError that atomic_write(path) would raise on
    opening, or on replacing a directory, so that a command can refuse its
    output before doing the work; a file at `path` is left untouched."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    tmp, f = _open_beside(path)
    f.close()
    tmp.unlink()


@contextlib.contextmanager
def atomic_write(path: str | Path):
    """A UTF-8 text file to write `path` through.  The block writes a new file
    beside it, which os.replace moves onto `path` once the block completes;
    if the block raises, the new file is removed and `path` is untouched.  A
    path whose directory is missing or unwritable, or that names a directory,
    is a ConfigError."""
    path = Path(path)
    tmp, f = _open_beside(path)
    try:
        with f:
            yield f
        with output_errors(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` to `path` through atomic_write, each followed by a line
    feed; lines from an iterator are formatted as they are written."""
    with atomic_write(path) as f:
        f.writelines(line + "\n" for line in lines)


def header(title: str, *, seed: int | None = None, config_hash: str | None = None) -> list[str]:
    """An artifact's attribution header: its title with the tool version,
    then a `key: value` line for the seed and the config hash when given."""
    given = {"seed": seed, "config_hash": config_hash}
    return [f"# {title} (lexifuse {__version__})", *(f"# {k}: {v}" for k, v in given.items() if v is not None)]


def header_meta(comments: Iterable[str]) -> dict[str, str]:
    """The `key: value` pairs of a file's comment and blank lines, in file
    order (a later key wins), as `header` writes them."""
    meta: dict[str, str] = {}
    for text in comments:
        body = text.strip().lstrip("#").strip()
        if ":" in body:
            key, value = body.split(":", 1)
            meta[key.strip()] = value.strip()
    return meta
