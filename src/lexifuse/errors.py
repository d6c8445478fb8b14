"""Exception hierarchy shared across the package, the one reader of input
files that maps their failures onto it, and the one writer of artifacts.

Each class maps to one CLI exit-code category: usage/configuration -> 2,
parse/domain -> 3, numeric -> 4.
"""

import contextlib
import os
import secrets
from pathlib import Path


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
    """An input file's text.  A missing, non-regular or unreadable file is a
    ConfigError; bytes that are not UTF-8 are a ParseError naming the line."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what} {path} is not a regular file")
    try:
        data = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}") from None
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
    lines = read_input(path, what).replace("\r\n", "\n").split("\n")
    if lines[-1].endswith("\r"):
        lines[-1] = lines[-1][:-1]
    return lines


@contextlib.contextmanager
def atomic_write(path: str | Path):
    """A UTF-8 text file to write `path` through.  The block writes a new file
    beside it, which os.replace moves onto `path` once the block completes;
    if the block raises, the new file is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
