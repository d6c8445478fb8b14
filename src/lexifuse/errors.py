"""Exception hierarchy shared across the package, and the one reader of
input files that maps their failures onto it.

Each class maps to one CLI exit-code category: usage/configuration -> 2,
parse/domain -> 3, numeric -> 4.
"""

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
