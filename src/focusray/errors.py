"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes: parse failures (3),
validation failures (4) and output failures (5); usage errors are handled
by argparse itself (2).
"""

from __future__ import annotations


class FocusrayError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FocusrayError):
    """A value violates a documented invariant (names the offending field)."""


class GeometryError(FocusrayError):
    """Degenerate geometric input (zero-length vector, coincident optical centers)."""


class ParseError(FocusrayError):
    """A file could not be parsed; message carries file path and line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class OutputError(FocusrayError):
    """The output document could not be written; message carries the path."""
