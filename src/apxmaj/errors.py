"""Shared exception types. The CLI maps these onto exit codes."""


class ApxMajError(Exception):
    """Base class for all library errors."""


class ParseError(ApxMajError):
    """Malformed netlist / formula / truth-table input.

    Carries 1-based line/column positions when they are known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ResourceLimitError(ApxMajError):
    """An operation refused to run because it would exceed a stated cap."""


class DimensionError(ApxMajError):
    """Operands disagree on variable count / arity."""
