"""Exception classes shared across the package.

The CLI's exit table (``cli._EXITS``, listed by ``fequbit --help``) gives
the exit code each class ends a command with; ``TruncationError`` and
``WindowError`` share one. Library code should raise the most specific
class that applies.
"""


class FequbitError(Exception):
    """Base class for all package errors."""


class WindowError(FequbitError):
    """A ladder index falls outside the requested truncation window."""


class ConfigurationError(FequbitError, ValueError):
    """Invalid physics or run configuration, or a malformed input file
    (rejected before computing). Also a ValueError, so a caller of a reader
    such as ``Spectrogram.from_csv`` can catch it as one."""


class TruncationError(FequbitError):
    """Probability leaked into the window edge beyond the allowed tolerance.

    Raised after an operator application whose result is no longer trustworthy
    on the current window, and by projections whose comb identities require
    interior support. The fix is a larger window.
    """


class CircuitParseError(FequbitError):
    """Gate DSL source could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
