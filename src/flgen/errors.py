"""Exception types shared across the package."""


class FlgenError(Exception):
    """Base class for every error this package raises deliberately."""


class UsageError(FlgenError):
    """An API was called in a way that violates its contract."""


class DomainError(FlgenError):
    """An algebraic operation was applied outside its domain of definition."""


class ConfigurationError(FlgenError):
    """A requested configuration is unknown or infeasible."""


class GenerationError(FlgenError):
    """Random generation exhausted its attempt budget."""


class ParseError(FlgenError):
    """A data file is malformed, a header that disagrees with its file
    included; the CLI exits 1 on it.  ``line`` is the 1-based line number of
    the problem, when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
