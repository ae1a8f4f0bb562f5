"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class CompositionNonzero(EngineError):
    """Two consecutive boundary maps do not compose to zero."""


class UndefinedGenerator(EngineError):
    """A derivation was applied to a generator it has no value for."""


class TruncationOverflow(EngineError):
    """An image left the truncation window; the bound must be raised."""


class NotQuasiMonic(EngineError):
    """The presentation lacks the quasi-monic data required here."""


class UnsupportedV0(EngineError):
    """Tate extension only applies to models with no degree-0 generators."""


class WindowTooSmall(EngineError):
    """The built window does not cover the requested degrees."""


class HypothesisViolated(EngineError):
    """A degeneracy shortcut was requested outside its hypothesis."""


class TooManyVariables(EngineError):
    """The small-variable cyclic layer formula only covers <= 2 variables."""


class ParseError(EngineError):
    """Input text does not match the job grammar."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
