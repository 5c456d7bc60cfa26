"""Exception types shared across the package.

Every type derives from ``TrscoreError``, so one ``except`` clause catches
whatever the package raises, and from the builtin its kind suggests, so
``except ValueError`` catches a ``ParseError`` too.
"""


class TrscoreError(Exception):
    """Base of every error the package raises."""


class DimensionError(TrscoreError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(TrscoreError, ValueError):
    """An operand lies outside the mathematical domain of the operation."""


class ContractError(TrscoreError, RuntimeError):
    """A caller violated a documented precondition."""


class ConfigurationError(TrscoreError, ValueError):
    """A training or dataset configuration is invalid."""


class NonFiniteFeaturesError(ConfigurationError):
    """A sample's features hold a NaN or an infinity."""


class MetricUndefinedError(TrscoreError, ValueError):
    """The requested metric is undefined for the given inputs."""


class DivergenceError(TrscoreError, ArithmeticError):
    """Training produced a non-finite loss term."""


class WorkerError(TrscoreError, RuntimeError):
    """A forked worker ended without a reply, or raised an error that could
    not be sent back."""


class FusionUnavailableError(TrscoreError, LookupError):
    """Pseudo-label fusion requires both memory entries to be present."""


class ParseError(TrscoreError, ValueError):
    """A serialized file is malformed.

    ``offset`` is the byte position at which parsing failed. Both arguments
    stay in ``args``, so that pickle, which calls the type with ``args``,
    rebuilds the error.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        message, offset = self.args
        return f"{message} (byte offset {offset})"
