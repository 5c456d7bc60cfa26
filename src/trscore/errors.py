"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An operand lies outside the mathematical domain of the operation."""


class ContractError(RuntimeError):
    """A caller violated a documented precondition."""


class ConfigurationError(ValueError):
    """A training or dataset configuration is invalid."""


class MetricUndefinedError(ValueError):
    """The requested metric is undefined for the given inputs."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss term."""


class FusionUnavailableError(LookupError):
    """Pseudo-label fusion requires both memory entries to be present."""


class ParseError(ValueError):
    """A serialized file is malformed.

    ``offset`` is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
