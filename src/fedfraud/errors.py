"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An argument is outside the operation's valid domain."""


class DataError(ValueError):
    """Input data cannot serve the run: a dataset file that does not parse or
    match the schema, a set without both classes, a train set with fewer rows
    than k_clients, or a sweep whose every sample count is oversized."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""
