"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An argument is outside the operation's valid domain."""


class DataError(ValueError):
    """Input data cannot serve the run: a dataset file that does not parse or
    match the schema, a feature cell too large to standardize, or a sweep
    whose every sample count is oversized; or a planned cell (a set without
    both classes, an mlp_fed train set with fewer rows than k_clients),
    refused before any row of it is taken or any model trains."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""
