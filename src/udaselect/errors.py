"""Exception types shared across the package."""


class UdaError(Exception):
    """Base class for all package errors."""


class ContractError(UdaError, ValueError):
    """A function was called with arguments violating its preconditions."""


class ConfigError(UdaError, ValueError):
    """Invalid configuration (dimensions, ranges, enum values)."""


class NumericError(UdaError, ArithmeticError):
    """Non-finite values were produced during a forward or backward pass.
    A training step sets ``lane`` to the index of the lane (the run) of
    its stack that it arose in, and ``trainer.train_stacks`` sets ``run``
    to that run's index in the runs it was given."""

    lane: int | None = None
    run: int | None = None


class FeatureFileError(UdaError, ValueError):
    """A feature file failed to parse; message carries the line number."""
