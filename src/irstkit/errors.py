"""Exception taxonomy shared across the toolkit.

The three broad families (config, data, numeric) are meant to map onto
distinct exit codes of a command-line front end, so new failure modes
should subclass one of them rather than raising bare ValueError.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class ShapeError(ToolkitError):
    """Tensor or box dimensions are inconsistent with the operation."""


class ConfigError(ToolkitError):
    """A configuration value is invalid (bad group count, stride, width...)."""


class NumericError(ToolkitError):
    """A numeric failure: non-finite values, degenerate variance, NaN loss."""


class ContractError(ToolkitError):
    """An API was called outside its contract (e.g. backward on a non-scalar)."""


class DeterminismError(ToolkitError):
    """A closure expected to be deterministic produced differing outputs."""


class DataError(ToolkitError):
    """Dataset-level failure: parse errors, bad ranges, missing files."""


class ParseError(DataError):
    """A label or dataset manifest line, PGM image or checkpoint file could not be parsed."""


class AccountingError(ToolkitError):
    """A layer type has no parameter/flops accounting rule."""
