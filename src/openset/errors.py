"""Exception hierarchy shared across the package.

Validation-style errors (bad inputs, bad files, impossible requests)
are distinguished from runtime errors (numerical blow-ups, exhausted
retries) so the CLI can map them to distinct exit codes. Every config
dataclass runs check_fields on construction.
"""

import dataclasses
import math


class OpensetError(Exception):
    """Base class for all package errors."""


class ConfigError(OpensetError):
    """Invalid or inconsistent configuration."""


class DimensionError(OpensetError):
    """Array shapes do not line up."""


class DegenerateInputError(OpensetError):
    """Input is valid in shape but degenerate in value (zero vector,
    batch without positive/negative pairs, ...)."""


class NumericError(OpensetError):
    """Non-finite values where finite ones are required."""


class ParseError(OpensetError):
    """A text file could not be parsed; message carries the line number."""


class FormatError(OpensetError):
    """A binary file has a bad magic, version, or is truncated."""


class EligibilityError(OpensetError):
    """Too few eligible items for the request: split generation cannot
    satisfy the requested hold-out counts, or no evaluation subset has n
    classes with enough instances for an episode."""


class SamplingError(OpensetError):
    """Batch or episode sampling cannot satisfy its constraints."""


class MethodError(OpensetError):
    """An operation was requested that the embedding method does not support."""


VALIDATION_ERRORS = (
    ConfigError,
    DimensionError,
    ParseError,
    FormatError,
    EligibilityError,
    MethodError,
)


def check_fields(cfg) -> None:
    """Raise ConfigError if any float field of a config dataclass is NaN or
    infinite (range checks compare, and every comparison with NaN is false),
    or if its seed is negative (numpy, and the draw counters of episodic,
    seed only from nonnegative integers)."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(cfg).__name__}: {f.name} must be finite, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ConfigError(f"{type(cfg).__name__}: seed must be nonnegative, got {value}")
