"""Exception types shared across the package."""


class NprlError(Exception):
    """Base class for all package errors."""


class ShapeError(NprlError):
    """Tensor or parameter dimensions do not line up."""


class InputError(NprlError):
    """A caller-supplied value violates a precondition."""


class NumericError(NprlError):
    """A computation produced or received non-finite values."""


class FormatError(NprlError):
    """A file on disk does not match its declared format."""


class ConfigError(NprlError):
    """A configuration object or file is inconsistent."""


class FieldError(InputError, ConfigError):
    """A config dataclass was given a bad value; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)
        self.field, self.message = field, message

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class UndefinedMetricError(NprlError):
    """A metric is undefined for the given inputs (e.g. single-class AUROC)."""


class DegenerateError(NprlError):
    """A measurement collapsed to a value that carries no information."""


class LeakageError(NprlError):
    """Internal guard: evaluation data leaked into a training path."""
