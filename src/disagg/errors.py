"""The toolkit's error type, the value checks its constructors share, and its
JSON files' layout, written by ``write_json`` and parsed by ``reading``."""

import json
import math
import numbers
from contextlib import contextmanager
from pathlib import Path


class ValidationError(ValueError):
    """Invalid data, parameters, or file contents."""


def check_number(name, value, *, zero_ok=False, optional=False):
    """Raise ValidationError unless value passes check_real and is finite
    and > 0 (>= 0 if zero_ok); return it as a Python float, or None when
    optional and value is None."""
    if optional and value is None:
        return None
    number = check_real(name, value)
    if not (math.isfinite(number) and (number >= 0 if zero_ok else number > 0)):
        raise ValidationError(
            f"{name} must be finite and {'>=' if zero_ok else '>'} 0"
            f"{' when given' if optional else ''}, got {value!r}"
        )
    return number


def check_real(name, value):
    """Raise ValidationError unless value is a real number, numpy's included
    (not a bool, nor a string that float() would parse); return it as a
    Python float, so it saves to JSON."""
    # A plain float or int skips the slower abstract-class check.
    if type(value) is not float and type(value) is not int and (
        not isinstance(value, numbers.Real) or isinstance(value, bool)
    ):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return _float(name, value)


def _float(name, value):
    """float(value), or ValidationError for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be within the float range, got {value!r}") from None


def check_count(name, value, low=None):
    """Raise ValidationError unless value is an integer (not a bool) >= low
    (any integer when low is None); return it as a Python int, so a numpy
    integer saves to JSON."""
    # A plain int skips the slower abstract-class check.
    if type(value) is not int and (
        not isinstance(value, numbers.Integral) or isinstance(value, bool)
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def check_array(name, value):
    """Raise ValidationError unless value is a JSON array (a Python list);
    return it."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def check_name(value):
    """Raise ValidationError unless value is a device name: a non-empty string
    without '/', NUL, ',', CR or LF, since it names the file
    estimate_<name>.csv and prefixes a field of plot-data's CSV rows;
    return it."""
    if not isinstance(value, str) or not value or any(ch in value for ch in "/\0,\r\n"):
        raise ValidationError(
            f"device name {value!r} must be a non-empty string without '/', NUL, ',', "
            "CR or LF"
        )
    return value


class UnstableModelError(ValidationError):
    """A device model's spectral radius is not below 1 - margin."""

    def __init__(self, name: str, spectral_radius: float, margin: float):
        self.spectral_radius = spectral_radius
        super().__init__(
            f"unstable model '{name}': spectral radius {spectral_radius!r} "
            f">= 1 - {margin!r}"
        )


class RankDeficientDataError(ValidationError):
    """Regression data does not excite enough modes for the requested order."""


def write_json(path, data) -> None:
    """Write data to path as JSON: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def reading(path):
    """Yield the parsed JSON file at path, and name path in a parse error
    raised in the block; bad JSON, a missing key or a mistyped value becomes
    a ValidationError, I/O errors pass through."""
    try:
        yield json.loads(Path(path).read_text())
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed: {exc}") from exc
