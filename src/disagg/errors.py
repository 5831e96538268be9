"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class DisaggError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DisaggError, ValueError):
    """Invalid data, parameters, or file contents."""


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


@contextmanager
def reading(path):
    """Name path in a parse error raised in the block; bad JSON, a missing key
    or a mistyped value becomes a ValidationError, I/O errors pass through."""
    try:
        yield
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed: {exc}") from exc
