"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class DisaggError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DisaggError, ValueError):
    """Invalid data, parameters, or file contents."""


class UnstableModelError(ValidationError):
    """A device model (or fitted polynomial) is not strictly stable."""

    def __init__(self, spectral_radius: float, context: str = "model"):
        self.spectral_radius = spectral_radius
        super().__init__(
            f"unstable {context}: spectral radius {spectral_radius:.6g} >= 1"
        )


class RankDeficientDataError(ValidationError):
    """Regression data does not excite enough modes for the requested order."""


class DegenerateFitError(ValidationError):
    """The step-response template is identically zero over the fit window."""


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
