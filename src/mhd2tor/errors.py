"""Exception types shared across the package, and the one form of a
parameter rule (``require``)."""

import math


class Mhd2torError(Exception):
    """Base class for all package-specific errors."""


class HermitianViolation(Mhd2torError):
    """Inverse transform requested for coefficients that are not Hermitian-symmetric."""


class DegenerateSpectrum(Mhd2torError):
    """Random initial data collapsed to zero after projection (one draw per
    seed, with no retry)."""


class NonFiniteTendency(Mhd2torError):
    """A right-hand-side evaluation produced NaN or Inf coefficients."""


class NonFiniteState(Mhd2torError):
    """The evolved state contains NaN or Inf coefficients (blow-up or instability)."""


class StepTooSmall(Mhd2torError):
    """The CFL step size fell below the configured minimum, or a landing on
    a sample time cannot advance t."""


class InsufficientSamples(Mhd2torError):
    """Too few samples to evaluate a time-series diagnostic."""


class NonMonotoneTime(Mhd2torError):
    """A diagnostics record arrived with a time earlier than the ledger's last update."""


class NonPositiveValue(Mhd2torError):
    """A log-scale fit was requested on non-positive values."""


class NotInClass(Mhd2torError):
    """A field violates the symmetry / divergence / mean preconditions of the check."""


class PoincareBoundExceeded(Mhd2torError):
    """The measured anisotropic Poincare ratio exceeded sqrt(2) plus tolerance."""


class ZeroWavevector(Mhd2torError):
    """The per-mode linear solution is undefined at k = 0."""


class GridTooLarge(Mhd2torError):
    """An O(n^4) oracle was invoked on a grid beyond its supported size."""


class ConfigError(Mhd2torError):
    """Base class for configuration problems."""


class UnknownKey(ConfigError):
    """The config text contains a key the schema does not define."""


class InvalidValue(ConfigError, ValueError):
    """A parameter value violates its constraint: ``key = value: constraint``,
    from the config parser and from every type that owns the parameter."""


def require(ok: bool, key: str, value, constraint: str) -> None:
    """Raise ``InvalidValue`` for ``key = value`` unless ``ok``."""
    if not ok:
        raise InvalidValue(f"{key} = {value!r}: {constraint}")


def require_finite(**values) -> None:
    """``require`` each ``key=value`` to be finite, in the order given."""
    for key, value in values.items():
        require(math.isfinite(value), key, value, "must be finite")


class MissingRequired(ConfigError):
    """A required config key was not provided."""


class CorruptCheckpoint(Mhd2torError):
    """Checkpoint file failed magic / version / length validation."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GridMismatch(Mhd2torError):
    """Checkpoint grid size n or regularity index s does not match the run."""
