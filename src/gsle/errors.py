"""Exception and warning types shared across the package."""

from contextlib import contextmanager

import numpy as np


class GsleError(Exception):
    """Base class for all package errors."""


class InvalidField(GsleError):
    """Field samples are non-finite or inconsistent with the grid."""


class UnsupportedOrder(GsleError):
    """Derivative order outside the supported set."""


class DegenerateState(GsleError):
    """Wavefunction has (numerically) zero norm."""


class OutOfDomain(GsleError):
    """Evaluation point outside a tabulated coupling's range."""


class NonmonotonePotential(GsleError):
    """V'(x) < 0 somewhere, so the GUP coupling integral is undefined."""


class EmptyBath(InvalidField):
    """Bath or Ohmic spectrum with zero oscillators."""


class NumericalBlowup(GsleError):
    """NaN/Inf appeared during propagation.

    Carries the time of failure and the last stable observables when
    available.
    """

    def __init__(self, message, t=None, last_observables=None):
        super().__init__(message)
        self.t = t
        self.last_observables = last_observables


@contextmanager
def blowup_on_overflow(what: str):
    """Raise NumericalBlowup(f"{what}: ...") at the first overflowing or invalid float op."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalBlowup(f"{what}: {exc}") from exc


class InsufficientData(GsleError):
    """Not enough samples/snapshots for the requested analysis."""


class ConfigError(GsleError):
    """Invalid or unknown configuration content."""


class StabilityWarning(UserWarning):
    """A step's guard dt * max|U| / hbar reached evolve.STABILITY_LIMIT; one per run call."""
