"""Exception and warning types shared across the package, and the one rule for a
scalar input: check_count for a count or seed, check_number for a real value. Any
other value, a bool, None or a string included, is a ConfigError naming its field."""

import numbers
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


def check_count(name: str, value, least: int):
    """value is an integer (not a bool) >= least, else a ConfigError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_number(name: str, value, low=None, *, above=False):
    """value is a finite real (not a bool), >= low or, when above, > low; else a
    ConfigError naming name."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and -np.inf < value < np.inf
            and (low is None or (value > low if above else value >= low))):
        bound = "" if low is None else f" {'>' if above else '>='} {low}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")


class StabilityWarning(UserWarning):
    """A step's guard dt * max|U| / hbar, of the U its kick applies, reached
    evolve.STABILITY_LIMIT; one per run call."""
