"""Exception and warning types shared across the package, and the one rule for a
scalar input: check_count for a count or seed, check_number for a real value. Any
other value, a bool, None or a string included, is a ConfigError naming its field."""

import numbers
import sys


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

    The state gate (fields.BlockRecorder) sets t, the time of the state that
    failed; a wave run sets last_observables, those of the last stable state.
    """

    t = None
    last_observables = None


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
    if not (real and abs(value) <= sys.float_info.max   # not nan, inf nor an int such as 10**400
            and (low is None or (value > low if above else value >= low))):
        bound = "" if low is None else f" {'>' if above else '>='} {low}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")


class StabilityWarning(UserWarning):
    """A step's guard dt * max|U| / hbar, of the U its kick applies, reached
    evolve.STABILITY_LIMIT; one per run call."""
