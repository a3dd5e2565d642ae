"""Uniform periodic grid, fields, spectral calculus and basic observables.

Everything downstream (potentials, propagation, Bohmian analysis) is built
on the primitives here: rectangle-rule quadrature and FFT differentiation
on a periodic grid, both spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
# numpy >= 2 imports numpy.fft on first use; import it with gsle so that
# wrappers of numpy.fft.fft (perfbench's FFT count) find it loaded
import numpy.fft  # noqa: F401

from .errors import DegenerateState, InvalidField, UnsupportedOrder

# Density floor used everywhere a |psi|^2 shows up in a denominator or a log,
# relative to max|psi|^2.
DENSITY_FLOOR_REL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max); x_max is identified with x_min."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise InvalidField(f"empty grid: [{self.x_min}, {self.x_max})")
        if self.n_points < 8 or not _is_power_of_two(self.n_points):
            raise InvalidField(
                f"n_points must be a power of two >= 8, got {self.n_points}"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumbers matching numpy FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def ik(self) -> np.ndarray:
        """Symbol i*k of d/dx, Nyquist mode zeroed (its first derivative is
        not representable)."""
        ik = 1j * self.k
        ik[self.n_points // 2] = 0.0
        return ik


@dataclass(frozen=True)
class PhysicalParams:
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < np.inf and 0 < self.mass < np.inf):
            raise InvalidField("hbar and mass must be positive and finite")


def _check_values(grid: Grid, values: np.ndarray, batched=False, check_finite=True):
    """Samples of shape (N,), or (..., N) for a batch of fields."""
    shape = values.shape[-1:] if batched else values.shape
    if shape != (grid.n_points,):
        raise InvalidField(
            f"field has {values.shape} samples, grid has {grid.n_points} points"
        )
    if check_finite and not np.all(np.isfinite(values)):
        raise InvalidField("field contains non-finite samples")


@dataclass(frozen=True)
class RealField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )
        _check_values(self.grid, self.values)


@dataclass(frozen=True)
class ComplexField:
    """Complex samples of shape (N,), or (..., N) for a batch of fields.

    check_finite=False skips the finiteness scan, for a caller that has
    already made it (the propagator checks every new state).
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=complex)
        )
        _check_values(self.grid, self.values, batched=True, check_finite=check_finite)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


# A wavefunction is just a complex field; the alias marks intent.
WaveFunction = ComplexField


@dataclass(frozen=True)
class ObservableSet:
    """One value per field; arrays of shape (...) for a batch (..., N)."""

    norm: float
    mean_x: float
    mean_p: float
    var_x: float
    energy: float
    boundary_density: float


def integrate(field) -> float:
    """Periodic rectangle rule: sum(values) * dx.

    Exact for band-limited periodic integrands; linear in the field.
    """
    values = np.asarray(field.values)
    if not np.all(np.isfinite(values)):
        raise InvalidField("cannot integrate non-finite samples")
    return float(np.real_if_close(np.sum(values) * field.grid.dx))


def integrate_values(grid: Grid, values: np.ndarray):
    """Rectangle rule along the last axis: a float, or one per batch row."""
    return values.sum(axis=-1) * grid.dx


def cumulative_integral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of grid samples from x_min; result[0] = 0.

    Trapezoid with the Euler-Maclaurin endpoint correction
    (dx^2/12)(h'(a) - h'(x)), h' by local finite differences: O(dx^4) on
    smooth integrands while staying local (no global Gibbs contamination
    from floored tails). Along the last axis, so a batch (..., N) works.
    """
    dx = grid.dx
    h = np.asarray(values, dtype=float)
    out = np.zeros_like(h)
    out[..., 1:] = np.cumsum(0.5 * (h[..., 1:] + h[..., :-1]), axis=-1) * dx
    # h' as np.gradient(h, dx, axis=-1, edge_order=2) computes it, without
    # its per-call set-up (this runs three times per propagation step)
    hp = np.empty_like(h)
    hp[..., 1:-1] = (h[..., 2:] - h[..., :-2]) / (2.0 * dx)
    hp[..., 0] = (-1.5 / dx) * h[..., 0] + (2.0 / dx) * h[..., 1] + (-0.5 / dx) * h[..., 2]
    hp[..., -1] = (0.5 / dx) * h[..., -3] + (-2.0 / dx) * h[..., -2] + (1.5 / dx) * h[..., -1]
    return out + (dx**2 / 12.0) * (hp[..., :1] - hp)


def spectral_derivative(
    grid: Grid, values: np.ndarray, order: int = 1
) -> np.ndarray:
    """FFT derivative of periodic samples. Complex in, complex out."""
    if order not in (1, 2):
        raise UnsupportedOrder(f"order must be 1 or 2, got {order}")
    fk = np.fft.fft(values)
    if order == 1:
        return np.fft.ifft(grid.ik * fk)
    return np.fft.ifft(-(grid.k**2) * fk)


def normalize(psi: WaveFunction) -> WaveFunction:
    n2 = integrate_values(psi.grid, psi.density())
    if n2 <= 0 or not np.isfinite(n2):
        raise DegenerateState("cannot normalize a zero/non-finite state")
    return ComplexField(psi.grid, psi.values / np.sqrt(n2))


def boundary_density(rho: np.ndarray):
    """Max density in the outermost 2% of grid points, relative to max density."""
    peak = rho.max(axis=-1)
    if (peak <= 0).any():
        raise DegenerateState("zero state")
    n_edge = max(1, int(round(0.02 * rho.shape[-1])))
    edge = np.maximum(rho[..., :n_edge].max(axis=-1), rho[..., -n_edge:].max(axis=-1))
    return edge / peak


def observables(
    psi: WaveFunction, V: RealField, params: PhysicalParams, spectrum=None
) -> ObservableSet:
    """Moments of each state from one density and one spectrum.

    <p> and <T> by Parseval, int psi* g(-i d/dx) psi dx = (dx/N) sum_k g(k) |psi_k|^2,
    with spectral_derivative's weights: Nyquist mode zeroed for hbar k, kept for k^2.
    spectrum = fft(psi.values), when the caller has it, saves the FFT.
    """
    if spectrum is None:
        spectrum = np.fft.fft(psi.values)
    rho = psi.density()
    grid = psi.grid
    n2 = integrate_values(grid, rho)
    if not ((n2 > 0) & np.isfinite(n2)).all():
        raise DegenerateState("zero-norm state")
    x = grid.x
    mean_x = integrate_values(grid, x * rho) / n2
    var_x = integrate_values(grid, (x - mean_x[..., None]) ** 2 * rho) / n2
    power = np.abs(spectrum) ** 2 * (grid.dx / grid.n_points)
    k = grid.k
    kinetic = np.sum(k**2 * power, axis=-1) * (params.hbar**2 / (2 * params.mass))
    k[grid.n_points // 2] = 0.0
    mean_p = params.hbar * np.sum(k * power, axis=-1) / n2
    energy = kinetic / n2 + integrate_values(grid, V.values * rho) / n2
    return ObservableSet(
        norm=n2,
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=var_x,
        energy=energy,
        boundary_density=boundary_density(rho),
    )


def density_floor(rho: np.ndarray) -> np.ndarray:
    """The floor of each row of rho (..., N), as a column (..., 1)."""
    return DENSITY_FLOOR_REL * rho.max(axis=-1, keepdims=True)


def log_density(rho: np.ndarray) -> np.ndarray:
    """ln rho with each row floored at density_floor: the measurement term's log."""
    return np.log(np.maximum(rho, density_floor(rho)))
