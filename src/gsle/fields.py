"""Uniform periodic grid, wave functions, spectral calculus, observables, cubic splines.

Everything downstream (potentials, propagation, Bohmian analysis) is built
on the primitives here: rectangle-rule quadrature and FFT differentiation
on a periodic grid, both spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
# numpy >= 2 imports numpy.fft on first use; import it with gsle so that
# wrappers of numpy.fft.fft (perfbench's FFT count) find it loaded
import numpy.fft  # noqa: F401

from .errors import (
    ConfigError, DegenerateState, InvalidField, NumericalBlowup, UnsupportedOrder,
    blowup_on_overflow, check_count, check_number,
)

# Density floor used everywhere a |psi|^2 shows up in a denominator or a log,
# relative to max|psi|^2.
DENSITY_FLOOR_REL = 1e-12
# elements per buffer of a BlockRecorder (512 KiB of complex), unless one row holds more
RECORD_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max); x_max is identified with x_min."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        check_number("grid x_min", self.x_min)
        check_number("grid x_max", self.x_max)
        check_number("grid length x_max - x_min", self.x_max - self.x_min, 0, above=True)
        check_count("n_points", self.n_points, 8)
        if self.n_points & (self.n_points - 1):
            raise ConfigError(f"n_points must be an integer power of two, got {self.n_points}")

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
        check_number("hbar", self.hbar, 0, above=True)
        check_number("mass", self.mass, 0, above=True)


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples psi(x) of shape (N,), or (..., N) for a batch of states."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values, n = np.asarray(self.values, dtype=complex), self.grid.n_points
        if values.shape[-1:] != (n,):
            raise InvalidField(f"field has {values.shape} samples, grid has {n} points")
        if not np.all(np.isfinite(values)):
            raise InvalidField("field contains non-finite samples")
        object.__setattr__(self, "values", values)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def integrate(grid: Grid, values) -> float:
    """Periodic rectangle rule: sum(values) * dx.

    Exact for band-limited periodic integrands; linear in the values.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise InvalidField("cannot integrate non-finite samples")
    return float(np.real_if_close(np.sum(values) * grid.dx))


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
    body = out[..., 1:]
    np.add(h[..., 1:], h[..., :-1], out=body)
    np.add.accumulate(body, axis=-1, out=body)
    body *= 0.5 * dx   # = cumsum(0.5 (h[i] + h[i+1])) dx: the halving is exact
    # h' as np.gradient(h, dx, axis=-1, edge_order=2) computes it, without
    # its per-call set-up (this runs once per step and once per record block)
    hp = np.empty_like(h)
    np.subtract(h[..., 2:], h[..., :-2], out=hp[..., 1:-1])
    hp[..., 1:-1] /= 2.0 * dx
    hp[..., 0] = (-1.5 / dx) * h[..., 0] + (2.0 / dx) * h[..., 1] + (-0.5 / dx) * h[..., 2]
    hp[..., -1] = (0.5 / dx) * h[..., -3] + (-2.0 / dx) * h[..., -2] + (1.5 / dx) * h[..., -1]
    np.subtract(hp[..., :1], hp, out=hp)
    out += np.multiply(hp, dx**2 / 12.0, out=hp)
    return out


class CubicSpline:
    """Cubic spline through knots x with values y and second derivatives m.

    On the cell [x_i, x_j], with s = (p - x_i)/h and a = 1 - s, it is
    S = a y_i + s y_j + h^2/6 ((a^3 - a) m_i + (s^3 - s) m_j), orders 0-2 from
    one cell lookup. The two constructors differ only in the solve for m.
    """

    def __init__(self, x, y, m, dx=None):
        self.x, self.y, self.m = x, y, m
        self._h = np.diff(x)
        self._dx = dx   # uniform spacing: cells by direct index, not searchsorted

    @classmethod
    def periodic(cls, grid: Grid, values):
        """Periodic spline of grid samples; knots grid.x and x_max. Its system
        m[i-1] + 4 m[i] + m[i+1] = 6 (y[i+1] - 2 y[i] + y[i-1]) / dx^2 is
        circulant, so m is one rfft/irfft pair."""
        y = np.asarray(values, dtype=float)
        c = np.cos(2.0 * np.pi * np.fft.rfftfreq(grid.n_points))
        m = np.fft.irfft(np.fft.rfft(y) * (6.0 / grid.dx**2) * (2 * c - 2) / (4 + 2 * c))
        knots = np.append(grid.x, grid.x_max)
        return cls(knots, np.append(y, y[0]), np.append(m, m[0]), grid.dx)

    @classmethod
    def not_a_knot(cls, x, y):
        """Spline with a continuous third derivative at x[1] and x[-2], on >= 4
        increasing knots: m[0] and m[-1] are folded into the rows of m[1] and
        m[-2], and the tridiagonal rest is solved by one Thomas sweep."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise InvalidField(f"a spline needs >= 4 knots and values: {x.shape}, {y.shape}")
        h = np.diff(x)
        if not (np.all(h > 0) and np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidField("spline knots must be finite and increasing, values finite")
        rhs = (6.0 * np.diff(np.diff(y) / h)).tolist()
        sub, sup, diag = h[:-1].tolist(), h[1:].tolist(), (2.0 * (h[:-1] + h[1:])).tolist()
        r0, r1 = h[0] / h[1], h[-1] / h[-2]   # m[0] = (1 + r0) m[1] - r0 m[2], mirrored
        diag[0], sup[0] = diag[0] + h[0] * (1 + r0), sup[0] - h[0] * r0
        diag[-1], sub[-1] = diag[-1] + h[-1] * (1 + r1), sub[-1] - h[-1] * r1
        for i in range(1, len(diag)):
            w = sub[i] / diag[i - 1]
            diag[i], rhs[i] = diag[i] - w * sup[i - 1], rhs[i] - w * rhs[i - 1]
        rhs[-1] /= diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
        ends = [(1 + r0) * rhs[0] - r0 * rhs[1], (1 + r1) * rhs[-1] - r1 * rhs[-2]]
        return cls(x, y, np.array(ends[:1] + rhs + ends[1:]))

    def __call__(self, p, order=0):
        if order not in (0, 1, 2):
            raise UnsupportedOrder(f"derivative order must be 0, 1 or 2, got {order}")
        p = np.asarray(p, dtype=float)
        if self._dx is None:
            i = np.searchsorted(self.x, p, side="right") - 1
        else:
            i = np.floor((p - self.x[0]) / self._dx).astype(np.intp)
        i = np.clip(i, 0, self._h.size - 1)
        h, mi, mj = self._h[i], self.m[i], self.m[i + 1]
        s = (p - self.x[i]) / h
        a = 1.0 - s
        if order == 0:
            curve = (a**3 - a) * mi + (s**3 - s) * mj
            return a * self.y[i] + s * self.y[i + 1] + (h * h / 6.0) * curve
        if order == 1:
            curve = (1.0 - 3.0 * a * a) * mi + (3.0 * s * s - 1.0) * mj
            return (self.y[i + 1] - self.y[i]) / h + (h / 6.0) * curve
        return a * mi + s * mj


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
    return WaveFunction(psi.grid, psi.values / np.sqrt(n2))


def boundary_density(rho: np.ndarray):
    """Max density in the outermost 2% of grid points, relative to max density."""
    peak = rho.max(axis=-1)
    if (peak <= 0).any():
        raise DegenerateState("zero state")
    n_edge = max(1, int(round(0.02 * rho.shape[-1])))
    edge = np.maximum(rho[..., :n_edge].max(axis=-1), rho[..., -n_edge:].max(axis=-1))
    return edge / peak


def observables(
    psi: WaveFunction, V: np.ndarray, params: PhysicalParams, spectrum=None, rho=None
) -> dict:
    """Moments of each state, in the potential V(grid.x), from one density and one spectrum.

    Named columns norm, mean_x, mean_p, var_x, energy and boundary_density:
    floats for a state (N,), arrays of shape (...) for a batch (..., N).

    <p> and <T> by Parseval, int psi* g(-i d/dx) psi dx = (dx/N) sum_k g(k) |psi_k|^2,
    with spectral_derivative's weights: Nyquist mode zeroed for hbar k, kept for k^2.
    spectrum = fft(psi.values) and rho = psi.density(), when the caller has
    them, save their recomputation.
    """
    if spectrum is None:
        spectrum = np.fft.fft(psi.values)
    if rho is None:
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
    energy = kinetic / n2 + integrate_values(grid, V * rho) / n2
    return {"norm": n2, "mean_x": mean_x, "mean_p": mean_p, "var_x": var_x, "energy": energy,
            "boundary_density": boundary_density(rho)}


def density_floor(rho: np.ndarray) -> np.ndarray:
    """The floor of each row of rho (..., N), as a column (..., 1)."""
    return DENSITY_FLOOR_REL * rho.max(axis=-1, keepdims=True)


def density_terms(grid: Grid, vals: np.ndarray):
    """(rho, floored rho, norm) of samples (..., N): rho = |vals|^2, rho floored
    at density_floor (the density of every denominator and log) and int rho."""
    rho = np.abs(vals) ** 2
    return rho, np.maximum(rho, density_floor(rho)), integrate_values(grid, rho)


class BlockRecorder:
    """Rows of per-step values, handed to reduce(steps, *rows) a block at a time.

    One buffer per array of `like` holds m rows shaped and typed like it, m =
    RECORD_BLOCK_ELEMENTS // like[0].size clipped to [1, len(times)]; steps is a
    block's slice of row indices and rows the filled part of each buffer. A with
    block is its loop's overflow gate, errors.blowup_on_overflow(what).
    """

    def __init__(self, times, like: tuple, reduce, what: str):
        m = max(1, min(len(times), RECORD_BLOCK_ELEMENTS // like[0].size))
        self.buffers = [np.empty((m,) + a.shape, a.dtype) for a in like]
        self.times, self.reduce, self.what = times, reduce, what
        self.first = self.filled = 0   # rows reduced, so the block's first row; rows buffered
        self.failed = None

    def slot(self, k: int) -> np.ndarray:
        """Buffer k's next row, for a caller that writes it in place before push."""
        return self.buffers[k][self.filled]

    def push(self, *values):
        """Write values into the next row of the first buffers; reduce a full block."""
        for buf, value in zip(self.buffers, values):
            buf[self.filled] = value
        self.filled += 1
        if self.filled == len(self.buffers[0]):
            self.flush()

    def __enter__(self):
        self._gate = self._gated()
        return self._gate.__enter__()

    def __exit__(self, *exc_info):
        return self._gate.__exit__(*exc_info)

    @contextmanager
    def _gated(self):   # any NumericalBlowup that leaves names the state that failed
        try:
            with blowup_on_overflow(self.what):
                try:
                    yield self
                finally:   # a with block leaves no row unreduced
                    self.flush()
        except NumericalBlowup as exc:   # a failed flush's first bad row, else the row under way
            exc.t = self.times[self.first + self.filled]
            raise

    def flush(self):
        """Reduce the buffered rows and empty the block; if that raises, reduce them one
        at a time (reduce treats each row alone) and raise with `failed` at the first bad one."""
        start, n = self.first, self.filled
        rows, self.filled = [buf[:n] for buf in self.buffers], 0
        try:
            if n:
                self.reduce(slice(start, start + n), *rows)
        except (FloatingPointError, DegenerateState):
            for j in range(start, start + n):   # rows before j are reduced
                self.first = self.failed = j
                self.reduce(slice(j, j + 1), *(r[j - start : j - start + 1] for r in rows))
            raise
        self.first = start + n
