"""Polar decomposition, guiding momentum, trajectory ensembles and weak values.

The action S = hbar*arg(psi) is unwrapped starting from the density maximum
(the most reliable sample) outward in both directions, and linearly
interpolated across node runs where |psi|^2 falls below the density floor.
Only differences of S carry physics, so the overall 2*pi*hbar branch is
gauge. Off the node mask, momenta come from psi itself (hbar psi* dpsi/|psi|^2);
the interpolated S is differentiated only on node cells, where psi has no phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingFunction
from .errors import DegenerateState, InsufficientData
from .fields import (
    CubicSpline,
    PhysicalParams,
    RealField,
    WaveFunction,
    cumulative_integral,
    density_floor,
    integrate_values,
    spectral_derivative,
)
from .potentials import dissipative_kernel


@dataclass(frozen=True)
class PolarField:
    """psi = A exp(iS/hbar) with its node mask; built by polar_decompose.

    Keeps the source `psi`: guiding_momentum and weak_value differentiate psi
    off node_mask, and use the slope of the interpolated S only on it.
    """

    A: RealField
    S: RealField
    node_mask: np.ndarray = field(repr=False)
    psi: WaveFunction = field(repr=False)
    hbar: float

    @property
    def grid(self):
        return self.A.grid


@dataclass(frozen=True)
class TrajectoryEnsemble:
    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)  # (n_trajectories, n_times)
    seed: int = 0


@dataclass(frozen=True)
class WeakValueField:
    real_part: RealField   # Bohmian momentum dS/dx
    imag_part: RealField   # osmotic momentum -hbar (A^2)'/(2 A^2)
    node_mask: np.ndarray = field(repr=False)


def _anchored_unwrap(theta: np.ndarray, anchor: int) -> np.ndarray:
    """Unwrap phases outward from `anchor`, keeping its principal value.

    Each side is t[i] - 2 pi k[i], k[i] = round((t[i] - out[i-1]) / 2 pi), taken
    as the cumulative sum of the rounded steps of t; at the first step of (nearly)
    pi that rounds the other way against out[i-1], the rest of k is shifted, anew.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for side in (slice(anchor, None), slice(anchor, None, -1)):
        t = theta[side]
        k = np.concatenate(([0.0], np.cumsum(np.round(np.diff(t) / (2 * np.pi)))))
        while True:
            out[side] = t - 2 * np.pi * k
            k_seq = np.round((t[1:] - out[side][:-1]) / (2 * np.pi))
            bad = np.flatnonzero(k_seq != k[1:])
            if bad.size == 0:
                break
            k[bad[0] + 1 :] += k_seq[bad[0]] - k[bad[0] + 1]
    return out


def polar_decompose(psi: WaveFunction, hbar: float) -> PolarField:
    grid = psi.grid
    a = np.abs(psi.values)
    rho = a**2
    if rho.max() <= 0.0:
        raise DegenerateState("cannot polar-decompose the zero state")
    mask = rho < density_floor(rho)
    anchor = int(np.argmax(rho))
    s = hbar * _anchored_unwrap(np.angle(psi.values), anchor)
    if mask.any() and not mask.all():
        # interior masked runs: linear interpolation between the lobes;
        # masked tails: linear extrapolation of the local slope, so the
        # action stays kink-free at the edge of the support
        x = grid.x
        good = np.nonzero(~mask)[0]
        s = np.where(mask, np.interp(x, x[good], s[good]), s)
        lo, hi = good[0], good[-1]
        if lo > 0:
            j = min(lo + 4, hi)
            slope = (s[j] - s[lo]) / (x[j] - x[lo]) if j > lo else 0.0
            s[:lo] = s[lo] + slope * (x[:lo] - x[lo])
        if hi < s.size - 1:
            j = max(hi - 4, lo)
            slope = (s[hi] - s[j]) / (x[hi] - x[j]) if hi > j else 0.0
            s[hi + 1 :] = s[hi] + slope * (x[hi + 1 :] - x[hi])
    return PolarField(
        A=RealField(grid, a), S=RealField(grid, s), node_mask=mask, psi=psi, hbar=hbar
    )


def _log_derivative(polar: PolarField) -> np.ndarray:
    """hbar psi* dpsi/dx / |psi|^2 = hbar A'/A + i dS/dx, valid off node_mask.

    Re psi and Im psi are differentiated as separate real fields, so a real
    state gets exactly dS/dx = 0. On node cells the density is floored and
    the result carries no meaning.
    """
    grid, psi = polar.grid, polar.psi.values
    d = lambda part: spectral_derivative(grid, part, 1).real
    dpsi = d(psi.real) + 1j * d(psi.imag)
    rho = np.abs(psi) ** 2
    return polar.hbar * np.conj(psi) * dpsi / np.maximum(rho, density_floor(rho))


def _with_node_slope(polar: PolarField, p: np.ndarray) -> np.ndarray:
    """p off node_mask; the slope of the interpolated action S on it."""
    slope = np.gradient(polar.S.values, polar.grid.dx)
    return np.where(polar.node_mask, slope, p)


def guiding_momentum(polar: PolarField, params: PhysicalParams) -> RealField:
    """p(x) = dS/dx = m J/|psi|^2, the Bohmian guiding momentum.

    Off node_mask it is Im(hbar psi* dpsi/dx)/|psi|^2 from psi itself; on
    node_mask, where psi carries no phase, it is the slope of the
    interpolated action, so trajectory velocities stay finite across nodes.
    """
    return RealField(polar.grid, _with_node_slope(polar, _log_derivative(polar).imag))


def tilde_phase_forms(polar: PolarField, f: CouplingFunction, params: PhysicalParams):
    """(integration-by-parts form, current form) of the coupling phase.

    Form 1: f'^2 S - 2 int S f' f'' dx (cumulative from x_min).
    Form 2: m int Jt / max(|psi|^2, eps) dx on the source psi, by the
    propagator's dissipative_kernel with weight hbar f'^2. The two agree up to
    an additive constant.
    """
    grid = polar.grid
    s = polar.S.values
    fp = f.on_grid(grid, 1)
    fpp = f.on_grid(grid, 2)
    form1 = fp**2 * s - 2.0 * cumulative_integral(grid, s * fp * fpp)
    form2, _ = dissipative_kernel(polar.psi.values, params.hbar * fp**2, grid.ik, grid)
    return RealField(grid, form1), RealField(grid, form2)


def weak_value(polar: PolarField, params: PhysicalParams) -> WeakValueField:
    """Momentum weak value <x|p|psi>/<x|psi> after a position post-selection.

    real = dS/dx (as guiding_momentum); imag = -hbar A'/A (osmotic). Off
    node_mask both are read from hbar psi* dpsi/|psi|^2, so they equal
    (-i hbar dpsi/dx)/psi there. Values inside node_mask are unreliable;
    exports mark them NaN.
    """
    w = _log_derivative(polar)
    return WeakValueField(
        real_part=RealField(polar.grid, _with_node_slope(polar, w.imag)),
        imag_part=RealField(polar.grid, -w.real),
        node_mask=polar.node_mask,
    )


def sample_from_density(psi: WaveFunction, n: int, rng) -> np.ndarray:
    """Inverse-CDF sampling of |psi|^2 on the periodic grid."""
    grid = psi.grid
    rho = psi.density()
    cdf = cumulative_integral(grid, rho)
    # extend to the right edge for full coverage
    x_ext = np.append(grid.x, grid.x_max)
    cdf_ext = np.append(cdf, cdf[-1] + 0.5 * (rho[-1] + rho[0]) * grid.dx)
    cdf_ext /= cdf_ext[-1]
    u = rng.random(n)
    return np.interp(u, cdf_ext, x_ext)


def propagate_trajectories(
    history,
    times,
    n_traj: int,
    seed: int,
    params: PhysicalParams,
) -> TrajectoryEnsemble:
    """Bohmian trajectories through a stored wavefunction history.

    `history` is a sequence of snapshots at the uniform `times`. Initial
    positions are sampled from |psi(.,0)|^2; advance is RK4 on
    v(x,t) = dS/dx / m, periodically wrapped: linear in t, and in x the numpy
    cubic spline with periodic ends, `fields.CubicSpline.periodic`. Half-step
    stages read the spline of the averaged (v, m): one cell lookup per stage.
    """
    history = list(history)
    times = np.asarray(times, dtype=float)
    if len(history) == 0:
        raise InsufficientData("empty wavefunction history")
    if len(history) != times.size:
        raise InsufficientData("history and times lengths differ")
    grid = history[0].grid
    rng = np.random.default_rng(seed)
    x = sample_from_density(history[0], n_traj, rng)

    splines = []
    for psi in history:
        polar = polar_decompose(psi, hbar=params.hbar)
        v = guiding_momentum(polar, params).values / params.mass
        splines.append(CubicSpline.periodic(grid, v))

    wrap = lambda pos: grid.x_min + np.mod(pos - grid.x_min, grid.length)

    positions = np.empty((n_traj, times.size))
    positions[:, 0] = x
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        s0, s1 = splines[k], splines[k + 1]
        mid = CubicSpline(s0.x, 0.5 * (s0.y + s1.y), 0.5 * (s0.m + s1.m), grid.dx)
        k1 = s0(wrap(x))
        k2 = mid(wrap(x + 0.5 * dt * k1))
        k3 = mid(wrap(x + 0.5 * dt * k2))
        k4 = s1(wrap(x + dt * k3))
        x = wrap(x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        positions[:, k + 1] = x
    return TrajectoryEnsemble(times=times, positions=positions, seed=seed)


def equivariance_distance(
    ensemble: TrajectoryEnsemble, psi_t: WaveFunction, t_index: int
) -> float:
    """Kolmogorov-Smirnov distance between trajectory positions and |psi|^2."""
    samples = np.sort(ensemble.positions[:, t_index])
    grid = psi_t.grid
    rho = psi_t.density()
    n2 = integrate_values(grid, rho)
    cdf_grid = cumulative_integral(grid, rho) / n2
    f = np.interp(samples, grid.x, cdf_grid)
    n = samples.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(i / n - f), np.abs((i - 1) / n - f))))
