"""Every term entering the nonlinear wave equation.

Terms computed here, all as grid fields (V_d and W also as arrays, by
`dissipative_kernel`):

  J        probability current (hbar/m) Im(psi* dpsi/dx)
  Jt       coupling-weighted current f'(x)^2 J
  V_d      dissipative functional  s * m * friction * int Jt/|psi|^2 dx'
  W        <V_d>, the gauge constant subtracted during propagation
  V_r      random potential -f(x) xi(t)
  W_kappa  anti-Hermitian continuous-measurement term
           -i hbar kappa (ln|psi|^2 - <ln|psi|^2>)
  Q        quantum potential -(hbar^2/2m) A''/A

Sign convention: `damping` (s=+1) makes V_d act as friction in the averaged
equation of motion; `paper` (s=-1) is the literal printed sign, which
anti-damps. Default is `damping`.
"""

from __future__ import annotations

import numpy as np

from .coupling import CouplingFunction, PotentialSpec, gup_coupling
from .errors import InvalidFriction, InvalidResolution, NonmonotonePotential
from .fields import (
    ComplexField,
    Grid,
    PhysicalParams,
    RealField,
    WaveFunction,
    cumulative_integral,
    density_floor,
    integrate_values,
    log_density,
    spectral_derivative,
)


def _current_values(vals: np.ndarray, ik: np.ndarray, params: PhysicalParams, spectrum=None):
    """(hbar/m) Im(psi* dpsi/dx) from samples of psi and the symbol Grid.ik.

    spectrum = fft(vals), when the caller has it, saves the forward FFT.
    """
    if spectrum is None:
        spectrum = np.fft.fft(vals)
    dpsi = np.fft.ifft(ik * spectrum)
    return (params.hbar / params.mass) * np.imag(np.conj(vals) * dpsi)


def dissipative_kernel(
    vals: np.ndarray,
    fp2: np.ndarray,
    ik: np.ndarray,
    coef: float,
    grid: Grid,
    params: PhysicalParams,
    spectrum=None,
    rho=None,
):
    """(V_d, W) as arrays: the one implementation of the dissipative term.

    V_d(x) = coef * m * int_{x_min}^{x} f'^2 J / max(|psi|^2, eps) dx' and
    W = <V_d>, for psi samples `vals`, fp2 = f'^2 on the grid, ik = Grid.ik
    and the signed coefficient coef = s * friction. The propagator, the
    field wrapper below and the Bohmian current-form phase all call it.
    A batch `vals` of shape (..., N) gives V_d of that shape and one W per
    row, each row with its own density floor. spectrum = fft(vals) and
    rho = |vals|^2 may be passed in by a caller that already has them.
    """
    if rho is None:
        rho = np.abs(vals) ** 2
    eps = density_floor(rho)
    integrand = fp2 * _current_values(vals, ik, params, spectrum) / np.maximum(rho, eps)
    vd = coef * params.mass * cumulative_integral(grid, integrand)
    n2 = integrate_values(grid, rho)
    w = integrate_values(grid, vd * rho) / n2
    return vd, w


def current(psi: WaveFunction, params: PhysicalParams) -> RealField:
    """J = (hbar/m) Im(psi* dpsi/dx); integrates to <p>/m for normalized psi."""
    return RealField(psi.grid, _current_values(psi.values, psi.grid.ik, params))


def tilde_current(
    psi: WaveFunction, f: CouplingFunction, params: PhysicalParams
) -> RealField:
    """Jt = f'^2 J, the coupling-weighted current."""
    return RealField(psi.grid, f.on_grid(psi.grid, 1) ** 2 * current(psi, params).values)


def dissipative_potential(
    psi: WaveFunction,
    f: CouplingFunction,
    friction: float,
    params: PhysicalParams,
    sign: str = "damping",
):
    """(V_d, W): the dissipative functional and its density-weighted mean.

    V_d(x) = s * m * friction * int_{x_min}^{x} Jt / max(|psi|^2, eps) dx'
    with s=+1 for sign='damping' and s=-1 for sign='paper'. The arbitrary
    lower limit is immaterial: W = <V_d> is always subtracted downstream.
    """
    if friction < 0:
        raise InvalidFriction(f"friction must be >= 0, got {friction}")
    s = {"damping": 1.0, "paper": -1.0}[sign]
    grid = psi.grid
    if friction == 0.0:
        zero = RealField(grid, np.zeros(grid.n_points))
        return zero, 0.0
    vd, w = dissipative_kernel(
        psi.values, f.on_grid(grid, 1) ** 2, grid.ik, s * friction, grid, params
    )
    return RealField(grid, vd), float(w)


def random_potential(f: CouplingFunction, xi: float, grid: Grid) -> RealField:
    """V_r = -f(x) xi(t); the force it exerts is f'(x) xi."""
    return RealField(grid, -f.on_grid(grid, 0) * float(xi))


def measurement_potential(
    psi: WaveFunction, kappa: float, params: PhysicalParams, sign: str = "localizing"
) -> ComplexField:
    """Anti-Hermitian continuous-measurement term, purely imaginary.

    sign='localizing' (default): +i hbar kappa (ln|psi|^2 - <ln|psi|^2>),
    which contracts the density toward its bulk (the restricted-path-
    integral measurement term maps onto this sign for Gaussian states).
    sign='paper': the literal printed form with the opposite overall sign,
    which anti-localizes; kept for reproduction only.
    """
    if kappa < 0:
        raise InvalidResolution(f"kappa must be >= 0, got {kappa}")
    s = {"localizing": 1.0, "paper": -1.0}[sign]
    grid = psi.grid
    if kappa == 0.0:
        return ComplexField(grid, np.zeros(grid.n_points, dtype=complex))
    rho = psi.density()
    logrho = log_density(rho)
    n2 = integrate_values(grid, rho)
    mean_log = integrate_values(grid, logrho * rho) / n2
    return ComplexField(grid, s * 1j * params.hbar * kappa * (logrho - mean_log))


def quantum_potential(psi: WaveFunction, params: PhysicalParams) -> RealField:
    """Q = -(hbar^2 / 2m) A''/A with A = |psi|, density-floored."""
    grid = psi.grid
    a = np.abs(psi.values)
    d2a = np.real(spectral_derivative(grid, a.astype(complex), 2))
    a_floor = np.sqrt(density_floor(a**2))
    q = -(params.hbar**2) / (2 * params.mass) * d2a / np.maximum(a, a_floor)
    return RealField(grid, q)


def gup_damping_closed_form(
    psi: WaveFunction,
    V: PotentialSpec,
    gup_alpha: float,
    params: PhysicalParams,
) -> RealField:
    """Closed-form GUP damping -2 gup_alpha p(x) V(x), diagnostic only.

    The generic route (dissipative_potential with the sqrt(V') coupling)
    integrates the full coupling-dependent phase; this closed form drops a
    boundary term. Compare the two with gup_discrepancy_report.
    """
    from .bohmian import guiding_momentum, polar_decompose

    grid = psi.grid
    vp = V.on_grid(grid, 1)
    if np.any(vp < -1e-12 * max(1.0, np.abs(vp).max())):
        raise NonmonotonePotential("closed form requires V' >= 0 on the grid")
    p = guiding_momentum(polar_decompose(psi), params)
    return RealField(grid, -2.0 * gup_alpha * p.values * V.on_grid(grid, 0))


def gup_discrepancy_report(
    psi: WaveFunction,
    V: PotentialSpec,
    gup_alpha: float,
    params: PhysicalParams,
) -> dict:
    """Compare the closed-form GUP damping against the generic route.

    Both fields are reduced mod their density-weighted mean (only V_d - W
    enters the dynamics). Returns max/rms discrepancy over the bulk of the
    density support.
    """
    grid = psi.grid
    f = gup_coupling(V, grid)
    # generic route: -2*gup_alpha*S_tilde, i.e. the literal sign and the
    # closed form's factor 2, so the residual isolates the dropped term
    vd_generic, w_generic = dissipative_potential(
        psi, f, 2.0 * gup_alpha, params, sign="paper"
    )
    closed = gup_damping_closed_form(psi, V, gup_alpha, params)
    rho = psi.density()
    n2 = integrate_values(grid, rho)
    w_closed = integrate_values(grid, closed.values * rho) / n2
    a = vd_generic.values - w_generic
    b = closed.values - w_closed
    support = rho > 1e-3 * rho.max()
    diff = np.where(support, a - b, 0.0)
    scale = max(np.abs(a[support]).max(), np.abs(b[support]).max(), 1e-300)
    return {
        "max_abs_diff": float(np.abs(diff).max()),
        "rms_diff": float(np.sqrt(np.mean(diff[support] ** 2))),
        "scale": float(scale),
        "max_rel_diff": float(np.abs(diff).max() / scale),
    }
