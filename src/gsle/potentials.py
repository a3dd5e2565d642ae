"""The state-dependent dissipative term of the nonlinear wave equation.

Terms computed here, each a float array on grid.x but the float W:

  J        probability current (hbar/m) Im(psi* dpsi/dx)
  Jt       coupling-weighted current f'(x)^2 J
  V_d      dissipative functional  s * m * friction * int Jt/|psi|^2 dx'
  W        <V_d>, the gauge constant subtracted during propagation

V_d and W are `gauged_integral` (V_d and W from V_d's slope and a density,
one per row of a batch) of `dissipative_slope` (that slope from a state).
Every caller composes the two itself: `dissipative_potential`,
`tilde_phase_forms` (which keeps only the cumulative integral), and the
propagator, `evolve._Workspace`, whose `real_potential` takes
`gauged_integral` of the midpoint slope that it predicts, and whose record's
W is `gauged_integral` of each recorded state's slope.

The other terms have their one implementation in the propagator: the random
potential -f(x) xi(t) in `real_potential` and the anti-Hermitian measurement
term +i hbar kappa (ln|psi|^2 - <ln|psi|^2>) in `measurement_factor`, whose
factor `apply_potential` multiplies in.

Sign convention (SIGNS): `damping` (s=+1) makes V_d act as friction in the
averaged equation of motion; `paper` (s=-1) is the literal printed sign,
which anti-damps. Default is `damping`.
"""

from __future__ import annotations

import numpy as np

from .bohmian import PolarField, polar_decompose, weak_value
from .coupling import CouplingFunction, PotentialSpec, gup_coupling, monotone_slope
from .errors import check_number
from .fields import (
    Grid,
    PhysicalParams,
    WaveFunction,
    cumulative_integral,
    density_terms,
    integrate_values,
)

# s of V_d for each sign convention
SIGNS = {"damping": 1.0, "paper": -1.0}


def _current_values(vals: np.ndarray, ik: np.ndarray, spectrum=None, dpsi=None, out=None):
    """Im(psi* dpsi/dx) from samples of psi and Grid.ik; the current is hbar/m times it.

    spectrum = fft(vals), when the caller has it, saves the forward FFT; dpsi,
    the samples of dpsi/dx (ifft(ik spectrum)), save both transforms, and its
    real part is overwritten. out, a float array shaped like vals, receives the result.
    """
    if dpsi is None:
        if spectrum is None:
            spectrum = np.fft.fft(vals)
        dpsi = np.multiply(ik, spectrum)
        np.fft.ifft(dpsi, out=dpsi)
    j = np.multiply(vals.real, dpsi.imag, out=out)
    j -= np.multiply(vals.imag, dpsi.real, out=dpsi.real)
    return j


def dissipative_slope(vals: np.ndarray, weight: np.ndarray, ik: np.ndarray, floored, spectrum=None,
                      dpsi=None, out=None):
    """dV_d/dx = weight Im(psi* dpsi/dx) / floored: the integrand of V_d, written into
    out when given, else a new array.

    floored is the floored density of vals (density_terms); spectrum = fft(vals)
    or the derivative samples dpsi (whose real part this overwrites) may be
    passed in (_current_values).
    """
    slope = _current_values(vals, ik, spectrum, dpsi, out)
    slope *= weight
    slope /= floored
    return slope


def gauged_integral(grid: Grid, slope: np.ndarray, rho: np.ndarray, norm, out=None, work=None):
    """(V_d, W) from V_d's integrand `slope` (..., N) and the density `rho` it is
    averaged over, norm = int rho: V_d is the cumulative integral of slope from
    x_min and W = <V_d>, one per row. out and work are cumulative_integral's;
    work then takes V_d rho."""
    vd = cumulative_integral(grid, slope, out, work)
    return vd, integrate_values(grid, np.multiply(vd, rho, out=work)) / norm


def current(psi: WaveFunction, params: PhysicalParams) -> np.ndarray:
    """J = (hbar/m) Im(psi* dpsi/dx); integrates to <p>/m for normalized psi."""
    return (params.hbar / params.mass) * _current_values(psi.values, psi.grid.ik)


def tilde_current(
    psi: WaveFunction, f: CouplingFunction, params: PhysicalParams
) -> np.ndarray:
    """Jt = f'^2 J, the coupling-weighted current."""
    return f.on_grid(psi.grid, 1) ** 2 * current(psi, params)


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
    check_number("friction", friction, 0)
    s = SIGNS[sign]
    grid = psi.grid
    if friction == 0.0:
        return np.zeros(grid.n_points), 0.0
    # s m friction f'^2 times the current's hbar/m
    weight = (s * friction * params.hbar) * f.on_grid(grid, 1) ** 2
    rho, floored, norm = density_terms(grid, psi.values)
    slope = dissipative_slope(psi.values, weight, grid.ik, floored)
    vd, w = gauged_integral(grid, slope, rho, norm)
    return vd, float(w)


def tilde_phase_forms(polar: PolarField, f: CouplingFunction):
    """(integration-by-parts form, current form) of the coupling phase.

    Form 1: f'^2 S - 2 int S f' f'' dx (cumulative from x_min).
    Form 2: m int Jt / max(|psi|^2, eps) dx on the source psi, the cumulative
    integral of dissipative_slope with weight hbar f'^2. The two agree up to
    an additive constant.
    """
    grid = polar.grid
    s = polar.S
    fp = f.on_grid(grid, 1)
    fpp = f.on_grid(grid, 2)
    form1 = fp**2 * s - 2.0 * cumulative_integral(grid, s * fp * fpp)
    _, floored, _ = density_terms(grid, polar.psi.values)
    slope = dissipative_slope(polar.psi.values, polar.hbar * fp**2, grid.ik, floored)
    return form1, cumulative_integral(grid, slope)


def gup_damping_closed_form(
    psi: WaveFunction,
    V: PotentialSpec,
    gup_alpha: float,
    params: PhysicalParams,
) -> np.ndarray:
    """Closed-form GUP damping -2 gup_alpha p(x) V(x), diagnostic only.

    The generic route (dissipative_potential with the sqrt(V') coupling)
    integrates the full coupling-dependent phase; this closed form drops a
    boundary term. Compare the two with gup_discrepancy_report.
    """
    monotone_slope(V, psi.grid, "GUP closed form")
    p = weak_value(polar_decompose(psi, hbar=params.hbar)).real_part
    return -2.0 * gup_alpha * p * V.on_grid(psi.grid, 0)


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
    w_closed = integrate_values(grid, closed * rho) / n2
    a = vd_generic - w_generic
    b = closed - w_closed
    support = rho > 1e-3 * rho.max()
    diff = np.where(support, a - b, 0.0)
    scale = max(np.abs(a[support]).max(), np.abs(b[support]).max(), 1e-300)
    return {
        "max_abs_diff": float(np.abs(diff).max()),
        "rms_diff": float(np.sqrt(np.mean(diff[support] ** 2))),
        "scale": float(scale),
        "max_rel_diff": float(np.abs(diff).max() / scale),
    }
