"""Currents and every potential term of the nonlinear wave equation.

The random potential and the measurement term are tested on the
propagator's own kernel, `evolve._Workspace`.
"""

import numpy as np
import pytest

from conftest import gaussian_state, plane_wave, real_potential_of
from gsle.coupling import CouplingFunction
from gsle.errors import ConfigError, NonmonotonePotential
from gsle.evolve import SimConfig, _Workspace, run
from gsle.fields import (
    Grid,
    PhysicalParams,
    density_floor,
    density_terms,
    observables,
    integrate,
    integrate_values,
    normalize,
    spectral_derivative,
    WaveFunction,
)
from gsle.potentials import (
    PotentialSpec,
    current,
    dissipative_potential,
    dissipative_slope,
    gauged_integral,
    gup_damping_closed_form,
    gup_discrepancy_report,
    tilde_current,
)


def density_mean(psi, values):
    """int O |psi|^2 / int |psi|^2 for samples O of an observable."""
    rho = psi.density()
    return integrate_values(psi.grid, values * rho) / integrate_values(psi.grid, rho)


def workspace(grid, **kw):
    """The propagator's stepping kernel for a config on this grid."""
    return _Workspace(SimConfig(grid=grid, **kw))


class TestCurrent:
    def test_real_state_zero(self, grid, params):
        psi = gaussian_state(grid)
        assert np.abs(current(psi, params)).max() < 1e-12

    def test_plane_wave_constant(self, grid, params):
        psi, k = plane_wave(grid, 6)
        j = current(psi, params)
        assert np.allclose(j, k / grid.length, atol=1e-12)

    def test_integral_is_velocity(self, grid, params):
        psi = gaussian_state(grid, p0=1.3)
        jint = integrate(grid, current(psi, params))
        zero = np.zeros(grid.n_points)
        assert jint == pytest.approx(observables(psi, zero, params)["mean_p"], abs=1e-8)


class TestTildeCurrent:
    def test_linear_coupling_identity(self, grid, params):
        psi = gaussian_state(grid, p0=0.8)
        j = current(psi, params)
        jt = tilde_current(psi, CouplingFunction.linear(), params)
        assert np.array_equal(j, jt)

    def test_constant_coupling_zero(self, grid, params):
        psi = gaussian_state(grid, p0=0.8)
        jt = tilde_current(psi, CouplingFunction.constant(2.0), params)
        assert np.all(jt == 0.0)

    def test_quadratic_coupling_weight(self, grid, params):
        psi, k = plane_wave(grid, 3)
        jt = tilde_current(psi, CouplingFunction.power(2), params)
        assert np.allclose(jt, 4 * grid.x**2 * k / grid.length, atol=1e-10)


class TestDissipativePotential:
    def test_batch_rows_equal_single_states(self, grid, params):
        """A (B, N) batch, or the (m, B, N) block of a run's record, gives each
        row's own V_d, W and observables bit for bit, each row with its own
        density floor (the rows' peaks differ up to 1600-fold). The batch
        shares one spectrum and one density, as the record does."""
        states = np.array([
            scale * gaussian_state(grid, x0=x0, p0=p0, sigma=sigma).values
            for scale, x0, p0, sigma in [
                (1.0, -3.0, 1.0, 0.5), (0.05, 4.0, -2.0, 2.0), (2.0, 0.5, 0.3, 1.0),
                (0.3, -1.0, -0.7, 0.8), (1.0, 2.0, 1.5, 1.5), (0.1, 0.0, 0.0, 3.0),
            ]
        ])
        weight = 0.2 * params.hbar * CouplingFunction.sinusoidal(1.0, 1.0).on_grid(grid, 1) ** 2
        V = 0.5 * grid.x**2
        for lead in [(2,), (3, 2)]:
            rows = states[:np.prod(lead)].reshape(lead + (grid.n_points,))
            spectra, density = np.fft.fft(rows), density_terms(grid, rows)
            rho, floored, norm = density
            vd, w = gauged_integral(grid, dissipative_slope(rows, weight, grid.ik, floored, spectra), rho, norm)
            obs = observables(WaveFunction(grid, rows), V, params, spectra, rho)
            for b in np.ndindex(lead):
                vals = rows[b]
                rho_b, floored_b, norm_b = density_terms(grid, vals)
                slope_b = dissipative_slope(vals, weight, grid.ik, floored_b)
                vd_b, w_b = gauged_integral(grid, slope_b, rho_b, norm_b)
                assert np.array_equal(vd[b], vd_b) and w[b] == w_b
                one = observables(WaveFunction(grid, vals), V, params)
                for name in ("norm", "mean_x", "mean_p", "var_x", "energy", "boundary_density"):
                    assert obs[name][b] == one[name], name

    def test_zero_friction(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        vd, w = dissipative_potential(psi, CouplingFunction.linear(), 0.0, params)
        assert np.all(vd == 0.0) and w == 0.0

    def test_negative_friction(self, grid, params):
        psi = gaussian_state(grid)
        for friction in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError, match="friction must be a finite number >= 0"):
                dissipative_potential(psi, CouplingFunction.linear(), friction, params)

    def test_plane_wave_linear_growth(self, grid, params):
        psi, k = plane_wave(grid, 5)
        alpha = 0.3
        vd, _ = dissipative_potential(psi, CouplingFunction.linear(), alpha, params)
        expected = alpha * k * (grid.x - grid.x_min)
        assert np.abs((vd - vd[0]) - expected).max() < 1e-8

    def test_boosted_gaussian_matches_phase(self, grid, params):
        # for a phase p0*x the damping field is friction*p0*(x - <x>)
        psi = gaussian_state(grid, p0=1.7)
        alpha = 0.25
        vd, w = dissipative_potential(psi, CouplingFunction.linear(), alpha, params)
        mean_x = density_mean(psi, grid.x)
        mid = slice(grid.n_points * 3 // 8, grid.n_points * 5 // 8)
        expected = alpha * 1.7 * (grid.x - mean_x)
        assert np.abs((vd - w) - expected)[mid].max() < 1e-6

    def test_paper_sign_is_opposite(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        vd_d, _ = dissipative_potential(psi, CouplingFunction.linear(), 0.1, params)
        vd_p, _ = dissipative_potential(
            psi, CouplingFunction.linear(), 0.1, params, sign="paper"
        )
        assert np.allclose(vd_d, -vd_p)

    def test_mean_is_subtracted_consistently(self, grid, params):
        psi = gaussian_state(grid, p0=0.9)
        vd, w = dissipative_potential(
            psi, CouplingFunction.sinusoidal(1.0, 1.0), 0.2, params
        )
        mean_vd = density_mean(psi, vd)
        assert abs(mean_vd - w) < 1e-10

    def test_ehrenfest_identification(self, grid, params):
        """<-dV_d/dx> equals -m*friction*int(f'^2 J) for any state/coupling.

        The mean force is evaluated by parts, <-V_d'> = int V_d rho' dx,
        because V_d itself grows secularly and has no periodic extension.
        The fine grid keeps the quadrature error of V_d below the gate
        (fourth-order in dx).
        """
        grid = Grid(-20.0, 20.0, 2048)
        psi = gaussian_state(grid, x0=0.5, p0=1.1)
        f = CouplingFunction.sinusoidal(1.0, 1.0)
        alpha = 0.2
        vd, _ = dissipative_potential(psi, f, alpha, params)
        drho = np.real(
            spectral_derivative(grid, psi.density().astype(complex), 1)
        )
        lhs = integrate_values(grid, vd * drho)
        jt = tilde_current(psi, f, params)
        rhs = -params.mass * alpha * integrate(grid, jt)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestRandomPotential:
    """V_r = -f xi as the propagator builds it: with friction 0, U = V - f xi."""

    def test_zero_noise(self, grid):
        ws = workspace(grid, potential=PotentialSpec.harmonic(1.0))
        u = real_potential_of(ws, gaussian_state(grid).values, 0.0)
        assert np.array_equal(u, ws.V)
        cfg = SimConfig(grid=grid, potential=PotentialSpec.harmonic(1.0), n_steps=3)
        assert np.all(run(cfg).W == 0.0)

    def test_linear_coupling_uniform_force(self, grid):
        ws = workspace(grid)
        u = real_potential_of(ws, gaussian_state(grid).values, 2.0)
        assert np.array_equal(u, -2.0 * grid.x)

    def test_force_is_fprime_xi(self):
        # box length commensurate with the coupling period, so the
        # spectral gradient is exact
        g = Grid(-8 * np.pi, 8 * np.pi, 512)
        ws = workspace(g, coupling=CouplingFunction.sinusoidal(1.0, 1.0))
        u = real_potential_of(ws, gaussian_state(g).values, 1.0)
        force = -np.real(spectral_derivative(g, u.astype(complex), 1))
        assert np.abs(force - np.cos(g.x)).max() < 1e-10


class TestMeasurementPotential:
    """The measurement kick of _Workspace.apply_potential with its
    measurement_factor: the localizing term +i hbar kappa (ln rho - <ln rho>)
    over a kick of length tau, the workspace's dt."""

    TAU = 0.5

    def kick(self, vals, ws, u):
        """ws's kick of the states vals by u, measurement factor included."""
        return ws.apply_potential(vals, u, ws.measurement_factor(*density_terms(ws.grid, vals)))

    def kicked(self, psi, kappa, u=None):
        ws = workspace(psi.grid, potential=PotentialSpec.harmonic(1.0), kappa=kappa, dt=self.TAU)
        u = ws.V if u is None else u
        return self.kick(psi.values, ws, u), psi.values * np.exp(-1j * u * self.TAU)

    def test_zero_kappa(self, grid):
        """kappa = 0: a pure phase kick."""
        out, phase_kicked = self.kicked(gaussian_state(grid, x0=0.7), 0.0)
        assert np.abs(out - phase_kicked).max() < 1e-15

    def test_negative_kappa(self, grid):
        with pytest.raises(ConfigError, match="kappa"):
            SimConfig(grid=grid, kappa=-0.1)

    def test_uniform_density_vanishes(self, grid):
        """ln rho is constant, so the kick leaves the state unchanged up to the phase."""
        psi = normalize(WaveFunction(grid, np.ones(512, dtype=complex)))
        out, phase_kicked = self.kicked(psi, 0.4)
        assert np.abs(out - phase_kicked).max() < 1e-12

    def test_purely_imaginary_and_mean_free(self, grid):
        """The term is imaginary, so it multiplies psi by a real positive factor;
        it is mean-free, so the kick keeps the norm."""
        psi = gaussian_state(grid, x0=0.7)
        out, phase_kicked = self.kicked(psi, 0.4)
        support = psi.density() > 1e-8 * psi.density().max()
        factor = out[support] / phase_kicked[support]
        assert np.abs(factor.imag).max() < 1e-10 and factor.real.min() > 0
        n_after = integrate_values(grid, np.abs(out) ** 2)
        assert n_after == pytest.approx(integrate_values(grid, psi.density()), rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 0.4])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
    def test_matches_exponential_formula(self, grid, kappa, lead):
        """The cos/sin kick is vals * exp(-i u tau/hbar + kappa tau ln rho),
        with rho floored, rescaled to the pre-kick norm, up to rounding, and
        the kicked norm is the pre-kick one. At hbar = 1 both round the same
        phase u tau/hbar; otherwise the phases differ by an ulp, which the
        bound would have to scale by max|u tau/hbar|."""
        params = PhysicalParams()
        ws = workspace(grid, potential=PotentialSpec.harmonic(1.0), kappa=kappa, dt=self.TAU)
        rows = [(1.0, -1.0, 0.4, 0.8), (0.05, 2.0, -1.0, 1.5), (3.0, 0.5, 0.0, 0.6)]
        vals = np.array([
            scale * gaussian_state(grid, x0, p0, sigma, params.hbar).values
            for scale, x0, p0, sigma in rows[:int(np.prod(lead))]
        ]).reshape(lead + (grid.n_points,))
        u = ws.V + 0.3 * np.sin(grid.x)
        out = self.kick(vals, ws, u).copy()
        rho = np.abs(vals) ** 2
        log_rho = np.log(np.maximum(rho, density_floor(rho)))
        ref = vals * np.exp(-1j * u * self.TAU / params.hbar + kappa * self.TAU * log_rho)
        n_before = integrate_values(grid, rho)
        ref *= np.sqrt(n_before / integrate_values(grid, np.abs(ref) ** 2))[..., None]
        assert np.abs(out - ref).max() <= 4e-16 * np.abs(vals).max()
        n_after = integrate_values(grid, np.abs(out) ** 2)
        assert np.abs(n_after / n_before - 1.0).max() <= 1e-15

    def test_gaussian_contracts(self, grid):
        """For a sigma = 1 Gaussian ln rho = -x^2/2 + const, so the kick
        multiplies |psi| by exp(-kappa tau x^2/2) and rho^(1 + 2 kappa tau)
        has the variance 1/(1 + 2 kappa tau)."""
        kappa = 0.4
        psi = gaussian_state(grid, sigma=1.0)
        out, _ = self.kicked(psi, kappa, u=np.zeros(grid.n_points))
        gain = np.log(np.abs(out)) - np.log(np.abs(psi.values))
        mid = slice(512 * 3 // 8, 512 * 5 // 8)
        resid = (gain + kappa * self.TAU * grid.x**2 / 2.0)[mid]
        assert np.ptp(resid) < 1e-10
        contracted = WaveFunction(grid, out)
        zero = np.zeros(grid.n_points)
        var = observables(contracted, zero, PhysicalParams())["var_x"]
        assert var == pytest.approx(1.0 / (1.0 + 2.0 * kappa * self.TAU), rel=1e-8)


class TestPotentialSpec:
    def test_harmonic_derivatives(self):
        V = PotentialSpec.harmonic(2.0)
        assert V(3.0, 0) == pytest.approx(18.0)
        assert V(3.0, 1) == pytest.approx(12.0)
        assert V(3.0, 2) == pytest.approx(4.0)

    def test_double_well_shape(self):
        V = PotentialSpec.double_well(1.0, 2.0)
        assert V(0.0, 0) == 0.0
        assert V(1.0, 0) == pytest.approx(-1.0)
        assert V(1.0, 1) == pytest.approx(0.0)

    def test_tabulated(self):
        x = np.linspace(-5, 5, 300)
        V = PotentialSpec.tabulated(x, x**2)
        assert V(1.5, 0) == pytest.approx(2.25, abs=1e-8)


class TestGupDamping:
    def test_zero_momentum_state(self, grid, params):
        psi = gaussian_state(grid)
        out = gup_damping_closed_form(
            psi, PotentialSpec.linear_ramp(1.0), 0.1, params
        )
        assert np.abs(out).max() < 1e-10

    def test_zero_potential(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        out = gup_damping_closed_form(psi, PotentialSpec.free(), 0.1, params)
        assert np.all(out == 0.0)

    def test_closed_form_rejects_nonmonotone_potential(self, grid, params):
        with pytest.raises(NonmonotonePotential):
            gup_damping_closed_form(gaussian_state(grid), PotentialSpec.harmonic(1.0), 0.1, params)

    def test_discrepancy_report_keys(self, grid, params):
        psi = gaussian_state(grid, x0=2.0, p0=0.8)
        report = gup_discrepancy_report(
            psi, PotentialSpec.linear_ramp(1.0), 0.05, params
        )
        assert set(report) == {
            "max_abs_diff",
            "rms_diff",
            "scale",
            "max_rel_diff",
        }
        assert all(np.isfinite(v) for v in report.values())

    def test_closed_form_uses_hbar(self, grid):
        """At hbar = 2 the closed form agrees with the generic route as at hbar = 1."""
        params = PhysicalParams(hbar=2.0)
        psi = gaussian_state(grid, p0=1.5, hbar=params.hbar)
        report = gup_discrepancy_report(psi, PotentialSpec.cubic(1.0), 0.05, params)
        assert report["max_rel_diff"] < 1e-10
