"""Currents and every potential term of the nonlinear wave equation."""

import numpy as np
import pytest

from conftest import gaussian_state, plane_wave
from gsle.coupling import CouplingFunction
from gsle.errors import InvalidFriction, InvalidResolution
from gsle.fields import (
    Grid,
    RealField,
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
    dissipative_kernel,
    dissipative_potential,
    gup_damping_closed_form,
    gup_discrepancy_report,
    measurement_potential,
    quantum_potential,
    random_potential,
    tilde_current,
)


def density_mean(psi, values):
    """int O |psi|^2 / int |psi|^2 for samples O of an observable."""
    rho = psi.density()
    return integrate_values(psi.grid, values * rho) / integrate_values(psi.grid, rho)


class TestCurrent:
    def test_real_state_zero(self, grid, params):
        psi = gaussian_state(grid)
        assert np.abs(current(psi, params).values).max() < 1e-12

    def test_plane_wave_constant(self, grid, params):
        psi, k = plane_wave(grid, 6)
        j = current(psi, params).values
        assert np.allclose(j, k / grid.length, atol=1e-12)

    def test_integral_is_velocity(self, grid, params):
        psi = gaussian_state(grid, p0=1.3)
        jint = integrate(current(psi, params))
        zero = RealField(grid, np.zeros(grid.n_points))
        assert jint == pytest.approx(observables(psi, zero, params).mean_p, abs=1e-8)


class TestTildeCurrent:
    def test_linear_coupling_identity(self, grid, params):
        psi = gaussian_state(grid, p0=0.8)
        j = current(psi, params).values
        jt = tilde_current(psi, CouplingFunction.linear(), params).values
        assert np.array_equal(j, jt)

    def test_constant_coupling_zero(self, grid, params):
        psi = gaussian_state(grid, p0=0.8)
        jt = tilde_current(psi, CouplingFunction.constant(2.0), params).values
        assert np.all(jt == 0.0)

    def test_quadratic_coupling_weight(self, grid, params):
        psi, k = plane_wave(grid, 3)
        jt = tilde_current(psi, CouplingFunction.power(2), params).values
        assert np.allclose(jt, 4 * grid.x**2 * k / grid.length, atol=1e-10)


class TestDissipativePotential:
    def test_batch_rows_equal_single_states(self, grid, params):
        """A (B, N) batch gives each row's own V_d, W and observables, each
        row with its own density floor (the rows' peaks differ 1600-fold)."""
        rows = np.array([
            gaussian_state(grid, x0=-3.0, p0=1.0, sigma=0.5).values,
            0.05 * gaussian_state(grid, x0=4.0, p0=-2.0, sigma=2.0).values,
        ])
        fp2 = CouplingFunction.sinusoidal(1.0, 1.0).on_grid(grid, 1) ** 2
        vd, w = dissipative_kernel(rows, fp2, grid.ik, 0.2, grid, params)
        obs = observables(WaveFunction(grid, rows), RealField(grid, 0.5 * grid.x**2), params)
        for b, vals in enumerate(rows):
            vd_b, w_b = dissipative_kernel(vals, fp2, grid.ik, 0.2, grid, params)
            assert np.array_equal(vd[b], vd_b) and w[b] == w_b
            one = observables(WaveFunction(grid, vals), RealField(grid, 0.5 * grid.x**2), params)
            for name in ("norm", "mean_x", "mean_p", "var_x", "energy", "boundary_density"):
                assert getattr(obs, name)[b] == getattr(one, name), name

    def test_zero_friction(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        vd, w = dissipative_potential(psi, CouplingFunction.linear(), 0.0, params)
        assert np.all(vd.values == 0.0) and w == 0.0

    def test_negative_friction(self, grid, params):
        psi = gaussian_state(grid)
        with pytest.raises(InvalidFriction):
            dissipative_potential(psi, CouplingFunction.linear(), -0.1, params)

    def test_plane_wave_linear_growth(self, grid, params):
        psi, k = plane_wave(grid, 5)
        alpha = 0.3
        vd, _ = dissipative_potential(psi, CouplingFunction.linear(), alpha, params)
        expected = alpha * k * (grid.x - grid.x_min)
        assert np.abs((vd.values - vd.values[0]) - expected).max() < 1e-8

    def test_boosted_gaussian_matches_phase(self, grid, params):
        # for a phase p0*x the damping field is friction*p0*(x - <x>)
        psi = gaussian_state(grid, p0=1.7)
        alpha = 0.25
        vd, w = dissipative_potential(psi, CouplingFunction.linear(), alpha, params)
        mean_x = density_mean(psi, grid.x)
        mid = slice(grid.n_points * 3 // 8, grid.n_points * 5 // 8)
        expected = alpha * 1.7 * (grid.x - mean_x)
        assert np.abs((vd.values - w) - expected)[mid].max() < 1e-6

    def test_paper_sign_is_opposite(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        vd_d, _ = dissipative_potential(psi, CouplingFunction.linear(), 0.1, params)
        vd_p, _ = dissipative_potential(
            psi, CouplingFunction.linear(), 0.1, params, sign="paper"
        )
        assert np.allclose(vd_d.values, -vd_p.values)

    def test_mean_is_subtracted_consistently(self, grid, params):
        psi = gaussian_state(grid, p0=0.9)
        vd, w = dissipative_potential(
            psi, CouplingFunction.sinusoidal(1.0, 1.0), 0.2, params
        )
        mean_vd = density_mean(psi, vd.values)
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
        lhs = integrate_values(grid, vd.values * drho)
        jt = tilde_current(psi, f, params)
        rhs = -params.mass * alpha * integrate(jt)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestRandomPotential:
    def test_zero_noise(self, grid):
        v = random_potential(CouplingFunction.linear(), 0.0, grid)
        assert np.all(v.values == 0.0)

    def test_linear_coupling_uniform_force(self, grid):
        v = random_potential(CouplingFunction.linear(), 2.0, grid)
        assert np.allclose(v.values, -2.0 * grid.x)

    def test_force_is_fprime_xi(self):
        # box length commensurate with the coupling period, so the
        # spectral gradient is exact
        g = Grid(-8 * np.pi, 8 * np.pi, 512)
        f = CouplingFunction.sinusoidal(1.0, 1.0)
        v = random_potential(f, 1.0, g)
        force = -np.real(spectral_derivative(g, v.values.astype(complex), 1))
        assert np.abs(force - np.cos(g.x)).max() < 1e-10


class TestMeasurementPotential:
    def test_zero_kappa(self, grid, params):
        psi = gaussian_state(grid)
        w = measurement_potential(psi, 0.0, params)
        assert np.all(w.values == 0.0)

    def test_negative_kappa(self, grid, params):
        psi = gaussian_state(grid)
        with pytest.raises(InvalidResolution):
            measurement_potential(psi, -0.1, params)

    def test_uniform_density_vanishes(self, grid, params):
        psi = normalize(WaveFunction(grid, np.ones(512, dtype=complex)))
        w = measurement_potential(psi, 0.4, params)
        assert np.abs(w.values).max() < 1e-12

    def test_purely_imaginary_and_mean_free(self, grid, params):
        psi = gaussian_state(grid, x0=0.7)
        w = measurement_potential(psi, 0.4, params)
        assert np.abs(w.values.real).max() < 1e-10
        mean_im = density_mean(psi, w.values.imag)
        assert abs(mean_im) < 1e-10

    def test_gaussian_literal_sign_form(self, grid, params):
        # literal printed convention: for a sigma=1 Gaussian density the
        # term is +i*hbar*kappa*(x^2 - 1)/2
        psi = gaussian_state(grid, sigma=1.0)
        kappa = 0.4
        w = measurement_potential(psi, kappa, params, sign="paper")
        mid = slice(512 * 3 // 8, 512 * 5 // 8)
        expected = kappa * (grid.x**2 - 1.0) / 2.0
        assert np.abs(w.values.imag - expected)[mid].max() < 1e-6

    def test_localizing_sign_is_opposite(self, grid, params):
        psi = gaussian_state(grid, sigma=1.0)
        a = measurement_potential(psi, 0.4, params).values
        b = measurement_potential(psi, 0.4, params, sign="paper").values
        assert np.allclose(a, -b)


class TestQuantumPotential:
    def test_plane_wave_zero(self, grid, params):
        psi, _ = plane_wave(grid, 4)
        assert np.abs(quantum_potential(psi, params).values).max() < 1e-8

    def test_gaussian_at_origin(self, grid, params):
        psi = gaussian_state(grid, sigma=1.0)
        q = quantum_potential(psi, params).values
        i0 = np.argmin(np.abs(grid.x))
        assert q[i0] == pytest.approx(0.25, abs=1e-6)
        i1 = np.argmin(np.abs(grid.x - 1.0))
        assert q[i1] == pytest.approx(0.25 - grid.x[i1] ** 2 / 8.0, abs=1e-6)

    def test_stationary_state_identity(self, grid, params):
        # harmonic ground state: Q + V is the constant ground energy
        psi = gaussian_state(grid, sigma=np.sqrt(0.5))
        q = quantum_potential(psi, params).values
        total = q + 0.5 * grid.x**2
        mid = slice(512 * 3 // 8, 512 * 5 // 8)
        assert np.abs(total[mid] - 0.5).max() < 1e-6

    def test_global_phase_invariance(self, grid, params):
        psi = gaussian_state(grid, x0=0.3)
        shifted = WaveFunction(grid, psi.values * np.exp(1j * 1.234))
        a = quantum_potential(psi, params).values
        b = quantum_potential(shifted, params).values
        # |exp(i theta) psi| differs from |psi| only in the last ulps
        assert np.abs(a - b).max() < 1e-6


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
        assert np.abs(out.values).max() < 1e-10

    def test_zero_potential(self, grid, params):
        psi = gaussian_state(grid, p0=1.0)
        out = gup_damping_closed_form(psi, PotentialSpec.free(), 0.1, params)
        assert np.all(out.values == 0.0)

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
