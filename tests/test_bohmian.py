"""Polar decomposition, weak values (the guiding momentum), trajectories."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gaussian_state, plane_wave
from gsle.bohmian import (
    _anchored_unwrap,
    equivariance_distance,
    polar_decompose,
    propagate_trajectories,
    sample_from_density,
    tilde_phase_forms,
    weak_value,
)
from gsle.coupling import CouplingFunction
from gsle.errors import DegenerateState, InsufficientData, InvalidField
from gsle.evolve import (
    GaussianPacket,
    HarmonicEigenstate,
    SimConfig,
    build_initial_state,
    run,
)
from gsle.fields import Grid, WaveFunction, spectral_derivative
from gsle.potentials import PotentialSpec, current, dissipative_potential


def _sequential_unwrap(theta, anchor):
    """Reference: the point-by-point unwrap outward from the anchor, taking
    the neighbouring branch where the rounded one steps by more than pi."""
    out = np.array(theta, dtype=float)
    for i, j in [(i, i - 1) for i in range(anchor + 1, out.size)] + [
        (i, i + 1) for i in range(anchor - 1, -1, -1)
    ]:
        k = np.round((out[i] - out[j]) / (2 * np.pi))
        jump = out[i] - 2 * np.pi * k - out[j]
        k += int(jump > np.pi) - int(jump < -np.pi)
        out[i] = out[i] - 2 * np.pi * k
    return out


# np.angle's range, plus values whose steps are exactly +-pi or 2 pi apart,
# where rounding against the shifted neighbour is a tie
_PHASES = st.one_of(
    st.floats(-np.pi, np.pi),
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 3.0, -3.0, 3.0 - np.pi, np.pi - 3.0]),
)


class TestAnchoredUnwrap:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_PHASES, min_size=1, max_size=64).flatmap(
            lambda p: st.tuples(st.just(p), st.integers(0, len(p) - 1))
        )
    )
    # (t - out[i-1]) / 2 pi is exactly -1.5 at the first step, and round half
    # to even took the branch that steps by pi + 8.9e-16
    @example(([0.0, -np.pi, -8.1e-16, 0.0, 0.0, 0.0, -1.0, np.pi], 7))
    def test_matches_sequential_loop(self, phases_anchor):
        phases, anchor = phases_anchor
        theta = np.array(phases)
        out = _anchored_unwrap(theta, anchor)
        ref = _sequential_unwrap(theta, anchor)
        assert np.array_equal(out, ref)
        # bit for bit, except that an exact zero may carry the other sign
        nonzero = ref != 0
        assert out[nonzero].tobytes() == ref[nonzero].tobytes()
        assert out[anchor] == theta[anchor]
        assert np.all(np.abs(np.diff(out)) <= np.pi)


class TestPolarDecompose:
    def test_plane_wave_many_wraps(self, grid, params):
        # 10 full phase wraps across the box: the unwrapped action must be
        # exactly linear, no residual 2*pi jumps
        psi, k = plane_wave(grid, 10)
        polar = polar_decompose(psi, hbar=1.0)
        s = polar.S
        jumps = np.diff(s) - k * grid.dx
        assert np.abs(jumps).max() < 1e-10

    def test_real_gaussian(self, grid):
        psi = gaussian_state(grid)
        polar = polar_decompose(psi, hbar=1.0)
        sel = ~polar.node_mask
        assert np.abs(polar.S[sel]).max() < 1e-10
        assert np.allclose(polar.A, np.abs(psi.values))

    def test_first_excited_state_lobes(self, grid):
        cfg = SimConfig(
            grid=grid,
            potential=PotentialSpec.harmonic(1.0),
            initial_state=HarmonicEigenstate(1, 1.0),
        )
        psi = build_initial_state(cfg)
        polar = polar_decompose(psi, hbar=1.0)
        assert polar.node_mask.any()
        x = grid.x
        left = polar.S[(x < -0.5) & ~polar.node_mask][0]
        right = polar.S[(x > 0.5) & ~polar.node_mask][0]
        # sign flip across the node is a phase jump of pi (mod 2 pi)
        assert np.cos(right - left) == pytest.approx(-1.0, abs=1e-10)

    def test_reconstruction(self, grid):
        psi = gaussian_state(grid, x0=1.0, p0=2.3)
        polar = polar_decompose(psi, hbar=1.0)
        back = polar.A * np.exp(1j * polar.S / polar.hbar)
        sel = ~polar.node_mask
        assert np.abs(back[sel] - psi.values[sel]).max() < 1e-8

    def test_zero_state(self, grid):
        with pytest.raises(DegenerateState):
            polar_decompose(WaveFunction(grid, np.zeros(512, dtype=complex)), hbar=1.0)


class TestGuidingMomentum:
    def test_plane_wave(self, grid):
        psi, k = plane_wave(grid, 6)
        p = weak_value(polar_decompose(psi, hbar=1.0)).real_part
        assert np.abs(p - k).max() < 1e-8

    def test_real_state(self, grid):
        psi = gaussian_state(grid)
        p = weak_value(polar_decompose(psi, hbar=1.0)).real_part
        assert np.abs(p).max() < 1e-8

    def test_boosted_gaussian(self, grid):
        psi = gaussian_state(grid, p0=1.4)
        polar = polar_decompose(psi, hbar=1.0)
        p = weak_value(polar).real_part
        sel = ~polar.node_mask
        assert np.abs(p[sel] - 1.4).max() < 1e-8

    def test_matches_current_ratio(self, grid, params):
        """p = dS/dx must equal m J / |psi|^2 where the density resolves."""
        psi = gaussian_state(grid, x0=0.5, p0=1.1, sigma=1.2)
        polar = polar_decompose(psi, hbar=1.0)
        p = weak_value(polar).real_part
        rho = psi.density()
        sel = rho > 1e-6 * rho.max()
        ratio = params.mass * current(psi, params)[sel] / rho[sel]
        assert np.abs(p[sel] - ratio).max() / np.abs(ratio).max() < 1e-6

    def test_node_cells_use_action_slope(self, grid):
        """Across an interior node p is the slope of the interpolated action."""
        cfg = SimConfig(
            grid=grid,
            potential=PotentialSpec.harmonic(1.0),
            initial_state=HarmonicEigenstate(1, 1.0),
        )
        polar = polar_decompose(build_initial_state(cfg), hbar=1.0)
        mask = polar.node_mask
        assert mask[np.argmin(np.abs(grid.x))]   # the node at x = 0
        p = weak_value(polar).real_part
        assert np.all(np.isfinite(p))
        slope = np.gradient(polar.S, grid.dx)
        assert np.array_equal(p[mask], slope[mask])


class TestTildePhase:
    def test_linear_coupling_recovers_action(self, grid):
        psi = gaussian_state(grid, p0=0.9)
        polar = polar_decompose(psi, hbar=1.0)
        _, form2 = tilde_phase_forms(polar, CouplingFunction.linear())
        diff = form2 - polar.S
        rho = psi.density()
        sel = rho > 1e-8 * rho.max()   # where the phase is resolvable
        assert diff[sel].std() < 1e-6

    def test_constant_coupling_vanishes(self, grid):
        psi = gaussian_state(grid, p0=0.9)
        polar = polar_decompose(psi, hbar=1.0)
        _, form2 = tilde_phase_forms(polar, CouplingFunction.constant(3.0))
        assert np.abs(form2).max() < 1e-10

    def test_quadratic_coupling_cubic_phase(self):
        # S = p0 x with f = x^2 gives a coupling phase (4/3) p0 x^3 + const
        g = Grid(-10.0, 10.0, 1024)
        p0 = 0.37
        rho = np.exp(-(g.x**2) / 2.0)
        psi = WaveFunction(g, np.sqrt(rho) * np.exp(1j * p0 * g.x))
        polar = polar_decompose(psi, hbar=1.0)
        form1, form2 = tilde_phase_forms(polar, CouplingFunction.power(2))
        sel = ~polar.node_mask
        expected = (4.0 / 3.0) * p0 * g.x**3
        resid = form1[sel] - expected[sel]
        assert resid.std() < 1e-8 * np.abs(expected).max()
        # the two equivalent forms differ by a constant only
        d = (form1 - form2)[sel]
        assert d.std() < 1e-6 * np.abs(d.mean()) + 1e-10

    def test_current_form_reads_source_psi(self, grid, params):
        """Form 2 is the unit-friction V_d of the source psi, with no leak of
        the interpolated action from masked cells."""
        psi = gaussian_state(grid, x0=0.5, p0=0.9, sigma=1.2)
        f = CouplingFunction.sinusoidal(1.0, 1.0)
        _, form2 = tilde_phase_forms(polar_decompose(psi, hbar=1.0), f)
        vd, _ = dissipative_potential(psi, f, 1.0, params)
        assert np.abs(form2 - vd).max() < 1e-13


class TestWeakValue:
    def test_plane_wave(self, grid):
        psi, k = plane_wave(grid, 6)
        wv = weak_value(polar_decompose(psi, hbar=1.0))
        assert np.abs(wv.real_part - k).max() < 1e-8
        assert np.abs(wv.imag_part).max() < 1e-8

    def test_real_gaussian_osmotic(self, grid):
        # density e^{-x^2/2}: osmotic part is +x/2 in natural units
        psi = gaussian_state(grid, sigma=1.0)
        wv = weak_value(polar_decompose(psi, hbar=1.0))
        i1 = np.argmin(np.abs(grid.x - 1.0))
        assert wv.imag_part[i1] == pytest.approx(
            grid.x[i1] / 2.0, abs=1e-8
        )

    def test_definitional_oracle_synthetic(self, grid):
        """(-i hbar dpsi)/psi == real + i*imag on an analytic state."""
        psi = gaussian_state(grid, x0=0.5, p0=1.3, sigma=1.1)
        polar = polar_decompose(psi, hbar=1.0)
        wv = weak_value(polar)
        dpsi = spectral_derivative(grid, psi.values, 1)
        rho = psi.density()
        sel = rho > 1e-8 * rho.max()
        oracle = -1j * dpsi[sel] / psi.values[sel]
        ours = wv.real_part[sel] + 1j * wv.imag_part[sel]
        assert np.abs(ours - oracle).max() < 1e-8


class TestTrajectories:
    def test_stationary_state_frozen(self, grid, params):
        cfg = SimConfig(
            grid=grid,
            potential=PotentialSpec.harmonic(1.0),
            initial_state=GaussianPacket(0.0, 0.0, np.sqrt(0.5)),
        )
        psi = build_initial_state(cfg)
        times = np.linspace(0.0, 1.0, 11)
        ens = propagate_trajectories([psi] * 11, times, 200, 4, params)
        drift = np.abs(ens.positions - ens.positions[:, :1]).max()
        assert drift < 1e-8

    def test_broad_packet_drifts_at_p0(self, params):
        g = Grid(-40.0, 40.0, 1024)
        psi = gaussian_state(g, p0=2.0, sigma=6.0)
        times = np.linspace(0.0, 0.5, 6)
        ens = propagate_trajectories([psi] * 6, times, 500, 5, params)
        v = (ens.positions[:, -1] - ens.positions[:, 0]) / 0.5
        assert np.abs(v - 2.0).max() < 0.02

    def test_free_spreading_variance(self, grid, params):
        cfg = SimConfig(
            grid=grid,
            potential=PotentialSpec.free(),
            dt=0.005,
            n_steps=200,
            snapshot_stride=10,
            initial_state=GaussianPacket(0.0, 0.0, 1.0),
        )
        rec = run(cfg)
        times = cfg.dt * np.array([s for s, _ in rec.snapshots])
        ens = propagate_trajectories(
            [p for _, p in rec.snapshots], times, 10_000, 6, params
        )
        sim_var = ens.positions[:, -1].var()
        assert sim_var == pytest.approx(rec.var_x[-1], rel=0.03)

    def test_free_gaussian_matches_analytic_trajectories(self, params):
        """Exact free packet, sigma(t) = sigma0 sqrt(1 + (t / 2 sigma0^2)^2) and
        centre x_c(t) = x_c(0) + p0 t (hbar = m = 1): every trajectory is
        x(t) = x_c(t) + (x(0) - x_c(0)) sigma(t) / sigma0. The error comes from
        the velocity's linear interpolation in t, O(spacing^2)."""
        grid, sigma0, p0, xc0 = Grid(-20.0, 20.0, 1024), 1.0, 1.0, -1.0

        def error(spacing):
            times = np.arange(0.0, 2.0 + spacing / 2, spacing)
            history = []
            for t in times:
                z = 1.0 + 1j * t / (2.0 * sigma0**2)
                xc = xc0 + p0 * t
                psi = np.exp(-((grid.x - xc) ** 2) / (4.0 * sigma0**2 * z) + 1j * p0 * grid.x)
                history.append(WaveFunction(grid, psi / np.sqrt(z)))
            ens = propagate_trajectories(history, times, 200, 3, params)
            sigma = sigma0 * np.sqrt(1.0 + (times / (2.0 * sigma0**2)) ** 2)
            x0 = ens.positions[:, :1]
            exact = xc0 + p0 * times + (x0 - xc0) * sigma / sigma0
            return np.abs(ens.positions - exact).max()

        coarse, fine = error(0.01), error(0.005)
        assert coarse < 1e-4
        assert fine < coarse / 3.0

    def test_empty_history(self, params):
        with pytest.raises(InsufficientData):
            propagate_trajectories([], np.array([]), 10, 0, params)

    def test_history_and_times_lengths_differ(self, grid, params):
        with pytest.raises(InsufficientData, match="lengths differ"):
            propagate_trajectories([gaussian_state(grid)] * 2, [0.0, 0.1, 0.2], 10, 0, params)

    @pytest.mark.parametrize(
        "other", [Grid(-20.0, 20.0, 256), Grid(-22.0, 18.0, 512)], ids=["n_points", "box"]
    )
    def test_history_off_first_grid(self, grid, params, other):
        """A state on a grid other than history[0]'s is an InvalidField that
        names it, whether its n_points or its box differs."""
        history = [gaussian_state(grid), gaussian_state(grid), gaussian_state(other)]
        with pytest.raises(InvalidField, match=r"history\[2\] is on"):
            propagate_trajectories(history, [0.0, 0.1, 0.2], 10, 0, params)


class TestEquivariance:
    def test_initial_sampling_within_ks_bound(self, grid):
        psi = gaussian_state(grid, sigma=1.5)
        n = 4000
        rng = np.random.default_rng(8)
        samples = sample_from_density(psi, n, rng)
        from gsle.bohmian import TrajectoryEnsemble

        ens = TrajectoryEnsemble(
            times=np.array([0.0]), positions=samples[:, None], seed=8
        )
        d = equivariance_distance(ens, psi, 0)
        assert d < 1.63 / np.sqrt(n)    # 99% KS critical value

    def test_wrong_velocity_field_fails(self, grid, params):
        """Doubling the velocity field must break equivariance."""
        cfg = SimConfig(
            grid=grid,
            potential=PotentialSpec.free(),
            dt=0.005,
            n_steps=200,
            snapshot_stride=20,
            initial_state=GaussianPacket(0.0, 3.0, 1.0),
        )
        rec = run(cfg)
        times = cfg.dt * np.array([s for s, _ in rec.snapshots])
        history = [p for _, p in rec.snapshots]
        doubled = [
            WaveFunction(grid, np.abs(p.values) * np.exp(2j * np.angle(p.values)))
            for p in history
        ]
        n = 4000
        good = propagate_trajectories(history, times, n, 9, params)
        bad = propagate_trajectories(doubled, times, n, 9, params)
        bound = 1.63 / np.sqrt(n)
        assert equivariance_distance(good, history[-1], len(times) - 1) < 0.05
        assert equivariance_distance(bad, history[-1], len(times) - 1) > 0.05
