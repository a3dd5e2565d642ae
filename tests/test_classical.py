"""Classical Langevin / memory-kernel ensemble oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noise_array
from gsle.bath import (
    NOISE_BLOCK_STEPS,
    BathSpec,
    NoiseSpec,
    OhmicSpec,
    discretize_ohmic,
    memory_kernel,
    spawn_seeds,
)
from gsle.classical import (
    MEMORY_BLOCK,
    MOMENTS,
    GaussianCloud,
    GleIntegrator,
    LangevinConfig,
    langevin_ensemble,
    langevin_step,
)
from gsle.coupling import CouplingFunction
from gsle.errors import ConfigError, NumericalBlowup
from gsle.fields import RECORD_BLOCK_ELEMENTS, PhysicalParams
from gsle.potentials import PotentialSpec


def harmonic_cfg(**kw):
    base = dict(
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.linear(),
        dt=0.005,
        n_steps=1000,
        n_particles=1,
        initial=GaussianCloud(1.0, 0.0, 0.0, 0.0),
    )
    base.update(kw)
    return LangevinConfig(**base)


class TestLangevinStep:
    def test_ballistic(self):
        cfg = LangevinConfig(
            potential=PotentialSpec.free(), dt=0.01, n_steps=1
        )
        x, v = 1.0, 2.0
        for _ in range(100):
            x, v = langevin_step(x, v, cfg, 0.0)
        assert x == pytest.approx(1.0 + 2.0 * 1.0, abs=1e-12)
        assert v == pytest.approx(2.0, abs=1e-14)

    def test_damped_oscillator_closed_form(self):
        alpha, x0 = 0.1, 1.0
        period = 2 * np.pi
        dt = period / 10_000
        n = 10_000
        cfg = harmonic_cfg(friction=alpha, dt=dt, n_steps=n)
        ens = langevin_ensemble(cfg, 0)
        wt = np.sqrt(1 - alpha**2 / 4)
        t = ens.times
        exact = np.exp(-alpha * t / 2) * (
            x0 * np.cos(wt * t) + (alpha * x0 / (2 * wt)) * np.sin(wt * t)
        )
        assert np.abs(ens.mean_x - exact).max() < 1e-6

    def test_blowup_detected(self):
        cfg = LangevinConfig(
            potential=PotentialSpec.double_well(1.0, 1.0),
            dt=10.0,
            n_steps=50,
            n_particles=2,
            initial=GaussianCloud(3.0, 0.0, 0.1, 0.1),
        )
        with pytest.raises(NumericalBlowup):
            langevin_ensemble(cfg, 1)

    def test_blowup_names_its_time(self):
        """A blow-up carries t, the time of the state that the failing step
        makes: here the 15th step's, whose force overflows."""
        cfg = LangevinConfig(
            potential=PotentialSpec.cubic(5.0), dt=0.1, n_steps=400, initial=GaussianCloud(-3.0)
        )
        x, v = np.array([-3.0]), np.array([0.0])
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
            for k in range(1, 401):
                x, v = langevin_step(x, v, cfg, np.zeros(1))
        assert k == 15
        with pytest.raises(NumericalBlowup) as caught:
            langevin_ensemble(cfg, 0)
        assert caught.value.t == 0.1 * 15

    def test_last_block_overflow_is_blowup(self):
        """An overflow in the moments of the last, partial record block is a
        NumericalBlowup, as in a full block, at the first state whose moments
        overflow: var_x of this unstable run first overflows at step 185, past
        the first block of 2**15 // 200 = 163 rows."""
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0), dt=3.0, n_steps=185, n_particles=200,
            initial=GaussianCloud(1.0, 0.0, 0.1, 0.0),
        )
        assert np.isfinite(langevin_ensemble(replace(cfg, n_steps=180), 0).var_x).all()
        with pytest.raises(NumericalBlowup) as caught:
            langevin_ensemble(cfg, 0)
        assert caught.value.t == 3.0 * 185

    def test_block_overflow_names_first_failing_state(self):
        """A block whose moments overflow is reduced row by row, so the blow-up
        names the first state whose moments overflow, not the block's last,
        and leaks no numpy warning: var_x of this run first overflows at step
        186 (n_steps = 185 runs clean), inside one 201-row block."""
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0), dt=3.0, n_steps=200, n_particles=2,
            initial=GaussianCloud(1.0, 0.0, 0.1, 0.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(langevin_ensemble(replace(cfg, n_steps=185), 0).var_x).all()
            with pytest.raises(NumericalBlowup) as caught:
                langevin_ensemble(cfg, 0)
        assert caught.value.t == 3.0 * 186

    def test_equipartition(self):
        """Free particle with white noise thermalizes to <v^2> = T/m."""
        cfg = LangevinConfig(
            potential=PotentialSpec.free(),
            friction=1.0,
            noise=NoiseSpec(kind="white", temperature=1.0),
            dt=0.01,
            n_steps=4000,
            n_particles=2000,
        )
        ens = langevin_ensemble(cfg, 3, keep_particles=True)
        v2 = (ens.velocities[:, 2000:] ** 2).mean()
        assert v2 == pytest.approx(1.0, rel=0.02)

    def test_boltzmann_under_nonlinear_coupling(self):
        """The Markov oracle relaxes to exp(-(p^2/2m + V)/T) with x^2 coupling,
        whose friction alpha f'^2 = 4 alpha x^2 and noise f' xi = 2x xi the
        fluctuation-dissipation relation ties: harmonic V (omega = m = 1) at
        T = 0.5 gives <x^2> = <p^2> = T. The cloud starts at its Boltzmann
        spread, and the moments are averaged over the second half of t = 30.
        Over 24 seeds these averages spread by 0.0088 (<x^2>) and 0.0047 (<p^2>),
        mean 0.5003 and 0.5034 (dt bias); each gate is about 5 of these. A
        friction alpha |f'| in place of alpha f'^2 reads <x^2> = 0.67-0.69."""
        T, n_p, n_steps = 0.5, 2000, 3000
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.power(2),
            friction=1.0,
            noise=NoiseSpec(kind="white", temperature=T),
            dt=0.01,
            n_steps=n_steps,
            n_particles=n_p,
            initial=GaussianCloud(0.0, 0.0, np.sqrt(T), np.sqrt(T)),
        )
        ens = langevin_ensemble(cfg, 1)
        late = slice(n_steps // 2, None)
        x2 = (ens.var_x + ens.mean_x**2)[late].mean()
        p2 = (ens.stderr_p**2 * (n_p - 1) + ens.mean_p**2)[late].mean()   # stderr_p has ddof 1
        assert abs(x2 - T) < 0.045, x2
        assert abs(p2 - T) < 0.025, p2

    def test_linear_coupling_paths_bitwise_equal(self):
        """f(x)=x and f(x)=x^1 must drive identical additive dynamics."""
        a = langevin_ensemble(
            harmonic_cfg(friction=0.3, coupling=CouplingFunction.linear()), 5
        )
        b = langevin_ensemble(
            harmonic_cfg(friction=0.3, coupling=CouplingFunction.power(1)), 5
        )
        assert np.array_equal(a.mean_x, b.mean_x)

    def test_strong_convergence_with_common_noise(self):
        """Pathwise dt-refinement against a common noise realization."""
        rng = np.random.default_rng(17)
        T, alpha, dt_fine = 0.05, 0.5, 0.0005
        n_fine = 2000
        xi_fine = rng.normal(0.0, np.sqrt(2 * alpha * T / dt_fine), n_fine)

        def integrate(dt, xi):
            cfg = harmonic_cfg(friction=alpha, dt=dt, n_steps=1)
            x, v = 1.0, 0.0
            for x_n in xi:
                x, v = langevin_step(x, v, cfg, x_n)
            return x

        ref = integrate(dt_fine, xi_fine)
        # block-averaged noise preserves the integrated force
        errs = []
        for factor in (8, 4):
            xi = xi_fine.reshape(-1, factor).mean(axis=1)
            errs.append(abs(integrate(dt_fine * factor, xi) - ref))
        # strong order >= 1/2: halving dt shrinks the error by >= sqrt(2)
        assert errs[1] < errs[0] / np.sqrt(2)


class TestGle:
    def test_blowup_detected(self):
        """The memory-kernel path stops at its first overflow, as the Markovian one does."""
        cfg = LangevinConfig(
            potential=PotentialSpec.double_well(1.0, 1.0),
            dt=10.0,
            n_steps=50,
            n_particles=2,
            initial=GaussianCloud(3.0, 0.0, 0.1, 0.1),
            memory=discretize_ohmic(OhmicSpec(0.1, 20.0, 10, 0.0)),
        )
        with pytest.raises(NumericalBlowup):
            langevin_ensemble(cfg, 1)

    def test_zero_kernel_conservative(self):
        bath = BathSpec(
            masses=np.array([1.0]),
            frequencies=np.array([1.0]),
            couplings=np.array([0.0]),
            system_mass=1.0,
        )
        # dt small enough that the Verlet shadow-energy oscillation
        # (O(dt^2)) sits below the gate
        cfg = harmonic_cfg(memory=bath, dt=1e-4, n_steps=5000)
        ens = langevin_ensemble(cfg, 0, keep_particles=True)
        e = 0.5 * ens.velocities[0] ** 2 + 0.5 * ens.positions[0] ** 2
        assert np.abs(e - e[0]).max() < 1e-8 * e[0]

    def test_two_body_oracle(self):
        """One explicit oscillator: the memory form must reproduce the
        exactly integrated two-body dynamics."""
        m, m1, w1, d1 = 1.0, 1.0, 3.0, 0.8
        bath = BathSpec(
            masses=np.array([m1]),
            frequencies=np.array([w1]),
            couplings=np.array([d1]),
            system_mass=m,
        )
        dt, n = 0.001, 3000
        cfg = harmonic_cfg(memory=bath, dt=dt, n_steps=n)
        ens = langevin_ensemble(cfg, 0, keep_particles=True)

        # direct two-body integration (system + oscillator + counter-term)
        # with a tiny RK4 step as the reference
        def deriv(s):
            x, v, q, p = s
            # interaction (with counter-term): (m1 w1^2/2)(q - d1 x/(m1 w1^2))^2
            stretch = q - d1 * x / (m1 * w1**2)
            ax = (-x + d1 * stretch) / m
            return np.array([v, ax, p / m1, -(m1 * w1**2) * stretch])

        s = np.array([1.0, 0.0, d1 * 1.0 / (m1 * w1**2), 0.0])
        h = dt / 4
        xs = [s[0]]
        for i in range(4 * n):
            k1 = deriv(s)
            k2 = deriv(s + h / 2 * k1)
            k3 = deriv(s + h / 2 * k2)
            k4 = deriv(s + h * k3)
            s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if (i + 1) % 4 == 0:
                xs.append(s[0])
        assert np.abs(ens.positions[0] - np.array(xs)).max() < 1e-4

    def test_markovian_limit(self):
        """A stiff Ohmic kernel reproduces the local-friction dynamics."""
        alpha = 0.4
        bath = discretize_ohmic(OhmicSpec(alpha, 200.0, 4000, 0.0), 1.0)
        cfg_mem = harmonic_cfg(memory=bath, dt=0.002, n_steps=4000)
        # kernel mass is alpha, split evenly around t=0: the one-sided
        # memory integral sees alpha/2... the discretized kernel at large
        # cutoff acts as 2*alpha*delta(t), integrated one-sidedly -> alpha
        ens_mem = langevin_ensemble(cfg_mem, 0)
        cfg_mk = harmonic_cfg(friction=alpha, dt=0.002, n_steps=4000)
        ens_mk = langevin_ensemble(cfg_mk, 0)
        assert np.abs(ens_mem.mean_x - ens_mk.mean_x).max() < 0.02

    @settings(max_examples=40, deadline=None)
    @given(
        oscillators=st.lists(
            st.tuples(
                st.floats(0.5, 2.0),                           # m_i
                st.floats(0.2, 5.0),                           # omega_i
                st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),  # d_i
            ),
            min_size=1,
            max_size=5,
        ),
        mass=st.floats(0.5, 2.0),
        n_particles=st.integers(1, 4),
        n_steps=st.integers(20, 200),
        dt=st.sampled_from([0.005, 0.01, 0.02]),
        coupling=st.sampled_from(["linear", "sinusoidal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_history_trapezoid(
        self, oscillators, mass, n_particles, n_steps, dt, coupling, seed
    ):
        """The buffered rows and folded sums give the untruncated O(n^2) trapezoid
        history sum."""
        assert_matches_history_trapezoid(
            oscillators, mass, n_particles, n_steps, dt, coupling, seed
        )

    @pytest.mark.parametrize("n_particles", [1, 3])
    @pytest.mark.parametrize(
        "n_steps",
        [MEMORY_BLOCK - 1, MEMORY_BLOCK, MEMORY_BLOCK + 1, 3 * MEMORY_BLOCK + 2],
    )
    def test_matches_history_trapezoid_at_fold_edges(self, n_steps, n_particles):
        """Runs that stop just before, at and after a fold of the w buffer
        into the sums, and after three folds."""
        oscillators = [(1.0, 0.7, 0.9), (0.6, 2.3, -1.2), (1.8, 4.1, 0.5)]
        assert_matches_history_trapezoid(
            oscillators, 1.3, n_particles, n_steps, 0.02, "sinusoidal", 2024
        )

    @pytest.mark.parametrize(
        "kw",
        [dict(friction=0.4), dict(noise=NoiseSpec("white", 0.5))],
        ids=["friction", "white_noise"],
    )
    def test_rejects_what_it_would_ignore(self, kw):
        """GleIntegrator reads no friction, so these runs were the frictionless,
        noiseless run bit for bit."""
        bath = discretize_ohmic(OhmicSpec(0.4, 20.0, 10, 0.0), 1.0)
        with pytest.raises(ConfigError, match="zero or bath noise and no friction"):
            harmonic_cfg(memory=bath, **kw)

    def test_needs_a_memory_kernel(self):
        with pytest.raises(ConfigError, match="needs config.memory"):
            GleIntegrator(LangevinConfig(), 0.0, 0.0)


def assert_matches_history_trapezoid(
    oscillators, mass, n_particles, n_steps, dt, coupling, seed
):
    """GleIntegrator's state after n_steps random kicks, against the O(n^2) sum."""
    m_i, w_i, d_i = (np.array(a) for a in zip(*oscillators))
    bath = BathSpec(m_i, w_i, d_i, system_mass=mass)
    f = {
        "linear": CouplingFunction.linear(),
        "sinusoidal": CouplingFunction.sinusoidal(1.3, 0.8),
    }[coupling]
    cfg = harmonic_cfg(
        params=PhysicalParams(mass=mass), coupling=f, memory=bath, dt=dt
    )
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, n_particles)
    v0 = rng.uniform(-1.0, 1.0, n_particles)
    xi = rng.normal(0.0, 0.5, (n_steps, n_particles))

    gle = GleIntegrator(cfg, x0, v0)
    for xi_n in xi:
        x, v = gle.step(xi_n)

    # reference: the whole history of w = f'(x) v, re-summed every step
    kernel = memory_kernel(bath, dt * np.arange(n_steps + 1))
    xr, vr = x0.copy(), v0.copy()
    history = [f(xr, 1) * vr]

    def memory_sum(upto, endpoint):
        total = np.zeros(n_particles)
        if upto == 0:
            return total
        for j in range(upto + 1 if endpoint else upto):
            weight = 0.5 * dt if j in (0, upto) else dt
            total = total + weight * kernel[upto - j] * history[j]
        return total

    vprime = cfg.potential
    for n, xi_n in enumerate(xi):
        fp = f(xr, 1)
        force = -vprime(xr, 1) + fp * xi_n - mass * fp * memory_sum(n, True)
        v_half = vr + 0.5 * dt * force / mass
        xr = xr + dt * v_half
        fp_new = f(xr, 1)
        force_known = (
            -vprime(xr, 1) + fp_new * xi_n - mass * fp_new * memory_sum(n + 1, False)
        )
        vr = (v_half + 0.5 * dt * force_known / mass) / (
            1.0 + 0.25 * dt**2 * kernel[0] * fp_new**2
        )
        history.append(fp_new * vr)

    np.testing.assert_allclose(x, xr, rtol=1e-12, atol=1e-12 * np.abs(xr).max())
    np.testing.assert_allclose(v, vr, rtol=1e-12, atol=1e-12 * np.abs(vr).max())


class TestEnsemble:
    def test_single_particle_matches_step_loop(self):
        cfg = harmonic_cfg(friction=0.2, n_steps=200)
        ens = langevin_ensemble(cfg, 0)
        x, v = 1.0, 0.0
        xs = [x]
        for _ in range(200):
            x, v = langevin_step(x, v, cfg, 0.0)
            xs.append(float(np.asarray(x)))
        assert np.allclose(ens.mean_x, xs, atol=1e-12)

    def test_zero_spread_cloud_is_deterministic(self):
        cfg = harmonic_cfg(friction=0.1, n_particles=7)
        ens = langevin_ensemble(cfg, 4)
        assert np.all(ens.var_x < 1e-25)

    @pytest.mark.parametrize(
        "args, named",
        [((np.nan, 0.0, 1.0, 1.0), "x0"), ((0.0, np.inf, 1.0, 1.0), "p0"),
         ((0.0, 0.0, np.nan, 1.0), "sigma_x"), ((0.0, 0.0, 1.0, -1.0), "sigma_p")],
    )
    def test_cloud_rejects_bad_values(self, args, named):
        with pytest.raises(ConfigError, match=named):
            GaussianCloud(*args)

    def test_gibbs_variance(self):
        """Thermal harmonic ensemble: var_x -> T / (m w^2)."""
        T = 0.5
        cfg = harmonic_cfg(
            friction=1.0,
            noise=NoiseSpec(kind="white", temperature=T),
            dt=0.01,
            n_steps=3000,
            n_particles=3000,
            initial=GaussianCloud(0.0, 0.0, np.sqrt(T), np.sqrt(T)),
        )
        ens = langevin_ensemble(cfg, 11)
        late = ens.var_x[1500:]
        stderr = late.std() / np.sqrt(late.size) + T * np.sqrt(2.0 / 3000)
        assert abs(late.mean() - T) < 3 * stderr

    def test_determinism(self):
        cfg = harmonic_cfg(
            friction=0.3,
            noise=NoiseSpec(kind="white", temperature=0.2),
            n_particles=50,
        )
        a = langevin_ensemble(cfg, 9)
        b = langevin_ensemble(cfg, 9)
        assert np.array_equal(a.mean_x, b.mean_x)
        assert np.array_equal(a.var_x, b.var_x)

    def test_particle_noise_streams(self):
        """Particle p draws its white noise in one call from default_rng of
        the p-th child of SeedSequence(seed)."""
        alpha, T, dt, n, n_p, seed = 0.3, 0.2, 0.005, 40, 5, 9
        cfg = harmonic_cfg(
            friction=alpha,
            noise=NoiseSpec(kind="white", temperature=T),
            dt=dt,
            n_steps=n,
            n_particles=n_p,
            initial=GaussianCloud(1.0, 0.0, 0.1, 0.1),
        )
        ens = langevin_ensemble(cfg, seed, keep_particles=True)
        sigma = np.sqrt(2.0 * 1.0 * alpha * T / dt)
        xi = np.empty((n_p, n))
        for p, child in enumerate(np.random.SeedSequence(seed).spawn(n_p)):
            xi[p] = sigma * np.random.default_rng(child).standard_normal(n)
        x, v = ens.positions[:, 0], ens.velocities[:, 0]
        for i in range(n):
            x, v = langevin_step(x, v, cfg, xi[:, i])
            assert np.array_equal(ens.positions[:, i + 1], x)
            assert np.array_equal(ens.velocities[:, i + 1], v)

    def test_zero_noise_spawns_no_streams(self, monkeypatch):
        """Zero noise reads no stream, so no child seed is built, and the
        particles follow langevin_step with xi = 0 bit for bit."""
        calls = []

        def counted(seed, n):
            calls.append((seed, n))
            return spawn_seeds(seed, n)

        monkeypatch.setattr("gsle.classical.spawn_seeds", counted)
        white = harmonic_cfg(friction=0.3, noise=NoiseSpec(kind="white", temperature=0.2))
        langevin_ensemble(white, 3)
        assert calls == [(3, 1)]    # the patch reaches the seeding of a noisy run
        n, n_p = 40, 6
        cfg = harmonic_cfg(
            friction=0.3, n_steps=n, n_particles=n_p, initial=GaussianCloud(1.0, 0.0, 0.1, 0.1)
        )
        ens = langevin_ensemble(cfg, 3, keep_particles=True)
        assert calls == [(3, 1)]
        x, v = ens.positions[:, 0], ens.velocities[:, 0]
        for i in range(n):
            x, v = langevin_step(x, v, cfg, np.zeros(n_p))
            assert np.array_equal(ens.positions[:, i + 1], x)
            assert np.array_equal(ens.velocities[:, i + 1], v)

    @pytest.mark.parametrize("kind", ["zero", "white", "bath"])
    @pytest.mark.parametrize("n_p", [1, 2, 7, 5000])
    def test_block_moments_match_step_loop(self, n_p, kind):
        """The moments of each record block are those of a per-step read, bit
        for bit, in runs that cross a noise slab and a record block."""
        m = 1.5
        n_steps = max(RECORD_BLOCK_ELEMENTS // n_p, NOISE_BLOCK_STEPS) + 5
        bath = discretize_ohmic(OhmicSpec(0.3, 10.0, 8, 0.3), m)
        cfg = harmonic_cfg(
            params=PhysicalParams(mass=m),
            friction=0.3,
            noise=NoiseSpec(kind, 0.3, bath=bath if kind == "bath" else None),
            dt=0.01,
            n_steps=n_steps,
            n_particles=n_p,
            initial=GaussianCloud(1.0, 0.0, 0.1, 0.1),
        )
        kept = langevin_ensemble(cfg, 6, keep_particles=True)
        seeds = range(n_p) if kind == "zero" else np.random.SeedSequence(6).spawn(n_p)
        xi = noise_array(cfg.noise, cfg.friction, m, cfg.dt, n_steps, seeds)
        x, v = kept.positions[:, 0], kept.velocities[:, 0]
        se = lambda a: a.std(ddof=1) / np.sqrt(n_p) if n_p > 1 else 0.0
        want = {name: np.empty(n_steps + 1) for name in MOMENTS}
        for i in range(n_steps + 1):
            if i:
                x, v = langevin_step(x, v, cfg, xi[:, i - 1])
                assert np.array_equal(kept.positions[:, i], x)
                assert np.array_equal(kept.velocities[:, i], v)
            p = m * v
            for name, value in zip(MOMENTS, (x.mean(), p.mean(), x.var(), se(x), se(p))):
                want[name][i] = value
        for ens in (kept, langevin_ensemble(cfg, 6)):
            for name in MOMENTS:
                np.testing.assert_array_equal(getattr(ens, name), want[name], err_msg=name)

    def test_validation(self):
        with pytest.raises(ConfigError):
            harmonic_cfg(dt=-0.1)
        with pytest.raises(ConfigError):
            harmonic_cfg(n_particles=0)

    @pytest.mark.parametrize(
        "kw, named",
        [(dict(friction=-0.5), "friction"), (dict(friction=np.nan), "friction"),
         (dict(dt=np.nan), "dt"), (dict(dt=np.inf), "dt"), (dict(n_steps=0), "n_steps")],
        ids=["negative_friction", "nan_friction", "nan_dt", "inf_dt", "zero_steps"],
    )
    def test_rejects_bad_numbers(self, kw, named):
        with pytest.raises(ConfigError, match=named):
            harmonic_cfg(**kw)
