"""Split-step propagation: accuracy, conservation laws, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsle.bath import OhmicSpec, sample_bath_noise, white_noise
from gsle.coupling import CouplingFunction
from gsle.errors import (
    ConfigError,
    InsufficientData,
    NumericalBlowup,
    StabilityWarning,
)
from gsle.evolve import (
    GaussianPacket,
    HarmonicEigenstate,
    NoiseSpec,
    SimConfig,
    SimState,
    _Workspace,
    build_initial_state,
    ehrenfest_residual,
    run,
    step,
)
from gsle.fields import Grid, PhysicalParams, RealField, WaveFunction, observables
from gsle.potentials import PotentialSpec

GRID = Grid(-20.0, 20.0, 512)
GROUND_SIGMA = np.sqrt(0.5)


def harmonic_config(**kw):
    base = dict(
        grid=GRID,
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.linear(),
        dt=0.005,
        n_steps=1000,
        initial_state=GaussianPacket(2.0, 0.0, GROUND_SIGMA),
    )
    base.update(kw)
    return SimConfig(**base)


class TestInitialStates:
    def test_gaussian_normalized(self):
        from gsle.fields import integrate_values

        psi = build_initial_state(harmonic_config())
        assert integrate_values(GRID, psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_energy(self):
        from gsle.fields import RealField, observables

        cfg = harmonic_config(initial_state=HarmonicEigenstate(2, 1.0))
        psi = build_initial_state(cfg)
        V = RealField(GRID, 0.5 * GRID.x**2)
        obs = observables(psi, V, PhysicalParams())
        assert obs.energy == pytest.approx(2.5, abs=1e-8)


class TestConfigValidation:
    def test_dt_positive(self):
        with pytest.raises(ConfigError):
            harmonic_config(dt=-1.0)

    def test_bad_sign(self):
        with pytest.raises(ConfigError):
            harmonic_config(sign="flipped")

    def test_bad_noise_kind(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="pink")

    def test_negative_friction(self):
        with pytest.raises(ConfigError):
            harmonic_config(friction=-0.5)

    @pytest.mark.parametrize("key", ["friction", "kappa"])
    def test_nan_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            harmonic_config(**{key: np.nan})
        with pytest.raises(ConfigError, match="temperature"):
            NoiseSpec(kind="white", temperature=np.nan)


class TestConservativeDynamics:
    def test_coherent_state_period(self):
        """A displaced ground state returns to x0 after one period."""
        period = 2 * np.pi
        n = 2000
        cfg = harmonic_config(dt=period / n, n_steps=n)
        rec = run(cfg)
        assert rec.mean_x[-1] == pytest.approx(2.0, abs=1e-4)
        assert abs(rec.norm[-1] - 1.0) < 1e-10

    def test_free_packet_spreading(self):
        cfg = SimConfig(
            grid=GRID,
            potential=PotentialSpec.free(),
            dt=0.001,
            n_steps=1000,
            initial_state=GaussianPacket(0.0, 0.0, 1.0),
        )
        rec = run(cfg)
        # var(t) = sigma^2 + (hbar t / 2 m sigma)^2
        assert rec.var_x[-1] == pytest.approx(1.25, abs=1e-4)

    def test_energy_drift_unitary(self):
        # the splitting error is a bounded O(dt^2) oscillation, not a
        # secular drift; dt is chosen so that bound sits under the gate
        cfg = harmonic_config(dt=1e-4, n_steps=10_000)
        rec = run(cfg)
        drift = np.abs(rec.energy - rec.energy[0]).max()
        assert drift < 1e-8 * abs(rec.energy[0])

    def test_identity_limit(self):
        cfg = harmonic_config(dt=1e-8, n_steps=1)
        rec = run(cfg)
        assert rec.mean_x[-1] == pytest.approx(rec.mean_x[0], abs=1e-7)
        assert rec.energy[-1] == pytest.approx(rec.energy[0], abs=1e-7)

    def test_gauge_shift_of_potential(self):
        """Adding a constant to V changes no recorded observable."""
        x = GRID.x
        v0 = PotentialSpec.tabulated(
            np.linspace(-21, 21, 1024), 0.5 * np.linspace(-21, 21, 1024) ** 2
        )
        rec_a = run(harmonic_config(n_steps=200))
        shifted = PotentialSpec.tabulated(
            np.linspace(-21, 21, 1024),
            0.5 * np.linspace(-21, 21, 1024) ** 2 + 7.5,
        )
        rec_b = run(harmonic_config(n_steps=200, potential=shifted))
        assert np.abs(rec_a.mean_x - rec_b.mean_x).max() < 1e-10
        assert np.abs(rec_a.var_x - rec_b.var_x).max() < 1e-10
        assert np.abs(rec_a.norm - rec_b.norm).max() < 1e-10
        # energy shifts by exactly the constant
        assert np.abs((rec_b.energy - rec_a.energy) - 7.5).max() < 1e-8


class TestSelfConvergence:
    def test_second_order_in_dt(self):
        """Observable error against a fine-dt reference scales as dt^2."""
        f = CouplingFunction.sinusoidal(1.0, 1.0)

        def final_x(dt, n):
            cfg = harmonic_config(dt=dt, n_steps=n, friction=0.3, coupling=f)
            return run(cfg).mean_x[-1]

        ref = final_x(0.00125, 1600)
        e1 = abs(final_x(0.01, 200) - ref)
        e2 = abs(final_x(0.005, 400) - ref)
        assert e2 < e1 / 3.0


class TestDeterminismAndDiagnostics:
    def test_bit_identical_reruns(self):
        cfg = harmonic_config(
            friction=0.1,
            noise=NoiseSpec(kind="white", temperature=0.1),
            seed=77,
            n_steps=300,
        )
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.mean_x, b.mean_x)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.norm, b.norm)

    def test_seed_matters(self):
        kw = dict(
            friction=0.1,
            noise=NoiseSpec(kind="white", temperature=0.1),
            n_steps=300,
        )
        a = run(harmonic_config(seed=1, **kw))
        b = run(harmonic_config(seed=2, **kw))
        assert not np.array_equal(a.mean_x, b.mean_x)

    def test_stability_warning(self):
        cfg = harmonic_config(dt=0.02, n_steps=2)
        with pytest.warns(StabilityWarning):
            run(cfg)

    def test_boundary_contamination_recorded(self):
        cfg = SimConfig(
            grid=Grid(-10.0, 10.0, 256),
            potential=PotentialSpec.free(),
            dt=0.01,
            n_steps=800,
            initial_state=GaussianPacket(0.0, 8.0, 1.0),
        )
        rec = run(cfg)
        assert any("boundary" in w.lower() for w in rec.warnings)

    def test_snapshots_at_stride(self):
        cfg = harmonic_config(n_steps=100, snapshot_stride=25)
        rec = run(cfg)
        assert [s for s, _ in rec.snapshots] == [0, 25, 50, 75, 100]

    def test_measurement_underflow_is_blowup(self):
        """A kappa*dt that underflows every rho*factor^2 raises NumericalBlowup
        carrying the observables of the last recorded step."""
        cfg = harmonic_config(
            dt=0.1, n_steps=40, kappa=3000.0, initial_state=GaussianPacket()
        )
        with pytest.raises(NumericalBlowup) as info:
            run(cfg)
        assert info.value.last_observables["t"] == 0.2


COUPLINGS = {
    "linear": CouplingFunction.linear(),
    "sinusoidal": CouplingFunction.sinusoidal(1.0, 1.0),
    "power2": CouplingFunction.power(2),
}


class TestRealPotentialProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0.0, 2.0 * np.pi),
        friction=st.floats(0.01, 2.0),
        coupling=st.sampled_from(sorted(COUPLINGS)),
    )
    def test_global_phase_invariance(self, theta, friction, coupling):
        """V_d - W and W are unchanged by psi -> exp(i theta) psi.

        With a free potential and zero noise U is exactly V_d - W, so the
        comparison is relative to the nonlinear term alone.
        """
        cfg = harmonic_config(
            potential=PotentialSpec.free(),
            friction=friction,
            coupling=COUPLINGS[coupling],
            initial_state=GaussianPacket(0.5, 0.9, 1.2),
        )
        ws = _Workspace(cfg)
        vals = build_initial_state(cfg).values
        u0, w0 = ws.real_potential(vals, 0.0)
        u1, w1 = ws.real_potential(np.exp(1j * theta) * vals, 0.0)
        scale = np.abs(u0).max()
        assert np.abs(u1 - u0).max() <= 1e-10 * scale
        assert abs(w1 - w0) <= 1e-10 * scale


PROPERTY_COUPLINGS = {**COUPLINGS, "constant": CouplingFunction.constant(1.0)}


class TestRunProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        coupling=st.sampled_from(sorted(PROPERTY_COUPLINGS)),
        kappa=st.floats(0.0, 0.2),
        friction=st.floats(0.0, 0.3),
        noise=st.sampled_from(["zero", "white"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_norm_conserved_and_reruns_identical(self, coupling, kappa, friction, noise, seed):
        """U is real and the measurement kick restores the pre-kick norm, so
        the norm holds to rounding; a (config, seed) run is deterministic in
        every recorded column."""
        cfg = SimConfig(
            grid=Grid(-10.0, 10.0, 128),
            potential=PotentialSpec.harmonic(1.0),
            coupling=PROPERTY_COUPLINGS[coupling],
            friction=friction,
            kappa=kappa,
            noise=NoiseSpec(kind=noise, temperature=0.1 if noise == "white" else 0.0),
            dt=0.005,
            n_steps=50,
            seed=seed,
            initial_state=GaussianPacket(1.0, 0.5, GROUND_SIGMA),
        )
        a, b = run(cfg), run(cfg)
        assert np.abs(a.norm - 1.0).max() < 1e-12
        for name in RECORDED:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestEhrenfestResidual:
    def test_conservative_closure(self):
        """Frictionless harmonic run: the mean obeys Newton exactly."""
        cfg = harmonic_config(dt=0.002, n_steps=2000, snapshot_stride=20)
        rec = run(cfg)
        r = ehrenfest_residual(rec, cfg)
        # max|<V'>| ~ m w^2 * amplitude = 2
        assert np.abs(r).max() < 1e-4 * 2.0

    def test_too_few_samples(self):
        cfg = harmonic_config(n_steps=40, snapshot_stride=20)
        rec = run(cfg)
        rec.snapshots = rec.snapshots[:1]   # boundary snapshot only
        with pytest.raises(InsufficientData):
            ehrenfest_residual(rec, cfg)

    def test_damped_closure(self):
        cfg = harmonic_config(
            dt=0.002,
            n_steps=2000,
            friction=0.2,
            snapshot_stride=20,
        )
        rec = run(cfg)
        r = ehrenfest_residual(rec, cfg)
        assert np.abs(r).max() < 1e-3 * 2.0


RECORDED = ("norm", "mean_x", "mean_p", "var_x", "energy", "W", "xi")
# worst |W(batch row) - W(alone)| measured over batches of 2..40 members on
# the config of test_rows_match_single_runs: 5.4e-11
W_BOUND = 1e-9


def unbatched_run(cfg):
    """The single-state loop: (N,) states, scalar noise values, 1-D observables."""
    n, mass = cfg.n_steps, cfg.params.mass
    if cfg.noise.kind == "white":
        xi = white_noise(cfg.friction, cfg.noise.temperature, mass, cfg.dt, n, cfg.seed).values
    elif cfg.noise.kind == "bath":
        times = cfg.dt * np.arange(n)
        xi = sample_bath_noise(cfg.noise.bath_spec(mass), cfg.noise.temperature, times, cfg.seed).values
    else:
        xi = np.zeros(n)
    ws = _Workspace(cfg)
    v_field = RealField(cfg.grid, ws.V)
    state = SimState(0.0, build_initial_state(cfg))
    out = {name: np.empty(n + 1) for name in RECORDED}
    for i in range(n + 1):
        if i > 0:
            state = step(state, cfg, xi[i - 1], ws)
        xi_i = xi[min(i, n - 1)]
        obs = observables(state.psi, v_field, cfg.params, state.spectrum)
        for name in ("norm", "mean_x", "mean_p", "var_x", "energy"):
            out[name][i] = getattr(obs, name)
        out["W"][i] = ws.real_potential(state.psi.values, xi_i, state.spectrum)[1]
        out["xi"][i] = xi_i
    return out


BATH = NoiseSpec(kind="bath", temperature=0.1, ohmic=OhmicSpec(0.1, 50.0, 200, 0.1))


class TestBatchedRun:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(friction=0.1, noise=NoiseSpec(kind="white", temperature=0.1),
                 coupling=CouplingFunction.sinusoidal(1.0, 1.0)),
            dict(friction=0.1, kappa=0.05, noise=BATH, coupling=CouplingFunction.sinusoidal(1.0, 1.0)),
            dict(friction=0.2, initial_state=HarmonicEigenstate(1, 1.0)),
        ],
        ids=["white", "bath_kappa", "eigenstate_nodes"],
    )
    def test_one_member_equals_unbatched_loop(self, kw):
        """B = 1 through the batch is bit for bit the (N,)-state loop."""
        cfg = harmonic_config(n_steps=150, seed=21, **kw)
        (rec,) = run(cfg, seeds=[cfg.seed])
        ref = unbatched_run(cfg)
        for name in RECORDED:
            assert np.array_equal(getattr(rec, name), ref[name]), name
        single = run(cfg)
        for name in RECORDED:
            assert np.array_equal(getattr(single, name), ref[name]), name

    @settings(max_examples=12, deadline=None)
    @given(
        n_members=st.integers(2, 40),
        first_seed=st.integers(0, 10_000),
        noise=st.sampled_from(["white", "bath"]),
        kappa=st.sampled_from([0.0, 0.05]),
    )
    def test_rows_match_single_runs(self, n_members, first_seed, noise, kappa):
        """Each row of a batch is the same seed run alone, up to last bits.

        numpy rounds some elementwise loops by memory alignment, and a batch
        draws its bath noise in one matrix product, so rows may differ from
        single runs in the last bits; W amplifies them by J/rho in the
        floored tails.
        """
        spec = NoiseSpec(kind="white", temperature=0.1) if noise == "white" else BATH
        cfg = SimConfig(
            grid=Grid(-12.0, 12.0, 256),
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            friction=0.1,
            kappa=kappa,
            noise=spec,
            dt=0.005,
            n_steps=40,
            initial_state=GaussianPacket(1.0, 0.0, GROUND_SIGMA),
        )
        seeds = range(first_seed, first_seed + n_members)
        batch = run(cfg, seeds=seeds)
        for seed, rec in zip(seeds, batch):
            alone = run(replace(cfg, seed=seed))
            assert rec.seed == seed
            for name in ("norm", "mean_x", "mean_p", "var_x", "energy", "xi"):
                np.testing.assert_allclose(
                    getattr(rec, name), getattr(alone, name), rtol=1e-12, atol=1e-15,
                    err_msg=name,
                )
            assert np.abs(rec.W - alone.W).max() <= W_BOUND

    def test_boundary_warning_per_member(self):
        cfg = SimConfig(
            grid=Grid(-10.0, 10.0, 256),
            potential=PotentialSpec.free(),
            dt=0.01,
            n_steps=800,
            noise=NoiseSpec(kind="white", temperature=0.1),
            friction=0.01,
            initial_state=GaussianPacket(0.0, 8.0, 1.0),
        )
        a, b = run(cfg, seeds=[1, 2])
        assert a.warnings and b.warnings
        assert a.warnings == run(replace(cfg, seed=1)).warnings


class TestCarriedSpectrum:
    CFG = dict(
        grid=Grid(-12.0, 12.0, 256),
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.sinusoidal(1.0, 1.0),
        friction=0.1,
        kappa=0.05,
        dt=0.005,
        initial_state=GaussianPacket(1.0, 0.5, GROUND_SIGMA),
    )

    @pytest.mark.parametrize("n_members", [0, 3], ids=["single", "batch"])
    def test_step_carries_spectrum_of_new_state(self, n_members):
        cfg = SimConfig(**self.CFG)
        ws = _Workspace(cfg)
        vals = build_initial_state(cfg).values
        xi = 0.3
        if n_members:
            vals = np.stack([vals * np.exp(0.2j * b * cfg.grid.x) for b in range(n_members)])
            xi = np.linspace(-0.3, 0.3, n_members)[:, None]
        state = SimState(0.0, WaveFunction(cfg.grid, vals))
        for _ in range(5):
            state = step(state, cfg, xi, ws)
            ref = np.fft.fft(state.psi.values)
            assert state.spectrum.shape == ref.shape
            assert np.abs(state.spectrum - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_fft_calls_per_step(self, monkeypatch):
        """After the first, every step and its record make 2 forward and 5 inverse FFTs."""
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)

        def count(n_steps):
            for name in calls:
                calls[name] = 0
            run(SimConfig(**self.CFG, n_steps=n_steps))
            return dict(calls)

        short, long = count(2), count(6)
        assert {name: (long[name] - short[name]) / 4 for name in calls} == {"fft": 2, "ifft": 5}
