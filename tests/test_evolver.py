"""Split-step propagation: accuracy, conservation laws, determinism."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import noise_array, real_potential_of
from gsle import potentials
from gsle import classical
from gsle.bath import BathSpec, OhmicSpec, discretize_ohmic
from gsle.classical import LangevinConfig, langevin_ensemble, langevin_step
from gsle.coupling import CouplingFunction
from gsle.errors import (
    ConfigError,
    InsufficientData,
    InvalidField,
    NumericalBlowup,
    StabilityWarning,
)
from gsle import evolve
from gsle.evolve import (
    BOUNDARY_DENSITY_LIMIT,
    STABILITY_LIMIT,
    GaussianPacket,
    HarmonicEigenstate,
    NoiseSpec,
    SimConfig,
    _Workspace,
    build_initial_state,
    ehrenfest_residual,
    run,
    step,
)
from gsle.fields import (
    RECORD_BLOCK_ELEMENTS,
    Grid,
    PhysicalParams,
    WaveFunction,
    density_terms,
    integrate_values,
    observables,
)
from gsle.potentials import PotentialSpec, dissipative_slope, gauged_integral

GRID = Grid(-20.0, 20.0, 512)
GROUND_SIGMA = np.sqrt(0.5)
EXP_CUBE = lambda x: np.exp(x**3)   # overflows on part of GRID
# case -> (a call with one bad input, the ConfigError it raises)
BAD_INPUTS = {
    "coupling_value": (
        lambda: run(SimConfig(GRID, coupling=CouplingFunction((EXP_CUBE, np.ones_like,
                                                                np.zeros_like)), n_steps=2)),
        "coupling value or slope not finite",
    ),
    "coupling_slope": (
        lambda: run(SimConfig(GRID, coupling=CouplingFunction((np.zeros_like, EXP_CUBE,
                                                                np.zeros_like)),
                              friction=0.1, n_steps=2)),
        "coupling value or slope not finite",
    ),
    "initial_two_states": (
        lambda: run(SimConfig(GRID, initial_state=WaveFunction(GRID, np.ones((2, 512))))),
        "initial state \\(2, 512\\) on",
    ),
    "initial_one_row": (
        lambda: run(SimConfig(GRID, initial_state=WaveFunction(GRID, np.ones((1, 512))))),
        "initial state \\(1, 512\\) on",
    ),
    "initial_unknown": (
        lambda: run(SimConfig(GRID, initial_state="x")), "unsupported initial state 'x'",
    ),
    **{
        f"seed_{kind}": (
            lambda noise=noise: run(SimConfig(GRID, noise=noise, friction=0.1, seed=-1)),
            "seed must be an integer >= 0, got -1",
        )
        for kind, noise in [("zero", NoiseSpec()), ("white", NoiseSpec("white", 0.1)),
                            ("bath", NoiseSpec("bath", 0.1, discretize_ohmic(
                                OhmicSpec(0.1, 20.0, 10, 0.1))))]
    },
    "ensemble_seeds": (
        lambda: run(SimConfig(GRID), seeds=[-1, 2]), "seed must be an integer >= 0, got -1",
    ),
    "ensemble_seed_float": (
        lambda: run(SimConfig(GRID), seeds=[2, 1.5]), "seed must be an integer >= 0, got 1.5",
    ),
    "classical_seed_float": (
        lambda: langevin_ensemble(LangevinConfig(noise=NoiseSpec("white", 0.1)), 1.5),
        "seed must be an integer >= 0, got 1.5",
    ),
    **{
        f"classical_seed_{kind}": (
            lambda noise=noise: langevin_ensemble(
                LangevinConfig(friction=0.1, noise=noise, n_particles=2), -1
            ),
            "seed must be an integer >= 0, got -1",
        )
        for kind, noise in [("zero", NoiseSpec()), ("white", NoiseSpec("white", 0.1))]
    },
}


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
        psi = build_initial_state(harmonic_config())
        assert integrate_values(GRID, psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_is_hermite_polynomial_form(self):
        """The recurrence's eigenstate is H_n(xi) exp(-xi^2/2), normalized on the
        grid, to round-off for n <= 20."""
        omega = 1.3
        xi = np.sqrt(omega) * GRID.x
        for n in range(21):
            ref = np.polynomial.hermite.Hermite.basis(n)(xi) * np.exp(-0.5 * xi**2)
            ref /= np.sqrt(integrate_values(GRID, ref**2))
            psi = build_initial_state(harmonic_config(initial_state=HarmonicEigenstate(n, omega)))
            assert np.abs(psi.values - ref).max() < 1e-12, n

    def test_eigenstate_energy(self):
        from gsle.fields import observables

        cfg = harmonic_config(initial_state=HarmonicEigenstate(2, 1.0))
        psi = build_initial_state(cfg)
        V = 0.5 * GRID.x**2
        obs = observables(psi, V, PhysicalParams())
        assert obs["energy"] == pytest.approx(2.5, abs=1e-8)


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

    def test_bath_noise_needs_bath(self):
        """A bath kind without its BathSpec fails at construction."""
        with pytest.raises(ConfigError, match="BathSpec"):
            NoiseSpec(kind="bath", temperature=0.1)

    def test_negative_friction(self):
        with pytest.raises(ConfigError):
            harmonic_config(friction=-0.5)

    @pytest.mark.parametrize(
        "other", [Grid(-20.0, 20.0, 256), Grid(-10.0, 10.0, 128)], ids=["other_box", "other_size"]
    )
    def test_initial_state_on_another_grid(self, other):
        """A WaveFunction initial state must be on the run's grid: another box
        was re-gridded silently, another size failed inside run."""
        psi = WaveFunction(other, np.exp(-((other.x - 3.0) ** 2)))
        with pytest.raises(ConfigError, match="initial state"):
            SimConfig(Grid(-10.0, 10.0, 256), initial_state=psi)

    def test_non_finite_potential_fails_before_first_step(self, monkeypatch):
        """V = exp(x^3) overflows on part of the grid: SimConfig raises
        ConfigError, so no step runs, and no RuntimeWarning."""
        V = CouplingFunction((lambda x: np.exp(x**3), np.zeros_like, np.zeros_like))
        steps = []
        monkeypatch.setattr(evolve, "step", lambda *args: steps.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="potential value or slope not finite"):
                run(SimConfig(GRID, potential=V, n_steps=2))
        assert steps == []

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_fails_before_first_step(self, monkeypatch, case):
        """Each entry point rejects a bad input before it draws noise or steps,
        and no RuntimeWarning: SimConfig its profiles, initial state and seed,
        run and langevin_ensemble a negative or non-integer seed."""
        calls = []
        for module, name in [(evolve, "noise_rows"), (evolve, "step"), (classical, "noise_rows"),
                             (classical, "langevin_step"), (classical.GleIntegrator, "step")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=BAD_INPUTS[case][1]):
                BAD_INPUTS[case][0]()
        assert calls == []

    @pytest.mark.parametrize("build, error, named", [
        (lambda: Grid(-np.inf, 0.0, 8), ConfigError, "grid"),
        (lambda: OhmicSpec(np.inf, 50.0, 10, 0.1), ConfigError, "friction"),
        (lambda: OhmicSpec(0.1, np.inf, 10, 0.1), ConfigError, "cutoff"),
        (lambda: OhmicSpec(0.1, 50.0, 10, np.inf), ConfigError, "temperature"),
        (lambda: BathSpec([1.0], [1.0], [np.nan]), InvalidField, "finite"),
        (lambda: BathSpec([1.0], [np.inf], [1.0]), InvalidField, "finite"),
        (lambda: NoiseSpec("white", np.inf), ConfigError, "temperature"),
        (lambda: GaussianPacket(np.nan, 0.0, 1.0), ConfigError, "x0"),
        (lambda: GaussianPacket(0.0, np.inf, 1.0), ConfigError, "p0"),
    ], ids=["grid_x_min", "ohmic_friction", "ohmic_cutoff", "ohmic_temperature", "bath_coupling",
            "bath_frequency", "white_temperature", "packet_x0", "packet_p0"])
    def test_non_finite_spec_value_rejected(self, build, error, named):
        """A non-finite value fails at construction: a scalar with a ConfigError, a
        bath array with an InvalidField."""
        with pytest.raises(error, match=named):
            build()

    @pytest.mark.parametrize("build, named", [
        (lambda: SimConfig(GRID, n_steps=2.5), "n_steps"),
        (lambda: SimConfig(GRID, n_steps=2.0), "n_steps"),
        (lambda: SimConfig(GRID, snapshot_stride=1.5), "snapshot_stride"),
        (lambda: LangevinConfig(n_steps=2.5), "n_steps"),
        (lambda: LangevinConfig(n_particles=2.5), "n_particles"),
        (lambda: SimConfig(GRID, seed=1.5), "seed"),
        (lambda: HarmonicEigenstate(1.5), "index"),
        (lambda: Grid(-1.0, 1.0, 8.0), "n_points"),
        (lambda: OhmicSpec(0.1, 10.0, 2.5, 0.1), "n_oscillators"),
    ], ids=["sim_n_steps", "sim_n_steps_float", "sim_snapshot_stride", "langevin_n_steps",
            "langevin_n_particles", "sim_seed", "eigenstate_index", "grid_n_points",
            "ohmic_n_oscillators"])
    def test_count_must_be_integer(self, build, named):
        """A float count fails at construction with a ConfigError, under warnings
        as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"{named} must be an integer"):
                build()

    def test_numpy_integer_counts_accepted(self):
        SimConfig(GRID, n_steps=np.int64(2), snapshot_stride=np.int32(1), seed=np.int64(1))
        LangevinConfig(n_steps=np.int64(2), n_particles=np.int64(3))
        HarmonicEigenstate(np.int64(1))
        OhmicSpec(0.1, 10.0, np.int32(2), 0.1)
        Grid(-1.0, 1.0, np.int64(8))

    @pytest.mark.parametrize("key", ["friction", "kappa"])
    def test_nan_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            harmonic_config(**{key: np.nan})
        with pytest.raises(ConfigError, match="temperature"):
            NoiseSpec(kind="white", temperature=np.nan)

    @pytest.mark.parametrize("key", ["friction", "kappa"])
    def test_inf_rejected(self, key):
        """inf fails at construction, as dt does, not in the first step."""
        with pytest.raises(ConfigError, match=key):
            SimConfig(GRID, n_steps=2, **{key: np.inf})


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

    def test_sinusoidal_coupling_second_order_in_dt(self):
        """Successive differences of the final <x>, <p> and var_x shrink about
        fourfold as dt halves: the predicted midpoint U keeps the step second
        order under a nonlinear coupling."""
        def final(dt):
            cfg = SimConfig(
                grid=Grid(-12.0, 12.0, 256),
                potential=PotentialSpec.harmonic(1.0),
                coupling=CouplingFunction.sinusoidal(1.0, 1.0),
                friction=0.3,
                dt=dt,
                n_steps=round(4.0 / dt),
                initial_state=GaussianPacket(1.0, 0.5, 0.8),
            )
            rec = run(cfg)
            return np.array([rec.mean_x[-1], rec.mean_p[-1], rec.var_x[-1]])

        coarse, mid, fine = (final(dt) for dt in (0.02, 0.01, 0.005))
        assert (np.abs(coarse - mid) > 3.5 * np.abs(mid - fine)).all()


class TestPathwiseClassical:
    """With f = x and a harmonic V the packet's centre obeys the classical
    Langevin equation for the same noise row, so each member's <x> follows
    classical.langevin_step driven by that member's own rec.xi. Both
    integrators are second order, so the gap falls 4x when dt is halved."""

    @pytest.mark.parametrize("kind", ["zero", "white", "bath"])
    def test_members_follow_their_particles(self, kind):
        noise = {
            "zero": NoiseSpec(),
            "white": NoiseSpec(kind="white", temperature=0.5),
            "bath": NoiseSpec(
                kind="bath", temperature=0.5, bath=discretize_ohmic(OhmicSpec(0.1, 50.0, 200, 0.5))
            ),
        }[kind]
        gaps = []
        for dt in (0.01, 0.005):
            n = int(round(2.0 * np.pi / dt))
            cfg = harmonic_config(
                grid=Grid(-12.0, 12.0, 256), friction=0.1, noise=noise, dt=dt, n_steps=n,
                initial_state=GaussianPacket(1.0, 0.5, GROUND_SIGMA),
            )
            recs = run(cfg, seeds=[7, 8, 9])
            particle = LangevinConfig(
                potential=cfg.potential, coupling=cfg.coupling, friction=0.1, dt=dt, n_steps=n
            )
            xi = np.array([rec.xi for rec in recs])
            x, v = np.full(3, 1.0), np.full(3, 0.5)
            path = [x]
            for i in range(n):
                x, v = langevin_step(x, v, particle, xi[:, i])
                path.append(x)
            gaps.append(np.abs(np.array([rec.mean_x for rec in recs]) - np.array(path).T).max(axis=1))
        coarse, fine = gaps
        assert (coarse / fine > 3.5).all(), coarse / fine
        assert (fine < 5e-6).all(), fine


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

    def test_stability_warning_names_batch_members(self):
        """One StabilityWarning per call, formatted from the guard column: a
        single run's first value past the limit; a batch names each member
        whose guard passed it at any step."""
        cfg = SimConfig(
            grid=Grid(-8.0, 8.0, 128), potential=PotentialSpec.harmonic(1.0), friction=0.1,
            noise=NoiseSpec(kind="white", temperature=0.05), dt=0.01, n_steps=20,
        )

        def warned(config, seeds=None):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                recs = run(config, seeds)
            return recs, [str(w.message) for w in caught if w.category is StabilityWarning]

        recs, (text,) = warned(cfg, [1, 2, 3])
        peaks = [rec.stability_guard.max() for rec in recs]
        assert peaks[0] < STABILITY_LIMIT <= min(peaks[1:]), peaks
        assert text.endswith("; reduce dt (seeds 2, 3)")
        assert [len(rec.warnings) for rec in recs] == [0, 1, 1]
        alone, (text,) = warned(replace(cfg, seed=3))
        first = np.flatnonzero(alone.stability_guard >= STABILITY_LIMIT)[0]
        guard = alone.stability_guard[first]
        assert text == f"dt*max|U|/hbar = {guard:.3g} >= 0.5; reduce dt"
        assert alone.warnings == [
            f"StabilityWarning: dt*max|U|/hbar = {guard:.3g} >= 0.5 at t = {alone.times[first]:.6g}"
        ]

    def test_huge_guard_warns_in_one_short_line(self):
        """A huge but finite U warns once, in a line short enough for a terminal,
        with no numpy warning."""
        cfg = SimConfig(Grid(-10.0, 10.0, 64), potential=PotentialSpec.constant(1e300),
                        friction=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        (guard,) = [str(w.message) for w in caught if w.category is StabilityWarning]
        assert guard == "dt*max|U|/hbar = 5e+297 >= 0.5; reduce dt"
        assert len(guard) < 60

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
        carrying the observables of the last recorded step, which sits inside
        a record block: the per-step loop's, bit for bit, alone and in a batch."""
        cfg = harmonic_config(
            dt=0.1, n_steps=40, kappa=3000.0, initial_state=GaussianPacket()
        )
        for seeds in (None, [3, 4]):
            with pytest.raises(NumericalBlowup) as info:
                run(cfg, seeds)
            last = info.value.last_observables
            assert last["t"] == 0.2
            ref = unbatched_run(cfg, seeds)
            assert len(ref["t"]) == 3   # steps 0, 1 and 2 recorded, of a 41-state block
            for name in ("t", "norm", "mean_x", "energy"):
                assert np.array_equal(last[name], ref[name][-1]), name

    def test_measurement_underflow_with_friction_is_the_kicks_blowup(self):
        """With friction the step predicts U before its kick; a measurement
        factor that underflows every sample still stops the run with the
        kick's message, at the state of the failing step."""
        cfg = SimConfig(Grid(-40.0, 40.0, 512), friction=0.1, kappa=3000.0, dt=0.1, n_steps=5,
                        initial_state=GaussianPacket(sigma=5.0))
        with pytest.raises(NumericalBlowup, match="measurement kick underflowed") as info:
            run(cfg)
        assert info.value.t == 0.1

    def test_record_overflow_is_quiet_blowup(self):
        """A potential of 1.5e308 overflows the energy of every state: the run
        stops at t = 0, the first state whose record fails, without a numpy
        warning, and carries no observables, since no state was recorded
        cleanly (none with an inf)."""
        cfg = SimConfig(
            Grid(-10.0, 10.0, 64), potential=PotentialSpec.constant(1.5e308), n_steps=600
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", StabilityWarning)
            with pytest.raises(NumericalBlowup) as info:
                run(cfg)
        assert info.value.t == 0.0
        assert info.value.last_observables is None


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
        u0 = real_potential_of(ws, vals, 0.0)
        u1 = real_potential_of(ws, np.exp(1j * theta) * vals, 0.0)
        w0, w1 = (
            gauged_integral(cfg.grid, dissipative_slope(v, ws.vd_weight, ws.ik, floored), rho, norm)[1]
            for v in (vals, np.exp(1j * theta) * vals)
            for rho, floored, norm in [density_terms(cfg.grid, v)]
        )
        scale = np.abs(u0).max()
        assert np.abs(u1 - u0).max() <= 1e-10 * scale
        assert abs(w1 - w0) <= 1e-10 * scale

    @pytest.mark.parametrize("c", [-7.5, 3.0, 1e3])
    def test_constant_in_vd_cancels_against_w(self, monkeypatch, c):
        """Moving V_d's lower integration limit adds a constant c to V_d, and
        W = <V_d> gains the same c, so U is unchanged: alone and in a batch."""
        cfg = harmonic_config(
            grid=Grid(-12.0, 12.0, 256),
            friction=0.3,
            coupling=COUPLINGS["sinusoidal"],
            initial_state=GaussianPacket(0.5, 0.9, 1.2),
        )
        ws = _Workspace(cfg)
        vals = build_initial_state(cfg).values
        pair = np.stack([vals, vals * np.exp(0.4j * cfg.grid.x)])
        states = [(vals, 0.3), (pair, np.array([[0.3], [-0.2]]))]
        before = [real_potential_of(ws, v, xi).copy() for v, xi in states]
        shifted = potentials.cumulative_integral
        monkeypatch.setattr(potentials, "cumulative_integral", lambda *args: shifted(*args) + c)
        for (v, xi), u0 in zip(states, before):
            u = real_potential_of(ws, v, xi)
            assert np.abs(u - u0).max() <= 1e-14 * (abs(c) + np.abs(u0).max())


class TestPredictedPotential:
    @settings(max_examples=40, deadline=None)
    @given(
        coupling=st.sampled_from(sorted(COUPLINGS)),
        kappa=st.floats(0.0, 0.2),
        xi=st.floats(-1.0, 1.0),
        friction=st.floats(0.01, 1.0),
        packet=st.tuples(st.floats(-1.5, 1.5), st.floats(-2.0, 2.0), st.floats(0.5, 1.0)),
        batched=st.booleans(),
    )
    def test_matches_kicked_state(self, coupling, kappa, xi, friction, packet, batched):
        """The step's predicted U is the U of the half-kicked state's midpoint
        state, the kick of a dt/2 workspace by U, to 1e-8 of max|V_d - W| where
        rho > 1e-6 max rho, alone and in a batch. Each packet lies well inside
        the box: where a state's density at the periodic seam is above the
        density floor, the two routes part at O(dx^2)."""
        # V' = x and power2's f' = 2x cancel at xi = 0.5: near it the midpoint
        # current of a real packet, and so V_d - W, is round-off and sets no scale
        assume(coupling != "power2" or abs(xi - 0.5) > 1e-3)
        cfg = harmonic_config(
            grid=Grid(-12.0, 12.0, 512),
            coupling=COUPLINGS[coupling],
            friction=friction,
            kappa=kappa,
            dt=0.005,
            initial_state=GaussianPacket(*packet),
        )
        ws, half = _Workspace(cfg), _Workspace(replace(cfg, dt=cfg.dt / 2))
        vals, xi_n = build_initial_state(cfg).values, xi
        if batched:
            vals = np.stack([vals, np.conj(vals) * np.exp(0.5j * cfg.grid.x)])
            xi_n = np.array([[xi], [0.5 - xi]])
        rho, floored, norm = density_terms(cfg.grid, vals)
        slope = ws.vd_slope(vals, np.fft.fft(vals), floored)
        u = ws.real_potential(xi_n, slope, rho, norm)
        factor = ws.measurement_factor(rho, floored, norm)
        predicted = ws.real_potential(xi_n, *ws.predicted_slope(xi_n, slope, rho, floored, norm, factor))
        midpoint = half.apply_potential(vals, u, half.measurement_factor(rho, floored, norm))
        reference = real_potential_of(ws, midpoint, xi_n)
        nonlinear = reference - (ws.V - ws.f * xi_n)   # V_d - W at the midpoint
        support = rho > 1e-6 * rho.max(axis=-1, keepdims=True)
        scale = np.abs(nonlinear[support]).max()
        assert np.abs(predicted - reference)[support].max() <= 1e-8 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.01, 0.5),
        dt=st.floats(1e-3, 0.1),
        packet=st.tuples(st.floats(-1.5, 1.5), st.floats(-2.0, 2.0), st.floats(0.5, 1.0)),
    )
    def test_factor_is_half_kick_density_ratio(self, kappa, dt, packet):
        """The predictor's identity: a dt workspace's measurement_factor is the
        density ratio |kicked|^2 / rho of a dt/2 workspace's measurement kick, up
        to one positive constant per row, alone and in a batch whose rows differ
        in scale; and it keeps the norm, int rho factor^2 = int rho."""
        cfg = harmonic_config(grid=Grid(-12.0, 12.0, 256), kappa=kappa, dt=dt,
                              initial_state=GaussianPacket(*packet))
        ws, half = _Workspace(cfg), _Workspace(replace(cfg, dt=dt / 2))
        vals = build_initial_state(cfg).values
        pair = np.stack([vals, 0.2 * np.conj(vals) * np.exp(0.5j * cfg.grid.x)])
        for states in (vals, pair):
            rho, floored, norm = density_terms(cfg.grid, states)
            factor = ws.measurement_factor(rho, floored, norm)
            kicked = half.apply_potential(states, 0.0, half.measurement_factor(rho, floored, norm))
            ratio = np.abs(kicked) ** 2 / rho / factor
            assert (ratio > 0).all()
            spread = np.ptp(ratio, axis=-1) / ratio.max(axis=-1)
            assert (spread <= 1e-12).all(), spread
            kept = integrate_values(cfg.grid, rho * factor**2)
            assert np.abs(kept / norm - 1.0).max() <= 1e-14


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

    @staticmethod
    def final_psi(**kw):
        """psi(T) after 400 steps with friction, kappa > 0 and white noise."""
        base = dict(
            grid=Grid(-10.0, 10.0, 256),
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            friction=0.2,
            kappa=0.05,
            noise=NoiseSpec(kind="white", temperature=0.1),
            dt=0.005,
            n_steps=400,
            snapshot_stride=400,
            seed=11,
            initial_state=GaussianPacket(1.0, 0.5, GROUND_SIGMA),
        )
        base.update(kw)
        return run(SimConfig(**base)).snapshots[-1][1].values

    @pytest.mark.parametrize("c", [-3.0, 7.5])
    def test_gauge_constant_is_global_phase(self, c):
        """V + c changes psi(T) only by exp(-i c T / hbar)."""
        def harmonic_plus(c):
            return PotentialSpec((lambda x: 0.5 * x**2 + c, lambda x: x, np.ones_like))

        a = self.final_psi(potential=harmonic_plus(0.0))
        b = self.final_psi(potential=harmonic_plus(c))
        assert np.abs(b - np.exp(-1j * c * 400 * 0.005) * a).max() <= 1e-12

    @pytest.mark.parametrize("theta", [0.7, 2.0 * np.pi / 3.0])
    def test_global_phase_carried(self, theta):
        """Starting from exp(i theta) psi0 gives exp(i theta) psi(T)."""
        grid = Grid(-10.0, 10.0, 256)
        psi0 = WaveFunction(grid, np.exp(-((grid.x - 1.0) ** 2) / 2.0 + 0.5j * grid.x))
        a = self.final_psi(initial_state=psi0)
        b = self.final_psi(initial_state=WaveFunction(grid, np.exp(1j * theta) * psi0.values))
        assert np.abs(b - np.exp(1j * theta) * a).max() <= 1e-12


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

    def test_paper_sign_closure(self):
        """sign = "paper" flips V_d, so the residual's friction term flips with it."""
        cfg = harmonic_config(
            grid=Grid(-10.0, 10.0, 256),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            friction=0.2,
            sign="paper",
            n_steps=600,
            snapshot_stride=20,
            initial_state=GaussianPacket(1.0, 0.0, GROUND_SIGMA),
        )
        r = ehrenfest_residual(run(cfg), cfg)
        assert np.abs(r).max() < 1e-3


RECORDED = ("norm", "mean_x", "mean_p", "var_x", "energy", "W", "xi")
# worst |W(batch row) - W(alone)| measured over batches of 2..40 members on
# the config of test_rows_match_single_runs: 5.4e-11
W_BOUND = 1e-9


def unbatched_run(cfg, seeds=None):
    """The per-step loop: one observables and one W call per recorded state.

    Without seeds, (N,) states and scalar noise values; with seeds, the (B, N)
    batch that run(cfg, seeds) steps. It keeps the recorded columns, "t",
    "boundary_density" and "stability_guard" (each step's guard, the last state
    repeating step n - 1's, as in the record). Each state is read from the
    inverse transform of its spectrum, the initial one too. A NumericalBlowup
    or a non-finite spectrum ends every column at the last recorded state. The
    noise is the slabs of bath.noise_rows joined into one array before stepping.
    """
    n = cfg.n_steps
    batch = [cfg.seed] if seeds is None else list(seeds)
    xi = noise_array(cfg.noise, cfg.friction, cfg.params.mass, cfg.dt, n, batch)
    noise_at = (lambda j: xi[0, j]) if seeds is None else (lambda j: xi[:, j, None])
    ws = _Workspace(cfg)
    vals = build_initial_state(cfg).values
    if seeds is not None:
        vals = np.tile(vals, (len(batch), 1))
    spectrum = np.fft.fft(vals)
    t = 0.0
    lead = () if seeds is None else (len(batch),)
    out = {name: np.empty((n + 1,) + lead) for name in RECORDED + ("boundary_density",)}
    out["t"] = np.empty(n + 1)
    guard = out["stability_guard"] = np.full((n + 1,) + lead, np.nan)
    for i in range(n + 1):
        if i > 0:
            try:
                spectrum = step(spectrum, noise_at(i - 1), ws, guard[i - 1, ...])
                if not np.isfinite(spectrum).all():
                    raise NumericalBlowup("non-finite wavefunction")
            except NumericalBlowup:
                return {name: col[:i] for name, col in out.items()}
            t += cfg.dt
        vals = np.fft.ifft(spectrum)
        xi_i = noise_at(min(i, n - 1))
        obs = observables(WaveFunction(cfg.grid, vals), ws.V, cfg.params, spectrum)
        for name in ("norm", "mean_x", "mean_p", "var_x", "energy"):
            out[name][i] = obs[name]
        rho, floored, norm = density_terms(cfg.grid, vals)
        out["W"][i] = 0.0 if ws.vd_weight is None else gauged_integral(
            cfg.grid, ws.vd_slope(vals, spectrum, floored), rho, norm
        )[1]
        out["xi"][i] = np.reshape(xi_i, lead)
        out["t"][i] = t
        out["boundary_density"][i] = obs["boundary_density"]
    guard[n] = guard[n - 1]
    return out


BATH = NoiseSpec(
    kind="bath", temperature=0.1, bath=discretize_ohmic(OhmicSpec(0.1, 50.0, 200, 0.1))
)


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

    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    @pytest.mark.parametrize("noise", ["zero", "white"])
    @pytest.mark.parametrize("n_members", [2, 3, 17])
    def test_member_bits_depend_only_on_seed(self, n_members, noise, kappa):
        """With white or zero noise, member b of a batch is its seed run alone,
        bit for bit, in every recorded column and both diagnostics."""
        cfg = SimConfig(
            grid=Grid(-12.0, 12.0, 256),
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            friction=0.1,
            kappa=kappa,
            noise=NoiseSpec(kind=noise, temperature=0.1 if noise == "white" else 0.0),
            dt=0.005,
            n_steps=40,
            initial_state=GaussianPacket(1.0, 0.0, GROUND_SIGMA),
        )
        seeds = range(7, 7 + n_members)
        for seed, rec in zip(seeds, run(cfg, seeds=seeds)):
            alone = run(replace(cfg, seed=seed))
            for name in RECORDED + ("boundary_density", "stability_guard"):
                assert np.array_equal(getattr(rec, name), getattr(alone, name)), (seed, name)

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


class TestRecordBlocks:
    """run reads its moments and W in blocks of m states: every column is the
    per-step loop's, bit for bit, wherever the run ends in its last block."""

    CFG = dict(
        grid=Grid(-12.0, 12.0, 256),
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.sinusoidal(1.0, 1.0),
        friction=0.1,
        kappa=0.05,
        noise=NoiseSpec(kind="white", temperature=0.1),
        dt=0.005,
        seed=5,
        initial_state=GaussianPacket(1.0, 0.5, GROUND_SIGMA),
    )

    @pytest.mark.parametrize("seeds", [None, [5, 6, 7]], ids=["single", "batch3"])
    @pytest.mark.parametrize("edge", ["1", "m-2", "m-1", "m", "2m+3"])
    def test_block_edges_equal_per_step_loop(self, seeds, edge):
        n_members = 1 if seeds is None else len(seeds)
        m = RECORD_BLOCK_ELEMENTS // (n_members * 256)   # 128 single, 42 batch
        n_steps = {"1": 1, "m-2": m - 2, "m-1": m - 1, "m": m, "2m+3": 2 * m + 3}[edge]
        cfg = SimConfig(**self.CFG, n_steps=n_steps)
        recs = run(cfg, seeds)
        ref = unbatched_run(cfg, seeds)
        for b, rec in enumerate([recs] if seeds is None else recs):
            assert np.array_equal(rec.times, ref["t"])
            for name in RECORDED + ("boundary_density", "stability_guard"):
                col = ref[name] if seeds is None else ref[name][:, b]
                assert np.array_equal(getattr(rec, name), col), name

    def test_members_warn_at_own_step_inside_one_block(self):
        """Members that first pass the boundary limit at different steps of
        one block each name their own first step, as when run alone. Once a
        packet has crossed the periodic seam its guard may pass its limit too,
        but never before its boundary step."""
        cfg = SimConfig(
            grid=Grid(-10.0, 10.0, 256),
            potential=PotentialSpec.free(),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            dt=0.01,
            n_steps=100,
            noise=NoiseSpec(kind="white", temperature=2.0),
            friction=0.2,
            initial_state=GaussianPacket(0.0, 8.0, 1.0),
        )
        seeds = [3, 4]
        ref = unbatched_run(cfg, seeds)
        first = [np.argmax(ref["boundary_density"][:, b] > BOUNDARY_DENSITY_LIMIT) for b in range(2)]
        m = RECORD_BLOCK_ELEMENTS // (2 * 256)
        assert first[0] != first[1] and first[0] // m == first[1] // m, first
        for b, rec in enumerate(run(cfg, seeds=seeds)):
            i = first[b]
            assert rec.warnings == run(replace(cfg, seed=seeds[b])).warnings
            *stability, boundary = rec.warnings
            assert boundary == (
                f"BoundaryContamination: boundary density {ref['boundary_density'][i, b]:.2e} > "
                f"{BOUNDARY_DENSITY_LIMIT:g} at t = {ref['t'][i]:.6g}"
            )
            assert all(line.startswith("StabilityWarning:") for line in stability)
            assert (np.flatnonzero(rec.stability_guard >= STABILITY_LIMIT) > i).all()

    def test_one_factor_and_one_potential_per_step(self, monkeypatch):
        """A step makes one current transform and one measurement factor, builds
        U once, at the predicted midpoint, and kicks once; the predictor and
        the kick read the one factor. The record adds one current transform
        per block, for its W (one block here)."""
        calls, factors = [], []
        for name in ("vd_slope", "real_potential", "measurement_factor", "predicted_slope",
                     "apply_potential"):
            def counted(self, *args, _name=name, _fn=getattr(_Workspace, name), **kw):
                calls.append(_name)
                if _name in ("predicted_slope", "apply_potential"):
                    assert args[-1] is factors[-1]
                result = _fn(self, *args, **kw)
                if _name == "measurement_factor":
                    factors.append(result)
                return result
            monkeypatch.setattr(_Workspace, name, counted)
        for n_steps in (1, 7):
            calls.clear()
            run(SimConfig(**self.CFG, n_steps=n_steps))
            assert calls == ["vd_slope", "measurement_factor", "predicted_slope", "real_potential",
                             "apply_potential"] * n_steps + ["vd_slope"]
            assert all(isinstance(f, np.ndarray) for f in factors)

    @pytest.mark.parametrize("seeds", [None, [3, 4]], ids=["single", "batch"])
    def test_guard_reads_the_kicked_potential(self, monkeypatch, seeds):
        """Each step's recorded guard is dt*max|u|/hbar of the u that its kick
        applies, row by row; the last state repeats the last step's."""
        kicked = []

        def spy(ws, vals, u, factor, _fn=_Workspace.apply_potential):
            kicked.append(ws.dt * np.abs(u).max(axis=-1) / ws.params.hbar)
            return _fn(ws, vals, u, factor)

        monkeypatch.setattr(_Workspace, "apply_potential", spy)
        n_steps = 7
        recs = run(SimConfig(**self.CFG, n_steps=n_steps), seeds)
        guard = np.array([rec.stability_guard for rec in ([recs] if seeds is None else recs)]).T
        expected = np.reshape(kicked, (n_steps, -1))
        assert np.array_equal(guard, np.vstack([expected, expected[-1:]]))

    @pytest.mark.parametrize(
        "n_members, n_points",
        [(None, 256), (3, 256), (None, 4096), (64, 512), (80, 512)],
    )
    def test_record_buffers_bounded(self, monkeypatch, n_members, n_points):
        """Both buffers together hold at most 2 * 16 * RECORD_BLOCK_ELEMENTS
        bytes, or one state each when a state is larger; every recorded state
        is read once, in one observables call per block."""
        calls = []

        def spy(psi, v, params, spectrum, rho):
            calls.append((psi.values, spectrum))
            return observables(psi, v, params, spectrum, rho)

        monkeypatch.setattr(evolve, "observables", spy)
        n_steps = 20
        seeds = None if n_members is None else list(range(n_members))
        cfg = replace(SimConfig(**self.CFG, n_steps=n_steps), grid=Grid(-12.0, 12.0, n_points))
        run(cfg, seeds)
        state_size = (n_members or 1) * n_points
        buffers = {id(a.base): a.base for pair in calls for a in pair}
        assert len(buffers) == 2
        assert sum(a.nbytes for a in buffers.values()) <= 2 * 16 * max(RECORD_BLOCK_ELEMENTS, state_size)
        m = max(1, min(n_steps + 1, RECORD_BLOCK_ELEMENTS // state_size))
        full, rest = divmod(n_steps + 1, m)
        assert [len(vals) for vals, _ in calls] == [m] * full + [rest] * (rest > 0)

    def test_empty_ensemble_is_config_error(self, monkeypatch):
        built = []
        monkeypatch.setattr(evolve, "noise_rows", lambda *args: built.append(args))
        with pytest.raises(ConfigError, match="at least one seed"):
            run(SimConfig(**self.CFG), seeds=[])
        assert not built


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

    def test_fft_calls_per_step(self, monkeypatch):
        """After the first, every step and its record transform 1 row forward
        and 4 inverse, in 1 forward and 2 inverse calls: the record's inverse
        transforms (its states and its W's current) are one call per block."""
        rows = {"fft": 0, "ifft": 0}
        calls = dict(rows)
        n_points = self.CFG["grid"].n_points
        for name in rows:
            def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kw):
                rows[_name] += np.size(a) // n_points
                calls[_name] += 1
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.fft, name, counted)

        def count(n_steps):
            for name in rows:
                rows[name] = calls[name] = 0
            run(SimConfig(**self.CFG, n_steps=n_steps))
            return dict(rows), dict(calls)

        (short_rows, short_calls), (long_rows, long_calls) = count(2), count(6)
        assert {name: (long_rows[name] - short_rows[name]) / 4 for name in rows} == {"fft": 1, "ifft": 4}
        assert {name: (long_calls[name] - short_calls[name]) / 4 for name in calls} == {"fft": 1, "ifft": 2}


def workspace_arrays(ws):
    """Every array a _Workspace holds: precomputed fields and scratch buffers."""
    held = list(vars(ws).values()) + list(ws._buffers.values())
    return [a for a in held if isinstance(a, np.ndarray)]


class TestStepKernel:
    """The elementwise work of a step: counted calls and buffer ownership."""

    CFG = TestCarriedSpectrum.CFG

    def stepped(self, n_members, kappa=CFG["kappa"]):
        """Workspace, noise value(s) and first spectrum of a single run or a
        batch of n_members."""
        cfg = SimConfig(**{**self.CFG, "kappa": kappa})
        ws = _Workspace(cfg)
        vals = build_initial_state(cfg).values
        xi = 0.3
        if n_members:
            vals = np.stack([vals * np.exp(0.2j * b * cfg.grid.x) for b in range(n_members)])
            xi = np.linspace(-0.3, 0.3, n_members)[:, None]
        return ws, xi, np.fft.fft(vals)

    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    @pytest.mark.parametrize("n_members", [0, 3], ids=["single", "batch"])
    def test_one_log_and_no_complex_exp_per_step(self, monkeypatch, n_members, kappa):
        """One np.log and one np.exp per step when kappa > 0 (the one
        measurement factor, which the predictor and the kick share), none when
        kappa = 0, and no np.exp on a complex argument."""
        ws, xi, spectrum = self.stepped(n_members, kappa)
        calls = {"log": [], "exp": []}
        for name in calls:
            def counted(a, *args, _name=name, _fn=getattr(np, name), **kw):
                calls[_name].append(np.result_type(a))
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np, name, counted)
        for n_steps in (1, 2, 3):
            for found in calls.values():
                found.clear()
            for _ in range(n_steps):
                spectrum = step(spectrum, xi, ws, np.empty(n_members or ()))
            assert len(calls["log"]) == len(calls["exp"]) == (n_steps if kappa else 0)
            assert not any(np.issubdtype(t, np.complexfloating) for t in calls["exp"])

    @pytest.mark.parametrize("n_members", [0, 3], ids=["single", "batch"])
    def test_step_results_own_their_memory(self, n_members):
        """step returns the out slot it was given, which shares no memory with
        the workspace, so a slot kept from step 1 is unchanged after 5 more steps."""
        ws, xi, spectrum = self.stepped(n_members)
        slots = np.empty((6,) + spectrum.shape, complex)
        for j, slot in enumerate(slots):
            spectrum = step(spectrum, xi, ws, np.empty(n_members or ()), slot)
            assert spectrum is slot
            for a in workspace_arrays(ws):
                assert not np.shares_memory(slot, a)
            if j == 0:
                kept = slot.copy()
        assert np.array_equal(slots[0], kept)

    @pytest.mark.parametrize("seeds", [None, [5, 6]], ids=["single", "batch"])
    def test_run_snapshots_own_their_memory(self, monkeypatch, seeds):
        """run's snapshots share no memory with its workspace, and the
        snapshot of step 1 reads the same after 5 more steps."""
        made = []

        class Kept(_Workspace):
            def __init__(self, config):
                super().__init__(config)
                made.append(self)

        monkeypatch.setattr(evolve, "_Workspace", Kept)
        cfg = SimConfig(**self.CFG, n_steps=6, snapshot_stride=1)
        long = run(cfg, seeds)
        ws = made[0]
        short = run(replace(cfg, n_steps=1), seeds)
        if seeds is None:
            long, short = [long], [short]
        for rec_long, rec_short in zip(long, short):
            for _, psi in rec_long.snapshots:
                for a in workspace_arrays(ws):
                    assert not np.shares_memory(psi.values, a)
            assert np.array_equal(rec_long.snapshots[1][1].values, rec_short.snapshots[1][1].values)

