"""Oscillator bath: memory kernel, Ohmic discretization, noise sampling."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import noise_array
from gsle.bath import (
    NOISE_BLOCK_STEPS,
    BathSpec,
    NoiseSpec,
    OhmicSpec,
    discretize_ohmic,
    memory_kernel,
    noise_rows,
    sample_bath_noise_batch,
    spawn_seeds,
    white_noise_sigma,
)
from gsle import classical, evolve
from gsle.classical import LangevinConfig, langevin_ensemble
from gsle.errors import EmptyBath, InvalidField
from gsle.evolve import SimConfig, run
from gsle.fields import Grid
from gsle.potentials import PotentialSpec


def single_oscillator(omega=1.0, d=1.0):
    return BathSpec(
        masses=np.array([1.0]),
        frequencies=np.array([omega]),
        couplings=np.array([d]),
        system_mass=1.0,
    )


class TestMemoryKernel:
    def test_single_oscillator_t0(self):
        assert memory_kernel(single_oscillator(), 0.0) == pytest.approx(1.0)

    def test_single_oscillator_half_period(self):
        assert memory_kernel(single_oscillator(), np.pi) == pytest.approx(-1.0)

    def test_t0_sum_identity(self):
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 500, 0.0), 1.0)
        expected = np.sum(
            bath.couplings**2 / (bath.masses * bath.frequencies**2)
        ) / bath.system_mass
        assert memory_kernel(bath, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_ohmic_t0_closed_form(self):
        # continuum limit: kernel(0) = 2 * friction * cutoff / pi
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 500, 0.0), 1.0)
        assert memory_kernel(bath, 0.0) == pytest.approx(
            2 * 0.5 * 50.0 / np.pi, rel=0.01
        )

    def test_ohmic_kernel_mass(self):
        # integral of the kernel approaches the friction constant
        alpha, wc = 0.5, 50.0
        bath = discretize_ohmic(OhmicSpec(alpha, wc, 2000, 0.0), 1.0)
        t = np.linspace(0.0, 20.0 / wc, 8001)
        mass = np.trapezoid(memory_kernel(bath, t), t)
        assert mass == pytest.approx(alpha, rel=0.02)

    def test_discrete_recurrence(self):
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 500, 0.0), 1.0)
        d_omega = 50.0 / 500
        assert memory_kernel(bath, 2 * np.pi / d_omega) == pytest.approx(
            memory_kernel(bath, 0.0), rel=1e-12
        )


class TestDiscretizeOhmic:
    def test_zero_friction_zero_couplings(self):
        bath = discretize_ohmic(OhmicSpec(0.0, 50.0, 100, 0.0), 1.0)
        assert np.all(bath.couplings == 0.0)

    def test_empty_bath(self):
        with pytest.raises(EmptyBath):
            discretize_ohmic(OhmicSpec(0.5, 50.0, 0, 0.0), 1.0)

    @pytest.mark.parametrize(
        "args, named",
        [((np.nan, 50.0, 10, 0.0), "friction"), ((0.5, np.nan, 10, 0.0), "cutoff"),
         ((0.5, 50.0, 10, np.nan), "temperature")],
    )
    def test_spec_rejects_nan(self, args, named):
        with pytest.raises(InvalidField, match=named):
            OhmicSpec(*args)

    @pytest.mark.parametrize(
        "args, error, named",
        [(([], [], []), EmptyBath, "at least one oscillator"),
         (([1.0, 1.0], [1.0], [1.0]), InvalidField, "equal lengths")],
        ids=["empty", "unequal_lengths"],
    )
    def test_bath_spec_rejects(self, args, error, named):
        with pytest.raises(error, match=named):
            BathSpec(*args)

    def test_spec_rejects_no_oscillators(self):
        """The Ohmic spectrum itself is invalid, before any discretization."""
        with pytest.raises(InvalidField, match="n_oscillators"):
            OhmicSpec(0.5, 50.0, 0, 0.0)

    def test_frequency_ladder(self):
        bath = discretize_ohmic(OhmicSpec(0.5, 10.0, 10, 0.0), 1.0)
        assert bath.frequencies[0] == pytest.approx(1.0)
        assert bath.frequencies[-1] == pytest.approx(10.0)


class TestSampleBathNoise:
    def test_zero_temperature(self):
        times = 0.1 * np.arange(50)
        xi = sample_bath_noise_batch(single_oscillator(), 0.0, times, [3])
        assert np.all(xi == 0.0)

    def test_negative_temperature(self):
        with pytest.raises(InvalidField, match="temperature"):
            sample_bath_noise_batch(single_oscillator(), -1.0, 0.1 * np.arange(5), [3])

    def test_single_oscillator_is_sinusoid(self):
        """A one-oscillator bath yields a pure sinusoid at its frequency."""
        omega, dt = 2.0, 0.05
        times = dt * np.arange(200)
        v = sample_bath_noise_batch(single_oscillator(omega=omega, d=0.7), 1.0, times, [42])[0]
        # exact three-term recurrence of any sinusoid at frequency omega
        resid = v[2:] + v[:-2] - 2 * np.cos(omega * dt) * v[1:-1]
        assert np.abs(resid).max() < 1e-12 * np.abs(v).max()

    def test_batch_rows_match_one_row_case(self):
        """noise_rows gives each row its own stream (an int or a SeedSequence).
        White rows equal the one-row case bit for bit; bath rows are
        sample_bath_noise_batch, whose one matrix product for the batch
        instead of one vector product per row changes only the order of
        summation."""
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 200, 0.1), 1.0)
        dt, n = 0.01, 300
        times = dt * np.arange(n)
        seeds = [7, 8, np.random.SeedSequence(3)]
        rows = noise_array(NoiseSpec("bath", 0.1, bath=bath), 0.5, 1.0, dt, n, seeds)
        assert rows.shape == (3, 300)
        assert np.array_equal(rows, sample_bath_noise_batch(bath, 0.1, times, seeds))
        for seed, row in zip(seeds, rows):
            one = sample_bath_noise_batch(bath, 0.1, times, [seed])[0]
            assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()
        spec = NoiseSpec("white", 0.1)
        white = noise_array(spec, 0.5, 1.0, dt, n, seeds)
        assert white.shape == (3, 300)
        for seed, row in zip(seeds, white):
            assert np.array_equal(row, noise_array(spec, 0.5, 1.0, dt, n, [seed])[0])
        assert np.array_equal(noise_array(NoiseSpec(), 0.5, 1.0, dt, n, seeds), np.zeros((3, n)))

    @pytest.mark.parametrize("n_steps", [1, 511, 512, 513, 1500])
    @pytest.mark.parametrize("kind", ["zero", "white", "bath"])
    def test_slabs_join_to_one_slab_reference(self, kind, n_steps):
        """noise_rows yields NOISE_BLOCK_STEPS-step slabs, then the rest; joined,
        they are the noise drawn for the whole run at once: zero and white
        bit for bit, bath to round-off (its cos/sin products are summed per
        slab)."""
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 200, 0.1), 1.0)
        spec = NoiseSpec(kind, 0.1, bath=bath if kind == "bath" else None)
        dt = 0.01
        seeds = [7, 8, *np.random.SeedSequence(3).spawn(2)]
        slabs = list(noise_rows(spec, 0.5, 1.0, dt, n_steps, seeds))
        full, rest = divmod(n_steps, NOISE_BLOCK_STEPS)
        assert [slab.shape for slab in slabs] == (
            [(4, NOISE_BLOCK_STEPS)] * full + [(4, rest)] * (rest > 0)
        )
        joined = np.concatenate(slabs, axis=1)
        if kind == "bath":
            one = sample_bath_noise_batch(bath, 0.1, dt * np.arange(n_steps), seeds)
            assert np.abs(joined - one).max() <= 1e-14 * np.abs(one).max()
            return
        sigma = white_noise_sigma(0.5, 0.1, 1.0, dt)
        for seed, row in zip(seeds, joined):
            one = sigma * np.random.default_rng(seed).standard_normal(n_steps)
            assert np.array_equal(row, one if kind == "white" else np.zeros(n_steps))

    def test_reproducible(self):
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 200, 0.1), 1.0)
        times = 0.01 * np.arange(100)
        a = sample_bath_noise_batch(bath, 0.1, times, [7])[0]
        b = sample_bath_noise_batch(bath, 0.1, times, [7])[0]
        assert np.array_equal(a, b)

    def test_seed_changes_values(self):
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 200, 0.1), 1.0)
        times = 0.01 * np.arange(100)
        a = sample_bath_noise_batch(bath, 0.1, times, [7])[0]
        b = sample_bath_noise_batch(bath, 0.1, times, [8])[0]
        assert not np.array_equal(a, b)

    def test_autocorrelation_matches_kernel(self):
        """Ensemble <xi(t) xi(0)> reproduces m T kernel(t) (small ensemble)."""
        T, n_seeds = 0.5, 400
        bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 300, T), 1.0)
        lags = 0.02 * np.arange(10)
        acc = np.zeros(10)
        samples = np.empty((n_seeds, 10))
        for s in range(n_seeds):
            v = sample_bath_noise_batch(bath, T, lags, [s])[0]
            samples[s] = v * v[0]
        acf = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        target = 1.0 * T * memory_kernel(bath, lags)
        assert np.all(np.abs(acf - target) < 3.5 * stderr)

    def test_stationarity(self):
        """<xi(t) xi(t')> depends only on the lag, not the origin."""
        T, n_seeds = 0.5, 600
        bath = discretize_ohmic(OhmicSpec(0.5, 20.0, 200, T), 1.0)
        times = 0.1 * np.arange(23)
        pairs = ((0, 3), (7, 10), (19, 22))   # same lag, three origins
        prods = np.empty((len(pairs), n_seeds))
        for s in range(n_seeds):
            v = sample_bath_noise_batch(bath, T, times, [s])[0]
            for k, (i, j) in enumerate(pairs):
                prods[k, s] = v[i] * v[j]
        means = prods.mean(axis=1)
        errs = prods.std(axis=1, ddof=1) / np.sqrt(n_seeds)
        for k in (1, 2):
            comb = np.hypot(errs[0], errs[k])
            assert abs(means[k] - means[0]) < 3.5 * comb


class TestWhiteNoise:
    def test_zero_temperature(self):
        xi = noise_array(NoiseSpec("white", 0.0), 0.5, 1.0, 0.01, 100, [0])[0]
        assert np.all(xi == 0.0)

    def test_zero_friction(self):
        xi = noise_array(NoiseSpec("white", 1.0), 0.0, 1.0, 0.01, 100, [0])[0]
        assert np.all(xi == 0.0)

    def test_moments(self):
        # variance 2 m alpha T / dt with piecewise-constant convention
        xi = noise_array(NoiseSpec("white", 1.0), 0.5, 1.0, 0.01, 100_000, [12])[0]
        var = xi.var()
        assert var == pytest.approx(100.0, rel=0.02)
        stderr = xi.std() / np.sqrt(xi.size)
        assert abs(xi.mean()) < 3 * stderr

    def test_reproducible(self):
        a = noise_array(NoiseSpec("white", 1.0), 0.5, 1.0, 0.01, 1000, [5])[0]
        b = noise_array(NoiseSpec("white", 1.0), 0.5, 1.0, 0.01, 1000, [5])[0]
        assert np.array_equal(a, b)


class TestSpawnSeeds:
    """spawn_seeds(seed, n) is numpy's SeedSequence(seed).spawn(n), hashed for
    all children in one pass; these tests fail if numpy's hash ever changes."""

    @pytest.mark.parametrize("n", [1, 3, 257])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
    def test_streams_equal_numpy_children(self, seed, n):
        ours = spawn_seeds(seed, n)
        children = np.random.SeedSequence(seed).spawn(n)
        assert len(ours) == n
        for mine, child in zip(ours, children):
            a, b = np.random.default_rng(mine), np.random.default_rng(child)
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(a.bit_generator.random_raw(8), b.bit_generator.random_raw(8))

    def test_seed_holds_four_uint64_words_only(self):
        (seed,) = spawn_seeds(5, 1)
        words = seed.generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.shape == (4,) and not words.flags.writeable
        for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64),
                               (4, np.int64), (4, np.float64)):
            with pytest.raises(ValueError):
                seed.generate_state(n_words, dtype)
        with pytest.raises(ValueError):
            seed.generate_state(4)   # uint32 words, numpy's default


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSlabMemory:
    """The noise is held one slab at a time, so a run's peak memory does not
    grow with n_steps. Noise built whole before the first step would: its
    (rows x n_steps) table, and for bath noise the cos/sin tables, grow with it."""

    def langevin(self, n_steps):
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0), friction=0.1, noise=NoiseSpec("white", 0.05),
            dt=0.005, n_steps=n_steps, n_particles=2000,
        )
        return lambda: langevin_ensemble(cfg, seed=3)

    def gle(self, n_steps):
        """A memory-kernel run: its w buffer and record blocks hold a fixed number of steps."""
        bath = discretize_ohmic(OhmicSpec(0.1, 20.0, 50, 0.1), 1.0)
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0), noise=NoiseSpec("bath", 0.1, bath=bath),
            dt=0.005, n_steps=n_steps, n_particles=500, memory=bath,
        )
        return lambda: langevin_ensemble(cfg, seed=3)

    def wave(self, n_steps):
        bath = discretize_ohmic(OhmicSpec(0.1, 50.0, 500, 0.1), 1.0)
        cfg = SimConfig(
            Grid(-10.0, 10.0, 64), potential=PotentialSpec.harmonic(1.0), friction=0.1,
            noise=NoiseSpec("bath", 0.1, bath=bath), dt=0.005, n_steps=n_steps, seed=3,
        )
        return lambda: run(cfg)

    def test_oracle_keeps_no_sequence_per_particle(self):
        """The seeds of 10**4 particles are one table, not 10**4 SeedSequences:
        this 100-step white-noise oracle peaks at 12.2 MB with numpy's spawn
        (3.7 MB of SeedSequences beside the 8 MB slab) and at 10.2 MB with
        spawn_seeds, each row's Generator dropped after its one slab."""
        cfg = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0), friction=0.5, noise=NoiseSpec("white", 0.3),
            dt=0.01, n_steps=100, n_particles=10**4,
        )
        peak = traced_peak(lambda: langevin_ensemble(cfg, seed=1))
        assert peak < 11.2e6, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("make", ["langevin", "gle", "wave"])
    def test_peak_does_not_grow_with_n_steps(self, make):
        short, long = (traced_peak(getattr(self, make)(k * NOISE_BLOCK_STEPS)) for k in (2, 8))
        assert long < 1.25 * short, f"peak {short / 1e6:.2f} MB at 2 slabs, {long / 1e6:.2f} MB at 8"

    @pytest.mark.parametrize("loop", ["wave", "wave_batch", "langevin"])
    def test_spent_slab_dropped_before_next_draw(self, monkeypatch, loop):
        """Once a run loop has the next slab, no earlier slab is alive: neither
        the loop nor noise_rows holds a row of it while the next is drawn."""
        alive = []

        def watched(*args):
            refs = []
            for slab in noise_rows(*args):
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(slab))
                yield slab

        module = classical if loop == "langevin" else evolve
        monkeypatch.setattr(module, "noise_rows", watched)
        n_steps = 3 * NOISE_BLOCK_STEPS + 1
        noise = NoiseSpec("white", 0.05)
        if loop == "langevin":
            langevin_ensemble(LangevinConfig(
                potential=PotentialSpec.harmonic(1.0), friction=0.1, noise=noise,
                n_steps=n_steps, n_particles=3,
            ), seed=3)
        else:
            run(SimConfig(Grid(-10.0, 10.0, 64), potential=PotentialSpec.harmonic(1.0),
                          friction=0.1, noise=noise, n_steps=n_steps),
                None if loop == "wave" else [3, 4])
        assert alive == [0, 0, 0, 0]

    @pytest.mark.parametrize("kind", ["white", "bath"])
    def test_noise_rows_drops_spent_slab(self, monkeypatch, kind):
        """noise_rows holds no spent slab while it builds the next: whenever a
        slab's array is made (np.zeros for white noise, np.outer for bath
        noise), no slab the caller has dropped is alive."""
        bath = discretize_ohmic(OhmicSpec(0.1, 20.0, 10, 0.1), 1.0)
        noise = NoiseSpec(kind, 0.1, bath=bath if kind == "bath" else None)
        refs, alive = [], []
        made = np.zeros if kind == "white" else np.outer

        def probe(*args, **kw):
            alive.append(sum(ref() is not None for ref in refs))
            return made(*args, **kw)

        monkeypatch.setattr(np, made.__name__, probe)
        for slab in noise_rows(noise, 0.1, 1.0, 0.01, 3 * NOISE_BLOCK_STEPS + 1, [1, 2]):
            refs.append(weakref.ref(slab))
            del slab
        assert len(alive) >= 4 and not any(alive), alive

    def test_langevin_holds_one_slab_at_a_time(self):
        """langevin_ensemble drops its spent slab, and noise_rows its own
        reference to it, before the next slab is drawn: a second slab adds
        less than half a slab (4.1 MB of 2000 particles) to the peak."""
        one, two = (traced_peak(self.langevin(k * NOISE_BLOCK_STEPS)) for k in (1, 2))
        slab = 2000 * NOISE_BLOCK_STEPS * 8
        assert two - one < slab / 2, f"peak {one / 1e6:.2f} MB at 1 slab, {two / 1e6:.2f} MB at 2"
