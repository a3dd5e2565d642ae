"""The state gate of both run loops, fields.BlockRecorder: every state, the initial
one too, is stepped, drawn and recorded under one overflow gate, and a blow-up names
the first state that fails, with no numpy warning."""

import warnings

import pytest

from gsle.bath import BathSpec, NoiseSpec
from gsle.classical import GaussianCloud, LangevinConfig, langevin_ensemble
from gsle.errors import NumericalBlowup, StabilityWarning
from gsle.evolve import SimConfig, run
from gsle.fields import RECORD_BLOCK_ELEMENTS, Grid
from gsle.potentials import PotentialSpec

GRID = Grid(-10.0, 10.0, 64)


def blowup_time(call):
    """The t of the NumericalBlowup that call raises, under warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StabilityWarning)
        with pytest.raises(NumericalBlowup) as info:
            call()
    return info.value.t


def test_one_row_blocks_blow_up_at_the_initial_state():
    """With one row a record block, the initial state's record is reduced at its
    push: an energy or a var_x that overflows there is a blow-up at t = 0."""
    assert RECORD_BLOCK_ELEMENTS // (600 * GRID.n_points) == RECORD_BLOCK_ELEMENTS // 40000 == 0
    wave = SimConfig(GRID, potential=PotentialSpec.constant(1.5e308), n_steps=3)
    assert blowup_time(lambda: run(wave, seeds=range(600))) == 0.0
    wide = GaussianCloud(0.0, 0.0, 1e200, 0.0)
    cloud = LangevinConfig(n_steps=3, n_particles=40000, initial=wide)
    assert blowup_time(lambda: langevin_ensemble(cloud, 0)) == 0.0


def test_noise_overflow_names_the_first_step():
    """Bath noise that overflows in its first slab, before step 1, fails state 1
    (t = dt) in both loops: state 0 was recorded cleanly."""
    noise = NoiseSpec("bath", 1e20, BathSpec([1.0, 1.0], [1.0, 2.0], [1e300, 1e300]))
    harmonic = PotentialSpec.harmonic()
    wave = SimConfig(GRID, potential=harmonic, noise=noise, dt=0.01, n_steps=3)
    assert blowup_time(lambda: run(wave)) == 0.01
    cloud = LangevinConfig(potential=harmonic, noise=noise, dt=0.01, n_steps=3, n_particles=10)
    assert blowup_time(lambda: langevin_ensemble(cloud, 0)) == 0.01
