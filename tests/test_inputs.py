"""Every scalar input of the library goes through errors.check_count or check_number:
a bad value is a ConfigError naming its field, raised before any noise is drawn or
any step runs, and the edge of each range is accepted."""

import warnings

import numpy as np
import pytest

from gsle import classical, evolve
from gsle.bath import BathSpec, NoiseSpec, OhmicSpec, sample_bath_noise_batch
from gsle.bohmian import polar_decompose, propagate_trajectories, weak_value
from gsle.classical import GaussianCloud, LangevinConfig, langevin_ensemble
from gsle.cli import parse_config
from gsle.coupling import CouplingFunction
from gsle.errors import ConfigError
from gsle.evolve import GaussianPacket, HarmonicEigenstate, SimConfig, run
from gsle.fields import Grid, PhysicalParams, WaveFunction, normalize
from gsle.potentials import dissipative_potential

GRID = Grid(-10.0, 10.0, 64)
PSI = normalize(WaveFunction(GRID, np.exp(-GRID.x**2 + 1j * GRID.x)))
BATH = BathSpec([1.0], [1.0], [0.5])
HISTORY = [weak_value(polar_decompose(PSI, 1.0))] * 2   # two states at t = 0 and 0.1
# the rules: a real number, >= 0 (its edge 0), > 0 (its edge 1e-300), an integer >= n
REAL, NONNEG, POSITIVE = "real", "nonneg", "positive"
HUGE = 10**400   # an int that float() cannot convert
# case -> (a call with one scalar input v, the name its error gives, its rule)
SCALARS = {
    "grid_x_min": (lambda v: Grid(v, 10.0, 64), "x_min", REAL),
    "grid_x_max": (lambda v: Grid(-10.0, v, 64), "x_max", REAL),
    "grid_n_points": (lambda v: Grid(-10.0, 10.0, v), "n_points", 8),
    "params_hbar": (lambda v: PhysicalParams(hbar=v), "hbar", POSITIVE),
    "params_mass": (lambda v: PhysicalParams(mass=v), "mass", POSITIVE),
    "packet_x0": (lambda v: GaussianPacket(x0=v), "x0", REAL),
    "packet_p0": (lambda v: GaussianPacket(p0=v), "p0", REAL),
    "packet_sigma": (lambda v: GaussianPacket(sigma=v), "sigma", POSITIVE),
    "eigenstate_index": (lambda v: HarmonicEigenstate(index=v), "index", 0),
    "eigenstate_omega": (lambda v: HarmonicEigenstate(omega=v), "omega", POSITIVE),
    "sim_friction": (lambda v: SimConfig(GRID, friction=v), "friction", NONNEG),
    "sim_kappa": (lambda v: SimConfig(GRID, kappa=v), "kappa", NONNEG),
    "sim_dt": (lambda v: SimConfig(GRID, dt=v), "dt", POSITIVE),
    "sim_n_steps": (lambda v: SimConfig(GRID, n_steps=v), "n_steps", 1),
    "sim_seed": (lambda v: SimConfig(GRID, seed=v), "seed", 0),
    "sim_snapshot_stride": (lambda v: SimConfig(GRID, snapshot_stride=v), "snapshot_stride", 0),
    "noise_temperature": (lambda v: NoiseSpec("white", v), "temperature", NONNEG),
    "ohmic_friction": (lambda v: OhmicSpec(v, 10.0, 4, 0.1), "friction", NONNEG),
    "ohmic_cutoff": (lambda v: OhmicSpec(0.1, v, 4, 0.1), "cutoff", POSITIVE),
    "ohmic_n_oscillators": (lambda v: OhmicSpec(0.1, 10.0, v, 0.1), "n_oscillators", 1),
    "ohmic_temperature": (lambda v: OhmicSpec(0.1, 10.0, 4, v), "temperature", NONNEG),
    "bath_system_mass": (
        lambda v: BathSpec([1.0], [1.0], [0.5], system_mass=v), "system_mass", POSITIVE
    ),
    "bath_friction": (lambda v: BathSpec([1.0], [1.0], [0.5], friction=v), "friction", NONNEG),
    "cloud_x0": (lambda v: GaussianCloud(x0=v), "x0", REAL),
    "cloud_p0": (lambda v: GaussianCloud(p0=v), "p0", REAL),
    "cloud_sigma_x": (lambda v: GaussianCloud(sigma_x=v), "sigma_x", NONNEG),
    "cloud_sigma_p": (lambda v: GaussianCloud(sigma_p=v), "sigma_p", NONNEG),
    "langevin_friction": (lambda v: LangevinConfig(friction=v), "friction", NONNEG),
    "langevin_dt": (lambda v: LangevinConfig(dt=v), "dt", POSITIVE),
    "langevin_n_steps": (lambda v: LangevinConfig(n_steps=v), "n_steps", 1),
    "langevin_n_particles": (lambda v: LangevinConfig(n_particles=v), "n_particles", 1),
    "power_n": (lambda v: CouplingFunction.power(v), "n", 0),
    "constant_c": (lambda v: CouplingFunction.constant(v), "c", REAL),
    "sinusoidal_a": (lambda v: CouplingFunction.sinusoidal(a=v), "a", REAL),
    "sinusoidal_k": (lambda v: CouplingFunction.sinusoidal(k=v), "k", REAL),
    "harmonic_omega": (lambda v: CouplingFunction.harmonic(omega=v), "omega", REAL),
    "harmonic_mass": (lambda v: CouplingFunction.harmonic(mass=v), "mass", REAL),
    "harmonic_center": (lambda v: CouplingFunction.harmonic(center=v), "center", REAL),
    "linear_ramp_b": (lambda v: CouplingFunction.linear_ramp(v), "b", REAL),
    "double_well_a": (lambda v: CouplingFunction.double_well(a=v), "a", REAL),
    "double_well_b": (lambda v: CouplingFunction.double_well(b=v), "b", REAL),
    "cubic_c": (lambda v: CouplingFunction.cubic(v), "c", REAL),
    "bath_noise_temperature": (
        lambda v: sample_bath_noise_batch(BATH, v, 0.1 * np.arange(4), [1]), "temperature",
        NONNEG,
    ),
    "dissipative_friction": (
        lambda v: dissipative_potential(PSI, CouplingFunction.linear(), v, PhysicalParams()),
        "friction", NONNEG,
    ),
    "run_seed": (lambda v: run(SimConfig(GRID), seeds=[v]), "seed", 0),
    "langevin_seed": (lambda v: langevin_ensemble(LangevinConfig(n_particles=2), v), "seed", 0),
    "trajectories_n_traj": (
        lambda v: propagate_trajectories(HISTORY, [0.0, 0.1], v, 0, PhysicalParams()), "n_traj", 1
    ),
    "trajectories_seed": (
        lambda v: propagate_trajectories(HISTORY, [0.0, 0.1], 4, v, PhysicalParams()), "seed", 0
    ),
    "cli_seed_override": (lambda v: parse_config("", seed_override=v), "--seed", 0),
}


def bad_values(case):
    """The values that the rule of case rejects: non-finite reals, a bool, None (but
    for a bath's friction, where None records none, and a seed override, where None
    overrides none), a string, a complex number, a count's non-integers, a real
    rule's ints past the float range, and one value below the range."""
    rule = SCALARS[case][2]
    values = [np.nan, np.inf, -np.inf, True, None, "1", 1j]
    if case in ("bath_friction", "cli_seed_override"):
        values.remove(None)
    if isinstance(rule, int):
        values += [2.5, 2.0, rule - 1]
    else:
        values += [HUGE, -HUGE]
    if rule in (POSITIVE, NONNEG):
        values.append(0.0 if rule == POSITIVE else -1e-300)
    return values


@pytest.mark.parametrize(
    "case, value",
    [(case, value) for case in SCALARS for value in bad_values(case)],
    ids=lambda v: v if v in SCALARS else {HUGE: "10**400", -HUGE: "-10**400"}.get(v, repr(v)),
)
def test_bad_scalar_is_config_error(monkeypatch, case, value):
    """A ConfigError naming the field, under warnings as errors, before any noise
    is drawn or any step runs."""
    calls = []
    for module, name in [(evolve, "noise_rows"), (evolve, "step"), (classical, "noise_rows"),
                         (classical, "langevin_step"), (classical.GleIntegrator, "step"),
                         (np.random, "Generator")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    call, named, _ = SCALARS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"{named} must be"):
            call(value)
    assert calls == []


@pytest.mark.parametrize("case", [case for case in SCALARS if SCALARS[case][2] != REAL])
def test_edge_of_range_accepted(case):
    """0 where >= 0 is allowed, 1e-300 where > 0 is required, the least count."""
    call, _, rule = SCALARS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(rule if isinstance(rule, int) else 1e-300 if rule == POSITIVE else 0.0)
