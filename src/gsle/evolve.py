"""Strang-split propagation of the nonlinear stochastic wave equation.

One step is: half kinetic kick (spectral), full potential kick with the
state-dependent terms predicted at the midpoint of that kick, half kinetic
kick. The gauge term W(t) = <V_d> is subtracted explicitly every step
instead of tracking the global-phase transformation.

The anti-Hermitian measurement kick multiplies the density-shape factor
rho^(kappa*dt), rho floored, and then restores the pre-kick norm. The restoring scalar
is exactly the mean-subtraction constant evaluated as a step average
(the continuous equation conserves the norm; a frozen <ln rho> would not,
discretely). The state is never renormalized beyond this: norm drift from
any other source remains visible in the record.

Every operation acts along the last axis, so a (B, N) array of member
states with a (B, 1) column of noise values takes one step in one call:
the split-step operators are the same for every row.

`step` maps a state's spectrum to the next state's spectrum. One density of
the half-kicked state and one measurement factor (`_Workspace.measurement_factor`,
the step's one log and exp of rho) serve the step's one U and the kick, which
writes cos and sin of the phase into a workspace buffer. With friction, U
(`_Workspace.real_potential`) is predicted at the kick's midpoint from one
current transform of the half-kicked state and that factor: the midpoint state
itself is never built. `run` owns the clock, checks every new spectrum for
finite samples and records through a `fields.BlockRecorder`, the overflow gate
of its loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bath import NoiseSpec, check_bath, noise_rows
from .coupling import CouplingFunction, PotentialSpec
from .errors import (
    ConfigError, DegenerateState, InsufficientData, InvalidField, NumericalBlowup,
    StabilityWarning, check_count, check_number,
)
from .fields import (
    BlockRecorder,
    Grid,
    PhysicalParams,
    WaveFunction,
    density_floor,
    density_terms,
    integrate_values,
    normalize,
    observables,
)
from .potentials import SIGNS, dissipative_slope, gauged_integral, tilde_current

BOUNDARY_DENSITY_LIMIT = 1e-6
STABILITY_LIMIT = 0.5   # of a step's guard dt*max|U|/hbar
# the RunRecord columns that observables.csv writes after t, in its order
RECORDED = ("norm", "mean_x", "mean_p", "var_x", "energy", "W", "xi")


@dataclass(frozen=True)
class GaussianPacket:
    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_number("initial x0", self.x0)
        check_number("initial p0", self.p0)
        check_number("initial sigma", self.sigma, 0, above=True)


@dataclass(frozen=True)
class HarmonicEigenstate:
    index: int = 0
    omega: float = 1.0

    def __post_init__(self):
        check_count("eigenstate index", self.index, 0)
        check_number("eigenstate omega", self.omega, 0, above=True)


@dataclass(frozen=True)
class SimConfig:
    """A wave run's inputs, each checked once, when built: a bad one is a ConfigError."""

    grid: Grid
    params: PhysicalParams = PhysicalParams()
    potential: PotentialSpec = field(default_factory=PotentialSpec.free)
    coupling: CouplingFunction = field(default_factory=CouplingFunction.linear)
    friction: float = 0.0
    noise: NoiseSpec = NoiseSpec()
    kappa: float = 0.0
    dt: float = 0.005
    n_steps: int = 1
    seed: int = 0
    sign: str = "damping"
    initial_state: object = GaussianPacket()
    snapshot_stride: int = 0         # 0 disables snapshots

    def __post_init__(self):
        check_number("dt", self.dt, 0, above=True)
        check_count("n_steps", self.n_steps, 1)
        check_count("snapshot_stride", self.snapshot_stride, 0)
        check_count("seed", self.seed, 0)
        check_number("friction", self.friction, 0)
        check_bath(self.noise, self.params.mass, friction=self.friction)
        check_number("kappa", self.kappa, 0)
        if self.sign not in SIGNS:
            raise ConfigError(f"sign must be one of {list(SIGNS)}, got '{self.sign}'")
        with np.errstate(over="ignore", invalid="ignore"):
            for name, g in (("potential", self.potential), ("coupling", self.coupling)):
                if not all(np.isfinite(g.on_grid(self.grid, k)).all() for k in (0, 1)):
                    raise ConfigError(f"{name} value or slope not finite on the grid")
        init = self.initial_state
        if not isinstance(init, (GaussianPacket, HarmonicEigenstate, WaveFunction)):
            raise ConfigError(f"unsupported initial state {init!r}")
        if isinstance(init, WaveFunction) and (init.grid, init.values.ndim) != (self.grid, 1):
            shape = init.values.shape
            raise ConfigError(f"initial state {shape} on {init.grid}, not (N,) on {self.grid}")
        build_initial_state(self)


@dataclass
class RunRecord:
    times: np.ndarray
    norm: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    energy: np.ndarray
    W: np.ndarray
    xi: np.ndarray
    boundary_density: np.ndarray   # edge density over peak density, per state
    stability_guard: np.ndarray    # dt*max|U|/hbar of the step from each state
    snapshots: list = field(default_factory=list)   # (step_index, WaveFunction)

    @property
    def warnings(self) -> list:
        """The first recorded state past each diagnostic's limit, if any."""
        return [
            f"StabilityWarning: dt*max|U|/hbar = {self.stability_guard[i]:.3g} >= "
            f"{STABILITY_LIMIT:g} at t = {self.times[i]:.6g}"
            for i in np.flatnonzero(self.stability_guard >= STABILITY_LIMIT)[:1]
        ] + [
            f"BoundaryContamination: boundary density {self.boundary_density[i]:.2e} > "
            f"{BOUNDARY_DENSITY_LIMIT:g} at t = {self.times[i]:.6g}"
            for i in np.flatnonzero(self.boundary_density > BOUNDARY_DENSITY_LIMIT)[:1]
        ]


def _warn_stability(guard: np.ndarray, seeds: Optional[list]):
    """One StabilityWarning for a guard column (n + 1,) or (n + 1, B) past the limit
    (NaN never is): its first value past it, and a batch's seeds that passed it."""
    over = guard >= STABILITY_LIMIT
    if over.any():
        text = f"dt*max|U|/hbar = {guard[over][0]:.3g} >= {STABILITY_LIMIT:g}; reduce dt"
        if seeds is not None:
            text += f" (seeds {', '.join(str(s) for s, h in zip(seeds, over.any(axis=0)) if h)})"
        warnings.warn(text, StabilityWarning)


def build_initial_state(config: SimConfig) -> WaveFunction:
    """The normalized initial state, built with float warnings off; one that builds
    to zero or to non-finite samples is a ConfigError. An eigenstate is the Hermite
    function psi_n(xi), xi = sqrt(m omega/hbar) x, of the normalized recurrence
    from psi_0 = pi^(-1/4) exp(-xi^2/2): finite at any n, where H_n(xi) exp(-xi^2/2)
    overflows."""
    grid, params = config.grid, config.params
    x = grid.x
    init = config.initial_state
    with np.errstate(all="ignore"):
        if isinstance(init, GaussianPacket):
            vals = np.exp(
                -((x - init.x0) ** 2) / (4.0 * init.sigma**2)
                + 1j * init.p0 * x / params.hbar
            )
        elif isinstance(init, HarmonicEigenstate):
            xi = np.sqrt(params.mass * init.omega / params.hbar) * x
            prev, vals = 0.0, np.pi**-0.25 * np.exp(-0.5 * xi**2)
            for k in range(init.index):   # psi_{k+1} from psi_k and psi_{k-1}
                prev, vals = vals, np.sqrt(2 / (k + 1)) * xi * vals - np.sqrt(k / (k + 1)) * prev
        else:   # a WaveFunction, as SimConfig checks
            vals = init.values
        try:
            return normalize(WaveFunction(grid, vals))
        except (DegenerateState, InvalidField) as exc:
            raise ConfigError(f"initial state {init!r} builds no state: {exc}") from None


class _Workspace:
    """Per-run precomputed arrays and per-shape scratch buffers for the stepping kernel."""

    def __init__(self, config: SimConfig):
        grid, params = config.grid, config.params
        self.grid = grid
        self.params = params
        self.kin_half = np.exp(
            -1j * params.hbar * grid.k**2 * config.dt / (4.0 * params.mass)
        )
        self.ik = grid.ik
        self.V, self.dV = (config.potential.on_grid(grid, k) for k in (0, 1))
        self.f, self.df = (config.coupling.on_grid(grid, k) for k in (0, 1))
        # V_d's s * m * friction * f'^2, times the hbar/m of the current; None without friction
        coef = SIGNS[config.sign] * config.friction * params.hbar
        self.vd_weight = coef * self.df**2 if coef else None
        self.kappa = config.kappa
        self.dt = config.dt
        self._buffers = {}

    def _buffer(self, name, shape, dtype=float):
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape, dtype)
        return buf

    def real_potential(self, xi_n, slope, rho, norm):
        """Real potential U = V - f xi + V_d - W, with the gauge constant W = <V_d>.

        V_d is the cumulative integral of its slope (predicted_slope in a
        step) and W its mean over the density rho with int rho = norm. For a
        batch (B, N), xi_n is a (B, 1) column. U is a new array, built in place.
        """
        vd, w = gauged_integral(self.grid, slope, rho, norm)
        u = np.multiply(self.f, xi_n, out=self._buffer("real", vd.shape))
        vd += np.subtract(self.V, u, out=u)
        vd -= w[..., None]
        return vd

    def measurement_factor(self, rho, floored, norm):
        """The measurement kick's real factor, a new array, or None when kappa = 0:
        rho_floored^(kappa dt) times the scalar per row that restores the norm of
        the state with these density_terms, which the phase kick leaves unchanged.
        The scalar is the mean-subtraction constant of +kappa (ln rho - <ln rho>)
        as a step average, so the term stays exactly traceless over the kick."""
        if not self.kappa:
            return None
        gain = np.log(floored)
        gain *= self.kappa * self.dt
        np.exp(gain, out=gain)
        n_after = integrate_values(self.grid, rho * gain * gain)
        if not n_after.all():
            raise NumericalBlowup(
                f"measurement kick underflowed every density sample "
                f"(kappa*dt = {self.kappa * self.dt:.3g} too large)"
            )
        gain *= np.sqrt(norm / n_after)[..., None]
        return gain

    def predicted_slope(self, xi_n, slope, rho, floored, norm, factor):
        """(slope, rho, norm) of the state that a kick of dt/2 by U =
        real_potential(xi_n, slope, rho, norm) makes, without making it, from a
        state with that slope, density_terms and measurement_factor.

        A phase kick exp(i theta) changes only j = Im(psi* dpsi/dx) by rho theta',
        with theta' = -(dt/2hbar)(V' - f' xi + slope). A measurement kick of dt/2
        scales rho, and j with it, by rho_floored^(kappa dt): factor up to its
        scalar per row, which cancels in V_d's ratio, its floor and W. The new
        slope is weight factor (j + rho theta') / max(factor rho, density_floor),
        with weight j = slope floored.
        """
        new_slope = np.multiply(self.df, xi_n, out=self._buffer("real", rho.shape))
        np.subtract(self.dV, new_slope, out=new_slope)
        new_slope += slope
        new_slope *= (-0.5 * self.dt / self.params.hbar) * self.vd_weight
        new_slope *= rho   # weight rho theta'
        if factor is None:
            new_slope /= floored
            new_slope += slope
            return new_slope, rho, norm
        new_slope += slope * floored
        new_slope *= factor
        rho = factor * rho
        new_slope /= np.maximum(rho, density_floor(rho))
        return new_slope, rho, integrate_values(self.grid, rho)

    def apply_potential(self, vals: np.ndarray, u: np.ndarray, factor):
        """Unitary kick of length dt for the real potential u, times the
        measurement factor (measurement_factor of vals) when it is not None.

        Returns a workspace buffer (cos + i sin of the phase, times the real
        measurement factor, times vals), overwritten by the next kick.
        """
        phi = np.multiply(u, -self.dt / self.params.hbar, out=self._buffer("real", vals.shape))
        kick = self._buffer("kick", vals.shape, complex)
        np.cos(phi, out=kick.real)
        np.sin(phi, out=kick.imag)
        if factor is not None:
            np.multiply(kick.real, factor, out=kick.real)
            np.multiply(kick.imag, factor, out=kick.imag)
        return np.multiply(kick, vals, out=kick)


def step(spectrum: np.ndarray, xi_n, ws: _Workspace, guard: np.ndarray, out=None):
    """One Strang step, its nonlinear terms predicted at the kick's midpoint.

    spectrum = fft(psi) of a state (N,) or of a batch (B, N); xi_n is then a
    (B, 1) column. Returns the new state's spectrum, written into out when
    given (it may be spectrum itself); it shares no memory with the workspace
    ws and is not checked: run checks it. Each row's dt*max|U|/hbar, the
    largest phase that the kick applies, is written into guard, a 0-d or (B,)
    array, as soon as U is built: a step that fails later has still recorded
    it, and one that fails before leaves guard as it was.

    U is built once, and the full kick applies it. Without friction it is
    V - f xi. With friction it is the U of the state that a kick of dt/2 makes
    from the half-kicked state (_Workspace.predicted_slope). The step's one
    measurement factor serves both the prediction and the kick.
    """
    spectrum = ws.kin_half * spectrum
    vals = np.fft.ifft(spectrum)
    rho, floored, norm = density_terms(ws.grid, vals)
    factor = ws.measurement_factor(rho, floored, norm)
    if ws.vd_weight is None:
        u = ws.V - ws.f * xi_n
    else:
        slope = dissipative_slope(vals, ws.vd_weight, ws.ik, floored, spectrum)
        u = ws.real_potential(xi_n, *ws.predicted_slope(xi_n, slope, rho, floored, norm, factor))
    guard[...] = ws.dt * np.abs(u).max(axis=-1) / ws.params.hbar
    out = np.fft.fft(ws.apply_potential(vals, u, factor), out=out)
    return np.multiply(out, ws.kin_half, out=out)


def run(config: SimConfig, seeds: Optional[Sequence[int]] = None):
    """Propagate n_steps, recording observables every step.

    Without `seeds`, the one RunRecord of config.seed. With `seeds`, one
    RunRecord per seed, in order: the members are stepped together as one
    (B, N) batch, each with its own noise row; empty seeds, or a seed that is
    not an integer >= 0 (errors.check_count), are a ConfigError. A member's last
    bits may depend on the batch it was stepped in: numpy rounds some elementwise
    loops by memory alignment, and a batch's bath noise is one matrix product.

    Each step writes its spectrum into the next slot of a BlockRecorder, whose
    states and spectra buffers hold m = RECORD_BLOCK_ELEMENTS // (B N) states
    each, clipped to [1, n_steps + 1]: at most 1 MiB together, or one state
    each when a state is larger. One inverse transform per block makes its
    states, read by one `observables` call and one W (`gauged_integral` of their
    `dissipative_slope`); a snapshot copies its state. Each row is reduced alone, so the record
    is the one a read per step would give (t = 0 reads ifft(fft(psi_0))). A non-finite
    spectrum, or a float overflow, is the recorder's NumericalBlowup at the first state
    that fails, with the observables of the last state recorded cleanly, if any. A
    guard past STABILITY_LIMIT raises one StabilityWarning per call, naming a batch's seeds.

    Deterministic for a given (config, seeds). The noise is built one slab of
    at most NOISE_BLOCK_STEPS steps at a time, and a spent slab is dropped
    before the next is drawn.
    """
    batch = [config.seed] if seeds is None else list(seeds)
    if not batch:
        raise ConfigError("an ensemble needs at least one seed")
    for seed in batch:
        check_count("seed", seed, 0)
    # a single run steps an (N,) state: the bits are those of a (1, N)
    # batch, and numpy's per-call overhead is lower on 1-D arrays
    lead = () if seeds is None else (len(batch),)
    n = config.n_steps
    noise = noise_rows(config.noise, config.friction, config.params.mass, config.dt, n, batch)
    ws = _Workspace(config)
    shape = lead + (config.grid.n_points,)
    psi = np.broadcast_to(build_initial_state(config).values, shape).copy()

    times = config.dt * np.arange(n + 1)   # the one clock, t = n dt
    names = RECORDED + ("boundary_density", "stability_guard")
    table = {name: np.full((n + 1,) + lead, np.nan) for name in names}
    guard = table["stability_guard"]   # a step that fails before building U leaves NaN
    snapshots = []
    stride = config.snapshot_stride

    def reduce(steps, vals, spectra):
        np.fft.ifft(spectra, out=vals)
        rho, floored, norm = density_terms(config.grid, vals)
        obs = observables(WaveFunction(config.grid, vals), ws.V, config.params, spectra, rho)
        for name, col in obs.items():
            table[name][steps] = col
        table["W"][steps] = 0.0 if ws.vd_weight is None else gauged_integral(
            config.grid, dissipative_slope(vals, ws.vd_weight, ws.ik, floored, spectra), rho, norm
        )[1]
        snapshots.extend((j, vals[j - steps.start].reshape(len(batch), -1).copy())
                         for j in range(steps.start, steps.stop) if stride and j % stride == 0)

    recorder = BlockRecorder(times, (psi, psi), reduce, "non-finite wave step")   # states, spectra
    # psi, the initial state, stays referenced to the end: freeing it after
    # step 1 raised a 32 x 512 ensemble's peak RSS by 1 MB (glibc places the
    # later arrays differently)
    try:
        with recorder:
            spectrum = np.fft.fft(psi, out=recorder.slot(1))
            recorder.push()
            i = 0   # the step under way, from state i to state i + 1
            for slab in noise:
                # step i's xi: a (B,) row of the slab, or a scalar in a single run
                for xi in slab.T.reshape((-1,) + lead):
                    table["xi"][i] = xi
                    spectrum = step(spectrum, xi[..., None], ws, guard[i, ...], recorder.slot(1))
                    if not np.isfinite(spectrum).all():
                        raise NumericalBlowup(f"non-finite wavefunction at t = {times[i + 1]:.6g}")
                    recorder.push()
                    i += 1
                del slab, xi   # so only one slab is alive while the next is drawn
    except NumericalBlowup as exc:
        last = recorder.first - 1   # the last state recorded cleanly
        if last >= 0:
            exc.last_observables = {
                "t": times[last], **{k: table[k][last] for k in ("norm", "mean_x", "energy")}
            }
        raise
    finally:
        _warn_stability(guard, None if seeds is None else batch)
    table["xi"][n], guard[n] = table["xi"][n - 1], guard[n - 1]   # the last step's, again
    # one contiguous (B, n + 1) block per quantity; member b reads row b
    rows = {name: table[name].reshape(n + 1, -1).T.copy() for name in names}
    records = [
        RunRecord(
            times=times,
            **{name: rows[name][b] for name in names},
            snapshots=[
                (i, WaveFunction(config.grid, vals[b])) for i, vals in snapshots
            ],
        )
        for b in range(len(batch))
    ]
    return records if seeds is not None else records[0]


def ehrenfest_residual(record: RunRecord, config: SimConfig) -> np.ndarray:
    """Residual of the averaged equation of motion on the snapshot stride.

    r(t) = m d2<x>/dt2 + s*m*friction*int Jt dx + <V'> - <f'> xi(t),
    with s = SIGNS[config.sign] (V_d's sign) and the acceleration from
    central differences of the recorded <x>.
    Returned at interior snapshot indices.
    """
    snaps = [(i, psi) for i, psi in record.snapshots if 0 < i < len(record.times) - 1]
    if len(snaps) < 1 or len(record.times) < 3:
        raise InsufficientData("need snapshots at interior steps for the residual")
    m = config.params.mass
    dt = config.dt
    grid = config.grid
    vp = config.potential.on_grid(grid, 1)
    fp = config.coupling.on_grid(grid, 1)
    damping = SIGNS[config.sign] * m * config.friction
    out = np.empty(len(snaps))
    for j, (i, psi) in enumerate(snaps):
        acc = (record.mean_x[i + 1] - 2 * record.mean_x[i] + record.mean_x[i - 1]) / dt**2
        rho = psi.density()
        n2 = integrate_values(grid, rho)
        jt_int = integrate_values(grid, tilde_current(psi, config.coupling, config.params))
        mean_vp = integrate_values(grid, vp * rho) / n2
        mean_fp = integrate_values(grid, fp * rho) / n2
        out[j] = m * acc + damping * jt_int + mean_vp - mean_fp * record.xi[i]
    return out
