"""Classical Langevin and generalized-Langevin ensemble integrator.

Ground truth for Ehrenfest-level validation of the wave-equation engine:

    m x'' + m*friction*f'(x)^2 x' + V'(x) = f'(x) xi(t)      (Markovian)
    m x'' + V'(x) + m f'(x) int_0^t K(t-t') f'(x') x'(t') dt' = f'(x) xi(t)

xi is held piecewise-constant over dt (smooth-noise, Stratonovich-consistent
convention, matching the wave-equation side). `langevin_step` freezes the
noise force f'(x_n) xi at the step start over both half kicks;
`GleIntegrator.step` takes f'(x_n) xi in its first half kick and f'(x_{n+1}) xi
in its second. The f'^2 friction term is treated semi-implicitly inside
velocity Verlet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bath import BathSpec, NoiseSpec, check_bath, memory_kernel, noise_rows, spawn_seeds
from .coupling import CouplingFunction, PotentialSpec
from .errors import ConfigError, NumericalBlowup, check_count, check_number
from .fields import BlockRecorder, PhysicalParams

# the per-time moments of a ClassicalEnsemble, in its CSV column order
MOMENTS = ("mean_x", "mean_p", "var_x", "stderr_x", "stderr_p")
# rows of w = f'(x) x' that GleIntegrator buffers before folding them into its sums
MEMORY_BLOCK = 64


@dataclass(frozen=True)
class GaussianCloud:
    x0: float = 0.0
    p0: float = 0.0
    sigma_x: float = 0.0
    sigma_p: float = 0.0

    def __post_init__(self):
        for name, low in (("x0", None), ("p0", None), ("sigma_x", 0), ("sigma_p", 0)):
            check_number(f"cloud {name}", getattr(self, name), low)


@dataclass(frozen=True)
class LangevinConfig:
    params: PhysicalParams = PhysicalParams()
    potential: PotentialSpec = field(default_factory=PotentialSpec.free)
    coupling: CouplingFunction = field(default_factory=CouplingFunction.linear)
    friction: float = 0.0
    noise: NoiseSpec = NoiseSpec()
    dt: float = 0.01
    n_steps: int = 1
    n_particles: int = 1
    initial: GaussianCloud = GaussianCloud()
    memory: Optional[BathSpec] = None     # None -> Markovian

    def __post_init__(self):
        check_number("dt", self.dt, 0, above=True)
        check_number("friction", self.friction, 0)
        check_count("n_steps", self.n_steps, 1)
        check_count("n_particles", self.n_particles, 1)
        # GleIntegrator reads no friction, and white noise is scaled by it
        if self.memory is not None and (self.friction or self.noise.kind == "white"):
            raise ConfigError("memory-kernel runs take zero or bath noise and no friction")
        check_bath(self.noise, self.params.mass, self.memory, friction=self.friction)


@dataclass
class ClassicalEnsemble:
    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    stderr_x: np.ndarray
    stderr_p: np.ndarray
    positions: Optional[np.ndarray] = None   # (n_particles, n_times) if kept
    velocities: Optional[np.ndarray] = None


def langevin_step(x, v, config: LangevinConfig, xi_n, slopes=None):
    """One unchecked velocity-Verlet step; x, v, xi_n may be arrays over particles.

    slopes, a list that a caller carries from step to step, saves evaluating
    f'(x) and V'(x): the step takes the pair (f'(x), V'(x)) out of it when it
    holds one, and puts the pair at the new x into it.
    """
    m = config.params.mass
    dt = config.dt
    alpha = config.friction
    f = config.coupling
    vprime = config.potential

    fp, vp = slopes.pop() if slopes else (f(x, 1), vprime(x, 1))
    noise_force = fp * xi_n                       # frozen at the step start
    a0 = (-vp + noise_force) / m
    # friction at the half-step velocity: implicit into the half step,
    # explicit out of it, so the full step sees midpoint-rule damping
    v_half = (v + 0.5 * dt * a0) / (1.0 + 0.5 * dt * alpha * fp**2)
    del fp, vp, a0   # freed before the slopes at the new x are made
    x_new = x + dt * v_half
    fp_new, vp_new = f(x_new, 1), vprime(x_new, 1)
    a1 = (-vp_new + noise_force) / m - alpha * fp_new**2 * v_half
    v_new = v_half + 0.5 * dt * a1
    if slopes is not None:
        slopes.append((fp_new, vp_new))
    return x_new, v_new


class GleIntegrator:
    """Stateful integrator for the memory-kernel equation of motion.

    The friction integral of w(t) = f'(x(t)) x'(t) is the trapezoid rule over
    the whole history, untruncated. The kernel is a cosine sum,
    K(t) = sum_i c_i cos(omega_i t), and cos(a - b) = cos a cos b + sin a sin b,
    so the history up to step J enters only through two sums per oscillator
    and particle (a Markovian embedding), and the steps since J through a
    buffer of at most MEMORY_BLOCK rows, W_k = w_{J+k}:

        z_i = sum_{j<J} (cos(omega_i t_j), sin(omega_i t_j)) w_j
        sum_{j=0..n} K(t_{n+1} - t_j) w_j  (r = n + 1 - J rows buffered)
            = sum_i c_i (cos(omega_i t_{n+1}), sin(omega_i t_{n+1})) . z_i
              + sum_{k<r} K(t_{r-k}) W_k

    w_0 is held at half weight, as the trapezoid rule takes it. A full buffer
    folds into z with one product, and J moves on by MEMORY_BLOCK. The
    endpoint w_{n+1} adds dt/2 K(0) w_{n+1}, taken implicitly in v_{n+1}. The
    state is (2 n_osc + MEMORY_BLOCK, n_particles) whatever the run length.
    f'(x) and V'(x) are evaluated once per state and carried to the next step.
    step checks nothing: langevin_ensemble checks each new state.
    """

    def __init__(self, config: LangevinConfig, x0, v0):
        if config.memory is None:
            raise ConfigError("GleIntegrator needs config.memory = BathSpec")
        self.config = config
        self.x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        self.v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
        self.n = 0
        self.omega = config.memory.frequencies
        self.weights = config.memory.kernel_weights
        self.k0 = memory_kernel(config.memory, 0.0)
        # K(t_B), ..., K(t_1): lags[B - r:] weighs r buffered rows, oldest first
        self.lags = memory_kernel(config.memory, config.dt * np.arange(MEMORY_BLOCK, 0, -1))
        self.z = np.zeros((2, self.omega.size, self.x.size))   # the cos and the sin sums
        self.w = np.empty((MEMORY_BLOCK, self.x.size))
        self.fp, self.vp = config.coupling(self.x, 1), config.potential(self.x, 1)   # at x
        self.w[0] = 0.5 * self.fp * self.v
        self.filled = 1     # rows buffered: w_{n+1-filled} .. w_n
        self.mem = np.zeros_like(self.x)    # friction sum at t_n: none at t_0

    def step(self, xi_n):
        config = self.config
        m = config.params.mass
        dt = config.dt
        f, vprime = config.coupling, config.potential
        r = self.filled
        # the history part of the friction sum at t_{n+1}
        wt = self.omega * (dt * (self.n + 1))
        folded = (self.weights * np.cos(wt)) @ self.z[0] + (self.weights * np.sin(wt)) @ self.z[1]
        mem_known = dt * (folded + self.lags[MEMORY_BLOCK - r:] @ self.w[:r])

        fp = self.fp
        force = -self.vp + fp * xi_n - m * fp * self.mem
        v_half = self.v + 0.5 * dt * force / m
        x_new = self.x + dt * v_half

        fp_new, vp_new = f(x_new, 1), vprime(x_new, 1)
        force_known = -vp_new + fp_new * xi_n - m * fp_new * mem_known
        # w_{n+1} = fp_new * v_new enters with trapezoid weight dt/2 * K(0)
        denom = 1.0 + 0.25 * dt**2 * self.k0 * fp_new**2
        v_new = (v_half + 0.5 * dt * force_known / m) / denom

        w_new = fp_new * v_new
        self.x, self.v, self.fp, self.vp = x_new, v_new, fp_new, vp_new
        self.n += 1
        # the friction sum at t_{n+1} adds its endpoint term; w_{n+1} joins the buffer
        self.mem = mem_known + 0.5 * dt * self.k0 * w_new
        if r == MEMORY_BLOCK:   # fold w_{n+1-B} .. w_n into z
            wt = np.outer(self.omega, dt * np.arange(self.n - r, self.n))
            self.z[0] += np.cos(wt) @ self.w
            self.z[1] += np.sin(wt) @ self.w
            r = 0
        self.w[r] = w_new
        self.filled = r + 1
        return self.x, self.v


def langevin_ensemble(
    config: LangevinConfig, seed: int, keep_particles: bool = False
) -> ClassicalEnsemble:
    """Independent particles, deterministic per (config, seed).

    Noise and initial conditions use child streams derived from the master
    seed (an integer >= 0), so results do not depend on execution order or
    parallelism; particle p's noise is child p of SeedSequence(seed) (bath.spawn_seeds).
    A non-finite state or float overflow is NumericalBlowup at t, the first state that fails.
    """
    check_count("seed", seed, 0)
    n_steps, n_p = config.n_steps, config.n_particles
    m = config.params.mass
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1C0]))
    x = config.initial.x0 + config.initial.sigma_x * init_rng.standard_normal(n_p)
    v = (
        config.initial.p0 + config.initial.sigma_p * init_rng.standard_normal(n_p)
    ) / m
    # row p drives particle p from child stream p, and zero noise builds no
    # seed; a slab's .T gives one step per row
    noise = noise_rows(
        config.noise, config.friction, m, config.dt, n_steps,
        range(n_p) if config.noise.kind == "zero" else spawn_seeds(seed, n_p),
    )

    times = config.dt * np.arange(n_steps + 1)
    moments = {name: np.empty(n_steps + 1) for name in MOMENTS}
    se = lambda a: a.std(axis=1, ddof=1) / np.sqrt(n_p) if n_p > 1 else 0.0
    pos = np.empty((n_p, n_steps + 1)) if keep_particles else None
    vel = np.empty((n_p, n_steps + 1)) if keep_particles else None
    # x and v of a block of steps, reduced row by row in one call per moment

    def reduce(steps, x, v):
        p = m * v
        values = (x.mean(axis=1), p.mean(axis=1), x.var(axis=1), se(x), se(p))
        for name, value in zip(MOMENTS, values):
            moments[name][steps] = value
        if keep_particles:
            pos[:, steps] = x.T
            vel[:, steps] = v.T

    recorder = BlockRecorder(times, (x, v), reduce, "non-finite classical force")
    slopes = []   # f'(x) and V'(x) of the Markov state, carried from step to step
    with recorder:
        gle = GleIntegrator(config, x, v) if config.memory is not None else None
        recorder.push(x, v)
        for slab in noise:
            for xi_n in slab.T:
                x, v = (gle.step(xi_n) if gle is not None
                        else langevin_step(x, v, config, xi_n, slopes))
                if not (np.isfinite(x).all() and np.isfinite(v).all()):
                    raise NumericalBlowup("non-finite classical state")
                recorder.push(x, v)
            del slab, xi_n   # so only one slab is alive while the next is drawn
    return ClassicalEnsemble(times, **moments, positions=pos, velocities=vel)
