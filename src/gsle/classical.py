"""Classical Langevin and generalized-Langevin ensemble integrator.

Ground truth for Ehrenfest-level validation of the wave-equation engine:

    m x'' + m*friction*f'(x)^2 x' + V'(x) = f'(x) xi(t)      (Markovian)
    m x'' + V'(x) + m f'(x) int_0^t K(t-t') f'(x') x'(t') dt' = f'(x) xi(t)

The noise force f'(x) xi uses the position at the start of each step with
xi held piecewise-constant over dt (smooth-noise, Stratonovich-consistent
convention, matching the wave-equation side). The f'^2 friction term is
treated semi-implicitly inside velocity Verlet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathSpec, NoiseSpec, memory_kernel, noise_rows
from .coupling import CouplingFunction, PotentialSpec
from .errors import ConfigError, NumericalBlowup, blowup_on_overflow
from .fields import PhysicalParams

# the per-time moments of a ClassicalEnsemble, in its CSV column order
MOMENTS = ("mean_x", "mean_p", "var_x", "stderr_x", "stderr_p")


@dataclass(frozen=True)
class GaussianCloud:
    x0: float = 0.0
    p0: float = 0.0
    sigma_x: float = 0.0
    sigma_p: float = 0.0

    def __post_init__(self):
        for name in ("x0", "p0", "sigma_x", "sigma_p"):
            value = getattr(self, name)
            if not np.isfinite(value) or (name.startswith("sigma") and value < 0):
                raise ConfigError(f"cloud {name} must be finite (a spread >= 0), got {value}")


@dataclass(frozen=True)
class LangevinConfig:
    params: PhysicalParams = PhysicalParams()
    potential: PotentialSpec = None
    coupling: CouplingFunction = None
    friction: float = 0.0
    noise: NoiseSpec = NoiseSpec()
    dt: float = 0.01
    n_steps: int = 1
    n_particles: int = 1
    initial: GaussianCloud = GaussianCloud()
    memory: Optional[BathSpec] = None     # None -> Markovian

    def __post_init__(self):
        if self.potential is None:
            object.__setattr__(self, "potential", PotentialSpec.free())
        if self.coupling is None:
            object.__setattr__(self, "coupling", CouplingFunction.linear())
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.friction < np.inf:
            raise ConfigError(f"friction must be finite and >= 0, got {self.friction}")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")


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
    seed: int = 0


@blowup_on_overflow("non-finite classical force")
def langevin_step(x, v, config: LangevinConfig, xi_n):
    """One velocity-Verlet step; x, v, xi_n may be arrays over particles."""
    m = config.params.mass
    dt = config.dt
    alpha = config.friction
    f = config.coupling
    vprime = config.potential

    fp = f(x, 1)
    noise_force = fp * xi_n                       # frozen at the step start
    a0 = (-vprime(x, 1) + noise_force) / m
    # friction at the half-step velocity: implicit into the half step,
    # explicit out of it, so the full step sees midpoint-rule damping
    v_half = (v + 0.5 * dt * a0) / (1.0 + 0.5 * dt * alpha * fp**2)
    x_new = x + dt * v_half
    fp_new = f(x_new, 1)
    a1 = (-vprime(x_new, 1) + noise_force) / m - alpha * fp_new**2 * v_half
    v_new = v_half + 0.5 * dt * a1
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise NumericalBlowup("non-finite classical state")
    return x_new, v_new


class GleIntegrator:
    """Stateful integrator for the memory-kernel equation of motion.

    The friction integral of w(t) = f'(x(t)) x'(t) is the trapezoid rule over
    the whole history, untruncated. The kernel is a cosine sum,
    K(t) = sum_i c_i cos(omega_i t), so the history enters only through one
    complex running sum per oscillator and particle (a Markovian embedding):

        z_i(n) = w_0 / 2 + sum_{j=1..n} exp(-i omega_i t_j) w_j
        sum_{j=0..n} K(t_{n+1} - t_j) w_j  (w_0 at half weight)
            = sum_i c_i Re(exp(i omega_i t_{n+1}) z_i(n))

    The endpoint w_{n+1} adds dt/2 K(0) w_{n+1}, taken implicitly in v_{n+1}.
    The state is (n_osc, n_particles) whatever the run length.
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
        w0 = config.coupling(self.x, 1) * self.v
        self.z = np.zeros((self.omega.size, self.x.size), dtype=complex) + 0.5 * w0
        self.mem = np.zeros_like(self.x)    # friction sum at t_n: none at t_0

    def step(self, xi_n):
        config = self.config
        m = config.params.mass
        dt = config.dt
        f, vprime = config.coupling, config.potential
        # the history part of the friction sum at t_{n+1}: it reads only stored
        # sums, so it skips the overflow check, which slows numpy ops
        phase = np.exp(1j * self.omega * (dt * (self.n + 1)))
        mem_known = dt * ((self.weights * phase)[:, None] * self.z).real.sum(axis=0)

        with blowup_on_overflow("non-finite classical force"):
            fp = f(self.x, 1)
            force = -vprime(self.x, 1) + fp * xi_n - m * fp * self.mem
            v_half = self.v + 0.5 * dt * force / m
            x_new = self.x + dt * v_half

            fp_new = f(x_new, 1)
            force_known = -vprime(x_new, 1) + fp_new * xi_n - m * fp_new * mem_known
            # w_{n+1} = fp_new * v_new enters with trapezoid weight dt/2 * K(0)
            denom = 1.0 + 0.25 * dt**2 * self.k0 * fp_new**2
            v_new = (v_half + 0.5 * dt * force_known / m) / denom
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
            raise NumericalBlowup("non-finite GLE state")

        w_new = fp_new * v_new
        self.x, self.v = x_new, v_new
        self.n += 1
        # the friction sum at t_{n+1} adds its endpoint term; w_{n+1} joins the sums
        self.mem = mem_known + 0.5 * dt * self.k0 * w_new
        self.z += phase.conj()[:, None] * w_new
        return self.x, self.v


def langevin_ensemble(
    config: LangevinConfig, seed: int, keep_particles: bool = False
) -> ClassicalEnsemble:
    """Independent particles, deterministic per (config, seed).

    Noise and initial conditions use child streams derived from the master
    seed, so results do not depend on execution order or parallelism.
    """
    n_steps, n_p = config.n_steps, config.n_particles
    m = config.params.mass
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1C0]))
    x = config.initial.x0 + config.initial.sigma_x * init_rng.standard_normal(n_p)
    v = (
        config.initial.p0 + config.initial.sigma_p * init_rng.standard_normal(n_p)
    ) / m
    # row p drives particle p from child stream p, and none is spawned for zero
    # noise; a slab's .T gives one step per row
    noise = noise_rows(
        config.noise, config.friction, m, config.dt, n_steps,
        range(n_p) if config.noise.kind == "zero" else np.random.SeedSequence(seed).spawn(n_p),
    )

    times = config.dt * np.arange(n_steps + 1)
    moments = {name: np.empty(n_steps + 1) for name in MOMENTS}
    se = lambda a: a.std(ddof=1) / np.sqrt(n_p) if n_p > 1 else 0.0
    pos = np.empty((n_p, n_steps + 1)) if keep_particles else None
    vel = np.empty((n_p, n_steps + 1)) if keep_particles else None

    gle = (
        GleIntegrator(config, x, v) if config.memory is not None else None
    )

    def record(i, x, v):
        p = m * v
        for name, value in zip(MOMENTS, (x.mean(), p.mean(), x.var(), se(x), se(p))):
            moments[name][i] = value
        if keep_particles:
            pos[:, i] = x
            vel[:, i] = v

    record(0, x, v)
    for i, xi_n in enumerate(xi for slab in noise for xi in slab.T):
        if gle is not None:
            x, v = gle.step(xi_n)
        else:
            x, v = langevin_step(x, v, config, xi_n)
        record(i + 1, x, v)
    return ClassicalEnsemble(times, **moments, positions=pos, velocities=vel, seed=seed)
