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

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathSpec, memory_kernel, sample_bath_noise
from .coupling import CouplingFunction, PotentialSpec
from .errors import ConfigError, MemoryBudgetExceeded, NumericalBlowup
from .evolve import NoiseSpec
from .fields import PhysicalParams


@dataclass(frozen=True)
class GaussianCloud:
    x0: float = 0.0
    p0: float = 0.0
    sigma_x: float = 0.0
    sigma_p: float = 0.0


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
    history_cap: int = 200_000

    def __post_init__(self):
        if self.potential is None:
            object.__setattr__(self, "potential", PotentialSpec.free())
        if self.coupling is None:
            object.__setattr__(self, "coupling", CouplingFunction.linear())
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
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


@contextmanager
def _blowup_on_overflow():
    """Raise NumericalBlowup at the first force that overflows or turns invalid."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalBlowup(f"non-finite classical force: {exc}") from exc


@_blowup_on_overflow()
def langevin_step(x, v, config: LangevinConfig, xi_n):
    """One velocity-Verlet step; x, v, xi_n may be arrays over particles."""
    m = config.params.mass
    dt = config.dt
    alpha = config.friction
    f = config.coupling
    vprime = config.potential

    fp = np.asarray(f(x, 1), dtype=float)
    noise_force = fp * xi_n                       # frozen at the step start
    a0 = (-np.asarray(vprime(x, 1), dtype=float) + noise_force) / m
    # friction at the half-step velocity: implicit into the half step,
    # explicit out of it, so the full step sees midpoint-rule damping
    v_half = (v + 0.5 * dt * a0) / (1.0 + 0.5 * dt * alpha * fp**2)
    x_new = x + dt * v_half
    fp_new = np.asarray(f(x_new, 1), dtype=float)
    a1 = (
        -np.asarray(vprime(x_new, 1), dtype=float) + noise_force
    ) / m - alpha * fp_new**2 * v_half
    v_new = v_half + 0.5 * dt * a1
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise NumericalBlowup("non-finite classical state")
    return x_new, v_new


class GleIntegrator:
    """Stateful integrator for the memory-kernel equation of motion.

    Keeps the history of w(t) = f'(x(t)) x'(t) and evaluates the friction
    integral by the trapezoid rule, truncated where the kernel has decayed
    below 1e-4 of its t=0 value.
    """

    def __init__(self, config: LangevinConfig, x0, v0):
        if config.memory is None:
            raise ConfigError("GleIntegrator needs config.memory = BathSpec")
        self.config = config
        self.x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        self.v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
        self.n = 0
        kern_full = memory_kernel(config.memory, config.dt * np.arange(config.n_steps + 1))
        k0 = abs(kern_full[0])
        keep = np.nonzero(np.abs(kern_full) >= 1e-4 * k0)[0]
        self.max_lag = int(keep[-1]) if keep.size else 0
        if self.max_lag + 1 > config.history_cap:
            raise MemoryBudgetExceeded(
                f"kernel support needs {self.max_lag + 1} history entries, "
                f"cap is {config.history_cap}"
            )
        self.kernel = kern_full[: self.max_lag + 1]
        fp = np.asarray(config.coupling(self.x, 1), dtype=float)
        self.history = [fp * self.v]               # w at t_0

    def _memory_sum(self, upto, exclude_endpoint=False):
        """Trapezoid of K(t_upto - t_j) w_j over the stored (truncated) history."""
        dt = self.config.dt
        total = np.zeros_like(self.x)
        if upto == 0:
            return total
        j_lo = max(0, upto - self.max_lag)
        n_hist = min(upto, len(self.history) - 1)
        j_hi = min(upto if not exclude_endpoint else upto - 1, n_hist)
        if j_hi < j_lo:
            return total
        for j in range(j_lo, j_hi + 1):
            weight = dt
            if j == j_lo or j == upto:
                weight = 0.5 * dt
            total = total + weight * self.kernel[upto - j] * self.history[j]
        return total

    def step(self, xi_n):
        config = self.config
        m = config.params.mass
        dt = config.dt
        f, vprime = config.coupling, config.potential
        n = self.n
        # friction sums at t_n and (history part) at t_{n+1}: they read only the
        # stored history, so they skip the overflow check, which slows numpy ops
        mem = self._memory_sum(n)
        mem_known = self._memory_sum(n + 1, exclude_endpoint=True)

        with _blowup_on_overflow():
            fp = np.asarray(f(self.x, 1), dtype=float)
            force = -np.asarray(vprime(self.x, 1), dtype=float) + fp * xi_n - m * fp * mem
            v_half = self.v + 0.5 * dt * force / m
            x_new = self.x + dt * v_half

            fp_new = np.asarray(f(x_new, 1), dtype=float)
            force_known = (
                -np.asarray(vprime(x_new, 1), dtype=float)
                + fp_new * xi_n
                - m * fp_new * mem_known
            )
            # w_{n+1} = fp_new * v_new enters with trapezoid weight dt/2 * K(0)
            denom = 1.0 + 0.25 * dt**2 * self.kernel[0] * fp_new**2
            v_new = (v_half + 0.5 * dt * force_known / m) / denom
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
            raise NumericalBlowup("non-finite GLE state")

        self.x, self.v = x_new, v_new
        self.n = n + 1
        self.history.append(fp_new * v_new)
        if len(self.history) > self.max_lag + 2:
            # entries older than the kernel support never get used again;
            # keep indices aligned by padding with a placeholder
            self.history[self.n - self.max_lag - 1] = None
        return self.x, self.v


def _particle_noise(config: LangevinConfig, seed: int) -> np.ndarray:
    """(n_steps, n_particles) noise matrix, one child stream per particle."""
    n_steps, n_particles = config.n_steps, config.n_particles
    spec = config.noise
    if spec.kind == "zero":
        return np.zeros((n_steps, n_particles))
    children = np.random.SeedSequence(seed).spawn(n_particles)
    out = np.empty((n_steps, n_particles))
    times = config.dt * np.arange(n_steps)
    if spec.kind == "white":
        sigma = np.sqrt(
            2.0 * config.params.mass * config.friction * spec.temperature / config.dt
        )
        for p, child in enumerate(children):
            rng = np.random.default_rng(child)
            out[:, p] = sigma * rng.standard_normal(n_steps)
        return out
    bath = spec.bath
    if bath is None:
        if spec.ohmic is None:
            raise ConfigError("bath noise requires an OhmicSpec or explicit BathSpec")
        from .bath import discretize_ohmic

        bath = discretize_ohmic(spec.ohmic, config.params.mass)
    for p, child in enumerate(children):
        out[:, p] = sample_bath_noise(bath, spec.temperature, times, child).values
    return out


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
    noise = _particle_noise(config, seed)

    times = config.dt * np.arange(n_steps + 1)
    mean_x = np.empty(n_steps + 1)
    mean_p = np.empty(n_steps + 1)
    var_x = np.empty(n_steps + 1)
    stderr_x = np.empty(n_steps + 1)
    stderr_p = np.empty(n_steps + 1)
    pos = np.empty((n_p, n_steps + 1)) if keep_particles else None
    vel = np.empty((n_p, n_steps + 1)) if keep_particles else None

    gle = (
        GleIntegrator(config, x, v) if config.memory is not None else None
    )

    def record(i, x, v):
        p = m * v
        mean_x[i] = x.mean()
        mean_p[i] = p.mean()
        var_x[i] = x.var()
        stderr_x[i] = x.std(ddof=1) / np.sqrt(n_p) if n_p > 1 else 0.0
        stderr_p[i] = p.std(ddof=1) / np.sqrt(n_p) if n_p > 1 else 0.0
        if keep_particles:
            pos[:, i] = x
            vel[:, i] = v

    record(0, x, v)
    for i in range(n_steps):
        if gle is not None:
            x, v = gle.step(noise[i])
        else:
            x, v = langevin_step(x, v, config, noise[i])
        record(i + 1, x, v)
    return ClassicalEnsemble(
        times=times,
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=var_x,
        stderr_x=stderr_x,
        stderr_p=stderr_p,
        positions=pos,
        velocities=vel,
        seed=seed,
    )
