"""Discrete oscillator bath, memory kernel and noise sampling.

The bath is a finite set of harmonic oscillators (masses m_i, frequencies
omega_i, couplings d_i). The kernel is

    kernel(t) = (1/m) sum_i d_i^2 / (m_i omega_i^2) cos(omega_i t)

and the noise is the free bath evolution of thermally sampled initial
conditions, shifted to the coupled minimum. Under that Gibbs preparation
the classical fluctuation-dissipation relation holds:
<xi(t) xi(0)> = m T kernel(t).

`friction` names the time-independent Ohmic constant (the delta-kernel
limit); `kernel(t)` names the memory function. They are distinct objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyBath, InvalidField

# steps per noise_rows slab: a fixed power of two, because BLAS sums a bath slab's
# product in an order set by its width (262-step slabs changed the bits, 512 did not)
NOISE_BLOCK_STEPS = 512


@dataclass(frozen=True)
class BathSpec:
    masses: np.ndarray
    frequencies: np.ndarray
    couplings: np.ndarray
    system_mass: float = 1.0

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        w = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        d = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        if m.size == 0:
            raise EmptyBath("bath needs at least one oscillator")
        if not (m.size == w.size == d.size):
            raise InvalidField("bath arrays must have equal lengths")
        if np.any(m <= 0) or np.any(w <= 0):
            raise InvalidField("oscillator masses and frequencies must be positive")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "couplings", d)

    @property
    def n_oscillators(self) -> int:
        return self.masses.size

    @property
    def kernel_weights(self) -> np.ndarray:
        """c_i = d_i^2 / (m_i omega_i^2 m), the weights of memory_kernel."""
        return self.couplings**2 / (self.masses * self.frequencies**2) / self.system_mass


@dataclass(frozen=True)
class OhmicSpec:
    friction: float
    cutoff: float
    n_oscillators: int
    temperature: float = 0.0

    def __post_init__(self):
        if not self.friction >= 0:
            raise InvalidField("friction must be >= 0")
        if not self.cutoff > 0:
            raise InvalidField("cutoff must be > 0")
        if not self.temperature >= 0:
            raise InvalidField("temperature must be >= 0")
        if self.n_oscillators < 1:
            raise EmptyBath("n_oscillators must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "zero"               # zero | white | bath
    temperature: float = 0.0
    bath: Optional[BathSpec] = None  # the oscillators that bath noise draws from

    def __post_init__(self):
        if self.kind not in ("zero", "white", "bath"):
            raise ConfigError(f"unknown noise kind '{self.kind}'")
        if not self.temperature >= 0:
            raise ConfigError("noise temperature must be >= 0")
        if self.kind == "bath" and self.bath is None:
            raise ConfigError("bath noise requires a BathSpec")


def memory_kernel(bath: BathSpec, t):
    """kernel(t) = sum_i c_i cos(omega_i t), c = bath.kernel_weights."""
    t = np.asarray(t, dtype=float)
    cos = np.cos(np.outer(bath.frequencies, np.atleast_1d(t)))
    vals = (bath.kernel_weights[:, None] * cos).sum(axis=0)
    return vals[0] if t.ndim == 0 else vals


def discretize_ohmic(spec: OhmicSpec, system_mass: float = 1.0) -> BathSpec:
    """Equally spaced discretization whose kernel tends to 2*friction*delta(t).

    omega_i = i * dw with dw = cutoff/N, m_i = 1,
    d_i = omega_i sqrt(2 m friction m_i dw / pi); then
    kernel(t) ~ (2 friction/pi) sin(cutoff t)/t.
    """
    n = spec.n_oscillators
    dw = spec.cutoff / n
    omega = dw * np.arange(1, n + 1)
    masses = np.ones(n)
    d = omega * np.sqrt(2.0 * system_mass * spec.friction * masses * dw / np.pi)
    return BathSpec(masses, omega, d, system_mass=system_mass)


def _bath_slabs(bath: BathSpec, temperature: float, seeds, slab_times):
    """xi over each array of times in slab_times, from one draw per seed.

    The shifted coordinates q_i = x_i(0) + d_i f(0)/(m_i omega_i^2) are
    zero-mean Gaussians with variance T/(m_i omega_i^2); momenta p_i(0)
    have variance m_i T. Each row draws q, then p, from its own stream. Then

        xi(t) = - sum_i d_i [ q_i cos(omega_i t) + (p_i/(m_i omega_i)) sin(omega_i t) ]

    with one cos/sin(omega_i t) table per slab, shared by every row.
    """
    if temperature < 0:
        raise InvalidField("temperature must be >= 0")
    m, w, d = bath.masses, bath.frequencies, bath.couplings
    q = np.empty((len(seeds), bath.n_oscillators))
    p = np.empty_like(q)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        q[row] = rng.standard_normal(bath.n_oscillators)
        p[row] = rng.standard_normal(bath.n_oscillators)
    cos_weights = d * (q * np.sqrt(temperature / (m * w**2)))
    sin_weights = d * (p * np.sqrt(m * temperature)) / (m * w)
    for times in slab_times:
        wt = np.outer(w, times)
        # summed and negated in place: the same bits as -(a) - b, with two
        # fewer (seeds x times) temporaries at the peak of memory use
        xi = cos_weights @ np.cos(wt)
        xi += sin_weights @ np.sin(wt)
        yield np.negative(xi, out=xi)


def sample_bath_noise_batch(bath: BathSpec, temperature: float, times, seeds) -> np.ndarray:
    """xi(t) for each seed (an int or a SeedSequence): one (len(seeds), len(times)) slab."""
    return next(_bath_slabs(bath, temperature, seeds, [np.asarray(times, dtype=float)]))


def white_noise_sigma(alpha: float, temperature: float, system_mass: float, dt: float):
    """Per-step standard deviation sqrt(2 m alpha T / dt) of the white-noise force.

    Held constant over each step, its discrete autocorrelation approximates
    2 m alpha T delta(t - t').
    """
    return np.sqrt(2.0 * system_mass * alpha * temperature / dt)


def noise_rows(
    spec: NoiseSpec, friction: float, mass: float, dt: float, n_steps: int, seeds: Sequence
) -> Iterator[np.ndarray]:
    """Yield xi at t = 0, dt, ... for each seed (an int or a SeedSequence).

    Slabs (len(seeds), k) of the next k <= NOISE_BLOCK_STEPS steps, built
    when asked for, so the noise's memory does not grow with n_steps. Row b
    is zero, or white noise drawn slab by slab from one default_rng(seeds[b]),
    or the bath noise of sample_bath_noise_batch for that seed, its q and p
    drawn once: the one seed-to-row layout of the wave ensemble and the
    classical particles.
    """
    starts = range(0, n_steps, NOISE_BLOCK_STEPS)
    if spec.kind == "bath":
        slab_times = (dt * np.arange(s, min(s + NOISE_BLOCK_STEPS, n_steps)) for s in starts)
        yield from _bath_slabs(spec.bath, spec.temperature, seeds, slab_times)
        return
    sigma = white_noise_sigma(friction, spec.temperature, mass, dt)
    streams, seeds = list(seeds), None   # a stream is dropped after its last slab
    for start in starts:
        k = min(NOISE_BLOCK_STEPS, n_steps - start)
        out = np.zeros((len(streams), k))
        if spec.kind == "white":
            for row, stream in enumerate(streams):
                rng = np.random.default_rng(stream)   # a Generator is passed through
                out[row] = sigma * rng.standard_normal(k)
                streams[row] = rng if start + k < n_steps else None
        yield out
        del out   # the caller's slab is freed before the next is drawn
