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

import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyBath, InvalidField, check_count, check_number

# steps per noise_rows slab: a fixed power of two, because BLAS sums a bath slab's
# product in an order set by its width (262-step slabs changed the bits, 512 did not)
NOISE_BLOCK_STEPS = 512


@dataclass(frozen=True)
class BathSpec:
    masses: np.ndarray
    frequencies: np.ndarray
    couplings: np.ndarray
    system_mass: float = 1.0
    friction: Optional[float] = None   # the Ohmic friction discretize_ohmic built it for

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        w = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        d = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        if m.size == 0:
            raise EmptyBath("bath needs at least one oscillator")
        if not (m.size == w.size == d.size):
            raise InvalidField("bath arrays must have equal lengths")
        if not (np.isfinite([m, w, d]).all() and (m > 0).all() and (w > 0).all()):
            raise InvalidField("bath values must be finite, masses and frequencies positive")
        check_number("system_mass", self.system_mass, 0, above=True)
        if self.friction is not None:
            check_number("friction", self.friction, 0)
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
        check_number("friction", self.friction, 0)
        check_number("cutoff", self.cutoff, 0, above=True)
        check_number("temperature", self.temperature, 0)
        check_count("n_oscillators", self.n_oscillators, 1)


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "zero"               # zero | white | bath
    temperature: float = 0.0
    bath: Optional[BathSpec] = None  # the oscillators that bath noise draws from

    def __post_init__(self):
        if self.kind not in ("zero", "white", "bath"):
            raise ConfigError(f"unknown noise kind '{self.kind}'")
        check_number("noise temperature", self.temperature, 0)
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
    return BathSpec(masses, omega, d, system_mass=system_mass, friction=spec.friction)


def _bath_slabs(bath: BathSpec, temperature: float, seeds, slab_times):
    """xi over each array of times in slab_times, from one draw per seed.

    The shifted coordinates q_i = x_i(0) + d_i f(0)/(m_i omega_i^2) are
    zero-mean Gaussians with variance T/(m_i omega_i^2); momenta p_i(0)
    have variance m_i T. Each row draws q, then p, from its own stream. Then

        xi(t) = - sum_i d_i [ q_i cos(omega_i t) + (p_i/(m_i omega_i)) sin(omega_i t) ]

    with one cos/sin(omega_i t) table per slab, shared by every row.
    """
    check_number("temperature", temperature, 0)
    m, w, d = bath.masses, bath.frequencies, bath.couplings
    n = bath.n_oscillators
    qp = np.empty((len(seeds), 2 * n))
    for row, seed in enumerate(seeds):   # q, then p, from the row's own stream
        np.random.Generator(np.random.PCG64(seed)).standard_normal(out=qp[row])
    q, p = qp[:, :n], qp[:, n:]
    cos_weights = d * (q * np.sqrt(temperature / (m * w**2)))
    sin_weights = d * (p * np.sqrt(m * temperature)) / (m * w)
    for times in slab_times:
        wt = np.outer(w, times)
        # summed and negated in place: the same bits as -(a) - b, with two
        # fewer (seeds x times) temporaries at the peak of memory use
        xi = cos_weights @ np.cos(wt)
        xi += sin_weights @ np.sin(wt)
        yield np.negative(xi, out=xi)
        del wt, xi   # the caller's slab is freed before the next is drawn


def sample_bath_noise_batch(bath: BathSpec, temperature: float, times, seeds) -> np.ndarray:
    """xi(t) for each seed (as in noise_rows): one (len(seeds), len(times)) slab."""
    return next(_bath_slabs(bath, temperature, seeds, [np.asarray(times, dtype=float)]))


def white_noise_sigma(alpha: float, temperature: float, system_mass: float, dt: float):
    """Per-step standard deviation sqrt(2 m alpha T / dt) of the white-noise force.

    Held constant over each step, its discrete autocorrelation approximates
    2 m alpha T delta(t - t').
    """
    return np.sqrt(2.0 * system_mass * alpha * temperature / dt)


def spawn_seeds(seed: int, n: int) -> list:
    """The seeds of np.random.SeedSequence(seed).spawn(n): PCG64 seeded from one
    draws that child's stream, bit for bit. Child i's entropy is seed's words,
    zero-padded to four, then i: numpy's hash (NEP 19) mixes i into the pool of
    SeedSequence(seed), 4 hashmix calls a word in, and runs generate_state(4,
    uint64), here in uint32 array arithmetic over all children at once."""
    seed, mask = operator.index(seed), 0xFFFFFFFF

    def hashmix(value, h, mult):   # numpy's hashmix, or a generate_state step; and the next h
        h_next = h * mult & mask
        value = (value ^ h) * h_next
        return value ^ value >> 16, h_next

    h = 0x43B0D7E5 * pow(0x931E8875, 4 * max(4, -(-seed.bit_length() // 32)), 1 << 32) & mask
    index, pool = np.arange(n, dtype=np.uint32), []
    for word in np.random.SeedSequence(seed).pool.tolist():
        value, h = hashmix(index, h, 0x931E8875)
        mixed = (word * 0xCA01F9DD & mask) - value * 0x4973F715   # numpy's mix
        pool.append(mixed ^ mixed >> 16)
    state, h = np.empty((n, 8), np.uint64), 0x8B51F9DD
    for k in range(8):
        state[:, k], h = hashmix(pool[k % 4], h, 0x58F38DED)
    table = state[:, 0::2] | state[:, 1::2] << 32   # two uint32 words per uint64, low first
    table.flags.writeable = False

    class Child(np.random.bit_generator.ISeedSequence):   # here, so gsle loads numpy.random lazily
        """Child `row`: PCG64 seeds itself from row `row` of the table."""

        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a spawned seed holds four uint64 words, the PCG64 seed")
            return table[self.row]

    return [Child(row) for row in range(n)]


def check_bath(noise: NoiseSpec, mass: float, memory: Optional[BathSpec] = None, *, friction):
    """The fluctuation-dissipation pairing, else a ConfigError: `memory` and the bath
    that bath noise draws from are each for the system mass `mass`, a memory-kernel
    run's bath noise draws from `memory` (the same object, or one equal field by
    field), and a Markovian run's bath noise from a bath discretized for its own
    `friction`, if the bath records one."""
    bath = noise.bath if noise.kind == "bath" else None
    baths = [b for b in (memory, bath) if b is not None]
    if any(b.system_mass != mass for b in baths):
        raise ConfigError(f"a bath's system_mass is not the system mass {mass}")
    if len(baths) == 2 and not all(map(np.array_equal, *(vars(b).values() for b in baths))):
        raise ConfigError("a memory-kernel run's bath noise must draw from its memory bath")
    if memory is None and bath is not None and bath.friction not in (None, friction):
        raise ConfigError(f"bath noise discretized for friction {bath.friction}, not {friction}")


def noise_rows(
    spec: NoiseSpec, friction: float, mass: float, dt: float, n_steps: int, seeds: Sequence
) -> Iterator[np.ndarray]:
    """Yield xi at t = 0, dt, ... for each seed: an int, SeedSequence or spawn_seeds seed.

    Slabs (len(seeds), k) of the next k <= NOISE_BLOCK_STEPS steps, built
    when asked for, so the noise's memory does not grow with n_steps. Row b
    is zero, or white noise drawn slab by slab from one Generator(PCG64(seeds[b])),
    built at the first slab (the stream of default_rng(seeds[b])), or the bath noise of
    sample_bath_noise_batch for that seed, its q and p drawn once: the one
    seed-to-row layout of the wave ensemble and the classical particles.
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
                rng = stream if start else np.random.Generator(np.random.PCG64(stream))
                rng.standard_normal(out=out[row])
                streams[row] = rng if start + k < n_steps else None
            out *= sigma
        yield out
        del out   # the caller's slab is freed before the next is drawn
