import numpy as np
import pytest

from gsle.bath import noise_rows
from gsle.fields import Grid, PhysicalParams, WaveFunction, normalize


@pytest.fixture
def grid():
    return Grid(-20.0, 20.0, 512)


@pytest.fixture
def params():
    return PhysicalParams()


def gaussian_state(grid, x0=0.0, p0=0.0, sigma=1.0, hbar=1.0):
    """Normalized Gaussian packet exp(-(x-x0)^2/4sigma^2 + i p0 x / hbar)."""
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    return normalize(WaveFunction(grid, psi))


def plane_wave(grid, n_modes):
    """exp(ikx)/sqrt(L) with k commensurate with the periodic box."""
    k = 2.0 * np.pi * n_modes / grid.length
    x = grid.x
    return WaveFunction(grid, np.exp(1j * k * x) / np.sqrt(grid.length)), k


def noise_array(*args):
    """The slabs of bath.noise_rows(*args) joined along time: (len(seeds), n_steps)."""
    return np.concatenate(list(noise_rows(*args)), axis=1)
