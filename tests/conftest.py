import numpy as np
import pytest

from gsle.bath import noise_rows
from gsle.fields import Grid, PhysicalParams, WaveFunction, density_terms, normalize


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


def real_potential_of(ws, vals, xi_n):
    """U of the states vals themselves: the workspace's real_potential of their
    vd_slope and density_terms (a wave step builds U of its predicted slope)."""
    rho, floored, norm = density_terms(ws.grid, vals)
    return ws.real_potential(xi_n, ws.vd_slope(vals, None, floored), rho, norm)
