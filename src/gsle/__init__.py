"""1D generalized Schrodinger-Langevin (Kostin) simulator.

Subpackages:
    fields      grid, quadrature, spectral calculus, observables
    coupling    smooth profiles: coupling functions f(x) and potentials V(x)
    bath        oscillator bath, memory kernel, noise sampling
    potentials  dissipative/random/measurement/quantum potentials
    evolve      split-operator propagation of the nonlinear wave equation
    bohmian     polar decomposition, trajectories, weak values
    classical   Langevin / generalized-Langevin ensemble oracle
    cli         config parsing, experiment orchestration, file output
"""

from . import bath, bohmian, classical, coupling, errors, evolve, fields, potentials

__all__ = [
    "bath",
    "bohmian",
    "classical",
    "coupling",
    "errors",
    "evolve",
    "fields",
    "potentials",
]

__version__ = "0.1.0"
