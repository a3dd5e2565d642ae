"""1D generalized Schrodinger-Langevin (Kostin) simulator.

Subpackages:
    fields      grid, wavefunctions, quadrature, spectral calculus, observables
    coupling    smooth profiles: coupling functions f(x) and potentials V(x)
    bath        oscillator bath, memory kernel, noise rows
    potentials  current and dissipative potential V_d/W, GUP diagnostics
    evolve      split-operator propagation of the nonlinear wave equation,
                with the random potential and the measurement kick
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
