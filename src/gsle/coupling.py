"""Smooth profiles g(x) with g' and g'': the coupling f(x) and the potential V(x).

One type serves both: analytic couplings (linear, constant, power,
sinusoidal), analytic potentials (free, harmonic, linear_ramp, double_well,
cubic) and cubic-spline tabulated profiles, including the coupling derived
from a monotone potential, f(x) = integral_0^x sqrt(V'(y)) dy.
"""

from __future__ import annotations

import numpy as np

from .errors import NonmonotonePotential, OutOfDomain, UnsupportedOrder, check_count, check_number
from .fields import CubicSpline, Grid, cumulative_integral

VPRIME_FLOOR = 1e-8   # gup_coupling takes V' <= VPRIME_FLOOR as a zero of V'


def _finite(kind: str, **values):
    """Each of values is a finite number (errors.check_number), named "<kind> <name>"."""
    for name, value in values.items():
        check_number(f"{kind} {name}", value)


class CouplingFunction:
    """g(x) with g' and g'' evaluable at any point; call as g(x, order).

    Use the factory classmethods. Tabulated profiles carry their `domain`
    (lo, hi) and reject points outside it.
    """

    def __init__(self, funcs, domain=None):
        self._funcs = funcs          # tuple (g, g', g'') of vectorized callables
        self.domain = domain

    # ---- coupling factories ----------------------------------------------

    @classmethod
    def linear(cls):
        return cls((lambda x: x, np.ones_like, np.zeros_like))

    @classmethod
    def constant(cls, c=1.0):
        _finite("constant coupling", c=c)
        return cls((lambda x: np.full_like(x, c), np.zeros_like, np.zeros_like))

    @classmethod
    def power(cls, n):
        """f = x^n for an integer n >= 0; a zero coefficient gives exact zeros
        (not 0 * x^-1, which is NaN at x = 0)."""
        check_count("power coupling n", n, 0)
        term = lambda c, p: np.zeros_like if c == 0 else (lambda x: c * x**p)
        return cls((lambda x: x**n, term(n, n - 1), term(n * (n - 1), n - 2)))

    @classmethod
    def sinusoidal(cls, a=1.0, k=1.0):
        _finite("sinusoidal coupling", a=a, k=k)
        return cls((
            lambda x: a * np.sin(k * x),
            lambda x: a * k * np.cos(k * x),
            lambda x: -a * k * k * np.sin(k * x),
        ))

    # ---- potential factories ---------------------------------------------

    @classmethod
    def free(cls):
        return cls((np.zeros_like,) * 3)

    @classmethod
    def harmonic(cls, omega=1.0, mass=1.0, center=0.0):
        _finite("harmonic potential", omega=omega, mass=mass, center=center)
        k = mass * omega**2
        return cls((
            lambda x: 0.5 * k * (x - center) ** 2,
            lambda x: k * (x - center),
            lambda x: np.full_like(x, k),
        ))

    @classmethod
    def linear_ramp(cls, b=1.0):
        _finite("linear_ramp potential", b=b)
        return cls((lambda x: b * x, lambda x: np.full_like(x, b), np.zeros_like))

    @classmethod
    def double_well(cls, a=1.0, b=1.0):
        # V = a x^4 - b x^2
        _finite("double_well potential", a=a, b=b)
        return cls((
            lambda x: a * x**4 - b * x**2,
            lambda x: 4 * a * x**3 - 2 * b * x,
            lambda x: 12 * a * x**2 - 2 * b,
        ))

    @classmethod
    def cubic(cls, c=1.0):
        # V = c x^3 / 3, so V' = c x^2 >= 0 for c > 0
        _finite("cubic potential", c=c)
        return cls((lambda x: c * x**3 / 3.0, lambda x: c * x**2, lambda x: 2 * c * x))

    @classmethod
    def tabulated(cls, x, f, df=None, d2f=None):
        """numpy not-a-knot splines (`fields.CubicSpline`) of the tables, >= 4 knots.

        Without df/d2f, orders 1 and 2 are read from the f spline.
        """
        sp = CubicSpline.not_a_knot(x, f)
        sp1 = CubicSpline.not_a_knot(x, df) if df is not None else lambda p: sp(p, 1)
        sp2 = CubicSpline.not_a_knot(x, d2f) if d2f is not None else lambda p: sp(p, 2)
        return cls((sp, sp1, sp2), domain=(float(sp.x[0]), float(sp.x[-1])))

    # ---- evaluation ------------------------------------------------------

    def __call__(self, x, order=0) -> np.ndarray:
        """g, g' or g'' at the points x, as a float array of x's shape."""
        if order not in (0, 1, 2):
            raise UnsupportedOrder(f"derivative order must be 0, 1 or 2, got {order}")
        x = np.asarray(x, dtype=float)
        if self.domain is not None:
            lo, hi = self.domain
            tol = 1e-9 * max(1.0, abs(hi - lo))
            if np.any(x < lo - tol) or np.any(x > hi + tol):
                raise OutOfDomain(
                    f"x outside tabulation range [{lo:g}, {hi:g}]"
                )
            x = np.clip(x, lo, hi)
        return np.asarray(self._funcs[order](x), dtype=float)

    def on_grid(self, grid: Grid, order=0) -> np.ndarray:
        return self(grid.x, order)


# The external potential V(x) is the same kind of profile as f(x).
PotentialSpec = CouplingFunction


def monotone_slope(V, grid: Grid, use: str) -> np.ndarray:
    """V' on the grid, if finite and >= 0 there up to round-off; else NonmonotonePotential."""
    with np.errstate(over="ignore", invalid="ignore"):
        vp = V.on_grid(grid, 1)
    if not np.isfinite(vp).all() or np.any(vp < -1e-12 * max(1.0, np.abs(vp).max())):
        raise NonmonotonePotential(f"V'(x) not finite and >= 0 on the grid; {use} undefined")
    return vp


def gup_coupling(V, grid: Grid) -> CouplingFunction:
    """Coupling f(x) = integral_0^x sqrt(V'(y)) dy for a monotone potential.

    f' = sqrt(V'), f'' = V''/(2 sqrt(V')); f'' is set to 0 at isolated zeros
    of V' (removable singularity). V must satisfy V' >= 0 on the grid.
    """
    x = grid.x
    vp = np.maximum(monotone_slope(V, grid, "sqrt(V') coupling"), 0.0)
    fp = np.sqrt(vp)
    fv = cumulative_integral(grid, fp)
    # anchor f(0) = 0 (linear interpolation if 0 is off-grid)
    fv -= np.interp(0.0, x, fv)
    vpp = V.on_grid(grid, 2)
    fpp = np.where(vp > VPRIME_FLOOR, vpp / (2.0 * np.sqrt(np.maximum(vp, VPRIME_FLOOR))), 0.0)
    return CouplingFunction.tabulated(x, fv, df=fp, d2f=fpp)
