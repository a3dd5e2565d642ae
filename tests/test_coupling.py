"""Coupling functions f(x) and the square-root-of-force construction."""

import numpy as np
import pytest

from gsle.coupling import CouplingFunction, gup_coupling
from gsle.errors import ConfigError, NonmonotonePotential, OutOfDomain, UnsupportedOrder
from gsle.fields import Grid
from gsle.potentials import PotentialSpec


class TestEval:
    def test_linear(self):
        f = CouplingFunction.linear()
        assert f(3.7, 0) == pytest.approx(3.7)
        assert f(3.7, 1) == 1.0
        assert f(3.7, 2) == 0.0

    def test_power_two(self):
        f = CouplingFunction.power(2)
        assert f(2.0, 0) == pytest.approx(4.0)
        assert f(2.0, 1) == pytest.approx(4.0)
        assert f(2.0, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "n, same", [(0, CouplingFunction.constant(1.0)), (1, CouplingFunction.linear())],
        ids=["zero_is_constant", "one_is_linear"],
    )
    def test_power_low_orders(self, n, same):
        """x^0 and x^1 on a grid through x = 0: zero coefficients give exact
        zeros, not 0 * x^-1."""
        grid = Grid(-20.0, 20.0, 512)
        assert 0.0 in grid.x
        for order in (0, 1, 2):
            got = CouplingFunction.power(n).on_grid(grid, order)
            assert np.array_equal(got, same.on_grid(grid, order)), order

    @pytest.mark.parametrize("n", [-1, 1.5, np.nan])
    def test_power_needs_integer_n(self, n):
        with pytest.raises(ConfigError, match="power coupling n"):
            CouplingFunction.power(n)

    def test_sinusoidal(self):
        f = CouplingFunction.sinusoidal(1.0, 2.0)
        assert f(0.0, 1) == pytest.approx(2.0)
        assert f(np.pi / 4, 0) == pytest.approx(1.0)

    def test_constant(self):
        f = CouplingFunction.constant(5.0)
        assert f(1.23, 0) == 5.0
        assert f(1.23, 1) == 0.0

    def test_bad_order(self):
        with pytest.raises(UnsupportedOrder):
            CouplingFunction.linear()(0.0, 3)

    def test_tabulated_out_of_domain(self):
        x = np.linspace(-1, 1, 50)
        f = CouplingFunction.tabulated(x, x**2)
        with pytest.raises(OutOfDomain):
            f(2.0, 0)

    def test_potential_is_the_same_profile_type(self):
        assert PotentialSpec is CouplingFunction
        V = PotentialSpec.tabulated(np.linspace(-5, 5, 300), np.linspace(-5, 5, 300) ** 2)
        with pytest.raises(OutOfDomain):
            V(6.0, 1)

    def test_tabulated_matches_samples(self):
        x = np.linspace(-2, 2, 200)
        f = CouplingFunction.tabulated(x, np.sin(x))
        assert f(0.5, 0) == pytest.approx(np.sin(0.5), abs=1e-6)
        assert f(0.5, 1) == pytest.approx(np.cos(0.5), abs=1e-4)


@pytest.mark.parametrize(
    "f",
    [
        CouplingFunction.linear(),
        CouplingFunction.power(3),
        CouplingFunction.sinusoidal(1.5, 0.7),
        CouplingFunction.tabulated(np.linspace(-4, 4, 400), np.tanh(np.linspace(-4, 4, 400))),
    ],
    ids=["linear", "power3", "sinusoidal", "tabulated"],
)
def test_finite_difference_consistency(f):
    """f' must match the centered difference of f at second order in h."""
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2.0, 2.0, 5)
    for x in xs:
        errs = []
        for h in (1e-2, 5e-3):
            fd = (f(x + h, 0) - f(x - h, 0)) / (2 * h)
            errs.append(abs(fd - f(x, 1)))
        # quartering under halving, up to round-off floor
        assert errs[1] <= 0.3 * errs[0] + 1e-9


class TestGupCoupling:
    def test_linear_ramp(self):
        g = Grid(-20, 20, 512)
        f = gup_coupling(PotentialSpec.linear_ramp(4.0), g)
        assert f(3.0, 0) == pytest.approx(6.0, abs=1e-8)
        assert f(3.0, 1) == pytest.approx(2.0, abs=1e-10)

    def test_cubic_potential_closed_form(self):
        # V = x^3/3 gives f' = |x|, so f(x) = x|x|/2 and f(4) = 8
        g = Grid(-20, 20, 1024)
        f = gup_coupling(PotentialSpec.cubic(1.0), g)
        assert f(4.0, 0) == pytest.approx(8.0, abs=2e-4)
        assert f(-4.0, 0) == pytest.approx(-8.0, abs=2e-4)

    def test_harmonic_rejected(self):
        g = Grid(-20, 20, 512)
        with pytest.raises(NonmonotonePotential):
            gup_coupling(PotentialSpec.harmonic(1.0), g)

    def test_derivative_squares_to_force(self):
        g = Grid(-20, 20, 1024)
        V = PotentialSpec.cubic(1.0)
        f = gup_coupling(V, g)
        vp = V(g.x, 1)
        fp2 = np.asarray(f(g.x, 1)) ** 2
        sel = vp > 1e-8
        rel = np.abs(fp2[sel] - vp[sel]) / vp[sel]
        assert rel.max() < 1e-6

    def test_anchored_at_origin(self):
        g = Grid(-20, 20, 512)
        f = gup_coupling(PotentialSpec.linear_ramp(1.0), g)
        assert f(0.0, 0) == pytest.approx(0.0, abs=1e-12)
