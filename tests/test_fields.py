"""Grid, quadrature, spectral calculus, observables and the cubic spline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_state, plane_wave
from gsle.errors import (
    ConfigError, DegenerateState, InvalidField, NumericalBlowup, UnsupportedOrder,
)
from gsle.fields import (
    BlockRecorder,
    CubicSpline,
    Grid,
    PhysicalParams,
    WaveFunction,
    boundary_density,
    cumulative_integral,
    integrate,
    integrate_values,
    normalize,
    observables,
    spectral_derivative,
)


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid(0.0, 10.0, 16)
        assert g.dx == pytest.approx(0.625)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(10.0 - g.dx)
        assert g.length == 10.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError, match="n_points must be an integer power of two"):
            Grid(0.0, 1.0, 100)

    def test_rejects_too_few_points(self):
        with pytest.raises(ConfigError, match="n_points must be an integer >= 8"):
            Grid(0.0, 1.0, 4)

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigError, match="grid length"):
            Grid(1.0, 1.0, 16)


class TestFieldValidation:
    def test_length_mismatch(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(InvalidField):
            WaveFunction(g, np.zeros(8))

    def test_non_finite_samples(self):
        g = Grid(0.0, 1.0, 16)
        vals = np.zeros((2, 16), dtype=complex)
        vals[1, 3] = np.inf
        with pytest.raises(InvalidField):
            WaveFunction(g, vals)

    def test_params_positive(self):
        with pytest.raises(ConfigError, match="hbar"):
            PhysicalParams(hbar=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="mass"):
                PhysicalParams(mass=bad)


class TestIntegrate:
    def test_constant(self):
        g = Grid(0.0, 10.0, 64)
        assert integrate(g, np.ones(64)) == pytest.approx(10.0)

    def test_zero(self):
        g = Grid(0.0, 10.0, 64)
        assert integrate(g, np.zeros(64)) == 0.0

    def test_sin_squared(self):
        # exact for band-limited periodic integrands
        L = 7.0
        g = Grid(0.0, L, 128)
        f = np.sin(2 * np.pi * g.x / L) ** 2
        assert integrate(g, f) == pytest.approx(L / 2, abs=1e-12)

    def test_non_finite_rejected(self):
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(InvalidField):
            integrate(g, np.full(16, np.nan))

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, b, seed):
        g = Grid(-5.0, 5.0, 64)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(64)
        h = rng.standard_normal(64)
        lhs = integrate(g, a * f + b * h)
        rhs = a * integrate(g, f) + b * integrate(g, h)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestCumulativeIntegral:
    def test_starts_at_zero(self):
        g = Grid(-5.0, 5.0, 64)
        out = cumulative_integral(g, np.cos(g.x))
        assert out[0] == 0.0

    def test_matches_antiderivative(self):
        from scipy.special import erf

        def err(n):
            g = Grid(-8.0, 8.0, n)
            out = cumulative_integral(g, np.exp(-g.x**2))
            exact = 0.5 * np.sqrt(np.pi) * (erf(g.x) - erf(g.x[0]))
            return np.abs(out - exact).max()

        assert err(512) < 1e-7
        # fourth-order convergence under grid doubling
        assert err(1024) < err(512) / 12.0

    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 5, 64)])
    def test_matches_gradient_reference_per_row(self, shape):
        """Bit for bit the trapezoid plus np.gradient endpoint correction,
        applied to each row of a batch, and to the whole (N,), (B, N) or
        (m, B, N) array along its last axis."""
        g = Grid(-5.0, 5.0, 64)
        rng = np.random.default_rng(4)
        h = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 4, shape)
        out = cumulative_integral(g, h)
        ref = np.zeros_like(h)
        ref[..., 1:] = np.cumsum(0.5 * (h[..., 1:] + h[..., :-1]), axis=-1) * g.dx
        hp = np.gradient(h, g.dx, axis=-1, edge_order=2)
        ref += (g.dx**2 / 12.0) * (hp[..., :1] - hp)
        assert np.array_equal(out, ref)
        for row in np.ndindex(shape[:-1]):
            hr, dx = h[row], g.dx
            ref = np.zeros_like(hr)
            ref[1:] = np.cumsum(0.5 * (hr[1:] + hr[:-1])) * dx
            hp = np.gradient(hr, dx, edge_order=2)
            ref += (dx**2 / 12.0) * (hp[0] - hp)
            assert np.array_equal(out[row], ref)


def _spline_agrees(ours, oracle, points):
    """Orders 0-2 within 1e-12 of the largest value of the oracle's order."""
    for order in (0, 1, 2):
        ref = oracle(points, order)
        assert np.abs(ours(points, order) - ref).max() <= 1e-12 * np.abs(ref).max(), order


def _uneven_knots(rng, n):
    """n increasing knots on about [-2, 4], neighbouring spacings up to 3x apart."""
    return -2.0 + np.cumsum(rng.uniform(0.5, 1.5, n)) * (6.0 / n)


class TestCubicSpline:
    """The one gsle spline; scipy.interpolate.CubicSpline is the oracle."""

    @pytest.mark.parametrize("n", [8, 512, 4096])
    def test_periodic_matches_scipy(self, n):
        from scipy.interpolate import CubicSpline as Oracle

        grid = Grid(-3.0, 5.0, n)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        oracle = Oracle(np.append(grid.x, grid.x_max), np.append(v, v[0]), bc_type="periodic")
        points = np.concatenate([
            rng.uniform(grid.x_min, grid.x_max, 1000), grid.x, [grid.x_max - 1e-12]
        ])
        _spline_agrees(CubicSpline.periodic(grid, v), oracle, points)

    @pytest.mark.parametrize(
        "n, data",
        [(4, "random"), (5, "random"), (50, "random"), (4096, "random"),
         (5, "smooth"), (40, "smooth"), (200, "smooth")],
    )
    def test_not_a_knot_matches_scipy(self, n, data):
        """Smooth data stops at 200 knots: the second derivative of a smooth
        table is set by cancellation in the divided differences, and at 4096
        knots gsle and SciPy part by about 2e-12 of it."""
        from scipy.interpolate import CubicSpline as Oracle

        rng = np.random.default_rng(n)
        x = _uneven_knots(rng, n)
        y = rng.standard_normal(n) if data == "random" else np.tanh(3.0 * x)
        points = np.concatenate([rng.uniform(x[0], x[-1], 1000), x])
        _spline_agrees(CubicSpline.not_a_knot(x, y), Oracle(x, y, bc_type="not-a-knot"), points)

    @pytest.mark.parametrize("n", [4, 9, 100])
    def test_not_a_knot_reproduces_cubics(self, n):
        """Exact up to round-off: 1e-12 of each order's largest value."""
        rng = np.random.default_rng(n)
        c = rng.standard_normal(4)
        x = _uneven_knots(rng, n)
        spline = CubicSpline.not_a_knot(x, np.polyval(c, x))
        exact = lambda p, order: np.polyval(np.polyder(c, order), p)
        _spline_agrees(spline, exact, rng.uniform(x[0], x[-1], 300))

    def test_knots_return_table_values_bit_for_bit(self):
        rng = np.random.default_rng(7)
        x = _uneven_knots(rng, 64)
        y = rng.standard_normal(64)
        assert np.array_equal(CubicSpline.not_a_knot(x, y)(x), y)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_than_four_knots_rejected(self, n):
        with pytest.raises(InvalidField, match="4 knots"):
            CubicSpline.not_a_knot(np.arange(n, dtype=float), np.ones(n))

    @pytest.mark.parametrize("order", [-1, 3, 1.5])
    def test_unsupported_order_rejected(self, order):
        """Orders 0-2 only: any other is rejected, not read as S''."""
        grid = Grid(-np.pi, np.pi, 16)
        spline = CubicSpline.periodic(grid, np.sin(grid.x))
        assert spline(0.3, 2) == pytest.approx(-np.sin(0.3), abs=0.05)
        with pytest.raises(UnsupportedOrder, match="0, 1 or 2"):
            spline(0.3, order)

    @pytest.mark.parametrize("x0", [0.0, 2.0, np.nan], ids=["repeated", "decreasing", "nan"])
    def test_knots_must_increase(self, x0):
        with pytest.raises(InvalidField, match="increasing"):
            CubicSpline.not_a_knot([x0, 0.0, 1.0, 2.0, 3.0], np.ones(5))


class TestDifferentiate:
    def test_constant_is_zero(self):
        g = Grid(-5.0, 5.0, 64)
        d = spectral_derivative(g, np.ones(64, dtype=complex))
        assert np.abs(d).max() < 1e-12

    def test_plane_wave_eigenfunction(self, grid):
        psi, k = plane_wave(grid, 5)
        d = spectral_derivative(grid, psi.values, 1)
        assert np.abs(d - 1j * k * psi.values).max() < 1e-10

    def test_gaussian_second_derivative(self, grid):
        f = np.exp(-grid.x**2 / 2).astype(complex)
        d2 = spectral_derivative(grid, f, 2)
        exact = (grid.x**2 - 1) * np.exp(-grid.x**2 / 2)
        assert np.abs(d2 - exact).max() < 1e-8

    def test_twice_first_equals_second(self, grid):
        f = np.exp(-grid.x**2 / 4) * np.exp(1j * grid.x)
        once_twice = spectral_derivative(grid, spectral_derivative(grid, f, 1), 1)
        second = spectral_derivative(grid, f, 2)
        assert np.abs(once_twice - second).max() < 1e-8

    def test_bad_order(self, grid):
        with pytest.raises(UnsupportedOrder):
            spectral_derivative(grid, np.ones(512, dtype=complex), 3)

    def test_parseval(self, grid):
        psi = gaussian_state(grid, x0=1.0, p0=2.0)
        pos = integrate_values(grid, psi.density())
        fk = np.fft.fft(psi.values)
        spec = np.sum(np.abs(fk) ** 2) / grid.n_points * grid.dx
        assert pos == pytest.approx(spec, rel=1e-10)


class TestExpectation:
    """Density-weighted means, int O |psi|^2 / int |psi|^2."""

    def test_constant_observable(self, grid):
        rho = gaussian_state(grid).density()
        mean = integrate_values(grid, np.full(512, 3.25) * rho) / integrate_values(grid, rho)
        assert mean == pytest.approx(3.25)

    def test_symmetric_mean_x(self, grid, params):
        obs = observables(gaussian_state(grid), np.zeros(512), params)
        assert obs["mean_x"] == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_second_moment(self, grid):
        rho = gaussian_state(grid, sigma=1.0).density()
        mean = integrate_values(grid, grid.x**2 * rho) / integrate_values(grid, rho)
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_zero_norm(self, grid, params):
        psi = WaveFunction(grid, np.zeros(512, dtype=complex))
        with pytest.raises(DegenerateState):
            observables(psi, grid.x, params)


def free_observables(psi, params):
    return observables(psi, np.zeros(psi.grid.n_points), params)


class TestObservables:
    def test_plane_wave_momentum(self, grid, params):
        psi, k = plane_wave(grid, 7)
        obs = observables(psi, np.zeros(512), params)
        assert obs["mean_p"] == pytest.approx(params.hbar * k, abs=1e-10)

    def test_real_gaussian_momentum_zero(self, grid, params):
        psi = gaussian_state(grid)
        assert free_observables(psi, params)["mean_p"] == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_ground_state_energy(self, grid, params):
        # ground state of V = x^2/2 at hbar = m = omega = 1
        psi = gaussian_state(grid, sigma=np.sqrt(0.5))
        V = 0.5 * grid.x**2
        obs = observables(psi, V, params)
        assert obs["energy"] == pytest.approx(0.5, abs=1e-6)

    def test_kinetic_energy_plane_wave(self, grid, params):
        psi, k = plane_wave(grid, 4)
        assert free_observables(psi, params)["energy"] == pytest.approx(
            k**2 / 2, rel=1e-10
        )

    def test_boundary_density_centered_packet(self, grid):
        psi = gaussian_state(grid, sigma=1.0)
        assert boundary_density(psi.density()) < 1e-12

    def test_boundary_density_edge_packet(self, grid):
        psi = gaussian_state(grid, x0=19.0, sigma=1.0)
        assert boundary_density(psi.density()) > 1e-3

    @pytest.mark.parametrize("case", ["random", "nyquist", "batch"])
    def test_spectral_moments_match_derivative_form(self, grid, case):
        """<p> and <T> from the spectrum equal the derivative-form integrals
        int psi* (-i hbar d/dx) psi / n2 and int psi* (-hbar^2/2m d^2/dx^2) psi / n2."""
        if case == "nyquist":
            vals = gaussian_state(grid, p0=1.5).values + 0.3 * (-1.0) ** np.arange(grid.n_points)
        else:
            shape = (3, grid.n_points) if case == "batch" else (grid.n_points,)
            rng = np.random.default_rng(3)
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi = WaveFunction(grid, vals)
        params = PhysicalParams(hbar=0.7, mass=1.3)
        V = 0.5 * grid.x**2
        obs = observables(psi, V, params)

        n2 = integrate_values(grid, psi.density())
        dpsi = spectral_derivative(grid, vals, 1)
        d2psi = spectral_derivative(grid, vals, 2)
        p_ref = integrate_values(grid, np.real(np.conj(vals) * -1j * params.hbar * dpsi)) / n2
        t_ref = integrate_values(
            grid, np.real(np.conj(vals) * -(params.hbar**2) / (2 * params.mass) * d2psi)
        ) / n2
        potential = integrate_values(grid, V * psi.density()) / n2
        assert obs["mean_p"] == pytest.approx(p_ref, rel=1e-12)
        assert obs["energy"] - potential == pytest.approx(t_ref, rel=1e-12)

    def test_one_forward_fft(self, grid, params, monkeypatch):
        """A recorded state costs one forward FFT and no inverse."""
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        free_observables(gaussian_state(grid, p0=1.0), params)
        assert calls == {"fft": 1, "ifft": 0}

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_given_spectrum_matches_computed(self, grid, params, batch):
        vals = gaussian_state(grid, x0=1.5, p0=0.8, sigma=1.3).values
        if batch:
            vals = np.stack([vals, gaussian_state(grid, x0=-2.0, p0=-0.3).values])
        psi, V = WaveFunction(grid, vals), 0.5 * grid.x**2
        carried = observables(psi, V, params, np.fft.fft(vals))
        computed = observables(psi, V, params)
        for name in ("norm", "mean_x", "mean_p", "var_x", "energy", "boundary_density"):
            assert np.allclose(carried[name], computed[name], rtol=1e-12, atol=0), name


def test_normalize(grid):
    psi = WaveFunction(grid, np.exp(-grid.x**2 / 4) * 5.0)
    assert integrate_values(grid, normalize(psi).density()) == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_state(grid):
    with pytest.raises(DegenerateState):
        normalize(WaveFunction(grid, np.zeros(512, dtype=complex)))


def test_integrate_values_matches_integrate(grid):
    vals = np.sin(grid.x)
    assert integrate_values(grid, vals) == pytest.approx(integrate(grid, vals))


class TestBlockRecorder:
    def test_failed_block_is_reduced_up_to_its_first_failing_row(self):
        """A block whose reduce raises is reduced a row at a time: the rows
        before the first failing one are reduced, `failed` and `first` name
        that row, and the emptied block is not reduced again."""
        seen = []

        def reduce(steps, rows):
            if (rows > 5).any():
                raise FloatingPointError("a row past 5")
            seen.append((steps.start, steps.stop, rows[:, 0].tolist()))

        rec = BlockRecorder(np.arange(10.0), (np.zeros(1),), reduce, "test")   # a 10-row block
        for j in range(9):
            rec.push(float(j))
        with pytest.raises(FloatingPointError):
            rec.push(9.0)
        assert seen == [(j, j + 1, [float(j)]) for j in range(6)]
        assert (rec.failed, rec.first, rec.filled) == (6, 6, 0)
        rec.flush()
        assert len(seen) == 6

    def test_with_block_reduces_the_partial_block(self):
        """Clean blocks are reduced whole; leaving a with block reduces the
        partial last one."""
        seen = []
        reduce = lambda steps, rows: seen.append(steps)
        with BlockRecorder(np.arange(10.0), (np.zeros(4000),), reduce, "test") as rec:
            for _ in range(10):
                rec.push(0.0)
            assert seen == [slice(0, 8)]
        assert seen == [slice(0, 8), slice(8, 10)]   # 2**15 // 4000 = 8 rows a block
        assert (rec.failed, rec.first) == (None, 10)

    def test_with_block_is_the_overflow_gate(self):
        """Inside a with block a float overflow, of a push's reduction or of the
        loop, is a NumericalBlowup with the recorder's message; any blow-up that
        leaves the block names times[row], row the first whose reduction failed,
        else the row under way."""
        times = 0.5 * np.arange(10.0)

        def reduce(steps, rows):
            np.exp(rows)   # overflows on a row past 710

        with pytest.raises(NumericalBlowup, match="^test: overflow") as info:
            with BlockRecorder(times, (np.zeros(1),), reduce, "test") as rec:
                for value in (0.0, 1.0, 2e3, 3.0):
                    rec.push(value)
        assert (info.value.t, rec.failed) == (1.0, 2)   # the partial block's row 2

        def non_finite():
            raise NumericalBlowup("non-finite state")

        for raising in (lambda: np.exp(np.array([2e3])), non_finite):
            with pytest.raises(NumericalBlowup) as info:
                with BlockRecorder(times, (np.zeros(1),), reduce, "test") as rec:
                    rec.push(0.0)
                    rec.push(1.0)
                    raising()
            assert (info.value.t, rec.failed, rec.first) == (1.0, None, 2)   # the row under way
