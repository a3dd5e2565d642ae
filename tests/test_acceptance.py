"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion NN: PASS/FAIL` line with the measured
number next to its gate. Criterion 08 checks the momentum weak value against
the definitional ratio (-i hbar dpsi)/psi at 1e-8 twice: over the entire
non-node region, down to the density floor (1e-12 of the peak), and on the
resolved support (rho > 1e-8 of its peak).
"""

import numpy as np
import pytest

from conftest import noise_array
from gsle.bath import OhmicSpec, discretize_ohmic, memory_kernel, sample_bath_noise_batch
from gsle.bohmian import equivariance_distance, polar_decompose, propagate_trajectories, weak_value
from gsle.classical import GaussianCloud, LangevinConfig, langevin_ensemble
from gsle.cli import main as cli_main
from gsle.coupling import CouplingFunction, gup_coupling
from gsle.evolve import GaussianPacket, NoiseSpec, SimConfig, ehrenfest_residual, run
from gsle.fields import Grid, PhysicalParams, integrate_values, spectral_derivative
from gsle.potentials import PotentialSpec, dissipative_potential, gup_discrepancy_report

GRID = Grid(-20.0, 20.0, 512)
PARAMS = PhysicalParams()
SIGMA0 = np.sqrt(0.5)


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line, flush=True)
    assert ok, line


def kostin_config(sign, alpha=0.1, x0=2.0, n_periods=3):
    dt = 0.005
    n = int(round(n_periods * 2 * np.pi / dt))
    return SimConfig(
        grid=GRID,
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.linear(),
        friction=alpha,
        sign=sign,
        dt=dt,
        n_steps=n,
        initial_state=GaussianPacket(x0, 0.0, SIGMA0),
    )


def test_criterion_01_kostin_damped_oscillator():
    """<x>(t) of the damped harmonic run matches the closed form to < 2%."""
    alpha, x0 = 0.1, 2.0
    cfg = kostin_config("damping", alpha, x0)
    rec = run(cfg)
    wt = np.sqrt(1.0 - alpha**2 / 4.0)
    t = rec.times
    exact = np.exp(-alpha * t / 2.0) * (
        x0 * np.cos(wt * t) + (alpha * x0 / (2 * wt)) * np.sin(wt * t)
    )
    err = np.abs(rec.mean_x - exact).max() / x0
    report(1, err < 0.02, f"max rel deviation from closed form {err:.2e} < 2e-2")


def test_criterion_02_sign_convention_contrast():
    """sign='paper' anti-damps (envelope grows > 10%); both conserve norm."""
    rec_d = run(kostin_config("damping"))
    rec_p = run(kostin_config("paper"))
    n_per = int(round(2 * np.pi / 0.005))
    early = np.abs(rec_p.mean_x[:n_per]).max()
    late = np.abs(rec_p.mean_x[-n_per:]).max()
    growth = late / early
    drift = max(np.abs(rec_d.norm - 1.0).max(), np.abs(rec_p.norm - 1.0).max())
    report(
        2,
        growth > 1.10 and drift < 1e-6,
        f"paper-sign envelope growth x{growth:.2f} > 1.10, norm drift {drift:.1e} < 1e-6",
    )


def test_criterion_03_ehrenfest_nonlinear_coupling():
    """Mean-motion residual with f = sin(x): small, and shrinks with dt."""
    g = Grid(-20.0, 20.0, 1024)

    def residual(dt):
        n = int(round(4 * np.pi / dt))
        cfg = SimConfig(
            grid=g,
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.sinusoidal(1.0, 1.0),
            friction=0.1,
            dt=dt,
            n_steps=n,
            snapshot_stride=int(round(0.1 / dt)),
            initial_state=GaussianPacket(1.0, 0.0, SIGMA0),
        )
        rec = run(cfg)
        return np.abs(ehrenfest_residual(rec, cfg)).max()

    scale = 1.0 * 1.0**2 * 1.0   # m * omega^2 * amplitude
    r_coarse = residual(0.002)
    r_fine = residual(0.001)
    ok = r_coarse < 1e-2 * scale and r_fine < r_coarse / 3.0
    report(
        3,
        ok,
        f"max residual {r_coarse:.2e} < 1e-2, halved dt gives {r_fine:.2e} < 1/3 of it",
    )


def test_criterion_04_quantum_classical_consistency():
    """Ensemble <x> agrees with the classical oracle at >= 95% of times."""
    n_seeds = 64
    cfg = SimConfig(
        grid=GRID,
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.sinusoidal(1.0, 1.0),
        friction=0.1,
        noise=NoiseSpec(kind="white", temperature=0.05),
        dt=0.005,
        n_steps=4000,
        initial_state=GaussianPacket(1.0, 0.0, SIGMA0),
    )
    # the 64 members are stepped as one (64, N) batch
    traces = np.array([rec.mean_x for rec in run(cfg, seeds=range(n_seeds))])
    mean_q = traces.mean(axis=0)
    se_q = traces.std(axis=0, ddof=1) / np.sqrt(n_seeds)

    lc = LangevinConfig(
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.sinusoidal(1.0, 1.0),
        friction=0.1,
        noise=NoiseSpec(kind="white", temperature=0.05),
        dt=0.005,
        n_steps=4000,
        n_particles=10_000,
        initial=GaussianCloud(1.0, 0.0, SIGMA0, SIGMA0),
    )
    ens = langevin_ensemble(lc, seed=1234)
    i = np.arange(0, 4001, 10)
    diff = np.abs(mean_q[i] - ens.mean_x[i])
    comb = np.hypot(se_q[i], ens.stderr_x[i])
    frac = np.mean(diff < 3.0 * comb)
    report(4, frac >= 0.95, f"fraction of times within 3 stderr {frac:.3f} >= 0.95")


def test_criterion_05_norm_conservation_all_terms():
    """All terms on (bath noise, friction, kappa): |norm-1| < 1e-6, 1e4 steps."""
    cfg = SimConfig(
        grid=GRID,
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.sinusoidal(1.0, 1.0),
        friction=0.1,
        kappa=0.05,
        dt=0.002,
        n_steps=10_000,
        seed=11,
        noise=NoiseSpec(
            kind="bath", temperature=0.1, bath=discretize_ohmic(OhmicSpec(0.1, 50.0, 500, 0.1))
        ),
        initial_state=GaussianPacket(1.0, 0.0, SIGMA0),
    )
    rec = run(cfg)
    drift = np.abs(rec.norm - 1.0).max()
    report(5, drift < 1e-6, f"max |norm - 1| = {drift:.2e} < 1e-6")


def test_criterion_06_kostin_linear_reduction():
    """With f(x)=x the dissipative potential reduces to alpha*(S - <S>)."""
    g = Grid(-12.0, 12.0, 512)
    alpha = 0.2
    cfg = SimConfig(
        grid=g,
        potential=PotentialSpec.harmonic(1.0),
        coupling=CouplingFunction.linear(),
        friction=alpha,
        dt=0.002,
        n_steps=5000,
        snapshot_stride=250,
        initial_state=GaussianPacket(1.0, 0.0, SIGMA0),
    )
    rec = run(cfg)
    rng = np.random.default_rng(99)
    picks = rng.choice(len(rec.snapshots) - 1, size=10, replace=False) + 1
    n = g.n_points
    mid = slice(3 * n // 8, 5 * n // 8)   # central quarter of the grid
    lin = CouplingFunction.linear()
    worst = 0.0
    for i in picks:
        _, psi = rec.snapshots[i]
        vd, w = dissipative_potential(psi, lin, alpha, PARAMS)
        s = polar_decompose(psi, hbar=1.0).S
        rho = psi.density()
        s_mean = integrate_values(g, s * rho) / integrate_values(g, rho)
        worst = max(
            worst, np.abs((vd - w) - alpha * (s - s_mean))[mid].max()
        )
    report(6, worst < 1e-6, f"worst mid-grid reduction error {worst:.2e} < 1e-6")


def test_criterion_07_trajectory_equivariance():
    """10^4 trajectories: KS distance to |psi|^2 < 0.05 at t = 0, 1, 2."""
    cfg = SimConfig(
        grid=GRID,
        potential=PotentialSpec.free(),
        dt=0.005,
        n_steps=400,
        snapshot_stride=200,
        initial_state=GaussianPacket(0.0, 0.0, 1.0),
    )
    rec = run(cfg)
    times = cfg.dt * np.array([s for s, _ in rec.snapshots])
    history = [p for _, p in rec.snapshots]
    wvs = [weak_value(polar_decompose(psi, PARAMS.hbar)) for psi in history]
    ens = propagate_trajectories(wvs, times, 10_000, 21, PARAMS)
    ds = [equivariance_distance(ens, history[k], k) for k in range(3)]
    worst = max(ds)
    report(7, worst < 0.05, f"worst KS distance at t=0,1,2 is {worst:.4f} < 0.05")


def _weak_value_worst(mask_fn):
    cfg = SimConfig(
        grid=GRID,
        potential=PotentialSpec.harmonic(1.0),
        friction=0.1,
        dt=0.005,
        n_steps=2000,
        snapshot_stride=200,
        initial_state=GaussianPacket(0.1, 0.0, SIGMA0),
    )
    rec = run(cfg)
    worst = 0.0
    for _, psi in rec.snapshots[1:]:
        polar = polar_decompose(psi, hbar=1.0)
        wv = weak_value(polar)
        dpsi = spectral_derivative(GRID, psi.values, 1)
        oracle = -1j * dpsi / psi.values
        ours = wv.real_part + 1j * wv.imag_part
        sel = mask_fn(polar, psi)
        worst = max(worst, np.abs(ours - oracle)[sel].max())
    return worst


def test_criterion_08_weak_value_identity_full_support():
    """Weak value equals (-i hbar dpsi)/psi to 1e-8 everywhere off nodes.

    The worst cells are the outermost ones outside node_mask, at densities
    just above the 1e-12 floor, so the weak value must be read from psi
    itself there, not from finite differences of the interpolated action.
    """
    worst = _weak_value_worst(lambda polar, psi: ~polar.node_mask)
    report(8, worst < 1e-8, f"worst deviation outside node mask {worst:.2e} < 1e-8")


def test_criterion_08_weak_value_identity_resolved_support():
    """Companion: the same identity at 1e-8 wherever the density resolves."""
    def mask(polar, psi):
        rho = psi.density()
        return rho > 1e-8 * rho.max()

    worst = _weak_value_worst(mask)
    report(8, worst < 1e-8, f"worst deviation on resolved support {worst:.2e} < 1e-8")


def test_criterion_09_measurement_localizes():
    """kappa > 0 never broadens the packet and conserves the norm."""
    base = dict(
        grid=GRID,
        potential=PotentialSpec.free(),
        dt=0.005,
        n_steps=400,
        initial_state=GaussianPacket(0.0, 0.0, 1.0),
    )
    r0 = run(SimConfig(kappa=0.0, **base))
    r1 = run(SimConfig(kappa=0.1, **base))
    localized = np.all(r1.var_x <= r0.var_x + 1e-12)
    drift = np.abs(r1.norm - 1.0).max()
    report(
        9,
        localized and drift < 1e-6,
        f"var_x(kappa=0.1) <= var_x(0) at all times, norm drift {drift:.1e} < 1e-6",
    )


def test_criterion_10_fluctuation_dissipation():
    """Noise ACF = m T kernel(t) at 10 lags; white-noise variance to 2%."""
    T = 0.5
    bath = discretize_ohmic(OhmicSpec(0.5, 50.0, 300, T), 1.0)
    lags = 0.02 * np.arange(10)
    n_seeds = 10_000
    v = sample_bath_noise_batch(bath, T, lags, range(n_seeds))
    samples = v * v[:, :1]
    acf = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    target = 1.0 * T * memory_kernel(bath, lags)
    z = np.abs(acf - target) / stderr
    acf_ok = np.all(z < 3.0)

    alpha, dt = 0.5, 0.01
    xi = noise_array(NoiseSpec("white", 1.0), alpha, 1.0, dt, 100_000, [12])[0]
    var = xi.var()
    var_target = 2.0 * 1.0 * alpha * 1.0 / dt
    var_ok = abs(var - var_target) / var_target < 0.02
    report(
        10,
        acf_ok and var_ok,
        f"max |ACF - m T kernel| = {z.max():.2f} stderr < 3, "
        f"white variance off by {abs(var - var_target) / var_target:.3%} < 2%",
    )


def test_criterion_11_gup_damping_rate():
    """sqrt(V')-coupling on a linear ramp damps at the linear-coupling rate."""
    g = Grid(-30.0, 30.0, 1024)
    V = PotentialSpec.linear_ramp(1.0)
    alpha = 0.5

    def damping_rate(coupling):
        cfg = SimConfig(
            grid=g,
            potential=V,
            coupling=coupling,
            friction=alpha,
            dt=0.004,
            n_steps=1500,
            initial_state=GaussianPacket(10.0, 0.0, 1.0),
        )
        rec = run(cfg)
        dp = np.gradient(rec.mean_p, rec.times)
        # <p> obeys dp/dt = -b - rate * p: regress out the rate
        A = np.vstack([np.ones_like(rec.mean_p), rec.mean_p]).T
        coef, *_ = np.linalg.lstsq(A, dp, rcond=None)
        return -coef[1]

    r_gup = damping_rate(gup_coupling(V, g))
    r_lin = damping_rate(CouplingFunction.linear())
    rel = abs(r_gup - r_lin) / r_lin
    # closed-form-vs-generic discrepancy, reported alongside the gate
    x = g.x
    from gsle.fields import WaveFunction, normalize

    psi = normalize(WaveFunction(g, np.exp(-((x - 5.0) ** 2) / 4.0 + 0.8j * x)))
    rep = gup_discrepancy_report(psi, V, 0.05, PARAMS)
    print(
        "criterion 11 discrepancy report (closed form vs generic route): "
        f"max_abs={rep['max_abs_diff']:.3e} rms={rep['rms_diff']:.3e} "
        f"rel={rep['max_rel_diff']:.3e}",
        flush=True,
    )
    report(
        11,
        rel < 0.02,
        f"damping rates {r_gup:.5f} vs {r_lin:.5f}, rel diff {rel:.2e} < 2e-2",
    )


CLI_KOSTIN = """
[experiment]
mode = gsle
seed = 7

[run]
dt = 0.005
n_steps = 400
friction = 0.1

[initial]
x0 = 2
sigma = 0.70710678118654752
"""

CLI_WHITE = """
[experiment]
mode = gsle
seed = 13

[run]
n_steps = 400
friction = 0.1

[noise]
kind = white
temperature = 0.1

[initial]
x0 = 1
"""

CLI_COMPARE = """
[experiment]
mode = compare
seed = 3
ensemble_seeds = 3

[run]
n_steps = 200
friction = 0.1

[noise]
kind = white
temperature = 0.05

[initial]
x0 = 1

[classical]
n_particles = 500
"""


def test_criterion_12_byte_identical_reruns(tmp_path):
    """Identical config + seed reproduce observables byte for byte."""
    ok = True
    details = []
    for name, text, artifact in (
        ("kostin", CLI_KOSTIN, "observables.csv"),
        ("white", CLI_WHITE, "observables.csv"),
        ("compare", CLI_COMPARE, "comparison.csv"),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        sub = "compare" if name == "compare" else "run"
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            assert cli_main([sub, str(cfg), "--out", str(out)]) == 0
            outs.append((out / artifact).read_bytes())
        same = outs[0] == outs[1]
        ok = ok and same
        details.append(f"{name}:{'identical' if same else 'DIFFERS'}")
    report(12, ok, "rerun outputs " + ", ".join(details))
