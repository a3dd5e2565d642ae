"""The four benchmark workloads: inputs from a seed, the calls, the checks.

Every workload is driven through gsle's public entry points
(``gsle.cli.main`` and ``gsle.classical.langevin_ensemble``). Inputs are
generated from the benchmark seed only; gsle receives nothing but the
generated config text (or config objects for the library workload).

Step counts are chosen so that one repetition takes a few seconds on a
2-core machine: long enough that import noise does not dominate the phase
rates, short enough that a 25-second run holds several repetitions.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

SIGMA0 = math.sqrt(0.5)


def _ini(sections: dict) -> str:
    lines = []
    for section, table in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in table.items())
        lines.append("")
    return "\n".join(lines)


def _seeded(name: str, seed: int):
    """(gsle seed, initial offset) derived from the benchmark seed."""
    rng = random.Random(f"{name}:{seed}")
    return rng.randrange(2**31), round(rng.uniform(0.5, 1.5), 6)


def read_csv(path: Path):
    """(column names, float rows) of a gsle CSV; '' cells read as NaN."""
    import numpy as np

    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in ln.split(",")] for ln in lines[1:]]
    return cols, np.array(rows, dtype=float)


def columns(path: Path, *names):
    cols, data = read_csv(path)
    return [data[:, cols.index(name)] for name in names]


def hash_tree(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_size(root: Path):
    """(bytes, files) under root."""
    files = [q for q in root.rglob("*") if q.is_file()]
    return sum(q.stat().st_size for q in files), len(files)


def stability_guard(gsle, config_text: str) -> float:
    """dt * max|V| / hbar on the grid: the static part of gsle's guard.

    Ensemble members run with warnings silenced inside gsle, so a tripped
    guard would not be visible there; this bounds it from the config.
    """
    import numpy as np

    sim = gsle.cli.parse_config(config_text).sim
    v = np.asarray(sim.potential(sim.grid.x, 0), dtype=float)
    return sim.dt * float(np.abs(v).max()) / sim.params.hbar


class Workload:
    name = ""
    why = ""
    n_points = 0
    # workload-specific sizes of the timed run and of the shortened
    # reference probe
    sizes: dict = {}

    def inputs(self, seed: int, probe: bool = False) -> dict:
        raise NotImplementedError

    def execute(self, gsle, inputs: dict, out: Path):
        """The timed calls. Returns exit codes and any in-memory result."""
        raise NotImplementedError

    def units(self, inputs: dict) -> dict:
        """Work done per repetition, counted from the inputs."""
        raise NotImplementedError

    def check(self, gsle, inputs: dict, out: Path, result) -> list:
        """Workload-specific output gates; returns failure messages."""
        raise NotImplementedError

    def summary(self, gsle, inputs: dict, out: Path, result) -> dict:
        """A few numbers compared against the recorded reference."""
        raise NotImplementedError

    def digest(self, out: Path, result) -> str:
        return hash_tree(out)


def _cli(gsle, argv) -> int:
    return int(gsle.cli.main([str(a) for a in argv]))


def _common_cli_checks(gsle, inputs, out: Path, codes) -> list:
    errors = []
    if any(codes):
        errors.append(f"exit codes {codes}")
    for err in out.rglob("error.json"):
        errors.append(f"{err.relative_to(out)}: {err.read_text().strip()}")
    guard = stability_guard(gsle, inputs["config"])
    if guard >= 0.5:
        errors.append(f"config trips the stability guard: dt*max|V| = {guard:.3f}")
    return errors


class SingleAllTerms(Workload):
    name = "single_allterms_n512"
    why = ("one gsle run at N=512 with every nonlinear term and bath noise on: "
           "per-call overhead in evolve and fields.observables; classical and bohmian idle")
    n_points = 512
    sizes = {"timed": 2000, "probe": 200}

    def inputs(self, seed, probe=False):
        gseed, x0 = _seeded(self.name, seed)
        n_steps = self.sizes["probe" if probe else "timed"]
        config = _ini({
            "experiment": {"mode": "gsle", "seed": gseed},
            "grid": {"x_min": -20, "x_max": 20, "n_points": self.n_points},
            "potential": {"kind": "harmonic", "omega": 1},
            "coupling": {"kind": "sinusoidal", "amplitude": 1, "wavenumber": 1},
            "run": {"dt": 0.002, "n_steps": n_steps, "friction": 0.1, "kappa": 0.05},
            "noise": {"kind": "bath", "temperature": 0.1, "cutoff": 50,
                      "n_oscillators": 500},
            "initial": {"kind": "gaussian", "x0": x0, "p0": 0, "sigma": SIGMA0},
            "output": {"observables": "true"},
        })
        return {"config": config, "n_steps": n_steps}

    def execute(self, gsle, inputs, out):
        cfg = out.parent / "single.cfg"
        cfg.write_text(inputs["config"])
        return [_cli(gsle, ["run", cfg, "--out", out])], None

    def units(self, inputs):
        return {"wave_steps": inputs["n_steps"]}

    def check(self, gsle, inputs, out, result):
        errors = _common_cli_checks(gsle, inputs, out, result[0])
        if not errors:
            (norm,) = columns(out / "observables.csv", "norm")
            drift = float(abs(norm - 1.0).max())
            if not drift < 1e-6:
                errors.append(f"max |norm - 1| = {drift:.3e} >= 1e-6")
        return errors

    def summary(self, gsle, inputs, out, result):
        cols, data = read_csv(out / "observables.csv")
        last = dict(zip(cols, data[-1]))
        return {k: float(last[k]) for k in ("norm", "mean_x", "mean_p", "var_x", "energy", "W")}


class CompareEnsemble(Workload):
    name = "compare_ensemble_n512"
    why = ("gsle compare, 32 short members plus a 1e4-particle Markovian oracle: "
           "ensemble loop, per-member set-up, CSV output, per-particle noise streams")
    n_points = 512
    sizes = {"timed": (32, 100, 10_000), "probe": (4, 40, 1_000)}

    def inputs(self, seed, probe=False):
        gseed, x0 = _seeded(self.name, seed)
        members, n_steps, particles = self.sizes["probe" if probe else "timed"]
        # criterion-04 physics; the box is [-12, 12) rather than [-20, 20) so
        # that dt*max|V| = 0.36 stays under gsle's 0.5 stability guard
        config = _ini({
            "experiment": {"mode": "compare", "seed": gseed,
                           "ensemble_seeds": members, "workers": 1},
            "grid": {"x_min": -12, "x_max": 12, "n_points": self.n_points},
            "potential": {"kind": "harmonic", "omega": 1},
            "coupling": {"kind": "sinusoidal", "amplitude": 1, "wavenumber": 1},
            "run": {"dt": 0.005, "n_steps": n_steps, "friction": 0.1},
            "noise": {"kind": "white", "temperature": 0.05},
            "initial": {"kind": "gaussian", "x0": x0, "p0": 0, "sigma": SIGMA0},
            "classical": {"n_particles": particles},
        })
        return {"config": config, "n_steps": n_steps, "members": members,
                "particles": particles}

    def execute(self, gsle, inputs, out):
        cfg = out.parent / "compare.cfg"
        cfg.write_text(inputs["config"])
        return [_cli(gsle, ["compare", cfg, "--out", out])], None

    def units(self, inputs):
        return {"wave_steps": inputs["n_steps"] * inputs["members"],
                "particle_steps": inputs["n_steps"] * inputs["particles"]}

    def check(self, gsle, inputs, out, result):
        import numpy as np

        errors = _common_cli_checks(gsle, inputs, out, result[0])
        if errors:
            return errors
        xq, xcl, sq, scl = columns(out / "comparison.csv", "mean_x_q", "mean_x_cl",
                                   "stderr_x_q", "stderr_x_cl")
        diff, comb = abs(xq - xcl), np.hypot(sq, scl)
        frac = float(np.mean(diff < 3.0 * comb))
        if not frac >= 0.95:
            errors.append(f"only {frac:.3f} of times within 3 combined stderr (< 0.95)")
        return errors

    def summary(self, gsle, inputs, out, result):
        cols, data = read_csv(out / "comparison.csv")
        last = dict(zip(cols, data[-1]))
        return {k: float(last[k]) for k in ("mean_x_q", "mean_x_cl", "mean_p_q",
                                            "mean_p_cl", "var_x_q", "var_x_cl")}


class SnapshotsPost(Workload):
    name = "snapshots_post_n4096"
    why = ("gsle run at N=4096 with snapshots, then gsle post with 1e4 trajectories: "
           "FFT and array traffic, snapshot CSV write and read, bohmian RK4 and weak values")
    n_points = 4096
    sizes = {"timed": (400, 25, 10_000), "probe": (100, 25, 1_000)}

    def inputs(self, seed, probe=False):
        gseed, x0 = _seeded(self.name, seed)
        n_steps, stride, n_traj = self.sizes["probe" if probe else "timed"]
        # dt*max|V| = 0.4 on [-20, 20); a [-40, 40) box would trip the guard
        config = _ini({
            "experiment": {"mode": "gsle", "seed": gseed},
            "grid": {"x_min": -20, "x_max": 20, "n_points": self.n_points},
            "potential": {"kind": "harmonic", "omega": 1},
            "run": {"dt": 0.002, "n_steps": n_steps, "friction": 0.1,
                    "snapshot_stride": stride},
            "initial": {"kind": "gaussian", "x0": x0 - 1.0, "p0": 1, "sigma": SIGMA0},
            "output": {"observables": "true", "snapshots": "true",
                       "n_trajectories": n_traj},
        })
        return {"config": config, "n_steps": n_steps, "stride": stride,
                "n_traj": n_traj}

    def execute(self, gsle, inputs, out):
        cfg = out.parent / "snapshots.cfg"
        cfg.write_text(inputs["config"])
        run_dir, post_dir = out / "run", out / "post"
        codes = [_cli(gsle, ["run", cfg, "--out", run_dir])]
        codes.append(_cli(gsle, ["post", run_dir, "--out", post_dir]))
        return codes, None

    def units(self, inputs):
        intervals = inputs["n_steps"] // inputs["stride"]
        return {"wave_steps": inputs["n_steps"],
                "trajectory_steps": inputs["n_traj"] * intervals}

    def _ensemble(self, gsle, inputs, out):
        import numpy as np

        cols, data = read_csv(out / "post" / "trajectories.csv")
        times = data[:, 0]
        positions = np.ascontiguousarray(data[:, 1:].T)
        return gsle.bohmian.TrajectoryEnsemble(times=times, positions=positions)

    def _snapshot(self, gsle, inputs, out, step):
        sim = gsle.cli.parse_config(inputs["config"]).sim
        data = read_csv(out / "run" / "snapshots" / f"psi_{step}.csv")[1]
        return gsle.fields.WaveFunction(sim.grid, data[:, 1] + 1j * data[:, 2])

    def check(self, gsle, inputs, out, result):
        errors = _common_cli_checks(gsle, inputs, out, result[0])
        if errors:
            return errors
        ens = self._ensemble(gsle, inputs, out)
        last = len(ens.times) - 1
        for k in (0, last // 2, last):
            psi = self._snapshot(gsle, inputs, out, k * inputs["stride"])
            d = gsle.bohmian.equivariance_distance(ens, psi, k)
            if not d < 0.05:
                errors.append(f"KS distance {d:.4f} >= 0.05 at snapshot {k}")
        return errors

    def summary(self, gsle, inputs, out, result):
        ens = self._ensemble(gsle, inputs, out)
        cols, data = read_csv(out / "run" / "observables.csv")
        last = dict(zip(cols, data[-1]))
        final = ens.positions[:, -1]
        return {"mean_x": float(last["mean_x"]), "energy": float(last["energy"]),
                "traj_mean_final": float(final.mean()),
                "traj_std_final": float(final.std())}


class GleMemoryOracle(Workload):
    name = "gle_memory_oracle"
    why = ("library call to classical.langevin_ensemble with a 100-oscillator memory "
           "kernel and bath noise: the only path into GleIntegrator")
    n_points = 0
    sizes = {"timed": (700, 256), "probe": (100, 32)}

    def inputs(self, seed, probe=False):
        gseed, x0 = _seeded(self.name, seed)
        n_steps, particles = self.sizes["probe" if probe else "timed"]
        return {"seed": gseed, "x0": x0, "n_steps": n_steps, "particles": particles}

    def execute(self, gsle, inputs, out):
        from gsle.bath import OhmicSpec, discretize_ohmic
        from gsle.classical import GaussianCloud, LangevinConfig
        from gsle.coupling import CouplingFunction
        from gsle.evolve import NoiseSpec
        from gsle.potentials import PotentialSpec

        bath = discretize_ohmic(OhmicSpec(0.1, 20.0, 100, 0.1))
        config = LangevinConfig(
            potential=PotentialSpec.harmonic(1.0),
            coupling=CouplingFunction.linear(),
            noise=NoiseSpec(kind="bath", temperature=0.1, bath=bath),
            dt=0.01,
            n_steps=inputs["n_steps"],
            n_particles=inputs["particles"],
            initial=GaussianCloud(inputs["x0"], 0.0, SIGMA0, SIGMA0),
            memory=bath,
        )
        return [], gsle.classical.langevin_ensemble(config, inputs["seed"])

    def units(self, inputs):
        return {"particle_steps": inputs["n_steps"] * inputs["particles"]}

    def _arrays(self, result):
        ens = result[1]
        return [ens.times, ens.mean_x, ens.mean_p, ens.var_x, ens.stderr_x, ens.stderr_p]

    def check(self, gsle, inputs, out, result):
        import numpy as np

        if not all(np.all(np.isfinite(a)) for a in self._arrays(result)):
            return ["non-finite ensemble statistics"]
        return []

    def summary(self, gsle, inputs, out, result):
        ens = result[1]
        return {"mean_x": float(ens.mean_x[-1]), "mean_p": float(ens.mean_p[-1]),
                "var_x": float(ens.var_x[-1])}

    def digest(self, out, result):
        h = hashlib.sha256()
        for a in self._arrays(result):
            h.update(a.tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SingleAllTerms(), CompareEnsemble(),
                                 SnapshotsPost(), GleMemoryOracle())}
