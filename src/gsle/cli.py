"""Config parsing, experiment orchestration and file output.

Config files are sectioned key = value text (configparser syntax). Every
key is validated against the table below and converted to its type, read
by the chosen kind or not; unknown sections or keys are errors. The fully
resolved configuration is echoed to ``resolved_config.txt`` in the output
directory and is itself a valid config file (round-trip parseable).

Sections and keys (defaults in parentheses):

  [experiment] mode (gsle) | classical | compare;
               seed (0); ensemble_seeds (1); workers (1): processes, each
               stepping one contiguous chunk of the member seeds as a batch
  [grid]       x_min (-20); x_max (20); n_points (512)
  [physics]    hbar (1); mass (1)
  [potential]  kind (harmonic): free|harmonic|linear_ramp|double_well|cubic;
               omega (1); center (0); b (1); a (1); c (1)
  [coupling]   kind (linear): linear|constant|power|sinusoidal|gup;
               c (1); n (2); amplitude (1); wavenumber (1)
  [run]        dt (0.005); n_steps (1000); friction (0); kappa (0);
               sign (damping); snapshot_stride (0)
  [noise]      kind (zero): zero|white|bath; temperature (0);
               cutoff (50); n_oscillators (500)
  [initial]    kind (gaussian): gaussian|eigenstate; x0 (0); p0 (0);
               sigma (1); index (0); omega (1)
  [classical]  n_particles (1000); sigma_x (= initial sigma);
               sigma_p (= hbar / (2 sigma))
  [output]     observables (true); snapshots (false); trajectories (false);
               weak_values (false); n_trajectories (1000)

Outputs: observables.csv, snapshots/psi_<step>.csv, trajectories.csv,
weak_values_<step>.csv, comparison.csv, resolved_config.txt, error.json.
Every CSV carries the master seed and the sha256 digest of the resolved
config as leading comment lines, so reruns are byte-identical.
Usage: gsle run|compare CONFIG, or gsle post RUN_DIR; each takes [--seed N] [--out DIR].
Exit codes: 0 success, 2 numerical failure, 3 config error. Config errors
(a value not of its key's type, such as dt = nan; an unknown kind; or a value
a type rejects, such as sigma <= 0 or snapshot_stride < 0) exit before any output.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .bath import NoiseSpec, OhmicSpec
from .bohmian import polar_decompose, propagate_trajectories, weak_value
from .classical import GaussianCloud, LangevinConfig, langevin_ensemble
from .coupling import CouplingFunction, gup_coupling
from .errors import ConfigError, GsleError, InvalidField, NonmonotonePotential, NumericalBlowup
from .evolve import (
    GaussianPacket,
    HarmonicEigenstate,
    RunRecord,
    SimConfig,
    run,
)
from .fields import Grid, PhysicalParams, WaveFunction
from .potentials import PotentialSpec

_FLOAT = "%.17g"

# (section, key) -> (default as config text, type). The parser fills in the
# defaults, rejects anything not listed here and converts every value to its
# type; the empty [classical] sigma_x/sigma_p defaults mean "derived".
_KEY_TABLE = {
    "experiment": {
        "mode": ("gsle", str),
        "seed": ("0", int),
        "ensemble_seeds": ("1", int),
        "workers": ("1", int),
    },
    "grid": {"x_min": ("-20", float), "x_max": ("20", float), "n_points": ("512", int)},
    "physics": {"hbar": ("1", float), "mass": ("1", float)},
    "potential": {
        "kind": ("harmonic", str),
        "omega": ("1", float),
        "center": ("0", float),
        "b": ("1", float),
        "a": ("1", float),
        "c": ("1", float),
    },
    "coupling": {
        "kind": ("linear", str),
        "c": ("1", float),
        "n": ("2", int),
        "amplitude": ("1", float),
        "wavenumber": ("1", float),
    },
    "run": {
        "dt": ("0.005", float),
        "n_steps": ("1000", int),
        "friction": ("0", float),
        "kappa": ("0", float),
        "sign": ("damping", str),
        "snapshot_stride": ("0", int),
    },
    "noise": {
        "kind": ("zero", str),
        "temperature": ("0", float),
        "cutoff": ("50", float),
        "n_oscillators": ("500", int),
    },
    "initial": {
        "kind": ("gaussian", str),
        "x0": ("0", float),
        "p0": ("0", float),
        "sigma": ("1", float),
        "index": ("0", int),
        "omega": ("1", float),
    },
    "classical": {"n_particles": ("1000", int), "sigma_x": ("", float), "sigma_p": ("", float)},
    "output": {
        "observables": ("true", bool),
        "snapshots": ("false", bool),
        "trajectories": ("false", bool),
        "weak_values": ("false", bool),
        "n_trajectories": ("1000", int),
    },
}

_MODES = ("gsle", "classical", "compare")
_BOOLS = {"true": True, "yes": True, "1": True, "on": True}
_BOOLS.update({"false": False, "no": False, "0": False, "off": False})
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean"}


def _bath_noise(*ohmic_args) -> NoiseSpec:
    ohmic = OhmicSpec(*ohmic_args)
    return NoiseSpec(kind="bath", temperature=ohmic.temperature, ohmic=ohmic)


# [section] kind -> (factory, the keys of its positional arguments). A key
# "section.key" is that typed config value; "grid" and "potential" are the
# objects already built.
_KINDS = {
    "potential": {
        "free": (PotentialSpec.free, ()),
        "harmonic": (
            PotentialSpec.harmonic, ("potential.omega", "physics.mass", "potential.center")
        ),
        "linear_ramp": (PotentialSpec.linear_ramp, ("potential.b",)),
        "double_well": (PotentialSpec.double_well, ("potential.a", "potential.b")),
        "cubic": (PotentialSpec.cubic, ("potential.c",)),
    },
    "coupling": {
        "linear": (CouplingFunction.linear, ()),
        "constant": (CouplingFunction.constant, ("coupling.c",)),
        "power": (CouplingFunction.power, ("coupling.n",)),
        "sinusoidal": (
            CouplingFunction.sinusoidal, ("coupling.amplitude", "coupling.wavenumber")
        ),
        "gup": (gup_coupling, ("potential", "grid")),
    },
    "noise": {
        "zero": (NoiseSpec, ()),
        "white": (partial(NoiseSpec, "white"), ("noise.temperature",)),
        "bath": (
            _bath_noise,
            ("run.friction", "noise.cutoff", "noise.n_oscillators", "noise.temperature"),
        ),
    },
    "initial": {
        "gaussian": (GaussianPacket, ("initial.x0", "initial.p0", "initial.sigma")),
        "eigenstate": (HarmonicEigenstate, ("initial.index", "initial.omega")),
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    sim: SimConfig
    classical: Optional[LangevinConfig]
    ensemble_seeds: int
    workers: int
    seed: int
    emit_observables: bool
    emit_snapshots: bool
    emit_trajectories: bool
    emit_weak_values: bool
    n_trajectories: int
    resolved_text: str
    digest: str


def _resolve(text: str) -> dict:
    """Merge the document onto the default table; reject unknown keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    resolved = {sec: {k: d for k, (d, _) in table.items()} for sec, table in _KEY_TABLE.items()}
    for section in parser.sections():
        if section not in _KEY_TABLE:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _KEY_TABLE[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            resolved[section][key] = value.strip()
    return resolved


def _convert(resolved) -> dict:
    """Every resolved value as its table type; "" stays None where it is the default."""
    values = {}
    for section, table in _KEY_TABLE.items():
        values[section] = typed = {}
        for key, (default, cast) in table.items():
            raw = resolved[section][key]
            try:
                if raw == default == "":
                    typed[key] = None
                else:
                    typed[key] = _BOOLS[raw.lower()] if cast is bool else cast(raw)
                    if cast is float and not np.isfinite(typed[key]):
                        raise ValueError
            except (KeyError, ValueError):
                wanted = _TYPE_NAMES[cast]
                raise ConfigError(f"[{section}] {key} = {raw!r} is not {wanted}") from None
    return values


def _build(section: str, scope: dict):
    """The object that [section] kind names, from its factory in _KINDS."""
    kind = scope[f"{section}.kind"]
    if kind not in _KINDS[section]:
        raise ConfigError(f"unknown {section} kind '{kind}'")
    factory, keys = _KINDS[section][kind]
    try:
        return factory(*(scope[key] for key in keys))
    except (InvalidField, NonmonotonePotential) as exc:
        raise ConfigError(f"[{section}] kind = {kind}: {exc}") from exc


def _render(resolved) -> str:
    lines = []
    for section, table in resolved.items():
        lines.append(f"[{section}]")
        for key, value in table.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, seed_override: Optional[int] = None) -> ExperimentSpec:
    """Validate a config document and resolve it into an ExperimentSpec."""
    resolved = _resolve(text)
    if seed_override is not None:
        resolved["experiment"]["seed"] = str(int(seed_override))
    values = _convert(resolved)
    experiment, output = values["experiment"], values["output"]

    mode = experiment["mode"]
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got '{mode}'")
    if experiment["ensemble_seeds"] < 1:
        raise ConfigError("ensemble_seeds must be >= 1")
    if experiment["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    if output["n_trajectories"] < 1:
        raise ConfigError("n_trajectories must be >= 1")

    scope = {f"{sec}.{key}": v for sec, table in values.items() for key, v in table.items()}
    try:
        grid = scope["grid"] = Grid(**values["grid"])
        params = PhysicalParams(**values["physics"])
    except InvalidField as exc:
        raise ConfigError(str(exc)) from exc
    potential = scope["potential"] = _build("potential", scope)
    coupling = _build("coupling", scope)
    noise = _build("noise", scope)
    initial = _build("initial", scope)

    sim = SimConfig(
        grid, params, potential, coupling, noise=noise, seed=experiment["seed"],
        initial_state=initial, **values["run"],
    )

    classical = None
    if mode in ("classical", "compare"):
        if not isinstance(initial, GaussianPacket):
            raise ConfigError("classical runs need a gaussian initial state")
        given = values["classical"]
        sigma_x, sigma_p = given["sigma_x"], given["sigma_p"]
        sigma_x = initial.sigma if sigma_x is None else sigma_x
        sigma_p = params.hbar / (2.0 * initial.sigma) if sigma_p is None else sigma_p
        resolved["classical"]["sigma_x"] = _FLOAT % sigma_x
        resolved["classical"]["sigma_p"] = _FLOAT % sigma_p
        classical = LangevinConfig(
            params=params,
            potential=potential,
            coupling=coupling,
            friction=sim.friction,
            noise=noise,
            dt=sim.dt,
            n_steps=sim.n_steps,
            n_particles=given["n_particles"],
            initial=GaussianCloud(
                x0=initial.x0, p0=initial.p0, sigma_x=sigma_x, sigma_p=sigma_p
            ),
        )

    resolved_text = _render(resolved)
    digest = hashlib.sha256(resolved_text.encode()).hexdigest()
    return ExperimentSpec(
        mode=mode,
        sim=sim,
        classical=classical,
        ensemble_seeds=experiment["ensemble_seeds"],
        workers=experiment["workers"],
        seed=experiment["seed"],
        n_trajectories=output.pop("n_trajectories"),
        **{f"emit_{key}": flag for key, flag in output.items()},   # the other [output] keys
        resolved_text=resolved_text,
        digest=digest,
    )


def _header_lines(spec: ExperimentSpec):
    return [f"# seed = {spec.seed}", f"# config_sha256 = {spec.digest}"]


def _write_csv(path: Path, spec: ExperimentSpec, header, columns, extra_comments=()):
    """Deterministic CSV of equal-length float columns: '%.17g', '' for NaN."""
    lines = _header_lines(spec) + list(extra_comments) + [",".join(header)]
    table = np.column_stack(columns)
    row_format = ",".join([_FLOAT] * table.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write("\n".join(lines) + "\n")
        # '%.17g' spells NaN 'nan', and no other number it writes holds those letters
        fh.writelines((row_format % tuple(row.tolist())).replace("nan", "") for row in table)


def _write_observables(path: Path, spec: ExperimentSpec, rec: RunRecord):
    cols = ("t", "norm", "mean_x", "mean_p", "var_x", "energy", "W", "xi")
    columns = (
        rec.times, rec.norm, rec.mean_x, rec.mean_p, rec.var_x, rec.energy, rec.W, rec.xi
    )
    _write_csv(path, spec, cols, columns)


def _write_snapshot(path: Path, spec: ExperimentSpec, psi: WaveFunction):
    grid = psi.grid
    meta = (
        f"# grid x_min = {_FLOAT % grid.x_min} x_max = {_FLOAT % grid.x_max} "
        f"n_points = {grid.n_points}",
    )
    columns = (grid.x, psi.values.real, psi.values.imag)
    _write_csv(path, spec, ("x", "re", "im"), columns, extra_comments=meta)


def _write_weak_values(path: Path, spec: ExperimentSpec, psi: WaveFunction):
    params = spec.sim.params
    wv = weak_value(polar_decompose(psi, hbar=params.hbar), params)
    masked = lambda part: np.where(wv.node_mask, np.nan, part.values)
    columns = (psi.grid.x, masked(wv.real_part), masked(wv.imag_part))
    _write_csv(path, spec, ("x", "re_p", "im_p"), columns)


def _write_trajectories(path: Path, spec: ExperimentSpec, snapshots):
    """Bohmian trajectories through the (step, psi) snapshots."""
    steps, history = zip(*snapshots)
    times = spec.sim.dt * np.array(steps, dtype=float)
    ens = propagate_trajectories(
        history, times, spec.n_trajectories, spec.seed, spec.sim.params
    )
    cols = ("t",) + tuple(f"x_{i + 1}" for i in range(ens.positions.shape[0]))
    _write_csv(path, spec, cols, (ens.times, ens.positions.T))


def _run_members(sim: SimConfig, seeds) -> list:
    """Member records of one batch; members' warnings stay silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(replace(sim, snapshot_stride=0), seeds=seeds)


def _run_member_chunk(args) -> list:
    """Worker entry point: a chunk of seeds under the config text (picklable payload)."""
    text, seeds = args
    return _run_members(parse_config(text).sim, seeds)


def _run_ensemble(spec: ExperimentSpec, out: Path):
    """GSLE ensemble: per-member observables plus one merged summary.

    The members are split into `workers` contiguous chunks; each chunk is
    stepped as one batch, in its own process when there is more than one.
    """
    member_seeds = [spec.seed + i for i in range(spec.ensemble_seeds)]
    chunks = [c.tolist() for c in np.array_split(member_seeds, spec.workers) if c.size]
    if len(chunks) > 1:
        payload = [(spec.resolved_text, chunk) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            records = [rec for part in pool.map(_run_member_chunk, payload) for rec in part]
    else:
        records = _run_members(spec.sim, member_seeds)
    members_dir = out / "members"
    members_dir.mkdir(exist_ok=True)
    for seed, rec in zip(member_seeds, records):
        member_dir = members_dir / f"seed_{seed}"
        member_dir.mkdir(exist_ok=True)
        _write_observables(member_dir / "observables.csv", spec, rec)
    return member_seeds, records


def _ensemble_stats(records):
    mean_x = np.array([r.mean_x for r in records])
    mean_p = np.array([r.mean_p for r in records])
    var_x = np.array([r.var_x for r in records])
    n = len(records)
    se = lambda a: a.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(a.shape[1])
    return {
        "t": records[0].times,
        "mean_x": mean_x.mean(axis=0),
        "stderr_x": se(mean_x),
        "mean_p": mean_p.mean(axis=0),
        "stderr_p": se(mean_p),
        "var_x": var_x.mean(axis=0),
    }


def _run_gsle(spec: ExperimentSpec, out: Path) -> int:
    if spec.ensemble_seeds > 1:
        seeds, records = _run_ensemble(spec, out)
        stats = _ensemble_stats(records)
        cols = ("t", "mean_x", "stderr_x", "mean_p", "stderr_p", "var_x")
        _write_csv(
            out / "ensemble_summary.csv",
            spec,
            cols,
            [stats[c] for c in cols],
            extra_comments=(f"# ensemble_seeds = {len(seeds)}",),
        )
        return 0
    rec = run(spec.sim)
    if spec.emit_observables:
        _write_observables(out / "observables.csv", spec, rec)
    if rec.snapshots:
        if spec.emit_snapshots:
            snap_dir = out / "snapshots"
            snap_dir.mkdir(exist_ok=True)
            for step, psi in rec.snapshots:
                _write_snapshot(snap_dir / f"psi_{step}.csv", spec, psi)
        if spec.emit_weak_values:
            for step, psi in rec.snapshots:
                _write_weak_values(out / f"weak_values_{step}.csv", spec, psi)
        if spec.emit_trajectories:
            _write_trajectories(out / "trajectories.csv", spec, rec.snapshots)
    return 0


def _run_classical(spec: ExperimentSpec, out: Path) -> int:
    ens = langevin_ensemble(spec.classical, spec.seed)
    cols = ("t", "mean_x", "mean_p", "var_x", "stderr_x", "stderr_p")
    columns = (ens.times, ens.mean_x, ens.mean_p, ens.var_x, ens.stderr_x, ens.stderr_p)
    _write_csv(out / "observables.csv", spec, cols, columns)
    return 0


def _run_compare(spec: ExperimentSpec, out: Path) -> int:
    seeds, records = _run_ensemble(spec, out)
    q = _ensemble_stats(records)
    cl = langevin_ensemble(spec.classical, spec.seed)
    comb_x = np.sqrt(q["stderr_x"] ** 2 + cl.stderr_x**2)
    comb_p = np.sqrt(q["stderr_p"] ** 2 + cl.stderr_p**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        score_x = np.abs(q["mean_x"] - cl.mean_x) / comb_x
        score_p = np.abs(q["mean_p"] - cl.mean_p) / comb_p
    # t = 0 has zero quantum spread across seeds; exclude indeterminate cells
    finite_x = score_x[np.isfinite(score_x)]
    finite_p = score_p[np.isfinite(score_p)]
    max_x = float(finite_x.max()) if finite_x.size else 0.0
    max_p = float(finite_p.max()) if finite_p.size else 0.0
    cols = (
        "t",
        "mean_x_q", "stderr_x_q", "mean_x_cl", "stderr_x_cl", "score_x",
        "mean_p_q", "stderr_p_q", "mean_p_cl", "stderr_p_cl", "score_p",
        "var_x_q", "var_x_cl",
    )
    columns = (
        q["t"],
        q["mean_x"], q["stderr_x"], cl.mean_x, cl.stderr_x, score_x,
        q["mean_p"], q["stderr_p"], cl.mean_p, cl.stderr_p, score_p,
        q["var_x"], cl.var_x,
    )
    _write_csv(
        out / "comparison.csv",
        spec,
        cols,
        columns,
        extra_comments=(
            f"# ensemble_seeds = {len(seeds)}",
            f"# n_particles = {spec.classical.n_particles}",
            f"# max_score_x = {_FLOAT % max_x}",
            f"# max_score_p = {_FLOAT % max_p}",
        ),
    )
    return 0


def _load_snapshot(path: Path) -> WaveFunction:
    """Read a snapshot written by _write_snapshot; malformed files are ConfigError."""
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# grid")]
    if not meta:
        raise ConfigError(f"{path} has no grid metadata line")
    body = [
        ln.split(",") for ln in lines if ln.strip() and not ln.startswith(("#", "x,"))
    ]
    try:
        parts = meta[0].replace("=", " ").split()
        grid = Grid(float(parts[3]), float(parts[5]), int(parts[7]))
        table = np.array(body, dtype=float)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path} is malformed: {exc}")
    if table.shape != (grid.n_points, 3):
        raise ConfigError(
            f"{path} holds a {table.shape} table, expected {grid.n_points} rows of x,re,im"
        )
    # re and im side by side, viewed as complex: the exact doubles, signed zeros kept
    return WaveFunction(grid, np.ascontiguousarray(table[:, 1:]).view(complex)[:, 0])


def _run_post(run_dir: Path, out: Path, seed_override: Optional[int]) -> int:
    cfg_path = run_dir / "resolved_config.txt"
    if not cfg_path.exists():
        raise ConfigError(f"no resolved_config.txt in {run_dir}")
    spec = parse_config(cfg_path.read_text(), seed_override=seed_override)
    snap_dir = run_dir / "snapshots"
    paths = []
    for p in snap_dir.glob("psi_*.csv"):
        step = p.stem[len("psi_"):]
        if not step.isdecimal():
            raise ConfigError(f"{p} is not a snapshot name psi_<step>.csv")
        paths.append((int(step), p))
    paths.sort()
    if not paths:
        raise ConfigError(f"no snapshots found under {snap_dir}")
    snapshots = [(step, _load_snapshot(p)) for step, p in paths]
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectories(out / "trajectories.csv", spec, snapshots)
    for step, psi in snapshots:
        _write_weak_values(out / f"weak_values_{step}.csv", spec, psi)
    return 0


def run_experiment(spec: ExperimentSpec, out_dir) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(spec.resolved_text)
    if spec.mode == "gsle":
        return _run_gsle(spec, out)
    if spec.mode == "classical":
        return _run_classical(spec, out)
    if spec.mode == "compare":
        return _run_compare(spec, out)
    raise ConfigError(f"mode '{spec.mode}' cannot be launched from run_experiment")


def _write_error(out_dir, exc: Exception, code: int):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, NumericalBlowup) and getattr(exc, "t", None) is not None:
        record["t"] = exc.t
    (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gsle", description="nonlinear stochastic wave-equation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, src in (("run", "config"), ("compare", "config"), ("post", "run_dir")):
        p = sub.add_parser(name)
        p.add_argument(src)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="gsle_out")
    args = parser.parse_args(argv)

    try:
        if args.command == "post":
            return _run_post(Path(args.run_dir), Path(args.out), args.seed)
        text = Path(args.config).read_text()
        spec = parse_config(text, seed_override=args.seed)
        if args.command == "compare" and spec.mode != "compare":
            raise ConfigError(
                "the compare command needs mode = compare in [experiment]"
            )
        return run_experiment(spec, args.out)
    except ConfigError as exc:
        _write_error(args.out, exc, 3)
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (NumericalBlowup, GsleError) as exc:
        _write_error(args.out, exc, 2)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
