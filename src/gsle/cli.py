"""Config parsing, experiment orchestration and file output.

Config files are sectioned key = value text (configparser syntax). Every
key is validated against the table below and converted to its type, read
by the chosen kind or not; unknown sections or keys are errors. The fully
resolved configuration is echoed to ``resolved_config.txt`` in the output
directory and is itself a valid config file (round-trip parseable).

Sections and keys (defaults in parentheses):

  [experiment] mode (gsle) | classical | compare;
               seed (0); ensemble_seeds (1); workers (1): must be 1, as an
               ensemble is stepped in-process as one batch
  [grid]       x_min (-20); x_max (20); n_points (512)
  [physics]    hbar (1); mass (1)
  [potential]  kind (harmonic): free|harmonic|linear_ramp|double_well|cubic;
               omega (1); center (0); b (1); a (1); c (1)
  [coupling]   kind (linear): linear|constant|power|sinusoidal|gup;
               c (1); n (2); amplitude (1); wavenumber (1)
  [run]        dt (0.005); n_steps (1000); friction (0); kappa (0);
               sign (damping); snapshot_stride (0)
  [noise]      kind (zero): zero|white|bath; temperature (0); cutoff (50);
               n_oscillators (500); bath: the Ohmic bath of [run] friction,
               discretized once for [physics] mass
  [initial]    kind (gaussian): gaussian|eigenstate; x0 (0); p0 (0);
               sigma (1); index (0); omega (1)
  [classical]  n_particles (1000); sigma_x (= initial sigma);
               sigma_p (= hbar / (2 sigma))
  [output]     observables (true); snapshots (false); trajectories (false);
               weak_values (false); n_trajectories (1000)

Outputs: observables.csv, snapshots/psi_<step>.csv, trajectories.csv,
weak_values_<step>.csv, members/seed_<s>/observables.csv, ensemble_summary.csv,
comparison.csv, resolved_config.txt, error.json.
Every CSV carries the master seed and the sha256 digest of the resolved
config as leading comment lines, so reruns are byte-identical. One writer,
_write_csv, spells every table: '%.17g' per cell, '' for NaN, formatted in
bounded blocks of rows.
Usage: gsle run|compare CONFIG, or gsle post RUN_DIR; each takes [--seed N] [--out DIR].
gsle post reads every snapshot of RUN_DIR on the grid of its resolved_config.txt,
and only a snapshot whose config_sha256 is the digest of that file's text.
Exit codes: 0 success, 2 numerical failure (such as the first overflow of a
run), 3 config error. Config errors (a value not of its key's type, such as
dt = nan; an unknown kind; a value its config type rejects, such as sigma <= 0,
seed < 0 or a potential or coupling whose value or slope is not finite on the
grid; snapshots, trajectories or weak_values asked of anything but a gsle
run of one seed with snapshot_stride > 0; or a malformed snapshot, one from
another run too) exit before any output.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .bath import NoiseSpec, OhmicSpec, discretize_ohmic
from .bohmian import polar_decompose, propagate_trajectories, weak_value
from .classical import MOMENTS, GaussianCloud, LangevinConfig, langevin_ensemble
from .coupling import CouplingFunction, gup_coupling
from .errors import ConfigError, GsleError, InvalidField, NonmonotonePotential, check_count
from .evolve import RECORDED, GaussianPacket, HarmonicEigenstate, RunRecord, SimConfig, run
from .fields import Grid, PhysicalParams, WaveFunction
from .potentials import PotentialSpec

_FLOAT = "%.17g"
_BLOCK_CELLS = 2**12   # cells formatted per '%': bounds the text held at once

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
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean"}


def _bath_noise(friction, cutoff, n_oscillators, temperature, mass) -> NoiseSpec:
    ohmic = OhmicSpec(friction, cutoff, n_oscillators, temperature)
    return NoiseSpec("bath", temperature, discretize_ohmic(ohmic, mass))


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
        "bath": (_bath_noise, (
            "run.friction", "noise.cutoff", "noise.n_oscillators", "noise.temperature",
            "physics.mass",
        )),
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
                elif cast is bool:
                    typed[key] = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
                else:
                    typed[key] = cast(raw)
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
    except (ConfigError, InvalidField, NonmonotonePotential) as exc:
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
        check_count("--seed", seed_override, 0)
        resolved["experiment"]["seed"] = str(seed_override)
    values = _convert(resolved)
    experiment, output = values["experiment"], values["output"]

    mode = experiment["mode"]
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got '{mode}'")
    check_count("[experiment] ensemble_seeds", experiment["ensemble_seeds"], 1)
    if experiment["workers"] != 1:
        raise ConfigError("workers must be 1: an ensemble is stepped in-process as one batch")
    check_count("[output] n_trajectories", output["n_trajectories"], 1)

    scope = {f"{sec}.{key}": v for sec, table in values.items() for key, v in table.items()}
    grid = scope["grid"] = Grid(**values["grid"])
    params = PhysicalParams(**values["physics"])
    potential = scope["potential"] = _build("potential", scope)
    coupling = _build("coupling", scope)
    noise = _build("noise", scope)
    initial = _build("initial", scope)

    sim = SimConfig(
        grid, params, potential, coupling, noise=noise, seed=experiment["seed"],
        initial_state=initial, **values["run"],
    )
    # every per-state output is read from the snapshots of one gsle run
    wanted = [key for key in ("snapshots", "trajectories", "weak_values") if output[key]]
    if wanted and (mode != "gsle" or experiment["ensemble_seeds"] > 1 or not sim.snapshot_stride):
        raise ConfigError(
            f"[output] {', '.join(wanted)} need the snapshots of one gsle run: "
            "mode = gsle, ensemble_seeds = 1 and [run] snapshot_stride > 0"
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
        n_trajectories=output.pop("n_trajectories"),
        **{f"emit_{key}": flag for key, flag in output.items()},   # the other [output] keys
        resolved_text=resolved_text,
        digest=digest,
    )


def _write_csv(path: Path, spec: ExperimentSpec, columns: dict, extra_comments=()):
    """Deterministic CSV of named equal-length float columns: '%.17g', '' for NaN.

    A key names its column, or comma-joined names the columns of a 2-D block; a Grid
    as the first column stands for grid.x, spelled once per grid by _x_templates.
    Rows are formatted in blocks of at most _BLOCK_CELLS cells (at least one row),
    one '%' over one template each, so the text held at once stays small.
    """
    header = ",".join(columns)
    values = list(columns.values())
    grid = values.pop(0) if isinstance(values[0], Grid) else None
    table = np.column_stack(values)
    rows = max(1, _BLOCK_CELLS // (header.count(",") + 1))   # cells per row: the names
    row = ",".join([_FLOAT] * table.shape[1]) + "\n"
    with path.open("w") as fh:
        head = [f"# seed = {spec.sim.seed}", f"# config_sha256 = {spec.digest}", *extra_comments]
        fh.write("\n".join(head + [header]) + "\n")
        for i, start in enumerate(range(0, len(table), rows)):
            block = table[start:start + rows]
            template = row * len(block) if grid is None else _x_templates(grid, row, rows)[i]
            # '%.17g' spells NaN 'nan', and no other number it writes holds those letters
            fh.write((template % tuple(block.ravel().tolist())).replace("nan", ""))


@lru_cache(maxsize=4)
def _x_templates(grid: Grid, row: str, rows: int) -> tuple:
    """Block templates of a table on grid: each row its grid.x cell (finite: no 'nan'
    or '%' in its text), then row."""
    x = grid.x.tolist()
    blocks = (x[i:i + rows] for i in range(0, len(x), rows))
    return tuple("".join(_FLOAT % v + "," + row for v in block) for block in blocks)


def _write_observables(path: Path, spec: ExperimentSpec, rec: RunRecord):
    _write_csv(path, spec, {"t": rec.times, **{name: getattr(rec, name) for name in RECORDED}})


def _write_snapshot(path: Path, spec: ExperimentSpec, psi: WaveFunction):
    _write_csv(path, spec, {"x": psi.grid, "re": psi.values.real, "im": psi.values.imag})


def _write_states(out: Path, spec: ExperimentSpec, snapshots):
    """The per-state tables that [output] asks of the (step, psi) snapshots:
    snapshots/psi_<step>.csv, weak_values_<step>.csv and trajectories.csv.

    Each state is decomposed once, and only for a weak-value or trajectory table.
    """
    if spec.emit_snapshots:
        (out / "snapshots").mkdir(exist_ok=True)
        for step, psi in snapshots:
            _write_snapshot(out / "snapshots" / f"psi_{step}.csv", spec, psi)
    if not (spec.emit_weak_values or spec.emit_trajectories):
        return
    steps = [step for step, _ in snapshots]
    history = [weak_value(polar_decompose(psi, spec.sim.params.hbar)) for _, psi in snapshots]
    if spec.emit_weak_values:
        for step, wv in zip(steps, history):
            masked = lambda part: np.where(wv.node_mask, np.nan, part)
            columns = {"re_p": masked(wv.real_part), "im_p": masked(wv.imag_part)}
            _write_csv(out / f"weak_values_{step}.csv", spec, {"x": wv.psi.grid, **columns})
    if spec.emit_trajectories:
        times = spec.sim.dt * np.array(steps, dtype=float)
        ens = propagate_trajectories(
            history, times, spec.n_trajectories, spec.sim.seed, spec.sim.params
        )
        names = ",".join(f"x_{i}" for i in range(1, len(ens.positions) + 1))
        _write_csv(out / "trajectories.csv", spec, {"t": ens.times, names: ens.positions.T})


def _run_ensemble(spec: ExperimentSpec, out: Path):
    """GSLE ensemble: per-member observables, if [output] observables, plus one summary.

    The members are stepped in-process as one batch, whose guard warns once, naming them.
    """
    member_seeds = [spec.sim.seed + i for i in range(spec.ensemble_seeds)]
    records = run(replace(spec.sim, snapshot_stride=0), seeds=member_seeds)
    if spec.emit_observables:
        for seed, rec in zip(member_seeds, records):
            member_dir = out / "members" / f"seed_{seed}"
            member_dir.mkdir(parents=True, exist_ok=True)
            _write_observables(member_dir / "observables.csv", spec, rec)
    return records


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
        stats = _ensemble_stats(_run_ensemble(spec, out))
        comments = (f"# ensemble_seeds = {spec.ensemble_seeds}",)
        _write_csv(out / "ensemble_summary.csv", spec, stats, extra_comments=comments)
        return 0
    rec = run(spec.sim)
    if spec.emit_observables:
        _write_observables(out / "observables.csv", spec, rec)
    _write_states(out, spec, rec.snapshots)
    return 0


def _run_classical(spec: ExperimentSpec, out: Path) -> int:
    ens = langevin_ensemble(spec.classical, spec.sim.seed)
    if spec.emit_observables:
        columns = {"t": ens.times, **{name: getattr(ens, name) for name in MOMENTS}}
        _write_csv(out / "observables.csv", spec, columns)
    return 0


def _run_compare(spec: ExperimentSpec, out: Path) -> int:
    q = _ensemble_stats(_run_ensemble(spec, out))
    cl = langevin_ensemble(spec.classical, spec.sim.seed)
    columns = {"t": q["t"]}
    comments = [
        f"# ensemble_seeds = {spec.ensemble_seeds}",
        f"# n_particles = {spec.classical.n_particles}",
    ]
    for a in ("x", "p"):
        mean_q, se_q = q[f"mean_{a}"], q[f"stderr_{a}"]
        mean_cl, se_cl = getattr(cl, f"mean_{a}"), getattr(cl, f"stderr_{a}")
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.abs(mean_q - mean_cl) / np.sqrt(se_q**2 + se_cl**2)
        # t = 0 has zero quantum spread across seeds; exclude indeterminate cells
        finite = score[np.isfinite(score)]
        comments.append(f"# max_score_{a} = {_FLOAT % (finite.max() if finite.size else 0.0)}")
        columns.update({
            f"mean_{a}_q": mean_q, f"stderr_{a}_q": se_q,
            f"mean_{a}_cl": mean_cl, f"stderr_{a}_cl": se_cl, f"score_{a}": score,
        })
    columns.update(var_x_q=q["var_x"], var_x_cl=cl.var_x)
    _write_csv(out / "comparison.csv", spec, columns, extra_comments=comments)
    return 0


def _load_snapshot(path: Path, grid: Grid, digest: str) -> WaveFunction:
    """Read a snapshot written by _write_snapshot, on the run's config grid.

    digest is the sha256 of the run's resolved_config.txt text, which the run wrote
    into every table. The text is split once at its x,re,im header; the rows below
    it are parsed by one np.loadtxt, and the head's other comments (an older run's
    '# grid' line too) are skipped. No '# config_sha256 = <digest>' line in the head,
    no rows, rows other than grid.n_points of x,re,im, an x column other than grid.x
    bit for bit, or a cell that is not a finite number is a ConfigError naming the file.
    """
    head, _, body = path.read_text().partition("\nx,re,im\n")
    try:
        if f"# config_sha256 = {digest}" not in head.splitlines():
            raise ValueError("not a snapshot of this run: its config_sha256 is not "
                             "the digest of resolved_config.txt")
        if not body.strip():   # checked here, as np.loadtxt only warns on no rows
            raise ValueError("no rows of x,re,im")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if table.shape != (grid.n_points, 3):
            raise ValueError(f"a {table.shape} table, not {grid.n_points} rows of x,re,im")
        if table[:, 0].tobytes() != grid.x.tobytes():
            raise ValueError("an x column other than the config grid's")
        # re and im side by side, viewed as complex: the exact doubles, signed zeros kept
        return WaveFunction(grid, np.ascontiguousarray(table[:, 1:]).view(complex)[:, 0])
    except (ValueError, InvalidField) as exc:   # a bad table or cell, or a non-finite sample
        raise ConfigError(f"{path} is malformed: {exc}")


def _run_post(run_dir: Path, out: Path, seed_override: Optional[int]) -> int:
    cfg_path = run_dir / "resolved_config.txt"
    if not cfg_path.exists():
        raise ConfigError(f"no resolved_config.txt in {run_dir}")
    cfg_text = cfg_path.read_text()
    spec = parse_config(cfg_text, seed_override=seed_override)
    digest = hashlib.sha256(cfg_text.encode()).hexdigest()   # spec.digest moves with --seed
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
    snapshots = [(step, _load_snapshot(p, spec.sim.grid, digest)) for step, p in paths]
    out.mkdir(parents=True, exist_ok=True)
    spec = replace(spec, emit_snapshots=False, emit_weak_values=True, emit_trajectories=True)
    _write_states(out, spec, snapshots)
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
    if getattr(exc, "t", None) is not None:
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
    except GsleError as exc:
        _write_error(args.out, exc, 2)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
