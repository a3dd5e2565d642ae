"""Config parsing, output files, exit codes, determinism of the CLI."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsle
from conftest import gaussian_state
from gsle.cli import _load_snapshot, _write_csv, _write_snapshot, main, parse_config
from gsle.errors import ConfigError, StabilityWarning
from gsle.fields import Grid

KOSTIN_CFG = """
[experiment]
mode = gsle
seed = 7

[run]
dt = 0.005
n_steps = 400
friction = 0.1
snapshot_stride = 100

[initial]
x0 = 2
sigma = 0.7071067811865476

[output]
snapshots = true
weak_values = true
trajectories = true
n_trajectories = 40
"""

SMALL_RUN_CFG = """
[grid]
x_min = -10
x_max = 10
n_points = 64

[run]
n_steps = 20
snapshot_stride = 10

[initial]
x0 = 1
p0 = 0.5

[output]
snapshots = true
n_trajectories = 10
"""


@lru_cache(maxsize=None)
def small_run_files():
    """(relative path, text) of the resolved config and the three snapshots of
    a gsle run of SMALL_RUN_CFG."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, run_dir = Path(tmp) / "run.cfg", Path(tmp) / "run"
        cfg.write_text(SMALL_RUN_CFG)
        assert main(["run", str(cfg), "--out", str(run_dir)]) == 0
        paths = [run_dir / "resolved_config.txt", *sorted(run_dir.glob("snapshots/psi_*.csv"))]
        return tuple((str(p.relative_to(run_dir)), p.read_text()) for p in paths)


class TestParseConfig:
    def test_defaults_resolved(self):
        spec = parse_config("[potential]\nkind = harmonic\n")
        assert spec.mode == "gsle"
        assert spec.sim.grid.n_points == 512
        assert spec.sim.grid.x_min == -20.0
        assert spec.sim.dt == 0.005
        assert spec.sim.friction == 0.0
        assert spec.sim.kappa == 0.0
        assert spec.sim.sign == "damping"
        assert spec.sim.noise.kind == "zero"

    def test_negative_dt(self):
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config("[run]\ndt = -1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("[run]\nfrobnicate = 1\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="widgets"):
            parse_config("[widgets]\nn = 1\n")

    def test_paper_sign_passthrough(self):
        spec = parse_config("[run]\nsign = paper\n")
        assert spec.sim.sign == "paper"
        assert "sign = paper" in spec.resolved_text

    def test_round_trip(self):
        spec = parse_config(KOSTIN_CFG)
        again = parse_config(spec.resolved_text)
        assert again.resolved_text == spec.resolved_text
        assert again.digest == spec.digest

    def test_default_digest_golden(self):
        """The resolved text of the empty config, hence every CSV header, is fixed."""
        digest = "e3be09edaae881b6ef70ef07b1887bcdcefd4a5019911ace7f35dc3162eb3837"
        assert parse_config("").digest == digest

    def test_seed_override(self):
        spec = parse_config(KOSTIN_CFG, seed_override=99)
        assert spec.sim.seed == 99

    @pytest.mark.parametrize("mode", ["quantum", "bohmian-post"])
    def test_bad_mode(self, mode, tmp_path):
        text = f"[experiment]\nmode = {mode}\n"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(text)
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 3
        assert not (out / "resolved_config.txt").exists()


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRunCommand:
    def test_full_run_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "observables.csv").exists()
        assert (out / "resolved_config.txt").exists()
        assert (out / "snapshots" / "psi_0.csv").exists()
        assert (out / "snapshots" / "psi_400.csv").exists()
        assert (out / "weak_values_400.csv").exists()
        assert (out / "trajectories.csv").exists()
        header = (out / "observables.csv").read_text().splitlines()
        assert header[0] == "# seed = 7"
        assert header[1].startswith("# config_sha256 = ")
        assert header[2] == "t,norm,mean_x,mean_p,var_x,energy,W,xi"
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[2] == "t," + ",".join(f"x_{i}" for i in range(1, 41))

    def test_ensemble_outputs(self, tmp_path):
        """An ensemble run writes each member's observables and one summary."""
        cfg = write_cfg(tmp_path, "[experiment]\nseed = 4\nensemble_seeds = 2\n[run]\nn_steps = 3\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == [
            "ensemble_summary.csv",
            "members/seed_4/observables.csv",
            "members/seed_5/observables.csv",
            "resolved_config.txt",
        ]
        lines = (out / "ensemble_summary.csv").read_text().splitlines()
        assert lines[2:4] == ["# ensemble_seeds = 2", "t,mean_x,stderr_x,mean_p,stderr_p,var_x"]
        assert len(lines) == 4 + 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(a)]) == 0
        assert main(["run", cfg, "--out", str(b)]) == 0
        assert (a / "observables.csv").read_bytes() == (
            b / "observables.csv"
        ).read_bytes()
        assert (a / "trajectories.csv").read_bytes() == (
            b / "trajectories.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[run]\ndt = -1\n", "dt"),
            ("[experiment]\nmode = classical\n[classical]\nsigma_x = abc\n", "sigma_x"),
            ("[grid]\nn_points = 100\n", "n_points"),
            ("[physics]\nhbar = -1\n", "hbar"),
            ("[coupling]\nkind = gup\n[run]\nn_steps = 2\n", "[coupling] kind"),
            ("[noise]\nkind = bath\nn_oscillators = 0\n", "n_oscillators"),
            ("[run]\nfriction = 0.1\n[noise]\nkind = white\ntemperature = -1\n", "temperature"),
            (
                "[experiment]\nmode = classical\n[run]\nfriction = 0.1\n"
                "[noise]\nkind = white\ntemperature = -1\n",
                "temperature",
            ),
            ("[initial]\nkind = eigenstate\nindex = -1\n", "index"),
            (
                "[run]\nn_steps = 2\nsnapshot_stride = 1\n"
                "[output]\ntrajectories = true\nn_trajectories = -1\n",
                "n_trajectories",
            ),
            ("[run]\nn_steps = 2\n[initial]\nsigma = 0\n", "sigma"),
            ("[run]\nn_steps = 2\n[initial]\nsigma = -1\n", "sigma"),
            ("[run]\nn_steps = 2\n[initial]\nkind = eigenstate\nomega = 0\n", "omega"),
            ("[run]\nn_steps = 2\n[initial]\nkind = eigenstate\nomega = -1\n", "omega"),
            ("[run]\ndt = nan\nn_steps = 2\n", "dt"),
            ("[run]\ndt = inf\nn_steps = 2\n", "dt"),
            ("[run]\nn_steps = 2\nsnapshot_stride = -1\n", "snapshot_stride"),
            ("[run]\nn_steps = 2\n[potential]\nkind = free\nomega = abc\n", "omega"),
            ("[run]\nn_steps = 3\nkappa = nan\n", "kappa"),
            ("[run]\nn_steps = 3\nfriction = nan\n", "friction"),
            ("[run]\nn_steps = 3\n[initial]\nx0 = nan\n", "x0"),
            ("[run]\nn_steps = 3\n[physics]\nmass = inf\n", "mass"),
            ("[run]\nn_steps = 3\n[potential]\nomega = nan\n", "omega"),
            ("[run]\nn_steps = 3\nfriction = 0.1\n[noise]\nkind = bath\ncutoff = nan\n", "cutoff"),
            (
                "[run]\nn_steps = 3\nfriction = 0.1\n[noise]\nkind = white\ntemperature = nan\n",
                "temperature",
            ),
            ("[run]\nn_steps = 3\n[grid]\nx_max = inf\n", "x_max"),
            (
                "[experiment]\nmode = classical\n[run]\nn_steps = 3\n"
                "[classical]\nn_particles = 4\nsigma_p = -1\n",
                "sigma_p",
            ),
            (
                "[experiment]\nmode = classical\n[run]\nn_steps = 3\n"
                "[classical]\nn_particles = 4\nsigma_x = nan\n",
                "sigma_x",
            ),
            ("[run]\nn_steps = 3\n[coupling]\nkind = power\nn = -1\n", "integer n >= 0"),
            ("[experiment]\nensemble_seeds = 2\nworkers = 2\n[run]\nn_steps = 3\n", "workers"),
            ("[experiment]\nensemble_seeds = 2\nworkers = 0\n[run]\nn_steps = 3\n", "workers"),
            (
                "[run]\nn_steps = 5\n"
                "[output]\nsnapshots = true\ntrajectories = true\nweak_values = true\n",
                "snapshots, trajectories, weak_values need",
            ),
            ("[run]\nn_steps = 5\n[output]\nweak_values = true\n", "snapshot_stride > 0"),
            (
                "[experiment]\nensemble_seeds = 2\n[run]\nn_steps = 5\nsnapshot_stride = 1\n"
                "[output]\nsnapshots = true\n",
                "ensemble_seeds = 1",
            ),
            (
                "[experiment]\nmode = compare\nensemble_seeds = 2\n"
                "[run]\nn_steps = 5\nsnapshot_stride = 1\n[output]\ntrajectories = true\n",
                "mode = gsle",
            ),
            (
                "[experiment]\nmode = classical\n[run]\nn_steps = 5\nsnapshot_stride = 1\n"
                "[output]\nsnapshots = true\n",
                "mode = gsle",
            ),
            (
                "[run]\nn_steps = 3\n[potential]\nkind = double_well\na = 1e306\n",
                "potential value or slope not finite on the grid",
            ),
            (
                "[run]\nn_steps = 3\n[coupling]\nkind = power\nn = 400\n",
                "coupling value or slope not finite on the grid",
            ),
            ("[experiment]\nseed = -1\n[run]\nn_steps = 3\n", "seed must be >= 0"),
            ("key = 1\n", "malformed config"),
            ("[potential]\nkind = quartic\n", "unknown potential kind 'quartic'"),
            ("[experiment]\nensemble_seeds = 0\n", "ensemble_seeds must be >= 1"),
            (
                "[experiment]\nmode = classical\n[initial]\nkind = eigenstate\n",
                "classical runs need a gaussian initial state",
            ),
        ],
        ids=[
            "negative_dt",
            "sigma_x_not_a_number",
            "n_points_not_power_of_two",
            "negative_hbar",
            "gup_on_nonmonotone_potential",
            "bath_without_oscillators",
            "white_negative_temperature",
            "white_negative_temperature_classical",
            "eigenstate_negative_index",
            "negative_n_trajectories",
            "zero_sigma",
            "negative_sigma",
            "eigenstate_zero_omega",
            "eigenstate_negative_omega",
            "nan_dt",
            "inf_dt",
            "negative_snapshot_stride",
            "unused_key_not_a_number",
            "nan_kappa",
            "nan_friction",
            "nan_x0",
            "inf_mass",
            "nan_omega",
            "nan_cutoff",
            "nan_white_temperature",
            "inf_x_max",
            "negative_sigma_p",
            "nan_sigma_x",
            "power_negative_n",
            "two_workers",
            "zero_workers",
            "outputs_without_snapshot_stride",
            "weak_values_without_snapshot_stride",
            "snapshots_in_ensemble",
            "trajectories_in_compare",
            "snapshots_in_classical",
            "potential_overflows_on_grid",
            "coupling_overflows_on_grid",
            "negative_seed",
            "key_without_section",
            "unknown_potential_kind",
            "zero_ensemble_seeds",
            "classical_eigenstate",
        ],
    )
    def test_config_error_exit_code(self, tmp_path, text, named):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert named in err["message"]
        assert not (out / "resolved_config.txt").exists()

    @pytest.mark.parametrize("command", ["run", "post"])
    def test_negative_seed_override_is_config_error(self, tmp_path, command):
        """--seed -1 exits 3 with error.json as its only output, in run and post."""
        cfg = write_cfg(tmp_path, "[noise]\nkind = white\ntemperature = 0.1\n[run]\nn_steps = 3\n")
        if command == "post":
            run_dir = tmp_path / "run"
            run_dir.mkdir()
            (run_dir / "resolved_config.txt").write_text(Path(cfg).read_text())
            cfg = str(run_dir)
        out = tmp_path / "out"
        assert main([command, cfg, "--seed", "-1", "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert "seed must be >= 0, got -1" in err["message"]
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nmode = classical\n"
            "[potential]\nkind = double_well\n"
            "[run]\ndt = 10\nn_steps = 50\n"
            "[initial]\nx0 = 3\n"
            "[classical]\nn_particles = 2\n",
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "NumericalBlowup"

    def test_classical_blowup_names_its_time(self, tmp_path):
        """A classical blow-up's error.json holds t, as a wave blow-up's does."""
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nmode = classical\n"
            "[potential]\nkind = cubic\nc = 5\n"
            "[run]\ndt = 0.1\nn_steps = 400\n"
            "[initial]\nx0 = -3\n"
            "[classical]\nn_particles = 4\n",
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "NumericalBlowup"
        assert err["t"] in (0.1 * np.arange(1, 401)).tolist()

    def test_wave_blowup_stops_at_first_overflow(self, tmp_path):
        """An overflowing step exits 2 at once: one short guard warning, no numpy warnings."""
        cfg = write_cfg(tmp_path, "[run]\nfriction = 1e303\nn_steps = 10\n[initial]\nx0 = 2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "NumericalBlowup"
        assert err["t"] == 0.005
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        (guard,) = [w for w in caught if issubclass(w.category, StabilityWarning)]
        assert len(str(guard.message)) < 60

    def test_ensemble_warning_reaches_caller(self, tmp_path):
        """The default harmonic box trips the guard; a two-member batch warns once."""
        cfg = write_cfg(tmp_path, "[experiment]\nensemble_seeds = 2\n[run]\nn_steps = 3\n")
        with pytest.warns(StabilityWarning) as caught:
            assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len([w for w in caught if issubclass(w.category, StabilityWarning)]) == 1

    def test_measurement_underflow_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\ndt = 0.1\nn_steps = 40\nkappa = 3000\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "NumericalBlowup"

    def test_power_zero_is_constant_coupling(self, tmp_path):
        """f = x^0 runs with friction and records what f = 1 records."""
        body = {}
        for kind in ("kind = power\nn = 0", "kind = constant\nc = 1"):
            cfg = write_cfg(tmp_path, f"[run]\nn_steps = 20\nfriction = 0.1\n[coupling]\n{kind}\n")
            out = tmp_path / kind.split()[2]
            assert main(["run", cfg, "--out", str(out)]) == 0
            body[kind] = (out / "observables.csv").read_text().splitlines()[2:]
        assert body["kind = power\nn = 0"] == body["kind = constant\nc = 1"]

    def test_classical_mode(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[experiment]\nmode = classical\nseed = 5\n"
            "[run]\nn_steps = 100\nfriction = 0.2\n"
            "[initial]\nx0 = 1\n"
            "[classical]\nn_particles = 30\n",
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        lines = (out / "observables.csv").read_text().splitlines()
        assert lines[2] == "t,mean_x,mean_p,var_x,stderr_x,stderr_p"
        assert len(lines) == 3 + 101

    @pytest.mark.parametrize("key", ["", "[output]\nobservables = false\n"], ids=["default", "off"])
    @pytest.mark.parametrize(
        "text, n_files",
        [
            ("[experiment]\nseed = 4\nensemble_seeds = 2\n[run]\nn_steps = 3\n", 2),
            ("[experiment]\nmode = classical\n[run]\nn_steps = 3\n[classical]\nn_particles = 5\n", 1),
        ],
        ids=["ensemble", "classical"],
    )
    def test_observables_key_honoured(self, tmp_path, text, n_files, key):
        """[output] observables = false writes no observables.csv; the default
        (true) writes one per member, or one for the classical ensemble."""
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, text + key), "--out", str(out)]) == 0
        assert len(list(out.rglob("observables.csv"))) == (0 if key else n_files)

    def test_weak_values_masked_cells_empty(self, tmp_path):
        # an excited eigenstate has nodes: its masked cells export empty
        cfg = write_cfg(
            tmp_path,
            "[run]\nn_steps = 10\nsnapshot_stride = 10\n"
            "[initial]\nkind = eigenstate\nindex = 1\n"
            "[output]\nweak_values = true\nsnapshots = true\n",
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        body = (out / "weak_values_0.csv").read_text().splitlines()[3:]
        empties = [ln for ln in body if ln.endswith(",,") or ",," in ln]
        assert empties


class TestCsvFormat:
    def test_golden_row_format(self, tmp_path):
        spec = parse_config("")
        path = tmp_path / "t.csv"
        columns = {
            "a": [0.0, -0.0, 1e-300],
            "b": [np.nan, 1.5, np.inf],
            "c": [0.1, np.nan, -np.inf],
        }
        _write_csv(path, spec, columns, extra_comments=("# note",))
        assert path.read_text() == (
            f"# seed = 0\n# config_sha256 = {spec.digest}\n# note\na,b,c\n"
            "0,,0.10000000000000001\n"
            "-0,1.5,\n"
            "1e-300,inf,-inf\n"
        )

    def test_snapshot_round_trip_is_exact(self, tmp_path, grid):
        psi = gaussian_state(grid, x0=0.5, p0=0.9, sigma=1.2)
        path = tmp_path / "psi_0.csv"
        _write_snapshot(path, parse_config(""), psi)
        back = _load_snapshot(path, grid)
        assert back.grid == grid
        assert np.array_equal(back.values, psi.values)


class TestCompareCommand:
    CMP = """
[experiment]
mode = compare
seed = 3
ensemble_seeds = 3

[coupling]
kind = sinusoidal

[run]
n_steps = 200
friction = 0.1

[noise]
kind = white
temperature = 0.05

[initial]
x0 = 1
sigma = 0.7071067811865476

[classical]
n_particles = 500
"""

    def test_compare_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CMP)
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[2:4] == ["# ensemble_seeds = 3", "# n_particles = 500"]
        assert lines[4].startswith("# max_score_x = ")
        assert lines[5].startswith("# max_score_p = ")
        assert lines[6] == (
            "t,mean_x_q,stderr_x_q,mean_x_cl,stderr_x_cl,score_x,"
            "mean_p_q,stderr_p_q,mean_p_cl,stderr_p_cl,score_p,var_x_q,var_x_cl"
        )
        assert (out / "members" / "seed_3" / "observables.csv").exists()
        assert (out / "members" / "seed_5" / "observables.csv").exists()

    def test_compare_requires_compare_mode(self, tmp_path):
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out", str(out)]) == 3

    def test_matched_ensembles_agree(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CMP)
        out = tmp_path / "out"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("t,")][0].split(",")
        i_score = header.index("score_x")
        scores = [
            float(ln.split(",")[i_score])
            for ln in lines
            if ln and not ln.startswith(("#", "t,"))
            if ln.split(",")[i_score]
        ]
        scores = [s for s in scores if np.isfinite(s)]
        # agreement within noise at the vast majority of times
        frac = np.mean(np.array(scores) < 3.0)
        assert frac > 0.9


class TestPostCommand:
    def test_post_from_run_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        run_dir = tmp_path / "run"
        assert main(["run", cfg, "--out", str(run_dir)]) == 0
        post_dir = tmp_path / "post"
        assert main(["post", str(run_dir), "--out", str(post_dir)]) == 0
        assert (post_dir / "trajectories.csv").exists()
        assert (post_dir / "weak_values_400.csv").exists()
        # post on the same snapshots reproduces the run's trajectories
        assert (post_dir / "trajectories.csv").read_bytes() == (
            run_dir / "trajectories.csv"
        ).read_bytes()

    def test_post_without_snapshots(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        (run_dir / "resolved_config.txt").write_text(
            parse_config("").resolved_text
        )
        out = tmp_path / "post"
        assert main(["post", str(run_dir), "--out", str(out)]) == 3

    def test_post_without_resolved_config(self, tmp_path):
        run_dir = tmp_path / "run"
        (run_dir / "snapshots").mkdir(parents=True)
        out = tmp_path / "post"
        assert main(["post", str(run_dir), "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert "no resolved_config.txt" in err["message"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "defect",
        ["short_row", "non_numeric", "missing_row", "stray_name", "non_finite", "no_rows",
         "shifted_box", "other_n_points"],
    )
    def test_malformed_snapshot_is_config_error(self, tmp_path, grid, defect):
        """A snapshot that is not grid.n_points rows of x,re,im on the config's grid
        (the default [-20, 20) with 512 points) exits 3 and names the file."""
        run_dir = tmp_path / "run"
        (run_dir / "snapshots").mkdir(parents=True)
        spec = parse_config("[output]\nn_trajectories = 10\n")
        (run_dir / "resolved_config.txt").write_text(spec.resolved_text)
        snap = run_dir / "snapshots" / "psi_0.csv"
        foreign = {"shifted_box": Grid(-22.0, 18.0, 512), "other_n_points": Grid(-20.0, 20.0, 256)}
        _write_snapshot(snap, spec, gaussian_state(foreign.get(defect, grid)))
        lines = snap.read_text().splitlines()
        row = len(lines) // 2
        if defect == "short_row":
            lines[row] = lines[row].rsplit(",", 1)[0]
        elif defect == "non_numeric":
            lines[row] = lines[row].rsplit(",", 1)[0] + ",abc"
        elif defect == "missing_row":
            del lines[row]
        elif defect == "non_finite":
            lines[row] = lines[row].rsplit(",", 1)[0] + ",nan"
        elif defect == "no_rows":
            lines = [ln for ln in lines if ln.startswith(("#", "x,"))]
        elif defect == "stray_name":
            snap = snap.rename(snap.with_name("psi_final.csv"))
        snap.write_text("\n".join(lines) + "\n")
        out = tmp_path / "post"
        assert main(["post", str(run_dir), "--out", str(out)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert snap.name in err["message"]
        assert not (out / "trajectories.csv").exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_damaged_snapshot_never_raises(self, data):
        """One snapshot of a valid run, damaged: gsle post exits 0 or 3, and a 3
        writes an error.json of type ConfigError. Nothing is raised past main."""
        files = dict(small_run_files())
        name = data.draw(st.sampled_from(sorted(n for n in files if n.startswith("snapshots"))))
        lines = files[name].splitlines()
        i = lines.index("x,re,im") + 1 + data.draw(st.integers(0, 63), label="row")
        cells = lines[i].split(",")
        damage = data.draw(st.sampled_from(["drop", "duplicate", "cut", "text", "perturb_x"]))
        if damage == "drop":
            del lines[i]
        elif damage == "duplicate":
            lines.insert(i, lines[i])
        elif damage == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1), label="cut")]
        elif damage == "text":
            column = data.draw(st.integers(0, 2), label="column")
            cells[column] = data.draw(st.text(st.characters(exclude_categories=["Cs"]), max_size=4))
            lines[i] = ",".join(cells)
        else:
            delta = data.draw(st.floats(-1.0, 1.0).filter(bool), label="delta")
            lines[i] = ",".join(["%.17g" % (float(cells[0]) + delta), *cells[1:]])
        files[name] = "\n".join(lines) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            run_dir, out = Path(tmp) / "run", Path(tmp) / "post"
            (run_dir / "snapshots").mkdir(parents=True)
            for rel, text in files.items():
                (run_dir / rel).write_text(text)
            code = main(["post", str(run_dir), "--out", str(out)])
            assert code in (0, 3)
            if code == 3:
                assert json.loads((out / "error.json").read_text())["type"] == "ConfigError"

    def test_snapshot_grid_line_of_older_runs_is_skipped(self, tmp_path):
        """A run directory whose snapshots carry the '# grid' line that older
        runs wrote posts to the same bytes as one without it."""
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        run_dir = tmp_path / "run"
        assert main(["run", cfg, "--out", str(run_dir)]) == 0
        posts = []
        for name in ("new", "old"):
            if name == "old":
                grid = parse_config(KOSTIN_CFG).sim.grid
                meta = (f"# grid x_min = {grid.x_min:.17g} x_max = {grid.x_max:.17g} "
                        f"n_points = {grid.n_points}")
                for snap in (run_dir / "snapshots").glob("psi_*.csv"):
                    lines = snap.read_text().splitlines()
                    snap.write_text("\n".join(lines[:2] + [meta] + lines[2:]) + "\n")
            post_dir = tmp_path / name
            assert main(["post", str(run_dir), "--out", str(post_dir)]) == 0
            posts.append({p.name: p.read_bytes() for p in sorted(post_dir.iterdir())})
        assert posts[0] == posts[1]


ALL_TERMS_CFG = """
[potential]
kind = harmonic

[coupling]
kind = sinusoidal

[run]
n_steps = 20
friction = 0.1
kappa = 0.05

[noise]
kind = bath
temperature = 0.1
n_oscillators = 50

[initial]
x0 = 1
"""

GSLE_RUN = """
import sys
import gsle, gsle.cli, gsle.classical
from gsle.bath import NoiseSpec
from gsle.classical import GaussianCloud, LangevinConfig, langevin_ensemble
from gsle.coupling import CouplingFunction
assert gsle.cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
cfg = LangevinConfig(
    potential=CouplingFunction.harmonic(1.0), coupling=CouplingFunction.sinusoidal(1.0, 1.0),
    friction=0.1, noise=NoiseSpec(kind="white", temperature=0.1), n_steps=20,
    n_particles=10, initial=GaussianCloud(1.0, 0.0, 0.1, 0.1),
)
langevin_ensemble(cfg, 3)
assert "scipy" not in sys.modules, "an analytic-profile run loaded scipy"
"""

NO_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import numpy as np
import gsle.cli
from gsle.coupling import CouplingFunction, gup_coupling
from gsle.fields import Grid
cfg, run_dir, post_dir = sys.argv[1:]
assert gsle.cli.main(["run", cfg, "--out", run_dir]) == 0
assert gsle.cli.main(["post", run_dir, "--out", post_dir]) == 0
x = np.linspace(-2.0, 2.0, 41)
p = np.linspace(-1.95, 1.95, 7)     # off the knots
sine = CouplingFunction.tabulated(x, np.sin(x))
gup = gup_coupling(CouplingFunction.cubic(1.0), Grid(-5.0, 5.0, 64))
for order, exact in enumerate((np.sin(p), np.cos(p), -np.sin(p))):
    assert np.abs(sine(p, order) - exact).max() < 1e-2, order
    assert np.isfinite(gup(p, order)).all(), order
assert gup(0.5, 1) > 0
"""


class TestImportPath:
    """No gsle path loads SciPy."""

    def _python(self, code, *args):
        src = str(Path(gsle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True
        )

    def test_analytic_run_never_loads_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, ALL_TERMS_CFG)
        done = self._python(GSLE_RUN, cfg, tmp_path / "out")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "observables.csv").exists()

    def test_runs_post_and_splines_without_scipy(self, tmp_path):
        """With SciPy unimportable: a run with snapshots and trajectories, its
        post, and tabulated and gup profiles at off-knot points, orders 0-2."""
        cfg = write_cfg(tmp_path, KOSTIN_CFG)
        done = self._python(NO_SCIPY, cfg, tmp_path / "run", tmp_path / "post")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "post" / "trajectories.csv").exists()
