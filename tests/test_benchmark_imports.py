"""Every gsle name and config the benchmark workloads use still resolves."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from gsle.cli import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _dotted(node):
    """'gsle.a.b' for an attribute chain rooted at the name gsle, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "gsle" and parts:
        return ".".join(["gsle"] + parts[::-1])
    return None


def workload_names():
    """`from gsle.x import y` names and outermost `gsle.x.y` chains."""
    tree = ast.parse(WORKLOADS.read_text())
    names = set()
    inner = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gsle":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            name = _dotted(node)
            if name:
                names.add(name)
                value = node.value
                while isinstance(value, ast.Attribute):
                    inner.add(id(value))
                    value = value.value
    return names


def resolves(name):
    """Whether gsle.module.attr imports: the module, then the attribute."""
    module, _, attr = name.rpartition(".")
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


def test_workload_imports_resolve():
    names = workload_names()
    assert {"gsle.potentials.PotentialSpec", "gsle.evolve.NoiseSpec", "gsle.fields.WaveFunction",
            "gsle.cli.main"} <= names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"perfbench/workloads.py uses names gsle no longer has: {missing}"


def _load(path):
    """A perfbench file as a module, executed from its text (no bytecode written)."""
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_hooks_resolve():
    """Every phase and step the tracer wraps resolves once gsle is imported, so
    setup_s still ends at the first evolve.step, a module-level function."""
    tracer = _load(PERFBENCH / "tracer.py")
    targets = [spec[:2] for spec in (*tracer.PHASES.values(), *tracer.STEPS.values())]
    assert ("gsle.evolve", "step") in targets
    for module, _ in targets:
        importlib.import_module(module)
    missing = [target for target in targets if tracer._resolve(*target) is None]
    assert not missing, f"perfbench/tracer.py wraps targets gsle no longer has: {missing}"


# spans of bath functions that the noise builder replaced; the tracer records
# them as missing (ROADMAP item 3)
UNRESOLVED_SPANS = {"bath.sample_bath_noise", "bath.white_noise"}


def tracer_tables():
    """PHASES, STEPS, LAYER_SPANS and LAYER_COUNTS of perfbench/tracer.py, read
    from its syntax tree: {table: {metric name: (module, dotted path, ...)}}."""
    tables = {}
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("PHASES", "STEPS", "LAYER_SPANS", "LAYER_COUNTS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_tracer_target_resolves():
    """Every function the tracer wraps or counts exists, so a renamed gsle
    function or _Workspace method cannot turn its per-layer metric into missing."""
    tables = tracer_tables()
    assert set(tables) == {"PHASES", "STEPS", "LAYER_SPANS", "LAYER_COUNTS"}
    assert tables["LAYER_SPANS"]["evolve.real_potential"] == ("gsle.evolve", "_Workspace.real_potential")
    missing = set()
    for table in tables.values():
        for name, (module, path, *_) in table.items():
            owner = importlib.import_module(module)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.add(name)
    unexpected = sorted(missing - UNRESOLVED_SPANS)
    assert not unexpected, f"perfbench/tracer.py wraps targets gsle no longer has: {unexpected}"


def test_tracer_counts_only_boundary_lines():
    """A record's warnings hold its StabilityWarning line beside its
    BoundaryContamination line; the tracer's contamination count takes only
    the latter, so a guard line is never counted as contamination."""
    from gsle import evolve
    from gsle.fields import Grid
    from gsle.potentials import PotentialSpec

    tracer = _load(PERFBENCH / "tracer.py")
    cfg = evolve.SimConfig(
        grid=Grid(-10.0, 10.0, 256), potential=PotentialSpec.harmonic(1.0), dt=0.02,
        n_steps=100, initial_state=evolve.GaussianPacket(0.0, 8.0, 1.0),
    )
    recorder = tracer.Recorder(traced=False)
    recorder.install()
    try:
        record = evolve.run(cfg)
    finally:
        recorder.uninstall()
    assert [line.split(":")[0] for line in record.warnings] == [
        "StabilityWarning", "BoundaryContamination"
    ]
    assert recorder.boundary_warnings == record.warnings[1:]


@pytest.mark.parametrize("probe", [False, True], ids=["timed", "probe"])
def test_workload_configs_parse(probe):
    """Every CLI workload's config is valid, so no workload exits 3 on a removed key."""
    parsed = set()
    for workload in _load(WORKLOADS).WORKLOADS.values():
        for seed in (0, 1):
            inputs = workload.inputs(seed, probe)
            if "config" in inputs:
                parse_config(inputs["config"])
                parsed.add(workload.name)
    assert parsed == {"single_allterms_n512", "compare_ensemble_n512", "snapshots_post_n4096"}


def test_library_workload_probe_passes(tmp_path):
    """The GLE workload's probe (100 steps, 32 particles) runs and passes its check,
    so OhmicSpec, discretize_ohmic, NoiseSpec(bath=...) and LangevinConfig still fit it."""
    import gsle.classical

    workload = _load(WORKLOADS).WORKLOADS["gle_memory_oracle"]
    inputs = workload.inputs(1, probe=True)
    assert (inputs["n_steps"], inputs["particles"]) == (100, 32)
    result = workload.execute(gsle, inputs, tmp_path)
    assert workload.check(gsle, inputs, tmp_path, result) == []


def _run_constants(*names):
    """Module-level literals of perfbench/run.py, read from its syntax tree."""
    found = {}
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            for name, literal in pairs:
                if isinstance(name, ast.Name) and name.id in names:
                    found[name.id] = ast.literal_eval(literal)
    return [found[name] for name in names]


@pytest.mark.parametrize("name", [
    "single_allterms_n512", "compare_ensemble_n512", "snapshots_post_n4096", "gle_memory_oracle",
])
def test_reference_probe_matches_reference(name, tmp_path):
    """Each workload's reference probe, run in-process, passes its check, and its
    summary agrees with perfbench/reference.json at the harness's tolerance."""
    import gsle.cli

    rtol, atol, seed = _run_constants("REF_RTOL", "REF_ATOL", "REFERENCE_SEED")
    workload = _load(WORKLOADS).WORKLOADS[name]
    inputs = workload.inputs(seed, probe=True)
    out = tmp_path / "out"
    out.mkdir()
    result = workload.execute(gsle, inputs, out)
    assert workload.check(gsle, inputs, out, result) == []
    summary = workload.summary(gsle, inputs, out, result)
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    for key, want in reference.items():
        got = summary.get(key)
        assert got is not None and abs(got - want) <= max(atol, rtol * abs(want)), (key, got, want)


def test_cli_import_loads_no_process_pool():
    """Ensembles step in-process: importing gsle.cli loads no process machinery."""
    code = (
        "import sys, gsle.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"
