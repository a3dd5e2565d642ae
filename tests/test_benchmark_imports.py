"""Every gsle name the benchmark workloads use still resolves."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
