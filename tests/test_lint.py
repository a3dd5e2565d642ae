"""Static checks on the package source: every imported name is used, every import
is at module level and imports no private name, every private or ALL-CAPS
module-level name is read somewhere in the package, every public one is
read somewhere in the package, its tests or its benchmark, and no module but
errors.py writes its own rule for a valid scalar, nor coerces a parameter with
float() or int()."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gsle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_imports(source: str) -> list:
    """Names a module imports and never reads; `from __future__` and lines marked
    `# noqa` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys  # noqa\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def nested_imports(source: str) -> list:
    """Imports inside a function or class body, which hide a module's dependencies
    (an import cycle among them) from its top."""
    bodies = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nested = {   # keyed by line: an import in nested bodies is found once per body
        node.lineno: ast.unparse(node)
        for scope in ast.walk(ast.parse(source)) if isinstance(scope, bodies)
        for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}: {text}" for line, text in sorted(nested.items())]


def test_finds_a_nested_import():
    source = (
        "import os\nif os:\n    import sys\ndef f():\n    from .a import b\n    return b\n"
        "class C:\n    def g(self):\n        def h():\n            import json\n"
    )
    assert nested_imports(source) == ["line 5: from .a import b", "line 10: import json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_imports(path):
    assert nested_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Private names (`_x`, not dunder) that an import reads from another module,
    or a private module it names: each is its own module's implementation."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if private(name)]
    return found


def test_finds_a_private_import():
    source = (
        "from __future__ import annotations\nfrom .a import b, _c\nimport x._y as y\n"
        "from ._z import w\nfrom . import _v\ndef f():\n    from .a import _u\n"
    )
    assert private_imports(source) == [
        "line 2: _c", "line 3: _y", "line 4: _z", "line 5: _v", "line 7: _u"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def unread_names(defining: dict, reading: dict, wanted) -> list:
    """Top-level names of the defining sources (name -> text), each a def, class
    or assignment for which wanted(name) holds, that no line of the reading
    sources reads, other than their own definition line. A read is a loaded
    name or an attribute of that name; an import is none."""
    defined, reads = [], set()
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names if wanted(name)]
    for module, source in reading.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.add((node.attr, module, node.lineno))
    read_names = {}
    for name, module, line in reads:
        read_names.setdefault(name, set()).add((module, line))
    return [
        f"{module} line {line}: {name}"
        for module, line, name in defined
        if not read_names.get(name, set()) - {(module, line)}
    ]


def unread_module_names(sources: dict) -> list:
    """Top-level private (`_x`, not dunder) or ALL-CAPS names that no line of
    any of the sources reads, other than their own definition line."""
    return unread_names(sources, sources, lambda name: private(name) or name.isupper())


def unread_public_names(sources: dict, readers: dict) -> list:
    """Top-level public names (not `_x`, not dunder) of the sources that no line
    of the sources or the readers (name -> text) reads: a public name that
    nothing calls is an alias or dead code."""
    return unread_names(sources, {**sources, **readers}, lambda name: not name.startswith("_"))


def test_finds_an_unread_module_name():
    sources = {
        "a.py": "import x\n_unused = 1\nUSED = 2\nDEAD = 3\n__all__ = []\n"
                "def _helper():\n    return USED\nclass Public:\n    pass\n",
        "b.py": "from a import _helper, DEAD\n_helper()\n_self = _self if 0 else 1\n",
    }
    # an import is no read, nor is a read on the name's own definition line
    assert unread_module_names(sources) == [
        "a.py line 2: _unused", "a.py line 4: DEAD", "b.py line 3: _self"
    ]


def test_every_private_and_constant_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_module_names(sources) == []


def test_finds_an_unread_public_name():
    sources = {
        "a.py": "__all__ = []\n_private = 1\ndef used():\n    pass\ndef alias():\n    pass\n"
                "class Tested:\n    pass\nCOUNT = 2\nx: int = 3\ny = y if 0 else 1\n",
        "b.py": "from a import alias\nused()\n",
    }
    readers = {"tests/t.py": "import a\na.Tested()\nprint(a.x)\n"}
    # an import is no read, nor is a read on the name's own definition line
    assert unread_public_names(sources, readers) == [
        "a.py line 5: alias", "a.py line 9: COUNT", "a.py line 11: y"
    ]


def test_every_public_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert unread_public_names(sources, readers) == []


def scalar_rule_copies(source: str) -> list:
    """An `import numbers`, a comparison with np.inf (or -np.inf) as an operand, or
    float(p) or int(p) of a parameter p of an enclosing function or lambda: each a
    hand-written copy of errors.check_count or check_number."""
    tree = ast.parse(source)
    found = {}   # keyed by position: a call in nested functions is found once
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "numbers" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            operands = [op.operand if isinstance(op, ast.UnaryOp) else op for op in operands]
            hit = any(ast.unparse(op) in ("np.inf", "numpy.inf") for op in operands)
        else:
            hit = False
        if hit:
            found[node.lineno, node.col_offset] = ast.unparse(node)
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("float", "int")
                        and len(node.args) == 1 and not node.keywords
                        and ast.unparse(node.args[0]) in params):
                    found[node.lineno, node.col_offset] = ast.unparse(node)
    return [f"line {line}: {text}" for (line, _), text in sorted(found.items())]


def test_finds_a_scalar_rule_copy():
    source = (
        "import numbers\nimport numpy as np\nfrom numbers import Real\n"
        "if 0 < x < np.inf:\n    y = x == -numpy.inf\nz = np.inf\nw = np.isinf(x) and x < 1\n"
        "def f(a, *, b=1, **c):\n    d = 2\n    def g():\n        return int(a)\n"
        "    return float(b), int(d), float(a.x), int(a, 16), lambda e: float(e)\n"
        "h = int(x)\n"
    )
    assert scalar_rule_copies(source) == [
        "line 1: import numbers", "line 3: from numbers import Real",
        "line 4: 0 < x < np.inf", "line 5: x == -numpy.inf",
        "line 11: int(a)", "line 12: float(b)", "line 12: float(e)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_no_scalar_rule_copies(path):
    """Only errors.py decides what a valid scalar is."""
    assert scalar_rule_copies(path.read_text()) == []
