"""Static checks on the package sources.

No module imports a name it never uses, every ``__all__`` entry is bound in
its module, every function reads each of its parameters, and the package
root imports only names its submodules export.  The benchmark's tracer misses
no package name beyond those it missed at 0.19.0.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdanneal"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SOURCES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_respects_all():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .model import ParamBox, build_fvbm\n"
        "__all__ = ['build_fvbm']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["ParamBox (line 4)", "math (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unbound_exports(source: str) -> list[str]:
    """``__all__`` entries that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return [name for name in _exported(tree) if name not in bound]


def test_export_checker_flags_unbound_names():
    source = (
        "import numpy as np\n"
        "from .model import ParamBox\n"
        "__all__ = ['LIMIT', 'ParamBox', 'Report', 'gone', 'run']\n"
        "LIMIT = 3\n"
        "class Report: pass\n"
        "def run(): pass\n"
    )
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_every_export(module):
    assert unbound_exports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters that the body of their function (or lambda) never reads.

    A read inside a nested function counts.  Names starting with ``_`` are
    exempt: they mark an argument a callback protocol passes but the
    function does not need.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        params += [a.arg for a in [args.vararg, *args.kwonlyargs, args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            f"{name}({param}) (line {node.lineno})"
            for param in params
            if param not in read and not param.startswith("_")
        ]
    return unread


def test_parameter_checker_flags_unread_names():
    source = (
        "def run(fam, box, steps, _t, *args, scale=1.0, **extra):\n"
        "    box = fam\n"
        "    def inner(theta):\n"
        "        return steps * box\n"
        "    return inner, (lambda t, u: t)\n"
        "class Report:\n"
        "    def passes(self, tolerance=0.05):\n"
        "        return self.ok\n"
    )
    assert unread_parameters(source) == [
        "run(args) (line 1)",
        "run(scale) (line 1)",
        "run(extra) (line 1)",
        "inner(theta) (line 3)",
        "passes(tolerance) (line 7)",
        "<lambda>(u) (line 5)",
    ]


@pytest.mark.parametrize("module", SOURCES)
def test_module_reads_every_parameter(module):
    assert unread_parameters((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_package_root_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    unexported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = (PACKAGE / f"{node.module}.py").read_text(encoding="utf-8")
            exported = set(_exported(ast.parse(source)))
            unexported += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert unexported == []


# The names the tracer could not wrap at 0.19.0.  A name it cannot find
# leaves the benchmark's per-layer metric for that span at 0 or short.
TRACER_MISSING_AT_0_19_0 = {
    "cdanneal.learner.cd_step",
    "cdanneal.learner.cd_gradient",
    "cdanneal.learner.advance_counts",
    "cdanneal.harness.m_step_stat_table",
    "cdanneal.oracle.m_step_stat_table",
    "cdanneal.diagnostics.m_step_stat_table",
    "cdanneal.harness.check_constraint_mle",
    "cdanneal.harness.check_constraint_empirical_process",
}


def test_benchmark_tracer_misses_no_new_name():
    # In a fresh interpreter: install() replaces names in the package's modules.
    script = (
        "import json; from tracer import Tracer; "
        "t = Tracer(); t.install(); print(json.dumps(t.missing))"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert set(json.loads(out.stdout)) <= TRACER_MISSING_AT_0_19_0
