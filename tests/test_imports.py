"""Import hygiene: every module imports first without a cycle, and the package
uses nothing outside the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hatlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # a cycle such as game -> graphs -> game fails only when the module that
    # closes it is the first one imported
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", f"import hatlab.{module}"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"hatlab"}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.partition(".")[0] in allowed, f"{path.name} imports {name}"


# the package's modules by name, then the test files as tests/<file>
CHECKED = [PACKAGE / f"{module}.py" for module in MODULES] + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize(
    "path", CHECKED, ids=lambda p: p.stem if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_export_list_resolves():
    import hatlab

    missing = [name for name in hatlab.__all__ if not hasattr(hatlab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from hatlab import *", namespace)
    assert set(hatlab.__all__) <= set(namespace)


def test_every_private_helper_is_read():
    # a helper that a fold leaves behind is defined but never read; an import
    # of it alone does not count, the importing module must read it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    helpers = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            helpers += [
                (module, name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    assert helpers
    dead = []
    for module, name, definition in helpers:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            id(node) not in inside
            and (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        ):
            dead.append(f"{module}:{name}")
    assert dead == []
