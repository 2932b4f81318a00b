import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hospectra"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert {"spectra.py", "tiled.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    # a module's underscore names are its own: a relative import of one ties
    # two modules' internals together, so the name should be made public or stay put
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_sibling_modules_private_names(path):
    # the same rule for ``from . import sibling`` then ``sibling._name``; dunders are public
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    siblings = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None
        for alias in node.names
    }
    private = [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in siblings and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    assert not private, private


def test_import_leaves_multiprocessing_unloaded():
    # only a forking parallel run needs it; every fresh import would pay for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, hospectra; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", out
