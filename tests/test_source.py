"""Source-level rules for the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stripflow"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements: guards must raise real exceptions
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    # a stale __all__ entry breaks `from stripflow.<module> import *`
    module = importlib.import_module(f"stripflow.{path.stem}")
    names = getattr(module, "__all__", ())
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == [], f"{path.name}: __all__ names {missing} are not defined"


def _is_empty_dict(node) -> bool:
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "dict" and not node.args and not node.keywords)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_empty_dicts(path):
    # a module-level dict filled at run time is a hand-rolled per-process
    # cache; functools.cache does that job
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_dict(node.value)]
    assert lines == [], f"{path.name}: module-level empty dicts on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_conjugate_mirrors_only_in_grid(path):
    # solver states hold the band m = 0..Nx/3; rows m < 0 are built by
    # Grid.unfold and the products in grid.py, never by hand elsewhere:
    # neither by conjugation nor by indexing a row -m
    lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\bnp\.conj(ugate)?\(|\[\s*-\s*m\b", line)]
    assert lines == [], f"{path.name}: conjugate mirror on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_coeff_read_only_in_grid(path):
    # a Field is its band; its full spectrum `coeff` is unfolded on every
    # read, which only grid.py needs: other modules use `rows`
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "coeff"]
    assert lines == [], f"{path.name}: .coeff read on lines {lines}"
