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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_csv_module(path):
    # numpy is the one text codec: np.savetxt writes every CSV and report
    # file and np.loadtxt reads them back; the tests keep `csv` as an oracle
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "csv"]
    assert lines == [], f"{path.name}: imports csv on lines {lines}"


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
    # a Field is its grid and its band rows; it has no `coeff`, the full
    # spectrum it once unfolded on every read, and no module reads one:
    # a full spectrum is asked for by name (`Grid.unfold`, below)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "coeff"]
    assert lines == [], f"{path.name}: coeff attribute read on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("grid.py", "harness.py")],
                         ids=lambda p: p.name)
def test_unfold_only_in_grid_and_snapshots(path):
    # per-mode values (densities, weights, multipliers) live on the band;
    # a full spectrum is built or folded only for the transforms (grid.py)
    # and the snapshot files (harness.py)
    lines = [n for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\.(un)?fold\(", line)]
    assert lines == [], f"{path.name}: .fold( or .unfold( call on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("grid.py", "verify.py")],
                         ids=lambda p: p.name)
def test_full_frequencies_only_in_grid_and_verify(path):
    # per-mode tables (the dyadic bank, Gevrey weights, projector scales)
    # are band tables read from `Grid.band_xi`; the frequencies of every
    # grid row serve the packed transform (grid.py) and the identities
    # checked at every grid frequency (verify.py)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("xi", "abs_xi")]
    assert lines == [], f"{path.name}: xi or abs_xi attribute read on lines {lines}"


def _names_field(node) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "Field")
               or (isinstance(n, ast.Attribute) and n.attr == "Field")
               for n in ast.walk(node))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_field_type_checks_only_in_grid(path):
    # each norm takes one input form (a density with its bank), and every
    # operator one Field, single or stacked, so no module but grid.py tells
    # a Field from anything else
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and _names_field(node.args[1])]
    assert lines == [], f"{path.name}: isinstance(..., Field) on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_y_stencils_only_in_grid(path):
    # the y-stencil table and the dense operators built from it have one
    # reader: other modules differentiate in y through dy, dyy and y_dense,
    # never through the raw-array tile loop
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {"Y_STENCILS", "y_operators", "_y_tiles", "_y_apply"}
    lines = [node.lineno for node in ast.walk(tree)
             if names & {getattr(node, "id", None), getattr(node, "attr", None)}
             or isinstance(node, ast.alias) and node.name in names]
    assert lines == [], f"{path.name}: y-stencil table or dense operators named on lines {lines}"



@pytest.mark.parametrize("name", ["prandtl.py", "hns.py"])
def test_solvers_take_the_advection_form(name):
    # both solvers take their advection from `multiply(uv)`, the one
    # advection operator; a product of two fields there would bring back
    # a second form of the same term
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "multiply"]
    lines = [node.lineno for node in calls if len(node.args) + len(node.keywords) > 1]
    assert calls and lines == [], f"{name}: multiply( with more than one argument on lines {lines}"


def test_solver_options():
    # each option of a solver is one more path to keep working and test;
    # a new parameter, state field or config key changes this table, so it
    # shows in review by name (the steppers' `linear` is their one physics
    # switch, and their `check` is set by the run loop alone; both energies
    # sit at s = 1/2, and `decay_rates` is the sweep's undamped E_1)
    import inspect
    from dataclasses import fields

    from stripflow import diagnostics, harness, hns, prandtl, stepper

    expected = {
        "prandtl_step": ("state", "dt", "linear", "check"),
        "prandtl_rhs": ("state", "linear", "out"),
        "hns_step": ("state", "dt", "linear", "check"),
        "hns_rhs": ("state", "linear", "out"),
        "PrandtlState": ("stack", "grid", "u", "ut", "t"),
        "HnsState": ("stack", "grid", "u", "v", "ut", "vt", "eps", "t", "energy_mark"),
        "RunConfig": ("Lx", "Nx", "Ny", "a", "lam", "poincare", "amplitude", "m_max", "u1",
                      "dt", "T_final", "kind", "eps", "eps_list", "directory",
                      "sample_every"),
        "energy_E_s": ("samples", "p"),
        "energy_E1": ("samples", "eps", "p", "decay_rates"),
        # one way to re-stack a state, one output form of the projection
        "StackedState.with_stack": ("self", "stack", "t"),
        "_project_pair": ("grid", "eps", "f"),
    }
    got = {}
    for name in expected:
        head, *rest = name.split(".")
        obj = next(getattr(m, head) for m in (prandtl, hns, harness, diagnostics, stepper)
                   if hasattr(m, head))
        for attr in rest:
            obj = getattr(obj, attr)
        got[name] = (tuple(f.name for f in fields(obj)) if inspect.isclass(obj)
                     else tuple(inspect.signature(obj).parameters))
    assert got == expected
