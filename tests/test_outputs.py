"""The output contract: the benchmark workloads at their default seed write
the bytes pinned here.

Each of the three `bench/workloads.py` configs runs in process at
`DEFAULT_SEED`, its output passes `bench/checks.py` `check_output` (the
reference columns within `REFERENCE_RTOL` of `bench/reference/`), and the
sha256 of every output file equals its entry in `PINNED`.  A change that
moves an output byte on purpose updates `PINNED`, and its CHANGES.md entry
lists the old and new values.  On a mismatch of a CSV the failure names
the reference column and row that differ the most from
`bench/reference/`, so that a roundoff move shows as one.  That reference
predates the last roundoff moves: the pinned `decay-small` `l2.u` already
differs from it by up to 1.2e-13 relative (row 291), so a smaller move of
that column is found by its hash but not located.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402  (bench/checks.py)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from stripflow.harness import RunConfig, cmd_run, cmd_sweep  # noqa: E402

#: sha256 of each output file of a workload run at DEFAULT_SEED
PINNED = {
    "decay-small": {
        "energy.csv": "657a5501f40ee44e05d0c2d7be242f6fbb0fb38fff5f5dccf808e9294b9e847a",
        "snapshots/initial.snap": "5a9428654096f7517b47be5a20726a6737b4eea0b649233e205ef3026bf89642",
        "snapshots/final.snap": "1ce68e918f217d7bec960bf8a7ac45284a79d9f213ea25866e9d545e4b042b51",
    },
    "decay-hns": {
        "energy.csv": "d6ec223a06c4f6bff1fe8a8b01561563a1fb4870a8c085a0db4e7889db0dd133",
        "snapshots/initial.snap": "f1f9cffd648b4fc2e874097e9920d0e4c03cf75a5cbcedf77a58f0d0df5a9048",
        "snapshots/final.snap": "48c20fb8870d3f312797c2c2cc1ae233a40ff6eab604008e9cac6e29397cd6c9",
    },
    "sweep-eps": {
        "sweep.csv": "f88d6c32af23ff3e54bf5617c8495fe3889732b028e5543cbd0d5832ad5dc7c2",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output directory of each workload, run once at DEFAULT_SEED."""
    dirs = {}
    for name, workload in WORKLOADS.items():
        out = tmp_path_factory.mktemp(name)
        cfg = RunConfig.from_dict(workload.config_dict(DEFAULT_SEED, str(out)))
        (cmd_sweep if workload.op == "sweep" else cmd_run)(cfg)
        dirs[name] = out
    return dirs


def largest_move(workload, out_dir: Path) -> str:
    """The reference column and row of the largest relative move of the
    output against `bench/reference/`, as text."""
    got = checks.read_columns(checks.output_csv(workload, out_dir))
    ref = checks.read_columns(checks.REFERENCE_DIR / f"{workload.name}.csv")
    worst = (0.0, None, None)
    for name in checks.REFERENCE_COLUMNS[workload.name]:
        if got[name].shape != ref[name].shape:
            return f"column {name} has {got[name].size} rows, the reference {ref[name].size}"
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(got[name] - ref[name]) / np.abs(ref[name])
        rel[got[name] == ref[name]] = 0.0  # 0 against 0 did not move
        i = int(np.argmax(rel))
        if rel[i] > worst[0]:
            worst = (float(rel[i]), name, i)
    rel, name, i = worst
    if name is None:
        return "no reference column moved; the change is in another column"
    return (f"largest relative move against bench/reference/{workload.name}.csv: "
            f"{rel:.3e} in column {name} row {i}, {float(got[name][i])!r} against "
            f"{float(ref[name][i])!r}")


def test_pins_cover_every_workload():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_passes_the_bench_checks(outputs, name):
    assert checks.check_output(WORKLOADS[name], outputs[name], DEFAULT_SEED) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_bytes_are_pinned(outputs, name):
    workload, out = WORKLOADS[name], outputs[name]
    moved = []
    for path, pinned in PINNED[name].items():
        digest = hashlib.sha256((out / path).read_bytes()).hexdigest()
        if digest != pinned:
            where = f"{name}/{path}: sha256 {digest[:16]}, pinned {pinned[:16]}"
            if path.endswith(".csv"):
                where += f"; {largest_move(workload, out)}"
            moved.append(where)
    assert moved == [], "\n".join(moved)
