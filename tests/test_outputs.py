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
differs from it by up to 2.7e-13 relative (row 291), so a smaller move of
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
        "energy.csv": "0ffd025fa70f92fa9c6c2bb9108c2ac854226e27109bef7724e88d5f3cfb2f0b",
        "snapshots/initial.snap": "5a9428654096f7517b47be5a20726a6737b4eea0b649233e205ef3026bf89642",
        "snapshots/final.snap": "f4884eb06d3c251dd896b1b8c22eaccfcd3e1ad3f8fb0a2e279a24558ea6e354",
    },
    "decay-hns": {
        "energy.csv": "4f7855568bfbc85ebd9bd62f20d6df28cf64a33658fce510d8899c9f2522e435",
        "snapshots/initial.snap": "441a987676678e1efd0ad9054a93281fa78e48130ac9b85d61034f0e26b43f02",
        "snapshots/final.snap": "23e114d42e1c8cd1dc7316c9ddabf26d93f8d5d4aaa3027d5c78dca86b51d3a0",
    },
    "sweep-eps": {
        "sweep.csv": "e6a12d5f306dca310efeb5e236fca62bf0969b73db057b0ecff520dfa199424d",
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
