"""Correctness of one operation's output directory.

An operation fails when any of these holds:

* metadata.json reports a solver abort;
* decay-hns: some `div.rel` exceeds 1e-6;
* decay-small: `point.u.B_s` exceeds 10x its initial value;
* sweep-eps: the sup errors do not decrease strictly, or the fitted
  log-log slope is below 0.9;
* at DEFAULT_SEED: a reference column differs by more than 1e-6
  relative from `reference/<workload>.csv`.

Byte identity between repetitions is checked by run.py, which compares
the `csv_sha256` of each repetition against the first.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-6
DIV_LIMIT = 1e-6
ENVELOPE_LIMIT = 10.0
SLOPE_MIN = 0.9

#: columns compared against the stored reference output
REFERENCE_COLUMNS = {
    "decay-small": ("time", "l2.u", "E_s.composite", "E_s.composite_full"),
    "decay-hns": ("time", "l2.u", "E_1.composite"),
    "sweep-eps": ("eps", "sup_error.l2", "final_error.l2", "error_energy.E1_0"),
}


def output_csv(workload: Workload, out_dir: Path) -> Path:
    return out_dir / ("sweep.csv" if workload.op == "sweep" else "energy.csv")


def csv_sha256(workload: Workload, out_dir: Path) -> str:
    return hashlib.sha256(output_csv(workload, out_dir).read_bytes()).hexdigest()


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(rows[0])}


def check_output(workload: Workload, out_dir: Path, seed: int) -> list[str]:
    """Reasons the operation failed; empty when it passed."""
    failures = []
    meta = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))
    cols = read_columns(output_csv(workload, out_dir))
    if meta.get("abort"):
        failures.append(f"solver abort: {meta['abort']}")
    if workload.name == "decay-hns":
        worst = float(cols["div.rel"].max())
        if worst > DIV_LIMIT:
            failures.append(f"div.rel reached {worst:.3e} > {DIV_LIMIT:g}")
    if workload.name == "decay-small":
        env = cols["point.u.B_s"]
        if env.max() > ENVELOPE_LIMIT * env[0]:
            failures.append(f"point.u.B_s grew {env.max() / env[0]:.2f}x")
    if workload.name == "sweep-eps":
        sups = cols["sup_error.l2"]
        if not np.all(np.diff(sups) < 0.0):
            failures.append(f"sup errors not strictly decreasing: {sups.tolist()}")
        slope = meta.get("slope")
        if slope is None or slope < SLOPE_MIN:
            failures.append(f"log-log slope {slope} < {SLOPE_MIN}")
    if seed == DEFAULT_SEED:
        failures += _compare_reference(workload, cols)
    return failures


def _compare_reference(workload: Workload, cols: dict) -> list[str]:
    ref = read_columns(REFERENCE_DIR / f"{workload.name}.csv")
    failures = []
    for name in REFERENCE_COLUMNS[workload.name]:
        got, want = cols[name], ref[name]
        if got.shape != want.shape:
            failures.append(f"{name}: {got.size} rows, reference has {want.size}")
            continue
        bad = np.abs(got - want) > REFERENCE_RTOL * np.abs(want)
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(
                f"{name} row {i}: {float(got[i])!r} vs reference {float(want[i])!r}"
            )
    return failures


def write_reference(workload: Workload, out_dir: Path) -> Path:
    """Store the compared columns of this output, digits unchanged."""
    with open(output_csv(workload, out_dir), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [rows[0].index(name) for name in REFERENCE_COLUMNS[workload.name]]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([row[j] for j in keep])
    return path
