"""The trace must see every layer a workload exercises.

    python3 -m pytest bench/test_spans.py

A refactor that moves or renames a wrapped function either breaks
`Tracer.install` (the call-site name is gone) or leaves a span with zero
calls; both fail here instead of reporting zeros in the benchmark.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spans import EXPECTED, TARGETS, SpanSet, Tracer, missing_spans

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _call_sites():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in TARGETS}


def test_tracer_restores_call_sites_and_links_parents():
    import stripflow.prandtl
    from stripflow.grid import Field, Grid

    before = _call_sites()
    g = Grid(8, 9)
    f = Field(g, np.fft.fft(np.ones((8, 9)), axis=0) / 8)
    with Tracer() as tracer:
        stripflow.prandtl.multiply(f, f)
    assert _call_sites() == before
    assert tracer.names == ["grid.multiply"] + ["grid.fft"] * 3
    assert tracer.parents == [-1, 0, 0, 0]
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))
    assert tracer.values[1:] == [8 * 9 * 32.0, 8 * 9 * 32.0, 8 * 9 * 24.0]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_every_expected_span_fires(workload, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", "1", "--out", str(tmp_path / "run"), "--spans", str(spans)],
        capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["ops"][0]["failures"] == []
    assert missing_spans([SpanSet(spans)], workload) == []
