"""Spans around calls into stripflow's modules, recorded from outside.

`from .grid import multiply` binds the name when the importing module
loads, so each wrapper replaces the name where the caller looks it up
(for example `stripflow.hns.multiply`, not `stripflow.grid.multiply`).
A target that no longer exists raises AttributeError on install, so a
refactor that moves a function breaks the trace instead of reporting
zeros.

A span is (name, start, end, parent, value): parent is the index of the
enclosing span or -1, value is a per-call quantity (bytes, samples) when
the target has a measure.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np


def _fft_bytes(args, out):
    """Bytes read plus bytes written, computed from the array shapes."""
    return float(np.asarray(args[0]).nbytes + out.nbytes)


def _file_bytes(args, out):
    return float(Path(out).stat().st_size)


def _n_samples(args, out):
    return float(len(out.times))


# (module, name looked up at the call site, span name, measure or None)
TARGETS = (
    ("numpy.fft", "fft", "grid.fft", _fft_bytes),
    ("numpy.fft", "ifft", "grid.fft", _fft_bytes),
    ("stripflow.prandtl", "multiply", "grid.multiply", None),
    ("stripflow.hns", "multiply", "grid.multiply", None),
    ("stripflow.harness", "prandtl_step", "prandtl.step", None),
    ("stripflow.prandtl", "prandtl_rhs", "prandtl.rhs", None),
    ("stripflow.harness", "hns_step", "hns.step", None),
    ("stripflow.harness", "make_hns_data", "hns.make_data", None),
    ("stripflow.hns", "hns_rhs", "hns.rhs", None),
    ("stripflow.hns", "_project_pair", "hns.project", None),
    ("stripflow.hns", "divergence_cleanup", "hns.cleanup", None),
    ("stripflow.hns", "_Projector", "hns.factorize", None),
    ("stripflow.harness", "energy_E_s", "diagnostics.energy", _n_samples),
    ("stripflow.harness", "energy_E1", "diagnostics.energy", _n_samples),
    ("stripflow.diagnostics", "apply_gevrey", "gevrey.apply", None),
    ("stripflow.diagnostics", "besov_norm", "paley.besov_norm", None),
    ("stripflow.diagnostics", "norm_series_update", "paley.norm_update", None),
    ("stripflow.harness", "write_snapshot", "harness.io", _file_bytes),
    ("stripflow.harness", "_write_csv", "harness.io", _file_bytes),
)

_COMMON = ("grid.fft", "grid.multiply", "diagnostics.energy", "gevrey.apply",
           "paley.besov_norm", "paley.norm_update", "harness.io")
_PRANDTL = ("prandtl.step", "prandtl.rhs")
_HNS = ("hns.step", "hns.rhs", "hns.project", "hns.cleanup", "hns.make_data")

#: spans each workload must record in its operation (hns.factorize fires
#: during set-up, when make_hns_data warms the projector cache)
EXPECTED = {
    "decay-small": _COMMON + _PRANDTL,
    "decay-hns": _COMMON + _HNS + ("hns.factorize",),
    "sweep-eps": _COMMON + _PRANDTL + _HNS + ("hns.factorize",),
}


class Tracer:
    """Installs the TARGETS wrappers; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name, attr, span, measure in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, measure))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, span, fn, measure):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        values, stack, clock = self.values, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                values[idx] = measure(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, op_window: tuple[float, float]) -> None:
        """Write every span plus the operation's (start, end) as JSON."""
        data = {
            "op": list(op_window),
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "values": self.values,
        }
        Path(path).write_text(json.dumps(data), encoding="utf-8")


class SpanSet:
    """Spans of one traced operation, loaded from a `Tracer.dump` file."""

    def __init__(self, path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        self.op0, self.op1 = data["op"]
        self.names = np.array(data["names"], dtype=object)
        self.parents = np.array(data["parents"], dtype=int)
        self.starts = np.array(data["starts"], dtype=float)
        self.ends = np.array(data["ends"], dtype=float)
        self.values = np.array(data["values"], dtype=float)
        self.durations = self.ends - self.starts
        self.in_op = self.starts >= self.op0

    @property
    def wall(self) -> float:
        return self.op1 - self.op0

    def select(self, name: str, in_op: bool = True) -> np.ndarray:
        mask = self.names == name
        return mask & self.in_op if in_op else mask & ~self.in_op

    def count(self, name: str, in_op: bool = True) -> int:
        return int(self.select(name, in_op).sum())

    def top_level(self) -> np.ndarray:
        return (self.parents == -1) & self.in_op

    def child_time(self, child: str, parent: str) -> float:
        """Time in `child` spans whose direct parent is a `parent` span."""
        mask = self.select(child)
        par = self.parents[mask]
        ok = (par >= 0) & (self.names[par] == parent)
        return float(self.durations[mask][ok].sum())

    def sweep_members(self) -> list[float]:
        """Member spans of a sweep: a top-level make_hns_data call up to the
        end of the next top-level energy call (stepping plus error energy)."""
        top = self.top_level()
        idx = np.flatnonzero(top)
        out = []
        for pos, i in enumerate(idx):
            if self.names[i] != "hns.make_data":
                continue
            for j in idx[pos + 1:]:
                if self.names[j] == "diagnostics.energy":
                    out.append(float(self.ends[j] - self.starts[i]))
                    break
        return out


def missing_spans(sets: list[SpanSet], workload: str) -> list[str]:
    """EXPECTED spans of `workload` that recorded zero calls."""
    return [name for name in EXPECTED[workload]
            if sum(s.count(name, in_op=name != "hns.factorize") for s in sets) == 0]


def _pooled(sets, name) -> np.ndarray:
    return np.concatenate([s.durations[s.select(name)] for s in sets] or [np.zeros(0)])


def _pct(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(sets: list[SpanSet], untraced_walls: list[float], op: str) -> dict:
    """Per-layer metrics pooled over traced operations.

    Names are `<module>.<quantity>`; a layer the workload does not run
    reports 0.  Shares are of the traced operations' wall time.
    """
    n_ops = len(sets)
    wall = sum(s.wall for s in sets)
    span_names = {target[2] for target in TARGETS}
    total = {name: sum(float(s.durations[s.select(name)].sum()) for s in sets)
             for name in span_names}
    count = {name: sum(s.count(name) for s in sets) for name in total}
    value = {name: sum(float(s.values[s.select(name)].sum()) for s in sets)
             for name in total}
    steps = count["prandtl.step"] + count["hns.step"]
    samples = value["diagnostics.energy"]
    covered = sum(float(s.durations[s.top_level()].sum()) for s in sets)
    rhs_in_step = sum(s.child_time("prandtl.rhs", "prandtl.step") for s in sets)
    factorize = [float(s.durations[s.select("hns.factorize", in_op=False)].sum())
                 for s in sets]
    members = [m for s in sets for m in s.sweep_members()] if op == "sweep" else []
    ms, us = 1e3, 1e6
    return {
        "grid.fft.calls_per_step": ("1/step", _ratio(count["grid.fft"], steps)),
        "grid.fft.us_p50": ("us", us * _pct(_pooled(sets, "grid.fft"), 50)),
        "grid.fft.share": ("ratio", _ratio(total["grid.fft"], wall)),
        "grid.fft.bytes_per_step": ("B.computed", _ratio(value["grid.fft"], steps)),
        "grid.multiply.calls_per_step": ("1/step", _ratio(count["grid.multiply"], steps)),
        "grid.multiply.us_p50": ("us", us * _pct(_pooled(sets, "grid.multiply"), 50)),
        "prandtl.step.ms_p50": ("ms", ms * _pct(_pooled(sets, "prandtl.step"), 50)),
        "prandtl.step.ms_p99": ("ms", ms * _pct(_pooled(sets, "prandtl.step"), 99)),
        "prandtl.rhs.ms_p50": ("ms", ms * _pct(_pooled(sets, "prandtl.rhs"), 50)),
        "prandtl.step.self_share": (
            "ratio", _ratio(total["prandtl.step"] - rhs_in_step, total["prandtl.step"])),
        "hns.step.ms_p50": ("ms", ms * _pct(_pooled(sets, "hns.step"), 50)),
        "hns.step.ms_p99": ("ms", ms * _pct(_pooled(sets, "hns.step"), 99)),
        "hns.rhs.ms_p50": ("ms", ms * _pct(_pooled(sets, "hns.rhs"), 50)),
        "hns.project.us_p50": ("us", us * _pct(_pooled(sets, "hns.project"), 50)),
        "hns.project.calls_per_step": (
            "1/step", _ratio(count["hns.project"], count["hns.step"])),
        "hns.project.share": ("ratio", _ratio(total["hns.project"], wall)),
        "hns.cleanup.ms_p50": ("ms", ms * _pct(_pooled(sets, "hns.cleanup"), 50)),
        "hns.factorize.count": (
            "count", _ratio(sum(s.count("hns.factorize", in_op=False) for s in sets), n_ops)),
        "hns.factorize.ms": ("ms", ms * float(np.median(factorize)) if factorize else 0.0),
        "diagnostics.energy.ms_per_sample": (
            "ms", ms * _ratio(total["diagnostics.energy"], samples)),
        "diagnostics.share": ("ratio", _ratio(total["diagnostics.energy"], wall)),
        "diagnostics.sample.count": ("count", _ratio(samples, n_ops)),
        "gevrey.apply.calls_per_sample": (
            "1/sample", _ratio(count["gevrey.apply"], samples)),
        "gevrey.apply.us_p50": ("us", us * _pct(_pooled(sets, "gevrey.apply"), 50)),
        "paley.norm_update.calls_per_sample": (
            "1/sample", _ratio(count["paley.norm_update"], samples)),
        "paley.norm_update.us_p50": (
            "us", us * _pct(_pooled(sets, "paley.norm_update"), 50)),
        "harness.io.ms": ("ms", ms * _ratio(total["harness.io"], n_ops)),
        "harness.io.bytes": ("B", _ratio(value["harness.io"], n_ops)),
        "harness.stepping.share": (
            "ratio", _ratio(total["prandtl.step"] + total["hns.step"], wall)),
        "harness.sweep.member_s": ("s", float(np.median(members)) if members else 0.0),
        "harness.self_s": ("s", _ratio(wall - covered, n_ops)),
        "trace.overhead_frac": (
            "ratio", _ratio(float(np.median([s.wall for s in sets])),
                            float(np.median(untraced_walls))) - 1.0),
        "trace.coverage": ("ratio", _ratio(covered, wall)),
    }

