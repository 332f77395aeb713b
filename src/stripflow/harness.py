"""Experiment orchestration: configuration, runs, sweeps, persistence.

A RunConfig (one human-editable JSON file) describes the grid, the
weight parameters, the data, the solver settings, and the experiment
kind.  `cmd_run` executes a single solver run and writes an energy CSV,
snapshots, and a metadata echo; `cmd_sweep` runs the aspect-ratio
convergence study against a shared reference run; `cmd_report` turns a
finished directory into a plain-text table plus plot-ready two-column
files; `cmd_verify` bundles the property suite into an exit status and
a machine-readable report.

Determinism contract: a given config produces bit-identical CSV bytes
on every run — all floats are printed with 17 significant digits and
nothing time- or host-dependent enters the CSV (wall time lives in the
metadata JSON only).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import pickle
import struct
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .blas import one_blas_thread
from .diagnostics import EnergyReport, energy_E1, energy_E_s
from .gevrey import GevreyParams, make_gevrey_data
from .grid import Field, Grid
from .hns import N_PROJ, HnsState, hns_step, make_hns_data
from .prandtl import PrandtlState, prandtl_step, recover_v
from .stepper import CFL_FACTOR, SolverAbort
from .verify import verify_all

VERSION_STRING = f"stripflow-{__version__}"
SNAPSHOT_MAGIC = b"STRF"
SNAPSHOT_VERSION = 1
OUTPUT_ROOT_ENV = "STRIPFLOW_OUTPUT_ROOT"


def _key(section: str, default, doc: str):
    """A config key: its JSON section, its default and its documentation."""
    return dataclasses.field(default=default, metadata={"section": section, "doc": doc})


# accepted value types by field annotation; bool is rejected separately
_TYPES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)),
          "str": str, "tuple": (tuple, list)}


@dataclass
class RunConfig:
    """Validated settings for one run or sweep; see `schema()` for docs.

    Each key is declared once, as a field with its JSON section and doc.
    """

    Lx: float = _key("grid", 2.0 * np.pi, "domain period in x (> 0)")
    Nx: int = _key("grid", 64, "number of x collocation points (even, >= 4)")
    Ny: int = _key("grid", 65, "number of y nodes including both walls (>= 9)")
    a: float = _key("gevrey", 0.5, "initial Gevrey radius (> 0)")
    lam: float = _key("gevrey", 1.0, "radius loss multiplier (>= 1)")
    poincare: float = _key(
        "gevrey", 1.0 / np.pi**2,
        "Poincare constant; decay rate K = min(1/6, 1/(4(1+poincare)))")
    amplitude: float = _key("data", 1e-4, "data amplitude (>= 0)")
    m_max: int = _key("data", 4, "highest excited x-mode (1 <= m_max <= Nx/3, the "
                      "dealiased band that solver states hold)")
    u1: str = _key("data", "zero",
                   "initial time derivative: 'zero' or 'half-decay' (u1 = -u0/2); "
                   "applies to runs and to every sweep run, reference and members")
    dt: float | None = _key("solver", None,
                            f"time step (> 0); null selects {CFL_FACTOR} * dy")
    T_final: float = _key("solver", 2.0,
                          "integration horizon (> 0, at least one step long)")
    n_proj: int = _key("solver", N_PROJ,
                       "constraint re-projection cadence in steps, scaled system (>= 1)")
    n_check: int = _key("solver", 100, "invariant check cadence in steps (>= 1)")
    kind: str = _key("experiment", "prandtl", "experiment kind: prandtl | hns | sweep")
    eps: float = _key("experiment", 0.5, "aspect ratio for kind = hns (0 < eps <= 1)")
    eps_list: tuple = _key("experiment", (0.1, 0.05, 0.025, 0.0125),
                           "sweep members; positive, strictly decreasing, >= 3 entries")
    directory: str = _key("output", "stripflow-out", "output directory; relative "
                          f"paths live under ${OUTPUT_ROOT_ENV} when that is set")
    sample_every: int = _key("output", 10, "diagnostic sampling cadence in steps (>= 1); "
                             "the last sample is before T_final unless it divides the steps")

    def validate(self) -> None:
        """Check every type and numeric range, building the data, before a run's work."""
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if isinstance(val, bool) or not isinstance(val, _TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {val!r}")
            # json reads NaN and Infinity, which pass every range check below
            if any(isinstance(x, float) and not np.isfinite(x)
                   for x in (val if isinstance(val, tuple) else (val,))):
                raise ValueError(f"{f.name} must be finite, got {val!r}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        # Lx / Nx / Ny, a / lam / poincare, m_max and u1 range errors come
        # from building the grid, the Gevrey parameters and the data
        self.make_data()
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError(f"dt must be positive or null, got {self.dt}")
        if self.T_final <= 0.0:
            raise ValueError(f"T_final must be positive, got {self.T_final}")
        # an infinite step count makes n_steps() raise OverflowError
        if not np.isfinite(self.T_final / self.effective_dt()):
            small_dt = self.dt is not None and self.dt * self.T_final < 1.0
            key = "dt" if small_dt else "T_final"
            raise ValueError(f"{key} makes the step count T_final / dt overflow "
                             f"(T_final={self.T_final!r}, dt={self.effective_dt()!r})")
        if self.n_steps() < 1:
            raise ValueError("T_final is shorter than one time step")
        for name in ("n_proj", "n_check", "sample_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind not in ("prandtl", "hns", "sweep"):
            raise ValueError(f"kind must be prandtl | hns | sweep, got {self.kind!r}")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if any(isinstance(e, bool) or not isinstance(e, (int, float))
               for e in self.eps_list):
            raise ValueError(f"eps_list entries must be numbers, got {self.eps_list!r}")
        eps_list = tuple(float(e) for e in self.eps_list)
        if any(e <= 0.0 for e in eps_list) or any(e > 1.0 for e in eps_list):
            raise ValueError(f"eps_list entries must lie in (0, 1], got {eps_list}")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ValueError(f"eps_list must be strictly decreasing, got {eps_list}")
        if self.kind == "sweep" and len(eps_list) < 3:
            raise ValueError(f"a sweep needs >= 3 eps values, got {len(eps_list)}")
        if not self.directory:
            raise ValueError("output directory must be a nonempty path")

    def make_grid(self) -> Grid:
        return Grid(self.Nx, self.Ny, Lx=self.Lx)

    def gevrey_params(self) -> GevreyParams:
        return GevreyParams(a=self.a, lam=self.lam, poincare=self.poincare)

    def effective_dt(self) -> float:
        if self.dt is not None:
            return float(self.dt)
        return CFL_FACTOR * self.make_grid().dy

    def n_steps(self) -> int:
        return int(round(self.T_final / self.effective_dt()))

    def make_data(self) -> tuple[Field, Field]:
        if self.u1 not in ("zero", "half-decay"):
            raise ValueError(f"u1 must be 'zero' or 'half-decay', got {self.u1!r}")
        u0, u1 = make_gevrey_data(
            self.make_grid(), self.gevrey_params(), self.amplitude, self.m_max)
        if self.u1 == "half-decay":
            u1 = u0 * (-0.5)
        return u0, u1

    def to_dict(self) -> dict:
        out: dict = {}
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            out.setdefault(f.metadata["section"], {})[f.name] = (
                list(val) if isinstance(val, tuple) else val)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        sections, kwargs = cls().to_dict(), {}
        for group, sub in data.items():
            if group not in sections:
                raise ValueError(f"unknown config section {group!r}")
            if not isinstance(sub, dict):
                raise ValueError(f"config section {group!r} is not an object: {sub!r}")
            for key, val in sub.items():
                if key not in sections[group]:
                    raise ValueError(f"unknown config key {group}.{key}")
                kwargs[key] = tuple(val) if isinstance(val, list) else val
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def schema(cls) -> dict:
        """Every key with its default and its documentation, by section."""
        docs = {f.name: f.metadata["doc"] for f in dataclasses.fields(cls)}
        return {group: {key: {"default": val, "doc": docs[key]}
                        for key, val in keys.items()}
                for group, keys in cls().to_dict().items()}


@dataclass(frozen=True)
class SweepResult:
    """Per-member errors of an aspect-ratio sweep plus the fitted slope.

    slope/intercept come from least squares on log(sup error) vs
    log(eps); they are None when the fit is skipped (an exactly-zero
    error).
    """

    eps: tuple
    sup_errors: tuple
    final_errors: tuple
    energy_errors: tuple
    slope: float | None
    intercept: float | None
    directory: str

    def validate(self) -> None:
        for name in ("sup_errors", "final_errors", "energy_errors"):
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.size != len(self.eps):
                raise AssertionError(f"{name} length does not match eps list")
            if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
                raise AssertionError(f"{name} must be finite and nonnegative")
        if self.slope is not None and not np.isfinite(self.slope):
            raise AssertionError("fitted slope is not finite")


def resolve_output_dir(directory: str) -> Path:
    """Root-relative output location, honoring the env override."""
    path = Path(directory)
    if path.is_absolute():
        return path
    root = os.environ.get(OUTPUT_ROOT_ENV)
    return (Path(root) / path) if root else path


# ---------------------------------------------------------------------------
# snapshots: binary state files with a magic header and a version byte
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sBBIIddd")  # magic, version, kind, Nx, Ny, Lx, t, eps
_KIND_PRANDTL, _KIND_HNS = 0, 1


def write_snapshot(path, state) -> Path:
    """Serialize a solver state; layout (little-endian):

    magic "STRF" | version u8 | kind u8 (0 horizontal-only, 1 scaled pair)
    | Nx u32 | Ny u32 | Lx f64 | t f64 | eps f64, then the full spectra
    (Nx, Ny) of the state's fields, unfolded from its band stack, as
    complex128 coefficients in C order: rows u, ut (u, v, ut, vt for the pair).
    """
    g = state.u.grid
    is_pair = isinstance(state, HnsState)
    kind = _KIND_HNS if is_pair else _KIND_PRANDTL
    eps = state.eps if is_pair else 1.0
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, kind, g.Nx, g.Ny, g.Lx, state.t, eps
            )
        )
        fh.write(g.unfold(state.stack).astype("<c16", copy=False).tobytes())
    return path


def read_snapshot(path):
    """Inverse of write_snapshot; returns the reconstructed state.  The
    spectra are folded to their bands (`Grid.fold`), which raises
    ValueError on a file whose fields are not real and dealiased."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, kind, Nx, Ny, Lx, t, eps = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic {magic!r})")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if kind not in (_KIND_PRANDTL, _KIND_HNS):
        raise ValueError(f"{path}: unknown snapshot kind {kind}")
    if not np.isfinite(t):  # Lx and eps are checked by Grid and HnsState
        raise ValueError(f"{path}: non-finite time t = {t}")
    cls, extra = (PrandtlState, {}) if kind == _KIND_PRANDTL else (HnsState, {"eps": eps})
    need = _HEADER.size + len(cls.ROWS) * Nx * Ny * 16
    if len(raw) != need:  # before a Grid of a corrupt header's size is built
        raise ValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    g = Grid(Nx, Ny, Lx=Lx)
    spectra = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    rows = g.fold(spectra.reshape(len(cls.ROWS), Nx, Ny))
    return cls(*(Field(g, r) for r in rows), t=t, **extra)


# ---------------------------------------------------------------------------
# CSV emission (17 significant digits everywhere, fully qualified headers)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, columns) -> Path:
    """columns is a list of (header, array) pairs."""
    header, arrays = zip(*columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(arrays[0])):
            w.writerow([_fmt(col[i]) for col in arrays])
    return Path(path)


def _energy_csv(path, report: EnergyReport, div_rel=None):
    """time, l2.u, l2.ut[, div.rel], then the report's columns."""
    cols = [("time", report.times),
            ("l2.u", report.l2_norms["u"]),
            ("l2.ut", report.l2_norms["ut"])]
    if div_rel is not None:
        cols.append(("div.rel", np.asarray(div_rel)))
    return _write_csv(path, cols + report.columns())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(Nx: int = 64, Ny: int = 33, corrupt: str | None = None) -> dict:
    """Run the property suite; returns the machine-readable report dict.

    The dict carries "passed" (overall), "failed" (names), and per-check
    entries; the CLI exits 0 iff "passed".
    """
    results = verify_all(Nx=Nx, Ny=Ny, corrupt=corrupt)
    return {
        "version": VERSION_STRING,
        "passed": all(r.passed for r in results),
        "failed": [r.name for r in results if not r.passed],
        "checks": [dataclasses.asdict(r) for r in results],
    }


class _Timings:
    """Wall time per run phase (time.perf_counter), for metadata.json.

    Phases are charged by laps: each `lap(phase)` charges the time since
    the previous lap (or since construction), so the phase totals never
    exceed the wall time they were measured in.
    """

    PHASES = ("setup", "stepping", "diagnostics", "io")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES, 0.0)
        self.start = self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now

    def to_dict(self, steps: int) -> dict:
        out = {f"{phase}_s": sec for phase, sec in self.seconds.items()}
        stepping = self.seconds["stepping"]
        out["steps_per_s"] = steps / stepping if stepping > 0.0 else 0.0
        return out


class _Run:
    """One trajectory of the configured solver from the command's data.

    `eps` None runs the limit system, else the scaled system at that eps;
    the initial state is built from `data` = (u0, u1) on construction.
    `steps()` yields the initial state and every `sample_every`-th step
    state, charging `clock` with the setup, stepping and diagnostics laps
    (the caller's work on a yielded state counts as diagnostics).  When it
    ends, `done` is the completed step count, `state` the last accepted
    state and `abort` the SolverAbort that stopped the run early, else None.
    """

    def __init__(self, cfg: RunConfig, clock: _Timings, data, eps=None):
        self.cfg, self.clock, self.eps = cfg, clock, eps
        self.dt = cfg.effective_dt()
        self.done, self.abort = 0, None
        u0, u1 = data  # not kept: the initial state holds its own copy
        if eps is None:
            self.state = PrandtlState(u=u0, ut=u1)
            self.state.pin(self.state.stack)  # the stack is the state's own copy
        else:
            self.state = make_hns_data(u0, cfg.gevrey_params(), eps=eps,
                                       u1=None if cfg.u1 == "zero" else u1)

    def steps(self):
        cfg, clock, state = self.cfg, self.clock, self.state
        clock.lap("setup")
        yield state
        clock.lap("diagnostics")
        try:
            for i in range(cfg.n_steps()):
                check = (i + 1) % cfg.n_check == 0
                if self.eps is None:
                    state = prandtl_step(state, self.dt, check=check)
                else:
                    state = hns_step(state, self.dt, check=check, n_proj=cfg.n_proj)
                clock.lap("stepping")
                self.done, self.state = i + 1, state
                if self.done % cfg.sample_every == 0:
                    yield state
                    clock.lap("diagnostics")
        except SolverAbort as exc:
            clock.lap("stepping")
            self.abort = exc
            if exc.state is not None:
                self.state = exc.state


def _output_dir(cfg: RunConfig, *subdirs: str) -> Path:
    out = resolve_output_dir(cfg.directory)
    for sub in ("",) + subdirs:
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


def _write_metadata(out: Path, cfg: RunConfig, clock: _Timings, steps: int,
                    **fields) -> None:
    """metadata.json: version and config echo, `fields`, then the timings
    block and the wall time since `clock` started."""
    meta = {"version": VERSION_STRING, "config": cfg.to_dict(), **fields,
            "timings": clock.to_dict(steps),
            "wall_time_s": time.perf_counter() - clock.start}
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _one_blas_thread(command):
    """`command(cfg, blas_threads)` as a command of `cfg` alone, run with
    BLAS on one thread (`stripflow.blas.one_blas_thread`), so that its
    output bytes do not depend on OPENBLAS_NUM_THREADS.  `blas_threads`,
    which the command writes into metadata.json, is 1, or None when no
    thread control was found."""

    @functools.wraps(command)
    def pinned(cfg: RunConfig):
        with one_blas_thread() as found:
            return command(cfg, 1 if found else None)

    return pinned


@_one_blas_thread
def cmd_run(cfg: RunConfig, blas_threads) -> Path:
    """Run one configured solver; returns the populated run directory.

    Writes energy.csv (per-sample diagnostics), snapshots/initial.snap
    and snapshots/final.snap, and metadata.json.  The metadata carries
    `data_norm`, the paper's smallness quantity of the initial state: the
    run's energy (E_s at s = 1/2 for prandtl, E_1 for hns) at t = 0.
    A solver abort keeps whatever was collected and is flagged in the
    metadata (`abort`, the reason, and `abort_stage`, the RK stage 1-4 it
    came from or null); final.snap then holds the last accepted step.
    The run has BLAS on one thread (see `_one_blas_thread`).
    """
    cfg.validate()
    if cfg.kind not in ("prandtl", "hns"):
        raise ValueError(f"cmd_run handles kind prandtl | hns, got {cfg.kind!r}")
    out = _output_dir(cfg, "snapshots")
    clock = _Timings()
    p = cfg.gevrey_params()
    pair = cfg.kind == "hns"
    run = _Run(cfg, clock, cfg.make_data(), cfg.eps if pair else None)
    samples, div_rel = [], []
    for state in run.steps():
        samples.append(state)
        if pair:
            div_rel.append(state.divergence_rel())
    write_snapshot(out / "snapshots" / "initial.snap", samples[0])
    write_snapshot(out / "snapshots" / "final.snap", run.state)
    clock.lap("io")

    report = energy_E1(samples, cfg.eps, p) if pair else energy_E_s(samples, 0.5, p)
    clock.lap("diagnostics")
    _energy_csv(out / "energy.csv", report, div_rel if pair else None)
    clock.lap("io")

    abort = run.abort
    _write_metadata(
        out, cfg, clock, run.done,
        kind=cfg.kind,
        dt=run.dt,
        planned_steps=cfg.n_steps(),
        completed_steps=run.done,
        n_samples=len(samples),
        # the L2-in-time terms (E_s term7, E_1 term4) are exactly 0.0 at
        # t = 0, so this is term1 + term2 + term3 of the initial state
        data_norm=float(report.composite[0]),
        abort=None if abort is None else str(abort),
        abort_stage=None if abort is None else abort.stage,
        blas_threads=blas_threads,
    )
    return out


@_one_blas_thread
def cmd_sweep(cfg: RunConfig, blas_threads) -> SweepResult:
    """Aspect-ratio convergence study against a shared reference run.

    One reference run (the limit system) and one scaled run per eps, all
    from the same data (u0, u1), grid, and time step, sampled at the same
    times.  Per member: sup-in-time and last-sample L2 error of the
    horizontal difference, plus the undamped pair-energy of the difference
    (u, v, ut, vt) of the member's states and the reference samples, whose
    v and vt are slaved to u and ut.  Writes sweep.csv and metadata.json
    into the output directory.  `final_error.l2` is the error at the last
    multiple of `sample_every`: step 30 of a 32-step sweep sampled every 10.

    The whole sweep runs with BLAS on one thread (see `_one_blas_thread`),
    so sweep.csv does not depend on the thread count or on the number of
    workers.  The reference runs first; then `workers - 1` forked processes
    inherit its samples, and member i runs in worker i % workers, the
    parent being worker 0 (see `_in_workers`).  `workers` is the usable
    cores capped at the member count, or 1 without BLAS thread control;
    metadata.json records it.  A member's error is raised the same way
    whichever worker ran it.  The parent's wait for its children counts
    as stepping, so `steps_per_s` (the reference's and every member's
    steps over the parent's stepping time) is a throughput.
    """
    cfg.validate()
    if cfg.kind != "sweep":
        raise ValueError(f"cmd_sweep needs kind = sweep, got {cfg.kind!r}")
    out = _output_dir(cfg)
    clock = _Timings()
    p = cfg.gevrey_params()
    data = cfg.make_data()

    def trajectory(eps):
        """The states of one run; raises the SolverAbort that stopped it."""
        run = _Run(cfg, clock, data, eps)
        yield from run.steps()
        if run.abort is not None:
            raise run.abort

    def member_errors(i):
        """(sup, final, energy) errors of member i against the reference."""
        eps = cfg.eps_list[i]
        member = list(trajectory(eps))
        if tuple(m.t for m in member) != ref_times:
            raise RuntimeError("sample times diverged from the reference")
        diffs = [m.with_stack(m.stack - r) for m, r in zip(member, reference)]
        del member  # its states are not needed while the energy pass runs
        report = energy_E1(diffs, eps, p, decay_rates=False)
        errs, energy = report.l2_norms["u"], report.composite[-1]
        clock.lap("diagnostics")
        return float(errs.max()), float(errs[-1]), float(energy)

    def share(worker, workers):
        """{index: errors} of one worker's members, in order; the first
        error (an abort or any other) takes its member's place and ends
        the share."""
        done = {}
        for i in range(worker, len(cfg.eps_list), workers):
            try:
                done[i] = member_errors(i)
            except Exception as exc:
                done[i] = exc
                break
        return done

    cores = len(os.sched_getaffinity(0))
    workers = min(cores, len(cfg.eps_list)) if blas_threads else 1
    def slaved(s):  # the (u, v, ut, vt) band stack of a reference state
        v, vt = recover_v(Field(s.grid, s.stack)).rows
        return np.stack([s.stack[0], v, s.stack[1], vt])

    try:
        ref_times, reference = zip(*((s.t, slaved(s)) for s in trajectory(None)))
    except SolverAbort as exc:
        raise RuntimeError(f"sweep reference (prandtl) aborted: {exc}") from exc
    for r in reference:  # the members' rule: a difference is +0.0 where both are pinned
        HnsState.pin(r)
    done = _in_workers(share, workers, clock)
    for i, eps in enumerate(cfg.eps_list):  # the first failed member is raised
        if isinstance(done[i], Exception):
            what = "aborted" if isinstance(done[i], SolverAbort) else "failed"
            raise RuntimeError(f"sweep member eps={eps} {what}: {done[i]}") from done[i]
    sup_errors, final_errors, energy_errors = zip(
        *(done[i] for i in range(len(cfg.eps_list))))

    if min(sup_errors) <= 0.0:
        slope = intercept = None
    else:
        slope_arr = np.polyfit(np.log(cfg.eps_list), np.log(sup_errors), 1)
        slope, intercept = float(slope_arr[0]), float(slope_arr[1])

    result = SweepResult(
        eps=tuple(cfg.eps_list),
        sup_errors=sup_errors,
        final_errors=final_errors,
        energy_errors=energy_errors,
        slope=slope,
        intercept=intercept,
        directory=str(out),
    )
    result.validate()
    clock.lap("diagnostics")

    _write_csv(out / "sweep.csv", [
        ("eps", cfg.eps_list), ("sup_error.l2", sup_errors),
        ("final_error.l2", final_errors), ("error_energy.E1_0", energy_errors)])
    clock.lap("io")
    _write_metadata(
        out, cfg, clock, cfg.n_steps() * (1 + len(cfg.eps_list)),
        slope=slope,
        intercept=intercept,
        workers=workers,
        blas_threads=blas_threads,
        dt=cfg.effective_dt(),
        planned_steps=cfg.n_steps(),
    )
    return result


def _in_workers(share, workers: int, clock: _Timings) -> dict:
    """Merged `share(w, workers)` dicts over the workers w < `workers`.

    Worker 0 is this process; the others are children forked through an
    explicit "fork" context (they inherit every object, the caller's
    samples and caches included) that send their dict back through a
    pipe.  The wait for them is charged to `clock` as stepping.  A child
    that exits without sending, or with a nonzero code, raises
    RuntimeError; any exit from here ends every child first.
    """
    import multiprocessing  # on first use: ~10 ms that a plain run never needs

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_share, args=(share, w, workers, send),
                               daemon=True)
            with warnings.catch_warnings():
                # Python >= 3.12 warns on forking a process with several
                # threads.  The only others here are OpenBLAS's pool, which
                # its own fork handler shuts down before the fork, and the
                # children run BLAS on one thread.
                warnings.filterwarnings(
                    "ignore", r"This process .*is multi-threaded, use of fork\(\)",
                    DeprecationWarning)
                proc.start()
            send.close()  # EOF on recv once the child's end is gone
            children.append((w, proc, recv))
        done = share(0, workers)
        for w, proc, recv in children:
            try:
                done.update(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"sweep worker {w} exited with code "
                                   f"{proc.exitcode} without sending results") from None
            proc.join()
            if proc.exitcode != 0:
                raise RuntimeError(f"sweep worker {w} exited with code {proc.exitcode}")
        clock.lap("stepping")
        return done
    finally:
        for _, proc, recv in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()


def _send_share(share, worker: int, workers: int, conn) -> None:
    """Child side of `_in_workers`: send this worker's share, its error
    in the form `_portable` gives it."""
    done = share(worker, workers)
    conn.send({i: _portable(r) if isinstance(r, Exception) else r
               for i, r in done.items()})
    conn.close()


def _portable(exc: Exception) -> Exception:
    """`exc` as it crosses a pipe: a SolverAbort keeps `reason` and `stage`
    but not its state, which stays in the process that made it; another
    error keeps its type and message when the type rebuilds from the
    message alone, and becomes a RuntimeError naming the type otherwise."""
    if isinstance(exc, SolverAbort):
        return SolverAbort(exc.reason, None, exc.stage)
    try:
        copy = type(exc)(str(exc))
        pickle.dumps(copy)
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return copy


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def _safe_name(column: str) -> str:
    return column.replace("/", "_")


def _write_report(d: Path, header, data) -> Path:
    """report.txt: the CSV as a right-aligned plain-text table."""
    report = d / "report.txt"
    with open(report, "w", encoding="utf-8") as fh:
        fh.write("  ".join(f"{h:>22}" for h in header) + "\n")
        for row in data:
            fh.write("  ".join(f"{v:>22.9e}" for v in row) + "\n")
    return report


def cmd_report(directory) -> list[Path]:
    """Summarize a finished run or sweep directory.

    Emits report.txt (plain-text table) plus plot-ready two-column
    files: time vs each energy column for a run, log10(eps) vs
    log10(sup error) for a sweep.  Returns the paths written.
    """
    d = Path(directory)
    sweep_csv = d / "sweep.csv"
    energy_csv = d / "energy.csv"
    written: list[Path] = []
    if sweep_csv.exists():
        header, data = _read_csv(sweep_csv)
        loglog = d / "loglog.dat"
        with open(loglog, "w", encoding="utf-8") as fh:
            fh.write("# log10(eps)  log10(sup_error.l2)\n")
            for row in data:
                lo = np.log10(row[0])
                hi = np.log10(row[1]) if row[1] > 0 else -np.inf
                fh.write(f"{lo:.17g} {hi:.17g}\n")
        written.append(loglog)
        return written + [_write_report(d, header, data)]
    if energy_csv.exists():
        header, data = _read_csv(energy_csv)
        for j, name in enumerate(header):
            if not name.startswith(("E_s.", "E_1.")):
                continue
            out = d / f"{_safe_name(name)}.dat"
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(f"# time  {name}\n")
                for row in data:
                    fh.write(f"{row[0]:.17g} {row[j]:.17g}\n")
            written.append(out)
        return written + [_write_report(d, header, data)]
    raise FileNotFoundError(
        f"{d}: neither energy.csv nor sweep.csv found; nothing to report"
    )
