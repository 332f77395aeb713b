"""Tests for configuration, persistence, commands, and the property suite."""

import csv
import ctypes
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stripflow import blas, cli, harness
from stripflow.grid import Field, Grid, to_spectral
from stripflow.harness import (
    RunConfig,
    cmd_report,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    read_snapshot,
    resolve_output_dir,
    write_snapshot,
)
from stripflow.diagnostics import energy_E1, energy_E_s
from stripflow.hns import HnsState, make_hns_data
from stripflow.gevrey import GevreyParams, make_gevrey_data
from stripflow.prandtl import PrandtlState, prandtl_step, recover_v
from stripflow.stepper import CFL_FACTOR, SolverAbort, StackedState


BLAS_THREADS = None if blas._openblas() is None else 1  # as metadata.json records it
pinned = pytest.mark.skipif(BLAS_THREADS is None, reason="no BLAS thread control found")
# without BLAS thread control a sweep stays in one process
forks = pytest.mark.skipif(BLAS_THREADS is None,
                           reason="no BLAS thread control found: sweeps do not fork")


def use_cores(monkeypatch, n):
    """Make a sweep see `n` usable cores, so it asks for min(n, members) workers."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)))


def small_cfg(tmp_path, **overrides):
    base = dict(
        Nx=16,
        Ny=17,
        amplitude=1e-4,
        m_max=2,
        T_final=0.5,
        directory=str(tmp_path / "out"),
        sample_every=4,
    )
    base.update(overrides)
    return RunConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return header, data


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_dict_round_trip(self):
        cfg = RunConfig(Nx=32, kind="hns", eps=0.25, dt=0.002)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            RunConfig.from_dict({"grd": {"Nx": 16}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key grid.Nz"):
            RunConfig.from_dict({"grid": {"Nz": 16}})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(Nx=15), "even"),
            (dict(Ny=5), ">= 9"),
            (dict(amplitude=-1.0), "amplitude"),
            (dict(m_max=0), "m_max"),
            (dict(m_max=200), "m_max"),
            (dict(amplitude=float("nan")), "amplitude must be finite"),
            (dict(u1="bogus"), "u1"),
            (dict(dt=-0.1), "dt"),
            (dict(dt=float("nan")), "dt must be finite"),
            (dict(T_final=-1.0), "T_final"),
            (dict(T_final=1e-9), "shorter than one"),
            (dict(a=0.0), "radius a must be positive"),
            (dict(lam=0.5), "lam must be >= 1"),
            (dict(sample_every=0), "sample_every"),
            (dict(Lx=0.0), "Lx must be positive"),
            (dict(kind="bogus"), "kind"),
            (dict(eps=0.0), "eps"),
            (dict(eps=1.5), "eps"),
            (dict(eps_list=(0.1, 0.2, 0.3)), "strictly decreasing"),
            (dict(eps_list=(0.1, -0.2, -0.3)), r"\(0, 1\]"),
            (dict(kind="sweep", eps_list=(0.1, 0.05)), ">= 3"),
            (dict(directory=""), "directory"),
            # wrong types: a float or a bool is not an int, a string no float
            (dict(sample_every=2.5), "sample_every must be of type int"),
            (dict(T_final="2"), "T_final must be of type float"),
            (dict(m_max=2.5), "m_max must be of type int"),
            (dict(u1=0), "u1 must be of type str"),
            (dict(Nx=64.0), "Nx must be of type int"),
            (dict(Ny=True), "Ny must be of type int"),
            (dict(amplitude="1e-4"), "amplitude must be of type float"),
            (dict(dt=False), "dt must be of type float"),
            (dict(kind=None), "kind must be of type str"),
            (dict(eps_list=(True, 0.5, 0.25)), "eps_list entries must be numbers"),
            # json reads NaN and Infinity: every float key refuses them
            (dict(a=float("nan")), "a must be finite"),
            (dict(lam=float("nan")), "lam must be finite"),
            (dict(poincare=float("nan")), "poincare must be finite"),
            (dict(eps=float("nan")), "eps must be finite"),
            (dict(Lx=float("inf")), "Lx must be finite"),
            (dict(amplitude=float("inf")), "amplitude must be finite"),
            (dict(T_final=float("inf")), "T_final must be finite"),
            (dict(eps_list=(0.1, float("nan"), 0.025)), "eps_list must be finite"),
            # finite keys whose step count T_final / dt overflows to inf
            (dict(T_final=1e308), "^T_final makes the step count"),
            (dict(dt=1e-320), "^dt makes the step count"),
        ],
    )
    def test_bad_values_rejected(self, overrides, match):
        cfg = RunConfig(**overrides)
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    def test_m_max_bound_is_the_band(self):
        # solver states hold the band m = 0..Nx/3: data beyond it is refused
        RunConfig(Nx=64, m_max=64 // 3).validate()
        with pytest.raises(ValueError, match=r"m_max must lie in \[1, Nx/3\] = \[1, 21\]"):
            RunConfig(Nx=64, m_max=64 // 3 + 1).validate()

    @pytest.mark.parametrize("data", [
        {"data": {"profile": "sin2py"}},
        {"solver": {"cfl_factor": 0.25}},
        {"solver": {"pressure_factor": 1.0}},
        {"solver": {"n_proj": 50}},
        {"solver": {"n_check": 100}},
    ], ids=["profile", "cfl_factor", "pressure_factor", "n_proj", "n_check"])
    def test_removed_keys_rejected(self, data):
        # sin(2 pi y) is the only profile, dt sets any multiple of dy, the
        # pressure law's factor 1 is the one that conserves the mean, and
        # the run loop alone sets when a solver cleans and checks itself
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("data, match", [
        ({"output": {"sample_every": 2.5}}, "sample_every must be of type int"),
        ({"grid": 5}, "section 'grid' is not an object"),
        ({"experiment": {"eps_list": "0.1"}}, "eps_list must be of type tuple"),
        ({"experiment": {"eps_list": [0.1, "0.05", 0.025]}}, "eps_list entries"),
        ({"data": {"amplitude": float("nan")}}, "amplitude must be finite"),
        ({"grid": {"Lx": float("inf")}}, "Lx must be finite"),
        ([], "config must be an object, got list"),
        ("x", "config must be an object, got str"),
        (None, "config must be an object, got NoneType"),
        (3, "config must be an object, got int"),
    ], ids=["float-int", "section", "eps_list-string", "eps_list-entry", "nan", "inf",
            "top-list", "top-string", "top-null", "top-number"])
    def test_bad_type_rejected_at_load(self, tmp_path, data, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        with pytest.raises(ValueError, match=match):
            RunConfig.from_json(path)

    def test_schema_covers_every_key(self):
        schema = RunConfig.schema()
        json.dumps(schema)  # must serialize
        flat = {k for group in schema.values() for k in group}
        import dataclasses

        assert flat == {f.name for f in dataclasses.fields(RunConfig)}
        assert len(flat) == 16
        for group in schema.values():
            for entry in group.values():
                assert set(entry) == {"default", "doc"}
                assert entry["doc"]

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"Nx": 32, "Ny": 17}}))
        cfg = RunConfig.from_json(path)
        assert (cfg.Nx, cfg.Ny) == (32, 17)

    def test_effective_dt(self):
        cfg = RunConfig(Nx=16, Ny=17)
        assert cfg.effective_dt() == CFL_FACTOR * (1 / 16)
        assert RunConfig(Nx=16, Ny=17, dt=0.003).effective_dt() == 0.003

    def test_metadata_config_echo_is_json(self):
        json.dumps(RunConfig().to_dict())


class TestSnapshots:
    def rand_state(self, g, seed=0):
        # random band rows m = 0..Nx/3: a real, dealiased field
        rng = np.random.default_rng(seed)
        shape = (g.band, g.Ny)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[0] = c[0].real
        return PrandtlState(u=Field(g, c), ut=Field(g, 0.5 * c), t=1.75)

    def test_prandtl_round_trip(self, tmp_path):
        g = Grid(16, 17)
        st = self.rand_state(g)
        path = write_snapshot(tmp_path / "s.snap", st)
        back = read_snapshot(path)
        assert isinstance(back, PrandtlState)
        assert back.t == st.t
        assert back.u.grid == g
        assert np.array_equal(back.u.rows, st.u.rows)
        assert np.array_equal(back.ut.rows, st.ut.rows)
        assert np.shares_memory(back.u.rows, back.stack)

    def test_hns_round_trip(self, tmp_path):
        g = Grid(16, 17)
        x = np.arange(g.Nx) * g.Lx / g.Nx
        vals = 1e-3 * np.sin(x)[:, None] * np.sin(2 * np.pi * g.y)[None, :]
        st = make_hns_data(to_spectral(g, vals), GevreyParams(), eps=0.25)
        back = read_snapshot(write_snapshot(tmp_path / "h.snap", st))
        assert back.eps == 0.25
        for name in ("u", "v", "ut", "vt"):
            assert np.array_equal(getattr(back, name).rows, getattr(st, name).rows)

    def test_states_hold_the_band(self, tmp_path):
        g = Grid(32, 33)
        for st in (self.rand_state(g), make_hns_data(
                to_spectral(g, 1e-3 * np.sin(np.arange(32) * g.Lx / 32)[:, None]
                            * np.sin(2 * np.pi * g.y)[None, :]), GevreyParams(), eps=0.5)):
            back = read_snapshot(write_snapshot(tmp_path / "b.snap", st))
            assert back.stack.shape == (len(st.ROWS), 32 // 3 + 1, 33)
            assert np.array_equal(back.stack, st.stack)

    @pytest.mark.parametrize("fault, match", [
        ("outside", "outside the band"), ("mirror", "conjugates")])
    def test_snapshot_off_the_band_rejected(self, tmp_path, fault, match):
        # a crafted file whose spectrum a band state cannot hold
        g = Grid(16, 17)
        path = write_snapshot(tmp_path / "c.snap", self.rand_state(g))
        raw = bytearray(path.read_bytes())
        row = g.band if fault == "outside" else g.Nx - 1  # a dropped row
        at = harness._HEADER.size + 16 * (row * g.Ny + 3)
        raw[at:at + 8] = np.float64(0.5).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            read_snapshot(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("at, match", [
        (22, "non-finite time"), (14, "Lx must be positive and finite"),
        (30, r"eps must lie in \(0, 1\]")], ids=["t", "Lx", "eps"])
    def test_non_finite_header_rejected(self, tmp_path, at, match, value):
        # a header "<4sBBIIddd" holds Lx at byte 14, t at 22 and eps at 30
        u0, _ = make_gevrey_data(Grid(16, 17), GevreyParams(), amplitude=1e-3, m_max=4)
        path = write_snapshot(tmp_path / "f.snap", make_hns_data(u0, GevreyParams(), eps=0.5))
        raw = bytearray(path.read_bytes())
        raw[at:at + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            read_snapshot(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.snap"
        path.write_bytes(bytes(harness._HEADER.size - 1))
        with pytest.raises(ValueError, match="truncated snapshot header"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(ValueError, match="bad magic"):
            read_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        g = Grid(16, 17)
        path = write_snapshot(tmp_path / "t.snap", self.rand_state(g))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="expected"):
            read_snapshot(path)

    def test_wrong_version_rejected(self, tmp_path):
        g = Grid(16, 17)
        path = write_snapshot(tmp_path / "v.snap", self.rand_state(g))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(path)

    def test_unknown_kind_rejected(self, tmp_path):
        # the kind is checked before the payload size it determines
        g = Grid(8, 9)
        path = write_snapshot(tmp_path / "k.snap", self.rand_state(g))
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown snapshot kind"):
            read_snapshot(path)

    def test_corrupt_size_rejected_before_grid(self, tmp_path, monkeypatch):
        # a Grid of the header's Nx = 2^31 would allocate tens of GB
        g = Grid(8, 9)
        path = write_snapshot(tmp_path / "n.snap", self.rand_state(g))
        raw = bytearray(path.read_bytes())
        raw[6:10] = (2**31).to_bytes(4, "little")
        path.write_bytes(bytes(raw))

        def no_grid(*args, **kwargs):
            raise AssertionError("Grid built before the payload size was checked")

        monkeypatch.setattr(harness, "Grid", no_grid)
        with pytest.raises(ValueError, match="expected"):
            read_snapshot(path)


class TestVerifyCmd:
    def test_default_suite_passes(self):
        report = cmd_verify()
        assert report["passed"] is True
        assert report["failed"] == []
        names = [c["name"] for c in report["checks"]]
        assert "partition-of-unity" in names
        assert "linear-mode-hns" in names
        json.dumps(report)

    def test_tiny_grid_passes(self):
        report = cmd_verify(Nx=16, Ny=9)
        assert report["passed"] is True

    def test_fault_injection_fails_named_check(self):
        report = cmd_verify(Nx=16, Ny=9, corrupt="phi")
        assert report["passed"] is False
        assert report["failed"] == ["partition-of-unity"]

    def test_unknown_fault_rejected(self):
        from stripflow.verify import verify_all

        with pytest.raises(ValueError, match="unknown fault injection 'nope'"):
            verify_all(Nx=16, Ny=9, corrupt="nope")


class TestCmdRun:
    def test_run_writes_outputs(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = cmd_run(cfg)
        assert (out / "energy.csv").exists()
        assert (out / "snapshots" / "initial.snap").exists()
        assert (out / "snapshots" / "final.snap").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"] == cfg.to_dict()
        assert meta["abort"] is None
        assert meta["completed_steps"] == meta["planned_steps"]
        final = read_snapshot(out / "snapshots" / "final.snap")
        assert final.t == pytest.approx(cfg.T_final, rel=1e-9)

    def test_zero_amplitude_gives_zero_energy(self, tmp_path):
        out = cmd_run(small_cfg(tmp_path, amplitude=0.0))
        header, data = read_csv(out / "energy.csv")
        for j, name in enumerate(header):
            if name.startswith(("E_s.", "l2.", "point.")):
                assert np.all(data[:, j] == 0.0), name
        assert np.all(np.diff(data[:, header.index("time")]) > 0.0)

    def test_determinism_bit_identical_csv(self, tmp_path):
        cfg = small_cfg(tmp_path, kind="hns", eps=0.5)
        first = (cmd_run(cfg) / "energy.csv").read_bytes()
        second = (cmd_run(cfg) / "energy.csv").read_bytes()
        assert first == second

    def test_csv_floats_round_trip(self, tmp_path):
        out = cmd_run(small_cfg(tmp_path))
        lines = (out / "energy.csv").read_text().splitlines()
        for cell in lines[1].split(",") + lines[-1].split(","):
            assert f"{float(cell):.17g}" == cell

    def test_cfl_violation_abort_is_recorded(self, tmp_path):
        cfg = small_cfg(tmp_path, dt=1.0 / 16)  # above the 0.70 dy ceiling
        out = cmd_run(cfg)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["abort"] is not None and "CFL" in meta["abort"]
        assert meta["abort_stage"] is None  # refused before any stage ran
        assert meta["completed_steps"] == 0
        assert (out / "energy.csv").exists()  # partial outputs retained

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_abort_is_recorded(self, tmp_path):
        cfg = small_cfg(tmp_path, amplitude=1e8, T_final=2.0)
        out = cmd_run(cfg)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["abort"] is not None
        assert meta["completed_steps"] < meta["planned_steps"]

    def test_hns_run_tracks_divergence(self, tmp_path):
        out = cmd_run(small_cfg(tmp_path, kind="hns", eps=0.3))
        header, data = read_csv(out / "energy.csv")
        div = data[:, header.index("div.rel")]
        assert np.all(div <= 1e-6)
        assert any(h.startswith("E_1.term1") for h in header)

    @pytest.mark.parametrize("kind, header", [
        ("prandtl", "time,l2.u,l2.ut,E_s.term1.Linf.B_s,E_s.term2.Linf.B_s+1/4,"
         "E_s.term3.Linf.B_s+1/2,E_s.term4.L2w.B_s+1/4,E_s.term5.L2w.B_s+1/2,"
         "E_s.term6.L2w.B_s+3/4,E_s.term7.L2.B_s,E_s.composite,E_s.composite_full,"
         "point.u.B_s,point.dy_u.B_s,point.ut.B_s,radius,trust_horizon"),
        ("hns", "time,l2.u,l2.ut,div.rel,E_1.term1.Linf.B_1/2,E_1.term2.Linf.B_3/4,"
         "E_1.term3.Linf.B_1,E_1.term4.L2.B_1/2,E_1.composite,point.u.B_1/2,"
         "point.dy_u.B_1/2,point.ut.B_1/2,radius,trust_horizon"),
    ], ids=["prandtl", "hns"])
    def test_energy_csv_header(self, tmp_path, kind, header):
        out = cmd_run(small_cfg(tmp_path, kind=kind, eps=0.3))
        with open(out / "energy.csv", encoding="utf-8") as fh:
            assert fh.readline().rstrip("\r\n") == header

    def test_sweep_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cmd_run handles"):
            cmd_run(small_cfg(tmp_path, kind="sweep"))

    @pytest.mark.parametrize("kind", ["prandtl", "hns", "sweep"])
    def test_timings_in_metadata(self, tmp_path, kind):
        if kind == "sweep":
            out = Path(cmd_sweep(small_cfg(
                tmp_path, kind=kind, T_final=0.25, eps_list=(0.2, 0.1, 0.05),
            )).directory)
        else:
            out = cmd_run(small_cfg(tmp_path, kind=kind, eps=0.3))
        meta = json.loads((out / "metadata.json").read_text())
        timings = meta["timings"]
        phases = ("setup_s", "stepping_s", "diagnostics_s", "io_s")
        assert set(timings) == set(phases) | {"steps_per_s"}
        assert meta["blas_threads"] == BLAS_THREADS
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings[k] for k in phases) <= meta["wall_time_s"]
        assert timings["steps_per_s"] > 0.0

    @pytest.mark.parametrize("kind", ["prandtl", "hns"])
    def test_data_norm_in_metadata(self, tmp_path, kind):
        cfg = small_cfg(tmp_path, kind=kind, eps=0.3, u1="half-decay")
        meta = json.loads((cmd_run(cfg) / "metadata.json").read_text())
        p = cfg.gevrey_params()
        u0, u1 = cfg.make_data()
        if kind == "prandtl":
            expect = energy_E_s([PrandtlState(u0, u1)], p).composite[0]
        else:
            s = make_hns_data(u0, p, eps=cfg.eps, u1=u1)
            expect = energy_E1([s], cfg.eps, p).composite[0]
        assert np.isfinite(meta["data_norm"]) and meta["data_norm"] > 0.0
        assert meta["data_norm"] == expect

    @pinned
    def test_blas_library_looked_up_once(self, monkeypatch):
        # every cmd_run enters one_blas_thread; only the first lookup may load
        loads, real_cdll = [], ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: loads.append(path) or real_cdll(path))
        for _ in range(2):
            before = len(loads)
            with blas.one_blas_thread() as pinned_here:
                assert pinned_here
        assert loads[before:] == []

    @pinned
    def test_blas_on_one_thread_during_run_only(self, tmp_path, monkeypatch):
        get_threads = blas._openblas()[0]
        before, seen = get_threads(), set()
        real_step = harness.hns_step

        def recording_step(state, dt, **kw):
            seen.add(get_threads())
            return real_step(state, dt, **kw)

        monkeypatch.setattr(harness, "hns_step", recording_step)
        cmd_run(small_cfg(tmp_path, kind="hns", eps=0.3))
        assert seen == {1}
        assert get_threads() == before

    @pinned
    def test_energy_csv_independent_of_blas_threads(self, tmp_path):
        # at 128x65 the projection's GEMMs are large enough for OpenBLAS to
        # split them over threads, which changed the last bits when unpinned
        src = Path(__file__).resolve().parent.parent / "src"
        # T_final 0.2 is 51 steps: the run passes the step-50 checkpoint
        cfg = small_cfg(tmp_path, Nx=128, Ny=65, m_max=4, T_final=0.2,
                        kind="hns", eps=0.1)
        csv_bytes = {}
        for threads in (None, "1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src))
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            cfg.directory = str(tmp_path / f"threads-{threads}")
            path = tmp_path / f"threads-{threads}.json"
            path.write_text(json.dumps(cfg.to_dict()))
            proc = subprocess.run(
                [sys.executable, "-m", "stripflow.cli", "run", "--config", str(path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            csv_bytes[threads] = (Path(cfg.directory) / "energy.csv").read_bytes()
        assert csv_bytes[None] == csv_bytes["1"] == csv_bytes["2"]

    def test_stage_abort_snapshot_is_a_step_state(self, tmp_path):
        cfg = small_cfg(tmp_path, amplitude=1e8, T_final=2.0)
        out = cmd_run(cfg)
        meta = json.loads((out / "metadata.json").read_text())
        assert "RK stage" in meta["abort"]
        assert meta["abort_stage"] in (1, 2, 3, 4)
        final = read_snapshot(out / "snapshots" / "final.snap")
        assert final.t == pytest.approx(meta["completed_steps"] * meta["dt"])
        assert np.all(np.isfinite(final.u.rows))


class TestScipyFreeRunPath:
    SCRIPT = """
import json, sys
from stripflow import cli
root = sys.argv[1]
for kind in ("prandtl", "hns", "sweep"):
    cfg = {"grid": {"Nx": 16, "Ny": 17},
           "data": {"m_max": 2},
           "solver": {"T_final": 0.125},
           "experiment": {"kind": kind, "eps": 0.3, "eps_list": [0.2, 0.1, 0.05]},
           "output": {"directory": f"{root}/{kind}", "sample_every": 2}}
    path = f"{root}/{kind}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    cli.main(["sweep" if kind == "sweep" else "run", "--config", path])
if cli.main(["verify"]) != 0:  # its theta ODE check integrates with numpy alone
    sys.exit("verify failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

    def test_run_and_sweep_never_import_scipy(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        assert (tmp_path / "sweep" / "sweep.csv").exists()


class TestCmdSweep:
    def test_member_equal_to_reference_gives_zero_errors(self, tmp_path, monkeypatch,
                                                         capsys):
        # members that step the limit system and carry its slaved pair are
        # the reference itself: every error is exactly 0.0, no slope is fit
        class LimitState(HnsState):
            # v recovered by quadrature is divergence-free to about 1e-2
            # only, so these states take the limit system's checks
            def check_invariants(self):
                StackedState.check_invariants(self)  # walls, finite values
                PrandtlState(self.u, self.ut, self.t).check_invariants()  # mean drift

        def slaved(state, eps):
            s = LimitState(state.u, recover_v(state.u), state.ut, recover_v(state.ut),
                           eps=eps, t=state.t)
            s.pin(s.stack)  # as make_hns_data and hns_step pin a real member
            return s

        def limit_data(u0, p, eps, u1):
            return slaved(PrandtlState(u0, u1), eps)

        def limit_step(state, dt, **kw):
            return slaved(prandtl_step(PrandtlState(state.u, state.ut, state.t), dt),
                          state.eps)

        monkeypatch.setattr(harness, "make_hns_data", limit_data)
        monkeypatch.setattr(harness, "hns_step", limit_step)
        cfg = small_cfg(tmp_path, kind="sweep", amplitude=1e-3, T_final=0.25,
                        eps_list=(0.2, 0.1, 0.05), u1="half-decay")
        res = cmd_sweep(cfg)
        res.validate()
        assert res.sup_errors == res.final_errors == res.energy_errors == (0.0,) * 3
        assert res.slope is None and res.intercept is None
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        assert "slope fit skipped" in capsys.readouterr().out
        meta = json.loads((Path(res.directory) / "metadata.json").read_text())
        assert meta["slope"] is None
        # log10 of a zero error is -inf, and warns of nothing
        cmd_report(res.directory)
        loglog = (Path(res.directory) / "loglog.dat").read_text().splitlines()[1:]
        assert len(loglog) == 3
        assert all(line.split()[1] == "-inf" for line in loglog)

    def test_member_differences_hold_pinned_zeros(self, tmp_path, monkeypatch):
        # the reference's slaved v and vt obey the members' rule (HnsState.pin),
        # so every difference is +0.0 at the walls and in the x-mean rows of
        # v and vt, not the quadrature residual of recover_v
        diffs = []

        def capture(samples, eps, p, decay_rates=True):
            diffs.extend(samples)
            return energy_E1(samples, eps, p, decay_rates=decay_rates)

        use_cores(monkeypatch, 1)  # the members run in this process
        monkeypatch.setattr(harness, "energy_E1", capture)
        cfg = small_cfg(tmp_path, Nx=32, kind="sweep", amplitude=1e-3, T_final=0.125,
                        eps_list=(0.2, 0.1, 0.05), u1="half-decay")
        cmd_sweep(cfg)
        assert len(diffs) == 3 * (1 + cfg.n_steps() // cfg.sample_every)
        for d in diffs:
            pinned_zeros = np.concatenate([d.stack[..., [0, -1]].ravel(),
                                           d.stack[1::2, 0].ravel()])
            for part in (pinned_zeros.real, pinned_zeros.imag):
                assert np.all(part == 0.0), d.t
                assert not np.signbit(part).any(), d.t

    @pytest.mark.parametrize("u1", ["zero", "half-decay"])
    def test_mini_sweep_converges(self, tmp_path, u1):
        # the reference and every member start from the same (u0, u1); a
        # member started from ut = 0 against a half-decay reference leaves
        # an eps-independent error and a flat slope
        cfg = small_cfg(
            tmp_path,
            Nx=32,
            kind="sweep",
            amplitude=1e-3,
            eps_list=(0.2, 0.1, 0.05),
            u1=u1,
        )
        res = cmd_sweep(cfg)
        res.validate()
        sups = np.array(res.sup_errors)
        assert np.all(np.diff(sups) < 0.0)  # strictly decreasing with eps
        assert res.slope >= 0.9
        header, data = read_csv(resolve_output_dir(cfg.directory) / "sweep.csv")
        assert header[0] == "eps"
        assert data.shape == (3, 4)

    def test_wrong_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cmd_sweep needs"):
            cmd_sweep(small_cfg(tmp_path))

    @pytest.mark.parametrize("step, cores, fails, error, match", [
        pytest.param("hns_step", 1, None, "abort", r"sweep member eps=0\.2 aborted",
                     id="member"),
        pytest.param("prandtl_step", 1, None, "abort",
                     r"sweep reference \(prandtl\) aborted", id="reference"),
        # member 1 runs in the forked worker 1; the patched step goes with it
        pytest.param("hns_step", 2, 0.1, "abort", r"sweep member eps=0\.1 aborted",
                     id="member-in-child", marks=forks),
        # any other error reads the same whichever worker raised it
        pytest.param("hns_step", 1, 0.1, "overflow",
                     r"^sweep member eps=0\.1 failed: synthetic overflow$",
                     id="error"),
        pytest.param("hns_step", 2, 0.1, "overflow",
                     r"^sweep member eps=0\.1 failed: synthetic overflow$",
                     id="error-in-child", marks=forks),
    ])
    def test_member_abort_names_member(self, tmp_path, monkeypatch, step, cores,
                                       fails, error, match):
        real_step = getattr(harness, step)

        def exploding_step(state, dt, **kw):
            if fails is None or state.eps == fails:
                if error == "abort":
                    raise SolverAbort("synthetic failure", state, stage=3)
                raise OverflowError("synthetic overflow")
            return real_step(state, dt, **kw)

        monkeypatch.setattr(harness, step, exploding_step)
        use_cores(monkeypatch, cores)
        cfg = small_cfg(tmp_path, kind="sweep", T_final=0.25,
                        eps_list=(0.2, 0.1, 0.05))
        with pytest.raises(RuntimeError, match=match) as info:
            cmd_sweep(cfg)
        cause = info.value.__cause__
        if error == "overflow":
            assert type(cause) is OverflowError
            assert str(cause) == "synthetic overflow"
            return
        assert isinstance(cause, SolverAbort)
        assert (cause.reason, cause.stage) == ("synthetic failure", 3)
        assert (cause.state is None) == (cores > 1)  # a state never crosses the pipe

    def test_portable_errors(self):
        class Custom(Exception):
            def __init__(self, code, text):
                super().__init__(f"{code}: {text}")

        assert type(harness._portable(ValueError("bad"))) is ValueError
        odd = harness._portable(Custom(7, "odd"))
        assert type(odd) is RuntimeError and str(odd) == "Custom: 7: odd"
        abort = harness._portable(SolverAbort("nan", object(), stage=2))
        assert (abort.reason, abort.state, abort.stage) == ("nan", None, 2)

    @forks
    @pytest.mark.parametrize("when", ["before-sending", "after-sending"])
    def test_dead_worker_raises(self, tmp_path, monkeypatch, when):
        parent = os.getpid()
        if when == "before-sending":
            real_step = harness.hns_step

            def dying_step(state, dt, **kw):
                if os.getpid() != parent:
                    os._exit(3)
                return real_step(state, dt, **kw)

            monkeypatch.setattr(harness, "hns_step", dying_step)
        else:
            real_send = harness._send_share

            def send_then_die(*args):
                real_send(*args)
                os._exit(3)

            monkeypatch.setattr(harness, "_send_share", send_then_die)
        use_cores(monkeypatch, 2)
        cfg = small_cfg(tmp_path, kind="sweep", T_final=0.25,
                        eps_list=(0.2, 0.1, 0.05))
        with pytest.raises(RuntimeError, match="sweep worker 1 exited with code 3"):
            cmd_sweep(cfg)

    @forks
    def test_fork_warning_of_threaded_parent_is_not_an_error(self, tmp_path,
                                                             monkeypatch):
        # Python >= 3.12 emits this from os.fork when the process has threads
        real_fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use "
                          "of fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        use_cores(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cmd_sweep(small_cfg(tmp_path, kind="sweep", T_final=0.25,
                                      eps_list=(0.2, 0.1, 0.05)))
        meta = json.loads((Path(res.directory) / "metadata.json").read_text())
        assert meta["workers"] == 2

    @forks
    def test_sweep_csv_independent_of_workers(self, tmp_path, monkeypatch):
        csv_bytes = {}
        for cores, workers in ((1, 1), (2, 2), (8, 3)):  # capped at the members
            use_cores(monkeypatch, cores)
            res = cmd_sweep(small_cfg(tmp_path / f"c{cores}", kind="sweep",
                                      T_final=0.25, eps_list=(0.2, 0.1, 0.05)))
            out = Path(res.directory)
            csv_bytes[workers] = (out / "sweep.csv").read_bytes()
            assert json.loads((out / "metadata.json").read_text())["workers"] == workers
        assert csv_bytes[1] == csv_bytes[2] == csv_bytes[3]

    @forks
    def test_blas_on_one_thread_during_sweep_only(self, tmp_path, monkeypatch):
        get_threads = blas._openblas()[0]
        before, seen = get_threads(), set()
        real_step = harness.hns_step

        def recording_step(state, dt, **kw):
            seen.add(get_threads())
            return real_step(state, dt, **kw)

        monkeypatch.setattr(harness, "hns_step", recording_step)
        use_cores(monkeypatch, 1)
        cmd_sweep(small_cfg(tmp_path, kind="sweep", T_final=0.25,
                            eps_list=(0.2, 0.1, 0.05)))
        assert seen == {1}
        assert get_threads() == before


class TestLastStepChecked:
    """Every run's last state has its invariants checked, however short the
    run: these runs are 16 steps long, shorter than the N_CHECK cadence."""

    def unpin_last_step(self, monkeypatch, name, n):
        """Wrap the harness's stepper so that its n-th call returns a state
        with a nonzero u wall row; returns the list that receives it."""
        real, calls, bad = getattr(harness, name), [], []

        def step(state, dt, **kw):
            out = real(state, dt, **kw)
            calls.append(out.t)
            if len(calls) == n:
                stack = out.stack.copy()
                stack[0, 1, -1] = 1e-3
                out = out.with_stack(stack)
                bad.append(out)
            return out

        monkeypatch.setattr(harness, name, step)
        return bad

    @pytest.mark.parametrize("kind", ["prandtl", "hns"])
    def test_run(self, tmp_path, monkeypatch, kind):
        cfg = small_cfg(tmp_path, kind=kind, eps=0.3, T_final=0.25)
        n = cfg.n_steps()
        assert n < harness.N_CHECK
        bad = self.unpin_last_step(monkeypatch, f"{kind}_step", n)
        out = cmd_run(cfg)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["abort"].startswith("u wall rows not pinned")
        assert meta["abort_stage"] is None and meta["completed_steps"] == n - 1
        final = read_snapshot(out / "snapshots" / "final.snap")
        assert type(final) is type(bad[0]) and final.t == bad[0].t
        assert np.array_equal(final.stack, bad[0].stack)

    def test_sweep_member(self, tmp_path, monkeypatch):
        use_cores(monkeypatch, 1)  # the members run in this process, in order
        cfg = small_cfg(tmp_path, kind="sweep", T_final=0.25, eps_list=(0.2, 0.1, 0.05))
        self.unpin_last_step(monkeypatch, "hns_step", cfg.n_steps())  # eps 0.2's last
        with pytest.raises(RuntimeError, match=r"^sweep member eps=0\.2 aborted: "
                                               r"u wall rows not pinned"):
            cmd_sweep(cfg)


def report_text(d):
    """{file name: text} that cmd_report writes for the directory `d`,
    formatted here, row by row, from the CSV as `read_csv` reads it."""
    sweep = (d / "sweep.csv").exists()
    header, data = read_csv(d / ("sweep.csv" if sweep else "energy.csv"))
    files = {}
    if sweep:
        files["loglog.dat"] = ["# log10(eps)  log10(sup_error.l2)"] + [
            f"{np.log10(eps):.17g} {np.log10(err) if err > 0 else -np.inf:.17g}"
            for eps, err in data[:, :2]]
    else:
        for j, name in enumerate(header):
            if name.startswith(("E_s.", "E_1.")):
                files[name.replace("/", "_") + ".dat"] = [f"# time  {name}"] + [
                    f"{row[0]:.17g} {row[j]:.17g}" for row in data]
    files["report.txt"] = ["  ".join(f"{h:>22}" for h in header)] + [
        "  ".join(f"{v:>22.9e}" for v in row) for row in data]
    return header, {name: "".join(line + "\n" for line in lines)
                    for name, lines in files.items()}


class TestCmdReport:
    @pytest.mark.parametrize("kind", ["prandtl", "hns", "sweep"])
    def test_report_text(self, tmp_path, kind):
        # every report file, to the byte, against the text formatted here
        cfg = small_cfg(tmp_path, kind=kind, eps=0.3, eps_list=(0.2, 0.1, 0.05))
        if kind == "sweep":
            out = Path(cmd_sweep(cfg).directory)
        else:
            out = cmd_run(cfg)
        header, expected = report_text(out)
        assert ("div.rel" in header) == (kind == "hns")
        paths = cmd_report(out)
        assert [p.name for p in paths] == list(expected)
        for path in paths:
            assert path.read_bytes() == expected[path.name].encode(), path.name

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothing to report"):
            cmd_report(tmp_path)


class TestOutputRoot:
    def test_env_override_applies_to_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRIPFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
        assert resolve_output_dir("runs/a") == tmp_path / "root" / "runs" / "a"
        assert resolve_output_dir(str(tmp_path / "abs")) == tmp_path / "abs"

    def test_no_env_keeps_relative(self, monkeypatch):
        monkeypatch.delenv("STRIPFLOW_OUTPUT_ROOT", raising=False)
        assert str(resolve_output_dir("runs/a")) == "runs/a"

    def test_cmd_run_honors_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRIPFLOW_OUTPUT_ROOT", str(tmp_path))
        out = cmd_run(small_cfg(tmp_path, directory="rooted/run"))
        assert out == tmp_path / "rooted" / "run"
        assert (out / "energy.csv").exists()


class TestCli:
    def test_config_schema(self, capsys):
        assert cli.main(["config", "--schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert "grid" in schema

    def test_config_defaults(self, capsys):
        assert cli.main(["config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["grid"]["Nx"] == 64

    def test_verify_exit_codes(self, capsys):
        assert cli.main(["verify", "--nx", "16", "--ny", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert (
            cli.main(["verify", "--nx", "16", "--ny", "9", "--inject-fault", "phi"])
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] == ["partition-of-unity"]

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = small_cfg(tmp_path)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        out_dir = capsys.readouterr().out.strip()
        assert cli.main(["report", out_dir]) == 0

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = small_cfg(
            tmp_path,
            kind="sweep",
            T_final=0.25,
            eps_list=(0.2, 0.1, 0.05),
        )
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "slope=" in out and "slope fit skipped" not in out
