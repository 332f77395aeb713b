"""stripflow benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload decay-small|decay-hns|sweep-eps \
        [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: this process starts one fresh interpreter at a
time (bench/child.py) and waits for it.  An operation is one `cmd_run`
or `cmd_sweep` call.  Children run with one BLAS/OpenMP thread, so at
most two processes exist at a time and only the child is busy.

--trace 0 gives each of CHILDREN children an equal slice of `--seconds`.
A child sets up once (timed as `setup_s`), then runs operations back to
back, each followed by the calibration kernel (bench/calibrate.py).
Each time is multiplied by the host speed that the calibration measured
next to it, and every metric is the run's median.
--trace 1 alternates untraced and traced children of one operation each
and reports the per-layer metrics; the untraced walls give
`trace.overhead_frac`.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full report
(host block, seed, every child and operation) goes to
.bench_out/<workload>/report-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CHILDREN = 3
CHILDREN = 4
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildError(RuntimeError):
    """A repetition's interpreter crashed or printed no result."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def host_block(workload, seed: int) -> dict:
    import numpy as np

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "child_thread_env": THREAD_ENV,
        "workload": {
            "name": workload.name,
            "op": "cmd_sweep" if workload.op == "sweep" else "cmd_run",
            "grid": f"{workload.config['grid']['Nx']}x{workload.config['grid']['Ny']}",
            "T_final": workload.config["solver"]["T_final"],
            "amplitude": workload.amplitude(seed),
        },
    }


def spawn(workload, seed: int, out_dir: Path, spans: Path | None,
          until: float | None = None) -> dict:
    """Run one child in a fresh interpreter and return its result."""
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = CHILD_TIMEOUT_S
    if until is not None:
        cmd += ["--until", repr(until)]
        timeout += max(0.0, until - time.perf_counter())
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src" / "stripflow"
    if not (src / "__init__.py").is_file():
        print(f"error: no stripflow sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    out = ROOT / ".bench_out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    host = host_block(workload, args.seed)
    print("host " + json.dumps(host))
    print(f"workload {workload.name} seed {args.seed} "
          f"amplitude {workload.amplitude(args.seed)!r} trace {args.trace}")

    children, ops = [], []
    deadline = time.perf_counter() + args.seconds
    slice_s = args.seconds / CHILDREN
    min_children = 2 * MIN_CHILDREN if args.trace else MIN_CHILDREN
    while len(children) < min_children or time.perf_counter() < deadline - slice_s / 2:
        traced = bool(args.trace) and len(children) % 2 == 1
        spans = out / f"spans-{len(children) + 1}.json" if traced else None
        until = None if args.trace else time.perf_counter() + slice_s
        try:
            child = spawn(workload, args.seed, out / "run", spans, until)
        except (ChildError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        child["traced"] = traced
        child["spans"] = str(spans) if spans else None
        children.append(child)
        for op in child["ops"]:
            if ops and op["csv_sha256"] != ops[0]["csv_sha256"]:
                op["failures"].append("output CSV bytes differ from operation 1")
            op["traced"] = traced
            ops.append(op)
            status = "ok" if not op["failures"] else "FAILED: " + "; ".join(op["failures"])
            print(f"op {len(ops)} child {len(children)}{' traced' if traced else ''}: "
                  f"wall_s {op['wall_s']:.4f} steps {op['steps']} {status}")
        print(f"child {len(children)}: setup_s {child['setup_s']:.4f} "
              f"peak_rss_mb {child['peak_rss_mb']:.1f}")

    attempted = len(ops)
    failed = sum(1 for op in ops if op["failures"])
    untraced = [op for op in ops if not op["traced"]]
    correct = failed == 0
    if args.trace:
        from spans import SpanSet, layer_metrics, missing_spans

        sets = [SpanSet(c["spans"]) for c in children if c["traced"]]
        missing = missing_spans(sets, workload.name)
        if missing:
            print(f"error: spans recorded zero calls: {', '.join(missing)}")
            correct = False
        layers = layer_metrics(sets, [op["wall_s"] for op in untraced], workload.op)
        metrics = {name: {"value": v, "unit": u} for name, (u, v) in layers.items()}
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:.6g} {m['unit']}")
        speed = None
    else:
        for child in children:
            for i, op in enumerate(child["ops"]):
                near = op["calib_s"] + (child["ops"][i - 1]["calib_s"] if i else [])
                op["speed"] = calibrate.speed(near)
            child["speed"] = child["ops"][0]["speed"]
        speed = statistics.median(op["speed"] for op in untraced)
        print(f"host speed {speed:.4f} (median over operations of the nominal chunk "
              f"time {calibrate.NOMINAL_CHUNK_S} s over the nearby chunks' median)")
        series = {
            "wall_s": ("s", [op["wall_s"] * op["speed"] for op in untraced],
                       [op["wall_s"] for op in untraced]),
            "steps_per_s": ("1/s", [op["steps"] / op["wall_s"] / op["speed"] for op in untraced],
                            [op["steps"] / op["wall_s"] for op in untraced]),
            "setup_s": ("s", [c["setup_s"] * c["speed"] for c in children],
                        [c["setup_s"] for c in children]),
            "peak_rss_mb": ("MB", [c["peak_rss_mb"] for c in children],
                            [c["peak_rss_mb"] for c in children]),
        }
        metrics = {}
        for name, (unit, values, measured) in series.items():
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<14} {value:.6g} {unit}  (median of {len(values)}, "
                  f"measured {statistics.median(measured):.6g}, "
                  f"min {min(measured):.6g}, max {max(measured):.6g})")
        # failed_ratio is 0 when all is well; the gated form is never 0
        metrics["ok_ratio"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        print(f"{'failed_ratio':<14} {failed / attempted:.6g}  ({failed}/{attempted})")
        print(f"{'ok_ratio':<14} {1.0 - failed / attempted:.6g}")

    report = {"host": host, "seed": args.seed, "trace": args.trace, "speed": speed,
              "children": children, "metrics": metrics, "correct": correct}
    (out / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
