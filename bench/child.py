"""Set up a workload in a fresh interpreter, then run and check operations.

    python3 bench/child.py --workload NAME --seed N --out DIR
        [--spawned T] [--until T] [--spans FILE] [--write-reference]

`--spawned` is the parent's `time.perf_counter()` just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, shared between
processes, so `setup_s` covers interpreter start, imports, config, data
and cache warm-up up to the moment the operation can start.

Without `--until` the child runs one operation.  With `--until T` it
runs operations, each followed by the calibration kernel
(`calibrate.after_operation`), and starts no further one once it would
end past T by more than half its length.  With `--spans FILE` the
call-site tracer is installed before set-up, one operation runs, and
every span is written to FILE after it.  With `--write-reference` the
compared columns of the output become the new reference instead of
being checked against it.

Prints one JSON line: setup_s, peak_rss_mb and ops, a list of
{wall_s, steps, failures, csv_sha256}, plus calib_s (the chunk times
of the calibration after it) when `--until` is given.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import checks
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _result(workload, cfg, out_dir: Path, args, wall_s: float, error) -> dict:
    """Check one operation's output; return its record."""
    if error:
        return {"wall_s": wall_s, "steps": 0, "failures": [error], "csv_sha256": None}
    meta = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))
    if workload.op == "sweep":
        steps = meta["planned_steps"] * (1 + len(cfg.eps_list))
    else:
        steps = meta["completed_steps"]
    digest = checks.csv_sha256(workload, out_dir)
    if args.write_reference:
        checks.write_reference(workload, out_dir)
        failures = []
    else:
        failures = checks.check_output(workload, out_dir, args.seed)
    return {"wall_s": wall_s, "steps": steps, "failures": failures, "csv_sha256": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory of the run")
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--until", type=float, default=None,
                    help="run operations until this perf_counter() time")
    ap.add_argument("--spans", default=None, help="trace and write spans here")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    spawned = time.perf_counter() if args.spawned is None else args.spawned
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out).resolve()

    sys.path.insert(0, str(ROOT / "src"))
    from stripflow import paley
    from stripflow.harness import RunConfig, cmd_run, cmd_sweep
    from stripflow.hns import make_hns_data

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    cfg = RunConfig.from_dict(workload.config_dict(args.seed, str(out_dir)))
    u0, _ = cfg.make_data()
    paley.get_bank(u0.grid)
    warm_eps = {"prandtl": (), "hns": (cfg.eps,), "sweep": cfg.eps_list}[cfg.kind]
    for eps in warm_eps:  # factorises and caches the projector per eps
        make_hns_data(u0, cfg.gevrey_params(), eps=eps)
    ready = time.perf_counter()

    op = cmd_sweep if workload.op == "sweep" else cmd_run
    ops = []
    while True:
        error = None
        t0 = time.perf_counter()
        try:
            op(cfg)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.uninstall()
            tracer.dump(args.spans, (t0, t1))
        ops.append(_result(workload, cfg, out_dir, args, t1 - t0, error))
        if args.until is None or tracer:
            break
        ops[-1]["calib_s"] = calibrate.after_operation(t1 - t0)
        if time.perf_counter() + 0.5 * (time.perf_counter() - t0) > args.until:
            break

    result = {
        "setup_s": ready - spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
