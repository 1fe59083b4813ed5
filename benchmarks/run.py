#!/usr/bin/env python3
"""cobosons sweep benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's ops (in-process ``cobosons.cli.main(argv)`` calls, one
sweep each) in whole passes for about S seconds, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
The line before it records the run environment.  Per-op records (and the
spans of a traced run) go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import stats
import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
# a pass already started always finishes; no new op starts after this
HARD_STOP_S = 120.0


def import_cli():
    """Import cobosons.cli from this checkout's sources, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "cobosons" / "cli.py").is_file():
        sys.exit(f"benchmark: no cobosons sources under {src}")
    sys.path.insert(0, str(src))
    import cobosons.cli

    if Path(cobosons.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"benchmark: imported cobosons from {cobosons.cli.__file__}, not {src}")
    return cobosons.cli


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------- environment

def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(loadavg) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": loadavg,
    }


# ---------------------------------------------------------------------- setup

def setup(workload: str, seed: int):
    """Everything a workload process does before its first op: returns
    cobosons.cli, the warm-up op (the seed's first op) and the references."""
    cli = import_cli()
    warm_up = workloads.pass_ops(workload, random.Random(seed))[0]
    refs = checks.load_references(workload)
    return cli, warm_up, refs


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh workload process to it being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


# ------------------------------------------------------------------------ ops

def run_op(main, op, refs, tracer=None, op_id=-1) -> dict:
    """One op: time ``main(argv)``, then check its output."""
    argv = list(op.argv)
    buf = io.StringIO()
    code, error = None, None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = tracer.run_op(op_id, main, argv) if tracer else main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed op is counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    record = {"op": op.key, "group": op.group, "points": op.points,
              "wall_s": wall, "cpu_s": cpu, "rows": 0}
    if error is not None:
        record.update(status="raised", detail=error)
        return record
    text = buf.getvalue()
    problem = checks.check_op(argv, text, code, refs.get(op.key))
    if problem:
        record.update(status="wrong", detail=problem)
    else:
        record.update(status="ok", rows=checks.result_rows(text, op.kind))
    return record


def measure(cli, workload: str, seed: int, seconds: float, warm_up, refs, tracer=None):
    """Run whole passes for about ``seconds`` after one untimed warm-up op;
    returns (records, passes)."""
    rng = random.Random(seed)
    run_op(cli.main, warm_up, refs)
    records, passes = [], 0.0
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            ops = workloads.pass_ops(workload, rng)
            pass_start = time.perf_counter()
            for i, op in enumerate(ops):
                if time.perf_counter() - start > HARD_STOP_S:
                    return records, passes + i / len(ops)
                records.append(run_op(cli.main, op, refs, tracer, len(records)))
            passes += 1
            pass_s = time.perf_counter() - pass_start
            # stop at the pass count closest to the requested time
            if time.perf_counter() - start + pass_s / 2 > seconds:
                return records, passes
    finally:
        if tracer:
            tracer.uninstall()


# -------------------------------------------------------------------- metrics

def group_medians(records) -> list:
    """Median rows, wall and CPU seconds of each op group (the same sweep up
    to the seed's offset) over its repeats in the run, so that a burst of
    load from outside the process moves at most one sample per group."""
    groups = defaultdict(list)
    for r in records:
        groups[r["group"]].append(r)
    return [{key: statistics.median(r[key] for r in g) for key in ("rows", "wall_s", "cpu_s")}
            for g in groups.values()]


def end_to_end(records, setup_times) -> dict:
    ok = [r for r in records if r["status"] == "ok"]
    typical = group_medians(records)  # one typical pass
    rows = sum(g["rows"] for g in typical)
    if not rows:
        sys.exit("benchmark: a typical pass yields no rows; nothing to measure")
    sweeps = [g["wall_s"] for g in group_medians(ok)]
    return {
        "rows_per_s": rows / sum(g["wall_s"] for g in typical),
        "sweep_s.p50": stats.percentile(sweeps, 50),
        "sweep_s.p90": stats.percentile(sweeps, 90),
        "ops_ok": len(ok) / len(records),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpu_per_row_s": sum(g["cpu_s"] for g in typical) / rows,
    }


def per_layer(tracer, records, passes) -> dict:
    ok_ops = {i for i, r in enumerate(records) if r["status"] == "ok"}
    points = sum(records[i]["points"] for i in ok_ops)
    return layer_metrics(tracer.spans, ok_ops, points, passes, tracer.overhead)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time setup_s)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    trace = bool(args.trace)
    units = declared_metrics(trace)
    cli, warm_up, refs = setup(args.workload, args.seed)
    setup_times = [] if trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = Tracer() if trace else None
    records, passes = measure(cli, args.workload, args.seed, args.seconds, warm_up, refs, tracer)
    if not any(r["status"] == "ok" for r in records):
        sys.exit("benchmark: no op succeeded; nothing to measure")
    values = per_layer(tracer, records, passes) if trace else end_to_end(records, setup_times)
    if set(values) != set(units):
        sys.exit(f"benchmark: metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    failed = sum(r["status"] != "ok" for r in records)
    wrong = [r for r in records if r["status"] == "wrong"]
    ok_groups = len({r["group"] for r in records if r["status"] == "ok"})
    sampling = {
        "passes": passes,
        "ok_ops": len(records) - failed,
        "sweep_groups": ok_groups,
        "samples_beyond_p90": stats.samples_beyond(ok_groups, 90),
        "tail_percentile_with_10_beyond": stats.tail_percentile(ok_groups),
        "ops_failed": failed / len(records),
        "setup_samples_s": setup_times,
    }
    env = environment(loadavg)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "sampling": sampling, "metrics": values, "ops": records}, fh, indent=1)
    if trace:
        tracer.write(f"{stem}_spans.jsonl")

    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    if not trace:
        print(f"ops_failed = {sampling['ops_failed']:.6g} (failed {failed} of {len(records)} ops)")
    for r in wrong:
        print(f"WRONG OUTPUT: {r['op']}: {r['detail']}")
    print(json.dumps({"env": env, "sampling": sampling}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
