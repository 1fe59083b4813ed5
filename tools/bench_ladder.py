#!/usr/bin/env python3
"""Before/after numbers for a change to the ground solver.

    python3 tools/bench_ladder.py --parent DIR [--out BENCH.json]

DIR is a checkout of the parent commit.  For each checkout (the parent and
this one) the script records:

- the size ladder: LADDER_REPEATS ``ground_space`` solves per (model, d,
  N) and checkout, alternating which side runs first, each in its own
  process so that a solve above TIMEOUT_S seconds is cut and recorded as
  not run (and not repeated), with the basis dimension, the solver path,
  the degeneracy, the build time, the solve time split into the solver's
  setup (``GroundSolver(op)``) and its call, and the peak RSS of every
  run, and the median of each;
- the chain ladder: the median of CHAIN_REPEATS ``ground_space`` solves of
  each relative chain in CHAIN_LADDER, after one untimed solve, in its own
  process, with the chain's size, the solver path and the energy;
- the four benchmark workloads: PAIRS runs of SECONDS seconds of each
  checkout's ``benchmarks/run.py`` per workload, alternating which side
  runs first, seeds 1..PAIRS, with the medians and quartiles of every
  end-to-end metric and the pairs the change wins on ``rows_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("effective_arpack_assembly", "correlation_scans", "full_dense_crossover", "checkpoints")
GAMMA_U_J2 = 10.5
PAIRS = 10  # alternating parent/change runs per workload
SECONDS = 20  # run length, the benchmark's run_seconds
TIMEOUT_S = 300  # a ladder solve past this is recorded as not run
LADDER_REPEATS = 5  # alternating parent/change solves per ladder size; one run below 0.2 s swings by +-50%
# (model, d, N); effective at J = 1, U = 1000, full at J = 100, U = 1e5
LADDER = (
    ("effective", 10, 4), ("effective", 16, 6), ("effective", 20, 8), ("effective", 24, 8),
    ("effective", 28, 8),  # 3.1M states, 56021 in its block; peak RSS near 1.5 GB
    ("full", 8, 2), ("full", 10, 2), ("full", 12, 2), ("full", 10, 3), ("full", 12, 3),
    ("full", 10, 4), ("full", 12, 4),
)
# (kind, r, cutoff) of build_relative_chain at J = 1, U = 3, gamma = 3, d = 10
CHAIN_LADDER = (("two_fermion", 0, 400), ("two_pair", 0, 400), ("two_fermion", 1, 400),
                ("two_fermion", 0, 1200))
CHAIN_REPEATS = 5

SOLVE = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cobosons import ModelParams, build_effective_hamiltonian, build_full_hamiltonian
from cobosons.solve import GroundSolver
model, d, n, x = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5])
j, u = (1.0, 1e3) if model == "effective" else (100.0, 1e5)
params = ModelParams(j=j, u=u, gamma=x * j * j / u, d=d, n=n)
build = build_effective_hamiltonian if model == "effective" else build_full_hamiltonian
t0 = time.perf_counter()
op = build(params)
t1 = time.perf_counter()
solver = GroundSolver(op)  # ground_space(op) is GroundSolver(op)(0.0)
t2 = time.perf_counter()
gs = solver()
t3 = time.perf_counter()
print(json.dumps({"dim": op.dim, "path": gs.path, "build_s": t1 - t0, "setup_s": t2 - t1, "call_s": t3 - t2,
                  "solve_s": t3 - t1,
                  "degeneracy": gs.degeneracy, "energy": gs.energy,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


CHAIN = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from cobosons import ModelParams, build_relative_chain, ground_space
kind, r, cutoff, repeats = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
chain = build_relative_chain(kind, ModelParams(j=1.0, u=3.0, gamma=3.0, d=10, n=2), r=r, cutoff=cutoff)
gs = ground_space(chain)
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    ground_space(chain)
    times.append(time.perf_counter() - t0)
print(json.dumps({"dim": chain.dim, "path": gs.path, "solve_s": statistics.median(times), "energy": gs.energy}))
"""


def run_json(argv: list) -> dict:
    """The JSON last line of a timed script run, or why it gave none."""
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    except subprocess.TimeoutExpired:
        return {"result": f"not run (> {TIMEOUT_S} s)"}
    except subprocess.CalledProcessError as exc:
        return {"result": "failed", "error": exc.stderr.strip().splitlines()[-1]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def ladder_entry(checkout: Path, model: str, d: int, n: int) -> dict:
    return run_json([sys.executable, "-c", SOLVE, str(checkout / "src"), model, str(d), str(n), str(GAMMA_U_J2)])


def ladder_side(runs: list) -> dict:
    """The first run's fields, with the median of each measured quantity
    and every run's values; the first run as it is if it did not solve."""
    if "solve_s" not in runs[0]:
        return runs[0]
    timed = ("build_s", "setup_s", "call_s", "solve_s", "peak_rss_mb")
    return {**runs[0], **{key: statistics.median(r[key] for r in runs) for key in timed},
            "runs": [{key: r[key] for key in timed} for r in runs]}


def chain_entry(checkout: Path, kind: str, r: int, cutoff: int) -> dict:
    return run_json([sys.executable, "-c", CHAIN, str(checkout / "src"), kind, str(r), str(cutoff),
                     str(CHAIN_REPEATS)])


def workload_run(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=checkout)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    return {"correct": record["correct"], "failed": record["failed"], **metrics}


def summary(runs: list) -> dict:
    """Median and quartiles of every metric over the runs."""
    out = {"correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs)}
    for name in runs[0]:
        if name in ("correct", "failed"):
            continue
        q1, q2, q3 = statistics.quantiles([r[name] for r in runs], n=4)
        out[name] = {"median": statistics.median(r[name] for r in runs), "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, help="JSON output (default stdout)")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    ladder = []
    for model, d, n in LADDER:
        runs = {side: [] for side in sides}
        for repeat in range(LADDER_REPEATS):
            for side in list(sides) if repeat % 2 == 0 else list(reversed(sides)):
                if runs[side] and "solve_s" not in runs[side][0]:
                    continue  # cut or failed: not run again
                runs[side].append(ladder_entry(sides[side], model, d, n))
                print(json.dumps({"ladder": [model, d, n], side: runs[side][-1]}), file=sys.stderr)
        ladder.append({"model": model, "d": d, "N": n, "gamma_u_j2": GAMMA_U_J2,
                       **{side: ladder_side(r) for side, r in runs.items()}})

    chains = []
    for kind, r, cutoff in CHAIN_LADDER:
        row = {"kind": kind, "r": r, "cutoff": cutoff}
        for side, checkout in sides.items():
            row[side] = chain_entry(checkout, kind, r, cutoff)
            print(json.dumps({"chain": [kind, r, cutoff], side: row[side]}), file=sys.stderr)
        chains.append(row)

    workloads = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for seed in range(1, PAIRS + 1):
            order = list(sides) if seed % 2 else list(reversed(sides))
            for side in order:
                runs[side].append(workload_run(sides[side], workload, seed))
            print(json.dumps({"workload": workload, "seed": seed,
                              **{s: runs[s][-1]["rows_per_s"] for s in sides}}), file=sys.stderr)
        wins = sum(c["rows_per_s"] > p["rows_per_s"] for p, c in zip(runs["parent"], runs["change"]))
        workloads[workload] = {**{side: summary(r) for side, r in runs.items()},
                               "rows_per_s_change_wins": f"{wins}/{PAIRS}"}

    text = json.dumps({"ladder": ladder, "chains": chains, "workloads": workloads, "pairs": PAIRS,
                       "seconds": SECONDS, "timeout_s": TIMEOUT_S, "ladder_repeats": LADDER_REPEATS},
                      indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
