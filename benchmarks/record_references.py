#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks ops against.

    python3 benchmarks/record_references.py [WORKLOAD ...]

Runs every op a seed can draw for each workload (default: all) once and
writes ``benchmarks/references/<workload>.json``.  An op that raises is
stored with ``rows: null`` and the comment and header lines of a sibling
op (same arguments, other gamma window); the benchmark then checks only
its grid, finiteness and physical ranges.  ``verify`` is checked by rule
and has no reference.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
from run import import_cli


def _sibling_key(op) -> tuple:
    argv = list(op.argv)
    i = argv.index("--gamma-grid")
    return tuple(argv[:i] + argv[i + 2:])


def record(main, workload: str) -> dict:
    entries, failed = {}, {}
    preambles = {}
    for op in workloads.all_ops(workload):
        if op.kind == "verify":
            continue
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                main(list(op.argv))
        except Exception as exc:
            failed[op] = f"{type(exc).__name__}: {exc}"
            print(f"raised  {op.key}: {failed[op]}", file=sys.stderr)
            continue
        lines = buf.getvalue().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        entries[op.key] = {"comments": comments, "header": body[0], "rows": body[1:]}
        if op.points:
            preambles[_sibling_key(op)] = (comments, body[0])
        print(f"ok      {op.key}", file=sys.stderr)
    for op, error in failed.items():
        comments, header = preambles[_sibling_key(op)]
        entries[op.key] = {"comments": comments, "header": header, "rows": None, "error": error}
    return {"workload": workload, "ops": entries}


def main(argv) -> int:
    cli = import_cli()
    names = argv or sorted(workloads.WORKLOADS)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        data = record(cli.main, workload)
        with open(checks.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
