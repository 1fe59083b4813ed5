"""Output checks for benchmark ops.

A CSV op is checked against the reference recorded for it: comment and
header lines must match exactly and every numeric field must lie within
``ABS_TOL`` of the reference.  Ops whose reference run failed have no
reference rows; their output is checked only for the requested grid,
finite values and physical ranges.  ``verify`` passes when it exits 0 and
every check line reads ``ok``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ABS_TOL = 1e-9
UNIT_SLACK = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _split(text: str):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    if not rest:
        raise ValueError("no header line")
    return comments, rest[0], rest[1:]


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def compare_csv(text: str, reference: dict) -> str:
    """'' when ``text`` matches the recorded reference, else the reason."""
    try:
        comments, header, rows = _split(text)
    except ValueError as exc:
        return str(exc)
    if comments != reference["comments"] or header != reference["header"]:
        return "comment or header lines differ"
    if reference["rows"] is None:
        return ""
    if len(rows) != len(reference["rows"]):
        return f"{len(rows)} rows, reference has {len(reference['rows'])}"
    for i, (row, ref_row) in enumerate(zip(rows, reference["rows"])):
        fields, ref_fields = row.split(","), ref_row.split(",")
        if len(fields) != len(ref_fields):
            return f"row {i}: {len(fields)} fields, reference has {len(ref_fields)}"
        for field, ref_field in zip(fields, ref_fields):
            want = _number(ref_field)
            if want is None:
                if field != ref_field:
                    return f"row {i}: {field!r} != {ref_field!r}"
                continue
            got = _number(field)
            if got is None or not abs(got - want) <= ABS_TOL:
                return f"row {i}: {field} differs from {ref_field} by more than {ABS_TOL:g}"
    return ""


def _range_problem(column: str, value: float) -> str:
    if not math.isfinite(value):
        return f"{column} = {value} is not finite"
    if column in ("gamma", "gammaU_J2", "separation"):
        return ""
    if column == "g2":
        return "" if value >= 0.0 else f"g2 = {value} < 0"
    # fidelities, 1 - P1 and its checkpoints
    if 0.0 <= value <= 1.0 + UNIT_SLACK:
        return ""
    return f"{column} = {value} outside [0, 1]"


def check_ranges(text: str, grid: list, rows_per_point: int) -> str:
    """Checks for an op with no reference rows: the rows cover the
    requested grid and every value is finite and physical."""
    _, header, rows = _split(text)
    columns = header.split(",")
    if len(rows) != len(grid) * rows_per_point:
        return f"{len(rows)} rows for {len(grid)} grid points"
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != len(columns):
            return f"row {i}: {len(fields)} fields for {len(columns)} columns"
        values = [_number(f) for f in fields]
        if None in values:
            return f"row {i}: non-numeric field"
        point = grid[i // rows_per_point]
        if abs(values[columns.index("gammaU_J2")] - point) > ABS_TOL:
            return f"row {i}: gammaU_J2 {values[columns.index('gammaU_J2')]} != {point}"
        for column, value in zip(columns, values):
            problem = _range_problem(column, value)
            if problem:
                return f"row {i}: {problem}"
    return ""


def check_verify(text: str, code) -> str:
    if code != 0:
        return f"verify exited {code}"
    checks = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not checks:
        return "verify printed no checks"
    bad = [ln for ln in checks if not ln.startswith("ok")]
    return f"failed check: {bad[0]}" if bad else ""


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def check_op(argv, text: str, code, reference) -> str:
    """'' when the output of ``cobosons.cli.main(argv)`` is correct."""
    if argv[0] == "verify":
        return check_verify(text, code)
    if code != 0:
        return f"exited {code}"
    if reference is None:
        return "no reference recorded for this op"
    problem = compare_csv(text, reference)
    if problem or reference["rows"] is not None:
        return problem
    lo, hi, points = _flag(argv, "--gamma-grid").split(":")
    lo, hi, points = float(lo), float(hi), int(points)
    grid = [lo + i * (hi - lo) / (points - 1) for i in range(points)]
    per_point = int(_flag(argv, "--d")) // 2 if argv[0] == "g2-scan" else 1
    return check_ranges(text, grid, per_point)


def result_rows(text: str, kind: str) -> int:
    """Rows an op produced: CSV data rows, or one per ``verify`` check."""
    if kind == "verify":
        return sum(1 for ln in text.splitlines() if ln.startswith("ok"))
    return len(_split(text)[2])
