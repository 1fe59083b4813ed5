"""Span tracing of the cobosons layers from outside the package.

``Tracer.install()`` wraps the public layer functions listed in ``LAYERS``
and rebinds every module-level name that refers to one of them, in the
defining module and wherever it was imported (``cobosons.cli`` binds
``build_effective_hamiltonian`` directly, ``cobosons.model`` calls
``pair_basis``, ...).  Each call records a span (name, start, end, parent,
op id) and the counters of that boundary.  Spans stay in memory until the
run writes them out; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = {
    "fock": ("pair_basis", "full_basis", "embed_pair_state", "project_to_pair_sector", "translate"),
    "model": (
        "build_full_hamiltonian",
        "build_effective_hamiltonian",
        "build_effective_from_bars",
        "build_relative_chain",
    ),
    "solve": (
        "ground_space",
        "ground_state_vector",
        "spectral_equivalence_check",
        "chain_bound_amplitudes",
        "analytic_two_fermion",
        "analytic_two_pair",
    ),
    "ansatz": ("build_c_sr", "build_q_sr", "build_block", "build_partition_state"),
    "metrics": (
        "fidelity",
        "single_pair_rdm",
        "single_pair_purity",
        "g2",
        "chi_closed",
        "chi_oracle",
        "ratio_lower_bound",
        "ladder_report",
        "energy_ledger",
        "ledger_energy",
    ),
}
# modules whose globals may hold a layer function
MODULES = ("cobosons", "cobosons.fock", "cobosons.model", "cobosons.solve",
           "cobosons.ansatz", "cobosons.metrics", "cobosons.cli")
ROOT = "cli"  # layer name of the per-op root span
METRIC_SPANS = {
    "purity_s": ("metrics.single_pair_purity", "metrics.single_pair_rdm"),
    "g2_s": ("metrics.g2",),
    "fidelity_s": ("metrics.fidelity",),
    "chi_oracle_s": ("metrics.chi_oracle",),
}


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # -1 for an op's root span
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> span duration minus the durations of its child spans."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.overhead = 0.0  # seconds spent in span bookkeeping
        self._stack = []
        self._op = -1
        self._saved = []  # (module, name, original)

    # -------------------------------------------------------- span records

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, start: float, end: float):
        span.start, span.end = start, end
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of op ``op_id``."""
        self._op = op_id
        span = self._open(f"{ROOT}.main")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, start, time.perf_counter())

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        count = _COUNTERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            span = tracer._open(name)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t2 = time.perf_counter()
                tracer._close(span, t1, t2)
                span.attrs["error"] = type(exc).__name__
                if count:
                    count(span, args, kwargs, None)
                tracer.overhead += (t1 - t0) + (time.perf_counter() - t2)
                raise
            t2 = time.perf_counter()
            tracer._close(span, t1, t2)
            if count:
                count(span, args, kwargs, result)
            tracer.overhead += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return traced

    def install(self):
        """Rebind every layer function to its traced wrapper."""
        modules = [importlib.import_module(m) for m in MODULES]
        replacement = {}
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"cobosons.{layer}")
            for name in names:
                fn = getattr(home, name)
                replacement[id(fn)] = (fn, self._wrap(layer, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, **s.attrs,
                }) + "\n")


# ----------------------------------------------------- boundary counters

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_solve(span, args, kwargs, result):
    from cobosons import solve  # DENSE_LIMIT read at run time

    op = _arg(args, kwargs, 0, "op")
    span.attrs["dim"] = op.dim
    span.attrs["path"] = "dense" if op.dim < solve.DENSE_LIMIT else "arpack"
    span.attrs["chain"] = type(op.basis).__name__ == "ChainBasis"


def _count_basis(span, args, kwargs, result):
    if result is not None:
        span.attrs["states"] = result.size


def _count_build(span, args, kwargs, result):
    if result is not None:
        span.attrs["nnz"] = int(result.to_csr().nnz)


_COUNTERS = {
    "ground_space": _count_solve,
    "pair_basis": _count_basis,
    "full_basis": _count_basis,
    **{name: _count_build for name in LAYERS["model"]},
}


# ------------------------------------------------------------ reduction

def layer_metrics(spans, ok_ops, points: int, passes: float, overhead: float) -> dict:
    """Per-layer metrics per pass of the workload's op list, from the spans
    of ``passes`` passes.  Builds per point count the top-level builds in
    the ops ``ok_ops`` that succeeded, which swept ``points`` gamma points."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    named_s = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        layer = s.layer
        calls[layer] += 1
        self_s[layer] += selfs[s.id]
        named_s[s.name] += selfs[s.id]
        parent_layer = by_id[s.parent].layer if s.parent >= 0 else None
        if layer in ("model", "ansatz") and parent_layer != layer and s.op in ok_ops:
            counts[f"{layer}.builds"] += 1
        counts["fock.states_enumerated"] += s.attrs.get("states", 0)
        counts["model.nnz"] += s.attrs.get("nnz", 0)
        if s.name == "solve.ground_space":
            counts[f"solve.{s.attrs['path']}_calls"] += 1
            counts["solve.failed"] += s.attrs.get("error") == "ConvergenceError"
            if s.attrs["chain"]:
                named_s["solve.chain"] += selfs[s.id]

    def per_pass(x):
        return x / passes

    def per_point(x):
        return x / points if points else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_pass(calls[layer])
        out[f"{layer}.self_s"] = per_pass(self_s[layer])
    out["fock.states_enumerated"] = per_pass(counts["fock.states_enumerated"])
    out["model.nnz"] = per_pass(counts["model.nnz"])
    out["model.builds_per_point"] = per_point(counts["model.builds"])
    out["solve.dense_calls"] = per_pass(counts["solve.dense_calls"])
    out["solve.arpack_calls"] = per_pass(counts["solve.arpack_calls"])
    out["solve.failed"] = per_pass(counts["solve.failed"])
    out["solve.chain_s"] = per_pass(named_s["solve.chain"])
    out["ansatz.builds_per_point"] = per_point(counts["ansatz.builds"])
    for metric, names in METRIC_SPANS.items():
        out[f"metrics.{metric}"] = per_pass(sum(named_s[n] for n in names))
    out["cli.self_s"] = per_pass(self_s[ROOT])
    out["cli.op_s"] = per_pass(sum(s.duration for s in spans if s.parent < 0))
    out["trace_overhead_s"] = per_pass(overhead)
    return out
