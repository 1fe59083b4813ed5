"""Unit tests for the benchmark's own logic (not part of the Tier-1 suite).

    python3 -m pytest benchmarks -q
"""

import math
import random
import sys
import types

import pytest

import checks
import stats
import workloads
from tracing import Span, Tracer, layer_metrics, self_times


# ------------------------------------------------------------- self time

def _tree():
    # op 0: root [0, 10] > model [1, 4] > fock [2, 3]
    #                    > solve [5, 9] > solve [6, 8]
    return [
        Span(0, "cli.main", 0.0, 10.0, -1, 0),
        Span(1, "model.build_effective_hamiltonian", 1.0, 4.0, 0, 0),
        Span(2, "fock.pair_basis", 2.0, 3.0, 1, 0, {"states": 5}),
        Span(3, "solve.ground_state_vector", 5.0, 9.0, 0, 0),
        Span(4, "solve.ground_space", 6.0, 8.0, 3, 0,
             {"path": "arpack", "chain": False, "error": "ConvergenceError"}),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(_tree())
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0}
    assert sum(selfs.values()) == 10.0


def test_layer_metrics_partition_the_op_time():
    out = layer_metrics(_tree(), ok_ops=set(), points=0, passes=2, overhead=0.5)
    layers = sum(out[f"{name}.self_s"] for name in ("fock", "model", "solve", "ansatz", "metrics"))
    assert math.isclose(layers + out["cli.self_s"], out["cli.op_s"])
    assert out["cli.op_s"] == 5.0  # per pass
    assert out["solve.calls"] == 1.0
    assert out["solve.arpack_calls"] == 0.5
    assert out["solve.failed"] == 0.5
    assert out["fock.states_enumerated"] == 2.5
    assert out["model.builds_per_point"] == 0.0
    assert out["trace_overhead_s"] == 0.25


def test_builds_per_point_counts_top_level_builds_of_good_ops():
    spans = _tree() + [
        Span(5, "model.build_effective_from_bars", 1.5, 1.8, 1, 0),  # nested: not a build
        Span(6, "cli.main", 10.0, 11.0, -1, 1),
        Span(7, "model.build_effective_hamiltonian", 10.1, 10.2, 6, 1),
    ]
    out = layer_metrics(spans, ok_ops={0}, points=1, passes=1, overhead=0.0)
    assert out["model.builds_per_point"] == 1.0


def test_install_rebinds_every_import_site_and_uninstall_restores():
    fake = {}
    for name in ("cobosons", "cobosons.fock", "cobosons.model", "cobosons.solve",
                 "cobosons.ansatz", "cobosons.metrics", "cobosons.cli"):
        fake[name] = types.ModuleType(name)

    def pair_basis(d, n):
        return types.SimpleNamespace(size=d * n)

    def build_effective_hamiltonian(d):
        fake["cobosons.model"].pair_basis(d, 2)
        return types.SimpleNamespace(to_csr=lambda: types.SimpleNamespace(nnz=4))

    fake["cobosons.fock"].pair_basis = pair_basis
    fake["cobosons.model"].pair_basis = pair_basis
    fake["cobosons.model"].build_effective_hamiltonian = build_effective_hamiltonian
    fake["cobosons.cli"].build_effective_hamiltonian = build_effective_hamiltonian
    import tracing

    saved_layers = tracing.LAYERS
    tracing.LAYERS = {"fock": ("pair_basis",), "model": ("build_effective_hamiltonian",)}
    saved_modules = {k: sys.modules.get(k) for k in fake}
    sys.modules.update(fake)
    try:
        tracer = Tracer()
        tracer.install()
        assert fake["cobosons.cli"].build_effective_hamiltonian is not build_effective_hamiltonian
        tracer.run_op(0, fake["cobosons.cli"].build_effective_hamiltonian, 3)
        tracer.uninstall()
    finally:
        tracing.LAYERS = saved_layers
        for k, v in saved_modules.items():
            if v is None:
                sys.modules.pop(k)
            else:
                sys.modules[k] = v
    assert [s.name for s in tracer.spans] == [
        "cli.main", "model.build_effective_hamiltonian", "fock.pair_basis"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[1].attrs["nnz"] == 4
    assert tracer.spans[2].attrs["states"] == 6
    assert fake["cobosons.cli"].build_effective_hamiltonian is build_effective_hamiltonian
    assert fake["cobosons.model"].pair_basis is pair_basis


# ---------------------------------------------------- percentile rule

def test_percentile_interpolates_like_numpy_linear():
    data = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(data, 0) == 1.0
    assert stats.percentile(data, 50) == 3.0
    assert stats.percentile(data, 90) == pytest.approx(4.6)
    assert stats.percentile(data, 100) == 5.0
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(92, 90) == 10
    assert stats.samples_beyond(91, 90) == 9
    assert stats.tail_percentile(91) is None
    assert stats.tail_percentile(92) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    assert stats.tail_percentile(0) is None


# ----------------------------------------------------- CSV comparator

REF = {
    "comments": ["# model = effective, d = 4, N = 2, J = 1, U = 1000"],
    "header": "gamma,gammaU_J2,partition_2",
    "rows": ["0.001,1,0.25", "0.002,2,0.5"],
}
TEXT = "\n".join(REF["comments"] + [REF["header"]] + REF["rows"]) + "\n"


def test_comparator_accepts_identical_and_tiny_drift():
    assert checks.compare_csv(TEXT, REF) == ""
    assert checks.compare_csv(TEXT.replace("0.25", repr(0.25 + 1e-12)), REF) == ""


def test_comparator_rejects_drift_above_tolerance():
    assert checks.compare_csv(TEXT.replace("0.25", repr(0.25 + 1e-6)), REF)


def test_comparator_rejects_changed_header_comment_or_row_count():
    assert checks.compare_csv(TEXT.replace("partition_2", "partition_1_1"), REF)
    assert checks.compare_csv(TEXT.replace("J = 1,", "J = 2,"), REF)
    assert checks.compare_csv(TEXT.replace("0.002,2,0.5\n", ""), REF)


def test_failed_at_seed_windows_get_range_checks():
    ref = dict(REF, rows=None)
    grid_text = "--gamma-grid 1:2:2"
    argv = ["fidelity-scan", "--d", "4", "--n", "2"] + grid_text.split()
    assert checks.check_op(argv, TEXT, 0, ref) == ""
    assert checks.check_op(argv, TEXT.replace("0.5\n", "1.5\n"), 0, ref)
    assert checks.check_op(argv, TEXT.replace("0.5\n", "nan\n"), 0, ref)
    assert checks.check_op(argv, TEXT.replace(",2,0.5", ",3,0.5"), 0, ref)


def test_verify_passes_only_on_exit_zero_and_all_ok():
    good = "ok    a\nok    b\n# 0 failure(s)\n"
    assert checks.check_verify(good, 0) == ""
    assert checks.check_verify(good, 1)
    assert checks.check_verify("ok    a\nFAIL  b: x\n# 1 failure(s)\n", 0)
    assert checks.result_rows(good, "verify") == 2


# ------------------------------------------------------------ workloads

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_every_drawn_op_has_a_reference(name):
    a = workloads.pass_ops(name, random.Random(7))
    assert a == workloads.pass_ops(name, random.Random(7))
    refs = checks.load_references(name)
    drawable = {op.key for op in workloads.all_ops(name)}
    for op in workloads.pass_ops(name, random.Random(3)):
        assert op.key in drawable
        assert op.kind == "verify" or op.key in refs


def test_group_medians_damp_one_burst_per_group():
    import run

    records = [{"group": "a", "rows": 4, "wall_s": w, "cpu_s": 2 * w} for w in (1.0, 1.1, 9.0)]
    records += [{"group": "b", "rows": 0, "wall_s": 0.5, "cpu_s": 0.5}]
    medians = run.group_medians(records)
    assert medians == [{"rows": 4, "wall_s": 1.1, "cpu_s": 2.2}, {"rows": 0, "wall_s": 0.5, "cpu_s": 0.5}]
