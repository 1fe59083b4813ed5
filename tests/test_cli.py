import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cobosons import solve
from cobosons.cli import (
    SweepConfig,
    load_config_file,
    main,
    parse_grid,
    parse_range,
    parse_target,
    parse_targets_grouped,
    run,
    sweep_config_from,
)


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_text(encoding="utf-8")


def data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    return header, rows


def test_parse_target_forms():
    assert parse_target("c2:0,0") == ("c2", 0, 0)
    assert parse_target("q:1,2") == ("q", 1, 2)
    assert parse_target("block:3") == ("block", 3)
    assert parse_target("partition:2+1+1") == ("partition", (2, 1, 1))
    with pytest.raises(ValueError):
        parse_target("bogus:1")


@pytest.mark.parametrize("spec", ["q:1", "c2:0", "block:x", "partition:", "q:1,2,3"])
def test_parse_target_names_a_malformed_target_and_the_syntax(spec):
    with pytest.raises(ValueError) as err:
        parse_target(spec)
    assert str(err.value) == f"bad target {spec!r}; targets are c2:s,r, q:s,r, block:M or partition:M1+M2+..."


def test_parse_targets_grouped():
    targets = parse_targets_grouped("q:1,0,partition:2+1,block:3")
    assert targets == (("q", 1, 0), ("partition", (2, 1)), ("block", 3))


def test_sweep_config_groups_targets():
    cfg = sweep_config_from({"targets": "q:1,0,c2:0,0,block:2"})
    assert cfg.targets == (("q", 1, 0), ("c2", 0, 0), ("block", 2))


def test_parse_grid_and_range():
    assert parse_grid("0:10:21") == (0.0, 10.0, 21)
    assert parse_range("3:7") == (3, 7)
    assert parse_range("5") == (5, 5)
    with pytest.raises(ValueError):
        parse_grid("0:10")
    with pytest.raises(ValueError):
        parse_range("7:3")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(model="bogus")
    with pytest.raises(ValueError):
        SweepConfig(grid_points=1)
    with pytest.raises(ValueError):
        SweepConfig(tol=0.0)


def test_sweep_config_rejects_negative_or_nonfinite_gamma_before_any_basis(tmp_path, monkeypatch):
    # sweeps build only H(0), so ModelParams never sees the grid's gamma;
    # a non-finite J or U, U <= 0 (gamma = x J^2 / U) and a non-finite
    # tolerance are refused before any basis too, and the solver refuses
    # the tolerance itself
    from cobosons import ModelParams, build_relative_chain, fock
    from cobosons.solve import GroundSolver

    chain = build_relative_chain("two_pair", ModelParams(j=1.0, u=2.0, gamma=3.0, d=10, n=2), cutoff=5)

    def never(d, n):
        raise AssertionError(f"enumerated a basis ({d}, {n}) despite the bad input")

    monkeypatch.setattr(fock, "_masks", never)
    for lo, hi in ((-8.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="gamma grid must be finite and >= 0"):
            SweepConfig(grid_min=lo, grid_max=hi)
    cfgfile = tmp_path / "neg.cfg"
    cfgfile.write_text("gamma-grid = -8:0:3\n", encoding="utf-8")
    for argv in (["fidelity-scan", "--gamma-grid=-8:0:3", "--targets", "block:2"],
                 ["purity-scan", "--config", str(cfgfile)]):
        with pytest.raises(ValueError, match="gamma grid must be finite and >= 0"):
            run_cli(*argv, "--d", "6", "--n", "2", "--out", str(tmp_path / "x.csv"))
    for j, u in ((math.inf, 1e3), (math.nan, 1e3), (-1.0, 1e3), (1.0, 0.0), (1.0, -5.0), (1.0, math.inf),
                 (1.0, math.nan)):
        with pytest.raises(ValueError, match="need finite J >= 0 and U > 0"):
            SweepConfig(j=j, u=u)
    assert SweepConfig(j=0.0).j == 0.0
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            SweepConfig(tol=tol)
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            GroundSolver(chain, tol_deg=tol)
    for argv in (["ground-state", "--model", "full", "--d", "4", "--n", "1", "--U", "0"],
                 ["fidelity-scan", "--model", "full", "--d", "4", "--n", "1", "--U", "0", "--targets", "block:1"],
                 ["ground-state", "--model", "effective", "--d", "16", "--n", "6", "--tol", "inf"],
                 ["fidelity-scan", "--d", "20", "--n", "8", "--targets", "block:8", "--tol", "inf"],
                 ["fidelity-scan", "--d", "6", "--n", "2", "--targets", "block:2", "--tol", "nan"]):
        with pytest.raises(ValueError, match="need finite J|tolerance must be finite"):
            run_cli(*argv, "--out", str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "# a comment\n"
        "model = effective\n"
        "d = 6\n"
        "n = 2\n"
        "J = 1\n"
        "U = 1000  # inline comment\n"
        "gamma-grid = 0:8:3\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli("purity-scan", "--config", str(cfgfile), "--out", str(out1))
    # flag overrides the config grid
    run_cli("purity-scan", "--config", str(cfgfile), "--gamma-grid", "0:8:5",
            "--out", str(out2))
    _, rows1 = data_rows(read(out1))
    _, rows2 = data_rows(read(out2))
    assert len(rows1) == 3 and len(rows2) == 5


def test_config_file_rejects_bad_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model effective\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_config_file_rejects_unknown_key_before_any_basis(tmp_path, monkeypatch):
    from cobosons import fock

    def never(d, n):
        raise AssertionError(f"enumerated a basis ({d}, {n}) despite the bad key")

    monkeypatch.setattr(fock, "_masks", never)
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text("dd = 12\nmodel = effective\nn = 2\n", encoding="utf-8")
    out = tmp_path / "gs.csv"
    with pytest.raises(ValueError, match="unknown config key 'dd'"):
        run_cli("ground-state", "--config", str(cfgfile), "--out", str(out))
    assert not out.exists()


def test_console_entry_reports_input_errors_in_one_line(tmp_path, capsys):
    # each case through the console entry ``run`` in this process, and the
    # first also as ``python -m cobosons.cli``
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text("dd = 12\nmodel = effective\nn = 2\n", encoding="utf-8")
    badfile = tmp_path / "bad.cfg"
    badfile.write_text("n = two\n", encoding="utf-8")
    scan = ["fidelity-scan", "--d", "6", "--n", "2", "--targets", "block:2", "--gamma-grid"]
    cases = [
        (["ground-state", "--config", str(cfgfile)], "unknown config key 'dd'"),
        ([*scan, "1:2"], "argument --gamma-grid: grid must be min:max:points"),
        ([*scan, "0:1:1"], "argument --gamma-grid: bad grid '0:1:1'; expected min:max:points"),
        (["purity-scan", "--gamma-grid", "a:b:3"], "argument --gamma-grid: bad grid 'a:b:3'; expected min:max:points"),
        (["chi", "--d", "5:2"], "argument --d: bad range '5:2'; expected lo:hi or one integer"),
        (["chi", "--d", "1:2:3"], "argument --d: bad range '1:2:3'; expected lo:hi or one integer"),
        (["chi", "--d", "x"], "argument --d: bad range 'x'; expected lo:hi or one integer"),
        (["ground-state", "--d", "x"], "argument --d: bad integer 'x'; expected one integer"),
        (["energy-ledger", "--config", str(badfile)], "argument --n: bad integer 'two'; expected one integer"),
        (["ground-state", "--model", "full", "--d", "4", "--n", "1", "--U", "0"], "need finite J >= 0 and U > 0"),
        (["fidelity-scan", "--d", "6", "--n", "2", "--targets", "q:1"], "argument --targets: bad target 'q:1'; targets are c2:s,r"),
        (["purity-scan", "--d", "6", "--n", "0", "--gamma-grid", "0:1:2"], "single-pair RDM needs N >= 1 pairs"),
        (["g2-scan", "--d", "6", "--n", "0", "--gamma-grid", "0:1:2"], "single-pair RDM needs N >= 1 pairs"),
        (["ground-state", "--gamma-u-j2", "-1"], "gamma*U/J^2 must be finite and >= 0, got -1"),
        (["ground-state", "--gamma-u-j2", "nan"], "gamma*U/J^2 must be finite and >= 0, got nan"),
        (["ground-state", "--gamma-u-j2", "inf"], "gamma*U/J^2 must be finite and >= 0, got inf"),
        (["ground-state", "--gamma-u-j2", "x"], "argument --gamma-u-j2: bad number 'x'; expected one number"),
        (["ground-state", "--model", "effective", "--d", "20", "--n", "8", "--J", "0"],
         "an operator that no certificate covers, of 125970 states, needs 125970^2 > 16777216 matrix entries"),
        (["ground-state", "--J", "x"], "argument --J: bad number 'x'; expected one number"),
    ]
    for key in ("J", "U", "tol"):
        numberfile = tmp_path / f"{key}.cfg"
        numberfile.write_text(f"{key} = x\n", encoding="utf-8")
        cases.append((["ground-state", "--config", str(numberfile)], f"argument --{key}: bad number 'x'; expected one number"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cobosons.cli", *cases[0][0]],
                          capture_output=True, text=True, env=env, timeout=120)
    outcomes = [(proc.returncode, proc.stderr)] + [(run(argv), capsys.readouterr().err) for argv, _ in cases]
    for (status, stderr), (argv, message) in zip(outcomes, [cases[0], *cases]):
        assert status == 2, argv
        assert "Traceback" not in stderr
        assert stderr.splitlines() == [stderr.strip()]
        assert stderr.startswith(f"cobosons: error: {message}"), stderr


def test_console_entry_reports_a_failed_solve_in_one_line(tmp_path, capsys, monkeypatch):
    # valid input whose solve fails: at --tol 1 the degeneracy window of
    # the effective d = 10, N = 4 model holds the 4 lowest levels of its
    # 16-state block, which real Lanczos (DENSE_LIMIT = 14 here, as at
    # d = 20, N = 8 by default) cannot widen to; exit status 1
    monkeypatch.setattr(solve, "DENSE_LIMIT", 14)
    out = tmp_path / "gs.csv"
    argv = ["ground-state", "--model", "effective", "--d", "10", "--n", "4", "--J", "1", "--U", "1000",
            "--tol", "1", "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err == "cobosons: error: degenerate window exceeds the computed spectrum\n", captured.err
    assert not out.exists()


OUT_OF_CAPACITY = ["fidelity-scan", "--model", "full", "--d", "8", "--n", "4", "--J", "1", "--U", "5",
                   "--targets", "partition:4"]


def test_a_sweep_out_of_capacity_fails_before_its_first_solve(tmp_path, capsys, monkeypatch):
    # full (8, 4) at U/J = 5: from x = 12.5 on, U <= 2 gamma, so the
    # spin-reflection certificate does not hold and the 4900-state operator
    # would be solved whole.  Every grid point is checked first, so the
    # sweep exits 2 with the capacity error before any eigensolver runs
    calls = Counter()
    for name in ("_dense", "_arpack", "_banded"):
        monkeypatch.setattr(solve, name, lambda *args, _name=name, **kwargs: calls.update([_name]))
    out = tmp_path / "scan.csv"
    assert run([*OUT_OF_CAPACITY, "--gamma-grid", "0:20:5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("cobosons: error: an operator that no certificate covers, of 4900 states, "
                                       "needs 4900^2 > 16777216 matrix entries\n")
    assert not calls and not out.exists()


def test_a_sweep_inside_capacity_writes_what_it_wrote_without_the_check(monkeypatch, tmp_path):
    # x = 0, 5, 10 stay inside U > 2 gamma: the checked sweep writes the
    # bytes of the former sweep, which solved each point as it came
    import cobosons.cli as cli

    def unchecked_sweep(cfg):
        solver = cli._solver(cfg)
        for x in cfg.grid.tolist():
            gamma = cfg.gamma(x)
            yield gamma, x, solver(gamma)

    run_cli(*OUT_OF_CAPACITY, "--gamma-grid", "0:10:3", "--out", str(tmp_path / "checked.csv"))
    monkeypatch.setattr(cli, "_sweep", unchecked_sweep)
    run_cli(*OUT_OF_CAPACITY, "--gamma-grid", "0:10:3", "--out", str(tmp_path / "unchecked.csv"))
    assert len(data_rows(read(tmp_path / "checked.csv"))[1]) == 3
    assert read(tmp_path / "checked.csv") == read(tmp_path / "unchecked.csv")


@pytest.fixture
def kept_solvers(monkeypatch):
    """Every ``GroundSolver`` the CLI builds, in order."""
    import cobosons.cli as cli

    solvers = []

    def kept_solver(*args, **kwargs):
        solvers.append(solve.GroundSolver(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(cli, "GroundSolver", kept_solver)
    return solvers


@pytest.mark.parametrize("model, d, n", [("effective", 12, 5), ("full", 6, 3)])
def test_ground_state_writes_the_point_the_sweep_solves(model, d, n, kept_solvers, tmp_path):
    # one solver route: ground-state at x prints exactly the energy and the
    # amplitudes that the solver of a sweep returns at x (effective (12, 5)
    # at x = 6 once differed in the last digit on 420 of 792 rows)
    common = ["--model", model, "--d", str(d), "--n", str(n), "--J", "1", "--U", "1000"]
    run_cli("fidelity-scan", *common, "--gamma-grid", "6:7:2", "--targets", "partition:" + "+".join(["1"] * n),
            "--out", str(tmp_path / "sweep.csv"))
    run_cli("ground-state", *common, "--gamma-u-j2", "6", "--out", str(tmp_path / "gs.csv"))
    gs = kept_solvers[0](SweepConfig(j=1.0, u=1000.0).gamma(6.0))
    text = read(tmp_path / "gs.csv")
    assert text.splitlines()[0] == f"# energy = {gs.energy:.15g}"
    _, rows = data_rows(text)
    amplitudes = gs.state.amplitudes
    assert [row[-2:] for row in rows] == [[f"{a.real:.15g}", f"{a.imag:.15g}"] for a in amplitudes]


def test_ground_state_uniform_at_compensation_point(tmp_path):
    out = tmp_path / "gs.csv"
    run_cli("ground-state", "--model", "effective", "--d", "6", "--n", "2",
            "--J", "1", "--U", "1000", "--gamma-u-j2", "4", "--out", str(out))
    text = read(out)
    header, rows = data_rows(text)
    assert header == ["mask", "re", "im"]
    assert len(rows) == math.comb(6, 2)
    weights = np.array([float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows])
    assert np.abs(weights - 1 / len(rows)).max() < 1e-10


def test_ground_state_anti_bunched_at_zero_gamma(tmp_path):
    out = tmp_path / "gs0.csv"
    run_cli("ground-state", "--model", "effective", "--d", "6", "--n", "2",
            "--J", "1", "--U", "1000", "--gamma-u-j2", "0", "--out", str(out))
    _, rows = data_rows(read(out))
    adjacent, separated = [], []
    for r in rows:
        mask = int(r[0], 16)
        sites = [k for k in range(6) if (mask >> k) & 1]
        gap = (sites[1] - sites[0]) % 6
        dist = min(gap, 6 - gap)
        (adjacent if dist == 1 else separated).append(float(r[1]) ** 2 + float(r[2]) ** 2)
    assert max(adjacent) < min(separated)


def test_ground_state_degeneracy_report(tmp_path):
    out = tmp_path / "deg.csv"
    run_cli("ground-state", "--model", "full", "--d", "5", "--n", "1",
            "--J", "0", "--U", "3", "--gamma-u-j2", "0", "--out", str(out))
    text = read(out)
    assert "# degeneracy = 5" in text
    header_line = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header_line == "mask_a,mask_b,re,im"


def test_even_n_full_ground_state_is_unique(tmp_path):
    # spin-reflection positivity: full d = 8, N = 4 at gamma U / J^2 = 20
    # has one ground state, solved on its K = 0 block; the eight levels of
    # the molecular band at K = 0..7 lie within 1e-6 of it, inside the
    # window of 4e-6 that the whole operator's |E0| = 4000 would give
    out = tmp_path / "gs.csv"
    run_cli("ground-state", "--model", "full", "--d", "8", "--n", "4", "--J", "1", "--U", "1000",
            "--gamma-u-j2", "20", "--out", str(out))
    assert read(out).splitlines()[1] == "# degeneracy = 1"


def test_summary_lines_never_interleave(tmp_path):
    out = tmp_path / "led.csv"
    run_cli("energy-ledger", "--n", "3", "--gamma-grid", "0:10:3", "--out", str(out))
    lines = read(out).splitlines()
    comment = [l.startswith("#") for l in lines]
    first_data = comment.index(False)
    assert all(comment[:first_data]) and not any(comment[first_data:])
    assert lines[first_data] == "gammaU_J2,M,energy_over_Jbar"


def test_energy_ledger_threshold_line(tmp_path):
    out = tmp_path / "led10.csv"
    run_cli("energy-ledger", "--n", "10", "--gamma-grid", "0:10:3", "--out", str(out))
    assert "threshold gammabar/Jbar = 20/9" in read(out)


def test_fidelity_scan_columns_and_values(tmp_path):
    out = tmp_path / "fid.csv"
    run_cli("fidelity-scan", "--model", "effective", "--d", "10", "--n", "3",
            "--J", "1", "--U", "1000", "--gamma-grid", "4:4.5:2",
            "--targets", "partition:1+1+1,partition:3", "--out", str(out))
    header, rows = data_rows(read(out))
    assert header == ["gamma", "gammaU_J2", "partition_1_1_1", "partition_3"]
    # at gamma*U/J^2 = 4 the all-singleton state is the exact ground state
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)


def test_c2_targets_off_site_use_the_full_basis_state(tmp_path):
    from cobosons import ModelParams, build_c_sr, build_full_hamiltonian, fidelity, ground_space

    out = tmp_path / "c2.csv"
    run_cli("fidelity-scan", "--model", "full", "--d", "6", "--n", "2", "--J", "1",
            "--U", "4", "--gamma-grid", "0:4:2", "--targets", "c2:0,0,c2:1,0",
            "--out", str(out))
    header, rows = data_rows(read(out))
    assert header == ["gamma", "gammaU_J2", "c2_0_0", "c2_1_0"]
    for row in rows:
        gs = ground_space(build_full_hamiltonian(
            ModelParams(j=1.0, u=4.0, gamma=float(row[0]), d=6, n=2)))
        want = fidelity(build_c_sr(6, 1, 0, 2), gs)
        assert want > 1e-3
        assert float(row[3]) == pytest.approx(want, rel=1e-12)


def test_c2_half_ring_target_agrees_between_models(tmp_path):
    # on the effective model c2:d/2,r is the unnormalized doubly-occupied
    # part, so its column is the overlap with the full c2 state
    columns = []
    for model in ("effective", "full"):
        out = tmp_path / f"{model}.csv"
        run_cli("fidelity-scan", "--model", model, "--d", "6", "--n", "2", "--J", "1",
                "--U", "1000", "--gamma-grid", "0:4:2", "--targets", "c2:3,0",
                "--out", str(out))
        header, rows = data_rows(read(out))
        assert header == ["gamma", "gammaU_J2", "c2_3_0"]
        columns.append(np.array([float(r[2]) for r in rows]))
    assert columns[0] == pytest.approx([0.08, 0.04], abs=1e-12)
    assert np.abs(columns[0] - columns[1]).max() < 1e-6


def test_c2_target_without_pair_component_rejected_on_effective_model(tmp_path):
    with pytest.raises(ValueError, match="doubly-occupied"):
        run_cli("fidelity-scan", "--model", "effective", "--d", "6", "--n", "2",
                "--J", "1", "--U", "1000", "--gamma-grid", "0:4:2",
                "--targets", "c2:1,0", "--out", str(tmp_path / "c2.csv"))


@pytest.mark.parametrize("command", ["purity-scan", "g2-scan"])
def test_correlation_scans_reject_full_model(command, monkeypatch, tmp_path):
    import cobosons.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --model full")

    monkeypatch.setattr(cli, "GroundSolver", no_solve)
    monkeypatch.setattr(cli, "ground_space", no_solve)
    with pytest.raises(ValueError, match="effective model only"):
        run_cli(command, "--model", "full", "--d", "6", "--n", "2", "--J", "1",
                "--U", "1000", "--gamma-grid", "0:4:2", "--out", str(tmp_path / "x.csv"))


@pytest.mark.parametrize("command", ["purity-scan", "g2-scan"])
def test_correlation_scans_reject_zero_pairs_before_any_basis(command, monkeypatch, tmp_path):
    from cobosons import fock

    def never(d, n):
        raise AssertionError(f"enumerated a basis ({d}, {n}) before rejecting --n 0")

    monkeypatch.setattr(fock, "_masks", never)
    with pytest.raises(ValueError, match=f"single-pair RDM needs N >= 1 pairs, got --n 0 for {command}"):
        run_cli(command, "--d", "6", "--n", "0", "--gamma-grid", "0:4:2", "--out", str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


SWEEPS = [  # (command, model, targets, target builds)
    ("fidelity-scan", "effective", "q:1,0,partition:1+1,block:2",
     ("build_q_sr", "build_partition_state", "build_block")),
    ("fidelity-scan", "full", "q:1,0,c2:0,0,partition:1+1",
     ("build_q_sr", "build_c_sr", "build_partition_state")),
    ("purity-scan", "effective", None, ("build_block",)),  # the plateau column
    ("g2-scan", "effective", None, ()),
]


@pytest.mark.parametrize("command, model, targets, builds", SWEEPS)
def test_sweep_builds_once_per_sweep(command, model, targets, builds, monkeypatch, tmp_path):
    # a five-point grid: the Hamiltonian, the operator's certificate, the
    # orbit walk and every target are built once per sweep
    import cobosons.cli as cli
    from cobosons import fock, solve

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("build_effective_hamiltonian", "build_full_hamiltonian", "build_q_sr",
                 "build_c_sr", "build_partition_state", "build_block"):
        count(cli, name)
    count(solve, "_certify")
    count(fock, "symmetric_projector")
    argv = [command, "--model", model, "--d", "6", "--n", "2", "--J", "1", "--U", "1000",
            "--gamma-grid", "0:8:5", "--out", str(tmp_path / "sweep.csv")]
    run_cli(*argv, *(["--targets", targets] if targets else []))
    assert len(data_rows(read(tmp_path / "sweep.csv"))[1]) == 5 * (3 if command == "g2-scan" else 1)
    want = Counter([f"build_{model}_hamiltonian", "_certify", "symmetric_projector", *builds])
    assert calls == want


@pytest.mark.parametrize("model, n, path", [("effective", 3, "sector"), ("full", 3, "sector"),
                                            ("full", 2, "sector")])
def test_second_sweep_reuses_the_sector_tables_but_checks_its_operator(model, n, path, kept_solvers, monkeypatch,
                                                                       tmp_path):
    # the orbit walk, the hop and its projected block belong to the
    # shared basis and are built once while it is shared; the checks of
    # the operator's own parts (D and t) run in every sweep and the
    # residual at every point, and neither sweep assembles the whole H.
    # Odd N is Perron-certified, even N by spin-reflection positivity
    from cobosons import fock, model as model_module, solve

    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((solve, "_certify"), (model_module.SparseOperator, "apply"),
                        (model_module.SparseOperator, "to_csr"), (fock, "_project"),
                        (fock, "symmetric_projector"), (fock, "_hop"), (fock, "_masks")):
        count(owner, name)
    argv = ["fidelity-scan", "--model", model, "--d", "6", "--n", str(n), "--J", "1", "--U", "1000",
            "--gamma-grid", "0:8:3", "--targets", "partition:" + "+".join(["1"] * n)]
    outputs = []
    for run in range(2):
        calls.clear()
        run_cli(*argv, "--out", str(tmp_path / f"run{run}.csv"))
        outputs.append(read(tmp_path / f"run{run}.csv"))
        assert kept_solvers[-1].path == path and len(kept_solvers[-1].dims) == 1
        assert (calls["_certify"], calls["apply"], calls["to_csr"]) == (1, 3, 0), run
        built = {name: calls[name] for name in ("_project", "symmetric_projector", "_hop", "_masks")}
        if run:
            assert built == dict.fromkeys(built, 0)
        else:
            # a full sweep also enumerates the pair basis of its target
            assert built == {"_project": 1, "symmetric_projector": 1,
                             "_hop": 1 if model == "effective" else 2, "_masks": 1 if model == "effective" else 3}
    assert outputs[0] == outputs[1]


def test_g2_scan_checkpoint(tmp_path):
    out = tmp_path / "g2.csv"
    run_cli("g2-scan", "--d", "10", "--n", "4", "--J", "1", "--U", "1000",
            "--gamma-grid", "4:8:2", "--out", str(out))
    header, rows = data_rows(read(out))
    assert header == ["gamma", "gammaU_J2", "separation", "g2"]
    at4 = [float(r[3]) for r in rows if float(r[1]) == 4.0]
    assert len(at4) == 5
    assert np.abs(np.array(at4) - 5 / 6).max() < 1e-9


def test_purity_scan_minimum_at_compensation(tmp_path):
    out = tmp_path / "pur.csv"
    run_cli("purity-scan", "--d", "10", "--n", "2", "--J", "1", "--U", "1000",
            "--gamma-grid", "2:8:7", "--out", str(out))
    header, rows = data_rows(read(out))
    xs = [float(r[1]) for r in rows]
    vals = [float(r[2]) for r in rows]
    assert vals[xs.index(4.0)] == pytest.approx(1 - 0.8111111111111111, abs=1e-9)
    assert min(vals) == vals[xs.index(4.0)]


def test_chi_table(tmp_path):
    out = tmp_path / "chi.csv"
    run_cli("chi", "--d", "4:6", "--n", "1:3", "--m", "1:2", "--out", str(out))
    header, rows = data_rows(read(out))
    assert header[:5] == ["d", "N", "M", "chi_closed", "chi_oracle"]
    for r in rows:
        assert r[3] == r[4]  # closed form equals the oracle


def test_chi_table_leaves_the_oracle_empty_beyond_its_capacity(tmp_path):
    # d = 24: the oracle reaches N = 8 (the step to N = 9 has more than
    # 2^24 candidates) and d = 25 is beyond its site cap
    out = tmp_path / "chi.csv"
    run_cli("chi", "--d", "24:25", "--n", "7:9", "--out", str(out))
    _, rows = data_rows(read(out))
    assert [(r[0], r[1], r[4] == r[3], r[4] == "") for r in rows] == [
        ("24", "7", True, False), ("24", "8", True, False), ("24", "9", False, True),
        ("25", "7", False, True), ("25", "8", False, True), ("25", "9", False, True)]


def test_verify_exits_zero(capsys):
    # the checkpoints verify prints are part of the output contract
    assert run_cli("verify") == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok    chi closed == oracle (d <= 10, M <= 3)",
        "ok    two-fermion chain energy",
        "ok    two-pair chain energy",
        "ok    ladder alpha_N^2 = (d-N+1)/d",
        "ok    separation expansion of c^dag^2 |0>",
        "ok    uniform-state purity checkpoints",
        "ok    block-state purity piecewise values",
        "ok    uniform-state g2 checkpoint",
        "ok    ledger threshold N = 3",
        "ok    effective-model fidelity at gamma*U/J^2 = 4",
        "# 0 failure(s)",
    ]


def test_chi_m_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "chi.cfg"
    cfgfile.write_text("m = 1:3\n", encoding="utf-8")
    out = tmp_path / "chi.csv"
    run_cli("chi", "--config", str(cfgfile), "--d", "4", "--n", "1", "--m", "2", "--out", str(out))
    _, rows = data_rows(read(out))
    assert [r[2] for r in rows] == ["2"]
    run_cli("chi", "--config", str(cfgfile), "--d", "4", "--n", "1", "--out", str(out))
    _, rows = data_rows(read(out))
    assert [r[2] for r in rows] == ["1", "2", "3"]


def test_successive_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # main keeps one parser per process: a flag of one call must not leak
    # into the next (--gamma-u-j2, --tol, --m and --model are dropped
    # between calls), and each call prints what the same call prints alone
    calls = [
        ["ground-state", "--model", "full", "--d", "4", "--n", "1", "--J", "1", "--U", "100",
         "--gamma-u-j2", "6", "--tol", "1e-6"],
        ["ground-state", "--d", "5", "--n", "2", "--J", "1", "--U", "1000"],
        ["chi", "--d", "4:5", "--n", "1:2", "--m", "1:2"],
        ["chi", "--d", "4", "--n", "1"],
        ["energy-ledger", "--n", "3", "--gamma-grid", "0:8:3"],
        ["fidelity-scan", "--d", "6", "--n", "2", "--gamma-grid", "0:8:3", "--targets", "q:1,0"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = [subprocess.Popen([sys.executable, "-m", "cobosons.cli", *argv], stdout=subprocess.PIPE,
                              text=True, env=env) for argv in calls]
    for argv, proc in zip(calls, fresh):
        assert run_cli(*argv) == 0
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, argv
        assert capsys.readouterr().out == out, argv


FLAGS = {  # the flags of each subcommand: the options it reads
    "ground-state": "--config --model --d --n --J --U --tol --out --gamma-u-j2",
    "fidelity-scan": "--config --model --d --n --J --U --gamma-grid --targets --tol --out",
    "purity-scan": "--config --model --d --n --J --U --gamma-grid --tol --out",
    "g2-scan": "--config --model --d --n --J --U --gamma-grid --tol --out",
    "energy-ledger": "--config --n --gamma-grid --out",
    "chi": "--config --d --n --m --out",
    "verify": "",
}
REFUSED = {  # flags each subcommand once accepted and ignored
    "ground-state": "--gamma-grid --targets",
    "purity-scan": "--targets",
    "g2-scan": "--targets",
    "energy-ledger": "--model --d --J --U --targets --tol",
    "chi": "--model --J --U --gamma-grid --targets --tol",
}
FLAG_VALUES = {"--model": "effective", "--d": "6", "--n": "2", "--J": "1", "--U": "1000",
               "--gamma-grid": "0:1:2", "--targets": "block:2", "--tol": "1e-9"}


def test_each_subcommand_has_exactly_the_flags_it_reads():
    from cobosons.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    got = {name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
           for name, p in commands.items()}
    assert got == {name: set(flags.split()) for name, flags in FLAGS.items()}
    assert list(commands) == list(FLAGS)


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REFUSED.items() for f in flags.split()])
def test_a_flag_the_subcommand_does_not_read_is_refused(command, flag, capsys):
    assert flag not in FLAGS[command].split()
    with pytest.raises(SystemExit) as exc:
        run([command, "--n", "2", flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"cobosons: error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}"


class _Read(Exception):
    """Stops a subcommand once it has read its options."""


@pytest.mark.parametrize("command, key, value", [
    ("ground-state", "model", "full"), ("ground-state", "d", "7"), ("ground-state", "n", "3"),
    ("ground-state", "J", "2.5"), ("ground-state", "U", "500"), ("purity-scan", "gamma-grid", "1:3:5"),
    ("fidelity-scan", "targets", "q:1,0,partition:1+1"), ("g2-scan", "out", "x.csv"),
    ("ground-state", "tol", "1e-7"), ("energy-ledger", "n", "5"), ("energy-ledger", "gamma-grid", "0:2:3"),
])
def test_a_config_key_reads_as_its_flag(command, key, value, tmp_path, monkeypatch):
    import cobosons.cli as cli

    read = []

    def stop(values):
        read.append(sweep_config_from(values))
        raise _Read

    monkeypatch.setattr(cli, "sweep_config_from", stop)
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{key} = {value}\n", encoding="utf-8")
    for argv in ([command, f"--{key}", value], [command, "--config", str(cfgfile)]):
        with pytest.raises(_Read):
            main(argv)
    assert read[0] == read[1] != SweepConfig()


@pytest.mark.parametrize("key, value", [("d", "4:5"), ("n", "1:2"), ("m", "2:3")])
def test_a_chi_config_key_reads_as_its_flag(key, value, tmp_path, monkeypatch):
    import cobosons.cli as cli

    ranges = []
    monkeypatch.setattr(cli, "parse_range", lambda text: ranges.append(parse_range(text)) or ranges[-1])
    cfgfile = tmp_path / "chi.cfg"
    cfgfile.write_text(f"{key} = {value}\nmodel = full\ntargets = block:2\n", encoding="utf-8")
    small = {"d": "5", "n": "1", "m": "1"}
    rest = [arg for other, v in small.items() if other != key for arg in (f"--{other}", v)]
    for argv in (["chi", f"--{key}", value], ["chi", "--config", str(cfgfile)]):
        main([*argv, *rest, "--out", str(tmp_path / "chi.csv")])
    assert ranges[:3] == ranges[3:]
    assert parse_range(value) in ranges[:3]
