import math

import numpy as np
import pytest

from cobosons.cli import (
    SweepConfig,
    load_config_file,
    main,
    parse_grid,
    parse_range,
    parse_target,
    parse_targets_grouped,
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
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_grid("0:10")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_range("7:3")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(model="bogus")
    with pytest.raises(ValueError):
        SweepConfig(grid_points=1)
    with pytest.raises(ValueError):
        SweepConfig(tol=0.0)
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)


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

    monkeypatch.setattr(cli, "ground_state_vector", no_solve)
    monkeypatch.setattr(cli, "ground_space", no_solve)
    with pytest.raises(ValueError, match="effective model only"):
        run_cli(command, "--model", "full", "--d", "6", "--n", "2", "--J", "1",
                "--U", "1000", "--gamma-grid", "0:4:2", "--out", str(tmp_path / "x.csv"))


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


def test_jobs_do_not_change_output(tmp_path):
    args = ["fidelity-scan", "--model", "effective", "--d", "8", "--n", "2",
            "--J", "1", "--U", "1000", "--gamma-grid", "0:8:5",
            "--targets", "q:1,0"]
    out1 = tmp_path / "seq.csv"
    out2 = tmp_path / "par.csv"
    run_cli(*args, "--jobs", "1", "--out", str(out1))
    run_cli(*args, "--jobs", "2", "--out", str(out2))
    assert read(out1) == read(out2)


def test_verify_exits_zero(capsys):
    assert run_cli("verify") == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(l.startswith(("ok", "#")) for l in lines)
    assert lines[-1] == "# 0 failure(s)"
