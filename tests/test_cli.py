"""Flag and config-file parsing, dispatch, summary lines, exit codes."""
import json
import math
import tracemalloc

import numpy as np
import pytest

from equiweyl import cli, lab, statphase
from equiweyl.errors import ConfigError, ResourceLimitError


def test_parse_grid_geometric():
    grid = lab.parse_grid("20:400:12")
    assert len(grid) == 12
    assert grid[0] == pytest.approx(20.0)
    assert grid[-1] == pytest.approx(400.0)
    ratios = np.diff(np.log(grid))
    assert np.ptp(ratios) <= 1e-12


def test_parse_grid_explicit_list():
    assert lab.parse_grid("1,2.5,7") == [1.0, 2.5, 7.0]


@pytest.mark.parametrize("bad", ["1:2", "0:10:5", "5:2:3", "1:10:1", "2:4:x"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ValueError):
        lab.parse_grid(bad)


def test_parse_plist_and_pair():
    assert lab.parse_plist("2,4,inf") == [2.0, 4.0, math.inf]
    assert lab.parse_pair("0.25,0.35") == [0.25, 0.35]
    with pytest.raises(ValueError):
        lab.parse_pair("1,2,3")


def test_parse_config_flags():
    cfg = cli.parse_config(
        ["counting", "--manifold", "sphere", "--m", "0", "--lambda", "1e6"])
    assert cfg.experiment == "counting"
    assert cfg.params["m"] == 0
    assert cfg.params["lambda_top"] == 1e6
    assert cfg.out_dir is None


def test_parse_config_fills_defaults():
    cfg = cli.parse_config(["critscan"])
    assert cfg.params["theta"] == pytest.approx(1.2)
    cfg = cli.parse_config(["statphase", "--mu-grid", "20:400:12"])
    assert cfg.params["preset"] == "gaussian"
    assert len(cfg.params["mu_grid"]) == 12


def test_seed_plumbed_through():
    assert cli.parse_config(["kuznecov", "--seed", "7"]).params["seed"] == 7


def test_config_file_route(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda": 3000, "points": 5}))
    cfg = cli.parse_config(["kuznecov", "--config", str(path)])
    assert cfg.experiment == "kuznecov"
    assert cfg.params["lambda_top"] == 3000
    assert cfg.params["points"] == 5


def test_config_file_lists_every_unknown_key(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"bogus": 1, "nope": 2, "theta": 0.5}))
    with pytest.raises(ConfigError) as err:
        cli.parse_config(["kuznecov", "--config", str(path)])
    assert all(key in str(err.value) for key in ("bogus", "nope", "theta"))


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"theta": 0.7}))
    cfg = cli.parse_config(["critscan", "--config", str(path)])
    assert cfg.params["theta"] == 0.7
    cfg = cli.parse_config(["critscan", "--config", str(path), "--theta", "1.0"])
    assert cfg.params["theta"] == 1.0


def test_missing_config_file():
    with pytest.raises(ConfigError):
        cli.parse_config(["critscan", "--config", "/no/such/file.json"])


def test_validation_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        cli.parse_config(["weyl", "--lambda-min", "-1", "--theta", "9"])
    msg = str(err.value)
    assert "lambda_min" in msg and "theta" in msg


def test_validation_of_file_values(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"manifold": "sphere", "m": 2.5}))
    with pytest.raises(ConfigError) as err:
        cli.parse_config(["counting", "--config", str(path)])
    assert "m must be an integer" in str(err.value)


@pytest.mark.parametrize("keys, named", [
    ({"out_dir": 5}, "out_dir"),
])
def test_bad_run_keys_exit_2_before_running(tmp_path, monkeypatch, capsys, keys, named):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(keys))
    assert cli.main(["critscan", "--config", str(path)]) == 2
    assert f"config error: {named} must be" in capsys.readouterr().err


def test_critscan_on_the_axis_exits_2(capsys):
    """theta = 0 pairs the pole with itself, where the phase vanishes."""
    assert cli.main(["critscan", "--theta", "0"]) == 2
    assert "vanishes identically" in capsys.readouterr().err


def test_threads_is_an_unknown_key_and_flag(tmp_path, monkeypatch, capsys):
    # the suite runs serially: neither the file key nor the flag exists
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    monkeypatch.setattr(lab, "run_suite", lambda *args, **kw: pytest.fail("suite ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"threads": 2}))
    assert cli.main(["critscan", "--config", str(path)]) == 2
    assert "config error: unknown key 'threads'" in capsys.readouterr().err
    assert cli.main(["suite", "--all", "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["weyl", "counting"])
def test_a_check_bound_is_no_flag_and_no_file_key(tmp_path, monkeypatch, capsys, command):
    # each bound is a constant of its experiment: no user passes a failing check
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    assert cli.main([command, "--tolerance", "10"]) == 2
    assert "unrecognized arguments: --tolerance 10" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tolerance": 10}))
    assert cli.main([command, "--config", str(path)]) == 2
    assert "config error: unknown key 'tolerance'" in capsys.readouterr().err


def test_p_list_floor():
    with pytest.raises(ConfigError):
        cli.parse_config(["lpnorms", "--p-list", "1,4"])


def test_suite_needs_selection():
    with pytest.raises(ConfigError):
        cli.parse_config(["suite"])
    with pytest.raises(ConfigError) as err:
        cli.parse_config(["suite", "--names", "counting-sphere,wrong"])
    assert "wrong" in str(err.value)
    cfg = cli.parse_config(["suite", "--names", "counting-sphere"])
    assert cfg.params["names"] == "counting-sphere"


def test_main_pinned_counting_line(capsys):
    code = cli.main(["counting", "--manifold", "sphere", "--m", "0",
                     "--lambda", "1e6"])
    assert code == 0
    assert capsys.readouterr().out == "count=1000 predicted=1000 dev=0\n"


def test_one_label_sphere_count_records_its_label(tmp_path):
    code = cli.main(["counting", "--manifold", "sphere", "--m", "5",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "counting-sphere.json").read_text())
    assert rep["params"] == {"m": 5, "lambda": 1e6}
    assert [row["grid"] for row in rep["series"]] == [5.0]


def test_main_generic_summary_line(capsys):
    code = cli.main(["counting", "--manifold", "torus"])
    assert code == 0
    out = capsys.readouterr().out
    # a passing report names no check
    assert out.startswith("counting-torus: pass slope=")
    assert "coefficient_at_top" not in out and "runtime=" in out


def test_main_usage_errors_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["suite"]) == 2
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr()
    assert "usage" in out.err.lower() or "usage" in out.out.lower()


def test_main_failing_experiment_exits_1(tmp_path, capsys):
    code = cli.main(["suite", "--names", "weyl-sphere-pole",
                     "--out-dir", str(tmp_path)])
    assert code == 1
    assert "weyl-sphere-pole: fail ratio_at_top=3.14159 (|x - 1| <= 0.05)" in capsys.readouterr().out
    assert (tmp_path / "weyl-sphere-pole.json").exists()
    assert (tmp_path / "weyl-sphere-pole.csv").exists()


def test_main_resource_errors_exit_3(monkeypatch, capsys):
    def boom(name, params):
        raise ResourceLimitError("quadrature too large for this budget")

    monkeypatch.setattr(lab, "run_command", boom)
    assert cli.main(["critscan"]) == 3
    assert "resource error" in capsys.readouterr().err


def test_a_torus_lattice_past_the_limit_exits_3(capsys):
    # m = 20000 would ask for about 1.6e9 lattice entries per array
    tracemalloc.start()
    try:
        assert cli.main(["lpnorms", "--manifold", "torus", "--m", "20000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "resource error" in capsys.readouterr().err
    assert peak < 1 << 20


def test_a_quadrature_grid_past_the_node_cap_exits_3(capsys):
    # the Gaussian preset at mu = 1e7 would take 3.3e9 box nodes
    tracemalloc.start()
    try:
        assert cli.main(["statphase", "--preset", "gaussian", "--mu-grid", "1e7,2e7"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "resource error: mu=10000000.0 needs a quadrature grid" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("grid", [["a", "b"], [[20, 40], [60, 80]], {"lo": 20}])
def test_a_config_grid_that_is_no_list_of_numbers_exits_2(tmp_path, monkeypatch, capsys, grid):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mu_grid": grid}))
    assert cli.main(["statphase", "--config", str(path)]) == 2
    assert "config error: mu_grid must be a strictly increasing grid" in capsys.readouterr().err


def test_a_nan_measurement_writes_a_failing_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(statphase, "oscillatory_integral", lambda *args: complex(math.nan))
    assert cli.main(["interp", "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "interp.json").read_text())
    assert report["verdict"] == "fail"
    worst = next(c for c in report["checks"] if c["name"] == "worst_rel")
    assert worst["measured"] is None and worst["pass"] is False
    assert "interp: fail" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["statphase", "--mu-grid", "nan,20,40"],
    ["statphase", "--mu-grid", "20,inf"],
    ["interp", "--mu-tau-grid", "2,nan"],
    ["weyl", "--lambda-max", "inf"],
    ["kuznecov", "--lambda", "inf"],
    ["counting", "--manifold", "torus", "--lambda", "inf"],
], ids=" ".join)
def test_non_finite_numbers_exit_2(monkeypatch, capsys, argv):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_main_writes_reports_for_single_experiment(tmp_path, capsys):
    code = cli.main(["critscan", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "critscan.json").exists()
    assert (tmp_path / "critscan.csv").exists()
    assert "critscan: pass" in capsys.readouterr().out


def test_counting_torus_reads_lambda(tmp_path, capsys):
    assert cli.main(["counting", "--manifold", "torus", "--lambda", "5e4",
                     "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "counting-torus.json").read_text())
    assert report["params"]["lambda_max"] == 5e4
    assert report["series"][0]["grid"] == 500.0


def test_single_torus_weyl_report_keeps_its_own_file(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["weyl", "--manifold", "torus", "--m", "3", "--out-dir", out]) == 0
    assert cli.main(["suite", "--names", "weyl-torus-m3", "--out-dir", out]) == 0
    single = json.loads((tmp_path / "weyl-torus-label3.json").read_text())
    merged = json.loads((tmp_path / "weyl-torus-m3.json").read_text())
    assert single["params"]["m"] == 3 and "parts" not in single
    assert merged["params"] == {"m": [0, 3, 10]}
    assert (tmp_path / "weyl-torus-label3.csv").exists()


def test_weyl_with_too_few_positive_diagonals_exits_2(capsys):
    # m = 10 has modes only above (2 pi 10)^2 ~ 3948: two grid points
    assert cli.main(["weyl", "--manifold", "torus", "--m", "10",
                     "--lambda-min", "1000", "--lambda-max", "5000"]) == 2
    assert "at least 5 points" in capsys.readouterr().err


def test_lpnorms_on_the_sphere_with_a_nonzero_m_exits_2(capsys):
    # the sphere's series is zonal: an m it would not measure is refused
    assert cli.main(["lpnorms", "--manifold", "sphere", "--m", "5"]) == 2
    assert "m must be 0" in capsys.readouterr().err
