"""Flag and config-file parsing, dispatch, summary lines, exit codes."""
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

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


def test_critscan_with_no_isolated_point_writes_a_failing_report(tmp_path, capsys):
    """Just off the pole the pair scans find no isolated component: the
    missing determinants leave det_slope nothing to measure."""
    assert cli.main(["critscan", "--theta", "1e-6", "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "critscan.json").read_text())
    det_slope = next(c for c in report["checks"] if c["name"] == "det_slope")
    assert det_slope["measured"] is None and det_slope["pass"] is False
    assert report["fit"] is None and report["verdict"] == "fail"
    assert "critscan: fail det_slope=none" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["2.8415926535897931", "2.85", "3.1", "-0.1"])
def test_critscan_refuses_pairs_that_reach_the_axis(monkeypatch, capsys, theta):
    """At theta = pi - 0.3 the last pair y sits on the south pole, and past
    it the pairs run beyond the pole: refused before any scan."""
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    assert cli.main(["critscan", "--theta", theta]) == 2
    assert "config error: theta must lie in (0, pi - 0.3)" in capsys.readouterr().err
    assert cli.parse_config(["critscan", "--theta", "2.84"]).params["theta"] == 2.84


@pytest.mark.parametrize("argv, message", [
    (["counting", "--manifold", "torus", "--lambda", "50"], "need at least 5 points, got 0"),
    (["counting", "--manifold", "torus", "--m", "0", "--lambda", "1e-3"],
     "constant data cannot pin a power law"),
], ids=["empty window", "constant window"])
def test_a_torus_count_with_nothing_to_fit_exits_2(capsys, argv, message):
    assert cli.main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_counting_torus_fits_the_positive_window():
    # m = 20 has no mode below (2 pi 20)^2 ~ 15791: the fit starts above it
    rep = lab.run_counting_experiment("torus", 20, 1e5)
    assert rep["series"][0]["measured"] == 0.0
    assert min(rep["fit"]["grid"]) > (2 * math.pi * 20) ** 2
    assert len(rep["fit"]["grid"]) == sum(row["measured"] > 0 for row in rep["series"])


@pytest.mark.parametrize("argv, named", [
    (["weyl", "--manifold", "sphere", "--x", "0.9,0.9"], "x gives no point on the sphere"),
    (["weyl", "--manifold", "torus", "--theta", "0.3"], "theta gives no point on the torus"),
    (["weyl", "--x", "0.9,0.9"], "x gives no point on the sphere"),
], ids=["sphere x", "torus theta", "default sphere x"])
def test_weyl_refuses_the_other_manifolds_point(monkeypatch, capsys, argv, named):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    assert cli.main(argv) == 2
    assert f"config error: {named}" in capsys.readouterr().err


def test_weyl_defaults_the_point_of_its_own_manifold():
    sphere = cli.parse_config(["weyl"]).params
    torus = cli.parse_config(["weyl", "--manifold", "torus"]).params
    assert (sphere["theta"], sphere["x"]) == (math.pi / 2, None)
    assert (torus["theta"], torus["x"]) == (None, (0.25, 0.35))


@pytest.mark.parametrize("argv, named", [
    (["suite", "--names", ","], "unknown experiment ''"),
    (["suite", "--names", "interp,,interp"], "names names 'interp' more than once"),
    (["suite", "--names", "interp,interp"], "names names 'interp' more than once"),
    (["suite", "--names", "interp,"], "unknown experiment ''"),
], ids=["comma", "empty between repeats", "repeat", "trailing comma"])
def test_suite_names_refuse_empty_and_repeated_ids(monkeypatch, capsys, argv, named):
    monkeypatch.setattr(lab, "run_suite", lambda *args, **kw: pytest.fail("suite ran"))
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("names, named", [
    ([], "names must be a non-empty list of experiment ids"),
    (["interp", "interp"], "names names 'interp' more than once"),
    (["interp", 5], "names must be a non-empty list of experiment ids"),
], ids=["empty", "repeat", "no string"])
def test_suite_names_in_a_config_file_are_checked(tmp_path, monkeypatch, capsys, names, named):
    monkeypatch.setattr(lab, "run_suite", lambda *args, **kw: pytest.fail("suite ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"names": names}))
    assert cli.main(["suite", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {named}" in capsys.readouterr().err


def test_suite_names_in_a_config_file_run_in_order(tmp_path, monkeypatch):
    # a JSON list, or the flag's comma text
    ran = []
    monkeypatch.setattr(lab, "run_suite", lambda names: ran.append(names) or [])
    path = tmp_path / "run.json"
    for names in (["interp", "critscan"], "interp,critscan"):
        path.write_text(json.dumps({"names": names}))
        assert cli.main(["suite", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert ran == 2 * [["interp", "critscan"]]


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
    assert cfg.params["names"] == ["counting-sphere"]


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


@pytest.mark.parametrize("argv, named", [
    # a sphere meridian rule of 3e9 nodes; 3e302; inf, past any ceil.  The
    # huge p leads: a p = 2 pass before it peaks near 3 MB on its own
    (["lpnorms", "--p-list", "1e7,2"], "p=1e+07 at mu=100.499 needs a meridian rule"),
    (["lpnorms", "--p-list", "1e300,2"], "p=1e+300 at mu=100.499 needs a meridian rule"),
    (["lpnorms", "--p-list", "1e308,2"], "p=1e+308 at mu=100.499 needs a meridian rule of inf"),
    # a phi table of 6e10 nodes a row
    (["hybrid", "--mu-grid", "1e10:2e10:8"], "mu=10000000000.0 needs a phi table"),
    # 100 label-0 modes at 1e8 points
    (["kuznecov", "--points", "100000000"], "100000000 points need 10000000000 label-0"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "refused")
def test_a_rule_or_table_past_the_node_cap_exits_3(capsys, argv, named):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"resource error: {named}" in capsys.readouterr().err
    assert peak < 1 << 20
    assert time.perf_counter() - start < 10.0


def test_a_huge_p_on_the_torus_still_runs(capsys):
    # a torus mode's meridian rule does not grow with p
    assert cli.main(["lpnorms", "--manifold", "torus", "--p-list", "2,1e7"]) == 0
    assert "lpnorms-torus: pass" in capsys.readouterr().out


@pytest.mark.parametrize("grid", [["a", "b"], [[20, 40], [60, 80]], {"lo": 20}])
def test_a_config_grid_that_is_no_list_of_numbers_exits_2(tmp_path, monkeypatch, capsys, grid):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mu_grid": grid}))
    assert cli.main(["statphase", "--config", str(path)]) == 2
    assert "config error: mu_grid must be a strictly increasing grid" in capsys.readouterr().err


@pytest.mark.parametrize("command, keys, named", [
    ("lpnorms", {"p_list": 5}, "p_list must be a non-empty list"),
    ("lpnorms", {"p_list": ["a"]}, "p_list must be a non-empty list"),
    ("lpnorms", {"p_list": [3, "inf"]}, "p_list must be a non-empty list"),
    ("lpnorms", {"p_list": []}, "p_list must be a non-empty list"),
    ("weyl", {"manifold": "torus", "x": 5}, "x must be two finite numbers"),
    ("weyl", {"manifold": "torus", "x": ["a", 1]}, "x must be two finite numbers"),
    ("weyl", {"manifold": "torus", "x": [1, 2, 3]}, "x must be two finite numbers"),
    ("suite", {"all": "no"}, "all must be true or false"),
    ("counting", {"m": True}, "m must be an integer"),
    ("kuznecov", {"points": True}, "points must be an integer"),
    ("weyl", {"lambda_min": True}, "lambda_min must be a finite positive number"),
    ("statphase", {"mu_grid": [True, 40]}, "mu_grid must be a strictly increasing grid"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else str(v))
def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, monkeypatch, capsys,
                                                  command, keys, named):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    monkeypatch.setattr(lab, "run_suite", lambda *args, **kw: pytest.fail("suite ran"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(keys))
    assert cli.main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, text, value", [
    ("lpnorms", "p_list", "2,inf", [2.0, math.inf]),
    ("weyl", "x", "0.1,0.2", [0.1, 0.2]),
])
def test_a_config_list_key_still_reads_its_flag_string(tmp_path, command, key, text, value):
    # on the torus: weyl reads x there only
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: text, "manifold": "torus"}))
    assert cli.parse_config([command, "--config", str(path)]).params[key] == value


@pytest.mark.parametrize("argv", [
    ["critscan", "--out-dir", "{file}"],
    ["suite", "--names", "interp", "--out-dir", "{file}/sub"],
], ids=" ".join)
def test_an_out_dir_that_cannot_be_made_exits_2_before_running(tmp_path, monkeypatch, capsys,
                                                               argv):
    monkeypatch.setattr(lab, "run_command", lambda *args: pytest.fail("experiment ran"))
    monkeypatch.setattr(lab, "run_suite", lambda *args, **kw: pytest.fail("suite ran"))
    file = tmp_path / "taken"
    file.write_text("")
    assert cli.main([a.format(file=file) for a in argv]) == 2
    assert "config error:" in capsys.readouterr().err


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
    ["weyl", "--manifold", "torus", "--x", "nan,0.3"],
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


def test_lpnorms_torus_at_a_huge_p_passes_without_a_warning(capsys):
    for p in ("1e300", "1e308"):
        assert cli.main(["lpnorms", "--manifold", "torus", "--p-list", f"2,{p}"]) == 0
        assert capsys.readouterr().err == ""


def test_counting_sphere_counts_the_level_at_its_edge(capsys):
    # lambda = 1000 * 1001 is the edge where the level k = 1000 enters
    assert cli.main(["counting", "--manifold", "sphere", "--lambda", "1001000"]) == 0
    assert capsys.readouterr().out == "count=1001 predicted=1001 dev=0\n"


def test_lpnorms_on_the_sphere_with_a_nonzero_m_exits_2(capsys):
    # the sphere's series is zonal: an m it would not measure is refused
    assert cli.main(["lpnorms", "--manifold", "sphere", "--m", "5"]) == 2
    assert "m must be 0" in capsys.readouterr().err


def _python_m(module, *args):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("module", ["equiweyl", "equiweyl.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    """python -m equiweyl and python -m equiweyl.cli run the front end, and
    runpy finds no cli loaded ahead of it to warn about."""
    run = _python_m(module, "suite", "--names", "interp", "--out-dir", str(tmp_path))
    assert (run.returncode, run.stdout.split(":")[0]) == (0, "interp"), run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_the_pole_id_writes_nothing_on_stderr(tmp_path):
    """The fixed point's coefficient is integrable whatever the quadrature
    does, so its run warns of nothing; it fails only on the pole xfail."""
    run = _python_m("equiweyl", "suite", "--names", "weyl-sphere-pole", "--out-dir", str(tmp_path))
    assert (run.returncode, run.stderr) == (1, "")
