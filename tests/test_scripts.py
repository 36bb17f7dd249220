"""Smoke runs of the scripts in scripts/, which import the package as users do."""
import importlib.util
import json
import math
from pathlib import Path

from equiweyl import lab

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_colatitude_sweep_writes_its_csv(capsys):
    assert _load("colatitude_sweep").main(["1e4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "theta,measured_coefficient,closed_form,ratio"
    assert len(rows) == 25
    cells = [[float(c) for c in row.split(",")] for row in rows]
    assert all(len(row) == 4 and all(math.isfinite(c) for c in row) for row in cells)


def test_golden_reports_rewrites_the_golden_files(tmp_path, capsys):
    module = _load("golden_reports")
    source, target = tmp_path / "reports", tmp_path / "golden"
    report = {"experiment": "demo", "timestamp": "1970-01-01T00:00:00Z", "params": {"a": 0.1},
              "series": [{"grid": 1, "measured": 0.5}], "runtime_s": 9.5}
    lab.write_report(report, source)
    target.mkdir()
    (target / "stale.json").write_text("{}\n")
    assert module.main(["--from", str(source), "--to", str(target)]) == 0
    assert "2 golden reports" in capsys.readouterr().out
    assert sorted(p.name for p in target.iterdir()) == ["demo.csv", "demo.json", "manifest.json"]
    kept = json.loads((target / "demo.json").read_text())
    assert kept == {"experiment": "demo", "params": {"a": 0.1},
                    "series": [{"grid": 1, "measured": 0.5}]}
    assert (target / "demo.csv").read_bytes() == (source / "demo.csv").read_bytes()
    manifest = json.loads((target / "manifest.json").read_text())
    assert sorted(manifest) == ["blas", "numpy", "simd_baseline", "simd_found"]


def test_golden_environment_without_dispatched_simd(monkeypatch):
    """numpy's config has no "found" key when it dispatches to no SIMD
    feature past its baseline: the manifest records an empty list."""
    module = _load("golden_reports")
    config = {"Build Dependencies": {"blas": {"name": "openblas", "version": "0.3"}},
              "SIMD Extensions": {"baseline": ["X86_V2"], "not found": ["X86_V3", "X86_V4"]}}
    monkeypatch.setattr(module.np, "show_config", lambda mode: config)
    env = module.environment()
    assert (env["blas"], env["simd_baseline"], env["simd_found"]) == \
        ("openblas 0.3", ["X86_V2"], [])


def test_golden_reports_prints_what_moved(tmp_path, capsys):
    """A rewrite names each file whose content changed: how many numbers
    moved, the worst relative move, every verdict or check pass that
    flipped, and how many entries came or went; an unchanged file gets no
    line of its own, but the count of files that kept their bytes does."""
    module = _load("golden_reports")
    source, target = tmp_path / "reports", tmp_path / "golden"

    def report(name, measured, passed):
        return {"experiment": name, "params": {"a": 0.1},
                "series": [{"grid": 1, "measured": 0.5}, {"grid": 2, "measured": measured}],
                "checks": [{"name": "c", "pass": passed}],
                "verdict": "pass" if passed else "fail"}

    lab.write_report(report("moved", 0.25, True), source)
    lab.write_report(report("same", 0.25, True), source)
    module.main(["--from", str(source), "--to", str(target)])
    assert capsys.readouterr().out.splitlines()[-2] == \
        "0 of 4 golden reports kept their bytes; manifest.json changed"
    lab.write_report({**report("moved", 0.25 * (1.0 + 1e-11), False), "fit": {"slope": 1.0}},
                     source)
    module.main(["--from", str(source), "--to", str(target)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1].startswith("4 golden reports")
    assert lines[0] == ("moved.csv: 1 numbers moved (worst 1e-11 relative, [1].measured); "
                        "no verdict or check pass flipped")
    assert lines[1] == ("moved.json: 1 numbers moved (worst 1e-11 relative, series[1].measured); "
                        "flipped: checks[0].pass True -> False, verdict pass -> fail; "
                        "1 entries added or removed")
    assert lines[2] == "2 of 4 golden reports kept their bytes; manifest.json kept its bytes"
