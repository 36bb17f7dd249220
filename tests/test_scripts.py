"""Smoke runs of the sweeps in scripts/, which import the package as users do."""
import importlib.util
import math
from pathlib import Path

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
