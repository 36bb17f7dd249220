"""End-to-end checks at the shipped tolerances, one printed line each.

Every test prints a single PASS/FAIL line so the console run doubles as a
scorecard.  The pole-normalization constant and the clean suite exit are
known-bad (see the failure notes printed by those tests); both are marked
strict xfail so the scorecard stays honest while the run stays green.
"""
import contextlib
import importlib.util
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from equiweyl import cli, eigensolve, geometry, lab, specfun
from equiweyl.util import json_dumps

GOLDEN_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_reports.py"


def _line(tag, ok, detail):
    print(f"[acceptance] {tag:<32} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One full registry run through the command line; reports land on disk,
    and its summary lines are kept (and echoed)."""
    dir_a = tmp_path_factory.mktemp("suite")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exit_code = cli.main(["suite", "--all", "--out-dir", str(dir_a)])
    print(out.getvalue(), end="")
    reports = {}
    for path in dir_a.glob("*.json"):
        reports[path.stem] = json.loads(path.read_text())
    return {"exit_code": exit_code, "dir_a": dir_a, "reports": reports,
            "stdout": out.getvalue()}


def _measured(report, name):
    """The measured value of a report's named check."""
    return next(c["measured"] for c in report["checks"] if c["name"] == name)


def test_harmonic_sum_rule():
    t0 = time.perf_counter()
    k_max = 200
    rng = np.random.default_rng(20260815)
    alphas = rng.uniform(-1.0, 1.0, 100)
    phis = rng.uniform(0.0, 2.0 * math.pi, 100)
    totals = np.zeros((k_max + 1, len(alphas)))
    for m in range(0, k_max + 1):
        ladder = specfun.assoc_ladder(m, k_max, alphas) ** 2
        # the azimuthal factor has unit magnitude; negative orders repeat it
        weight = np.cos(m * phis) ** 2 + np.sin(m * phis) ** 2
        totals[m:] += (2.0 if m else 1.0) * ladder * weight[None, :]
    ks = np.arange(k_max + 1)
    want = (2.0 * ks + 1.0) / (4.0 * math.pi)
    rel = np.abs(totals - want[:, None]) / want[:, None]
    worst = float(np.max(rel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _line("harmonic sum rule", ok,
                 f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_torus_local_growth_coefficient():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (0, 3, 10):
        rep = lab.run_local_weyl_experiment(
            "torus", m, math.pi / 2, (0.25, 0.35), 1e3, 1e6)
        worst = max(worst, abs(rep["ratio_at_top"] - 1.0))
        assert rep["verdict"] == "pass"
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 5.0
    assert _line("torus local growth", ok,
                 f"worst ratio dev {worst:.2e} at 1e6, {elapsed:.2f}s")


def test_sphere_equator_growth_coefficient(suite):
    rep = suite["reports"]["weyl-sphere-equator"]
    dev = abs(rep["ratio_at_top"] - 1.0)
    ok = dev <= 0.05 and rep["runtime_s"] < 30.0
    assert _line("sphere equator growth", ok,
                 f"ratio dev {dev:.2e} vs 1/(2 pi^2), {rep['runtime_s']:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the measured pole diagonal grows like lambda/(4 pi), a factor pi "
    "above the frozen 1/(4 pi^2) normalization; see the decision ledger",
)
def test_pole_normalization_constant(suite):
    rep = suite["reports"]["weyl-sphere-pole"]
    dev = abs(rep["ratio_at_top"] - 1.0)
    _line("pole normalization", dev <= 0.05,
          f"measured/predicted = {rep['ratio_at_top']:.10f} (pi), dev {dev:.2e}")
    assert dev <= 0.05


def test_growth_exponent_dichotomy(suite):
    pole = suite["reports"]["weyl-sphere-pole"]["fit"]["slope"]
    equator = suite["reports"]["weyl-sphere-equator"]["fit"]["slope"]
    ok = abs(pole - 1.0) <= 0.02 and abs(equator - 0.5) <= 0.02
    assert _line("growth exponent dichotomy", ok,
                 f"pole slope {pole:.4f} vs 1, equator slope {equator:.4f} vs 0.5")


def test_cluster_concentration_profile(suite):
    rep = suite["reports"]["concentration"]
    theta_slope = rep["fit"]["slope"]
    pole_slope = rep["fit_pole"]["slope"]
    ok = (abs(theta_slope - (-1.0)) <= 0.15
          and abs(pole_slope - 1.0) <= 0.01
          and rep["runtime_s"] < 60.0)
    assert _line("cluster concentration", ok,
                 f"sin-theta slope {theta_slope:.3f}, pole slope {pole_slope:.4f}")


def test_isotypic_counting(suite):
    sphere = suite["reports"]["counting-sphere"]
    torus = suite["reports"]["counting-torus"]
    coeff = _measured(torus, "coefficient_at_top")
    coeff_dev = abs(coeff - 1.0 / math.pi) * math.pi
    sphere_dev = _measured(sphere, "max_deviation")
    ok = (sphere_dev == 0.0
          and len(sphere["series"]) == 201
          and coeff_dev <= 0.01)
    assert _line("isotypic counting", ok,
                 f"sphere dev {sphere_dev:g} over |m|<=100, "
                 f"torus coeff {coeff:.5f} vs 1/pi")


def test_lp_norm_exponents(suite):
    rep = suite["reports"]["lpnorms-sphere"]
    slope = rep["fits"]["inf"]["slope"]
    basis = eigensolve.torus_basis(500.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, (64, 2))
    sup_dev = float(np.max(np.abs(np.max(np.abs(basis.evaluate(pts, np.arange(12))), axis=1)
                                  - 1.0)))
    ok = abs(slope - 0.25) <= 0.02 and sup_dev <= 1e-12
    assert _line("Lp norm exponents", ok,
                 f"zonal sup slope {slope:.5f} vs 1/4, torus sup dev {sup_dev:.1e}")


def test_orbit_averaged_sums(suite):
    rep = suite["reports"]["kuznecov"]
    identity, growth = _measured(rep, "worst_identity_error"), _measured(rep, "growth_ratio")
    ok = identity <= 1e-10 and abs(growth - 1.0) <= 0.05
    assert _line("orbit-averaged sums", ok,
                 f"identity dev {identity:.1e} at 20 points, growth ratio {growth:.4f}")


def test_oscillatory_integral_engine(suite):
    gauss = suite["reports"]["statphase-gaussian"]
    sphere = suite["reports"]["statphase-sphere"]
    bounded = (_measured(gauss, "scaled_remainder_max")
               <= 2.0 * gauss["scaled_remainder_median"] + 1e-12)
    exact_rel = _measured(gauss, "worst_exact_rel")
    ok = (exact_rel <= 1e-6
          and bounded
          and abs(sphere["fit"]["slope"] - (-1.0)) <= 0.05
          and gauss["runtime_s"] + sphere["runtime_s"] < 60.0)
    assert _line("oscillatory integrals", ok,
                 f"gaussian rel {exact_rel:.1e}, "
                 f"sphere decay slope {sphere['fit']['slope']:.4f}")


def test_orbit_pair_decay_rates(suite):
    rep = suite["reports"]["hybrid"]
    worst_factor = max(v["worst_factor"] for v in rep["band"].values())
    ok = (abs(rep["fit"]["slope"] - (-1.0)) <= 0.1
          and abs(rep["fit_off"]["slope"] - (-1.5)) <= 0.1
          and worst_factor <= 2.0
          and rep["runtime_s"] < 600.0)
    assert _line("orbit-pair decay", ok,
                 f"on {rep['fit']['slope']:.3f}, off {rep['fit_off']['slope']:.3f}, "
                 f"band factor {worst_factor:.2f}")


def test_pairing_phase_critical_sets(suite):
    rep = suite["reports"]["critscan"]
    deviation = _measured(rep, "closed_form_deviation")
    ok = (rep["verdict"] == "pass"
          and rep["on_orbit_circle_found"]
          and abs(rep["fit"]["slope"] - 1.0) <= 0.1
          and deviation <= 1e-9)
    assert _line("pairing-phase critical sets", ok,
                 f"circle found, det-vs-separation slope {rep['fit']['slope']:.3f}, "
                 f"closed-form dev {deviation:.1e}")


def test_caustic_interpolation_quality(suite):
    rep = suite["reports"]["interp"]
    worst_rel, flat_gap = _measured(rep, "worst_rel"), _measured(rep, "flat_gap")
    ok = worst_rel <= 0.35 and flat_gap <= 1e-12
    assert _line("caustic interpolation", ok,
                 f"worst rel {worst_rel:.3f}, flat gap {flat_gap:.1e}")


def test_profile_eigensolver_accuracy():
    t0 = time.perf_counter()
    basis = eigensolve.surface_of_revolution_basis(
        geometry.sphere_profile(), 5, 20, 4000)
    k = np.abs(basis.quantum[:, 0]) + basis.quantum[:, 1]
    exact = k * (k + 1.0)
    assert np.all(np.abs(basis.eigenvalues[exact == 0.0]) <= 1e-9)
    worst = float(np.max(np.abs(basis.eigenvalues - exact)[exact > 0.0] / exact[exact > 0.0]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    assert _line("profile eigensolver", ok,
                 f"worst rel {worst:.2e} over |m|<=5 x 20 modes, {elapsed:.1f}s")


def _relation_holds(relation, measured, bound):
    """The relation text of a check applied to its measured value and bound:
    "x <=" or "|x - c| <=" / "|x + c| <=" (None is never inside a bound)."""
    if measured is None:
        return False
    if relation == "x <=":
        return measured <= bound
    sign, centre = re.fullmatch(r"\|x ([-+]) (\S+)\| <=", relation).groups()
    return abs(measured - (float(centre) if sign == "-" else -float(centre))) <= bound


def test_every_verdict_is_its_check_list(suite):
    """Each suite report names its checks; each check's pass is its relation
    applied to its measured value and bound, and the verdict passes exactly
    when every check does."""
    wrong = []
    for name, rep in sorted(suite["reports"].items()):
        checks = rep["checks"]
        if not checks:
            wrong.append(f"{name}: no checks")
        wrong += [f"{name}: {c['name']} pass is {c['pass']}" for c in checks
                  if c["pass"] != _relation_holds(c["relation"], c["measured"], c["bound"])]
        if (rep["verdict"] == "pass") != all(c["pass"] for c in checks):
            wrong.append(f"{name}: verdict {rep['verdict']}")
    assert len(suite["reports"]) == len(lab.EXPERIMENTS)
    assert _line("verdicts are check lists", not wrong, f"{len(suite['reports'])} reports")
    assert wrong == []


def test_suite_names_the_failing_check(suite):
    lines = suite["stdout"].splitlines()
    failing = [line for line in lines if ": fail" in line]
    assert failing == [line for line in lines if line.startswith("weyl-sphere-pole: fail ")]
    assert failing[0].startswith(
        "weyl-sphere-pole: fail ratio_at_top=3.14159 (|x - 1| <= 0.05) ")


def _golden():
    spec = importlib.util.spec_from_file_location("golden_reports", GOLDEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _json_differences(got, want, where):
    """'key: golden value, here value' for each value that differs, by its
    17-digit text, so one ulp shows."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in dict.fromkeys([*want, *got]):
            yield from _json_differences(got.get(key, "<absent>"), want.get(key, "<absent>"),
                                         f"{where}.{key}" if where else key)
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _json_differences(g, w, f"{where}[{i}]")
    elif json_dumps(got) != json_dumps(want):
        yield f"{where}: golden {json_dumps(want)}, here {json_dumps(got)}"


def _file_differences(name, got, want):
    if name.endswith(".json"):
        found = list(_json_differences(json.loads(got), json.loads(want), ""))
    else:
        got, want = got.splitlines(), want.splitlines()
        found = [f"line {i + 1}: golden {w!r}, here {g!r}"
                 for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if len(got) != len(want):
            found.append(f"{len(want)} lines golden, {len(got)} here")
    return [f"{name} {d}" for d in found or ["differs in layout only"]]


def test_reports_match_the_golden_files(suite):
    """suite --all writes, byte for byte, the reports in tests/golden once the
    wall-clock keys are dropped (scripts/golden_reports.py rewrites them);
    the bits rest on numpy, its BLAS and the SIMD features, which must be
    those tests/golden/manifest.json records."""
    golden = _golden()
    recorded = json.loads((golden.GOLDEN / golden.MANIFEST).read_text())
    here = golden.environment()
    moved = [f"{key}: golden {recorded.get(key)!r}, here {here.get(key)!r}"
             for key in dict.fromkeys([*recorded, *here]) if recorded.get(key) != here.get(key)]
    assert moved == [], f"the environment differs from {golden.MANIFEST}"
    want = {p.name: p for p in golden.GOLDEN.iterdir() if p.name != golden.MANIFEST}
    got = {p.name: p for p in suite["dir_a"].iterdir() if p.suffix in (".json", ".csv")}
    differences = [f"{name} missing here" for name in sorted(want.keys() - got.keys())]
    differences += [f"{name} not in tests/golden" for name in sorted(got.keys() - want.keys())]
    for name in sorted(want.keys() & got.keys()):
        text, expected = golden.normalized(got[name]), want[name].read_text()
        if text != expected:
            differences += _file_differences(name, text, expected)
    ok = not differences
    assert _line("golden reports", ok, f"{len(want)} files byte-identical" if ok
                 else f"{len(differences)} differences, first: {differences[0]}")
    assert differences == [], "\n".join(differences)


@pytest.mark.xfail(
    strict=True,
    reason="the pole-normalization experiment fails, so the registry run "
    "honestly exits 1 rather than 0",
)
def test_suite_exit_clean(suite):
    code = suite["exit_code"]
    _line("clean suite exit", code == 0, f"suite --all exit code {code}")
    assert code == 0
