"""Power-law fits, report plumbing, and the experiment registry."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equiweyl import eigensolve, geometry, lab, specfun, spectral, statphase
from equiweyl.errors import DegenerateDataError, DomainError


def test_fit_identity_line():
    xs = np.geomspace(1.0, 100.0, 9)
    fit = lab.fit_power_law(xs, xs)
    assert fit["slope"] == pytest.approx(1.0, abs=1e-14)
    assert fit["intercept"] == pytest.approx(0.0, abs=1e-13)
    assert fit["r_squared"] == 1.0
    assert fit["grid"] == list(xs)


def test_fit_reciprocal_with_amplitude():
    xs = np.geomspace(2.0, 64.0, 11)
    fit = lab.fit_power_law(xs, 3.0 / xs)
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-13)
    assert math.exp(fit["intercept"]) == pytest.approx(3.0, rel=1e-12)


def test_fit_recovers_exact_power_laws():
    xs = np.geomspace(0.5, 50.0, 17)
    for slope, amp in ((2.5, 7.0), (-0.5, 0.03)):
        fit = lab.fit_power_law(xs, amp * xs ** slope)
        assert fit["slope"] == pytest.approx(slope, abs=1e-12)
        assert math.exp(fit["intercept"]) == pytest.approx(amp, rel=1e-11)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_fit_power_law_property(slope, log_amp):
    assume(abs(slope) > 1e-6)
    xs = np.geomspace(1.0, 100.0, 9)
    fit = lab.fit_power_law(xs, math.exp(log_amp) * xs ** slope)
    assert fit["slope"] == pytest.approx(slope, abs=1e-9)
    assert fit["intercept"] == pytest.approx(log_amp, abs=1e-9)


def test_fit_rejects_bad_input():
    good = np.geomspace(1.0, 10.0, 6)
    with pytest.raises(DomainError):
        lab.fit_power_law(good[:4], good[:4])
    with pytest.raises(DomainError):
        lab.fit_power_law(good, good[:-1])
    with pytest.raises(DegenerateDataError):
        lab.fit_power_law(good, -good)
    with pytest.raises(DegenerateDataError):
        lab.fit_power_law(good[::-1], good)
    with pytest.raises(DegenerateDataError):
        lab.fit_power_law(good, np.ones_like(good))


@pytest.mark.xfail(
    strict=True,
    reason="the log-log slope of 2k+1 against k runs 1/(2k) below 1, "
    "so the fitted secant over [100, 800] lands near 0.998, outside 1e-3",
)
def test_pole_intensity_slope_within_tight_band():
    ks = np.array([100.0 * 2.0 ** (j / 2.0) for j in range(7)])
    vals = np.array([abs(specfun.spherical_harmonic(int(round(k)), 0, 0.0, 0.0)) ** 2
                     for k in ks])
    fit = lab.fit_power_law(ks, vals)
    assert abs(fit["slope"] - 1.0) <= 1e-3


def test_pole_intensity_slope_with_honest_band():
    ks = np.array([100.0 * 2.0 ** (j / 2.0) for j in range(7)])
    vals = np.array([abs(specfun.spherical_harmonic(int(round(k)), 0, 0.0, 0.0)) ** 2
                     for k in ks])
    fit = lab.fit_power_law(ks, vals)
    # (2k+1)/(4pi) vs k: slope 1 up to the 1/(2k) bias on this window
    assert abs(fit["slope"] - 1.0) <= 5e-3
    assert fit["r_squared"] > 0.99999


def test_make_report_shapes():
    fit = lab.fit_power_law(np.geomspace(1, 10, 5), np.geomspace(1, 10, 5))
    checks = [lab._check("ratio", 1.002, 0.01, centre=1.0)]
    rep = lab.make_report(
        "demo", {"m": 3}, [{"grid": 1.0, "measured": 2.0}], fit,
        {"exponent": 1.0}, checks, extra={"note": "x"},
    )
    assert rep["experiment"] == "demo"
    # the fit is its report dict, written as it is
    assert rep["fit"] is fit
    assert list(fit) == ["slope", "intercept", "r_squared", "grid"]
    assert rep["checks"] == checks
    assert rep["verdict"] == "pass"
    assert rep["note"] == "x"
    assert rep["runtime_s"] == 0.0


def test_write_report_round_trip(tmp_path):
    rep = lab.make_report(
        "demo", {"m": 3}, [{"grid": 1.0, "measured": 2.0, "predicted": 2.0},
                           {"grid": 2.0, "measured": 1.0, "extra_col": 5.0}],
        None, {"exponent": 1.0}, [lab._check("gap", 0.0, 1e-12)],
    )
    path = lab.write_report(rep, tmp_path)
    assert path == tmp_path / "demo.json"
    text = path.read_text()
    assert '"experiment": "demo"' in text
    csv_lines = (tmp_path / "demo.csv").read_text().splitlines()
    # header is the union of row keys in first-seen order; gaps stay empty
    assert csv_lines[0] == "grid,measured,predicted,extra_col"
    assert csv_lines[1].endswith(",")
    assert csv_lines[2].split(",")[2] == ""
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.suffix not in (".json", ".csv")]
    assert leftovers == []


def test_reports_equal_ignores_wall_clock():
    base = lab.make_report("demo", {}, [], None, {}, [lab._check("gap", 0.0, 1e-12)])
    other = dict(base, timestamp="1970-01-01T00:00:00Z", runtime_s=9.5)
    assert lab.reports_equal(base, other)
    assert not lab.reports_equal(base, dict(base, verdict="fail"))


def test_check_records_its_relation_and_margin():
    inside = lab._check("ratio", 1.03, 0.05, centre=1.0)
    assert inside == {"name": "ratio", "measured": 1.03, "relation": "|x - 1| <=",
                      "bound": 0.05, "pass": True, "margin": 0.05 - abs(1.03 - 1.0)}
    outside = lab._check("slope", -1.2, 0.2, centre=-1.5)
    assert outside["relation"] == "|x + 1.5| <=" and not outside["pass"]
    assert outside["margin"] == pytest.approx(-0.1, rel=1e-12)
    assert lab._check("gap", 2e-12, 1e-12)["relation"] == "x <="
    assert lab._check("gap", 2e-12, 1e-12)["margin"] == pytest.approx(-1e-12, rel=1e-12)
    # a centre with no short text keeps every digit
    assert lab._check("c", 0.3, 0.01, centre=1.0 / math.pi)["relation"] == (
        f"|x - {1.0 / math.pi!r}| <=")
    # nothing to measure fails, with no margin
    missing = lab._check("on_orbit", None, 1e-10)
    assert missing["measured"] is None and missing["margin"] is None and not missing["pass"]
    # the bound is inclusive
    assert lab._check("gap", 0.0, 0.0)["pass"]


def test_verdict_is_the_check_list():
    ok, bad = lab._check("a", 0.5, 1.0), lab._check("b", 2.0, 1.0)
    assert lab.make_report("demo", {}, [], None, {}, [ok, ok])["verdict"] == "pass"
    assert lab.make_report("demo", {}, [], None, {}, [ok, bad])["verdict"] == "fail"
    # a report that measures nothing does not pass
    assert lab.make_report("demo", {}, [], None, {}, [])["verdict"] == "fail"


def test_window_averaged_diag():
    got = lab.window_averaged_diag(lambda lam: 2.0 * lam, 100.0)
    assert type(got) is float and got == pytest.approx(204.0, abs=1e-12)
    # an array of lambdas: one diag call on all their windows, a mean each
    calls = []
    got = lab.window_averaged_diag(lambda lam: calls.append(lam.shape) or 2.0 * lam,
                                   np.array([100.0, 7.0]))
    assert calls == [(2, lab._WINDOWS)] and np.allclose(got, [204.0, 18.0], rtol=0, atol=1e-12)


def test_envelope_maxima_bins():
    mu = np.geomspace(1.0, 16.0, 257)
    vals = np.abs(np.sin(40.0 * mu)) / mu
    m, v = lab.envelope_maxima(mu, vals)
    # four octaves at the default sqrt(2) factor: eight bins, no stub
    assert len(m) == 8
    assert np.all(np.diff(m) > 0)
    fit = lab.fit_power_law(m, v)
    assert fit["slope"] == pytest.approx(-1.0, abs=0.02)
    assert fit["r_squared"] > 0.999


def test_lpnorms_sphere_measures_high_degrees():
    # against a Gauss rule in cos(theta) exact for |Pbar_k|^p, a polynomial
    # of degree p k, wherever that rule is good to the tolerance: numpy's
    # leggauss loses digits as it grows (its rules of 1,620 and 2,420 nodes
    # move by 1.9e-9 and 1.8e-8 under 64 more), so p = 6 at k = 800 is out
    rep = lab.run_lp_experiment("sphere", 0, (4.0, 6.0))
    checked = 0
    for row in rep["series"]:
        k = round(math.sqrt(row["grid"] + 0.25) - 0.5)
        p = float(row["p"])
        n = math.ceil(p * k / 2) + 20
        if n > 2000:
            continue
        x, w = np.polynomial.legendre.leggauss(n)
        vals = np.abs(specfun.assoc_legendre_normalized(k, 0, x)) ** p
        want = (2 * math.pi * float(w @ vals)) ** (1 / p)
        assert row["measured"] == pytest.approx(want, rel=1e-8), (k, p)
        checked += 1
    assert checked == 2 * len(lab._K_GRID) - 1


def test_registry_names():
    assert set(lab.EXPERIMENTS) == {
        "weyl-torus-m3", "weyl-sphere-equator", "weyl-sphere-pole",
        "counting-sphere", "counting-torus", "concentration",
        "lpnorms-sphere", "lpnorms-torus", "kuznecov",
        "statphase-gaussian", "statphase-sphere", "hybrid",
        "interp", "critscan",
    }


def test_run_experiment_unknown_name():
    with pytest.raises(DomainError):
        lab.run_experiment("not-an-experiment")


def test_run_suite_subset_order_and_determinism():
    names = ["counting-torus", "lpnorms-torus", "weyl-torus-m3"]
    first = lab.run_suite(names)
    second = lab.run_suite(names)
    assert [r["experiment"] for r in first] == names
    assert [r["experiment"] for r in second] == names
    for a, b in zip(first, second):
        assert lab.reports_equal(a, b)
        assert a["verdict"] == "pass"


def test_merged_torus_report_keeps_every_part():
    rep = lab.run_experiment("weyl-torus-m3")
    parts = rep["parts"]
    assert [p["params"]["m"] for p in parts] == [0, 3, 10]
    assert rep["params"] == {"m": [0, 3, 10]}
    # each part carries its own fit, not a copy of the m = 0 one
    assert parts[0]["fit"] != parts[2]["fit"]
    # the headline ratio is the worst deviation from 1, and names its part
    devs = [abs(p["ratio_at_top"] - 1.0) for p in parts]
    worst = parts[devs.index(max(devs))]
    assert rep["ratio_at_top"] == worst["ratio_at_top"]
    assert rep["worst_m"] == worst["params"]["m"] == 10
    assert rep["ratio_at_top"] < 1.0
    # every part's check is kept under its part's name; the worst is named
    assert [c["name"] for c in rep["checks"]] == [
        "ratio_at_top[m=0]", "ratio_at_top[m=3]", "ratio_at_top[m=10]"]
    assert [c["measured"] for c in rep["checks"]] == [p["ratio_at_top"] for p in parts]
    assert rep["worst_check"] == "ratio_at_top[m=10]"


def test_kuznecov_report_fails_when_the_identity_breaks(monkeypatch):
    exact = spectral.kuznecov_sum
    monkeypatch.setattr(spectral, "kuznecov_sum",
                        lambda *args, **kw: exact(*args, **kw) * (1.0 + 1e-6))
    rep = lab.run_kuznecov_experiment(lambda_top=300.0, points=3, seed=5)
    identity = next(c for c in rep["checks"] if c["name"] == "worst_identity_error")
    assert identity["measured"] > identity["bound"] == 1e-10
    assert not identity["pass"] and identity["margin"] < 0
    assert rep["verdict"] == "fail"


def _second_call_nan(exact):
    calls = []

    def patched(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else exact(*args)
    return patched


def _second_entry_nan(exact):
    def patched(*args):
        out = np.array(exact(*args), dtype=float)
        out[1] = math.nan
        return out
    return patched


# suite id: (module, function, how one NaN gets in, the worst-of check)
NAN_CASES = {
    "statphase-gaussian": (statphase, "oscillatory_integral", _second_call_nan, "worst_exact_rel"),
    "statphase-sphere": (statphase, "oscillatory_integral", _second_call_nan, "worst_exact_rel"),
    "interp": (statphase, "oscillatory_integral", _second_call_nan, "worst_rel"),
    "kuznecov": (spectral, "kuznecov_sum", _second_entry_nan, "worst_identity_error"),
}


@pytest.mark.parametrize("name", sorted(NAN_CASES))
def test_one_nan_fails_the_worst_of_check(monkeypatch, name):
    # a worst-of reduction must not drop a NaN between finite values
    module, attr, inject, check = NAN_CASES[name]
    monkeypatch.setattr(module, attr, inject(getattr(module, attr)))
    rep = lab.run_experiment(name)
    worst = next(c for c in rep["checks"] if c["name"] == check)
    assert math.isnan(worst["measured"]) and not worst["pass"]
    assert rep["verdict"] == "fail"


def test_zero_label_weyl_report_checks_its_diagonal():
    # only m = 0 survives at the pole: the m = 2 label predicts no growth,
    # and its check is that the measured diagonal vanishes
    rep = lab.run_local_weyl_experiment("sphere", 2, 0.0, (0.25, 0.35), 1e3, 1e4)
    assert rep["prediction"]["coefficient"] == 0.0
    assert [(c["name"], c["measured"], c["bound"], c["pass"]) for c in rep["checks"]] == [
        ("max_diagonal", 0.0, 0.0, True)]
    assert rep["verdict"] == "pass" and "ratio_at_top" not in rep


def test_lpnorms_torus_measures_every_p():
    # at p = 1e308, |e|^p of |e| = 1 up to rounding over- or underflows:
    # the norm is taken again with |e| scaled by its maximum
    rep = lab.run_lp_experiment("torus", 3, (2.0, 4.0, 1e308, math.inf))
    # |e^{2 pi i <k,x>}| = 1 at unit L^2 norm: every cluster norm is 1
    assert {row["p"] for row in rep["series"]} == {"2", "4", "1e+308", "inf"}
    assert max(abs(row["measured"] - 1.0) for row in rep["series"]) <= 1e-15
    assert [c["name"] for c in rep["checks"]] == [
        "slope_p2", "slope_p4", "slope_p1e+308", "slope_pinf"]
    assert rep["verdict"] == "pass" and "k_grid" not in rep["params"]


@pytest.mark.parametrize("top", [1, 5, 31, 999])
def test_counting_sphere_predicts_each_level_either_side_of_its_edges(top):
    # the level k enters at lambda = k(k+1); k^2 and (k+1)^2 fall between levels
    for lam in (top ** 2 - 0.5, top ** 2, top * (top + 1) - 0.5, top * (top + 1),
                top * (top + 1) + 0.5, (top + 1) ** 2 - 0.5, (top + 1) ** 2):
        rep = lab.run_counting_experiment("sphere", 0, lam)
        levels = sum(1 for k in range(top + 2) if k * (k + 1) <= lam)
        zonal = next(row for row in rep["series"] if row["grid"] == 0.0)
        assert zonal["predicted"] == zonal["measured"] == levels, lam
        assert rep["verdict"] == "pass", lam


def _kuznecov_draw_by_loop(points, seed):
    """The per-point draw that the experiment's arrays replace, kept as
    their reference: one uniform cos(theta) and one angle a point, in that
    order, each point built and its colatitude read back on its own."""
    rng = np.random.default_rng(seed)
    draws = [(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
             for _ in range(points)]
    xs = np.array([geometry.sphere_point(t, phi) for t, phi in draws])
    return [t for t, _ in draws], xs, [geometry.sphere_colatitude(x) for x in xs]


def test_kuznecov_array_draw_is_the_per_point_loop(monkeypatch):
    points, seed, lam = 10_000, 20260815, 1e4
    thetas, xs, colatitudes = _kuznecov_draw_by_loop(points, seed)
    seen = []
    for name in ("kuznecov_sum", "sphere_diag_direct"):
        exact = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *args, exact=exact: seen.append(args) or exact(*args))
    rep = lab.run_kuznecov_experiment(lam, points, seed)
    # the points and the colatitudes the diagonal reads, bit for bit
    assert np.array_equal(seen[0][1], xs)
    assert np.array_equal(seen[1][1], colatitudes)
    assert [row["grid"] for row in rep["series"]] == thetas
    sums = spectral.kuznecov_sum(eigensolve.sphere_basis(lam), xs, lam).tolist()
    diags = spectral.sphere_diag_direct(0, np.array(colatitudes), lam).tolist()
    worst = max(abs(ks - d) / max(1.0, abs(d)) for ks, d in zip(sums, diags))
    assert [(row["measured"], row["predicted"]) for row in rep["series"]] == list(zip(sums, diags))
    assert rep["checks"][0]["name"] == "worst_identity_error"
    assert rep["checks"][0]["measured"] == worst


def test_torus_weyl_fit_sees_only_positive_diagonals():
    # below (2 pi 10)^2 the m = 10 label has no modes: its log-log fit must
    # start above that, on positive diagonals only
    rep = lab.run_experiment("weyl-torus-m3")
    part = next(p for p in rep["parts"] if p["params"]["m"] == 10)
    measured = {row["grid"]: row["measured"] for row in rep["series"] if row["m"] == 10}
    assert part["fit"]["slope"] < 1.0
    assert len(part["fit"]["grid"]) >= 5
    assert all(measured[g] > 0 for g in part["fit"]["grid"])
    assert min(part["fit"]["grid"]) > (2 * math.pi * 10) ** 2
