"""Experiment harness: the subcommand records (parameters with their
defaults, parsers and checks, and the run function), the suite ids built
from them, parameter sweeps comparing measured spectral quantities against
predicted leading coefficients and exponents, and deterministic JSON/CSV
reports.

Every experiment is described once, here; the command-line front end is
generated from ``COMMANDS`` and the suite runs ``EXPERIMENTS``.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import eigensolve, geometry, specfun, spectral, statphase, weylcoef
from .errors import DomainError, RegimeWarning, ResourceLimitError
from .fits import envelope_maxima, fit_power_law
from .util import MAX_GRID_NODES, atomic_write_text, csv_text, geometric_grid, json_dumps

# ---------------------------------------------------------------------------
# report plumbing


def make_report(experiment, params, series, fit, prediction, checks, extra=None):
    """A report whose verdict is its checks: pass when there is at least one
    and every one passes."""
    # _stamped fills timestamp and runtime_s; they are listed here to fix the key order
    report = {
        "experiment": experiment,
        "timestamp": None,
        "params": params,
        "series": series,
        "fit": fit,
        "prediction": prediction,
        "checks": checks,
        "verdict": "pass" if checks and all(c["pass"] for c in checks) else "fail",
        "runtime_s": 0.0,
    }
    if extra:
        report.update(extra)
    return report


def _stamped(run):
    """Decorate a function returning a report: stamp the report's
    wall-clock fields, the only ones that differ between runs."""

    @functools.wraps(run)
    def stamped(*args, **kwargs):
        t0 = time.perf_counter()
        report = run(*args, **kwargs)
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        report["runtime_s"] = time.perf_counter() - t0
        return report

    return stamped


def write_report(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = report["experiment"]
    atomic_write_text(out / f"{name}.json", json_dumps(report) + "\n")
    rows = report.get("series") or []
    if rows:
        header = list(dict.fromkeys(key for row in rows for key in row))
        cells = [[row.get(h, "") for h in header] for row in rows]
        atomic_write_text(out / f"{name}.csv", csv_text(header, cells))
    return out / f"{name}.json"


_VOLATILE = ("timestamp", "runtime_s")


def reports_equal(a, b):
    """Byte-level equality after dropping wall-clock metadata."""

    def canon(r):
        r = dict(r)
        for k in _VOLATILE:
            r.pop(k, None)
        return json_dumps(r)

    return canon(a) == canon(b)


def _number(v):
    # the shortest text that reads back as v
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def _check(name, measured, bound, centre=None):
    """One named check: measured <= bound, or |measured - centre| <= bound
    when centre is given; relation writes the comparison with x for the
    measured value.  margin is the distance inside the bound, negative
    outside it.  A measured value of None (nothing was found to measure)
    fails, with no margin."""
    relation = ("x <=" if centre is None
                else f"|x {'+' if centre < 0 else '-'} {_number(abs(centre))}| <=")
    if measured is None:
        return {"name": name, "measured": None, "relation": relation, "bound": float(bound),
                "pass": False, "margin": None}
    distance = measured if centre is None else abs(measured - centre)
    return {"name": name, "measured": float(measured), "relation": relation,
            "bound": float(bound), "pass": bool(distance <= bound),
            "margin": float(bound - distance)}


# ---------------------------------------------------------------------------
# measured series helpers


# unit windows a window-averaged diagonal spans
_WINDOWS = 5


def window_averaged_diag(diag, lam):
    """The mean of diag over the unit windows lam + j, j < _WINDOWS: one
    diag call on every window of every lam (diag takes an array of
    lambdas); a float for a scalar lam, else one mean per lam."""
    # cluster sums oscillate about the Weyl mean; average a few unit windows
    means = np.mean(diag(np.add.outer(lam, np.arange(_WINDOWS))), axis=-1)
    return float(means) if means.ndim == 0 else means


def _series(grid, measured, predicted):
    return [{"grid": float(g), "measured": float(mv), "predicted": float(pv)}
            for g, mv, pv in zip(grid, measured, predicted)]


# ---------------------------------------------------------------------------
# core experiments

# zonal degrees of the concentration and L^p sweeps, about sqrt(2) apart
_K_GRID = (100, 141, 200, 283, 400, 566, 800)


def run_local_weyl_experiment(manifold, m, theta, x, lambda_min, lambda_max):
    """Window-averaged reduced diagonal of the label m against its local
    leading coefficient, at colatitude theta ("sphere") or x ("torus")."""
    lambda_grid = geometric_grid(lambda_min, lambda_max)
    if manifold == "sphere":
        ratio_bound = 0.05
        space, point = geometry.RoundSphere2(), geometry.sphere_point(theta, 0.0)
        # the colatitude read back from the point: the reports keep their bits
        theta = geometry.sphere_colatitude(point)
        diag = lambda lam: spectral.sphere_diag_direct(m, theta, lam)
        if min(theta, math.pi - theta) < 1e-9:
            tag = "pole"
        elif abs(theta - math.pi / 2) < 1e-9:
            tag = "equator"
        else:
            # distinct file name so an off-equator sweep cannot clobber
            # the equator report in a shared out-dir
            tag = f"theta{theta:.3g}"
        name = f"weyl-sphere-{tag}"
    else:
        ratio_bound = 0.01
        space, point = geometry.FlatTorus2(), tuple(x)
        # every torus mode has |e_j(x)|^2 = 1: the diagonal is the count
        diag = lambda lam: spectral.torus_count_direct(m, lam)
        # weyl-torus-m{m} would share a file name with the suite's weyl-torus-m3
        name = f"weyl-torus-label{m}"
    pred = weylcoef.local_leading_coefficient(space, point, m)
    measured = window_averaged_diag(diag, lambda_grid)
    predicted = np.array([pred.evaluate(lam) for lam in lambda_grid])
    series = _series(lambda_grid, measured, predicted)
    params = {
        "manifold": manifold,
        "x": [float(v) for v in np.atleast_1d(point)],
        "m": m,
        "lambda_min": float(lambda_grid[0]),
        "lambda_max": float(lambda_grid[-1]),
    }
    prediction = {"coefficient": pred.coefficient, "exponent": pred.exponent}
    if pred.coefficient == 0.0:
        # a label with no predicted growth: its diagonal must vanish
        return make_report(name, params, series, None, prediction,
                           [_check("max_diagonal", np.max(measured), 0.0)])
    # a log-log fit only sees the window where the diagonal is positive
    # (below (2 pi m)^2 a torus label has no modes); fit.grid records it
    positive = measured > 0
    fit = fit_power_law(lambda_grid[positive], measured[positive])
    ratio = float(measured[-1] / predicted[-1])
    return make_report(name, params, series, fit, prediction,
                       [_check("ratio_at_top", ratio, ratio_bound, centre=1.0)],
                       extra={"ratio_at_top": ratio})


def run_concentration_experiment(k_window):
    """Zonal cluster-sum profile: envelope vs 1/sin(theta), pole value vs k."""
    theta_grid = geometric_grid(0.05, 1.0, 2 ** 0.25)
    if np.any(k_window * np.sin(theta_grid) <= 1.0):
        warnings.warn("k sin(theta) <= 1 on part of the grid: pole regime mixes in",
                      RegimeWarning)
    k = int(k_window)
    # local maximum over a few oscillation periods around each theta: one
    # window a row, every window inside (0, pi), all of them on one ladder
    windows = np.outer(theta_grid, np.linspace(0.94, 1.06, 321))
    envelope = np.max(specfun.assoc_ladder(0, k, np.cos(windows), degrees=[k])[0] ** 2, axis=1)
    theta_fit = fit_power_law(np.sin(theta_grid), envelope)
    pole_vals = np.array([(2 * kk + 1) / (4.0 * math.pi) for kk in _K_GRID])
    # oracle route: the pole value is the full window sum, m = 0 only
    pole_measured = specfun.assoc_ladder(0, max(_K_GRID), 1.0, degrees=_K_GRID) ** 2
    pole_fit = fit_power_law(np.asarray(_K_GRID, dtype=float), pole_measured)
    series = _series(theta_grid, envelope,
                     [envelope[-1] * math.sin(theta_grid[-1]) / math.sin(t) for t in theta_grid])
    checks = [
        _check("theta_slope", theta_fit["slope"], 0.15, centre=-1.0),
        _check("pole_slope", pole_fit["slope"], 0.01, centre=1.0),
        _check("pole_value_rel_error",
               np.max(np.abs(pole_measured - pole_vals) / pole_vals), 1e-10),
    ]
    return make_report(
        "concentration",
        {"k_window": k, "theta_min": float(theta_grid[0]), "theta_max": float(theta_grid[-1]),
         "k_grid": list(_K_GRID)},
        series,
        theta_fit,
        {"theta_slope": -1.0, "pole_slope": 1.0},
        checks,
        extra={"fit_pole": pole_fit},
    )


def run_lp_experiment(manifold, m, p_list):
    """Cluster L^p growth of the label m on the "sphere" (zonal clusters) or
    the "torus", each cluster the top mode of a unit window."""
    if manifold == "sphere":
        k = np.array(_K_GRID)
        lam = k * (k + 1.0)
        # the grid's zonal modes, each alone in its window (lam - 1, lam]
        basis = eigensolve._sorted_basis(geometry.RoundSphere2(), lam, 0 * k,
                                         np.column_stack((k, 0 * k)), lam[-1])
        # zonal clusters pile up at the fixed points, where the orbit
        # collapses; the growth there follows the full-dimension exponent
        kappa, grid = 0, {"k_grid": list(_K_GRID)}
    else:
        lam = np.array([4.0 * math.pi ** 2 * (m * m + j * j) for j in range(1, 9)])
        # every torus orbit is a circle
        basis, kappa, grid = eigensolve.torus_basis(lam[-1]), 1, {}
    clusters = spectral.ReducedSpectralFunction(basis, m)
    series = []
    fits = {}
    checks = []
    for p in p_list:
        norms = np.array([spectral.cluster_lp_norm(clusters, l - 1.0, p) for l in lam])
        key = "inf" if math.isinf(p) else f"{p:g}"
        expected = spectral.exponent_delta(2, kappa, p) / 2.0
        if np.ptp(norms) <= 1e-12 * max(1.0, np.max(norms)):
            fits[key] = {"slope": 0.0, "intercept": float(np.log(norms[0])), "r_squared": 1.0,
                         "grid": lam.tolist()}
            bound = 1e-6
        else:
            fits[key] = fit_power_law(lam, norms)
            bound = 0.02
        checks.append(_check(f"slope_p{key}", fits[key]["slope"], bound, centre=expected))
        for l, v in zip(lam, norms):
            series.append({"grid": float(l), "p": key, "measured": float(v),
                           "predicted": float(l ** expected)})
    return make_report(
        f"lpnorms-{manifold}",
        {"m": m, **grid, "p_list": ["inf" if math.isinf(p) else float(p) for p in p_list]},
        series,
        fits.get("inf"),
        {"exponent_of_lambda": spectral.exponent_delta(2, kappa, math.inf) / 2.0},
        checks,
        extra={"fits": fits},
    )


def run_counting_experiment(manifold, m, lambda_top):
    """Isotypic counts: on the "sphere" every |m| <= 100 (or the one label
    m) at lambda_top, exactly; on the "torus" the sqrt(lambda) growth over
    lambda_top / 100 .. lambda_top."""
    if manifold == "sphere":
        lam_top = float(lambda_top)
        ms, scope = (range(-100, 101), {"m_range": 100}) if m == 0 else ([m], {"m": m})
        # the levels k(k+1) <= lambda are k = 0 .. top: the largest k with
        # k^2 <= lambda, or one less when its k(k+1) passes lambda
        top = math.isqrt(int(lam_top))
        if top * (top + 1) > lam_top:
            top -= 1
        series = []
        devs = []
        for mm in ms:
            count = spectral.sphere_count_direct(mm, lam_top)
            # the label m has one mode a level k >= |m|
            predicted = max(0, top - abs(mm) + 1)
            series.append({"grid": float(mm), "measured": float(count),
                           "predicted": float(predicted)})
            devs.append(abs(count - predicted))
        # the counts are exact: no deviation is allowed
        return make_report(
            "counting-sphere", {**scope, "lambda": lam_top}, series, None,
            {"count_rule": "#{k >= |m|: k(k+1) <= lambda}"},
            [_check("max_deviation", max(devs), 0.0)],
        )
    lambda_grid = geometric_grid(lambda_top / 100.0, lambda_top)
    counts = spectral.torus_count_direct(m, lambda_grid)
    pred_coeff = 1.0 / math.pi
    series = _series(lambda_grid, counts, [pred_coeff * math.sqrt(l) for l in lambda_grid])
    # as in weyl, the log-log fit sees only the positive counts; fit.grid records them
    positive = counts > 0
    fit = fit_power_law(lambda_grid[positive], counts[positive])
    coeff_top = float(counts[-1] / math.sqrt(lambda_grid[-1]))
    return make_report(
        "counting-torus", {"m": m, "lambda_max": float(lambda_grid[-1])}, series, fit,
        {"coefficient": pred_coeff, "exponent": 0.5},
        # within 1% of the predicted coefficient
        [_check("coefficient_at_top", coeff_top, 0.01 * pred_coeff, centre=pred_coeff)],
    )


def run_kuznecov_experiment(lambda_top, points, seed):
    """Group-averaged squared sums against the trivial-isotypic diagonal."""
    basis = eigensolve.sphere_basis(lambda_top)
    # the label-0 modes are evaluated at every point in one array
    evaluations = len(basis.label_rows(0, lambda_top)) * points
    if evaluations > MAX_GRID_NODES:
        raise ResourceLimitError(f"{points} points need {evaluations} label-0 mode evaluations, "
                                 f"more than {MAX_GRID_NODES}")
    # one (cos theta, phi) row a point, drawn in the order of one draw after
    # the other; math.acos a value, as np.arccos may move the last bits
    cos_theta, phi = np.random.default_rng(seed).uniform(
        [-1.0, 0.0], [1.0, 2.0 * math.pi], (points, 2)).T
    thetas = np.array([math.acos(c) for c in cos_theta.tolist()])
    z, rho = np.cos(thetas), np.sin(thetas)
    xs = np.column_stack((rho * np.cos(phi), rho * np.sin(phi), z))
    sums = spectral.kuznecov_sum(basis, xs, lambda_top)
    # the diagonal at the colatitude read back from each point
    diags = spectral.sphere_diag_direct(0, np.array([math.acos(c) for c in z.tolist()]),
                                        lambda_top)
    # np.max, not max: a NaN error is the worst, never dropped
    worst = np.max(np.abs(sums - diags) / np.maximum(1.0, np.abs(diags)), initial=0.0)
    series = _series(thetas, sums, diags)
    # equator growth against the closed-form coefficient
    lam_equator = 1e6
    equator = window_averaged_diag(lambda l: spectral.sphere_diag_direct(0, math.pi / 2, l),
                                   lam_equator)
    coeff = weylcoef.equator_coefficient_closed_form(math.pi / 2)
    growth_ratio = equator / (coeff * math.sqrt(lam_equator))
    return make_report(
        "kuznecov",
        {"lambda_identity": float(lambda_top), "n_points": points, "seed": seed},
        series, None, {"equator_coefficient": coeff},
        [_check("worst_identity_error", worst, 1e-10),
         _check("growth_ratio", growth_ratio, 0.05, centre=1.0)],
    )


# ---------------------------------------------------------------------------
# oscillatory-integral experiments


def _gaussian_problem():
    # e^{i mu x^2/2} e^{-x^2/2} on [-12, 12]: one nondegenerate critical point
    return statphase.StationaryPhaseProblem(
        lambda X: 0.5 * X[..., 0] ** 2,
        lambda X: np.exp(-0.5 * X[..., 0] ** 2),
        statphase.BoxDomain((-12.0,), (12.0,)),
        critical=("points", [np.array([0.0])]),
    )


def run_statphase_gaussian_experiment(mu_grid):
    if mu_grid is None:
        mu_grid = geometric_grid(20.0, 400.0)
    mu_grid = np.asarray(mu_grid, dtype=float)
    problem = _gaussian_problem()
    expansion = statphase.stationary_expansion(problem)
    series = []
    gaps = []
    rels = []
    for mu in mu_grid:
        numeric = statphase.oscillatory_integral(problem, mu)
        exact = math.sqrt(2.0 * math.pi) / (1.0 - 1j * mu) ** 0.5
        predict = statphase.stationary_prediction(expansion, mu)
        rels.append(abs(numeric - exact) / abs(exact))
        gaps.append(abs(numeric - predict))
        series.append({"grid": float(mu), "measured": abs(numeric), "predicted": abs(predict)})
    gaps = np.array(gaps)
    remainder_fit = fit_power_law(mu_grid, gaps)
    scaled = gaps * mu_grid ** 1.5
    median = float(np.median(scaled))
    return make_report(
        "statphase-gaussian",
        {"mu_min": float(mu_grid[0]), "mu_max": float(mu_grid[-1])},
        series, remainder_fit,
        {"signature": expansion["signature"][0], "order": -0.5},
        [_check("worst_exact_rel", np.max(rels), 1e-6),
         _check("remainder_slope", remainder_fit["slope"], 0.2, centre=-1.5),
         # the mu^(3/2)-scaled remainder stays within twice its median
         _check("scaled_remainder_max", np.max(scaled), 2.0 * median + 1e-12)],
        extra={"scaled_remainder_median": median},
    )


def run_statphase_sphere_experiment(mu_grid):
    """The sphere integral of e^{i mu z}, exactly 4 pi sin(mu) / mu."""
    if mu_grid is None:
        # sample the envelope at its peaks |sin(mu)| = 1, spaced
        # geometrically: tensor quadratures are too costly for dense grids
        targets = np.asarray(geometric_grid(20.0, 400.0, 2 ** 0.25))
        ks = sorted({int(round(t / math.pi - 0.5)) for t in targets})
        mu_grid = np.array([(k + 0.5) * math.pi for k in ks])
    mu_grid = np.asarray(mu_grid, dtype=float)
    problem = statphase.StationaryPhaseProblem(
        lambda W: W[..., 2], None, statphase.SphereDomain()
    )
    vals = []
    rels = []
    for mu in mu_grid:
        numeric = statphase.oscillatory_integral(problem, mu)
        exact = 4.0 * math.pi * math.sin(mu) / mu
        rels.append(abs(numeric - exact) / (4.0 * math.pi / mu))
        vals.append(abs(numeric))
    fit = fit_power_law(mu_grid, np.array(vals))
    series = _series(mu_grid, vals, [4.0 * math.pi / m for m in mu_grid])
    return make_report(
        "statphase-sphere",
        {"v": [0.0, 0.0, 1.0], "mu_min": float(mu_grid[0]), "mu_max": float(mu_grid[-1])},
        series, fit, {"order": -1.0},
        [_check("decay_slope", fit["slope"], 0.05, centre=-1.0),
         _check("worst_exact_rel", np.max(rels), 1e-6)],
    )


def run_hybrid_experiment(mu_grid):
    band_d = (0.02, 0.05, 0.1, 0.2, 0.5)
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    if mu_grid is None:
        # the off-orbit legs beat with a mu-period ~ 2 pi / diam, so bin
        # maxima need dense sampling, not just many octaves
        mu_grid = geometric_grid(50.0, 400.0, 2 ** (1.0 / 64.0))
    mu_grid = np.asarray(mu_grid, dtype=float)
    if len(mu_grid) < 8:
        raise DomainError("mu_grid needs at least 8 points")
    ratios = mu_grid[1:] / mu_grid[:-1]
    if np.any(ratios <= 1.0) or np.ptp(ratios) > 0.2 * ratios[0]:
        raise DomainError("mu_grid must be geometric and increasing")
    dist = statphase.orbit_distance(x, y)
    if mu_grid[0] * dist < 3.0:
        warnings.warn(f"mu_min * dist = {mu_grid[0] * dist:.3g} < 3: mixed regime for the "
                      "off-orbit fit", RegimeWarning)
    # x and y lie on different orbits: the on-orbit row x beside the
    # off-orbit row y, one call a mu, each row's |I| fitted on its envelope
    vals = np.abs(np.array([statphase.hybrid_integral(x, [x, y], mu) for mu in mu_grid]))
    on_fit, off_fit = (fit_power_law(*envelope_maxima(mu_grid, v)) for v in vals.T)
    series = _series(mu_grid, vals[:, 0], vals[:, 1])
    # two-regime check: the scaled envelope |I| mu (mu d + 1)^(1/2) must stay
    # within a factor 2 of its central constant across the crossover, at every d
    theta_x = geometry.sphere_colatitude(x)
    y_band = np.array([geometry.sphere_point(theta_x + 2.0 * math.asin(dd / 2.0), 0.0)
                       for dd in band_d])
    sweeps = [np.asarray(geometric_grid(max(0.1 / dd, 20.0), 100.0 / dd, 2 ** 0.0625))
              for dd in band_d]
    # the sweeps share their start and ratio, so a prefix of mu values: one
    # call a distinct mu, its rows the separations that sweep it
    rows_at = {}
    for i, mus in enumerate(sweeps):
        for mu in mus.tolist():
            rows_at.setdefault(mu, []).append(i)
    swept = [[] for _ in band_d]
    # every sweep rises, so in rising mu each row's values come in its order
    for mu in sorted(rows_at):
        vals = np.abs(statphase.hybrid_integral(x, y_band[rows_at[mu]], mu))
        for i, v in zip(rows_at[mu], vals.tolist()):
            swept[i].append(v)
    band = {}
    for dd, mus, vals in zip(band_d, sweeps, swept):
        env_mu, env = envelope_maxima(mus, np.array(vals) * mus * np.sqrt(mus * dd + 1.0))
        lo, hi = float(np.min(env)), float(np.max(env))
        center = math.sqrt(lo * hi)
        band[f"{dd:g}"] = {"low": lo, "high": hi, "center": center,
                           "spread": hi / lo, "worst_factor": max(hi / center, center / lo)}
    checks = [
        _check("on_slope", on_fit["slope"], 0.1, centre=-1.0),
        _check("off_slope", off_fit["slope"], 0.1, centre=-1.5),
        _check("band_worst_factor", max(b["worst_factor"] for b in band.values()), 2.0),
    ]
    return make_report(
        "hybrid",
        {"x": [float(c) for c in np.asarray(x)], "y": [float(c) for c in np.asarray(y)],
         "mu_min": float(mu_grid[0]), "mu_max": float(mu_grid[-1]),
         "band_d": list(band_d)},
        series,
        on_fit,
        {"on_slope": -1.0, "off_slope": -1.5},
        checks,
        extra={"fit_off": off_fit, "orbit_distance": dist, "band": band},
    )


def run_interp_experiment(mu_tau_grid, epsilon):
    if mu_tau_grid is None:
        mu_tau_grid = geometric_grid(2.0, 100.0)
    problem = _gaussian_problem()
    series = []
    rels = []
    for mt in mu_tau_grid:
        numeric, prediction = statphase.caustic_interpolation(problem, float(mt), epsilon)
        rels.append(abs(numeric - prediction) / abs(numeric))
        series.append({"grid": float(mt), "measured": abs(numeric), "predicted": abs(prediction)})
    # mu tau = 0 collapses to the plain amplitude integral
    flat = statphase.oscillatory_integral(problem, 0.0)
    return make_report(
        "interp",
        {"epsilon": epsilon, "mu_tau_min": float(mu_tau_grid[0]),
         "mu_tau_max": float(mu_tau_grid[-1])},
        series, None, {"regularized_power": "(mu tau + epsilon)^(-1/2)"},
        [_check("worst_rel", np.max(rels), 0.35),
         _check("flat_gap", abs(flat - math.sqrt(2.0 * math.pi)), 1e-12)],
    )


# the separations delta of critscan's pairs y = (theta + delta, 0) from x = (theta, 0)
_SCAN_DELTAS = (0.02, 0.04, 0.08, 0.16, 0.3)


def run_critscan_experiment(theta):
    x = geometry.sphere_point(theta, 0.0)
    on = statphase.critical_set_scan(x, x)
    deviation = statphase.closed_form_deviation(x, x, on)
    # the on-orbit scan holds a circle, where R_phi x = x, and every
    # component is critical: its worst gradient, measured only with a circle
    circle_found = bool(np.any(on["trans_dim"] == 2))
    on_grad = np.max(on["grad_norm"]) if circle_found else None
    dets, exact_dets = [], []
    for d in _SCAN_DELTAS:
        y = geometry.sphere_point(theta + d, 0.0)
        scan = statphase.critical_set_scan(x, y)
        deviation = max(deviation, statphase.closed_form_deviation(x, y, scan))
        # the isolated component of least |phase|: the scan's first; just
        # off the pole a scan may find none, and its det is missing (nan)
        isolated = scan["trans_det"][scan["trans_dim"] == 3]
        dets.append(abs(isolated[0]) if len(isolated) else math.nan)
        exact_dets.append(statphase.closed_form_det(x, y))
    dets, exact_dets = np.array(dets), np.array(exact_dets)
    series = _series(_SCAN_DELTAS, dets, _SCAN_DELTAS)
    # a missing det leaves nothing to fit: det_slope fails with no measurement
    fit = fit_power_law(np.asarray(_SCAN_DELTAS), dets) if np.isfinite(dets).all() else None
    return make_report(
        "critscan",
        {"theta": float(theta), "deltas": list(_SCAN_DELTAS)},
        series, fit, {"det_slope": 1.0},
        [_check("on_orbit_grad_norm", on_grad, statphase.SCAN_GRAD_TOL),
         _check("det_slope", None if fit is None else fit["slope"], 0.1, centre=1.0),
         _check("closed_form_deviation", deviation, 1e-9)],
        extra={"on_orbit_components": len(on["phi"]),
               "on_orbit_circle_found": circle_found,
               # reported beside the scanned dets, not checked
               "closed_form_dets": exact_dets.tolist(),
               "closed_form_det_gap": float(np.max(np.abs(dets - exact_dets) / exact_dets))},
    )


# ---------------------------------------------------------------------------
# subcommand records


def parse_grid(text):
    """A geometric grid "start:stop:count", or an explicit "a,b,c" list."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if start <= 0 or stop <= start or count < 2:
            raise ValueError(f"grid {text!r} needs 0 < start < stop and count >= 2")
        return list(np.geomspace(start, stop, count))
    return [float(v) for v in text.split(",")]


def parse_pair(text):
    vals = [float(v) for v in str(text).split(",")]
    if len(vals) != 2:
        raise ValueError(f"expected two comma-separated values, got {text!r}")
    return vals


def parse_plist(text):
    # float() reads "inf" and "infinity" in any case
    return [float(v) for v in str(text).split(",")]


# checks yield one message per violation; they never see None


def _is_number(v):
    # a JSON true is no number, though bool is an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v):
    return isinstance(v, (list, tuple)) and all(_is_number(c) for c in v)


def _positive(key, v):
    if not (_is_number(v) and 0 < v < math.inf):
        yield f"{key} must be a finite positive number, got {v!r}"


def _integer(key, v):
    if not (_is_number(v) and isinstance(v, int)):
        yield f"{key} must be an integer, got {v!r}"


def _count(key, v):
    yield from _integer(key, v)
    if _is_number(v) and v < 1:
        yield f"{key} must be at least 1"


def _colatitude(key, v):
    if not (_is_number(v) and 0.0 <= v <= math.pi):
        yield f"{key} must lie in [0, pi], got {v}"


def _scan_colatitude(key, v):
    if not (_is_number(v) and 0.0 < v and v + max(_SCAN_DELTAS) < math.pi):
        yield (f"{key} must lie in (0, pi - {max(_SCAN_DELTAS):g}), got {v!r}: at 0 the on-orbit "
               "phase vanishes identically, and from the top up a pair y reaches the south pole")


def _point(key, v):
    if not (_is_numbers(v) and len(v) == 2 and all(math.isfinite(c) for c in v)):
        yield f"{key} must be two finite numbers, got {v!r}"


def _switch(key, v):
    if not isinstance(v, bool):
        yield f"{key} must be true or false, got {v!r}"


def _grid(key, v):
    if not (_is_numbers(v) and len(v) >= 2 and all(0 < c < math.inf for c in v)
            and all(a < b for a, b in zip(v, v[1:]))):
        yield f"{key} must be a strictly increasing grid of finite positive numbers"


def _p_floor(key, v):
    if not (_is_numbers(v) and v):
        yield f"{key} must be a non-empty list of numbers, got {v!r}"
        return
    for p in v:
        if not p >= 2:
            yield f"{key} entries must be >= 2, got {p}"


def _suite_ids(key, v):
    if not (isinstance(v, list) and v and all(isinstance(name, str) for name in v)):
        yield f"{key} must be a non-empty list of experiment ids, got {v!r}"
        return
    yield from (f"unknown experiment {name!r} in {key}" for name in v if name not in EXPERIMENTS)
    yield from (f"{key} names {name!r} more than once"
                for name in sorted(set(v)) if v.count(name) > 1)


def _weyl_checks(params):
    lo, hi = params["lambda_min"], params["lambda_max"]
    if _is_number(lo) and _is_number(hi) and not lo < hi:
        yield f"lambda_min {lo} must be below lambda_max {hi}"
    # the point of the other manifold would go unread
    other = "x" if params["manifold"] == "sphere" else "theta"
    if params[other] is not None:
        yield f"{other} gives no point on the {params['manifold']}"


def _zonal_on_sphere(params):
    if params["manifold"] == "sphere" and params["m"] != 0:
        yield f"lpnorms on the sphere measures zonal modes: m must be 0, got {params['m']}"


def _suite_selection(params):
    if params["names"] is None and not params["all"]:
        yield "suite needs --all or --names"


@dataclass(frozen=True)
class Param:
    """One option of a subcommand.  key is both the flag's dest and the
    config-file key; default may be a callable of the other parameters;
    parse reads flag text (and string values in a config file); check
    yields one message per violation; switch makes a store-true flag."""

    key: str
    default: object = None
    parse: object = None
    choices: tuple | None = None
    check: object = None
    help: str | None = None
    flag: str = ""
    switch: bool = False

    def __post_init__(self):
        if not self.flag:
            object.__setattr__(self, "flag", "--" + self.key.replace("_", "-"))


@dataclass(frozen=True)
class Command:
    """One subcommand: run(**params) returns a report.  check yields the
    violations that involve several parameters.  The suite has no run: the
    front end runs it, since it returns many reports."""

    name: str
    help: str
    run: object
    params: tuple = ()
    check: object = None

    def resolve(self, given):
        """Every parameter: the given value unless None, else the default;
        callable defaults are evaluated last, on the other values."""
        params = {p.key: p.default if given.get(p.key) is None else given[p.key]
                  for p in self.params}
        for key, value in params.items():
            if callable(value):
                params[key] = value(params)
        return params


def _on_sphere_else(sphere, torus):
    return lambda params: sphere if params["manifold"] == "sphere" else torus


_STATPHASE_PRESETS = {"gaussian": run_statphase_gaussian_experiment,
                      "sphere": run_statphase_sphere_experiment}

_MANIFOLD = Param("manifold", "sphere", choices=("sphere", "torus"))

COMMANDS = {c.name: c for c in (
    Command("weyl", "local growth of the reduced diagonal", run_local_weyl_experiment, (
        _MANIFOLD,
        Param("m", 0, int, check=_integer),
        Param("theta", _on_sphere_else(math.pi / 2, None), float, check=_colatitude,
              help="colatitude of the sphere point"),
        Param("x", _on_sphere_else(None, (0.25, 0.35)), parse_pair, check=_point,
              help="torus point 'a,b'"),
        Param("lambda_min", 1e3, float, check=_positive),
        Param("lambda_max", 1e6, float, check=_positive),
    ), _weyl_checks),
    Command("counting", "isotypic eigenvalue counts", run_counting_experiment, (
        _MANIFOLD,
        Param("m", _on_sphere_else(0, 2), int, check=_integer),
        Param("lambda_top", 1e6, float, check=_positive, flag="--lambda"),
    )),
    Command("concentration", "zonal cluster-sum profiles", run_concentration_experiment, (
        Param("k_window", 500, int, check=_count),
    )),
    Command("lpnorms", "cluster L^p norm growth", run_lp_experiment, (
        _MANIFOLD,
        Param("m", _on_sphere_else(0, 3), int, check=_integer),
        Param("p_list", (2.0, math.inf), parse_plist, check=_p_floor,
              help="comma list, 'inf' allowed"),
    ), _zonal_on_sphere),
    Command("kuznecov", "group-averaged sums vs trivial diagonal", run_kuznecov_experiment, (
        Param("lambda_top", 1e4, float, check=_positive, flag="--lambda"),
        Param("points", 20, int, check=_count),
        Param("seed", 20260815, int, check=_integer),
    )),
    Command("statphase", "oscillatory-integral benchmarks",
            lambda preset, mu_grid: _STATPHASE_PRESETS[preset](mu_grid), (
        Param("preset", "gaussian", choices=tuple(_STATPHASE_PRESETS)),
        Param("mu_grid", None, parse_grid, check=_grid,
              help="geometric grid start:stop:count"),
    )),
    Command("hybrid", "orbit-pair decay rates", run_hybrid_experiment, (
        Param("mu_grid", None, parse_grid, check=_grid),
    )),
    Command("interp", "caustic-regularized prediction quality", run_interp_experiment, (
        Param("epsilon", 1.0, float, check=_positive),
        Param("mu_tau_grid", None, parse_grid, check=_grid),
    )),
    Command("critscan", "critical-set geometry of the pairing phase", run_critscan_experiment, (
        Param("theta", 1.2, float, check=_scan_colatitude),
    )),
    Command("suite", "run many experiments and write reports", None, (
        Param("all", False, switch=True, check=_switch, help="run the whole registry"),
        Param("names", None, lambda text: text.split(","), check=_suite_ids,
              help="comma list of experiment ids"),
    ), _suite_selection),
)}


# ---------------------------------------------------------------------------
# suite ids


@dataclass(frozen=True)
class SuiteEntry:
    """A suite id: a subcommand with some parameters fixed.  sweep = (key,
    values) runs it once per value and merges the parts into one report."""

    command: str
    fixed: dict = field(default_factory=dict)
    sweep: tuple | None = None


EXPERIMENTS = {
    "weyl-torus-m3": SuiteEntry("weyl", {"manifold": "torus"}, ("m", (0, 3, 10))),
    "weyl-sphere-equator": SuiteEntry("weyl", {"theta": math.pi / 2}),
    "weyl-sphere-pole": SuiteEntry("weyl", {"theta": 0.0}),
    "counting-sphere": SuiteEntry("counting", {"manifold": "sphere"}),
    "counting-torus": SuiteEntry("counting", {"manifold": "torus"}),
    "concentration": SuiteEntry("concentration"),
    "lpnorms-sphere": SuiteEntry("lpnorms", {"manifold": "sphere"}),
    "lpnorms-torus": SuiteEntry("lpnorms", {"manifold": "torus"}),
    "kuznecov": SuiteEntry("kuznecov"),
    "statphase-gaussian": SuiteEntry("statphase", {"preset": "gaussian"}),
    "statphase-sphere": SuiteEntry("statphase", {"preset": "sphere"}),
    "hybrid": SuiteEntry("hybrid"),
    "interp": SuiteEntry("interp"),
    "critscan": SuiteEntry("critscan"),
}


def _merge_parts(name, key, parts):
    """One report from the parts of a sweep over key.  Its checks are every
    part's, each name tagged with the part's value, e.g. ratio_at_top[m=3];
    each part keeps its params, fit, prediction, verdict and ratio.  The
    worst check is the one of least margin: worst_<key> names its part,
    worst_check the check, and the headline ratio is that part's."""
    tagged = [(dict(c, name=f"{c['name']}[{key}={r['params'][key]}]"), r)
              for r in parts for c in r["checks"]]
    worst, part = min(tagged, key=lambda t: t[0]["margin"])
    return make_report(
        name,
        {key: [r["params"][key] for r in parts]},
        [dict(row, **{key: r["params"][key]}) for r in parts for row in r["series"]],
        None,
        None,
        [c for c, _ in tagged],
        extra={
            "parts": [{k: r[k] for k in ("params", "fit", "prediction", "verdict", "ratio_at_top")}
                      for r in parts],
            "ratio_at_top": part["ratio_at_top"],
            f"worst_{key}": part["params"][key],
            "worst_check": worst["name"],
        },
    )


@_stamped
def run_command(name, params):
    """Run one subcommand other than the suite on resolved parameters."""
    return COMMANDS[name].run(**params)


@_stamped
def run_experiment(name):
    """Run one suite id: its subcommand with every default, then the fixed
    parameters."""
    if name not in EXPERIMENTS:
        raise DomainError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    entry = EXPERIMENTS[name]
    command = COMMANDS[entry.command]
    if entry.sweep is None:
        return command.run(**command.resolve(entry.fixed))
    key, values = entry.sweep
    parts = [command.run(**command.resolve({**entry.fixed, key: v})) for v in values]
    return _merge_parts(name, key, parts)


def run_suite(names=None):
    """Run the named suite ids (every one, in registry order, when names is
    None) one after another and return their reports in order."""
    return [run_experiment(name) for name in names or EXPERIMENTS]
