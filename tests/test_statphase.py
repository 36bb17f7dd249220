"""Oscillatory integrals, their leading expansions, and pairing-phase scans."""
import cmath
import math
import types
import warnings

import numpy as np
import pytest

from equiweyl import geometry, statphase
from equiweyl.errors import (
    DegenerateCriticalError,
    DomainError,
    RegimeWarning,
    ResolutionError,
)


def rotate_z(phi, v):
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([c * v[0] - s * v[1], s * v[0] + c * v[1],
                     np.broadcast_to(v[2], np.shape(phi))], axis=-1)


def pairing_phase(x, y):
    """<x - R_phi y, omega> as a vectorized phase on S^2 x S^1."""
    def pairing(W, ph):
        return np.sum(W * (x[None, :] - rotate_z(ph, y)), axis=-1)
    return pairing


def closed_form_critical_points(x, y):
    """Isolated critical points of <x - R_phi y, omega>: R_phi y shares the
    azimuth of x or its opposite, and omega = +-(x - R_phi y)/|x - R_phi y|."""
    base = math.atan2(x[1], x[0]) - math.atan2(y[1], y[0])
    points = []
    for phi in (base, base + math.pi):
        v = x - rotate_z(phi, y)
        n = np.linalg.norm(v)
        if n > 1e-12:
            points += [(v / n, phi), (-v / n, phi)]
    return points


def closed_form_gaps(record, points):
    """Distance of a scanned record from each closed-form critical point."""
    return [max(np.linalg.norm(np.asarray(record.omega) - w),
                abs(math.remainder(record.phi - phi, 2.0 * math.pi)))
            for w, phi in points]


def gaussian_problem(width=12.0, nodes=None):
    return statphase.StationaryPhaseProblem(
        lambda X: 0.5 * X[..., 0] ** 2,
        lambda X: np.exp(-0.5 * X[..., 0] ** 2),
        statphase.BoxDomain((-width,), (width,), nodes=nodes),
        critical=("points", [np.array([0.0])]),
    )


def plane_wave_problem(declare_poles=False):
    v = np.array([0.0, 0.0, 1.0])
    crit = None
    if declare_poles:
        crit = ("points", [v.copy(), -v])
    return statphase.StationaryPhaseProblem(
        lambda W: W @ v, None, statphase.SphereDomain(), critical=crit
    )


def test_nodes_for_growth():
    assert statphase.nodes_for(1.0, 1.0, 1.0) == 64
    n = statphase.nodes_for(400.0, 1.0, 24.0)
    assert n >= 6 * 400 * 24 / (2 * math.pi) - 1
    assert statphase.nodes_for(800.0, 1.0, 24.0) > n


def test_gaussian_exact():
    # int e^{i mu x^2/2 - x^2/2} dx = sqrt(2 pi / (1 - i mu))
    prob = gaussian_problem()
    for mu in (10.0, 50.0, 400.0):
        got = statphase.oscillatory_integral(prob, mu)
        want = cmath.sqrt(2.0 * math.pi / (1.0 - 1j * mu))
        assert abs(got - want) / abs(want) <= 1e-12


def test_gaussian_expansion():
    exp = statphase.stationary_expansion(gaussian_problem())
    assert exp.n == 1
    assert exp.signature == 1
    assert exp.psi0 == pytest.approx(0.0, abs=1e-12)
    assert exp.q0 == pytest.approx(cmath.exp(1j * math.pi / 4.0), rel=1e-8)
    assert abs(exp.predict(10.0)) == pytest.approx(
        math.sqrt(2.0 * math.pi / 10.0), rel=1e-8)


def test_gaussian_prediction_error_scaling():
    # the remainder after the leading term decays one full power faster
    prob = gaussian_problem()
    exp = statphase.stationary_expansion(prob)
    scaled = []
    for mu in (20.0, 80.0, 320.0):
        err = abs(statphase.oscillatory_integral(prob, mu) - exp.predict(mu))
        scaled.append(err * mu ** 1.5)
    assert max(scaled) <= 2.0 * min(scaled) + 1e-9


def test_box_2d_separable():
    prob = statphase.StationaryPhaseProblem(
        lambda X: 0.5 * (X[..., 0] ** 2 + X[..., 1] ** 2),
        lambda X: np.exp(-0.5 * (X[..., 0] ** 2 + X[..., 1] ** 2)),
        statphase.BoxDomain((-8.0, -8.0), (8.0, 8.0)),
    )
    got = statphase.oscillatory_integral(prob, 30.0)
    want = 2.0 * math.pi / (1.0 - 30.0j)
    assert abs(got - want) / abs(want) <= 1e-11


def test_box_requires_decayed_amplitude():
    with pytest.raises(DomainError):
        statphase.StationaryPhaseProblem(
            lambda X: X[..., 0],
            lambda X: np.ones_like(X[..., 0]),
            statphase.BoxDomain((-1.0,), (1.0,)),
        )
    with pytest.raises(DomainError):
        statphase.StationaryPhaseProblem(
            lambda X: X[..., 0], None, statphase.BoxDomain((-1.0,), (1.0,)))
    # a box look-alike that is not one of the statphase domains
    with pytest.raises(DomainError):
        statphase.StationaryPhaseProblem(
            lambda X: X[..., 0],
            lambda X: np.exp(-X[..., 0] ** 2),
            types.SimpleNamespace(lo=(-1.0,), hi=(1.0,), dim=1, nodes=None))


def test_critical_point_must_be_critical():
    with pytest.raises(DomainError):
        statphase.StationaryPhaseProblem(
            lambda X: 0.5 * X[..., 0] ** 2,
            lambda X: np.exp(-0.5 * X[..., 0] ** 2),
            statphase.BoxDomain((-12.0,), (12.0,)),
            critical=("points", [np.array([0.7])]),
        )


def test_degenerate_hessian_rejected():
    prob = statphase.StationaryPhaseProblem(
        lambda X: 0.25 * X[..., 0] ** 4,
        lambda X: np.exp(-0.5 * X[..., 0] ** 2),
        statphase.BoxDomain((-12.0,), (12.0,)),
        critical=("points", [np.array([0.0])]),
    )
    with pytest.raises(DegenerateCriticalError):
        statphase.stationary_expansion(prob)


def test_resolution_cap():
    prob = gaussian_problem(nodes=(128,))
    with pytest.raises(ResolutionError):
        prob.resolve_nodes(4000.0)


def test_sphere_plane_wave_exact():
    prob = plane_wave_problem()
    for mu in (20.0, 95.5, 333.0):
        got = statphase.oscillatory_integral(prob, mu)
        want = 4.0 * math.pi * math.sin(mu) / mu
        assert abs(got - want) <= 1e-10 * (4.0 * math.pi / mu) + 1e-13


def test_sphere_expansion_structure():
    exp = statphase.stationary_expansion(plane_wave_problem(declare_poles=True))
    assert exp.n == 2
    assert len(exp.components) == 2
    by_psi = {round(c.psi0): c for c in exp.components}
    assert set(by_psi) == {-1, 1}
    # the max at psi = +1 carries signature -2, the min at -1 carries +2
    assert by_psi[1].signature == -2
    assert by_psi[-1].signature == 2
    for c in exp.components:
        assert abs(c.q0) == pytest.approx(1.0, rel=1e-6)
        assert c.p == 0
    got = exp.predict(50.0)
    want = 4.0 * math.pi * math.sin(50.0) / 50.0
    assert abs(got - want) / (4.0 * math.pi / 50.0) <= 1e-4
    assert exp.envelope(50.0) == pytest.approx(4.0 * math.pi / 50.0, rel=1e-6)

    # the amplitude route: 1 + z^2 is 2 at both poles
    v = np.array([0.0, 0.0, 1.0])
    prob = statphase.StationaryPhaseProblem(
        lambda W: W @ v, lambda W: 1.0 + W[..., 2] ** 2, statphase.SphereDomain(),
        critical=("points", [v.copy(), -v]))
    exp = statphase.stationary_expansion(prob)
    for c in exp.components:
        assert abs(c.q0) == pytest.approx(2.0, rel=1e-6)
    mu = 200.0
    numeric = statphase.oscillatory_integral(prob, mu)
    assert abs(exp.predict(mu) - numeric) * mu / (4.0 * math.pi) <= 2e-2


def test_curve_critical_set():
    # phase y^2/2 is stationary along the x-axis; the transversal Hessian is 1
    prob = statphase.StationaryPhaseProblem(
        lambda X: 0.5 * X[..., 1] ** 2,
        lambda X: np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2)),
        statphase.BoxDomain((-6.0, -6.0), (6.0, 6.0)),
        critical=("curve", lambda t: np.stack([t, np.zeros_like(t)], axis=-1),
                  (-6.0, 6.0), False),
    )
    exp = statphase.stationary_expansion(prob)
    assert exp.p == 1
    assert exp.signature == 1
    # q0 collects the amplitude line integral: int e^{-t^2} dt = sqrt(pi)
    assert abs(exp.q0) == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    mu = 200.0
    got = statphase.oscillatory_integral(prob, mu)
    assert abs(exp.predict(mu) - got) / abs(got) <= 2e-2


def test_curve_must_stay_critical():
    prob = statphase.StationaryPhaseProblem(
        lambda X: 0.5 * X[..., 1] ** 2 + 0.1 * X[..., 0] ** 2,
        lambda X: np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2)),
        statphase.BoxDomain((-6.0, -6.0), (6.0, 6.0)),
        critical=("curve", lambda t: np.stack([t, np.zeros_like(t)], axis=-1),
                  (-6.0, 6.0), False),
    )
    with pytest.raises(DomainError):
        statphase.stationary_expansion(prob)


def test_caustic_product_invariance():
    prob = gaussian_problem()
    a = statphase.caustic_interpolation(prob, 25.0, 2.0, 1.0)
    b = statphase.caustic_interpolation(prob, 50.0, 1.0, 1.0)
    assert a.numeric == b.numeric
    assert a.prediction == pytest.approx(b.prediction, rel=1e-12)
    assert a.base == b.base == 51.0


def test_caustic_flat_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        out = statphase.caustic_interpolation(gaussian_problem(), 50.0, 0.0, 1.0)
    assert abs(out.numeric - math.sqrt(2.0 * math.pi)) <= 1e-12
    assert not out.regime_ok


def test_caustic_regime_warning():
    with pytest.warns(RegimeWarning):
        statphase.caustic_interpolation(gaussian_problem(), 1.0, 0.5, 0.5)


def test_caustic_prediction_band():
    prob = gaussian_problem()
    for mt in (2.0, 8.0, 32.0, 100.0):
        out = statphase.caustic_interpolation(prob, mt, 1.0, 1.0)
        assert out.regime_ok
        rel = abs(out.numeric - out.prediction) / abs(out.numeric)
        assert rel <= 0.35


def test_scan_on_orbit():
    x = geometry.sphere_point(1.2, 0.0)
    res = statphase.critical_set_scan(x, x)
    assert res.classification == "on-orbit"
    assert all(r.grad_norm <= 1e-10 for r in res.points)
    dims = sorted(r.trans_dim for r in res.points)
    # one codimension-2 circle plus two isolated extrema
    assert dims == [2, 3, 3]
    for r in res.points:
        if r.trans_dim == 2:
            assert abs(r.phase_value) <= 1e-8
        else:
            assert abs(r.phase_value) == pytest.approx(2.0 * math.sin(1.2), abs=1e-6)
        assert abs(r.trans_det) > 0.01


def test_scan_off_orbit():
    x = geometry.sphere_point(1.2, 0.0)
    y = geometry.sphere_point(1.5, 0.0)
    res = statphase.critical_set_scan(x, y)
    assert res.classification == "off-orbit"
    assert all(r.trans_dim == 3 for r in res.points)
    assert all(r.grad_norm <= 1e-10 for r in res.points)
    assert len(res.points) == 4
    nearest = min(abs(r.phase_value) for r in res.points)
    assert nearest == pytest.approx(2.0 * math.sin(0.15), rel=0.02)


def test_scan_matches_closed_form_critical_set():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    points = closed_form_critical_points(x, y)
    res = statphase.critical_set_scan(x, y)
    assert len(res.points) == 4
    matched = []
    for r in res.points:
        gaps = closed_form_gaps(r, points)
        assert min(gaps) <= 1e-9
        matched.append(int(np.argmin(gaps)))
    assert sorted(matched) == [0, 1, 2, 3]

    # on the orbit: the circle phi = 0, omega orthogonal to e3 x x, plus
    # the two isolated points at phi = pi
    on = statphase.critical_set_scan(x, x)
    circle = [r for r in on.points if r.trans_dim == 2]
    assert len(circle) == 1
    assert abs(math.remainder(circle[0].phi, 2.0 * math.pi)) <= 1e-9
    assert abs(np.dot(np.cross([0.0, 0.0, 1.0], x), circle[0].omega)) <= 1e-9
    points = closed_form_critical_points(x, x)
    for r in on.points:
        if r.trans_dim == 3:
            assert min(closed_form_gaps(r, points)) <= 1e-9


def test_pairing_derivatives_match_finite_differences():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    prob = statphase.StationaryPhaseProblem(
        pairing_phase(x, y), None, statphase.SphereCircleDomain())
    rng = np.random.default_rng(11)
    W = rng.normal(size=(20, 3))
    W /= np.linalg.norm(W, axis=1)[:, None]
    PH = rng.uniform(0.0, 2.0 * math.pi, 20)
    G, H, _, _ = statphase._pairing_derivs(x, y, W, PH)
    for w, phi, g, h in zip(W, PH, G, H):
        assert np.max(np.abs(g - prob._gradient((w, phi)))) <= 1e-8
        fd = statphase._chart_hessian(prob, (w, phi))[1]
        assert np.max(np.abs(h - fd)) <= 1e-6


def sphere_circle_problem():
    """The pairing phase on S^2 x S^1 with its four exact critical points."""
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    return x, y, statphase.StationaryPhaseProblem(
        pairing_phase(x, y), None, statphase.SphereCircleDomain(),
        critical=("points", closed_form_critical_points(x, y)))


def test_exact_critical_points_pass_the_gate():
    # the central-difference gradient of an exact critical point sits at its
    # rounding floor, above 1e-10 here; the gate must still accept it
    _, _, prob = sphere_circle_problem()
    assert len(prob.critical[1]) == 4


def test_sphere_circle_expansion_uses_the_circle_average():
    # the domain measure averages over the circle, so the leading term
    # carries d phi / (2 pi)
    x, y, prob = sphere_circle_problem()
    mu = 400.0
    exact = statphase.hybrid_integral(x, y, mu)
    predict = statphase.stationary_expansion(prob).predict(mu)
    assert abs(predict - exact) / abs(exact) <= 1e-3


def test_scan_nearest_phase_tracks_separation():
    x = geometry.sphere_point(1.2, 0.0)
    gaps = []
    for delta in (0.3, 0.08):
        res = statphase.critical_set_scan(x, geometry.sphere_point(1.2 + delta, 0.0))
        gaps.append(min(abs(r.phase_value) for r in res.points))
    assert gaps[0] == pytest.approx(2.0 * math.sin(0.15), rel=0.02)
    assert gaps[1] == pytest.approx(2.0 * math.sin(0.04), rel=0.02)


def test_scan_degenerate_axis():
    x = geometry.sphere_point(1.2, 0.0)
    res = statphase.critical_set_scan(x, np.array([0.0, 0.0, 1.0]))
    assert res.classification == "degenerate"


def test_orbit_distance():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    assert statphase.orbit_distance(x, y) == pytest.approx(
        2.0 * math.sin(0.2), rel=1e-12)
    assert statphase.orbit_distance(x, x) == 0.0


def test_hybrid_fast_path_matches_tensor():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    mu = 20.0
    fast = statphase.hybrid_integral(x, y, mu)
    prob = statphase.StationaryPhaseProblem(
        pairing_phase(x, y), None, statphase.SphereCircleDomain())
    full = statphase.oscillatory_integral(prob, mu)
    assert abs(fast - full) <= 1e-10


def test_hybrid_decay_rates():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    mu_grid = np.array([50.0 * 2.0 ** (j / 64.0) for j in range(193)])
    pair = statphase.hybrid_decay_fit(x, y, mu_grid)
    assert abs(pair.on_fit.slope - (-1.0)) <= 0.1
    assert abs(pair.off_fit.slope - (-1.5)) <= 0.1
    assert pair.distance == pytest.approx(statphase.orbit_distance(x, y))


def test_hybrid_grid_validation():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    with pytest.raises(DomainError):
        statphase.hybrid_decay_fit(x, y, np.array([50.0, 60.0, 70.0]))
    with pytest.raises(DomainError):
        statphase.hybrid_decay_fit(x, y, np.linspace(10.0, 400.0, 16))


def test_hybrid_regime_warning():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    mu_grid = np.array([2.0 * 20.0 ** (j / 32.0) for j in range(33)])
    with pytest.warns(RegimeWarning):
        statphase.hybrid_decay_fit(x, y, mu_grid)
