"""Oscillatory integrals, their leading expansions, and pairing-phase scans."""
import cmath
import itertools
import math
import time
import types
import warnings

import numpy as np
import pytest

from equiweyl import geometry, lab, statphase, util
from equiweyl.errors import DegenerateCriticalError, DomainError, RegimeWarning, ResourceLimitError


def rotate_z(phi, v):
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([c * v[0] - s * v[1], s * v[0] + c * v[1],
                     np.broadcast_to(v[2], np.shape(phi))], axis=-1)


def pairing_phase(x, y):
    """<x - R_phi y, omega> as a vectorized phase on S^2 x S^1."""
    def pairing(W, ph):
        return np.sum(W * (x[None, :] - rotate_z(ph, y)), axis=-1)
    return pairing


def gaussian_problem():
    return statphase.StationaryPhaseProblem(
        lambda X: 0.5 * X[..., 0] ** 2,
        lambda X: np.exp(-0.5 * X[..., 0] ** 2),
        statphase.BoxDomain((-12.0,), (12.0,)),
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
    assert exp["n"] == 1
    (psi0,), (p,), (signature,), (q0,) = (exp[k] for k in ("psi0", "p", "signature", "q0"))
    assert (p, signature) == (0, 1)
    assert psi0 == pytest.approx(0.0, abs=1e-12)
    assert q0 == pytest.approx(cmath.exp(1j * math.pi / 4.0), rel=1e-8)
    assert abs(statphase.stationary_prediction(exp, 10.0)) == pytest.approx(
        math.sqrt(2.0 * math.pi / 10.0), rel=1e-8)


def test_gaussian_prediction_error_scaling():
    # the remainder after the leading term decays one full power faster
    prob = gaussian_problem()
    exp = statphase.stationary_expansion(prob)
    scaled = []
    for mu in (20.0, 80.0, 320.0):
        err = abs(statphase.oscillatory_integral(prob, mu)
                  - statphase.stationary_prediction(exp, mu))
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
            types.SimpleNamespace(lo=(-1.0,), hi=(1.0,), dim=1))


def sphere_grid(n_pol, n_az):
    """The whole product grid of the sphere, polar rows outer, and its
    weights: Gauss in the colatitude, sin(theta) in the weights."""
    t, w = util.gauss_nodes(n_pol)
    theta = 0.5 * math.pi * (t + 1.0)
    w_a = 0.5 * math.pi * w * np.sin(theta)
    phi = np.arange(n_az) * (2.0 * math.pi / n_az)
    st = np.sin(theta)
    W = np.empty((len(theta), n_az, 3))
    W[..., 0] = st[:, None] * np.cos(phi)[None, :]
    W[..., 1] = st[:, None] * np.sin(phi)[None, :]
    W[..., 2] = np.cos(theta)[:, None]
    wt = (w_a[:, None] * (2.0 * math.pi / n_az)) * np.ones((1, n_az))
    return W.reshape(-1, 3), wt.ravel()


def whole_box_grid(domain, nodes):
    axes, weights = [], []
    for lo, hi, n in zip(domain.lo, domain.hi, nodes):
        t, w = util.gauss_nodes(n)
        axes.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        weights.append(0.5 * (hi - lo) * w)
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    inner = np.ones(1)
    for w in weights[1:]:
        inner = np.multiply.outer(inner, w).ravel()
    return (X,), np.multiply.outer(weights[0], inner).ravel()


def whole_sphere_grid(domain, nodes):
    W, wt = sphere_grid(*nodes)
    return (W,), wt


def whole_sphere_circle_grid(domain, nodes):
    n_pol, n_az, n_circ = nodes
    W, wt = sphere_grid(n_pol, n_az)
    phi = np.arange(n_circ) * (2.0 * math.pi / n_circ)
    return (np.tile(W, (n_circ, 1)), np.repeat(phi, len(W))), np.tile(wt / n_circ, n_circ)


# one problem per domain whose grid spans several blocks: a 3-d box, the
# sphere at mu = 96 (360 x 720 nodes, 16 blocks; the phase varies in
# azimuth, as a zonal one would get MIN_NODES azimuths), and S^2 x S^1 with
# 64 x 101 x 86 nodes, whose blocks straddle circle nodes
BLOCK_CASES = {
    "box": (lambda X: 0.5 * (X[..., 0] ** 2 + X[..., 1] ** 2) + X[..., 2],
            lambda X: np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2 + X[..., 2] ** 2)),
            statphase.BoxDomain((-6.0, -6.0, -6.0), (6.0, 6.0, 6.0)), 1.0, whole_box_grid),
    "sphere": (lambda W: W[..., 0], lambda W: 1.0 + W[..., 0] ** 2,
               statphase.SphereDomain(), 96.0, whole_sphere_grid),
    "sphere-circle": (lambda W, ph: W[..., 2] * np.cos(ph) + 0.5 * W[..., 0],
                      lambda W, ph: 2.0 + W[..., 1] * np.sin(ph),
                      statphase.SphereCircleDomain(), 12.0, whole_sphere_circle_grid),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocked_quadrature_is_the_whole_grid_sum(case):
    # one pairwise_sum over the whole tensor grid, as the sphere computed it
    # before the grids were streamed, bit for bit
    phase, amp, domain, mu, whole = BLOCK_CASES[case]
    prob = statphase.StationaryPhaseProblem(phase, amp, domain)
    nodes = prob.resolve_nodes(mu)
    args, wt = whole(domain, nodes)
    assert len(wt) > 15 * statphase._BLOCK
    vals = amp(*args) * np.exp(1j * mu * phase(*args))
    want = complex(util.pairwise_sum(np.ravel(vals * wt)))
    assert statphase.oscillatory_integral(prob, mu) == want


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_no_call_sees_more_than_a_block(case):
    phase, amp, domain, mu, _ = BLOCK_CASES[case]
    sizes = []

    def recording(fn):
        def call(*args):
            sizes.append(len(args[0]))
            return fn(*args)
        return call

    prob = statphase.StationaryPhaseProblem(recording(phase), recording(amp), domain)
    sizes.clear()
    statphase.oscillatory_integral(prob, mu)
    assert len(sizes) > 2 * 15
    assert max(sizes) <= statphase._BLOCK


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


def test_sphere_plane_wave_exact():
    prob = plane_wave_problem()
    for mu in (20.0, 95.5, 333.0):
        got = statphase.oscillatory_integral(prob, mu)
        want = 4.0 * math.pi * math.sin(mu) / mu
        assert abs(got - want) <= 1e-10 * (4.0 * math.pi / mu) + 1e-13


@pytest.mark.parametrize("u", [(1.0, 0.0, 0.0), (0.6, 0.0, 0.8)], ids=["x", "tilted"])
@pytest.mark.parametrize("mu", [400.0, 800.0])
def test_sphere_plane_waves_off_the_axis(u, mu):
    # e^{i mu <u, w>} oscillates evenly in the colatitude about u, not about
    # e3: Gauss in cos(theta) on uniform panels misses it, Gauss in theta not
    v = np.array(u)
    prob = statphase.StationaryPhaseProblem(lambda W: W @ v, None, statphase.SphereDomain())
    got = statphase.oscillatory_integral(prob, mu)
    assert abs(got - 4.0 * math.pi * math.sin(mu) / mu) <= 1e-10 * (4.0 * math.pi / mu)


def test_zonal_phase_gets_the_fewest_azimuths():
    # cos theta is constant on every azimuth circle: the azimuth trapezoid
    # is exact on MIN_NODES nodes however large mu is
    prob = plane_wave_problem()
    mu = 400.0
    assert prob.resolve_nodes(mu)[1] == statphase.MIN_NODES
    want = 4.0 * math.pi * math.sin(mu) / mu
    assert abs(statphase.oscillatory_integral(prob, mu) - want) <= 1e-12 * abs(want)


_TILT = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
# phases that vary in azimuth; None: the plane wave's exact 4 pi sin(mu) / mu
AZIMUTH_CASES = {
    "tilted plane wave": (lambda W: W @ _TILT, None),
    "saddle": (lambda W: W[..., 0] * W[..., 1] + 0.3 * W[..., 2], lambda W: 1.0 + W[..., 2] ** 2),
    "mixed": (lambda W: W[..., 0] ** 2 - 0.5 * W[..., 1] + W[..., 2] ** 3,
              lambda W: np.exp(W[..., 0])),
}


@pytest.mark.parametrize("case", sorted(AZIMUTH_CASES))
def test_each_sphere_axis_gets_the_nodes_its_own_derivative_needs(case):
    """Fewer azimuths than the polar bound gave them, and the integral of
    the grid the polar bound gave both axes, or the exact one, to 1e-12."""
    phase, amp = AZIMUTH_CASES[case]
    prob = statphase.StationaryPhaseProblem(phase, amp, statphase.SphereDomain())
    for mu in (12.5 * math.pi, 30.5 * math.pi):
        n_pol, n_az = prob.resolve_nodes(mu)
        isotropic = (statphase.nodes_for(mu, prob.lip[0], math.pi),
                     statphase.nodes_for(mu, prob.lip[0], 2.0 * math.pi))
        assert n_pol <= isotropic[0] and n_az < isotropic[1]
        if amp is None:
            want = 4.0 * math.pi * math.sin(mu) / mu
        else:
            W, wt = sphere_grid(*isotropic)
            want = complex(util.pairwise_sum(amp(W) * np.exp(1j * mu * phase(W)) * wt))
        got = statphase.oscillatory_integral(prob, mu)
        assert abs(got - want) <= 1e-12 * abs(want), (mu, got, want)


@pytest.mark.parametrize("case", ["zonal", *sorted(AZIMUTH_CASES)])
def test_the_batched_scan_is_the_per_point_loop(case):
    """The sphere's Lipschitz scan takes all its gradients in one call: each
    row within 1e-9 of the one-point gradient, and the node counts that one
    gradient call per scan point gives."""
    phase = (lambda W: W[..., 2]) if case == "zonal" else AZIMUTH_CASES[case][0]
    domain = statphase.SphereDomain()
    prob = statphase.StationaryPhaseProblem(phase, None, domain)
    W = statphase._sphere_points(util.gauss_nodes(17)[0], statphase._azimuths(33))
    G = np.array([prob._gradient(w) for w in W])
    assert np.max(np.abs(prob._gradient(W) - G)) <= 1e-9
    lip = 1.25 * max(np.linalg.norm(g) for g in G) + 1e-12
    t1, t2 = statphase._tangent_frames(W)
    grad = G[:, [0]] * t1 + G[:, [1]] * t2
    d_phi = grad[:, 1] * W[:, 0] - grad[:, 0] * W[:, 1]
    loop = (lip, min(lip, 1.25 * float(np.max(np.abs(d_phi))) + 1e-12))
    for mu in (20.0, 100.0, 400.0):
        want = tuple(statphase.nodes_for(mu, l, ext) for l, ext in zip(loop, domain._extents))
        assert prob.resolve_nodes(mu) == want


def test_sphere_expansion_structure():
    exp = statphase.stationary_expansion(plane_wave_problem(declare_poles=True))
    assert exp["n"] == 2
    assert len(exp["psi0"]) == 2
    by_psi = dict(zip(np.round(exp["psi0"]).tolist(), exp["signature"].tolist()))
    assert set(by_psi) == {-1, 1}
    # the max at psi = +1 carries signature -2, the min at -1 carries +2
    assert by_psi[1] == -2
    assert by_psi[-1] == 2
    for q0, p in zip(exp["q0"], exp["p"]):
        assert abs(q0) == pytest.approx(1.0, rel=1e-6)
        assert p == 0
    got = statphase.stationary_prediction(exp, 50.0)
    want = 4.0 * math.pi * math.sin(50.0) / 50.0
    assert abs(got - want) / (4.0 * math.pi / 50.0) <= 1e-4

    # the amplitude route: 1 + z^2 is 2 at both poles
    v = np.array([0.0, 0.0, 1.0])
    prob = statphase.StationaryPhaseProblem(
        lambda W: W @ v, lambda W: 1.0 + W[..., 2] ** 2, statphase.SphereDomain(),
        critical=("points", [v.copy(), -v]))
    exp = statphase.stationary_expansion(prob)
    for q0 in exp["q0"]:
        assert abs(q0) == pytest.approx(2.0, rel=1e-6)
    mu = 200.0
    numeric = statphase.oscillatory_integral(prob, mu)
    assert abs(statphase.stationary_prediction(exp, mu) - numeric) * mu / (4.0 * math.pi) <= 2e-2


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
    (p,), (signature,), (q0,) = (exp[k] for k in ("p", "signature", "q0"))
    assert (p, signature) == (1, 1)
    # q0 collects the amplitude line integral: int e^{-t^2} dt = sqrt(pi)
    assert abs(q0) == pytest.approx(math.sqrt(math.pi), rel=1e-6)
    mu = 200.0
    got = statphase.oscillatory_integral(prob, mu)
    assert abs(statphase.stationary_prediction(exp, mu) - got) / abs(got) <= 2e-2


def test_curve_must_stay_critical():
    # every node of the curve meets the points' gate, at construction
    with pytest.raises(DomainError, match="declared critical node"):
        statphase.StationaryPhaseProblem(
            lambda X: 0.5 * X[..., 1] ** 2 + 0.1 * X[..., 0] ** 2,
            lambda X: np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2)),
            statphase.BoxDomain((-6.0, -6.0), (6.0, 6.0)),
            critical=("curve", lambda t: np.stack([t, np.zeros_like(t)], axis=-1),
                      (-6.0, 6.0), False),
        )


def test_caustic_flat_limit():
    # mu tau + epsilon = 1 is outside the regime: the value is still exact
    with pytest.warns(RegimeWarning):
        numeric, _ = statphase.caustic_interpolation(gaussian_problem(), 0.0, 1.0)
    assert abs(numeric - math.sqrt(2.0 * math.pi)) <= 1e-12


def test_caustic_regime_warning():
    with pytest.warns(RegimeWarning):
        statphase.caustic_interpolation(gaussian_problem(), 0.5, 0.5)


def test_caustic_prediction_band():
    prob = gaussian_problem()
    with warnings.catch_warnings():
        # inside the regime: no RegimeWarning
        warnings.simplefilter("error", RegimeWarning)
        for mt in (2.0, 8.0, 32.0, 100.0):
            numeric, prediction = statphase.caustic_interpolation(prob, mt, 1.0)
            assert abs(numeric - prediction) / abs(numeric) <= 0.35


SCAN_FIELDS = ("omega", "phi", "grad_norm", "trans_det", "trans_dim", "phase_value")


def test_scan_on_orbit():
    x = geometry.sphere_point(1.2, 0.0)
    res = statphase.critical_set_scan(x, x)
    assert tuple(res) == SCAN_FIELDS
    assert np.all(res["grad_norm"] <= 1e-10)
    # one codimension-2 circle plus two isolated extrema
    assert sorted(res["trans_dim"]) == [2, 3, 3]
    circle = res["trans_dim"] == 2
    assert np.all(np.abs(res["phase_value"][circle]) <= 1e-8)
    assert np.abs(res["phase_value"][~circle]) == pytest.approx(2.0 * math.sin(1.2), abs=1e-6)
    assert np.all(np.abs(res["trans_det"]) > 0.01)


def test_scan_off_orbit():
    x = geometry.sphere_point(1.2, 0.0)
    y = geometry.sphere_point(1.5, 0.0)
    res = statphase.critical_set_scan(x, y)
    assert res["omega"].shape == (4, 3)
    assert all(res[key].shape == (4,) for key in SCAN_FIELDS[1:])
    assert np.all(res["trans_dim"] == 3)
    assert np.all(res["grad_norm"] <= 1e-10)
    # ordered by |phase|: the nearest first
    assert np.all(np.diff(np.abs(res["phase_value"])) >= 0.0)
    assert abs(res["phase_value"][0]) == pytest.approx(2.0 * math.sin(0.15), rel=0.02)


def test_scan_matches_closed_form_critical_set():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    res = statphase.critical_set_scan(x, y)
    assert len(res["phi"]) == 4
    assert statphase.closed_form_deviation(x, y, res) <= 1e-9
    # the four closed-form points lie at least 2 apart, so four components
    # within 1e-9 of them and apart from each other find each one once
    for a, b in itertools.combinations(range(4), 2):
        assert max(np.linalg.norm(res["omega"][a] - res["omega"][b]),
                   abs(math.remainder(res["phi"][a] - res["phi"][b], 2.0 * math.pi))) > 1.0

    # on the orbit: the circle phi = 0, omega orthogonal to e3 x x, plus
    # the two isolated points at phi = pi
    on = statphase.critical_set_scan(x, x)
    assert sorted(on["trans_dim"]) == [2, 3, 3]
    assert statphase.closed_form_deviation(x, x, on) <= 1e-9


def _scan_of(omega, phi, trans_dim):
    """A one-component scan with the given place and kind."""
    return {"omega": np.array([omega], dtype=float), "phi": np.array([phi]),
            "trans_dim": np.array([trans_dim])}


def test_closed_form_deviation_sees_a_displaced_record():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    w, phi = statphase.closed_form_critical_points(x, y)[0]
    shifted = _scan_of(w, phi + 1e-6, 3)
    assert statphase.closed_form_deviation(x, y, _scan_of(w, phi, 3)) == 0.0
    assert statphase.closed_form_deviation(x, y, shifted) == pytest.approx(1e-6, rel=1e-6)
    circle = _scan_of((0.0, 0.0, 1.0), 1e-7, 2)
    assert statphase.closed_form_deviation(x, x, circle) == pytest.approx(1e-7, rel=1e-6)
    # the worst of several components; none is no deviation
    both = {key: np.concatenate((shifted[key], _scan_of(w, phi, 3)[key])) for key in circle}
    assert statphase.closed_form_deviation(x, y, both) == pytest.approx(1e-6, rel=1e-6)
    assert statphase.closed_form_deviation(x, y, {key: v[:0] for key, v in both.items()}) == 0.0


def test_phi_gap_is_the_remainder_distance():
    rng = np.random.default_rng(3)
    a = rng.uniform(-20.0, 20.0, 2000)
    b = np.concatenate((rng.uniform(-20.0, 20.0, 1000), a[:1000] + 2.0 * math.pi * 3))
    want = [abs(math.remainder(u - v, 2.0 * math.pi)) for u, v in zip(a.tolist(), b.tolist())]
    assert statphase._phi_gap(a, b).tolist() == want


def test_row_dots_keep_the_bits_of_np_dot():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=(2, 500, 3))
    assert statphase._row_dots(u, v).tolist() == [float(np.dot(a, b)) for a, b in zip(u, v)]
    assert statphase._row_dots(u, v[0]).tolist() == [float(np.dot(a, v[0])) for a in u]


def test_scan_fields_are_the_per_component_loop():
    """The batched fields equal, bit for bit, the loop over components that
    they replace: each component's own eigvalsh, the product of its
    non-null eigenvalues in |eigenvalue| order, and np.dot for its phase."""
    x = geometry.sphere_point(1.2, 0.3)
    for y in (geometry.sphere_point(0.8, 1.1), x):
        res = statphase.critical_set_scan(x, y)
        # the scan works on x and y normalized
        u, v = x / np.linalg.norm(x), y / np.linalg.norm(y)
        for w, phi, det, dim, phase in zip(res["omega"], res["phi"], res["trans_det"],
                                           res["trans_dim"], res["phase_value"]):
            H = statphase._pairing_derivs(u, v, w[None, :], np.array([phi]))[1][0]
            eig = np.linalg.eigvalsh(H)
            p_dim = int(np.sum(np.abs(eig) <= 1e-6 * max(1.0, np.max(np.abs(eig)))))
            trans = eig[np.argsort(np.abs(eig))][p_dim:]
            assert (dim, det) == (3 - p_dim, float(np.prod(trans)) if len(trans) else 1.0)
            assert phase == float(np.dot(u - statphase._rot_z(phi, v), w))


def test_scan_with_no_converged_seed_is_empty(monkeypatch):
    def stalled(x, y, W, PH):
        return W, PH, np.full(len(PH), np.inf)

    monkeypatch.setattr(statphase, "_newton_polish", stalled)
    x = geometry.sphere_point(1.2, 0.0)
    res = statphase.critical_set_scan(x, geometry.sphere_point(1.5, 0.0))
    assert res["omega"].shape == (0, 3)
    assert all(res[key].shape == (0,) for key in SCAN_FIELDS[1:])
    assert statphase.closed_form_deviation(x, x, res) == 0.0


def test_pairing_derivatives_match_finite_differences():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    prob = statphase.StationaryPhaseProblem(
        pairing_phase(x, y), None, statphase.SphereCircleDomain())
    rng = np.random.default_rng(11)
    W = rng.normal(size=(20, 3))
    W /= np.linalg.norm(W, axis=1)[:, None]
    PH = rng.uniform(0.0, 2.0 * math.pi, 20)
    G, H = statphase._pairing_derivs(x, y, W, PH)
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
        critical=("points", statphase.closed_form_critical_points(x, y)))


def test_exact_critical_points_pass_the_gate():
    # the central-difference gradient of an exact critical point sits at its
    # rounding floor, above 1e-10 here; the gate must still accept it
    _, _, prob = sphere_circle_problem()
    assert len(prob.critical) == 4


def test_sphere_circle_expansion_uses_the_circle_average():
    # the domain measure averages over the circle, so the leading term
    # carries d phi / (2 pi)
    x, y, prob = sphere_circle_problem()
    mu = 400.0
    exact = statphase.hybrid_integral(x, y, mu)
    predict = statphase.stationary_prediction(statphase.stationary_expansion(prob), mu)
    assert abs(predict - exact) / abs(exact) <= 1e-3


def test_scan_nearest_phase_tracks_separation():
    x = geometry.sphere_point(1.2, 0.0)
    gaps = []
    for delta in (0.3, 0.08):
        res = statphase.critical_set_scan(x, geometry.sphere_point(1.2 + delta, 0.0))
        gaps.append(np.min(np.abs(res["phase_value"])))
    assert gaps[0] == pytest.approx(2.0 * math.sin(0.15), rel=0.02)
    assert gaps[1] == pytest.approx(2.0 * math.sin(0.04), rel=0.02)


def test_scan_degenerate_axis():
    x = geometry.sphere_point(1.2, 0.0)
    y = np.array([0.0, 0.0, 1.0])
    res = statphase.critical_set_scan(x, y)
    # R_phi y = y: the phase <x - y, omega> is flat in phi, so its critical
    # set is two phi-circles, omega = +-(x - y) / |x - y|, at phase +-|x - y|
    assert list(res["trans_dim"]) == [2, 2]
    gap = np.linalg.norm(x - y)
    assert sorted(res["phase_value"]) == pytest.approx([-gap, gap], rel=1e-12)
    assert np.abs(res["omega"] @ (x - y)) == pytest.approx([gap, gap], rel=1e-12)


def _lattice_pairs(rng, kind):
    """A seeded pair (x, y), colatitudes in [0.05, pi - 0.05]: y off the
    orbit of x by delta in [1e-3, 1e-1], on it, or on the axis."""
    lo, hi = 0.05, math.pi - 0.05
    tx = rng.uniform(lo, hi)
    x = geometry.sphere_point(tx, rng.uniform(0.0, 2.0 * math.pi))
    if kind == "axis":
        return x, np.array([0.0, 0.0, rng.choice([1.0, -1.0])])
    ty = tx
    if kind == "off":
        delta = 10.0 ** rng.uniform(-3.0, -1.0)
        ty = tx + delta if tx + delta <= hi else tx - delta
    return x, geometry.sphere_point(ty, rng.uniform(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("kind, dims", [
    ("off", [3, 3, 3, 3]), ("on", [2, 3, 3]), ("axis", [2, 2]),
], ids=["off-orbit", "on-orbit", "axis"])
def test_scan_lattice_finds_the_closed_form_set(kind, dims):
    """The 2,400-seed lattice finds every closed-form component once: four
    isolated points off the orbit, a circle and two points on it, and two
    phi-circles for y on the axis."""
    rng = np.random.default_rng({"off": 441, "on": 442, "axis": 443}[kind])
    for _ in range(6):
        x, y = _lattice_pairs(rng, kind)
        res = statphase.critical_set_scan(x, y)
        assert sorted(res["trans_dim"].tolist()) == dims
        assert np.all(res["grad_norm"] <= statphase.SCAN_GRAD_TOL)
        if kind == "axis":
            gap = np.linalg.norm(x - y)
            assert sorted(res["phase_value"]) == pytest.approx([-gap, gap], rel=1e-12)
        else:
            assert statphase.closed_form_deviation(x, y, res) <= 1e-9


def test_a_twelve_angle_lattice_splits_the_axis_circles(monkeypatch):
    """The phi count binds: at 12 angles the chord 2 sin(pi / 12) = 0.518
    between a phi-circle's seeds exceeds the 0.35 linkage radius, so the
    two circles of y on the axis fall apart into one component a seed."""
    seeds = statphase._scan_seeds

    def every_other_angle():
        W, PH = seeds()
        keep = np.tile(np.arange(24) % 2 == 0, len(PH) // 24)
        return W[keep], PH[keep]

    x, y = geometry.sphere_point(1.2, 0.0), np.array([0.0, 0.0, 1.0])
    assert len(statphase.critical_set_scan(x, y)["phi"]) == 2
    monkeypatch.setattr(statphase, "_scan_seeds", every_other_angle)
    assert len(statphase.critical_set_scan(x, y)["phi"]) == 24


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_scan_refuses_a_pole_paired_with_itself(z):
    """At x = y on the axis the phase vanishes identically: the scan refuses
    it before seeding (it once grouped 9,456 critical seeds for seconds)."""
    pole = np.array([0.0, 0.0, z])
    start = time.perf_counter()
    with pytest.raises(DomainError, match="vanishes identically"):
        statphase.critical_set_scan(pole, pole)
    assert time.perf_counter() - start < 0.1


def test_orbit_distance():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    assert statphase.orbit_distance(x, y) == pytest.approx(
        2.0 * math.sin(0.2), rel=1e-12)
    assert statphase.orbit_distance(x, x) == 0.0


_X = geometry.sphere_point(1.2, 0.3)


@pytest.mark.parametrize("call, named", [
    (lambda: statphase.critical_set_scan([math.nan, 0.0, 1.0], [0.0, 0.0, 1.0]), "x="),
    (lambda: statphase.orbit_distance([math.nan, 0.0, 1.0], _X), "x="),
    (lambda: statphase.hybrid_integral(_X, _X, math.nan), "mu="),
    (lambda: statphase.orbit_distance([0.0, 0.0, 0.0], [0.0, 0.0, -1.0]), "x="),
    (lambda: statphase.orbit_distance(_X, [0.0, -0.0, 0.0]), "y="),
], ids=["critical_set_scan", "orbit_distance", "hybrid_integral", "orbit_distance-zero-x",
        "orbit_distance-zero-y"])
def test_non_finite_input_is_a_domain_error(call, named):
    """A NaN once gave an empty scan, a distance of 1.129 and a bare
    ValueError from math.ceil, and a zero vector, which has no colatitude,
    a distance of 0.0 or 2.0 from its 0/0; each now names the input it
    refuses."""
    with pytest.raises(DomainError, match=named):
        call()


@pytest.mark.parametrize("x, y, named", [
    ([math.nan, 0.0, 1.0], _X, "x="),
    (_X, [[0.0, 0.0, 1.0], [0.0, 0.0, math.inf]], "y="),
], ids=["x", "y"])
def test_hybrid_integral_refuses_a_non_finite_point(x, y, named):
    """A NaN x once gave (nan+0j), and an inf y a RuntimeWarning from np.sin."""
    with pytest.raises(DomainError, match=named):
        statphase.hybrid_integral(x, y, 20.0)


def test_hybrid_fast_path_matches_tensor():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    mu = 20.0
    fast = statphase.hybrid_integral(x, y, mu)
    prob = statphase.StationaryPhaseProblem(
        pairing_phase(x, y), None, statphase.SphereCircleDomain())
    full = statphase.oscillatory_integral(prob, mu)
    assert abs(fast - full) <= 1e-10


def _hybrid_by_norm(x, y, mu):
    # the one-row formula as first written: np.linalg.norm of x - R_phi y
    n_phi = statphase._phi_table_size(x, mu, 1)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    dists = np.linalg.norm(x[None, :] - rotate_z(phis, y), axis=1)
    return complex(util.pairwise_sum(4.0 * math.pi * np.sinc(mu * dists / math.pi))) / n_phi


@pytest.mark.parametrize("mu", [20.0, 42.7, 400.0, 5000.0])
def test_hybrid_rows_keep_their_one_row_bits(mu):
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    y_d = geometry.sphere_point(1.2 + 2.0 * math.asin(0.01), 0.0)
    rows = np.array([x, y, y_d])
    one = np.array([statphase.hybrid_integral(x, r, mu) for r in rows])
    assert np.array_equal(statphase.hybrid_integral(x, rows, mu), one)
    assert np.array_equal(one, [_hybrid_by_norm(x, r, mu) for r in rows])
    assert isinstance(statphase.hybrid_integral(x, y, mu), complex)


@pytest.mark.parametrize("mu", [20.0, 400.0, 5000.0])
def test_hybrid_is_even_in_mu(mu):
    """sinc is even: a negative mu once sized its table at the 256-node floor,
    and I(-400) read -0.00439 against I(400) = 0.000637."""
    x = geometry.sphere_point(1.2, 0.3)
    rows = np.array([geometry.sphere_point(0.8, 1.1), x])
    assert np.array_equal(statphase.hybrid_integral(x, rows, -mu),
                          statphase.hybrid_integral(x, rows, mu))


@pytest.mark.parametrize("x", [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], ids=["axis", "off_axis"])
def test_hybrid_refuses_an_infinite_mu(x):
    """On the axis the table's demand inf * 0 is nan, which math.ceil refuses
    with a bare ValueError; it is a resource refusal as off the axis."""
    with pytest.raises(ResourceLimitError, match="needs a phi table"):
        statphase.hybrid_integral(np.array(x), [0.0, 0.6, 0.8], math.inf)


def _trapezoid(x, y, mu, n_phi):
    """4 pi times the mean of sinc(mu |x - R_phi y|) over n_phi equispaced phi,
    summed in chunks of 2^16 nodes, so an 8-fold table's temporaries stay
    a few MB."""
    parts = []
    for start in range(0, n_phi, 1 << 16):
        phis = np.arange(start, min(n_phi, start + (1 << 16))) * (2.0 * math.pi / n_phi)
        dists = np.linalg.norm(x[None, :] - rotate_z(phis, y), axis=1)
        parts.append(np.sinc(mu * dists / math.pi).sum())
    return 4.0 * math.pi * math.fsum(parts) / n_phi


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def hybrid_cases():
    """Seeded (x, rows, mu, dense): |x| and |y| in [0.1, 5], mu log-uniform
    in [1, 2e4], x anywhere, 1e-4 off the axis or on the equator; the rows a
    free point, a point of x's orbit, and orbit points 1e-6 and 1e-3 off it;
    dense the trapezoid rule at 8 times the package's table."""
    rng = np.random.default_rng(2014)
    cases = []
    for k in range(12):
        u = _unit(rng.normal(size=3))
        if k % 3 == 1:
            u = _unit(np.array([1e-4 * u[0], 1e-4 * u[1], u[2]]))
        elif k % 3 == 2:
            u = _unit(np.array([u[0], u[1], 0.0]))
        x = rng.uniform(0.1, 5.0) * u
        mu = math.exp(rng.uniform(0.0, math.log(2e4)))
        rows = [rng.uniform(0.1, 5.0) * _unit(rng.normal(size=3))]
        for off in (0.0, 1e-6, 1e-3):
            on_orbit = rotate_z(rng.uniform(0.0, 2.0 * math.pi), x)
            rows.append(on_orbit + off * _unit(rng.normal(size=3)))
        rows = np.array(rows)
        n_dense = 8 * statphase._phi_table_size(x, mu, 1)
        cases.append((x, rows, mu, np.array([_trapezoid(x, r, mu, n_dense) for r in rows])))
    return cases


def _scaled_gap(x, mu, values, dense):
    """Worst |values - dense| in units of 4 pi / (1 + |mu| r_x), the size of
    I near the orbit of x."""
    scale = 4.0 * math.pi / (1.0 + abs(mu) * math.hypot(x[0], x[1]))
    return np.max(np.abs(values - dense)) / scale


def test_hybrid_table_resolves_the_integrand(hybrid_cases):
    """The table sits on the trapezoid rule's rounding floor: past the
    bandwidth |mu| r_x the rule converges geometrically.  Here the table
    reads 5.2e-13 at worst, and 16 times the table 1.9e-13."""
    for x, rows, mu, dense in hybrid_cases:
        assert _scaled_gap(x, mu, statphase.hybrid_integral(x, rows, mu), dense) <= 1e-11


@pytest.mark.parametrize("fraction", [0.5, 0.9])
def test_the_resolution_check_misses_a_table_below_the_bandwidth(hybrid_cases, fraction):
    """The check above can fail: a table of fraction * |mu| r_x nodes aliases
    the integrand, and misses the bound by a factor near 1e11."""
    worst = 0.0
    for x, rows, mu, dense in hybrid_cases:
        n_phi = max(1, math.ceil(fraction * abs(mu) * math.hypot(x[0], x[1])))
        worst = max(worst, _scaled_gap(x, mu, [_trapezoid(x, r, mu, n_phi) for r in rows], dense))
    assert worst > 1e-11


def test_hybrid_report_calls_once_a_distinct_mu(monkeypatch):
    calls = []
    inner = statphase.hybrid_integral

    def counted(x, y, mu):
        calls.append((mu, np.array_equal(np.atleast_2d(y)[0], x)))
        return inner(x, y, mu)

    monkeypatch.setattr(statphase, "hybrid_integral", counted)
    lab.run_hybrid_experiment(None)
    fit = [mu for mu, on_row in calls if on_row]
    band = [mu for mu, on_row in calls if not on_row]
    assert (len(fit), len(band)) == (193, 133)
    assert len(set(fit)) == len(fit) and len(set(band)) == len(band)


def test_hybrid_decay_rates():
    x = geometry.sphere_point(1.2, 0.3)
    y = geometry.sphere_point(0.8, 1.1)
    mu_grid = np.array([50.0 * 2.0 ** (j / 64.0) for j in range(193)])
    rep = lab.run_hybrid_experiment(mu_grid)
    assert abs(rep["fit"]["slope"] - (-1.0)) <= 0.1
    assert abs(rep["fit_off"]["slope"] - (-1.5)) <= 0.1
    assert rep["orbit_distance"] == pytest.approx(statphase.orbit_distance(x, y))


def test_hybrid_grid_validation():
    with pytest.raises(DomainError):
        lab.run_hybrid_experiment(np.array([50.0, 60.0, 70.0]))
    with pytest.raises(DomainError):
        lab.run_hybrid_experiment(np.linspace(10.0, 400.0, 16))


def test_hybrid_regime_warning():
    mu_grid = np.array([2.0 * 20.0 ** (j / 32.0) for j in range(33)])
    with pytest.warns(RegimeWarning):
        lab.run_hybrid_experiment(mu_grid)


def test_group_components_links_chains_and_orders_by_first_index():
    """Two clusters, a chain at spacing 0.34 under the 0.35 link, and a point
    0.36 past the chain's end, their indices interleaved: each component
    comes ascending, the components in the order of their smallest index."""
    chain = [[5.0 + 0.34 * i, 0.0, 0.0, 0.0, 0.0] for i in range(6)]
    a = [[0.0, 0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0, 0.0], [0.0, 0.1, 0.0, 0.0, 0.0]]
    b = [[0.0, 0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 0.0, 0.2, 3.0]]
    lone = [5.0 + 0.34 * 5 + 0.36, 0.0, 0.0, 0.0, 0.0]
    E = np.array([chain[3], a[0], chain[0], b[1], chain[5], a[2], lone, chain[1], b[0],
                  chain[4], a[1], chain[2]])
    assert statphase._group_components(E) == [[0, 2, 4, 7, 9, 11], [1, 5, 10], [3, 8], [6]]
    # past one 256-row block, the chain's ends sit in different blocks
    far = np.tile(E, (30, 1)) + np.repeat(np.arange(30) * 100.0, len(E))[:, None]
    comps = statphase._group_components(far)
    assert len(comps) == 4 * 30
    assert comps[:4] == [[0, 2, 4, 7, 9, 11], [1, 5, 10], [3, 8], [6]]
    assert comps[-4:] == [[348 + i for i in c] for c in ([0, 2, 4, 7, 9, 11], [1, 5, 10],
                                                        [3, 8], [6])]
    # random sets against scipy's connected components of the same links
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(17)
    for n, half_width in ((40, 0.4), (300, 0.6), (600, 0.7)):  # a mix of component sizes
        E = rng.uniform(-half_width, half_width, (n, 5))
        links = np.linalg.norm(E[:, None, :] - E[None, :, :], axis=2) < 0.35
        _, label = csgraph.connected_components(links, directed=False)
        want = {}
        for i, c in enumerate(label.tolist()):
            want.setdefault(c, []).append(i)
        assert statphase._group_components(E) == list(want.values())


def test_tangent_frames_are_the_probe_cross_products():
    # random points, the axes and points on both sides of the |w0| = 0.9 switch
    rng = np.random.default_rng(31)
    W = rng.normal(size=(5000, 3))
    W = np.concatenate([W / np.linalg.norm(W, axis=1)[:, None], np.eye(3), -np.eye(3),
                        [[0.9, math.sqrt(0.19), 0.0], [np.nextafter(0.9, 0.0), 0.0, math.sqrt(0.19)]]])
    probe = np.where(np.abs(W[:, [0]]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    t1 = np.cross(W, probe)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    got = statphase._tangent_frames(W)
    assert np.array_equal(got[0], t1)
    assert np.array_equal(got[1], np.cross(W, t1))


def pairing_hessians(A, b, c, D):
    """The (S, 3, 3) Hessians [[A, 0, b], [0, A, c], [b, c, D]]."""
    H = np.zeros((len(A), 3, 3))
    H[:, 0, 0] = H[:, 1, 1] = A
    H[:, 0, 2] = H[:, 2, 0] = b
    H[:, 1, 2] = H[:, 2, 1] = c
    H[:, 2, 2] = D
    return H


def test_newton_step_is_the_solve():
    # the pairing phase's own Hessians and gradients at random seeds
    rng = np.random.default_rng(23)
    x, y = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
    W = rng.normal(size=(300, 3))
    W /= np.linalg.norm(W, axis=1)[:, None]
    g, A, b, c, D, _, _ = statphase._pairing_parts(x, y, W.T, rng.uniform(0.0, 2.0 * math.pi, 300))
    step = statphase._newton_step(A, b, c, D, g).T
    want = np.linalg.solve(pairing_hessians(A, b, c, D), -g.T[:, :, None])[:, :, 0]
    assert np.all(np.linalg.norm(step - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))


def test_a_singular_seed_steps_down_its_gradient_alone():
    # row 1 has A D = b^2 + c^2 exactly, row 3 an infinite entry: each steps
    # by -g, and rows 0 and 2 keep their Newton steps
    A = np.array([2.0, 1.0, -0.5, 1.0])
    b = np.array([0.3, 1.0, 0.1, 0.2])
    c = np.array([-0.4, 0.0, 0.7, 0.1])
    D = np.array([1.5, 1.0, 2.0, np.inf])
    g = np.array([[0.1, 0.2, -0.3, 0.4], [0.5, -0.6, 0.7, 0.8], [0.9, 1.0, -1.1, 1.2]])
    step = statphase._newton_step(A, b, c, D, g)
    for i in (1, 3):
        assert np.array_equal(step[:, i], -g[:, i])
    H = pairing_hessians(A, b, c, D)
    for i in (0, 2):
        want = np.linalg.solve(H[i], -g[:, i])
        assert np.max(np.abs(step[:, i] - want)) <= 1e-14 * np.max(np.abs(want))


def test_dedup_keeps_the_first_index_of_each_cell():
    rng = np.random.default_rng(29)
    for n, span in ((50, 1), (2000, 2), (5000, 4)):  # few cells, many ties
        E = rng.integers(-span, span + 1, (n, 5)) * statphase._THIN_CELL
        E += rng.uniform(-0.3, 0.3, E.shape) * statphase._THIN_CELL
        cells = np.round(E / statphase._THIN_CELL).astype(np.int64)
        want = np.sort(np.unique(cells, axis=0, return_index=True)[1])
        assert np.array_equal(statphase._dedup(E), want)


def test_every_scan_seed_converges_within_twenty_steps(monkeypatch):
    """critscan's six (x, y) pairs: every one of the 2,400 seeds ends at or
    below SCAN_GRAD_TOL within 20 Newton steps (14 to 17 steps), and no step
    calls np.linalg.solve."""
    steps = []
    newton_step = statphase._newton_step

    def counted(*args):
        steps[-1] += 1
        return newton_step(*args)

    def no_solve(*args, **kwargs):
        raise AssertionError("the Newton polish called np.linalg.solve")

    monkeypatch.setattr(statphase, "_newton_step", counted)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    x = geometry.sphere_point(1.2, 0.0)
    for d in (0.0, 0.02, 0.04, 0.08, 0.16, 0.3):
        steps.append(0)
        W, PH = statphase._scan_seeds()
        _, _, gn = statphase._newton_polish(x, geometry.sphere_point(1.2 + d, 0.0), W, PH)
        assert len(gn) == 2400 and np.all(gn <= statphase.SCAN_GRAD_TOL)
    assert max(steps) <= 20, steps
