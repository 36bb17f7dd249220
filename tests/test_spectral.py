"""Reduced spectral sums: dual routes, invariants, norms."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiweyl import eigensolve, geometry, specfun, spectral
from equiweyl.errors import DomainError, EmptyWindowError, TruncationError
from equiweyl.util import gauss_nodes, pairwise_sum


@pytest.fixture(scope="module")
def sphere200():
    return eigensolve.sphere_basis(200.0)


@pytest.fixture(scope="module")
def torus500():
    return eigensolve.torus_basis(500.0)


def test_sphere_diag_dual_route(sphere200):
    x = geometry.sphere_point(1.0, 0.3)
    theta = 1.0
    for m in (0, 2, -3):
        rsf = spectral.ReducedSpectralFunction(sphere200, m)
        by_modes = spectral.reduced_spectral_diag(rsf, x, 200.0)
        direct = spectral.sphere_diag_direct(m, theta, 200.0)
        assert by_modes == pytest.approx(direct, rel=1e-11)


def test_torus_diag_dual_route(torus500):
    rsf = spectral.ReducedSpectralFunction(torus500, 0)
    assert spectral.reduced_spectral_diag(rsf, (0.2, 0.9), 500.0) == \
        spectral.torus_diag_direct(0, 500.0)


def test_torus_count_against_brute_lattice():
    def brute(m, lam):
        R = int(math.isqrt(int(lam / (4 * math.pi ** 2))) + 2)
        return sum(1 for k2 in range(-R, R + 1)
                   if 4 * math.pi ** 2 * (m * m + k2 * k2) <= lam)

    for m in (0, 2, 7):
        for lam in (50.0, 3000.0, 99999.0):
            assert spectral.torus_count_direct(m, lam) == brute(m, lam)

    # at a basis's own eigenvalues lam / (4 pi^2) may round below the integer
    # it stands for (25.999999999999996 at 4 pi^2 * 26), so count as the basis
    assert spectral.torus_count_direct(5, 4.0 * math.pi * math.pi * 26) == 3
    for order, labels in ((0, range(-5, 6)), (3, range(3))):
        basis = eigensolve.torus_basis(1e4, order)
        for lam in np.unique(basis.eigenvalues):
            for m in labels:
                want = len(basis.label_rows(m, lam))
                assert spectral.torus_count_direct(m, lam, order) == want, (m, lam, order)


def test_label_rows_are_the_label_mask_below_lam():
    sor = eigensolve.surface_of_revolution_basis(geometry.sphere_profile(), 3, 4, 200)
    for basis in (sor, eigensolve.torus_basis(2e3, 3)):
        order = basis.manifold._group_order
        for m in range(-4, 5):
            mask = basis.m == (m % order if order else m)
            for lam in (-1.0, *np.unique(basis.eigenvalues), basis.lambda_max):
                want = np.flatnonzero(mask & (basis.eigenvalues <= lam))
                assert np.array_equal(basis.label_rows(m, lam), want), (m, lam)


def test_counting_function_is_the_closed_form_count(sphere200):
    """The count over the basis's modes against the lattice and ladder
    counts, for every label, at every distinct eigenvalue and at lambda_max."""
    cases = [(sphere200, spectral.sphere_count_direct)]
    for order in (0, 3):
        cases.append((eigensolve.torus_basis(1e4, order),
                      functools.partial(spectral.torus_count_direct, order=order)))
    for basis, direct in cases:
        for m in np.unique(basis.m).tolist():
            rsf = spectral.ReducedSpectralFunction(basis, m)
            for lam in (*np.unique(basis.eigenvalues).tolist(), basis.lambda_max):
                assert spectral.counting_function(rsf, lam) == direct(m, lam), (m, lam)


def test_sphere_count_direct():
    # modes with k(k+1) <= lam and k >= |m|, multiplicity 1 per label
    assert spectral.sphere_count_direct(0, 200.0) == 14
    assert spectral.sphere_count_direct(3, 200.0) == 11
    assert spectral.sphere_count_direct(0, 1e6) == 1000
    assert spectral.sphere_count_direct(40, 1e6) == 960
    assert spectral.sphere_count_direct(1001, 1e6) == 0


def test_monotone_in_lambda(sphere200):
    rsf = spectral.ReducedSpectralFunction(sphere200, 1)
    x = geometry.sphere_point(0.7, 0.0)
    vals = [spectral.reduced_spectral_diag(rsf, x, lam)
            for lam in (1.0, 10.0, 50.0, 120.0, 200.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_isotypic_completeness(sphere200):
    """Summing the reduced diagonals over all labels gives the full diagonal."""
    x = geometry.sphere_point(1.0, 0.3)
    k_top = eigensolve.sphere_k_max(200.0)
    total = sum(
        spectral.reduced_spectral_diag(
            spectral.ReducedSpectralFunction(sphere200, m), x, 200.0)
        for m in range(-k_top, k_top + 1)
    )
    want = sum((2 * k + 1) / (4 * math.pi) for k in range(k_top + 1))
    assert total == pytest.approx(want, rel=1e-10)


def test_counting_consistency(sphere200):
    """Integrating the reduced diagonal over the manifold counts the modes."""
    rsf = spectral.ReducedSpectralFunction(sphere200, 2)
    alpha, w = gauss_nodes(64)
    vals = np.array([
        spectral.reduced_spectral_diag(rsf, geometry.sphere_point(math.acos(a), 0.0), 200.0)
        for a in alpha
    ])
    integral = 2 * math.pi * float(np.sum(vals * w))
    assert integral == pytest.approx(spectral.counting_function(rsf, 200.0), rel=1e-6)


def test_window_additivity(sphere200):
    rsf = spectral.ReducedSpectralFunction(sphere200, 0)
    x = geometry.sphere_point(1.3, 2.0)
    lam = 109.5
    c = spectral.cluster_sum(rsf, x, lam)
    lo = spectral.reduced_spectral_diag(rsf, x, lam)
    hi = spectral.reduced_spectral_diag(rsf, x, lam + 1.0)
    assert c.value == pytest.approx(hi - lo, abs=1e-14)
    assert c.mode_count == 1


def test_cluster_empty_window(sphere200):
    rsf = spectral.ReducedSpectralFunction(sphere200, 0)
    x = geometry.sphere_point(1.3, 2.0)
    c = spectral.cluster_sum(rsf, x, 115.0)
    assert c.value == 0.0 and c.mode_count == 0
    with pytest.raises(EmptyWindowError):
        spectral.cluster_lp_norm(rsf, 115.0, 2.0)


def test_truncation_guard(sphere200):
    rsf = spectral.ReducedSpectralFunction(sphere200, 0)
    x = geometry.sphere_point(1.0, 0.0)
    with pytest.raises(TruncationError):
        spectral.reduced_spectral_diag(rsf, x, 500.0)


def test_kuznecov_identity(sphere200):
    rng = np.random.default_rng(3)
    for _ in range(8):
        theta = math.acos(rng.uniform(-1, 1))
        x = geometry.sphere_point(theta, rng.uniform(0, 2 * math.pi))
        kz = spectral.kuznecov_sum(sphere200, x, 200.0)
        diag = spectral.sphere_diag_direct(0, theta, 200.0)
        assert kz == pytest.approx(diag, rel=1e-10)


def test_kuznecov_rotation_route(sphere200):
    """The phase-weighted sum against the literal average over rotated
    points: sphere, surface of revolution, torus circle and cyclic actions."""
    sor = eigensolve.surface_of_revolution_basis(geometry.sphere_profile(), 3, 4, 200)
    cases = [
        (sphere200, geometry.sphere_point(0.9, 1.7), 200.0),
        (sor, (1.1, 0.4), sor.lambda_max),
        (eigensolve.torus_basis(500.0), (0.123, 0.456), 500.0),
        (eigensolve.torus_basis(500.0, order=3), (0.123, 0.456), 500.0),
    ]
    for basis, x, lam in cases:
        fast = spectral.kuznecov_sum(basis, x, lam)
        literal = spectral.kuznecov_sum_by_rotation(basis, x, lam)
        assert fast > 0.1
        assert fast == pytest.approx(literal, rel=1e-11)


def test_kuznecov_matches_label0_diagonal_at_suite_lambda():
    basis = eigensolve.sphere_basis(1e4)
    rng = np.random.default_rng(20260815)
    xs = np.array([geometry.sphere_point(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
                   for _ in range(3)])
    sums = spectral.kuznecov_sum(basis, xs, 1e4)
    for x, ks in zip(xs, sums):
        diag = spectral.sphere_diag_direct(0, geometry.sphere_colatitude(x), 1e4)
        assert abs(ks - diag) <= 1e-10 * max(1.0, diag)
    # point by point, the same sums to the bit
    assert [spectral.kuznecov_sum(basis, x, 1e4) for x in xs] == sums.tolist()


def test_kuznecov_sum_is_the_trivial_label_sum_at_the_suite_points():
    """At the kuznecov suite id's 20 seeded points, the sum is bit for bit
    the pairwise sum of |e_j(x)|^2 over the label-0 rows with lambda_j <=
    lambda: the other labels' group averages vanish exactly, so no row of
    theirs may enter it."""
    basis = eigensolve.sphere_basis(1e4)
    rng = np.random.default_rng(20260815)
    xs = np.array([geometry.sphere_point(math.acos(rng.uniform(-1.0, 1.0)),
                                         rng.uniform(0.0, 2.0 * math.pi))
                   for _ in range(20)])
    rows = np.flatnonzero((basis.m == 0) & (basis.eigenvalues <= 1e4))
    vals = basis.evaluate(xs, rows)
    want = [float(pairwise_sum(np.hypot(v.real, v.imag) ** 2)) for v in vals.T]
    assert spectral.kuznecov_sum(basis, xs, 1e4).tolist() == want


def test_kuznecov_pole_value(sphere200):
    # at the pole only m = 0 contributes: sum of (2k+1)/(4 pi), k <= 10
    x = geometry.sphere_point(0.0, 0.0)
    got = spectral.kuznecov_sum(sphere200, x, 110.0)
    assert got == pytest.approx(121.0 / (4.0 * math.pi), rel=1e-11)


def test_kuznecov_torus_small(torus500):
    # modes with k1 = 0 and eigenvalue <= 4 pi^2: (0,0), (0,1), (0,-1)
    got = spectral.kuznecov_sum(torus500, (0.123, 0.456), 4 * math.pi ** 2 + 1e-9)
    assert got == pytest.approx(3.0, abs=1e-12)


def test_cluster_lp_norm_examples(sphere200):
    rsf = spectral.ReducedSpectralFunction(sphere200, 0)
    # Y_{1,0} occupies the window below lambda = 2
    assert spectral.cluster_lp_norm(rsf, 1.5, 2.0) == pytest.approx(1.0, rel=1e-10)
    got = spectral.cluster_lp_norm(rsf, 1.5, math.inf)
    assert got == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)), rel=5e-3)
    # higher window, pole maximum sqrt((2k+1)/4pi)
    got = spectral.cluster_lp_norm(rsf, 109.5, math.inf)
    assert got == pytest.approx(math.sqrt(21.0 / (4.0 * math.pi)), rel=5e-3)


def _legendre_lp_norm(k, m, p):
    """L^p(S^2) norm of Y_{k,m} from numpy's Legendre series: P_k^m is
    (1 - x^2)^(m/2) times the m-th derivative of P_k, and 100 Gauss nodes
    integrate its even powers exactly up to degree 199."""
    m = abs(m)
    x, w = np.polynomial.legendre.leggauss(100)
    c = math.sqrt((2 * k + 1) / (4 * math.pi) * math.factorial(k - m) / math.factorial(k + m))
    pbar = c * (1 - x * x) ** (m / 2) * np.polynomial.Legendre.basis(k).deriv(m)(x)
    return (2 * math.pi * float(w @ np.abs(pbar) ** p)) ** (1 / p)


@pytest.mark.parametrize("m, lam, k", [(0, 109.5, 10), (3, 109.5, 10), (-2, 181.5, 13),
                                       (13, 181.5, 13)])
def test_cluster_l4_norm_sphere(sphere200, m, lam, k):
    rsf = spectral.ReducedSpectralFunction(sphere200, m)
    assert spectral.cluster_lp_norm(rsf, lam, 4.0) == pytest.approx(
        _legendre_lp_norm(k, m, 4.0), rel=1e-12)


def test_cluster_l4_norm_sphere_profile():
    # the profile basis of grid 400 against the round sphere: m != 0 errors
    # fall as h^2 with the grid, m = 0 carries the meridian trapezoid's
    # (1.8e-3 at k = 4)
    sor = eigensolve.surface_of_revolution_basis(geometry.sphere_profile(), 5, 6, 400)
    for m, k in ((0, 4), (2, 4), (-1, 3), (4, 4)):
        rsf = spectral.ReducedSpectralFunction(sor, m)
        got = spectral.cluster_lp_norm(rsf, k * (k + 1) - 0.5, 4.0)
        assert got == pytest.approx(_legendre_lp_norm(k, m, 4.0), rel=3e-3)


def test_cluster_lp_norm_closed_profile():
    # the closed meridian's L/n steps against sums over the basis's own cell
    # centers, which are not the meridian nodes: L^2 and L^4 agree to the
    # interpolation error.  Each label's highest mode whose unit window fits
    # the basis peaks at s = 0 or L/2, a meridian node midway between two
    # equal cell values, so the maximum agrees to rounding
    prof = geometry.torus_profile()
    sor = eigensolve.surface_of_revolution_basis(prof, 12, 4, 400)
    n = sor.radial.shape[1] - 2
    h = prof.length / n
    r = prof.r((np.arange(n) + 0.5) * h)
    for m in (0, 2, -3, 7):
        top = int(sor.label_rows(m, sor.lambda_max - 0.5)[-1])
        lam = float(sor.eigenvalues[top]) - 0.5
        u = np.abs(sor.radial[top, 1:-1])
        rsf = spectral.ReducedSpectralFunction(sor, m)
        assert abs(spectral.cluster_lp_norm(rsf, lam, 2.0) - 1.0) <= 1e-4
        l4 = (2.0 * math.pi * h * float(np.sum(u ** 4 * r))) ** 0.25
        assert abs(spectral.cluster_lp_norm(rsf, lam, 4.0) - l4) <= 1e-4
        assert abs(spectral.cluster_lp_norm(rsf, lam, math.inf) - float(np.max(u))) <= 1e-12


def test_cluster_lp_norm_torus(torus500):
    lam = 4 * math.pi ** 2 - 0.5
    for basis in (torus500, eigensolve.torus_basis(500.0, order=3)):
        rsf = spectral.ReducedSpectralFunction(basis, 1)
        assert spectral.cluster_lp_norm(rsf, lam, math.inf) == pytest.approx(1.0, rel=1e-9)
        assert spectral.cluster_lp_norm(rsf, lam, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_exponent_delta_pins():
    assert spectral.exponent_delta(2, 0, math.inf) == pytest.approx(0.5)
    assert spectral.exponent_delta(2, 1, math.inf) == 0.0
    assert spectral.exponent_delta(3, 0, 2.0) == 0.0
    with pytest.raises(DomainError):
        spectral.exponent_delta(2, 0, 0.5)


@settings(max_examples=50, deadline=None)
@given(q=st.floats(min_value=1.0, max_value=1e6))
def test_exponent_delta_nonnegative(q):
    for kappa in (0, 1):
        assert spectral.exponent_delta(2, kappa, q) >= 0.0
