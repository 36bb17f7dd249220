"""Manifold, orbit, and momentum-level geometry."""
import math
import re

import numpy as np
import pytest

from equiweyl import geometry
from equiweyl.errors import InvalidPointError, SingularProfileError


def test_sphere_point_is_unit():
    x = geometry.sphere_point(1.0, 0.5)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
    assert x[2] == pytest.approx(math.cos(1.0), abs=1e-15)


def test_orbit_data_principal_vs_fixed():
    man = geometry.RoundSphere2()
    eq = geometry.orbit_data(man, geometry.sphere_point(math.pi / 2, 0.0))
    assert eq.kappa_x == 1
    assert eq.orbit_length == pytest.approx(2 * math.pi)
    pole = geometry.orbit_data(man, geometry.sphere_point(0.0, 0.0))
    assert pole.kappa_x == 0
    assert pole.orbit_length == 0.0
    mid = geometry.orbit_data(man, geometry.sphere_point(0.3, 0.0))
    assert mid.orbit_length == pytest.approx(2 * math.pi * math.sin(0.3), rel=1e-12)


def test_cotangent_point_validation():
    man = geometry.RoundSphere2()
    x = geometry.sphere_point(1.0, 0.0)
    with pytest.raises(InvalidPointError):
        geometry.momentum_pairing(man, np.array([0.0, 0.0, 2.0]), np.zeros(3))
    with pytest.raises(InvalidPointError):
        # covector must live in the cotangent plane
        geometry.rotate_cotangent(man, x, x * 0.5, 0.3)


def test_momentum_pairing_annihilator():
    """Pairing vanishes exactly on covectors normal to the orbit direction."""
    man = geometry.RoundSphere2()
    x = geometry.sphere_point(1.2, 0.4)
    orbit_dir = np.array([-x[1], x[0], 0.0])
    e_th = np.cross(x, orbit_dir)
    xi = e_th / np.linalg.norm(e_th)
    assert abs(geometry.momentum_pairing(man, x, xi)) <= 1e-14
    along = orbit_dir / np.linalg.norm(orbit_dir)
    assert abs(geometry.momentum_pairing(man, x, along)) == pytest.approx(math.sin(1.2), rel=1e-12)


def test_lifted_volume_closed_form():
    man = geometry.RoundSphere2()
    x = geometry.sphere_point(1.0, 0.5)
    xi = np.array([0.1, 0.2, -0.3])
    xi = xi - np.dot(xi, x) * x
    got = geometry.lifted_orbit_volume(man, x, xi)
    want = 2 * math.pi * math.sqrt(x[0] ** 2 + x[1] ** 2 + xi[0] ** 2 + xi[1] ** 2)
    assert got == pytest.approx(want, rel=1e-14)


def test_sor_volume_matches_sphere_closed_form():
    """The quadrature route on the sphere profile equals the round-sphere value."""
    prof = geometry.sphere_profile()
    for theta, xi_s, xi_phi in [(1.0, 0.6, 0.4), (0.4, -0.3, 0.2), (2.2, 0.0, 1.0)]:
        v_sor = geometry.lifted_orbit_volume(prof, (theta, 0.0), (xi_s, xi_phi))
        x = geometry.sphere_point(theta, 0.0)
        e_th = np.array([math.cos(theta), 0.0, -math.sin(theta)])
        e_ph = np.array([0.0, 1.0, 0.0])
        xi = xi_s * e_th + (xi_phi / math.sin(theta)) * e_ph
        v_sphere = geometry.lifted_orbit_volume(geometry.RoundSphere2(), x, xi)
        assert v_sor == pytest.approx(v_sphere, rel=1e-9)


@pytest.mark.parametrize("prof", [geometry.sphere_profile(), geometry.torus_profile()],
                         ids=["open", "closed"])
def test_a_profile_point_is_exactly_s_phi(prof):
    """One point is (s, phi) and rows are two wide: a missing azimuth or a
    middle coordinate is refused, not read past."""
    for x in [(1.0,), (1.0, 0.0, 0.0), (1.0, math.nan, 0.0), 1.0, np.ones((3, 1)), np.ones((3, 3))]:
        with pytest.raises(InvalidPointError, match=r"\(s, phi\)"):
            geometry.orbit_data(prof, x)
    for x in [(1.0,), (1.0, 0.0, 0.0)]:
        with pytest.raises(InvalidPointError):
            geometry.lifted_orbit_volume(prof, x, (0.5, 0.2))
        with pytest.raises(InvalidPointError):
            geometry.cosphere_fiber_slice(prof, x, 8)
    assert geometry.orbit_data(prof, np.array([1.0, 0.3])) == geometry.orbit_data(prof, (1.0, 0.3))


def test_torus_conventions():
    t = geometry.FlatTorus2()
    x, xi = (0.25, 0.35), (0.3, -0.2)
    # the circle acts on the first coordinate; unit-speed orbit of volume 1
    assert geometry.momentum_pairing(t, x, xi) == pytest.approx(0.3, abs=1e-15)
    assert geometry.lifted_orbit_volume(t, x, xi) == pytest.approx(1.0, abs=1e-15)
    od = geometry.orbit_data(t, (0.25, 0.35))
    assert od.kappa_x == 1


def test_cosphere_fiber_slice_structure():
    """A segment of weight 2 on a principal orbit, a disc of weight pi where
    the fiber condition is empty; every row lies on the momentum zero level
    inside the unit ball."""
    segment, disc = (32, 2.0), (32 * 32, math.pi)
    cases = [
        (geometry.RoundSphere2(), geometry.sphere_point(1.0, 0.5), segment),
        (geometry.RoundSphere2(), geometry.sphere_point(0.0), disc),
        (geometry.sphere_profile(), (0.0, 0.0), disc),
        (geometry.sphere_profile(), (math.pi, 0.0), disc),
        (geometry.FlatTorus2(), (0.25, 0.35), segment),
    ]
    for man, x, (n_rows, total) in cases:
        xi, w = geometry.cosphere_fiber_slice(man, x, 32)
        assert len(xi) == n_rows and w.shape == (n_rows,)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(np.linalg.norm(xi, axis=1) <= 1.0 + 1e-12)
        assert max(abs(geometry.momentum_pairing(man, x, row)) for row in xi) <= 1e-12
        # the rows' lifted lengths are the one-covector lengths, bit for bit
        assert geometry.lifted_orbit_volume(man, x, xi).tolist() == [
            geometry.lifted_orbit_volume(man, x, row) for row in xi]


def test_lifted_volume_rejects_azimuth_at_profile_pole():
    prof = geometry.sphere_profile()
    with pytest.raises(InvalidPointError):
        geometry.lifted_orbit_volume(prof, (0.0, 0.0), (0.5, 0.2))
    with pytest.raises(InvalidPointError):
        geometry.lifted_orbit_volume(prof, (0.0, 0.0), [(0.5, 0.0), (0.3, 0.1)])


def test_profiles():
    sp = geometry.sphere_profile()
    assert sp.r(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert sp.r(0.0) == pytest.approx(0.0, abs=1e-15)
    assert sp.length == pytest.approx(math.pi)
    tp = geometry.torus_profile(R=2.0, a=0.5)
    assert tp.closed
    assert tp.r(0.0) == pytest.approx(2.5, rel=1e-12)


def test_series_profiles_keep_their_closed_form_bits():
    """The built-in profiles give the old closed forms' bits, on a grid and
    at one point: the benchmark's digests and the regressions read them."""
    s = np.linspace(0.0, math.pi, 1001)
    sp = geometry.sphere_profile()
    assert np.array_equal(sp.r(s), np.sin(s)) and np.array_equal(sp.r_prime(s), np.cos(s))
    assert sp.r(1.3) == np.sin(1.3) and sp.r_prime(1.3) == np.cos(1.3)
    for R, a, prof in [(2.0, 0.5, geometry.torus_profile()),
                       (2.3401442037428994, 1.0, geometry.torus_profile(2.3401442037428994, 1.0))]:
        s = np.linspace(0.0, 2.0 * math.pi * a, 1001)
        assert np.array_equal(prof.r(s), R + a * np.cos(s / a))
        assert np.array_equal(prof.r_prime(s), -np.sin(s / a))
        assert prof.r(1.3) == R + a * np.cos(1.3 / a) and prof.r_prime(1.3) == -np.sin(1.3 / a)


@pytest.mark.parametrize("length, a, b", [
    (0.0, [1.5], []), (-2.0, [1.5], []), (math.inf, [1.5], []), (math.nan, [1.5], []),
    (2.0, [math.nan], []), (2.0, [1.5, math.inf], []), (2.0, [1.5], [math.nan]),
], ids=["zero", "negative", "inf", "nan", "nan-a0", "inf-a1", "nan-b1"])
def test_profile_refuses_a_bad_length_or_coefficient(length, a, b):
    with pytest.raises(SingularProfileError, match="not finite and positive|must be finite"):
        geometry.SurfaceOfRevolution(length, closed=True, a=a, b=b)


@pytest.mark.parametrize("b2, where", [(-2.5e-5, "end s = 0"), (2.5e-5, "end s = L")],
                         ids=["start", "end"])
def test_open_profile_refuses_a_cone_point(b2, where):
    """r = b_1 sin s + b_2 sin 2s with r'(0) = 1 - 1e-4 and r'(pi) = -1, or
    r'(0) = 1 and r'(pi) = -1 + 1e-4: a cone at one pole."""
    with pytest.raises(SingularProfileError, match=re.escape(where)):
        geometry.SurfaceOfRevolution(math.pi, b=[1.0 - 5e-5, b2])


@pytest.mark.parametrize("kwargs, match", [
    (dict(closed=True, a=[1.0, 1.0]), "vanishes in the interior"),
    (dict(closed=True, a=[0.4, 0.5]), "vanishes in the interior"),
    (dict(closed=True, a=[3.0, 1.1]), "arclength"),
    (dict(b=[1.375, 0.0, -0.125]), "arclength"),
    (dict(a=[0.0, 0.1], b=[1.0]), "no a_j"),
], ids=["closed-touches-zero", "closed-crosses-zero", "closed-steep", "open-steep",
        "open-with-cosines"])
def test_series_profile_refusals(kwargs, match):
    """An interior zero (a_0 <= |a_1|), |r'| > 1 (r = sin s (1 + a sin^2 s)
    at a = 1/2 on the open side) and cosine terms on an open profile."""
    length = 2.0 * math.pi if kwargs.get("closed") else math.pi
    with pytest.raises(SingularProfileError, match=match):
        geometry.SurfaceOfRevolution(length, **kwargs)


def test_closed_profile_refuses_a_zero_between_samples():
    """r = 1 + cos(s - 0.001) reaches 0 at s = pi + 0.001, between two of the
    2049 samples, whose least value is 5.0e-7: the bound h^2/8 sum (jk)^2
    |c_j| on the dip between samples refuses it."""
    with pytest.raises(SingularProfileError, match="vanishes in the interior"):
        geometry.SurfaceOfRevolution(2.0 * math.pi, closed=True, a=[1.0, math.cos(0.001)],
                                     b=[math.sin(0.001)])


@pytest.mark.parametrize("length, a", [
    (math.pi, [2.0, 0.5]), (2.0 * math.pi, [2.3401442037428994, 1.0]),
    (2.0, [2.5, 0.1 / math.pi, 0.1 / math.pi]), (1.0, [1.0, 0.0, 0.25 / (2.0 * math.pi)]),
    (2.0, [1.5]), (2.0 * math.pi, [1.0, 0.999]),
], ids=["torus", "torus-2.34", "closed-2.5", "half-period", "constant", "thin-neck"])
def test_closed_profiles_that_stay_positive_are_accepted(length, a):
    """The torus profiles, the closed profiles of the eigensolver tests, and
    r = 1 + 0.999 cos s, whose least value 0.001 the bound's 1.2e-6 leaves
    positive."""
    prof = geometry.SurfaceOfRevolution(length, closed=True, a=a)
    assert np.min(prof.r(np.linspace(0.0, length, 10001))) > 0.0


@pytest.mark.parametrize("R, a", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0)])
def test_torus_profile_needs_R_above_a_above_0(R, a):
    with pytest.raises(SingularProfileError, match="R > a > 0"):
        geometry.torus_profile(R, a)

