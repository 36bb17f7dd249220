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


def test_profile_from_file(tmp_path):
    s = np.linspace(0.0, math.pi, 200)
    lines = ["s,r"] + [f"{si},{math.sin(si)}" for si in s]
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(lines) + "\n")
    prof = geometry.profile_from_file(path)
    assert prof.r(1.0) == pytest.approx(math.sin(1.0), abs=1e-6)
    assert prof.r_prime(1.0) == pytest.approx(math.cos(1.0), abs=1e-4)


def test_closed_file_profile_is_smooth_at_its_seam(tmp_path):
    # 200 rows of r = 2 + 0.5 cos(s / 0.5): r' is 0 at both ends
    s = np.linspace(0.0, math.pi, 200)
    path = tmp_path / "torus.csv"
    path.write_text("".join(f"{si} {2.0 + 0.5 * math.cos(si / 0.5)}\n" for si in s))
    prof = geometry.profile_from_file(path)
    assert prof.closed
    assert abs(prof.r_prime(0.0)) <= 1e-10 and abs(prof.r_prime(prof.length)) <= 1e-10
    path.write_text("0 1\n1 1.5\n2 0.8\n3 1\n")
    prof = geometry.profile_from_file(path)
    assert prof.r_prime(0.0) == pytest.approx(prof.r_prime(3.0), abs=1e-12)
    assert prof.r(np.arange(4.0)).tolist() == [1.0, 1.5, 0.8, 1.0]


def test_closed_profile_rejects_a_seam_crease():
    # r(0) = r(L) = 2, but r'(0) = 0.05 against r'(L) = -0.05
    with pytest.raises(SingularProfileError, match=re.escape("end s = L: r'(L) - r'(0)")):
        geometry.SurfaceOfRevolution(lambda s: 2.0 + 0.1 * np.sin(np.asarray(s) / 2.0),
                                     lambda s: 0.05 * np.cos(np.asarray(s) / 2.0),
                                     2.0 * math.pi, closed=True)


@pytest.mark.parametrize("text, where", [
    ("s,r\n0.0,0.0\n0.5\n1.0,0.8\n1.5,0.9\n", ":3:"),
    ("s,r\n", "no (s, r) rows"),
    ("s,r\n0.0,0.0\n0.5,abc\n1.0,0.8\n1.5,0.9\n", ":3:"),
    ("s,r\n0.0,0.0\n0.5,0.4\n1.0,0.8\n", "at least 4"),
    ("s,r\n0.0,0.0\n0.5,0.4\n0.5,0.5\n1.0,0.8\n", ":4:"),
    ("s,r\n0 0.5\n1 0.6\n2 0.4\n3 0.0\n", "end s = 0"),
    ("s,r\n0 0.5\n1 0.6\n2 0.4\n3 0.9\n", "end s = L"),
    ("s,r\n0 0\n1 0.5\n2 0.5\n3 0\n", "end s = 0"),
], ids=["one-column", "header-only", "non-numeric", "too-few", "non-increasing",
        "open-end-not-a-pole", "closed-seam-jump", "open-pole-cone"])
def test_profile_from_file_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SingularProfileError, match=re.escape(where)):
        geometry.profile_from_file(path)


def test_profile_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,r\n0.0,1.0\n")
    with pytest.raises(SingularProfileError):
        geometry.profile_from_file(path)

