"""Leading growth coefficients from the fiber-slice integral."""
import math

import numpy as np
import pytest

from equiweyl import geometry, spectral, weylcoef
from equiweyl.lab import fit_power_law


def test_equator_closed_form():
    assert weylcoef.equator_coefficient_closed_form(math.pi / 2) == pytest.approx(
        1.0 / (2.0 * math.pi ** 2), rel=1e-14)


def test_equator_local_coefficient():
    pred = weylcoef.local_leading_coefficient(
        geometry.RoundSphere2(), geometry.sphere_point(math.pi / 2, 0.0), 0)
    assert pred.exponent == pytest.approx(0.5)
    assert pred.coefficient == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-10)
    assert pred.evaluate(4.0) == pytest.approx(pred.coefficient * 2.0, rel=1e-14)


def test_generic_latitude_matches_closed_form():
    for theta in (0.4, 1.0, 1.3):
        pred = weylcoef.local_leading_coefficient(
            geometry.RoundSphere2(), geometry.sphere_point(theta, 0.0), 0)
        assert pred.coefficient == pytest.approx(
            weylcoef.equator_coefficient_closed_form(theta), rel=1e-8)


def test_pole_prediction_frozen_formula():
    pred = weylcoef.local_leading_coefficient(
        geometry.RoundSphere2(), geometry.sphere_point(0.0, 0.0), 0)
    assert pred.exponent == pytest.approx(1.0)
    assert pred.coefficient == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-10)


def test_exponent_dichotomy():
    sphere = geometry.RoundSphere2()
    at_pole = weylcoef.local_leading_coefficient(sphere, geometry.sphere_point(0.0, 0.0), 0)
    generic = weylcoef.local_leading_coefficient(sphere, geometry.sphere_point(1.1, 0.0), 0)
    # (n - kappa_x)/2 jumps from 1 at the fixed point to 1/2 on circles
    assert at_pole.exponent == 1.0
    assert generic.exponent == 0.5


def test_torus_local_coefficient():
    pred = weylcoef.local_leading_coefficient(geometry.FlatTorus2(), (0.25, 0.35), 3)
    assert pred.exponent == pytest.approx(0.5)
    assert pred.coefficient == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_torus_global_coefficient():
    got = weylcoef.global_leading_coefficient(geometry.FlatTorus2(), 3)
    assert got == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_sphere_global_value():
    """The x-integral of the frozen local coefficients evaluates to pi/4."""
    got = weylcoef.global_leading_coefficient(geometry.RoundSphere2(), 0)
    assert got == pytest.approx(math.pi / 4.0, rel=1e-3)


def test_sor_global_consistent_with_sphere():
    s2 = weylcoef.global_leading_coefficient(geometry.RoundSphere2(), 0)
    sor = weylcoef.global_leading_coefficient(geometry.sphere_profile(), 0)
    assert sor == pytest.approx(s2, rel=1e-4)


@pytest.mark.xfail(strict=True, reason="the fiber-slice integral of the frozen "
                   "reciprocal orbit volume gives pi/4, not the counting slope 1")
def test_sphere_global_equals_counting_slope():
    got = weylcoef.global_leading_coefficient(geometry.RoundSphere2(), 0)
    assert got == pytest.approx(1.0, rel=0.01)


@pytest.mark.xfail(strict=True, reason="the frozen reciprocal-volume coefficient "
                   "diverges only logarithmically toward the fixed point, so its "
                   "log-log slope sits far above -1")
def test_predicted_coefficient_blowup_rate():
    thetas = np.array([0.05, 0.08, 0.13, 0.21, 0.34, 0.55])
    cs = np.array([
        weylcoef.local_leading_coefficient(
            geometry.RoundSphere2(), geometry.sphere_point(th, 0.0), 0).coefficient
        for th in thetas
    ])
    fit = fit_power_law(thetas, cs)
    assert abs(fit["slope"] - (-1.0)) <= 0.05


def test_measured_coefficient_blowup_rate():
    """The measured local coefficient does diverge like 1/sin(theta)."""
    thetas = np.array([0.05, 0.08, 0.13, 0.21, 0.34, 0.55])
    lam = 1e6
    measured = np.array([
        np.mean([spectral.sphere_diag_direct(0, th, lam + j) for j in range(5)])
        / math.sqrt(lam)
        for th in thetas
    ])
    fit = fit_power_law(thetas, measured)
    assert abs(fit["slope"] - (-1.0)) <= 0.05
    # and the profile tracks 1/(2 pi^2 sin theta) pointwise
    ref = 1.0 / (2.0 * math.pi ** 2 * np.sin(thetas))
    assert np.max(np.abs(measured / ref - 1.0)) <= 0.05


def test_predicted_coefficient_monotone_blowup():
    thetas = np.array([0.05, 0.1, 0.2, 0.4, 0.8, 1.4])
    cs = [
        weylcoef.local_leading_coefficient(
            geometry.RoundSphere2(), geometry.sphere_point(th, 0.0), 0).coefficient
        for th in thetas
    ]
    assert all(a > b for a, b in zip(cs, cs[1:]))
