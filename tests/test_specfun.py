"""Normalized Legendre / spherical harmonic evaluation against slow oracles."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiweyl import specfun
from equiweyl.errors import DomainError, IndexRangeError


def mp_normalized_legendre(k, m, alpha):
    """Direct high-precision evaluation of the L^2(S^2)-normalized function."""
    mpmath.mp.dps = 40
    norm = mpmath.sqrt(
        (2 * k + 1) / (4 * mpmath.pi) * mpmath.factorial(k - m) / mpmath.factorial(k + m)
    )
    return float(norm * mpmath.legenp(k, m, alpha))


def test_normalized_ladder_matches_mpmath():
    rng = np.random.default_rng(7)
    alphas = rng.uniform(-0.999, 0.999, size=6)
    for k, m in [(3, 0), (3, 2), (10, 5), (25, 25), (60, 7)]:
        ours = specfun.assoc_ladder(m, k, alphas, degrees=[k])[0]
        for a, v in zip(alphas, ours):
            assert v == pytest.approx(mp_normalized_legendre(k, m, a), rel=1e-10, abs=1e-13)


def test_negative_m_magnitude():
    alphas = np.linspace(-0.9, 0.9, 5)
    plus = specfun.assoc_ladder(4, 9, alphas, degrees=[9])[0]
    minus = specfun.assoc_ladder(-4, 9, alphas, degrees=[9])[0]
    assert np.allclose(np.abs(plus), np.abs(minus), rtol=1e-13)


def test_parity():
    alphas = np.linspace(-0.8, 0.8, 7)
    for k, m in [(6, 0), (7, 3), (12, 5)]:
        left = specfun.assoc_ladder(m, k, -alphas, degrees=[k])[0]
        right = (-1.0) ** (k + m) * specfun.assoc_ladder(m, k, alphas, degrees=[k])[0]
        assert np.allclose(left, right, rtol=1e-12, atol=1e-14)


def test_pole_values():
    # only m = 0 survives at the poles, at sqrt((2k+1)/4pi); the recurrence
    # loses ~ eps * k, so the bound scales with k
    for k in (0, 1, 5, 200, 800):
        v = specfun.assoc_ladder(0, k, 1.0, degrees=[k])[0]
        assert v == pytest.approx(math.sqrt((2 * k + 1) / (4 * math.pi)),
                                  rel=1e-14 * max(100, k))
    for m in (1, 3):
        v = specfun.assoc_ladder(m, 8, np.array([1.0, -1.0]), degrees=[8])[0]
        assert np.all(v == 0.0)


def test_high_degree_stability():
    # the pointwise values stay bounded by the pole value at high degree
    alphas = np.linspace(-1.0, 1.0, 201)
    vals = specfun.assoc_ladder(0, 900, alphas, degrees=[900])[0]
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= math.sqrt((2 * 900 + 1) / (4 * math.pi)) * (1 + 1e-11)


def test_orthonormality_by_quadrature():
    nodes, w = np.polynomial.legendre.leggauss(120)
    for m in (0, 2):
        f1 = specfun.assoc_ladder(m, 8, nodes, degrees=[8])[0]
        f2 = specfun.assoc_ladder(m, 12, nodes, degrees=[12])[0]
        assert 2 * math.pi * np.sum(f1 * f1 * w) == pytest.approx(1.0, abs=1e-12)
        assert 2 * math.pi * np.sum(f1 * f2 * w) == pytest.approx(0.0, abs=1e-12)


def test_spherical_harmonic_value():
    # Y_{1,0} = sqrt(3/4pi) cos(theta)
    got = specfun.spherical_harmonic(1, 0, 0.4, 1.1)
    assert got == pytest.approx(math.sqrt(3 / (4 * math.pi)) * math.cos(0.4), rel=1e-13)
    # Y_{1,1} magnitude
    got = specfun.spherical_harmonic(1, 1, 0.4, 1.1)
    mag = math.sqrt(3 / (8 * math.pi)) * math.sin(0.4)
    assert abs(got) == pytest.approx(mag, rel=1e-12)


def test_spherical_harmonic_at_phi_zero_keeps_the_ladder_square():
    # e^{i m 0} = 1 + 0i: |Y|^2 is the squared normalized Legendre value, bit for bit
    for k, m, theta in ((0, 0, 0.0), (7, 3, 0.4), (140, 0, 0.0), (800, -5, 2.9)):
        pbar = float(specfun.assoc_ladder(m, k, math.cos(theta), degrees=[k])[0])
        assert abs(specfun.spherical_harmonic(k, m, theta, 0.0)) ** 2 == pbar * pbar


def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.assoc_ladder(0, 3, np.array([1.5]))
    with pytest.raises((DomainError, IndexRangeError)):
        specfun.assoc_ladder(5, 3, np.array([0.0]))
    with pytest.raises((DomainError, IndexRangeError)):
        specfun.assoc_ladder(0, -1, np.array([0.0]))


@pytest.mark.parametrize("alpha", [math.nan, np.array([0.2, math.nan, 0.4])], ids=["scalar", "array"])
def test_nan_alpha_is_a_domain_error(alpha):
    # abs(nan) > 1 is False, so a NaN once ran the ladder to [0.2821, nan, ...]
    with pytest.raises(DomainError):
        specfun.assoc_ladder(0, 5, alpha)


def _ladder_as_first_written(m, k_max, a):
    """Every row of the two-row recurrence in its first form: each step
    A a p - B p_prev as fresh arrays."""
    am = abs(m)
    lg = specfun._seed_log(am, np.clip(1.0 - a * a, 0.0, 1.0))
    p_km = (-1.0 if am % 2 else 1.0) * np.where(lg > specfun._LOG_TINY, np.exp(lg), 0.0)
    rows, p_prev = [p_km], np.zeros_like(a)
    for k in range(am, k_max):
        A = math.sqrt((2 * k + 1) * (2 * k + 3) / ((k + 1 - am) * (k + 1 + am)))
        B = 0.0 if k == am else math.sqrt(
            (2 * k + 3) * (k - am) * (k + am) / ((2 * k - 1) * (k + 1 - am) * (k + 1 + am)))
        p_km, p_prev = A * a * p_km - B * p_prev, p_km
        rows.append(p_km)
    out = np.array(rows)
    return -out if m < 0 and am % 2 else out


@pytest.mark.parametrize("n", [1, 65, 4832])
@pytest.mark.parametrize("m", [0, 3, -5])
def test_ladder_keeps_the_first_recurrence_bits(m, n):
    """The in-place steps, and the Python floats of one point, give the
    first form's rows bit for bit, all of them and a repeated subset."""
    k_max = 200
    a = np.cos(np.linspace(0.0, math.pi, n)) if n > 1 else np.array([0.3])
    want = _ladder_as_first_written(m, k_max, a)
    assert specfun.assoc_ladder(m, k_max, a).tobytes() == want.tobytes()
    picks = [k_max, abs(m), k_max, (abs(m) + k_max) // 2, abs(m)]
    got = specfun.assoc_ladder(m, k_max, a, degrees=picks)
    assert got.tobytes() == want[np.array(picks) - abs(m)].tobytes()
    if n == 1:
        assert specfun.assoc_ladder(m, k_max, 0.3).tobytes() == want[:, 0].tobytes()


@pytest.mark.parametrize("m", [0, 1, -4, 7])
def test_chosen_degrees_are_the_full_ladders_rows(m):
    alphas = np.concatenate(([-1.0, 0.0, 1.0], np.linspace(-0.999, 0.999, 41)))
    for k_max in (abs(m), abs(m) + 3, 900):
        full = specfun.assoc_ladder(m, k_max, alphas)
        picks = [k_max, abs(m), k_max, (abs(m) + k_max) // 2, abs(m)]
        got = specfun.assoc_ladder(m, k_max, alphas, degrees=picks)
        assert np.array_equal(got, full[np.array(picks) - abs(m)])
        # a scalar alpha gives one value a degree
        one = specfun.assoc_ladder(m, k_max, 0.3, degrees=picks)
        assert np.array_equal(one, specfun.assoc_ladder(m, k_max, 0.3)[np.array(picks) - abs(m)])
    for bad in ([abs(m) - 1], [901], [abs(m), -1]):
        with pytest.raises(IndexRangeError):
            specfun.assoc_ladder(m, 900, alphas, degrees=bad)


def test_one_degree_holds_one_row():
    # a ladder to degree 800 at 20,000 points is 128 MB as a full table;
    # one asked-for degree keeps two rows and the answer
    alphas = np.linspace(-1.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        specfun.assoc_ladder(0, 800, alphas, degrees=[800])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=60),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_zonal_bounded_by_pole(k, frac):
    alpha = 2.0 * frac - 1.0
    v = specfun.assoc_ladder(0, k, alpha, degrees=[k])[0]
    assert abs(v) <= math.sqrt((2 * k + 1) / (4 * math.pi)) * (1 + 1e-12)


def test_seed_table_is_filled_once_for_every_degree():
    # a tuple built at import up to the degree limit: no ladder writes it;
    # the entries are the running sums in j order, bit for bit
    table = specfun._LOG_HALF_FACT
    assert isinstance(table, tuple) and len(table) == specfun.DEGREE_LIMIT + 1
    running = [0.0]
    for j in range(1, specfun.DEGREE_LIMIT + 1):
        running.append(running[-1] + math.log((2 * j - 1) / (2 * j)))
    assert list(table) == running
