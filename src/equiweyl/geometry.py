"""Model surfaces with isometric circle actions: orbit data, momentum
pairing, lifted-orbit volumes in the embedded (co)tangent bundle, and
quadrature slices of the momentum zero level in each fiber."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (InvalidPointError, ResourceLimitError, SingularProfileError,
                     StratumContributionWarning)
from .util import MAX_GRID_NODES, _colatitude_nodes, gauss_nodes, pairwise_sum

_POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# manifolds
#
# Each class carries its action and closed forms: private attributes
# (perfbench's tracer wraps public methods) answer every question that
# depends on the manifold.  _point(x), the one point rule, returns one point
# or (P, d) rows checked and in canonical form, or raises InvalidPointError;
# the other private methods take its points.  _meridian(mu, p) is an
# orbit-space rule for |e|^p at frequency mu: nodes, orbit-length weights,
# the ends, the map to points.

_TWO_PI = 2.0 * math.pi
_E3 = np.array([0.0, 0.0, 1.0])
# Gauss nodes of a global coefficient's orbit-space integral
_X_NODES = 64


def _meridian_nodes(mu):
    """A meridian's node count at frequency mu: 2 nodes a wavelength and 8."""
    return max(64, 2 * math.ceil(mu) + 8)


class _Rotation:
    """The circle acting by rotation through the angle t."""

    def _group_nodes(self, n):
        return np.arange(n) * (_TWO_PI / n)


@dataclass(frozen=True)
class FlatTorus2:
    """R^2/Z^2 (unit square), circle acting by translation in x1; the group
    parameter is the shift t in [0, 1)."""

    def _point(self, x):
        # every finite (x1, x2) is a point of the chart
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise InvalidPointError("point has a non-finite coordinate")
        return x

    def _check_covector(self, x, xi):
        pass  # the chart is R^2 x R^2

    def _orbit(self, x):
        return OrbitData(1, 1.0)

    def _pairing(self, x, xi):
        return float(xi[0])

    def _act(self, x, xi, t):
        return [(x[0] + t) % 1.0, x[1]], xi

    def _lifted_length(self, x, xi):
        # a translation lifts to a translation with xi fixed: the lifted orbit
        # is the base orbit, of length 1
        return np.ones(len(xi))

    def _fiber_slice(self, x, n_nodes):
        c, w = gauss_nodes(n_nodes)
        return np.column_stack([np.zeros(len(c)), c]), w

    def _group_nodes(self, n):
        return np.arange(n) / n

    def _global_coefficient(self, local):
        # a translation action leaves the local coefficient independent of
        # x, so its integral over the unit-area torus is its value
        return local([0.5, 0.5])

    def _eigenfunctions(self, quantum, pts):
        t = quantum[:, :1] * pts[:, 0] + quantum[:, 1:] * pts[:, 1]
        return np.exp(1j * (_TWO_PI * t))

    def _meridian(self, mu, p):
        # every mode is one exponential, |e| constant along x1: x2 at n equal
        # weights covers the unit area
        n = _meridian_nodes(mu)
        return (np.arange(n) / n, np.full(n, 1.0 / n), (0.0, 1.0),
                lambda t: np.column_stack((np.zeros_like(t), t)))


@dataclass(frozen=True)
class RoundSphere2(_Rotation):
    """Unit sphere in R^3, circle acting by rotation about the z-axis.

    Points and covectors are ambient 3-vectors with <x, xi> = 0 (metric
    duality)."""

    def _point(self, x):
        # unit 3-vectors within 1e-9, one or (P, 3) rows; a NaN fails the test
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (3,) or not np.all(np.abs(np.sum(x * x, axis=-1) - 1.0) <= 1e-9):
            raise InvalidPointError("sphere point must be a unit 3-vector")
        return x

    def _check_covector(self, x, xi):
        if abs(x @ xi) > 1e-8 * (1 + np.linalg.norm(xi)):
            raise InvalidPointError("sphere covector must be tangent (ambient identification)")

    def _orbit(self, x):
        theta = _colatitude(x)
        if min(theta, math.pi - theta) <= _POLE_TOL:
            return OrbitData(0, 0.0)
        return OrbitData(1, 2 * math.pi * math.sin(theta))

    def _pairing(self, x, xi):
        return float(xi @ np.cross(_E3, x))

    def _act(self, x, xi, t):
        c, s = math.cos(t), math.sin(t)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return R @ x, R @ xi

    def _lifted_length(self, x, xi):
        return 2 * math.pi * np.sqrt(x[0] ** 2 + x[1] ** 2 + xi[:, 0] ** 2 + xi[:, 1] ** 2)

    def _fiber_slice(self, x, n_nodes):
        if self._orbit(x).kappa_x == 0:
            rho, unit, w = _disc_nodes(n_nodes)
            return rho[:, None] * np.column_stack([unit, np.zeros(len(rho))]), w
        theta = _colatitude(x)
        c, w = gauss_nodes(n_nodes)
        phi = math.atan2(x[1], x[0])
        # unit conormal (meridian direction, metric-dual ambient vector)
        mer = np.array(
            [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)]
        )
        return c[:, None] * mer, w

    def _global_coefficient(self, local):
        """Gauss in cos(theta) times the azimuth's 2 pi, checked against
        twice the nodes; quadrature nodes never land on the poles."""

        def integral(n):
            alpha, w = gauss_nodes(n)
            vals = [local(sphere_point(math.acos(float(a)))) for a in alpha]
            return 2.0 * math.pi * float(pairwise_sum(np.asarray(vals) * w))

        total = integral(_X_NODES)
        refined = integral(2 * _X_NODES)
        if abs(refined - total) > 1e-3 * max(abs(refined), 1e-300):
            warnings.warn(
                "x-quadrature shift above 0.1% under refinement; singular-orbit "
                "neighborhoods may be under-resolved",
                StratumContributionWarning,
            )
        return refined

    def _eigenfunctions(self, quantum, pts):
        # cos theta is z itself: the scalar formulas' cos(acos(z)) gives z
        # back where z = cos t, as on every meridian the lab reads (tests pin
        # it), so the round trip is skipped; phi stays math.atan2, point by
        # point, since np.arctan2 may differ from it in the last bit
        k, m = quantum[:, 0], quantum[:, 1]
        alpha = np.clip(pts[:, 2], -1.0, 1.0)
        phi = np.fromiter(map(math.atan2, pts[:, 1].tolist(), pts[:, 0].tolist()), float, len(pts))
        pbar = np.empty((len(k), len(pts)))
        for mm in np.unique(m).tolist():
            at = m == mm
            pbar[at] = specfun.assoc_ladder(mm, k[at].max(), alpha, degrees=k[at])
        return pbar * np.exp(1j * np.multiply.outer(m, phi))

    def _meridian(self, mu, p):
        # the polar rule at 6 nodes a period of |Y|^p (p mu / 2 periods), 2 pi
        # in the weights; a sup norm reads no weights and steps evenly in theta
        if math.isinf(p):
            theta, w = np.linspace(0.0, math.pi, _meridian_nodes(mu)), None
        else:
            # sized as a float first: a huge p gives inf, which math.ceil refuses
            need = 3 * p * mu + 32
            if need > MAX_GRID_NODES:
                raise ResourceLimitError(f"p={p:g} at mu={mu:.6g} needs a meridian rule of "
                                         f"{need:.4g} nodes, more than {MAX_GRID_NODES}")
            theta, w = _colatitude_nodes(max(64, math.ceil(3 * p * mu) + 32))
            w = _TWO_PI * w
        return (theta, w, (0.0, math.pi),
                lambda t: np.column_stack((np.sin(t), np.zeros_like(t), np.cos(t))))


# an open profile's end slopes must lie within this of 1 and -1 (smooth poles)
_END_TOL = 1e-9


def _trig_series(const, terms):
    """s -> const + sum of c * f(k * s) over the terms (c, f, k), in order.

    A float s, one point, stays a float (np.asarray costs more than a term);
    anything else is read as an array, and gives one of its shape."""
    def series(s):
        if isinstance(s, float):
            total = const
        else:
            s = np.asarray(s, dtype=float)
            total = np.full(s.shape, const)
        for c, f, k in terms:
            total = total + c * f(k * s)
        return total
    return series


class SurfaceOfRevolution(_Rotation):
    """Arclength profile (r(s), z(s)), s in [0, L], rotation action.

    r is a trigonometric series, and r_prime its term-by-term derivative;
    both are callables on the instance that accept scalars or arrays.  An
    open profile (closed=False) is the sine series r = sum_j b_j sin(j pi s /
    L), j = 1, 2, ...: it vanishes at both ends, poles as on a sphere.  A
    closed one is r = a_0 + sum_j (a_j cos + b_j sin)(2 pi j s / L): it
    wraps, its ends identified.  Zero terms are skipped.  Points are x =
    (s, phi), covectors xi = (xi_s, xi_phi).
    """

    def __init__(self, length, closed=False, a=(), b=(), name="sor"):
        self.length = L = float(length)
        self.closed = bool(closed)
        self.name = name
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if not (math.isfinite(L) and L > 0):
            raise SingularProfileError(f"profile length {L} is not finite and positive")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise SingularProfileError("profile coefficients must be finite")
        if not closed and len(a):
            raise SingularProfileError("an open profile is a sine series: it takes no a_j")
        # the terms (c, f, k) of r and of r', zeros skipped; a closed
        # profile's a_0 is r's constant term
        k = (_TWO_PI if closed else math.pi) / L
        cos_terms = [(c, j * k) for j, c in enumerate(a[1:], 1) if c != 0.0]
        sin_terms = [(c, j * k) for j, c in enumerate(b, 1) if c != 0.0]
        self.r = _trig_series(float(a[0]) if len(a) else 0.0,
                              [(c, np.cos, kj) for c, kj in cos_terms]
                              + [(c, np.sin, kj) for c, kj in sin_terms])
        self.r_prime = _trig_series(0.0, [(-(c * kj), np.sin, kj) for c, kj in cos_terms]
                                    + [(c * kj, np.cos, kj) for c, kj in sin_terms])
        s = np.linspace(0.0, L, 2049)
        r = np.asarray(self.r(s))
        if closed:
            # between samples h apart r dips at most h^2/8 max|r''| below the
            # lower one, and |r''| <= sum (j k)^2 |c_j|
            bend = sum(kj * kj * abs(c) for c, kj in cos_terms + sin_terms)
            low = np.min(r) - (L / 2048) ** 2 / 8 * bend
        else:  # r = 0 at the poles, the ends
            low = np.min(r[1:-1])
        if not low > 0:
            raise SingularProfileError(
                f"profile radius vanishes in the interior: its lower bound is {low:.3g}")
        rp = np.asarray(self.r_prime(s))
        if not closed:  # an open series vanishes at both ends; its poles are smooth
            for end, what, value in [("s = 0", "r' - 1", rp[0] - 1.0),
                                     ("s = L", "r' + 1", rp[-1] + 1.0)]:
                if not abs(value) <= _END_TOL:
                    raise SingularProfileError(
                        f"profile end {end}: {what} = {value}, beyond the tolerance {_END_TOL}")
        if np.any(np.abs(rp) > 1 + 1e-10):
            raise SingularProfileError("|r'(s)| > 1 violates the arclength normalization")

    def _point(self, x):
        """x with s wrapped mod L on a closed profile: one point exactly
        (s, phi), returned as a tuple (the basis's one-point read, on Python
        floats), or (P, 2) rows; InvalidPointError at any other shape, at a
        non-finite coordinate, or at s outside [0, L] on an open profile."""
        L = self.length
        rows = isinstance(x, np.ndarray) and x.ndim == 2
        try:  # rows of another width unpack to too few or too many columns
            s, phi = x.T if rows else x
            finite = np.all(np.isfinite(x)) if rows else math.isfinite(s) and math.isfinite(phi)
        except (TypeError, ValueError):
            raise InvalidPointError("a profile point is (s, phi)") from None
        if not finite:
            raise InvalidPointError("point has a non-finite coordinate")
        if self.closed:
            return np.column_stack((s % L, phi)) if rows else (s % L, phi)
        if not (np.all((0.0 <= s) & (s <= L)) if rows else 0.0 <= s <= L):
            raise InvalidPointError("s outside the profile range")
        return x if rows else (s, phi)

    def _check_covector(self, x, xi):
        pass  # every xi = (xi_s, xi_phi) is a covector at a point of the chart

    def _orbit(self, x):
        s = float(x[0])
        r = float(self.r(s))
        if not self.closed and (r <= _POLE_TOL or min(s, self.length - s) <= _POLE_TOL):
            return OrbitData(0, 0.0)
        return OrbitData(1, 2 * math.pi * r)

    def _pairing(self, x, xi):
        return float(xi[1])

    def _act(self, x, xi, t):
        return [x[0], (x[1] + t) % (2 * math.pi)], xi

    def _lifted_length(self, x, xi):
        # 2 pi times the ambient speed of t -> (g_t x, g_t v), v the metric
        # dual of xi; rotation preserves chart components, so the speed does
        # not depend on t
        s, xi_s, xi_phi = float(x[0]), xi[:, 0], xi[:, 1]
        r, rp = float(self.r(s)), float(self.r_prime(s))
        if r <= _POLE_TOL and np.any(np.abs(xi_phi) > _POLE_TOL):
            raise InvalidPointError("xi_phi component has no meaning at a profile pole")
        v_xy2 = (xi_s * rp) ** 2 + ((xi_phi / r) ** 2 if r > _POLE_TOL else 0.0)
        return 2 * math.pi * np.sqrt(r * r + v_xy2)

    def _fiber_slice(self, x, n_nodes):
        if self._orbit(x).kappa_x == 1:
            c, w = gauss_nodes(n_nodes)
            return np.column_stack([c, np.zeros(len(c))]), w
        # a pole's disc node along the meridian of azimuth phi is xi = (rho, 0)
        # at (s, phi); nothing reads phi, so each row repeats once per azimuth
        rho, _, w = _disc_nodes(n_nodes)
        return np.column_stack([rho, np.zeros(len(rho))]), w

    def _global_coefficient(self, local):
        # Gauss in s, each node weighted by its orbit length 2 pi r(s)
        t, w = gauss_nodes(_X_NODES)
        s_nodes = 0.5 * (t + 1.0) * self.length
        w_s = 0.5 * self.length * w
        vals = [2.0 * math.pi * float(self.r(s)) * ws * local([s, 0.0])
                for s, ws in zip(s_nodes, w_s)]
        return float(pairwise_sum(np.array(vals)))

    def _meridian(self, mu, p):
        # the meridian trapezoid, orbit length 2 pi r(s) folded in: a closed
        # profile takes n steps of L/n, an open one halves its end weights
        n = _meridian_nodes(mu)
        L = self.length
        s = np.linspace(0.0, L, n, endpoint=not self.closed)
        w = np.full(n, L / n if self.closed else L / (n - 1))
        if not self.closed:
            w[[0, -1]] *= 0.5
        return (s, _TWO_PI * np.asarray(self.r(s), dtype=float) * w, (0.0, L),
                lambda t: np.column_stack((t, np.zeros_like(t))))


def sphere_profile():
    """Unit-sphere profile r = sin s, z = -cos s, s in [0, pi]."""
    return SurfaceOfRevolution(math.pi, b=[1.0], name="sphere-profile")


def torus_profile(R=2.0, a=0.5):
    """Torus of revolution, tube radius a around axis distance R, periodic s:
    r = R + a cos(s / a) on [0, 2 pi a]."""
    if not R > a > 0:
        raise SingularProfileError("need R > a > 0 for an embedded torus profile")
    return SurfaceOfRevolution(2 * math.pi * a, closed=True, a=[R, a], name="torus-profile")


# ---------------------------------------------------------------------------
# points


def sphere_point(theta, phi=0.0):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


# ---------------------------------------------------------------------------
# orbit data


@dataclass(frozen=True)
class OrbitData:
    kappa_x: int  # 0 exactly at a fixed point of the circle
    orbit_length: float

    def trivial_multiplicity(self, m):
        """[pi_m restricted to the isotropy group : trivial]: 1, except 0
        for m != 0 at a fixed point of the circle."""
        return 0.0 if self.kappa_x == 0 and m != 0 else 1.0


def sphere_colatitude(x):
    """The colatitude of x, a point of the round sphere by its point rule."""
    return _colatitude(RoundSphere2()._point(x))


def _colatitude(x):
    return math.acos(max(-1.0, min(1.0, x[2])))


def orbit_data(manifold, x):
    return manifold._orbit(manifold._point(x))


# ---------------------------------------------------------------------------
# momentum pairing, lifted action and lifted orbit volume


def _checked_covector(manifold, x, xi):
    """x by the manifold's point rule, and xi as a float array checked
    against the chart."""
    x = manifold._point(x)
    xi = np.asarray(xi, dtype=float)
    manifold._check_covector(x, xi)
    return x, xi


def momentum_pairing(manifold, x, xi):
    """<xi, fundamental field at x>; zero exactly on the momentum zero level."""
    return manifold._pairing(*_checked_covector(manifold, x, xi))


def rotate_cotangent(manifold, x, xi, t):
    """Lifted action of the group element at parameter t on (x, xi): the
    image (x, xi) as float arrays."""
    x, xi = manifold._act(*_checked_covector(manifold, x, xi), t)
    return np.asarray(x, dtype=float), np.asarray(xi, dtype=float)


def lifted_orbit_volume(manifold, x, xi):
    """Length of the lifted orbit of (x, xi) in TM embedded in R^3 x R^3:
    a float for one covector xi, an array for rows xi of shape (K, d).

    Closed forms throughout: on a surface of revolution the lifted orbit is
    traced at constant speed.
    """
    vol = manifold._lifted_length(manifold._point(x), np.array(xi, dtype=float, ndmin=2))
    return float(vol[0]) if np.ndim(xi) == 1 else vol


# ---------------------------------------------------------------------------
# cosphere fiber slices


def cosphere_fiber_slice(manifold, x, n_nodes):
    """Quadrature rows (xi, w), xi of shape (K, d) and w of shape (K,), for
    {xi in Ann(T_x O_x) : |xi|_x < 1} at x.

    A Gauss-Legendre segment with total weight 2 when the orbit through x is
    a circle (kappa = 1), a polar-grid disc with total weight pi when the
    fiber condition is empty (fixed points of the circle, kappa = 0).
    x is checked once, by the point rule; the rows are built, not checked.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    return manifold._fiber_slice(manifold._point(x), n_nodes)


def _disc_nodes(n_nodes):
    """The fiber disc as rows, radius outer and angle inner: radial Gauss on
    (0, 1) times uniform angles.  Returns the radii (K,), the unit
    directions (K, 2) and the weights (K,), which carry the Jacobian rho."""
    t, u = gauss_nodes(n_nodes)
    rho, wr = 0.5 * (t + 1.0), 0.5 * u
    n_phi = max(8, int(n_nodes))
    dphi = 2 * math.pi / n_phi
    ph = (np.arange(n_phi) + 0.5) * dphi
    unit = np.column_stack((np.cos(ph), np.sin(ph)))
    return np.repeat(rho, n_phi), np.tile(unit, (len(rho), 1)), np.repeat(rho * wr, n_phi) * dphi
