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


# an open profile's end radii, and a closed profile's seam jump, must lie
# within this of 0
_END_TOL = 1e-9
# and an open profile's end slopes within this of 1 and -1 (a smooth pole),
# a closed profile's within this of each other (a smooth seam); a spline
# through five samples of sin s misses the pole slopes by 2.3e-3
_POLE_SLOPE_TOL = 1e-2


class SurfaceOfRevolution(_Rotation):
    """Arclength profile (r(s), z(s)), s in [0, L], rotation action.

    r and r_prime are callables accepting scalars or arrays.  closed=True
    means the profile wraps (r > 0 everywhere and the ends are identified,
    so r(0) = r(L)); otherwise r vanishes at both endpoints (sphere-like
    poles).  Points are x = (s, phi), covectors xi = (xi_s, xi_phi).
    """

    def __init__(self, r, r_prime, length, closed=False, name="sor"):
        self.r = r
        self.r_prime = r_prime
        self.length = float(length)
        self.closed = bool(closed)
        self.name = name
        s = np.linspace(0.0, self.length, 2049)
        interior = s[1:-1] if not closed else s
        if np.any(np.asarray(self.r(interior)) <= 0):
            raise SingularProfileError("profile radius vanishes in the interior")
        r0, r_l = float(self.r(0.0)), float(self.r(self.length))
        rp = np.asarray(self.r_prime(s))
        # a closed profile's ends meet smoothly; an open profile's ends are
        # smooth poles
        ends = ([("s = L", "r(L) - r(0)", r_l - r0, _END_TOL),
                 ("s = L", "r'(L) - r'(0)", rp[-1] - rp[0], _POLE_SLOPE_TOL)] if closed
                else [("s = 0", "r", r0, _END_TOL), ("s = L", "r", r_l, _END_TOL),
                      ("s = 0", "r' - 1", rp[0] - 1.0, _POLE_SLOPE_TOL),
                      ("s = L", "r' + 1", rp[-1] + 1.0, _POLE_SLOPE_TOL)])
        for end, what, value, tol in ends:
            if not abs(value) <= tol:
                raise SingularProfileError(
                    f"profile end {end}: {what} = {value}, beyond the tolerance {tol}")
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
    return SurfaceOfRevolution(np.sin, np.cos, math.pi, closed=False, name="sphere-profile")


def torus_profile(R=2.0, a=0.5):
    """Torus of revolution, tube radius a around axis distance R, periodic s."""
    if not R > a > 0:
        raise SingularProfileError("need R > a > 0 for an embedded torus profile")
    L = 2 * math.pi * a

    def r(s):
        return R + a * np.cos(np.asarray(s) / a)

    def rp(s):
        return -np.sin(np.asarray(s) / a)

    return SurfaceOfRevolution(r, rp, L, closed=True, name="torus-profile")


class _CubicSpline:
    """Cubic spline on a strictly increasing grid (no scipy): natural, or
    periodic (m(x_0) = m(x_{n-1}) and r' continuous across the seam)."""

    def __init__(self, x, y, periodic):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 4 or np.any(np.diff(x) <= 0):
            raise ValueError("need >= 4 strictly increasing sample points")
        h = np.diff(x)
        if periodic:
            self.x, self.y, self.h, self.m = x, y, h, _periodic_moments(h, y)
            return
        # natural spline second-derivative system
        a = np.zeros(n)
        b = np.ones(n)
        c = np.zeros(n)
        d = np.zeros(n)
        b[1:-1] = 2.0 * (h[:-1] + h[1:])
        a[1:-1] = h[:-1]
        c[1:-1] = h[1:]
        d[1:-1] = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
        self.x, self.y, self.h, self.m = x, y, h, _thomas(a, b, c, d)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.x, s) - 1, 0, len(self.x) - 2)
        t = s - self.x[i]
        h = self.h[i]
        A = (self.m[i + 1] - self.m[i]) / (6 * h)
        B = self.m[i] / 2
        C = (self.y[i + 1] - self.y[i]) / h - h * (2 * self.m[i] + self.m[i + 1]) / 6
        return self.y[i] + t * (C + t * (B + t * A))

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.x, s) - 1, 0, len(self.x) - 2)
        t = s - self.x[i]
        h = self.h[i]
        A = (self.m[i + 1] - self.m[i]) / (2 * h)
        B = self.m[i]
        C = (self.y[i + 1] - self.y[i]) / h - h * (2 * self.m[i] + self.m[i + 1]) / 6
        return C + t * (B + t * A)


def _thomas(a, b, c, d):
    """Thomas elimination for the tridiagonal system with sub-diagonal a,
    diagonal b and super-diagonal c (a[0] and c[-1] are not read), one
    solution per column of d."""
    n = len(b)
    cp = np.zeros(n)
    dp = np.zeros_like(d)
    cp[0] = c[0] / b[0]
    dp[0] = d[0] / b[0]
    for i in range(1, n):
        den = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / den if i < n - 1 else 0.0
        dp[i] = (d[i] - a[i] * dp[i - 1]) / den
    out = np.zeros_like(d)
    out[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


def _periodic_moments(h, y):
    """Second derivatives of the periodic spline at the nodes.

    Row i of the cyclic system is h_{i-1} m_{i-1} + 2 (h_{i-1} + h_i) m_i +
    h_i m_{i+1} = 6 (slope_i - slope_{i-1}), indices mod n - 1 (m_{n-1} is
    m_0), so both corners are h_{n-2}.  It is solved in O(n) as a
    tridiagonal system plus a Sherman-Morrison rank-one correction
    (Numerical Recipes, "cyclic")."""
    h_before = np.roll(h, 1)
    slope = np.diff(y) / h
    b = 2.0 * (h_before + h)
    corner, gamma = h[-1], -b[0]
    b[0] -= gamma
    b[-1] -= corner * corner / gamma
    u = np.zeros(len(h))
    u[0], u[-1] = gamma, corner
    sol, z = _thomas(h_before, b, h, np.column_stack([6.0 * (slope - np.roll(slope, 1)), u])).T
    m = sol - z * ((sol[0] + corner * sol[-1] / gamma) / (1.0 + z[0] + corner * z[-1] / gamma))
    return np.append(m, m[0])


def profile_from_file(path):
    """Load a two-column (s, r) text profile; cubic interpolation inside.

    A first line that is not numeric is a header and is skipped.  The profile
    is closed, and its spline periodic, when both endpoint radii are
    positive; otherwise the spline is natural.  Malformed input raises
    SingularProfileError naming the offending line, or the end whose radius
    is neither a pole (open) nor the other end's (closed).
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            toks = line.replace(",", " ").split()
            if not toks or toks[0].startswith("#"):
                continue
            if lineno == 1 and not all(_is_float(tok) for tok in toks):
                continue
            try:
                rows.append((lineno, float(toks[0]), float(toks[1])))
            except (IndexError, ValueError):
                raise SingularProfileError(
                    f"{path}:{lineno}: expected two numbers s, r; got {line.strip()!r}"
                ) from None
    if not rows:
        raise SingularProfileError(f"{path}: no (s, r) rows")
    if rows[0][1] != 0:
        raise SingularProfileError(f"{path}:{rows[0][0]}: profile must start at s = 0")
    if len(rows) < 4:
        raise SingularProfileError(f"{path}: need at least 4 (s, r) rows, got {len(rows)}")
    for (_, prev, _), (lineno, cur, _) in zip(rows, rows[1:]):
        if not cur > prev:
            raise SingularProfileError(f"{path}:{lineno}: s = {cur} does not increase past {prev}")
    _, s, r = np.array(rows).T
    closed = r[0] > _END_TOL and r[-1] > _END_TOL
    spline = _CubicSpline(s, r, periodic=closed)
    try:
        return SurfaceOfRevolution(
            spline, spline.derivative, s[-1], closed=closed, name="file-profile"
        )
    except SingularProfileError as exc:
        raise SingularProfileError(f"{path}: {exc}") from None


def _is_float(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


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
