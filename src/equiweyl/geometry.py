"""Model surfaces with isometric circle / finite-cyclic actions: orbit data,
momentum pairing, lifted-orbit volumes in the embedded (co)tangent bundle, and
quadrature slices of the momentum zero level in each fiber."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError, SingularProfileError
from .util import gauss_nodes

_POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# manifolds


@dataclass(frozen=True)
class RoundSphere2:
    """Unit sphere in R^3, circle acting by rotation about the z-axis."""

    kind = "sphere"
    dim = 2
    operator_degree = 2


@dataclass(frozen=True)
class FlatTorus2:
    """R^2/Z^2 (unit square), circle acting by translation in x1."""

    kind = "torus"
    dim = 2
    operator_degree = 2


@dataclass(frozen=True)
class FlatTorus2FiniteCyclic:
    """R^2/Z^2 with the cyclic group of order N acting by x1 -> x1 + 1/N."""

    order: int = 2
    kind = "torus-cyclic"
    dim = 2
    operator_degree = 2

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("cyclic order must be >= 1")


class SurfaceOfRevolution:
    """Arclength profile (r(s), z(s)), s in [0, L], rotation action.

    r and r_prime are callables accepting scalars or arrays.  closed=True
    means the profile wraps (r > 0 everywhere and the ends are identified);
    otherwise r vanishes at both endpoints (sphere-like poles).
    """

    kind = "sor"
    dim = 2
    operator_degree = 2

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
        rp = np.asarray(self.r_prime(s))
        if np.any(np.abs(rp) > 1 + 1e-10):
            raise SingularProfileError("|r'(s)| > 1 violates the arclength normalization")


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
    """Natural cubic spline on a strictly increasing grid (no scipy)."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 4 or np.any(np.diff(x) <= 0):
            raise ValueError("need >= 4 strictly increasing sample points")
        h = np.diff(x)
        # natural spline second-derivative system, solved by Thomas elimination
        a = np.zeros(n)
        b = np.ones(n)
        c = np.zeros(n)
        d = np.zeros(n)
        b[1:-1] = 2.0 * (h[:-1] + h[1:])
        a[1:-1] = h[:-1]
        c[1:-1] = h[1:]
        d[1:-1] = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
        cp = np.zeros(n)
        dp = np.zeros(n)
        cp[0] = c[0] / b[0]
        dp[0] = d[0] / b[0]
        for i in range(1, n):
            den = b[i] - a[i] * cp[i - 1]
            cp[i] = c[i] / den if i < n - 1 else 0.0
            dp[i] = (d[i] - a[i] * dp[i - 1]) / den
        m = np.zeros(n)
        m[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            m[i] = dp[i] - cp[i] * m[i + 1]
        self.x, self.y, self.h, self.m = x, y, h, m

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


def profile_from_file(path):
    """Load a two-column (s, r) text profile; cubic interpolation inside.

    A first line that is not numeric is a header and is skipped.  The profile
    is closed when both endpoint radii are positive.  Malformed input raises
    SingularProfileError naming the offending line.
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
    spline = _CubicSpline(s, r)
    closed = r[0] > 1e-9 and r[-1] > 1e-9
    return SurfaceOfRevolution(
        spline, spline.derivative, s[-1], closed=closed, name="file-profile"
    )


def _is_float(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# labels and points


@dataclass(frozen=True)
class IsotypicLabel:
    """Circle-action Fourier index m, or residue mod N in the cyclic case."""

    m: int
    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not (0 <= self.m < self.modulus):
            raise ValueError("residue label must satisfy 0 <= m < modulus")


def as_label(label):
    return label if isinstance(label, IsotypicLabel) else IsotypicLabel(int(label))


@dataclass(frozen=True)
class CotangentPoint:
    """Point x with covector xi in the manifold's chart convention.

    Sphere: x, xi are ambient 3-vectors with <x,xi> = 0 (metric duality).
    Torus: x in [0,1)^2, xi in R^2.  Surface of revolution: x = (s, phi),
    xi = (xi_s, xi_phi).
    """

    x: tuple
    xi: tuple
    p_value: float
    weight: float = 0.0


def sphere_point(theta, phi=0.0):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def cotangent_point(manifold, x, xi, weight=0.0):
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if isinstance(manifold, RoundSphere2):
        if abs(x @ x - 1.0) > 1e-9:
            raise InvalidPointError("sphere point must be a unit 3-vector")
        if abs(x @ xi) > 1e-8 * (1 + np.linalg.norm(xi)):
            raise InvalidPointError("sphere covector must be tangent (ambient identification)")
        p = float(xi @ xi)
    elif isinstance(manifold, (FlatTorus2, FlatTorus2FiniteCyclic)):
        p = float(xi @ xi)
    elif isinstance(manifold, SurfaceOfRevolution):
        s = float(x[0])
        if not (0.0 <= s <= manifold.length):
            raise InvalidPointError("s outside the profile range")
        r = float(manifold.r(s))
        p = float(xi[0] ** 2 + (xi[1] / r) ** 2) if r > _POLE_TOL else float(xi[0] ** 2)
    else:
        raise InvalidPointError(f"unsupported manifold {manifold!r}")
    return CotangentPoint(tuple(x), tuple(xi), p, weight)


# ---------------------------------------------------------------------------
# orbit data


@dataclass(frozen=True)
class OrbitData:
    kappa_x: int
    isotropy: str  # "trivial" | "full group" (a fixed point of the circle)
    stratum_distance: float
    orbit_length: float

    def trivial_multiplicity(self, label):
        """[pi_label restricted to the isotropy group : trivial]: 1, except 0
        for m != 0 at a fixed point of the circle."""
        m = as_label(label).m
        return 0.0 if self.isotropy == "full group" and m != 0 else 1.0


def sphere_colatitude(x):
    x = np.asarray(x, dtype=float)
    if abs(x @ x - 1.0) > 1e-9:
        raise InvalidPointError("sphere point must be a unit 3-vector")
    return math.acos(max(-1.0, min(1.0, x[2])))


def orbit_data(manifold, x):
    if isinstance(manifold, RoundSphere2):
        theta = sphere_colatitude(x)
        dist = min(theta, math.pi - theta)
        if dist <= _POLE_TOL:
            return OrbitData(0, "full group", 0.0, 0.0)
        return OrbitData(1, "trivial", dist, 2 * math.pi * math.sin(theta))
    if isinstance(manifold, FlatTorus2):
        return OrbitData(1, "trivial", math.inf, 1.0)
    if isinstance(manifold, FlatTorus2FiniteCyclic):
        # free action by 1/N shifts: orbits are N points, counting measure
        return OrbitData(0, "trivial", math.inf, float(manifold.order))
    if isinstance(manifold, SurfaceOfRevolution):
        s = float(np.asarray(x, dtype=float)[0])
        if not (0.0 <= s <= manifold.length):
            raise InvalidPointError("s outside the profile range")
        r = float(manifold.r(s))
        if manifold.closed:
            return OrbitData(1, "trivial", math.inf, 2 * math.pi * r)
        dist = min(s, manifold.length - s)
        if r <= _POLE_TOL or dist <= _POLE_TOL:
            return OrbitData(0, "full group", 0.0, 0.0)
        return OrbitData(1, "trivial", dist, 2 * math.pi * r)
    raise InvalidPointError(f"unsupported manifold {manifold!r}")


# ---------------------------------------------------------------------------
# momentum pairing and lifted orbit volume

_E3 = np.array([0.0, 0.0, 1.0])


def momentum_pairing(manifold, pt):
    """<xi, fundamental field at x>; zero exactly on the momentum zero level."""
    x = np.asarray(pt.x)
    xi = np.asarray(pt.xi)
    if isinstance(manifold, RoundSphere2):
        return float(xi @ np.cross(_E3, x))
    if isinstance(manifold, FlatTorus2):
        return float(xi[0])
    if isinstance(manifold, FlatTorus2FiniteCyclic):
        return 0.0  # finite group: no generator field, Omega is all of T*M
    if isinstance(manifold, SurfaceOfRevolution):
        return float(xi[1])
    raise InvalidPointError(f"unsupported manifold {manifold!r}")


def rotate_cotangent(manifold, pt, t):
    """Lifted action of the group element at parameter t on (x, xi)."""
    x = np.asarray(pt.x)
    xi = np.asarray(pt.xi)
    if isinstance(manifold, RoundSphere2):
        c, s = math.cos(t), math.sin(t)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cotangent_point(manifold, R @ x, R @ xi)
    if isinstance(manifold, FlatTorus2):
        return cotangent_point(manifold, [(x[0] + t) % 1.0, x[1]], xi)
    if isinstance(manifold, FlatTorus2FiniteCyclic):
        j = int(round(t))
        return cotangent_point(manifold, [(x[0] + j / manifold.order) % 1.0, x[1]], xi)
    if isinstance(manifold, SurfaceOfRevolution):
        return cotangent_point(manifold, [x[0], (x[1] + t) % (2 * math.pi)], xi)
    raise InvalidPointError(f"unsupported manifold {manifold!r}")


def _sor_lifted_speed(manifold, s, xi_s, xi_phi):
    # ambient speed of t -> (g_t x, g_t v), v the metric dual of xi;
    # rotation preserves chart components, so the speed does not depend on t
    r = float(manifold.r(s))
    rp = float(manifold.r_prime(s))
    x_xy2 = r * r
    v_xy2 = (xi_s * rp) ** 2 + ((xi_phi / r) ** 2 if r > _POLE_TOL else 0.0)
    if r <= _POLE_TOL and abs(xi_phi) > _POLE_TOL:
        raise InvalidPointError("xi_phi component has no meaning at a profile pole")
    return math.sqrt(x_xy2 + v_xy2)


def lifted_orbit_volume(manifold, pt):
    """Length of the lifted orbit of (x, xi) in TM embedded in R^3 x R^3.

    Closed forms throughout: on a surface of revolution the lifted orbit is
    traced at constant speed.  For finite-cyclic actions the orbit is a
    finite point set and the counting measure (orbit size) is returned.
    """
    x = np.asarray(pt.x)
    xi = np.asarray(pt.xi)
    if isinstance(manifold, RoundSphere2):
        return 2 * math.pi * math.sqrt(x[0] ** 2 + x[1] ** 2 + xi[0] ** 2 + xi[1] ** 2)
    if isinstance(manifold, FlatTorus2):
        return 1.0
    if isinstance(manifold, FlatTorus2FiniteCyclic):
        return float(manifold.order)
    if isinstance(manifold, SurfaceOfRevolution):
        s, xi_s, xi_phi = float(x[0]), float(xi[0]), float(xi[1])
        return 2 * math.pi * _sor_lifted_speed(manifold, s, xi_s, xi_phi)
    raise InvalidPointError(f"unsupported manifold {manifold!r}")


# ---------------------------------------------------------------------------
# cosphere fiber slices


def cosphere_fiber_slice(manifold, x, n_nodes):
    """Quadrature nodes for {xi in Ann(T_x O_x) : |xi|_x < 1}.

    A Gauss-Legendre segment when the orbit through x is a circle (kappa = 1),
    a polar-grid disc with total weight pi when the fiber condition is empty
    (fixed points and finite actions, kappa = 0).
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    x = np.asarray(x, dtype=float)
    if isinstance(manifold, RoundSphere2):
        theta = sphere_colatitude(x)
        if min(theta, math.pi - theta) <= _POLE_TOL:
            return _disc_nodes(manifold, n_nodes, lambda rho, ph: (
                x, rho * np.array([math.cos(ph), math.sin(ph), 0.0])))
        c, w = gauss_nodes(n_nodes)
        phi = math.atan2(x[1], x[0])
        # unit conormal (meridian direction, metric-dual ambient vector)
        mer = np.array(
            [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)]
        )
        return [cotangent_point(manifold, x, ci * mer, weight=wi) for ci, wi in zip(c, w)]
    if isinstance(manifold, FlatTorus2):
        c, w = gauss_nodes(n_nodes)
        return [cotangent_point(manifold, x, [0.0, ci], weight=wi) for ci, wi in zip(c, w)]
    if isinstance(manifold, FlatTorus2FiniteCyclic):
        return _disc_nodes(manifold, n_nodes, lambda rho, ph: (
            x, rho * np.array([math.cos(ph), math.sin(ph)])))
    if isinstance(manifold, SurfaceOfRevolution):
        od = orbit_data(manifold, x)
        if od.kappa_x == 1:
            c, w = gauss_nodes(n_nodes)
            return [cotangent_point(manifold, x, [ci, 0.0], weight=wi) for ci, wi in zip(c, w)]
        # at a profile pole the fiber disc is parametrized by meridian
        # azimuth: the node of radius rho along phi is xi = (rho, 0) at (s, phi)
        return _disc_nodes(manifold, n_nodes, lambda rho, ph: ([x[0], ph], [rho, 0.0]))
    raise InvalidPointError(f"unsupported manifold {manifold!r}")


def _disc_nodes(manifold, n_nodes, node):
    """The fiber disc: radial Gauss on (0, 1) x uniform angles, weights with
    the Jacobian rho; node(rho, phi) gives the (x, xi) of each polar node."""
    t, u = gauss_nodes(n_nodes)
    rho = 0.5 * (t + 1.0)
    wr = 0.5 * u
    n_phi = max(8, int(n_nodes))
    dphi = 2 * math.pi / n_phi
    phis = (np.arange(n_phi) + 0.5) * dphi
    return [cotangent_point(manifold, *node(rj, ph), weight=rj * wj * dphi)
            for rj, wj in zip(rho, wr) for ph in phis]
