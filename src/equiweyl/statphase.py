"""Oscillatory-integral engine.

Quadrature of I(mu) = integral of e^{i mu psi} a over boxes, the unit sphere,
and sphere x circle products, with a hard anti-aliasing node rule; leading
stationary terms from declared critical sets (points or curves) built from
central-difference transversal Hessians in the domain's chart, weighted by
the density of the domain's measure there; caustic-regularized interpolation
in (mu, tau, epsilon); dense-seed Newton scans of the pairing phase
<x - R_phi y, omega> on S^2 x S^1, whose Newton steps and component
classification use that phase's closed-form gradient and Hessian; hybrid
decay fits.

Each domain class owns what only it knows: node extents and fixed nodes, its
chart (_points: the phase arguments at chart offsets U (k, dim) around a
location; geodesic normal coordinates on the sphere), the Lipschitz scan that
sizes the nodes, its quadrature chunks (args, weights), and the density of its
measure against the chart's Lebesgue measure at the centre (_measure_scale).
Only StationaryPhaseProblem.__init__ asks which domain it holds.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateCriticalError,
    DomainError,
    RegimeWarning,
    ResolutionError,
)
from .fits import envelope_maxima, fit_power_law
from .util import gauss_nodes, pairwise_sum

_TWO_PI = 2.0 * math.pi
MIN_NODES = 64
NODES_PER_WAVELENGTH = 6
# |gradient| at which a Newton-polished scan point counts as critical
SCAN_GRAD_TOL = 1e-10
# quadrature points per box slab
_CHUNK = 1 << 22


def nodes_for(mu, lip, extent):
    need = NODES_PER_WAVELENGTH * abs(mu) * lip * extent / _TWO_PI
    return max(MIN_NODES, int(math.ceil(need)))


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class BoxDomain:
    lo: tuple
    hi: tuple
    nodes: tuple | None = None

    _measure_scale = 1.0

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not len(self.lo):
            raise DomainError("box needs matching lo/hi tuples")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise DomainError("box must have positive extent")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def _extents(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def _points(self, loc, U):
        return (np.asarray(loc, dtype=float) + U,)

    def _lipschitz(self, problem):
        # coarse directional-difference scan; 25% safety margin
        axes = [np.linspace(l, h, 33) for l, h in zip(self.lo, self.hi)]
        vals = np.asarray(problem.phase(_lattice(axes))).reshape([33] * self.dim)
        return tuple(1.25 * float(np.max(np.abs(np.diff(vals, axis=k) / (a[1] - a[0])))) + 1e-12
                     for k, a in enumerate(axes))

    def _chunks(self, nodes):
        axes = []
        weights = []
        for (l, h, n) in zip(self.lo, self.hi, nodes):
            t, w = gauss_nodes(int(n))
            axes.append(0.5 * (h + l) + 0.5 * (h - l) * t)
            weights.append(0.5 * (h - l) * w)
        # slab over the first axis so tensor grids stay within memory; the
        # inner grid of a 1-d box is the one empty point of weight 1
        inner_w = np.ones(1)
        for wgt in weights[1:]:
            inner_w = np.multiply.outer(inner_w, wgt).ravel()
        inner_pts = _lattice(axes[1:])
        rows_per_slab = max(1, _CHUNK // len(inner_w))
        for start in range(0, len(axes[0]), rows_per_slab):
            xs = axes[0][start : start + rows_per_slab]
            X = np.concatenate([np.repeat(xs, len(inner_w))[:, None],
                                np.tile(inner_pts, (len(xs), 1))], axis=1)
            yield (X,), np.multiply.outer(weights[0][start : start + rows_per_slab], inner_w).ravel()


@dataclass(frozen=True)
class SphereDomain:
    """Unit sphere with the surface measure (total mass 4 pi)."""

    dim = 2
    nodes = None
    _extents = (math.pi, _TWO_PI)
    _measure_scale = 1.0

    def _points(self, loc, U):
        return (_exp_map(loc, U),)

    def _lipschitz(self, problem):
        W, _ = _sphere_grid(17, 33)
        lip = 1.25 * max(np.linalg.norm(problem._gradient(w)) for w in W) + 1e-12
        return (lip, lip)

    def _chunks(self, nodes):
        W, wt = _sphere_grid(*nodes)
        yield (W,), wt


@dataclass(frozen=True)
class SphereCircleDomain:
    """S^2 x S^1 with surface measure x normalized circle average."""

    dim = 3
    nodes = None
    _extents = (math.pi, _TWO_PI, _TWO_PI)
    # the circle average is d phi / (2 pi) in the chart coordinate phi
    _measure_scale = 1.0 / _TWO_PI

    def _points(self, loc, U):
        w, phi = loc
        return _exp_map(w, U[:, :2]), phi + U[:, 2]

    def _lipschitz(self, problem):
        W, _ = _sphere_grid(9, 17)
        G = [problem._gradient((w, phi))
             for phi in np.linspace(0.0, _TWO_PI, 9, endpoint=False) for w in W[::4]]
        lip_s = 1.25 * max(float(np.linalg.norm(g[:2])) for g in G) + 1e-12
        lip_c = 1.25 * max(abs(float(g[2])) for g in G) + 1e-12
        return (lip_s, lip_s, lip_c)

    def _chunks(self, nodes):
        n_pol, n_az, n_circ = nodes
        W, wt = _sphere_grid(n_pol, n_az)
        wt = wt / n_circ
        for phi in np.arange(n_circ) * (_TWO_PI / n_circ):
            yield (W, np.full(W.shape[0], phi)), wt


def _lattice(axes):
    """The tensor grid of the 1-d axes as points, shape (prod of the
    lengths, len(axes)), the last axis fastest."""
    size = math.prod(len(a) for a in axes)
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), size).T


def _sphere_points(alpha, n_az):
    """Unit vectors at the heights alpha times n_az equispaced azimuths,
    shape (len(alpha) * n_az, 3), azimuth fastest."""
    phi = np.arange(n_az) * (_TWO_PI / n_az)
    st = np.sqrt(1.0 - alpha * alpha)
    W = np.empty((len(alpha), n_az, 3))
    W[..., 0] = st[:, None] * np.cos(phi)[None, :]
    W[..., 1] = st[:, None] * np.sin(phi)[None, :]
    W[..., 2] = alpha[:, None]
    return W.reshape(-1, 3)


def _sphere_grid(n_pol, n_az):
    alpha, w_a = gauss_nodes(int(n_pol))
    wt = (w_a[:, None] * (_TWO_PI / n_az)) * np.ones((1, n_az))
    return _sphere_points(alpha, n_az), wt.ravel()


def _tangent_frames(W):
    """Orthonormal tangent frames (t1, t2) at the unit vectors W (S, 3)."""
    probe = np.where(np.abs(W[:, [0]]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    t1 = np.cross(W, probe)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(W, t1)


def _exp_map(w, U):
    """Geodesic normal coordinates on S^2: the points at offsets U (k, 2)
    in the tangent frame at w."""
    w0 = np.asarray(w, dtype=float)
    w0 = w0 / np.linalg.norm(w0)
    t1, t2 = _tangent_frames(w0[None, :])
    r = np.hypot(U[:, 0], U[:, 1])
    direction = (U[:, [0]] * t1 + U[:, [1]] * t2) / np.maximum(r, 1e-300)[:, None]
    return np.cos(r)[:, None] * w0 + np.sin(r)[:, None] * direction


# ---------------------------------------------------------------------------
# problems

# central-difference step of the chart gradient
_GRAD_STEP = 1e-6


class StationaryPhaseProblem:
    """phase, amplitude: vectorized callables on the domain's points.

    Box: f(X) with X of shape (..., d).  Sphere: f(W), W (..., 3) unit
    vectors.  Sphere x circle: f(W, phi).  amplitude None means 1.  critical
    declares the stationary set: ("points", [locations]) or
    ("curve", parametrization, (t0, t1), closed) for box domains.  A
    location is a point of the box, a unit vector, or a pair (w, phi).
    """

    def __init__(self, phase, amplitude, domain, critical=None):
        self.phase = phase
        self.amplitude = amplitude
        self.domain = domain
        self.critical = critical
        if isinstance(domain, BoxDomain):
            self._check_support()
        elif not isinstance(domain, (SphereDomain, SphereCircleDomain)):
            raise DomainError(f"unsupported domain {domain!r}")
        elif critical and critical[0] == "curve":
            raise DomainError("curve-type critical sets are supported on box domains")
        self.lip = domain._lipschitz(self)
        if critical and critical[0] == "points":
            origin = np.zeros((1, domain.dim))
            for loc in critical[1]:
                g = np.linalg.norm(self._gradient(loc))
                # each phase value carries a rounding error up to about
                # eps |psi|, which the difference quotient divides by the
                # step: an exact critical point reads |grad| up to that floor
                psi = float(self._at(self.phase, loc, origin)[0])
                floor = 8.0 * np.finfo(float).eps * (1.0 + abs(psi)) / _GRAD_STEP
                if g > 1e-10 + floor:
                    raise DomainError(f"declared critical point {loc} has |grad| = {g:.2e}")

    # -- validation helpers

    def _check_support(self):
        if self.amplitude is None:
            raise DomainError("box amplitudes must vanish on the boundary; got constant 1")
        # the boundary points of a lattice of 9 per axis
        lo, hi = np.array(self.domain.lo), np.array(self.domain.hi)
        X = _lattice([np.linspace(l, h, 9) for l, h in zip(lo, hi)])
        vals = np.abs(np.asarray(self.amplitude(X[np.any((X == lo) | (X == hi), axis=1)])))
        if np.max(vals) > 1e-10:
            raise DomainError(
                f"amplitude must be supported strictly inside the box; boundary max {np.max(vals):.2e}"
            )

    # -- the chart around a location

    def _at(self, fn, loc, U):
        """fn (the phase or the amplitude) at chart offsets U (k, dim) around loc."""
        return np.asarray(fn(*self.domain._points(loc, U)))

    def _gradient(self, loc):
        """Central-difference gradient in the local orthonormal chart."""
        d = self.domain.dim
        E = _GRAD_STEP * np.eye(d)
        f = self._at(self.phase, loc, np.concatenate([E, -E]))
        return (f[:d] - f[d:]) / (2 * _GRAD_STEP)

    def resolve_nodes(self, mu):
        need = tuple(nodes_for(mu, lip, ext) for lip, ext in zip(self.lip, self.domain._extents))
        if self.domain.nodes is None:
            return need
        got = tuple(self.domain.nodes)
        if any(g < n for g, n in zip(got, need)):
            raise ResolutionError(f"grid {got} under-resolves mu={mu}: need at least {need}")
        return got


# ---------------------------------------------------------------------------
# quadrature


def oscillatory_integral(problem, mu):
    total = 0.0 + 0.0j
    for args, wt in problem.domain._chunks(problem.resolve_nodes(mu)):
        amp = 1.0 if problem.amplitude is None else np.asarray(problem.amplitude(*args))
        vals = amp * np.exp(1j * mu * np.asarray(problem.phase(*args)))
        total += complex(pairwise_sum(np.ravel(vals * wt)))
    return total


# ---------------------------------------------------------------------------
# stationary expansion


@dataclass(frozen=True)
class SPComponent:
    psi0: float
    p: int
    signature: int
    q0: complex


@dataclass(frozen=True)
class SPExpansion:
    n: int
    components: tuple

    def _single(self):
        if len(self.components) != 1:
            raise DomainError("expansion has several components; inspect .components")
        return self.components[0]

    @property
    def psi0(self):
        return self._single().psi0

    @property
    def p(self):
        return self._single().p

    @property
    def signature(self):
        return self._single().signature

    @property
    def q0(self):
        return self._single().q0

    def predict(self, mu):
        return sum(
            cmath.exp(1j * mu * c.psi0) * (_TWO_PI / mu) ** ((self.n - c.p) / 2.0) * c.q0
            for c in self.components
        )

    def envelope(self, mu):
        return sum(abs(c.q0) * (_TWO_PI / mu) ** ((self.n - c.p) / 2.0) for c in self.components)


def _chart_hessian(problem, loc):
    """Phase value and central-difference Hessian in the chart at loc; the
    whole stencil goes through one phase call."""
    n = problem.domain.dim
    origin = np.zeros((1, n))
    # the step grows with the size of the point in its ambient coordinates
    h = 1e-4 * (1.0 + float(np.linalg.norm(problem.domain._points(loc, origin)[0][0])))
    E = h * np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cross = np.array([si * E[i] + sj * E[j] for i, j in pairs
                      for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]).reshape(-1, n)
    f = problem._at(problem.phase, loc, np.concatenate([origin, E, -E, cross]))
    H = np.diag((f[1 : n + 1] - 2.0 * f[0] + f[n + 1 : 2 * n + 1]) / (h * h))
    for k, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = f[2 * n + 1 + 4 * k : 2 * n + 5 + 4 * k]
        H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return float(f[0]), H


def _component_from_hessian(H, psi0, a_val, p, location, transversal=None):
    if transversal is not None:
        H = transversal.T @ H @ transversal
    eig = np.linalg.eigvalsh(H)
    if np.min(np.abs(eig)) < 1e-8:
        raise DegenerateCriticalError(
            f"transversal Hessian nearly singular at {location}: eigenvalues {eig}"
        )
    sigma = int(np.sum(eig > 0) - np.sum(eig < 0))
    det = float(np.prod(eig))
    q0 = complex(a_val) / math.sqrt(abs(det)) * cmath.exp(1j * math.pi * sigma / 4.0)
    return SPComponent(float(psi0), p, sigma, q0)


def _amp_at(problem, loc):
    """Amplitude at loc times the density of the domain's measure in its
    chart, the factor that the leading stationary term carries."""
    scale = problem.domain._measure_scale
    if problem.amplitude is None:
        return scale
    origin = np.zeros((1, problem.domain.dim))
    return complex(problem._at(problem.amplitude, loc, origin)[0]) * scale


def stationary_expansion(problem):
    if not problem.critical:
        raise DomainError("stationary_expansion needs a declared critical set")
    kind = problem.critical[0]
    n = problem.domain.dim
    comps = []
    if kind == "points":
        for loc in problem.critical[1]:
            psi0, H = _chart_hessian(problem, loc)
            comps.append(_component_from_hessian(H, psi0, _amp_at(problem, loc), 0, loc))
        return SPExpansion(n, tuple(comps))
    if kind == "curve":
        _, param, (t0, t1), closed = problem.critical
        n_quad = 256
        ts = (
            t0 + (np.arange(n_quad) + 0.5) * (t1 - t0) / n_quad
            if closed
            else np.linspace(t0, t1, n_quad)
        )
        dt = (t1 - t0) / n_quad if closed else ts[1] - ts[0]
        for t in ts:
            loc = np.asarray(param(t), dtype=float)
            g = problem._gradient(loc)
            if np.linalg.norm(g) > 1e-8:
                raise DomainError(f"curve point {loc} is not critical: |grad|={np.linalg.norm(g):.2e}")
            eps = 1e-6 * (1.0 + abs(t1 - t0))
            tangent = (np.asarray(param(t + eps)) - np.asarray(param(t - eps))) / (2 * eps)
            speed = float(np.linalg.norm(tangent))
            tangent = tangent / speed
            # complete the tangent to an orthonormal frame; transversal block
            basis = np.linalg.qr(
                np.concatenate([tangent[:, None], np.eye(n)], axis=1)
            )[0][:, 1:n]
            psi0, H = _chart_hessian(problem, loc)
            # the line element speed * dt rides on the amplitude
            comps.append(_component_from_hessian(
                H, psi0, _amp_at(problem, loc) * speed * dt, 1, loc, transversal=basis))
        if len({c.signature for c in comps}) > 1:
            raise DomainError("signature changes along the declared curve")
        psi_vals = np.array([c.psi0 for c in comps])
        if np.ptp(psi_vals) > 1e-9 * (1.0 + np.max(np.abs(psi_vals))):
            raise DomainError("phase is not constant along the declared curve")
        q0 = complex(pairwise_sum(np.array([c.q0 for c in comps])))
        comp = SPComponent(float(np.mean(psi_vals)), 1, comps[0].signature, q0)
        return SPExpansion(n, (comp,))
    raise DomainError(f"unknown critical descriptor {kind!r}")


# ---------------------------------------------------------------------------
# caustic interpolation


@dataclass(frozen=True)
class CausticValue:
    numeric: complex
    prediction: complex
    regime_ok: bool
    base: float


def caustic_interpolation(problem, mu, tau, epsilon):
    """Numeric I(mu tau) next to the epsilon-regularized stationary value.

    The prediction replaces the decaying power 1/(mu tau)^((n-p)/2) by
    1/(mu tau + epsilon)^(...) with each component's q0 turned by
    e^{-i eps psi0}, which stays finite through tau -> 0.
    """
    mu_eff = mu * tau
    # at mu_eff = 0 the exponential is 1, so this is the plain amplitude mass
    numeric = oscillatory_integral(problem, mu_eff)
    base = mu_eff + epsilon
    regime_ok = base > 1.0
    if not regime_ok:
        warnings.warn(
            f"mu tau + epsilon = {base} <= 1: interpolation outside its regime",
            RegimeWarning,
        )
    expansion = stationary_expansion(problem)
    turned = tuple(replace(c, q0=c.q0 * cmath.exp(-1j * epsilon * c.psi0))
                   for c in expansion.components)
    prediction = SPExpansion(expansion.n, turned).predict(base)
    return CausticValue(numeric, prediction, regime_ok, base)


# ---------------------------------------------------------------------------
# critical-set scan on S^2 x S^1


@dataclass(frozen=True)
class CriticalPointRecord:
    omega: tuple
    phi: float
    grad_norm: float
    trans_det: float
    trans_dim: int
    phase_value: float


@dataclass(frozen=True)
class CriticalScanResult:
    points: tuple
    classification: str


def _rot_z(phi, v):
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(np.broadcast_shapes(np.shape(phi) + (3,), np.shape(v)))
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0] = c * vx - s * vy
    out[..., 1] = s * vx + c * vy
    out[..., 2] = vz * np.ones_like(c)
    return out


def _pairing_derivs(x, y, W, PH):
    """Closed-form gradient and Hessian of <x - R_phi y, omega> in normal
    coordinates (u1, u2, dphi) at each seed, with per-seed frames (t1, t2).

    The phase is linear in omega, so with a = <x - R_phi y, omega> the sphere
    block of the Hessian is -a I.  Returns (g (S,3), H (S,3,3), t1, t2)."""
    Ry = _rot_z(PH, y[None, :] * np.ones((len(PH), 1)))
    v = x[None, :] - Ry
    t1, t2 = _tangent_frames(W)

    def rot_pair(u):
        # -<d/dphi R_phi y, u>
        return Ry[:, 1] * u[:, 0] - Ry[:, 0] * u[:, 1]

    g = np.stack([np.sum(v * t1, axis=1), np.sum(v * t2, axis=1), rot_pair(W)], axis=1)
    H = np.zeros((len(PH), 3, 3))
    H[:, 0, 0] = H[:, 1, 1] = -np.sum(v * W, axis=1)
    H[:, 0, 2] = H[:, 2, 0] = rot_pair(t1)
    H[:, 1, 2] = H[:, 2, 1] = rot_pair(t2)
    H[:, 2, 2] = Ry[:, 0] * W[:, 0] + Ry[:, 1] * W[:, 1]
    return g, H, t1, t2


def _scan_seeds():
    n_pol, n_az, n_phi = 14, 28, 24
    W = _sphere_points(np.linspace(-0.97, 0.97, n_pol), n_az)
    W = np.concatenate([W, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    PH = np.arange(n_phi) * (_TWO_PI / n_phi)
    Wrep = np.repeat(W, n_phi, axis=0)
    PHrep = np.tile(PH, len(W))
    return Wrep, PHrep


def _newton_polish(x, y, W, PH):
    for _ in range(50):
        g, H, t1, t2 = _pairing_derivs(x, y, W, PH)
        gn = np.linalg.norm(g, axis=1)
        if np.all(gn <= SCAN_GRAD_TOL):
            break
        H += 1e-12 * np.eye(3)[None, :, :]
        try:
            step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g
        norm = np.linalg.norm(step, axis=1)
        big = norm > 0.5
        step[big] *= (0.5 / norm[big])[:, None]
        W = W + step[:, [0]] * t1 + step[:, [1]] * t2
        W /= np.linalg.norm(W, axis=1)[:, None]
        PH = (PH + step[:, 2]) % _TWO_PI
    g = _pairing_derivs(x, y, W, PH)[0]
    return W, PH, np.linalg.norm(g, axis=1)


def _embed(W, PH):
    return np.concatenate([W, np.cos(PH)[:, None], np.sin(PH)[:, None]], axis=1)


def _dedup(E, radius=1e-6):
    # merge points within radius by snapping to a grid of that pitch
    cells = np.round(E / radius).astype(np.int64)
    _, keep = np.unique(cells, axis=0, return_index=True)
    return np.sort(keep)


def _group_components(E):
    link = 0.35
    n = len(E)
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    block = 256
    for start in range(0, n, block):
        rows = E[start : start + block]
        d = np.linalg.norm(rows[:, None, :] - E[None, start:, :], axis=2)
        ii, jj = np.nonzero(d < link)
        for i, j in zip(ii + start, jj + start):
            if i < j:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def classify_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if math.hypot(y[0], y[1]) < 1e-12:
        return "degenerate"
    same_orbit = (
        abs(x[2] - y[2]) < 1e-9 and abs(math.hypot(x[0], x[1]) - math.hypot(y[0], y[1])) < 1e-9
    )
    return "on-orbit" if same_orbit else "off-orbit"


def critical_set_scan(x, y):
    """All zeros of the (omega, phi)-gradient of <x - R_phi y, omega>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(x) < 1e-12 or np.linalg.norm(y) < 1e-12:
        raise DomainError("x and y must be nonzero")
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    classification = classify_pair(x, y)
    W, PH = _scan_seeds()
    W, PH, gn = _newton_polish(x, y, W, PH)
    ok = gn <= SCAN_GRAD_TOL
    if not np.any(ok):
        return CriticalScanResult((), "empty")
    W, PH, gn = W[ok], PH[ok], gn[ok]
    E = _embed(W, PH)
    keep = _dedup(E)
    W, PH, gn, E = W[keep], PH[keep], gn[keep], E[keep]
    # thin far below the linkage radius: cheap grouping, same components
    thin = _dedup(E, radius=0.02)
    W, PH, gn, E = W[thin], PH[thin], gn[thin], E[thin]
    comps = _group_components(E)
    H = _pairing_derivs(x, y, W, PH)[1]

    records = []
    for comp in comps:
        rep = comp[int(np.argmin(gn[comp]))]
        w_rep, phi_rep = W[rep], float(PH[rep])
        eig = np.linalg.eigvalsh(H[rep])
        order = np.argsort(np.abs(eig))
        # manifold directions show up as (numerically) null eigenvalues
        p_dim = int(np.sum(np.abs(eig) <= 1e-6 * max(1.0, np.max(np.abs(eig)))))
        trans_eig = eig[order][p_dim:]
        det = float(np.prod(trans_eig)) if len(trans_eig) else 1.0
        phase_val = float(np.dot(x - _rot_z(phi_rep, y), w_rep))
        records.append(
            CriticalPointRecord(tuple(w_rep), phi_rep, float(gn[rep]), det, 3 - p_dim, phase_val)
        )
    records.sort(key=lambda r: (abs(r.phase_value), r.phi))
    return CriticalScanResult(tuple(records), classification)


# ---------------------------------------------------------------------------
# hybrid decay


def orbit_distance(x, y):
    """Chordal distance from y to the rotation orbit of x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tx = math.acos(max(-1.0, min(1.0, x[2] / np.linalg.norm(x))))
    ty = math.acos(max(-1.0, min(1.0, y[2] / np.linalg.norm(y))))
    return 2.0 * abs(math.sin((tx - ty) / 2.0))


def _sinc(z):
    return np.sinc(np.asarray(z) / math.pi)


def hybrid_integral(x, y, mu):
    """I(mu) = circle average over phi of the sphere integral of
    e^{i mu <x - R_phi y, omega>}.

    The inner sphere integral reduces exactly to 4 pi sinc(mu |x - R_phi y|)
    (1D reduction along the axis x - R_phi y); the circle average is a
    trapezoid rule resolving the phi-oscillation.  Cross-checked against the
    full tensor quadrature in the tests.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_phi = max(256, int(math.ceil(NODES_PER_WAVELENGTH * mu)))
    phis = np.arange(n_phi) * (_TWO_PI / n_phi)
    Ry = _rot_z(phis, y[None, :] * np.ones((n_phi, 1)))
    dists = np.linalg.norm(x[None, :] - Ry, axis=1)
    vals = 4.0 * math.pi * _sinc(mu * dists)
    return complex(pairwise_sum(vals)) / n_phi


@dataclass(frozen=True)
class HybridDecayPair:
    on_fit: object
    off_fit: object
    mu_grid: tuple
    on_values: tuple
    off_values: tuple
    distance: float


def hybrid_decay_fit(x, y, mu_grid):
    """Envelope decay fits of |I(mu)|: the on-orbit reference (y replaced by
    x itself) paired with the off-orbit fit at the given y."""
    mu_grid = np.asarray(mu_grid, dtype=float)
    if len(mu_grid) < 8:
        raise DomainError("mu_grid needs at least 8 points")
    ratios = mu_grid[1:] / mu_grid[:-1]
    if np.any(ratios <= 1.0) or np.ptp(ratios) > 0.2 * ratios[0]:
        raise DomainError("mu_grid must be geometric and increasing")
    on_vals = np.array([abs(hybrid_integral(x, x, mu)) for mu in mu_grid])
    m_on, v_on = envelope_maxima(mu_grid, on_vals)
    on_fit = fit_power_law(m_on, v_on)
    dist = orbit_distance(x, y)
    off_fit = None
    off_vals = ()
    if dist > 1e-12:
        if mu_grid[0] * dist < 3.0:
            warnings.warn(
                f"mu_min * dist = {mu_grid[0] * dist:.3g} < 3: mixed regime for the off-orbit fit",
                RegimeWarning,
            )
        ov = np.array([abs(hybrid_integral(x, y, mu)) for mu in mu_grid])
        m_off, v_off = envelope_maxima(mu_grid, ov)
        off_fit = fit_power_law(m_off, v_off)
        off_vals = tuple(ov)
    return HybridDecayPair(on_fit, off_fit, tuple(mu_grid), tuple(on_vals), off_vals, dist)

