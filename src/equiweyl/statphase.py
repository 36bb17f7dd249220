"""Oscillatory-integral engine.

Quadrature of I(mu) = integral of e^{i mu psi} a over boxes, the unit sphere,
and sphere x circle products, with a hard anti-aliasing node rule; leading
stationary terms from declared critical sets (points or curves) built from
central-difference transversal Hessians in the domain's chart, weighted by
the density of the domain's measure there; caustic-regularized interpolation
in (mu, tau, epsilon); dense-seed Newton scans of the pairing phase
<x - R_phi y, omega> on S^2 x S^1, whose Newton steps and transversal
determinants use that phase's closed-form gradient and Hessian; the
orbit-pair integrals of the hybrid experiment.  It computes; the fits of
what it computes live in lab.

Each domain class owns what only it knows: node extents, its
chart (_points: the phase arguments at chart offsets U (k, dim) around a
location; geodesic normal coordinates on the sphere), the Lipschitz scan that
sizes the nodes, its quadrature chunks (args, weights: consecutive blocks of
_BLOCK nodes of its tensor grid, in tensor order), and the density of its
measure against the chart's Lebesgue measure at the centre (_measure_scale).
Only StationaryPhaseProblem.__init__ asks which domain it holds.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCriticalError, DomainError, RegimeWarning, ResourceLimitError
from .util import MAX_GRID_NODES, _colatitude_nodes, gauss_nodes, pairwise_sum

_TWO_PI = 2.0 * math.pi
MIN_NODES = 64
NODES_PER_WAVELENGTH = 6
# |gradient| at which a Newton-polished scan point counts as critical
SCAN_GRAD_TOL = 1e-10
_THIN_CELL = 0.02  # cell edge of the scan's thinning, far below the linkage radius 0.35
# quadrature nodes per block: every domain yields its tensor grid in
# consecutive flat blocks of this many, a power of two (see
# oscillatory_integral)
_BLOCK = 1 << 14


def nodes_for(mu, lip, extent):
    need = NODES_PER_WAVELENGTH * abs(mu) * lip * extent / _TWO_PI
    return max(MIN_NODES, int(math.ceil(need)))


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class BoxDomain:
    lo: tuple
    hi: tuple

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
        shape = tuple(len(a) for a in axes)
        for start, stop in _block_ranges(math.prod(shape)):
            idx = np.unravel_index(np.arange(start, stop), shape)
            # the first axis's weight times the product of the others, in
            # axis order
            inner = np.ones(stop - start)
            for wgt, i in zip(weights[1:], idx[1:]):
                inner = inner * wgt[i]
            yield (np.column_stack([a[i] for a, i in zip(axes, idx)]),), weights[0][idx[0]] * inner


@dataclass(frozen=True)
class SphereDomain:
    """Unit sphere with the surface measure (total mass 4 pi)."""

    dim = 2
    _extents = (math.pi, _TWO_PI)
    _measure_scale = 1.0

    def _points(self, loc, U):
        return (_exp_map(loc, U),)

    def _lipschitz(self, problem):
        # each axis by its own derivative: the polar one by |grad psi|, the
        # azimuth by d psi / d phi = <grad psi, e3 x w>, the chart gradient
        # lifted to R^3; that is 0 for a phase invariant under rotation about
        # e3, whose azimuth trapezoid is exact on MIN_NODES nodes.  As
        # |e3 x w| <= 1 it never exceeds the polar bound; min keeps rounding
        # from making it do so
        W = _sphere_points(gauss_nodes(17)[0], _azimuths(33))
        G = problem._gradient(W)
        lip = 1.25 * float(np.max(_norms(G))) + 1e-12
        t1, t2 = _tangent_frames(W)
        grad = G[:, [0]] * t1 + G[:, [1]] * t2
        d_phi = grad[:, 1] * W[:, 0] - grad[:, 0] * W[:, 1]
        return (lip, min(lip, 1.25 * float(np.max(np.abs(d_phi))) + 1e-12))

    def _chunks(self, nodes):
        theta, w_p = _colatitude_nodes(int(nodes[0]))
        az = _azimuths(nodes[1])
        for start, stop in _block_ranges(len(theta) * nodes[1]):
            W, wt = _sphere_block(theta, w_p, az, start, stop)
            yield (W,), wt


@dataclass(frozen=True)
class SphereCircleDomain:
    """S^2 x S^1 with surface measure x normalized circle average."""

    dim = 3
    _extents = (math.pi, _TWO_PI, _TWO_PI)
    # the circle average is d phi / (2 pi) in the chart coordinate phi
    _measure_scale = 1.0 / _TWO_PI

    def _points(self, loc, U):
        w, phi = loc
        return _exp_map(w, U[:, :2]), phi + U[:, 2]

    def _lipschitz(self, problem):
        W = _sphere_points(gauss_nodes(9)[0], _azimuths(17))
        G = [problem._gradient((w, phi))
             for phi in np.linspace(0.0, _TWO_PI, 9, endpoint=False) for w in W[::4]]
        lip_s = 1.25 * max(float(np.linalg.norm(g[:2])) for g in G) + 1e-12
        lip_c = 1.25 * max(abs(float(g[2])) for g in G) + 1e-12
        return (lip_s, lip_s, lip_c)

    def _chunks(self, nodes):
        n_pol, n_az, n_circ = nodes
        theta, w_p = _colatitude_nodes(int(n_pol))
        az = _azimuths(n_az)
        n_s = len(theta) * n_az
        for start, stop in _block_ranges(n_circ * n_s):
            # the circle node is the outer index: a block may end one circle
            # node's sphere and start the next one's
            parts = [(c, max(start - c * n_s, 0), min(stop - c * n_s, n_s))
                     for c in range(start // n_s, -(-stop // n_s))]
            W, wt = (np.concatenate(a) for a in zip(
                *(_sphere_block(theta, w_p, az, j0, j1) for _, j0, j1 in parts)))
            phi = np.concatenate([np.full(j1 - j0, c * (_TWO_PI / n_circ)) for c, j0, j1 in parts])
            yield (W, phi), wt / n_circ


def _block_ranges(size):
    """(start, stop) of the consecutive _BLOCK-node blocks of a flat grid of
    size nodes; the last block takes the rest."""
    return ((start, min(start + _BLOCK, size)) for start in range(0, size, _BLOCK))


def _lattice(axes):
    """The tensor grid of the 1-d axes as points, shape (prod of the
    lengths, len(axes)), the last axis fastest."""
    size = math.prod(len(a) for a in axes)
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), size).T


def _azimuths(n_az):
    """cos and sin of n_az equispaced azimuths, shared by every block of a grid."""
    phi = np.arange(n_az) * (_TWO_PI / n_az)
    return np.cos(phi), np.sin(phi)


def _sphere_points(alpha, az, st=None):
    """Unit vectors at the heights alpha, sines st (sqrt(1 - alpha^2) if None),
    times the azimuths az = (cos, sin), shape (len(alpha) * len(cos), 3)."""
    cos_az, sin_az = az
    st = np.sqrt(1.0 - alpha * alpha) if st is None else st
    W = np.empty((len(alpha), len(cos_az), 3))
    W[..., 0] = st[:, None] * cos_az[None, :]
    W[..., 1] = st[:, None] * sin_az[None, :]
    W[..., 2] = alpha[:, None]
    return W.reshape(-1, 3)


def _sphere_block(theta, w_p, az, start, stop):
    """Nodes start:stop, in _sphere_points order, of the product rule of the
    colatitudes theta (weights w_p) and the equispaced azimuths az, and
    their weights; only the polar rows the block touches are built."""
    n_az = len(az[0])
    p0, p1 = start // n_az, -(-stop // n_az)
    cut = slice(start - p0 * n_az, stop - p0 * n_az)
    W = _sphere_points(np.cos(theta[p0:p1]), az, np.sin(theta[p0:p1]))[cut]
    return W, np.repeat(w_p[p0:p1] * (_TWO_PI / n_az), n_az)[cut]


def _tangent_frames(W):
    """Orthonormal tangent frames (t1, t2) at the unit vectors W (S, 3):
    t1 is W x e1 where |W_0| < 0.9, else W x e2, normalized, and t2 is
    W x t1, each product written out on the coordinate rows of W."""
    w = W.T
    e1 = np.abs(w[0]) < 0.9
    t1 = np.stack([np.where(e1, 0.0, -w[2]), np.where(e1, w[2], 0.0), np.where(e1, -w[1], w[0])])
    t1 /= np.sqrt(_dot3(t1, t1))
    t2 = np.stack([w[1] * t1[2] - w[2] * t1[1], w[2] * t1[0] - w[0] * t1[2],
                   w[0] * t1[1] - w[1] * t1[0]])
    return t1.T, t2.T


def _norms(V):
    """Euclidean norms of the rows of V (..., n), each with the bits
    np.linalg.norm gives that row alone: a row times itself as a column is
    the same dot product."""
    return np.sqrt((V[..., None, :] @ V[..., None])[..., 0, 0])


def _exp_map(w, U):
    """Geodesic normal coordinates on S^2: the points at offsets U (k, 2)
    in the tangent frame at w, shape (k, 3); base points w (S, 3) give one
    chart each, shape (S, k, 3), each row as w alone gives it."""
    w0 = np.asarray(w, dtype=float)
    w0 = (w0 / _norms(w0)[..., None])[..., None, :]
    t1, t2 = (t.reshape(w0.shape) for t in _tangent_frames(w0.reshape(-1, 3)))
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
    ("curve", parametrization, (t0, t1), closed) for box domains, the
    parametrization taking an array of t (k,) to points (k, d).  A
    location is a point of the box, a unit vector, or a pair (w, phi).
    The declared set is held as its components (see _critical_nodes), every
    node of which must be critical.
    """

    def __init__(self, phase, amplitude, domain, critical=None):
        self.phase = phase
        self.amplitude = amplitude
        self.domain = domain
        if isinstance(domain, BoxDomain):
            self._check_support()
        elif not isinstance(domain, (SphereDomain, SphereCircleDomain)):
            raise DomainError(f"unsupported domain {domain!r}")
        elif critical and critical[0] == "curve":
            raise DomainError("curve-type critical sets are supported on box domains")
        self.lip = domain._lipschitz(self)
        self.critical = _critical_nodes(critical) if critical else []
        origin = np.zeros((1, domain.dim))
        for loc in (loc for _, locs, _, _ in self.critical for loc in locs):
            g = np.linalg.norm(self._gradient(loc))
            # each phase value carries a rounding error up to about eps |psi|,
            # which the difference quotient divides by the step: an exact
            # critical node reads |grad| up to that floor
            psi = float(self._at(self.phase, loc, origin)[0])
            floor = 8.0 * np.finfo(float).eps * (1.0 + abs(psi)) / _GRAD_STEP
            if g > 1e-10 + floor:
                raise DomainError(f"declared critical node {loc} has |grad| = {g:.2e}")

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
        """fn (the phase or the amplitude) at chart offsets U (k, dim) around
        loc, or around each of the sphere's base points loc (S, 3)."""
        return np.asarray(fn(*self.domain._points(loc, U)))

    def _gradient(self, loc):
        """Central-difference gradient in the local orthonormal chart; the
        sphere's base points loc (S, 3) give one gradient row each."""
        d = self.domain.dim
        E = _GRAD_STEP * np.eye(d)
        f = self._at(self.phase, loc, np.concatenate([E, -E]))
        return (f[..., :d] - f[..., d:]) / (2 * _GRAD_STEP)

    def resolve_nodes(self, mu):
        """Nodes per axis at mu; ResourceLimitError past MAX_GRID_NODES in
        all, before any rule is built."""
        nodes = tuple(nodes_for(mu, lip, ext) for lip, ext in zip(self.lip, self.domain._extents))
        if math.prod(nodes) > MAX_GRID_NODES:
            raise ResourceLimitError(f"mu={mu} needs a quadrature grid of {' x '.join(map(str, nodes))}"
                                     f" nodes, more than {MAX_GRID_NODES}")
        return nodes


# ---------------------------------------------------------------------------
# quadrature


def oscillatory_integral(problem, mu):
    """The tensor quadrature of e^{i mu psi} a, summed by one pairwise_sum
    over the whole grid in its tensor order, computed block by block.

    The blocks hold _BLOCK = 2^k nodes each and start at multiples of it.
    For its first k levels pairwise_sum's tree never pairs across such an
    edge, and the leftover of an odd level is always the tail block's last
    element, as in the tail block's own tree; so the pairwise_sum of the
    block sums is bit for bit that of the whole grid, which is never built.
    """
    sums = []
    for args, wt in problem.domain._chunks(problem.resolve_nodes(mu)):
        amp = 1.0 if problem.amplitude is None else np.asarray(problem.amplitude(*args))
        vals = amp * np.exp(1j * mu * np.asarray(problem.phase(*args)))
        sums.append(pairwise_sum(np.ravel(vals * wt)))
    return complex(pairwise_sum(np.array(sums)))


# ---------------------------------------------------------------------------
# stationary expansion


# nodes of a declared critical curve
_CURVE_NODES = 256


def _critical_nodes(critical):
    """A declared critical set as its components, each (p, locations,
    transversal frames, weights): a point, p = 0, is one node, its location
    with no frame and weight 1; a curve, p = 1, is its parametrization at
    _CURVE_NODES parameters, each node with the orthonormal columns
    (d, d - 1) of its tangent's complement and its line weight speed * dt."""
    kind = critical[0]
    if kind == "points":
        return [(0, [loc], [None], [1.0]) for loc in critical[1]]
    if kind != "curve":
        raise DomainError(f"unknown critical descriptor {kind!r}")
    _, param, (t0, t1), closed = critical
    if closed:
        dt = (t1 - t0) / _CURVE_NODES
        ts = t0 + (np.arange(_CURVE_NODES) + 0.5) * dt
    else:
        ts = np.linspace(t0, t1, _CURVE_NODES)
        dt = ts[1] - ts[0]
    locs = np.asarray(param(ts), dtype=float)
    eps = 1e-6 * (1.0 + abs(t1 - t0))
    tangent = (np.asarray(param(ts + eps)) - np.asarray(param(ts - eps))) / (2 * eps)
    speed = np.linalg.norm(tangent, axis=1)
    # complete each unit tangent to an orthonormal frame; the rest is transversal
    n = locs.shape[1]
    stacked = np.concatenate([(tangent / speed[:, None])[:, :, None],
                              np.broadcast_to(np.eye(n), (len(ts), n, n))], axis=2)
    return [(1, locs, np.linalg.qr(stacked)[0][:, :, 1:n], speed * dt)]


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


def _node_term(problem, loc, frame, weight):
    """(psi0, signature, q0) of one critical node: the chart Hessian at loc,
    restricted to the columns of frame unless it is None, and the amplitude
    at loc times the density of the domain's measure in its chart and the
    node's weight.  q0 is Python complex arithmetic: numpy's complex
    division would move its last bits."""
    psi0, H = _chart_hessian(problem, loc)
    if frame is not None:
        H = frame.T @ H @ frame
    eig = np.linalg.eigvalsh(H)
    if np.min(np.abs(eig)) < 1e-8:
        raise DegenerateCriticalError(
            f"transversal Hessian nearly singular at {loc}: eigenvalues {eig}")
    sigma = int(np.sum(eig > 0) - np.sum(eig < 0))
    amp = 1.0 if problem.amplitude is None else complex(
        problem._at(problem.amplitude, loc, np.zeros((1, problem.domain.dim)))[0])
    a_val = complex(amp * problem.domain._measure_scale) * float(weight)
    det = float(np.prod(eig))
    return psi0, sigma, a_val / math.sqrt(abs(det)) * cmath.exp(1j * math.pi * sigma / 4.0)


def stationary_expansion(problem):
    """The leading stationary terms of the declared critical set: the
    domain's dimension n and one array per field, psi0, p, signature and
    q0, one entry per component in declared order.  A component's nodes
    must share their signature and phase value; psi0 is their mean and q0
    the pairwise sum of theirs."""
    if not problem.critical:
        raise DomainError("stationary_expansion needs a declared critical set")
    fields = []
    for p, locs, frames, weights in problem.critical:
        terms = [_node_term(problem, *node) for node in zip(locs, frames, weights)]
        psi, sigma, q0 = (np.array(v) for v in zip(*terms))
        if np.ptp(sigma) > 0:
            raise DomainError("signature changes along the declared curve")
        if np.ptp(psi) > 1e-9 * (1.0 + np.max(np.abs(psi))):
            raise DomainError("phase is not constant along the declared curve")
        fields.append((float(np.mean(psi)), p, int(sigma[0]), complex(pairwise_sum(q0))))
    psi0, p, signature, q0 = (np.array(v) for v in zip(*fields))
    return {"n": problem.domain.dim, "psi0": psi0, "p": p, "signature": signature, "q0": q0}


def stationary_prediction(expansion, mu):
    """The sum, over the components in order, of e^{i mu psi0}
    (2 pi / mu)^((n - p) / 2) q0, in Python complex arithmetic: numpy's
    complex operations would move its last bits."""
    n = expansion["n"]
    return sum(cmath.exp(1j * mu * psi0) * (_TWO_PI / mu) ** ((n - p) / 2.0) * q0
               for psi0, p, q0 in zip(*(expansion[k].tolist() for k in ("psi0", "p", "q0"))))


# ---------------------------------------------------------------------------
# caustic interpolation


def caustic_interpolation(problem, mu_tau, epsilon):
    """(numeric I(mu tau), the epsilon-regularized stationary value).

    The prediction replaces the decaying power 1/(mu tau)^((n-p)/2) by
    1/(mu tau + epsilon)^(...) with each component's q0 turned by
    e^{-i eps psi0}, which stays finite through tau -> 0.  mu and tau
    enter only through their product mu_tau; mu tau + epsilon <= 1 warns
    RegimeWarning.
    """
    # at mu_tau = 0 the exponential is 1, so this is the plain amplitude mass
    numeric = oscillatory_integral(problem, mu_tau)
    base = mu_tau + epsilon
    if not base > 1.0:
        warnings.warn(
            f"mu tau + epsilon = {base} <= 1: interpolation outside its regime",
            RegimeWarning,
        )
    expansion = stationary_expansion(problem)
    turned = [q0 * cmath.exp(-1j * epsilon * psi0)
              for psi0, q0 in zip(expansion["psi0"].tolist(), expansion["q0"].tolist())]
    return numeric, stationary_prediction(dict(expansion, q0=np.array(turned)), base)


# ---------------------------------------------------------------------------
# critical-set scan on S^2 x S^1


def _rot_z(phi, v):
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(np.broadcast_shapes(np.shape(phi) + (3,), np.shape(v)))
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0] = c * vx - s * vy
    out[..., 1] = s * vx + c * vy
    out[..., 2] = vz * np.ones_like(c)
    return out


def _dot3(u, v):
    """<u, v> over coordinate rows u, v (3, ...), summed in the order np.sum
    sums a row of three, so each value keeps the bits of the row form."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _row_dots(u, v):
    """<u, v> over the last axis, broadcast: matmul takes a stack of 1 x 3 by
    3 x 1 products through np.dot's kernel, so each keeps np.dot's bits."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _pairing_parts(x, y, w, ph):
    """Closed-form gradient and Hessian of <x - R_phi y, omega> in normal
    coordinates (u1, u2, dphi) at seeds held as coordinate rows: unit
    vectors w (3, S) and angles ph (S,).

    The phase is linear in omega, so with A = -<x - R_phi y, omega> the
    Hessian is [[A, 0, b], [0, A, c], [b, c, D]].  The frames (t1, t2) are
    _tangent_frames', as coordinate rows.
    Returns (g (3, S), A, b, c, D, t1 (3, S), t2 (3, S))."""
    cos, sin = np.cos(ph), np.sin(ph)
    r0, r1 = cos * y[0] - sin * y[1], sin * y[0] + cos * y[1]
    v = (x[0] - r0, x[1] - r1, x[2] - y[2])
    t1, t2 = (t.T for t in _tangent_frames(w.T))

    def rot_pair(u):
        # -<d/dphi R_phi y, u>
        return r1 * u[0] - r0 * u[1]

    g = np.stack([_dot3(v, t1), _dot3(v, t2), rot_pair(w)])
    return g, -_dot3(v, w), rot_pair(t1), rot_pair(t2), r0 * w[0] + r1 * w[1], t1, t2


def _pairing_derivs(x, y, W, PH):
    """_pairing_parts at seeds W (S, 3), PH (S,), as the gradients g (S, 3)
    and the Hessians H (S, 3, 3)."""
    g, A, b, c, D, _, _ = _pairing_parts(x, y, W.T, PH)
    H = np.zeros((len(PH), 3, 3))
    H[:, 0, 0] = H[:, 1, 1] = A
    H[:, 0, 2] = H[:, 2, 0] = b
    H[:, 1, 2] = H[:, 2, 1] = c
    H[:, 2, 2] = D
    return g.T, H


def _scan_seeds():
    n_pol, n_az, n_phi = 14, 28, 24
    W = _sphere_points(np.linspace(-0.97, 0.97, n_pol), _azimuths(n_az))
    W = np.concatenate([W, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    PH = np.arange(n_phi) * (_TWO_PI / n_phi)
    Wrep = np.repeat(W, n_phi, axis=0)
    PHrep = np.tile(PH, len(W))
    return Wrep, PHrep


def _newton_step(A, b, c, D, g):
    """The Newton steps -H^{-1} g (3, S) for H = [[A, 0, b], [0, A, c],
    [b, c, D]], entry by entry on flat arrays, by the Schur complement of
    the A block: s3 = (b g1 + c g2 - A g3) / (A D - b^2 - c^2), then s1 and
    s2 by back-substitution.  A seed whose H is singular or not finite
    (det H = A (A D - b^2 - c^2) is 0, inf or nan) steps down its gradient,
    -g; its neighbours keep their Newton steps."""
    schur = A * D - b * b - c * c
    det = A * schur
    with np.errstate(divide="ignore", invalid="ignore"):
        s3 = (b * g[0] + c * g[1] - A * g[2]) / schur
        step = np.stack([-(g[0] + b * s3) / A, -(g[1] + c * s3) / A, s3])
    return np.where(np.isfinite(det) & (det != 0.0), step, -g)


def _newton_polish(x, y, W, PH):
    """Newton steps on the seeds whose gradient is still above SCAN_GRAD_TOL.
    The moving seeds are held as coordinate rows; a seed that reaches the
    tolerance is written back once, with its gradient norm, and leaves them,
    so no step gathers or scatters the whole seed array.
    Returns the seeds (W, PH) and their gradient norms."""
    W, PH, GN = W.copy(), PH.copy(), np.empty(len(PH))
    at, w, ph = np.arange(len(PH)), W.T.copy(), PH.copy()
    for _ in range(50):
        g, A, b, c, D, t1, t2 = _pairing_parts(x, y, w, ph)
        gn = np.sqrt(_dot3(g, g))
        moving = gn > SCAN_GRAD_TOL
        done = ~moving
        W[at[done]], PH[at[done]], GN[at[done]] = w.compress(done, axis=1).T, ph[done], gn[done]
        if not moving.any():
            break
        step = _newton_step(A + 1e-12, b, c, D + 1e-12, g)
        step *= 0.5 / np.maximum(np.sqrt(_dot3(step, step)), 0.5)
        w = w + step[0] * t1 + step[1] * t2
        w /= np.sqrt(_dot3(w, w))
        ph = (ph + step[2]) % _TWO_PI
        # the seeds already written back took the step too; it is discarded
        at, w, ph = (a.compress(moving, axis=-1) for a in (at, w, ph))
    else:
        # the step cap: the seeds still moving keep their last step
        g = _pairing_parts(x, y, w, ph)[0]
        W[at], PH[at], GN[at] = w.T, ph, np.sqrt(_dot3(g, g))
    return W, PH, GN


def _embed(W, PH):
    return np.concatenate([W, np.cos(PH)[:, None], np.sin(PH)[:, None]], axis=1)


def _dedup(E):
    """The smallest index in each cell of pitch _THIN_CELL, ascending: a
    stable sort of the cells puts it first in its cell's run."""
    cells = np.round(E / _THIN_CELL).astype(np.int64)
    order = np.lexsort(cells.T)
    ranked = cells[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[first])


def _group_components(E):
    """Components of the graph that links points closer than 0.35, each an
    ascending index list, in the order of their smallest index.  Each point
    takes its neighbours' least label, then that label's label, until no
    label changes: it ends labelled by its component's smallest index.  The
    neighbour matrix is built from its upper triangle, 256 rows at a time."""
    n, block = len(E), 256
    near = np.empty((n, n), dtype=bool)
    for start in range(0, n, block):
        rows = E[start : start + block]
        near[start : start + block, start:] = (
            np.linalg.norm(rows[:, None, :] - E[None, start:, :], axis=2) < 0.35)
        near[start:, start : start + block] = near[start : start + block, start:].T
    label, last = np.arange(n), None
    while not np.array_equal(label, last):
        last = label
        low = np.concatenate([np.where(near[start : start + block], last, n).min(axis=1)
                              for start in range(0, n, block)])
        label = low[low]
    order = np.argsort(label, kind="stable")
    return [c.tolist() for c in np.split(order, np.flatnonzero(np.diff(label[order])) + 1)]


def closed_form_critical_points(x, y):
    """Isolated critical points (omega, phi) of <x - R_phi y, omega>: R_phi y
    shares the azimuth of x or its opposite, and omega = +-(x - R_phi y) /
    |x - R_phi y|.  Where R_phi y = x the phase vanishes for every omega, and
    that phi carries a circle of critical points instead."""
    base = math.atan2(x[1], x[0]) - math.atan2(y[1], y[0])
    points = []
    for phi in (base, base + math.pi):
        v = x - _rot_z(phi, y)
        n = np.linalg.norm(v)
        if n > 1e-12:
            points += [(v / n, phi), (-v / n, phi)]
    return points


def _phi_gap(a, b):
    # abs(math.remainder(a - b, 2 pi)): fmod is exact, and so is one shift by 2 pi
    r = np.fmod(np.subtract(a, b), _TWO_PI)
    return np.abs(np.where(np.abs(r) > math.pi, r - np.copysign(_TWO_PI, r), r))


def closed_form_det(x, y):
    """|det H| of the pairing phase's Hessian, through _pairing_derivs, at the
    closed-form critical point of least |phase| (the first of a tie: the
    two at one phi differ only in the sign of det H)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w, phi = min(closed_form_critical_points(x, y),
                 key=lambda p: abs(float(np.dot(x - _rot_z(p[1], y), p[0]))))
    H = _pairing_derivs(x, y, w[None, :], np.array([phi]))[1][0]
    return abs(float(np.linalg.det(H)))


def closed_form_deviation(x, y, scan):
    """Worst distance of a scan's components from the closed-form set (0.0
    for an empty scan).

    An isolated component (trans_dim 3) is at max(|omega - w|, phi gap) from
    the nearest closed-form point (w, phi).  A circle lies on R_phi y = x
    with omega orthogonal to e3 x x, so it is at max(phi gap,
    |<e3 x x, omega>|) from that circle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    omega, phi = scan["omega"], scan["phi"]
    ws, phis = (np.array(v) for v in zip(*closed_form_critical_points(x, y)))
    base = math.atan2(x[1], x[0]) - math.atan2(y[1], y[0])
    to_points = omega[:, None, :] - ws
    isolated = np.min(np.maximum(np.sqrt(_row_dots(to_points, to_points)),
                                 _phi_gap(phi[:, None], phis)), axis=1)
    circle = np.maximum(_phi_gap(phi, base),
                        np.abs(_row_dots(omega, np.cross([0.0, 0.0, 1.0], x))))
    return float(np.max(np.where(scan["trans_dim"] == 3, isolated, circle), initial=0.0))


def _finite_vector(name, v):
    """v as a float array; DomainError naming it at a non-finite coordinate
    (a NaN would pass every later comparison)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():  # the method: half np.all's cost on a 3-vector
        raise DomainError(f"{name}={v.tolist()} has a non-finite coordinate")
    return v


def critical_set_scan(x, y):
    """All zeros of the (omega, phi)-gradient of <x - R_phi y, omega>: arrays
    omega (C, 3), phi, grad_norm, trans_det, trans_dim, phase_value (C,), one
    entry per critical component, read at its point of least gradient and
    ordered by (|phase|, phi).  trans_dim counts the Hessian eigenvalues that
    are not (numerically) null, trans_det is their product (1.0 for none).
    A circle (trans_dim 2) lies where R_phi y = x, or at every phi for y on
    the axis.  DomainError at a non-finite coordinate."""
    x, y = _finite_vector("x", x), _finite_vector("y", y)
    if np.linalg.norm(x) < 1e-12 or np.linalg.norm(y) < 1e-12:
        raise DomainError("x and y must be nonzero")
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    if math.hypot(y[0], y[1]) < 1e-12 and np.linalg.norm(x - y) < 1e-12:
        # R_phi y = x for every phi: every seed would be critical
        raise DomainError("x = y on the rotation axis: the phase vanishes identically, "
                          "so every (omega, phi) is critical")
    W, PH = _scan_seeds()
    W, PH, gn = _newton_polish(x, y, W, PH)
    ok = gn <= SCAN_GRAD_TOL
    W, PH, gn = W[ok], PH[ok], gn[ok]
    E = _embed(W, PH)
    thin = _dedup(E)
    W, PH, gn, E = W[thin], PH[thin], gn[thin], E[thin]
    comps = _group_components(E) if len(E) else []
    rep = [c[int(np.argmin(gn[c]))] for c in comps]
    W, PH, gn = W[rep], PH[rep], gn[rep]
    eig = np.linalg.eigvalsh(_pairing_derivs(x, y, W, PH)[1])
    eig = np.take_along_axis(eig, np.argsort(np.abs(eig), axis=1), 1)
    null = np.abs(eig) <= 1e-6 * np.maximum(1.0, np.max(np.abs(eig), axis=1))[:, None]
    # the null eigenvalues come first; a factor 1.0 in their place leaves
    # the product of the others, in |eigenvalue| order, bit for bit
    trans = np.where(null, 1.0, eig)
    phase = _row_dots(x - _rot_z(PH, y), W)
    by_phase = np.lexsort((PH, np.abs(phase)))
    fields = {"omega": W, "phi": PH, "grad_norm": gn, "trans_det": np.prod(trans, axis=1),
              "trans_dim": 3 - null.sum(axis=1), "phase_value": phase}
    return {key: value[by_phase] for key, value in fields.items()}


# ---------------------------------------------------------------------------
# orbit-pair integrals


# the phi table: |d/dphi |x - R_phi y|| <= hypot(x0, x1), so the integrand's
# phi-bandwidth is at most |mu| hypot(x0, x1), and past it the trapezoid rule
# converges geometrically; a quarter over that bound, plus a floor for small
# mu r_x (see DECISIONS.md)
_PHI_OVERSAMPLE = 1.25
_PHI_FLOOR = 64


def _phi_table_size(x, mu, n_rows):
    """Nodes of the phi table at x and mu; ResourceLimitError when n_rows rows
    of it would hold more than MAX_GRID_NODES nodes."""
    # sized as a float first: a huge mu gives inf, which math.ceil refuses,
    # and mu = inf on the axis gives nan, which the comparison refuses too
    need = _PHI_OVERSAMPLE * abs(mu) * math.hypot(x[0], x[1])
    if not (need + _PHI_FLOOR) * n_rows <= MAX_GRID_NODES:
        raise ResourceLimitError(f"mu={mu} needs a phi table of {need + _PHI_FLOOR:.4g} x "
                                 f"{n_rows} nodes, more than {MAX_GRID_NODES}")
    return math.ceil(need) + _PHI_FLOOR


def orbit_distance(x, y):
    """Chordal distance from y to the rotation orbit of x; DomainError at a
    non-finite coordinate."""
    x, y = _finite_vector("x", x), _finite_vector("y", y)
    tx = math.acos(max(-1.0, min(1.0, x[2] / np.linalg.norm(x))))
    ty = math.acos(max(-1.0, min(1.0, y[2] / np.linalg.norm(y))))
    return 2.0 * abs(math.sin((tx - ty) / 2.0))


def hybrid_integral(x, y, mu):
    """I(mu) = circle average over phi of the sphere integral of
    e^{i mu <x - R_phi y, omega>}; y one point (3,) or rows (k, 3), giving
    one complex value or k values.

    The inner sphere integral reduces exactly to 4 pi sinc(mu |x - R_phi y|)
    (1D reduction along the axis x - R_phi y); the circle average is a
    trapezoid rule of ceil(1.25 |mu| r_x) + 64 nodes, r_x = hypot(x0, x1).
    The integrand is periodic and entire in phi with bandwidth at most
    |mu| r_x, so the rule sits on its rounding floor; I is even in mu.
    Every row shares the phi table, and each row's value is its one-row
    call's; one point is one row.  Cross-checked against the full tensor
    quadrature and an 8-fold trapezoid rule in the tests.
    DomainError at a non-finite x or y or a NaN mu; ResourceLimitError when
    the phi table would hold more than MAX_GRID_NODES nodes over all rows,
    before it is built.
    """
    x, y = _finite_vector("x", x), _finite_vector("y", y)
    if math.isnan(mu):
        raise DomainError(f"mu={mu} is not a number")
    rows = np.atleast_2d(y)
    n_phi = _phi_table_size(x, mu, len(rows))
    # the float arange holds the same integers, and the table's sin takes
    # its buffer: no fresh array but the cos
    phis = np.arange(n_phi, dtype=float)
    phis *= _TWO_PI / n_phi
    c, s = np.cos(phis), np.sin(phis, out=phis)
    vx, vy, vz = rows[:, 0:1], rows[:, 1:2], rows[:, 2:3]
    # three (rows, n_phi) buffers, every step in place: dx = x0 - (c vx - s vy)
    # and dy = x1 - (s vx + c vy) squared, then np.linalg.norm's
    # (dx^2 + dy^2) + dz^2, in its order
    d, t, u = np.multiply(c, vx), np.multiply(s, vy), np.multiply(c, vy)
    d -= t
    np.subtract(x[0], d, out=d)
    d *= d
    np.multiply(s, vx, out=t)
    t += u
    np.subtract(x[1], t, out=t)
    t *= t
    d += t
    dz = x[2] - vz
    d += dz * dz
    np.sqrt(d, out=d)
    d *= mu
    # np.sinc(mu d / pi), step by step: x pi back, a zero to eps, sin(y) / y
    d /= math.pi
    d *= math.pi
    if not d.all():
        d[d == 0.0] = np.finfo(float).eps
    np.sin(d, out=u)
    u /= d
    u *= 4.0 * math.pi
    # divided as floats: numpy's complex division multiplies by 1 / n_phi
    out = (pairwise_sum(u) / n_phi).astype(complex)
    return complex(out[0]) if y.ndim == 1 else out
