"""Oscillatory-integral engine.

Quadrature of I(mu) = integral of e^{i mu psi} a over boxes, the unit sphere,
and sphere x circle products, with a hard anti-aliasing node rule; leading
stationary terms from declared critical sets (points or curves) built from
central-difference transversal Hessians; caustic-regularized interpolation in
(mu, tau, epsilon); dense-seed Newton scans of the pairing phase
<x - R_phi y, omega> on S^2 x S^1, whose Newton steps and component
classification use that phase's closed-form gradient and Hessian; hybrid
decay fits.
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

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not len(self.lo):
            raise DomainError("box needs matching lo/hi tuples")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise DomainError("box must have positive extent")

    @property
    def dim(self):
        return len(self.lo)


@dataclass(frozen=True)
class SphereDomain:
    """Unit sphere with the surface measure (total mass 4 pi)."""

    dim = 2


@dataclass(frozen=True)
class SphereCircleDomain:
    """S^2 x S^1 with surface measure x normalized circle average."""

    dim = 3


# ---------------------------------------------------------------------------
# problems


def _sphere_grid(n_pol, n_az):
    alpha, w_a = gauss_nodes(int(n_pol))
    n_pol = len(alpha)
    phi = np.arange(n_az) * (_TWO_PI / n_az)
    st = np.sqrt(1.0 - alpha * alpha)
    W = np.empty((n_pol, n_az, 3))
    W[..., 0] = st[:, None] * np.cos(phi)[None, :]
    W[..., 1] = st[:, None] * np.sin(phi)[None, :]
    W[..., 2] = alpha[:, None]
    wt = (w_a[:, None] * (_TWO_PI / n_az)) * np.ones((1, n_az))
    return W.reshape(-1, 3), wt.ravel()


class StationaryPhaseProblem:
    """phase, amplitude: vectorized callables on the domain's points.

    Box: f(X) with X of shape (..., d).  Sphere: f(W), W (..., 3) unit
    vectors.  Sphere x circle: f(W, phi).  amplitude None means 1.  critical
    declares the stationary set: ("points", [locations]) or
    ("curve", parametrization, (t0, t1), closed) for box domains.
    """

    def __init__(self, phase, amplitude, domain, critical=None):
        self.phase = phase
        self.amplitude = amplitude
        self.domain = domain
        self.critical = critical
        self.lip = self._estimate_lipschitz()
        if isinstance(domain, BoxDomain):
            self._check_support()
        if critical and critical[0] == "points":
            for loc in critical[1]:
                g = self._gradient(loc)
                if np.linalg.norm(g) > 1e-10:
                    raise DomainError(
                        f"declared critical point {loc} has |grad| = {np.linalg.norm(g):.2e}"
                    )

    # -- validation helpers

    def _check_support(self):
        d = self.domain.dim
        lo = np.array(self.domain.lo)
        hi = np.array(self.domain.hi)
        probe = []
        side = np.linspace(0.0, 1.0, 9)
        for axis in range(d):
            for bound in (lo[axis], hi[axis]):
                pts = np.empty((9 ** max(1, d - 1), d)) if d > 1 else np.empty((1, d))
                if d == 1:
                    pts[:, 0] = bound
                else:
                    others = [i for i in range(d) if i != axis]
                    mesh = np.meshgrid(*[lo[i] + side * (hi[i] - lo[i]) for i in others])
                    for j, i in enumerate(others):
                        pts[:, i] = mesh[j].ravel()
                    pts[:, axis] = bound
                probe.append(pts)
        probe = np.concatenate(probe)
        if self.amplitude is None:
            raise DomainError("box amplitudes must vanish on the boundary; got constant 1")
        vals = np.abs(np.asarray(self.amplitude(probe)))
        if np.max(vals) > 1e-10:
            raise DomainError(
                f"amplitude must be supported strictly inside the box; boundary max {np.max(vals):.2e}"
            )

    def _estimate_lipschitz(self):
        # coarse directional-difference scan; 25% safety margin
        if isinstance(self.domain, BoxDomain):
            d = self.domain.dim
            axes = [np.linspace(l, h, 33) for l, h in zip(self.domain.lo, self.domain.hi)]
            mesh = np.meshgrid(*axes, indexing="ij")
            X = np.stack([m.ravel() for m in mesh], axis=-1)
            vals = np.asarray(self.phase(X)).reshape([33] * d)
            lips = []
            for axis in range(d):
                step = axes[axis][1] - axes[axis][0]
                diff = np.diff(vals, axis=axis) / step
                lips.append(1.25 * float(np.max(np.abs(diff))) + 1e-12)
            return tuple(lips)
        if isinstance(self.domain, SphereDomain):
            W, _ = _sphere_grid(17, 33)
            g = max(np.linalg.norm(self._gradient(w)) for w in W)
            lip = 1.25 * g + 1e-12
            return (lip, lip)
        if isinstance(self.domain, SphereCircleDomain):
            W, _ = _sphere_grid(9, 17)
            lip_s = 0.0
            lip_c = 0.0
            for phi in np.linspace(0.0, _TWO_PI, 9, endpoint=False):
                for w in W[::4]:
                    g = self._gradient((w, phi))
                    lip_s = max(lip_s, float(np.linalg.norm(g[:2])))
                    lip_c = max(lip_c, abs(float(g[2])))
            return (1.25 * lip_s + 1e-12, 1.25 * lip_s + 1e-12, 1.25 * lip_c + 1e-12)
        raise DomainError(f"unsupported domain {self.domain!r}")

    # -- geometry of charts

    def _gradient(self, loc):
        """Finite-difference gradient in the local orthonormal chart."""
        h = 1e-6
        f = self._chart_function(loc)
        d = self.domain.dim
        g = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g[i] = (f(e) - f(-e)) / (2 * h)
        return g

    def _chart_function(self, loc):
        """Phase as a function of chart offsets u around loc (normal coords)."""
        if isinstance(self.domain, BoxDomain):
            loc = np.asarray(loc, dtype=float)

            def f(u):
                return float(np.asarray(self.phase((loc + u)[None, :]))[0])

            return f
        if isinstance(self.domain, SphereDomain):
            w0, t1, t2 = _sphere_frame(np.asarray(loc, dtype=float))

            def f(u):
                return float(np.asarray(self.phase(_geodesic(w0, t1, t2, u)[None, :]))[0])

            return f
        if isinstance(self.domain, SphereCircleDomain):
            w_loc, phi0 = loc
            w0, t1, t2 = _sphere_frame(np.asarray(w_loc, dtype=float))

            def f(u):
                w = _geodesic(w0, t1, t2, u[:2])
                return float(np.asarray(self.phase(w[None, :], np.array([phi0 + u[2]])))[0])

            return f
        raise DomainError(f"unsupported domain {self.domain!r}")

    def resolve_nodes(self, mu):
        if not isinstance(self.domain, BoxDomain):
            extents = [math.pi, _TWO_PI, _TWO_PI][:self.domain.dim]
            return tuple(nodes_for(mu, lip, ext) for lip, ext in zip(self.lip, extents))
        extents = [h - l for l, h in zip(self.domain.lo, self.domain.hi)]
        need = tuple(nodes_for(mu, lip, ext) for lip, ext in zip(self.lip, extents))
        if self.domain.nodes is None:
            return need
        got = tuple(self.domain.nodes)
        if any(g < n for g, n in zip(got, need)):
            raise ResolutionError(f"grid {got} under-resolves mu={mu}: need at least {need}")
        return got


def _tangent_frames(W):
    """Orthonormal tangent frames (t1, t2) at the unit vectors W (S, 3)."""
    probe = np.where(np.abs(W[:, [0]]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    t1 = np.cross(W, probe)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(W, t1)


def _sphere_frame(w0):
    w0 = w0 / np.linalg.norm(w0)
    t1, t2 = _tangent_frames(w0[None, :])
    return w0, t1[0], t2[0]


def _geodesic(w0, t1, t2, u):
    r = math.hypot(u[0], u[1])
    if r < 1e-300:
        return w0.copy()
    direction = (u[0] * t1 + u[1] * t2) / r
    return math.cos(r) * w0 + math.sin(r) * direction


# ---------------------------------------------------------------------------
# quadrature

_CHUNK = 1 << 22


def oscillatory_integral(problem, mu):
    dom = problem.domain
    nodes = problem.resolve_nodes(mu)
    if isinstance(dom, BoxDomain):
        axes = []
        weights = []
        for (l, h, n) in zip(dom.lo, dom.hi, nodes):
            t, w = gauss_nodes(int(n))
            axes.append(0.5 * (h + l) + 0.5 * (h - l) * t)
            weights.append(0.5 * (h - l) * w)
        d = dom.dim
        if d == 1:
            X = axes[0][:, None]
            wt = weights[0]
            vals = problem.amplitude(X) * np.exp(1j * mu * np.asarray(problem.phase(X)))
            return complex(pairwise_sum(np.ravel(vals * wt)))
        total = 0.0 + 0.0j
        # slab over the first axis so tensor grids stay within memory
        inner_mesh = np.meshgrid(*axes[1:], indexing="ij")
        inner_w = weights[1]
        for wgt in weights[2:]:
            inner_w = np.multiply.outer(inner_w, wgt)
        inner_pts = np.stack([m.ravel() for m in inner_mesh], axis=-1)
        inner_w = inner_w.ravel()
        rows_per_slab = max(1, _CHUNK // max(1, inner_pts.shape[0]))
        for start in range(0, len(axes[0]), rows_per_slab):
            xs = axes[0][start : start + rows_per_slab]
            X = np.concatenate(
                [
                    np.repeat(xs, inner_pts.shape[0])[:, None],
                    np.tile(inner_pts, (len(xs), 1)),
                ],
                axis=1,
            )
            wt = np.multiply.outer(weights[0][start : start + rows_per_slab], inner_w).ravel()
            vals = problem.amplitude(X) * np.exp(1j * mu * np.asarray(problem.phase(X)))
            total += complex(pairwise_sum(np.ravel(vals * wt)))
        return total
    if isinstance(dom, SphereDomain):
        W, wt = _sphere_grid(*nodes)
        amp = 1.0 if problem.amplitude is None else np.asarray(problem.amplitude(W))
        vals = amp * np.exp(1j * mu * np.asarray(problem.phase(W)))
        return complex(pairwise_sum(np.ravel(vals * wt)))
    if isinstance(dom, SphereCircleDomain):
        n_pol, n_az, n_circ = nodes
        W, wt = _sphere_grid(n_pol, n_az)
        total = 0.0 + 0.0j
        phis = np.arange(n_circ) * (_TWO_PI / n_circ)
        for phi in phis:
            pv = np.full(W.shape[0], phi)
            amp = 1.0 if problem.amplitude is None else np.asarray(problem.amplitude(W, pv))
            vals = amp * np.exp(1j * mu * np.asarray(problem.phase(W, pv)))
            total += complex(pairwise_sum(np.ravel(vals * wt)))
        return total / n_circ
    raise DomainError(f"unsupported domain {dom!r}")


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


def _chart_hessian(f, dim, scale):
    h = 1e-4 * (1.0 + scale)
    H = np.empty((dim, dim))
    f0 = f(np.zeros(dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h
        H[i, i] = (f(ei) - 2.0 * f0 + f(-ei)) / (h * h)
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)
            ) / (4.0 * h * h)
    return H


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
    if problem.amplitude is None:
        return 1.0
    if isinstance(problem.domain, SphereCircleDomain):
        w, phi = loc
        return complex(
            np.asarray(problem.amplitude(np.asarray(w, dtype=float)[None, :], np.array([phi])))[0]
        )
    return complex(np.asarray(problem.amplitude(np.asarray(loc, dtype=float)[None, :]))[0])


def _loc_scale(problem, loc):
    if isinstance(problem.domain, BoxDomain):
        return float(np.linalg.norm(np.asarray(loc, dtype=float)))
    return 1.0


def stationary_expansion(problem):
    if not problem.critical:
        raise DomainError("stationary_expansion needs a declared critical set")
    kind = problem.critical[0]
    n = problem.domain.dim
    comps = []
    if kind == "points":
        for loc in problem.critical[1]:
            f = problem._chart_function(loc)
            H = _chart_hessian(f, n, _loc_scale(problem, loc))
            comps.append(_component_from_hessian(H, f(np.zeros(n)), _amp_at(problem, loc), 0, loc))
        return SPExpansion(n, tuple(comps))
    if kind == "curve":
        _, param, (t0, t1), closed = problem.critical
        if not isinstance(problem.domain, BoxDomain):
            raise DomainError("curve-type critical sets are supported on box domains")
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
            f = problem._chart_function(loc)
            H = _chart_hessian(f, n, _loc_scale(problem, loc))
            # the line element speed * dt rides on the amplitude
            comps.append(_component_from_hessian(
                H, f(np.zeros(n)), _amp_at(problem, loc) * speed * dt, 1, loc, transversal=basis))
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
    alpha = np.linspace(-0.97, 0.97, n_pol)
    st = np.sqrt(1 - alpha**2)
    phis = np.arange(n_az) * (_TWO_PI / n_az)
    W = np.empty((n_pol, n_az, 3))
    W[..., 0] = st[:, None] * np.cos(phis)[None, :]
    W[..., 1] = st[:, None] * np.sin(phis)[None, :]
    W[..., 2] = alpha[:, None] * np.ones((1, n_az))
    W = np.concatenate([W.reshape(-1, 3), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
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

