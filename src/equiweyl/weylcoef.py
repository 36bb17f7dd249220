"""Predicted leading coefficients of the reduced local and global Weyl laws.

The local coefficient at x is a quadrature over the unit-ball slice of the
annihilator fiber, weighting each node by the reciprocal lifted-orbit volume:

    coefficient = [pi|G_x : 1] / (2 pi)^(n - kappa_x)
                  * sum_i w_i / vol(lifted orbit through (x, xi_i))

and multiplies lambda^((n - kappa_x)/opDegree).  The global coefficient is
the x-integral of local coefficients over the principal stratum (quadrature
nodes never land on singular orbits).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrabilityWarning, StratumContributionWarning
from .geometry import (
    FlatTorus2,
    FlatTorus2FiniteCyclic,
    RoundSphere2,
    SurfaceOfRevolution,
    as_label,
    cosphere_fiber_slice,
    lifted_orbit_volume,
    orbit_data,
    sphere_point,
)
from .util import gauss_nodes, pairwise_sum

# Gauss nodes of each fiber slice, and of the x-integral of the global
# coefficient (doubled once to check the x-quadrature)
_FIBER_NODES = 64
_X_NODES = 64


@dataclass(frozen=True)
class WeylPrediction:
    coefficient: float
    exponent: float

    def evaluate(self, lam):
        return self.coefficient * lam**self.exponent


def local_leading_coefficient(manifold, x, label):
    label = as_label(label)
    od = orbit_data(manifold, x)
    n = manifold.dim
    kappa = od.kappa_x
    exponent = (n - kappa) / manifold.operator_degree
    mult = od.trivial_multiplicity(label)
    if mult == 0.0:
        return WeylPrediction(0.0, exponent)
    if kappa == 0 and od.isotropy == "full group":
        warnings.warn(
            "reciprocal orbit volume is singular at the zero covector; "
            "polar nodes avoid it and the integrand stays integrable",
            IntegrabilityWarning,
        )
    nodes = cosphere_fiber_slice(manifold, x, _FIBER_NODES)
    vals = np.array([pt.weight / lifted_orbit_volume(manifold, pt) for pt in nodes])
    total = float(pairwise_sum(vals))
    coeff = mult / (2.0 * math.pi) ** (n - kappa) * total
    return WeylPrediction(coeff, exponent)


def equator_coefficient_closed_form(theta):
    """Reference value of the sphere local coefficient at colatitude theta.

    Closed form of the fiber integral with the embedded lifted-orbit length
    2 pi sqrt(sin^2 theta + c^2 cos^2 theta); reduces to 1/(2 pi^2) on the
    equator.
    """
    if not 0 < theta <= math.pi / 2:
        raise DomainError("theta must lie in (0, pi/2]")
    c = math.cos(theta)
    if c < 1e-12:
        return 1.0 / (2.0 * math.pi**2)
    return math.asinh(c / math.sin(theta)) / (2.0 * math.pi**2 * c)


def _sphere_global(label):
    man = RoundSphere2()
    alpha, w = gauss_nodes(_X_NODES)

    def integral(a_nodes, a_w):
        vals = []
        for a in a_nodes:
            theta = math.acos(float(a))
            pred = local_leading_coefficient(man, sphere_point(theta), label)
            vals.append(pred.coefficient)
        return 2.0 * math.pi * float(pairwise_sum(np.asarray(vals) * a_w))

    total = integral(alpha, w)
    a2, w2 = gauss_nodes(2 * _X_NODES)
    refined = integral(a2, w2)
    if abs(refined - total) > 1e-3 * max(abs(refined), 1e-300):
        warnings.warn(
            "x-quadrature shift above 0.1% under refinement; singular-orbit "
            "neighborhoods may be under-resolved",
            StratumContributionWarning,
        )
    return refined


def _torus_global(manifold, label):
    # both actions are free translations, so the local coefficient does not
    # depend on x and its integral over the unit-area torus is its value
    return local_leading_coefficient(manifold, [0.5, 0.5], label).coefficient


def _sor_global(profile, label):
    t, w = gauss_nodes(_X_NODES)
    s_nodes = 0.5 * (t + 1.0) * profile.length
    w_s = 0.5 * profile.length * w
    vals = []
    for s, ws in zip(s_nodes, w_s):
        pred = local_leading_coefficient(profile, [s, 0.0], label)
        r = float(profile.r(s))
        vals.append(2.0 * math.pi * r * ws * pred.coefficient)
    return float(pairwise_sum(np.array(vals)))


def global_leading_coefficient(manifold, label):
    label = as_label(label)
    if isinstance(manifold, RoundSphere2):
        return _sphere_global(label)
    if isinstance(manifold, (FlatTorus2, FlatTorus2FiniteCyclic)):
        return _torus_global(manifold, label)
    if isinstance(manifold, SurfaceOfRevolution):
        return _sor_global(manifold, label)
    raise DomainError(f"unsupported manifold {manifold!r}")
