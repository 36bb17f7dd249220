"""Predicted leading coefficients of the reduced local and global Weyl laws.

The local coefficient at x is a quadrature over the unit-ball slice of the
annihilator fiber, weighting each node by the reciprocal lifted-orbit volume:

    coefficient = [pi|G_x : 1] / (2 pi)^(n - kappa_x)
                  * sum_i w_i / vol(lifted orbit through (x, xi_i))

and multiplies lambda^((n - kappa_x)/opDegree).  The global coefficient is
the x-integral of local coefficients over the orbit space, by each
manifold's own rule (quadrature nodes never land on singular orbits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .util import pairwise_sum

# Gauss nodes of each fiber slice
_FIBER_NODES = 64
# every model surface is two-dimensional and the Laplacian has order 2
_DIM = 2
_OPERATOR_DEGREE = 2


@dataclass(frozen=True)
class WeylPrediction:
    coefficient: float
    exponent: float

    def evaluate(self, lam):
        return self.coefficient * lam**self.exponent


def local_leading_coefficient(manifold, x, label):
    x = manifold._point(x)  # checked once: the manifold's methods below take it as it is
    od = manifold._orbit(x)
    kappa = od.kappa_x
    exponent = (_DIM - kappa) / _OPERATOR_DEGREE
    mult = od.trivial_multiplicity(label)
    if mult == 0.0:
        return WeylPrediction(0.0, exponent)
    xi, w = manifold._fiber_slice(x, _FIBER_NODES)
    total = float(pairwise_sum(w / manifold._lifted_length(x, xi)))
    return WeylPrediction(mult / (2.0 * math.pi) ** (_DIM - kappa) * total, exponent)


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


def global_leading_coefficient(manifold, label):
    return manifold._global_coefficient(
        lambda x: local_leading_coefficient(manifold, x, label).coefficient)
