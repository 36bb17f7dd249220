"""One contract every manifold passes: the Peter-Weyl identities of the
circle's isotypic decomposition, read through the basis layer.

Each clause returns its worst error over every label at five points of the
manifold, given the basis and its full diagonal in closed form (None: the
sum of |e_j(x)|^2 over the modes).  Clauses 1 and 5 integrate over the
meridian: to rounding on the analytic bases, by the trapezoid on a profile,
which does not follow the basis grid (cluster_lp_norm's open-profile bias),
so a profile bounds those two by its measured errors.  Clause 8 instead
counts the reads that break the manifold's point rule at probes off the
manifold.  A manifold joins the contract by one line of BASES (and a new
class of manifold by one line of OFF_POINTS).
"""
import dataclasses
import functools
import math

import numpy as np
import pytest

from equiweyl import eigensolve, geometry, spectral, weylcoef
from equiweyl.errors import InvalidPointError
from equiweyl.util import pairwise_sum

# the bound of every clause that holds to rounding (worst measured 3.7e-15)
ROUNDING = 1e-13


def _addition_theorem(lam):
    return (eigensolve.sphere_k_max(lam) + 1) ** 2 / (4 * math.pi)


def _profile(profile):
    return lambda: eigensolve.surface_of_revolution_basis(profile(), 3, 4, 200)


# name: (the basis, its full diagonal in closed form, the bounds it sets
# instead of ROUNDING, each 1.3 to 2 times its measured value)
BASES = {
    "sphere": (lambda: eigensolve.sphere_basis(200.0), _addition_theorem, {}),
    "torus": (lambda: eigensolve.torus_basis(500.0), None, {}),
    # measured 1.9e-3 and 1.0e-3, at the zonal modes' poles
    "sphere-profile": (_profile(geometry.sphere_profile), None,
                       {"orthonormal": 2.5e-3, "counted": 1.5e-3}),
    # measured 6.5e-4 and 1.0e-5
    "torus-profile": (_profile(geometry.torus_profile), None,
                      {"orthonormal": 1e-3, "counted": 2e-5}),
}


@functools.cache
def _basis(name):
    return BASES[name][0]()


def _labels(basis):
    return np.unique(basis.m).tolist()


def _diag(basis, m, x):
    rsf = spectral.ReducedSpectralFunction(basis, m)
    return spectral.reduced_spectral_diag(rsf, x, basis.lambda_max)


def _error(got, want):
    return abs(got - want) / max(1.0, abs(want))


def _meridian(basis):
    return basis.manifold._meridian(math.sqrt(basis.lambda_max), 2)


def _act(basis, x, t, xi=None):
    return geometry.rotate_cotangent(basis.manifold, x, np.zeros_like(x) if xi is None else xi, t)


def _points(basis):
    """The meridian's ends and three points between them, point i moved
    off the meridian by the group parameter (2i + 1) / 10 of a turn."""
    _, _, ends, to_points = _meridian(basis)
    moves = basis.manifold._group_nodes(10)[1::2]
    return [_act(basis, x, t)[0] for x, t in zip(to_points(np.linspace(*ends, 5)), moves)]


def orthonormal(basis, _):
    """1. Each label's modes, all of them, are orthonormal under the
    manifold's own meridian rule _meridian(sqrt(lambda), 2)."""
    nodes, weights, _, to_points = _meridian(basis)
    worst = 0.0
    for m in _labels(basis):
        e = basis.evaluate(to_points(nodes), np.flatnonzero(basis.m == m))
        worst = max(worst, np.max(np.abs((e.conj() * weights) @ e.T - np.eye(len(e))), initial=0))
    return worst


def invariant(basis, _):
    """2. Each label's diagonal is unchanged at the point's images under
    every group parameter of the average, spectral._group_nodes."""
    worst = 0.0
    for x in _points(basis):
        moved = [_act(basis, x, t)[0] for t in spectral._group_nodes(basis)]
        for m in _labels(basis):
            want = _diag(basis, m, x)
            worst = max([worst] + [_error(_diag(basis, m, y), want) for y in moved])
    return worst


def complete(basis, diagonal):
    """3. The labels' diagonals sum to the full diagonal."""
    rows = np.flatnonzero(basis.eigenvalues <= basis.lambda_max)
    return max(_error(sum(_diag(basis, m, x) for m in _labels(basis)),
                      diagonal(basis.lambda_max) if diagonal
                      else float(np.sum(np.abs(basis.evaluate(x, rows)) ** 2)))
               for x in _points(basis))


def averaged(basis, _):
    """4. The trivial label's diagonal, kuznecov_sum, is the literal group
    average, kuznecov_sum_by_rotation."""
    return max(_error(spectral.kuznecov_sum(basis, x, basis.lambda_max),
                      spectral.kuznecov_sum_by_rotation(basis, x, basis.lambda_max))
               for x in _points(basis))


def counted(basis, _):
    """5. Each label's count is its diagonal integrated by the meridian
    rule, the error counted a mode.  The diagonal at every node comes from
    one evaluation, summed row by row as reduced_spectral_diag sums one
    point: bit for bit its value at each node, at a fraction of the cost."""
    nodes, weights, _, to_points = _meridian(basis)
    lam, worst = basis.lambda_max, 0.0
    for m in _labels(basis):
        densities = spectral._densities(basis.evaluate(to_points(nodes), basis.label_rows(m, lam)))
        count = spectral.counting_function(spectral.ReducedSpectralFunction(basis, m), lam)
        worst = max(worst, abs(float(weights @ pairwise_sum(densities.T)) - count) / max(1, count))
    return worst


def fixed(basis, _):
    """6. A label's diagonal is 0 where its multiplicity [pi_m|G_x : 1] is 0."""
    return max([0.0] + [abs(_diag(basis, m, x)) for x in _points(basis) for m in _labels(basis)
                        if geometry.orbit_data(basis.manifold, x).trivial_multiplicity(m) == 0])


def lifted(basis, _):
    """7. The lifted action keeps the momentum pairing and the lifted orbit
    volume: of four fiber-slice rows plus multiples of the orbit direction
    (a central difference of the action, 0 at a fixed point), under every
    group parameter of the average."""
    man, worst = basis.manifold, 0.0
    h = 1e-5 * man._group_nodes(2)[1]
    for x in _points(basis):
        along = geometry.orbit_data(man, x).kappa_x * (_act(basis, x, h)[0] - _act(basis, x, -h)[0])
        rows = geometry.cosphere_fiber_slice(man, x, 4)[0][:4]
        for xi in rows + np.multiply.outer([0.0, 0.35, -0.65, 1.05], along / h):
            for y, eta in (_act(basis, x, t, xi) for t in spectral._group_nodes(basis)):
                worst = max(worst, _error(geometry.momentum_pairing(man, y, eta),
                                          geometry.momentum_pairing(man, x, xi)),
                            _error(geometry.lifted_orbit_volume(man, y, eta),
                                   geometry.lifted_orbit_volume(man, x, xi)))
    return worst


# each class of manifold's probes beside a point x of it: (probe, the point
# whose reads the probe gives, or None where every read raises).  s +- L is
# exact at the contract's point s = L/4 of the torus profile, L = pi.
OFF_POINTS = {
    geometry.RoundSphere2: lambda man, x: [([0.0, 0.0, 5.0], None), ([2.0, 0.0, 0.0], None)],
    geometry.FlatTorus2: lambda man, x: [],
    geometry.SurfaceOfRevolution: lambda man, x: (
        [((x[0] + man.length, x[1]), x), ((x[0] - man.length, x[1]), x)] if man.closed
        else [((-1.0, x[1]), None), ((man.length + 1.0, x[1]), None)]),
}


def _reads(basis, x, xi):
    """What both layers read at x, each as bytes or InvalidPointError: the
    basis's values, the diagonals of a label with modes up to lambda_max and
    of one without, the orbit data, the lifted volumes of the rows xi and
    the local coefficient."""
    man = basis.manifold
    reads = (lambda: basis.evaluate(x), lambda: _diag(basis, 0, x),
             lambda: _diag(basis, int(np.max(basis.m)) + 1, x),
             lambda: dataclasses.astuple(geometry.orbit_data(man, x)),
             lambda: geometry.lifted_orbit_volume(man, x, xi),
             lambda: dataclasses.astuple(weylcoef.local_leading_coefficient(man, x, 0)))
    out = []
    for read in reads:
        try:
            out.append(np.asarray(read()).tobytes())
        except InvalidPointError:
            out.append(InvalidPointError)
    return out


def point_rule(basis, _):
    """8. Both layers read the manifold's point rule alike: at a non-finite
    coordinate or off the manifold every read raises InvalidPointError, and
    a closed profile reads s +- L as s.  The number of reads that break it."""
    man, x = basis.manifold, _points(basis)[1]
    xi = geometry.cosphere_fiber_slice(man, x, 4)[0][:4]
    nan, inf = np.array(x), np.array(x)
    nan[0], inf[-1] = math.nan, math.inf
    off = next(OFF_POINTS[cls] for cls in type(man).__mro__ if cls in OFF_POINTS)
    broken = 0
    for probe, want in [(nan, None), (inf, None)] + off(man, x):
        got = _reads(basis, probe, xi)
        expected = [InvalidPointError] * len(got) if want is None else _reads(basis, want, xi)
        broken += sum(g != e for g, e in zip(got, expected))
    return broken


CLAUSES = {f.__name__: f for f in (orthonormal, invariant, complete, averaged, counted, fixed,
                                    lifted, point_rule)}


@pytest.mark.parametrize("clause", CLAUSES)
@pytest.mark.parametrize("name", BASES)
def test_contract(name, clause):
    _, diagonal, bounds = BASES[name]
    assert CLAUSES[clause](_basis(name), diagonal) <= bounds.get(clause, ROUNDING)


def test_every_manifold_joins_the_contract():
    # a class of geometry with orbits is a manifold: some basis of BASES lives on it
    manifolds = {cls for cls in vars(geometry).values()
                 if isinstance(cls, type) and "_orbit" in vars(cls)}
    joined = {cls for name in BASES for cls in type(_basis(name).manifold).__mro__}
    assert manifolds and sorted(cls.__name__ for cls in manifolds - joined) == []


class _MovedHaarNode(geometry.RoundSphere2):
    """The round sphere whose group average moves one of its nodes."""

    def _group_nodes(self, n):
        t = super()._group_nodes(n)
        t[1] += 0.1
        return t


class _TiltedAxis(geometry.RoundSphere2):
    """The round sphere turning about the x-axis, not its labels' z-axis."""

    def _act(self, x, xi, t):
        # the z-turn in the cycled coordinates (y, z, x)
        y, eta = super()._act(np.roll(x, -1), np.roll(xi, -1), t)
        return np.roll(y, 1), np.roll(eta, 1)


def _with_character(label, m):
    """The break that evaluates the label's degree-1 mode as Y_{1,m}."""

    def breaks(basis):
        quantum = basis.quantum.copy()
        quantum[(basis.m == label) & (quantum[:, 0] == 1), 1] = m
        return dataclasses.replace(basis, quantum=quantum)

    return breaks


# each break of a small round sphere, and the clauses it fails: one moved
# Haar node, an action about the wrong axis, and a degree-1 mode given
# another label's character
BROKEN = {
    "moved-haar-node": (lambda basis: dataclasses.replace(basis, manifold=_MovedHaarNode()),
                        {"averaged"}),
    "tilted-axis": (lambda basis: dataclasses.replace(basis, manifold=_TiltedAxis()),
                    {"invariant", "averaged", "lifted"}),
    "label-0-mode-as-m-1": (_with_character(0, 1), {"orthonormal", "complete", "averaged"}),
    "label-1-mode-as-m-0": (_with_character(1, 0),
                            {"orthonormal", "complete", "averaged", "fixed"}),
}


@pytest.mark.parametrize("name", BROKEN)
def test_a_broken_manifold_fails_the_contract(name):
    breaks, fails = BROKEN[name]
    basis = breaks(eigensolve.sphere_basis(30.0))
    assert {clause for clause, measure in CLAUSES.items()
            if not measure(basis, _addition_theorem) <= ROUNDING} == fails
