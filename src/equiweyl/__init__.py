"""Numerical experiments on spectral asymptotics under group symmetry.

Model manifolds (round sphere, flat torus, surfaces of revolution) carry
circle actions; the package measures reduced spectral functions, counting
asymptotics, eigenfunction concentration, cluster L^p growth, and the
oscillatory-integral machinery behind them, and compares each against
closed-form or independently derived predictions.
"""

# cli, and lab below it, load when asked for (the equiweyl script, python -m
# equiweyl, an import): python -m equiweyl.cli warns if cli is loaded already
from . import (  # noqa: F401
    eigensolve,
    errors,
    fits,
    geometry,
    specfun,
    spectral,
    statphase,
    util,
    weylcoef,
)
from .errors import EquiweylError  # noqa: F401
from .fits import fit_power_law  # noqa: F401

__version__ = "0.1.0"
