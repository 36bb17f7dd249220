"""Numerical experiments on spectral asymptotics under group symmetry.

Model manifolds (round sphere, flat torus, surfaces of revolution) carry
circle or finite-cyclic actions; the package measures reduced spectral
functions, counting asymptotics, eigenfunction concentration, cluster
L^p growth, and the oscillatory-integral machinery behind them, and
compares each against closed-form or independently derived predictions.
"""

# lab, the experiment harness, is loaded by cli, its only importer
from . import (  # noqa: F401
    cli,
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
from .fits import PowerLawFit, fit_power_law  # noqa: F401

__version__ = "0.1.0"
