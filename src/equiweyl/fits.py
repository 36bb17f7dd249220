"""Power-law fits of measured series: log-log least squares and the
per-bin envelope maxima of oscillating series that feed them."""

from __future__ import annotations

import math
import numpy as np

from .errors import DegenerateDataError, DomainError


def fit_power_law(xs, ys):
    """Least squares of log y on log x, as the report dict {slope,
    intercept, r_squared, grid}.  Demands positive, nonconstant data on a
    strictly increasing grid of at least 5 points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DomainError("fit_power_law needs two equal-length 1d arrays")
    if len(xs) < 5:
        raise DomainError(f"need at least 5 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateDataError("power-law fit needs strictly positive data")
    if np.any(np.diff(xs) <= 0):
        raise DegenerateDataError("abscissa must be strictly increasing")
    lx = np.log(xs)
    ly = np.log(ys)
    if np.ptp(lx) < 1e-300 or np.ptp(ly) == 0.0:
        raise DegenerateDataError("constant data cannot pin a power law")
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly - ly.mean()) / np.dot(vx, vx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot
    return {"slope": slope, "intercept": intercept, "r_squared": max(0.0, min(1.0, r2)),
            "grid": xs.tolist()}


def envelope_maxima(mu, vals):
    """Per-bin maxima of an oscillating series on a geometric mu grid.

    Bin edges are spread geometrically from mu[0] to mu[-1] with ratio as
    close to sqrt(2) as fits evenly, so no bin is a stub with a single
    (possibly near-null) sample."""
    mu = np.asarray(mu, dtype=float)
    vals = np.asarray(vals, dtype=float)
    span = mu[-1] / mu[0]
    n_bins = max(1, int(round(math.log(span) / math.log(math.sqrt(2.0)))))
    edges = mu[0] * span ** (np.arange(n_bins + 1) / n_bins)
    out_mu, out_v = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (mu >= lo * (1 - 1e-12)) & (mu <= hi * (1 + 1e-12))
        if np.any(sel):
            i = int(np.argmax(vals[sel]))
            out_mu.append(float(mu[sel][i]))
            out_v.append(float(vals[sel][i]))
    return np.array(out_mu), np.array(out_v)
