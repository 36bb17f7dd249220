"""Fully normalized associated Legendre functions and spherical harmonics,
numerically stable up to degree 2000."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, IndexRangeError, ResourceLimitError

DEGREE_LIMIT = 2000
_LOG_4PI = math.log(4.0 * math.pi)
# exp underflows to 0.0 a bit below -745; seeds smaller than this are flushed
_LOG_TINY = -744.0

# cumulative log prod_{j<=m} (2j-1)/(2j) for m = 0 .. DEGREE_LIMIT, summed in
# j order (every seed depends on these bits) and built once at import, so
# every ladder reads the same table and none fills it
_LOG_HALF_FACT = tuple(itertools.accumulate(
    (math.log((2 * j - 1) / (2 * j)) for j in range(1, DEGREE_LIMIT + 1)), initial=0.0))


def _check_alpha(alpha):
    a = np.asarray(alpha, dtype=float)
    # a NaN fails every comparison, so it is refused by failing this one
    if not np.all(np.abs(a) <= 1.0):
        raise DomainError("alpha outside [-1, 1] is not a valid cos(theta)")
    return a


def _check_degree(k):
    if k < 0:
        raise IndexRangeError(f"degree k={k} must be nonnegative")
    if k > DEGREE_LIMIT:
        raise ResourceLimitError(f"degree k={k} exceeds supported limit {DEGREE_LIMIT}")


def _seed_log(m, sin2):
    # log |P̄_{m,m}| with sin2 = 1 - alpha^2 = sin^2(theta); the m = 0 seed
    # has no sin factor, and sin2 = 0 with m > 0 must flush to -inf, not nan
    const = 0.5 * (math.log(2 * m + 1) - _LOG_4PI + _LOG_HALF_FACT[m])
    if m == 0:
        return np.full_like(sin2, const)
    with np.errstate(divide="ignore"):
        return const + 0.5 * m * np.log(sin2)


def assoc_ladder(m, k_max, alpha, degrees=None):
    """Fully normalized P̄_{k,m}(alpha) = sqrt((2k+1)/(4pi) (k-m)!/(k+m)!)
    P_{k,m}(alpha), Condon-Shortley sign included, for k = |m| .. k_max, or
    for the k in degrees (any order, repeats allowed).

    Returns an array of shape (rows,) + alpha.shape, one row per degree.  The
    seed is computed in the log domain so sin(theta)^m underflows cleanly to
    zero instead of overflowing intermediates; the upward recurrence
    coefficients are all O(1).  The recurrence holds two rows, so asking for
    a few degrees allocates only those rows.
    """
    m = int(m)
    k_max = int(k_max)
    _check_degree(k_max)
    if abs(m) > k_max:
        raise IndexRangeError(f"|m|={abs(m)} exceeds k_max={k_max}")
    a = _check_alpha(alpha)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    am = abs(m)
    if degrees is None:
        deg = range(am, k_max + 1)
    else:
        deg = np.asarray(degrees, dtype=int).ravel().tolist()
    # the first row of each degree; a repeated degree is copied at the end
    slot = {}
    for i, d in enumerate(deg):
        if not am <= d <= k_max:
            raise IndexRangeError(f"degree {d} outside |m|={am} .. k_max={k_max}")
        slot.setdefault(d, i)
    sin2 = np.clip(1.0 - a * a, 0.0, 1.0)

    lg = _seed_log(am, sin2)
    seed = np.where(lg > _LOG_TINY, np.exp(lg), 0.0)
    sign = -1.0 if (am % 2) else 1.0
    p_km = sign * seed  # P̄_{am,am}, Condon-Shortley included
    out = np.empty((len(deg),) + a.shape)
    if am in slot:
        out[slot[am]] = p_km
    if a.size == 1:
        # one point runs on Python floats: the same IEEE steps, without
        # numpy's per-call cost, which is most of a one-element step
        x, p_km, p_prev = float(a[0]), float(p_km[0]), 0.0
    else:
        x, p_prev = a, np.zeros_like(a)
    for k in range(am, k_max):
        A = math.sqrt((2 * k + 1) * (2 * k + 3) / ((k + 1 - am) * (k + 1 + am)))
        if k == am:
            B = 0.0
        else:
            B = math.sqrt((2 * k + 3) * (k - am) * (k + am) / ((2 * k - 1) * (k + 1 - am) * (k + 1 + am)))
        # A a p - B p_prev: one fresh row, the rest in place (p_prev is
        # dropped after this step, and out holds copies)
        step = A * x
        step *= p_km
        p_prev *= B
        step -= p_prev
        p_km, p_prev = step, p_km
        if k + 1 in slot:
            out[slot[k + 1]] = p_km
    if len(slot) < len(deg):
        out[:] = out[[slot[d] for d in deg]]
    if m < 0:
        out *= -1.0 if (am % 2) else 1.0
    return out[:, 0] if scalar else out


def spherical_harmonic(k, m, theta, phi):
    """Y_{k,m}(theta, phi) = P̄_{k,m}(cos theta) e^{i m phi}."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta={theta} outside [0, pi]")
    pbar = float(assoc_ladder(m, k, math.cos(theta), degrees=[k])[0])
    return pbar * complex(math.cos(m * phi), math.sin(m * phi))

