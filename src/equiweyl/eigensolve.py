"""Truncated Laplace eigenbases compatible with the circle's isotypic
decomposition.

A basis is a set of arrays, one entry per mode, with one batched evaluator,
EigenBasis.evaluate(points, modes) -> values of shape (modes, points).
Analytic bases cover the round sphere and the flat torus.  For surfaces of
revolution, each Fourier mode m gives a radial Sturm-Liouville problem
  -(1/r)(r u')' + (m^2/r^2) u = lambda u      (weight r ds)
discretized in flux form on cell centers; the substitution w = sqrt(r) u
turns it into a plain symmetric tridiagonal problem (periodic wrap for
closed profiles).  The Fourier blocks share the grid, the off-diagonal and
the corner and differ only in the m^2/r^2 term of the diagonal, so all of
them are solved together: one Sturm-sequence multisection whose every sweep
counts the shifts of all blocks in one row loop, then one batched inverse
iteration over all their columns.
The flux form keeps constants exactly harmonic for m = 0.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import (
    ConvergenceError,
    DomainError,
    ResourceLimitError,
    TruncationError,
)
from .geometry import FlatTorus2, RoundSphere2
from .util import _FLOAT_FORMAT, format_float


@dataclass(frozen=True)
class IsotypicLabel:
    """Circle-action Fourier index m."""

    m: int


@dataclass(frozen=True)
class EigenMode:
    """One mode: a view of entry `index` of its basis's arrays."""

    basis: EigenBasis = field(repr=False)
    index: int

    eigenvalue = property(lambda self: float(self.basis.eigenvalues[self.index]))
    label = property(lambda self: IsotypicLabel(int(self.basis.m[self.index])))
    quantum = property(lambda self: tuple(self.basis.quantum[self.index].tolist()))

    def evaluator(self, x):
        return complex(self.basis.evaluate(x, self.index)[0, 0])


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """A truncated eigenbasis as arrays sorted by (eigenvalue, m, quantum).

    m: the label, the circle's Fourier index.
    quantum: (k, m) sphere, (k1, k2) torus, (m, j) surface of revolution.
    radial: values at the cell centers (i - 1/2) L/n plus one node past each
    end: the wrapped neighbour if closed, else the profile's end, valued as
    the nearest center for m = 0 and 0 otherwise.
    """

    manifold: object
    eigenvalues: np.ndarray
    m: np.ndarray
    quantum: np.ndarray
    lambda_max: float
    radial: np.ndarray | None = field(default=None, repr=False)

    @property
    def grid(self):
        """(cell centers,) for discrete bases, () for analytic ones."""
        return () if self.radial is None else (tuple(self._interpolation[2][1:-1]),)

    @property
    def modes(self):
        # not cached: basis and views would form a cycle only full GC passes free
        return tuple(EigenMode(self, i) for i in range(len(self.eigenvalues)))

    def label_rows(self, m, lam):
        """The rows of the modes in the isotypic component of the label m
        with eigenvalue <= lam, ascending: a prefix of the label's rows."""
        rows, _, k = self._label(m, lam)
        return rows[:k]

    def _label(self, m, lam):
        """The label's rows, its values node-major, (nodes, label modes), on a
        discrete basis (else None), and how many have eigenvalue <= lam; built
        on the label's first read, so the blocks of all labels hold radial once."""
        if m not in self._labels:
            rows = np.flatnonzero(self.m == m)
            block = None if self.radial is None else np.ascontiguousarray(self.radial[rows].T)
            self._labels[m] = rows, block, self.eigenvalues[rows].tolist()
        rows, block, eigenvalues = self._labels[m]
        # bisect_right is searchsorted(side="right") on a list, minus a numpy call
        return rows, block, bisect.bisect_right(eigenvalues, lam)

    @functools.cached_property
    def _labels(self):
        return {}  # label -> (rows, block, eigenvalues as a list), filled as labels are read

    def require(self, lam):
        if math.isnan(lam):  # nan compares false, so it would pass as every lambda
            raise DomainError(f"lambda={lam} is not a number")
        if lam > self.lambda_max:
            raise TruncationError(
                f"query at lambda={lam} exceeds basis truncation {self.lambda_max}"
            )

    def evaluate(self, points, modes=None):
        """Values, shape (modes, points), of the modes (None: all; else an
        index or index array) at one point or a (P, d) array of points, read
        through the manifold's point rule _point (geometry), which raises
        InvalidPointError.  Analytic bases ask the manifold for
        Pbar_{k,m}(cos theta) e^{i m phi} or e^{2 pi i <k, x>}, bit for bit
        the scalar formulas at every height z = cos t (the sphere reads cos
        theta as z, where the formulas take cos(acos(z)); other heights may
        move in the last bit); discrete ones take np.interp over the nodes
        times e^{i m phi}."""
        pts = np.asarray(points, dtype=float)
        rows = (np.arange(len(self.eigenvalues)) if modes is None
                else np.asarray(modes, dtype=np.intp).ravel())
        if self.radial is not None and pts.ndim == 1:
            s, phi = self.manifold._point(pts.tolist())
            radial = self._radial_at(self.radial.T, s, rows)
            return (radial * np.exp(1j * (self.quantum[:, 0][rows] * phi)))[:, None]
        pts = self.manifold._point(pts.reshape(-1, pts.shape[-1]))
        q = self.quantum[rows]
        if self.radial is None:
            return self.manifold._eigenfunctions(q, pts)
        # np.interp's formula: slope * (s - nodes[j]) + value[j], np.diff's slope
        nodes, widths, _, _ = self._interpolation
        s = pts[:, 0]
        j = nodes.searchsorted(s, side="right") - 1
        col = rows[:, None]
        u0, u1 = self.radial[col, j], self.radial[col, np.minimum(j + 1, len(nodes) - 1)]
        radial = (u1 - u0) / widths[j] * (s - nodes[j]) + u0
        return radial * np.exp(1j * np.multiply.outer(q[:, 0], pts[:, 1]))

    def _label_values(self, m, lam, x):
        """evaluate(x, label_rows(m, lam))[:, 0] at one point x, bit for bit,
        x checked even for an empty label; a discrete basis reads two rows of
        the label's block and one phase e^{i m phi}, shared by the label's modes."""
        rows, block, k = self._label(m, lam)
        if not k:
            self.manifold._point(x)
            return np.zeros(0, dtype=complex)
        if block is None:
            return self.evaluate(x, rows[:k])[:, 0]
        s, phi = self.manifold._point(np.asarray(x, dtype=float).tolist())
        return self._radial_at(block, s, slice(k)) * cmath.exp(1j * (m * phi))

    def _radial_at(self, block, s, pick):
        """evaluate's formula at one checked s on Python floats: the interval j
        by bisect, rows j and j + 1 of the node-major block, each cut by pick."""
        _, _, nodes, widths = self._interpolation
        j = bisect.bisect_right(nodes, s) - 1
        u0 = block[j][pick]
        return (block[min(j + 1, len(nodes) - 1)][pick] - u0) / widths[j] * (s - nodes[j]) + u0

    @functools.cached_property
    def _interpolation(self):
        """The nodes of radial and the width of each node interval, inf
        after the last node (a slope of 0 there), as arrays and as lists."""
        prof, n = self.manifold, self.radial.shape[1] - 2
        h = prof.length / n
        s = (np.arange(n) + 0.5) * h
        ends = ([s[0] - h], [s[-1] + h]) if prof.closed else ([0.0], [prof.length])
        nodes = np.concatenate((ends[0], s, ends[1]))
        widths = np.append(np.diff(nodes), np.inf)
        return nodes, widths, nodes.tolist(), widths.tolist()


def _sorted_basis(manifold, eigenvalues, m, quantum, lambda_max, radial=None):
    """The basis, modes in (eigenvalue, m, quantum) order, arrays read-only;
    radial values at the cell centers gain the end nodes EigenBasis describes."""
    quantum = np.asarray(quantum, dtype=np.int64).reshape(-1, 2)
    m, eigenvalues = np.asarray(m, dtype=np.int64), np.asarray(eigenvalues, dtype=float)
    if radial is not None:
        first, last = (-1, 0) if manifold.closed else (0, -1)
        keep = manifold.closed | (m == 0)
        radial = np.column_stack((np.where(keep, radial[:, first], 0.0), radial,
                                  np.where(keep, radial[:, last], 0.0)))
    order = np.lexsort((quantum[:, 1], quantum[:, 0], m, eigenvalues))
    arrays = [None if a is None else a[order] for a in (eigenvalues, m, quantum, radial)]
    for a in filter(lambda a: a is not None, arrays):
        a.setflags(write=False)
    return EigenBasis(manifold, *arrays[:3], float(lambda_max), arrays[3])


# ---------------------------------------------------------------------------
# sphere


def sphere_k_max(lambda_max):
    """Largest k with k(k+1) <= lambda_max, in exact integer arithmetic:
    k(k+1) <= n  iff  (2k+1)^2 <= 4n+1, n = floor(lambda_max)."""
    if lambda_max < 0:
        return -1
    if not math.isfinite(lambda_max):
        raise DomainError(f"lambda={lambda_max} is not finite")
    return (math.isqrt(4 * math.floor(lambda_max) + 1) - 1) // 2


def sphere_basis(lambda_max):
    if lambda_max < 0:
        raise DomainError("lambda_max must be >= 0")
    k_hi = sphere_k_max(lambda_max)
    if k_hi > specfun.DEGREE_LIMIT:
        raise ResourceLimitError(
            f"lambda_max={lambda_max} needs degree {k_hi} > {specfun.DEGREE_LIMIT}"
        )
    # degree k fills entries k^2 .. k^2 + 2k with m = -k .. k
    k = np.repeat(np.arange(k_hi + 1), 2 * np.arange(k_hi + 1) + 1)
    m = np.arange(len(k)) - k * (k + 1)
    return _sorted_basis(RoundSphere2(), k * (k + 1), m, np.column_stack((k, m)), lambda_max)


# ---------------------------------------------------------------------------
# flat torus


def _torus_norm_floor(lam):
    """floor(lam / (4 pi^2)), the lattice bound on |k|^2 for eigenvalues
    4 pi^2 |k|^2 <= lam; a non-finite lam raises DomainError."""
    if not math.isfinite(lam):
        raise DomainError(f"lambda={lam} is not finite")
    return math.floor(lam / (4.0 * math.pi * math.pi))


def torus_basis(lambda_max):
    """The flat torus under the circle of x1 shifts, labels k1."""
    if lambda_max < 0:
        raise DomainError("lambda_max must be >= 0")
    # lambda_max / (4 pi^2) may round below the integer |k|^2 it meets, so the
    # cut-off is the test the count puts to the stored eigenvalues
    R = math.isqrt(_torus_norm_floor(lambda_max)) + 1
    # the lattice holds (2R + 1)^2 entries: at most (DEGREE_LIMIT + 1)^2,
    # the size of the largest sphere_basis
    if 2 * R > specfun.DEGREE_LIMIT:
        raise ResourceLimitError(f"lambda_max={lambda_max} needs a lattice of half-width {R} "
                                 f"> {specfun.DEGREE_LIMIT // 2}")
    k = np.arange(-R, R + 1)
    k1, k2 = np.repeat(k, k.size), np.tile(k, k.size)
    lam = 4.0 * math.pi * math.pi * (k1 * k1 + k2 * k2)
    inside = lam <= lambda_max
    k1, k2, lam = k1[inside], k2[inside], lam[inside]
    return _sorted_basis(FlatTorus2(), lam, k1, np.column_stack((k1, k2)), lambda_max)


# ---------------------------------------------------------------------------
# symmetric (possibly periodic) tridiagonal eigensolver, many blocks at once
#
# A stack of B blocks shares the off-diagonal and the corner and differs only
# in the diagonal, d of shape (n, B); a 1-D d is one block.  Results come
# block by block, each block in ascending order.

_PIVMIN_FLOOR = 1e-290
# _sturm_counts holds a row block's shifted diagonals, under 2^16 doubles
# (512 KiB), and counts more than 2^13 shifts in turns, so that a block
# has at least 7 rows
_ROW_BLOCK_ELEMENTS = 1 << 16
_MAX_BLOCK_SHIFTS = 1 << 13


def _sturm_counts(d, off, corner, shifts, block=None):
    """Number of eigenvalues < shift for each shift, counted against the
    diagonal of its own block (block: a column of d per shift; None: d is
    one block).

    off: subdiagonal (n-1,), corner: wrap entry A[0,n-1] (0 for open chains).
    Counts via LDL pivot signs; the periodic case uses the bordered
    factorization, tracking the fill-in column and the Schur complement of
    the last pivot.  A pivot q with |q| < pivmin is replaced by -pivmin.

    The rows after the first go in row blocks of at most
    _ROW_BLOCK_ELEMENTS shifted diagonals, as LAPACK xLANEG does (Marques,
    Riedy & Vomel 2006): each block runs the recurrence unguarded and in
    place, two ufunc calls a row, then counts its negative pivots at once.
    Where every pivot of the block has |q| >= pivmin the guard is the
    identity, so the block did the guarded recurrence's float operations in
    its order and the counts are its counts bit for bit; any other block (a
    tiny pivot, or an inf or nan after one) runs again, guarded, from the
    pivot before it.  On closed chains the border terms follow from the
    block's final pivots, in block-wide passes that make the row-by-row
    code's float operations in its order.
    """
    d = d.reshape(len(d), -1)
    n = len(d)
    shifts = np.asarray(shifts, dtype=float)
    K = len(shifts)
    if block is None:
        block = np.zeros(K, dtype=np.intp)
    if K > _MAX_BLOCK_SHIFTS:  # the shifts' counts are independent
        return np.concatenate([_sturm_counts(d, off, corner, shifts[j:j + _MAX_BLOCK_SHIFTS],
                                             block[j:j + _MAX_BLOCK_SHIFTS])
                               for j in range(0, K, _MAX_BLOCK_SHIFTS)])
    # the shifts as runs of one block each: a row block's shifted diagonals
    # are one repeat of the runs' columns, bit for bit d[i][block] - shifts
    first = np.ones(K, dtype=bool)
    first[1:] = block[1:] != block[:-1]
    runs = np.flatnonzero(first)
    run_cols, run_lens = block[runs], np.diff(np.append(runs, K))

    def shifted(i0, out):
        np.subtract(np.repeat(d[i0:i0 + len(out), run_cols], run_lens, axis=1), shifts, out=out)
        return out

    pivmin = max(_PIVMIN_FLOOR, 1e-30 * float(np.max(np.abs(off)) ** 2 + 1.0))
    q = shifted(0, np.empty((1, K)))[0]
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0).astype(np.int64)
    osq = (off * off).tolist()
    closed = corner != 0.0
    buf = np.empty(K)
    if closed:
        # bordered: leading (n-1) x (n-1) block is plain tridiagonal; the
        # border column f has entries corner (row 0) and off[n-2] (row n-2)
        ftil = np.full_like(shifts, corner)
        schur = shifted(n - 1, np.empty((1, K)))[0] - ftil * ftil / q
        neg_off = -off[:, None]

    def recur(dsh, i0, q, guard):
        """Rows i0.. of the recurrence after the pivot q, overwriting dsh
        with the pivots."""
        for i, row in enumerate(dsh, i0):
            np.divide(osq[i - 1], q, out=buf)
            np.subtract(row, buf, out=row)
            if guard:
                np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
            q = row

    def border(dsh, i0, q, t):
        """Carry ftil and schur over rows i0.. from their final pivots dsh
        (q: the pivot before them), with t as scratch.  Row by row,
        ftil_i = f_i - (off[i-1] / q_{i-1}) ftil_{i-1} and
        schur -= ftil_i^2 / q_i; negating off before the divide and adding
        f_i after the product round exactly as that subtraction does."""
        np.divide(neg_off[i0 - 1], q, out=t[0])
        np.divide(neg_off[i0:i0 + len(t) - 1], dsh[:-1], out=t[1:])
        np.multiply(t[0], ftil, out=t[0])
        for j in range(1, len(t)):  # multiply.accumulate along rows is slower
            np.multiply(t[j], t[j - 1], out=t[j])
        if i0 + len(t) == n - 1:
            np.add(t[-1], off[n - 2], out=t[-1])
        ftil[:] = t[-1]
        np.multiply(t, t, out=t)
        np.divide(t, dsh, out=t)
        np.subtract(schur, t[0], out=t[0])
        np.subtract.reduce(t, axis=0, out=schur)

    end = n - 1 if closed else n
    # fewer than 2^16 rows, so a block's counts are exact in uint16, whose
    # sum over rows is several times faster than int64's
    rows = max(1, min((_ROW_BLOCK_ELEMENTS - 1) // max(K, 1), end - 1))
    # one set of buffers for every block: fresh ones of this size go back to
    # the system when freed and fault in again, block after block
    pivots, size, neg = np.empty((rows, K)), np.empty((rows, K)), np.empty((rows, K), dtype=bool)
    for i0 in range(1, end, rows):
        r = min(rows, end - i0)
        dsh = shifted(i0, pivots[:r])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            recur(dsh, i0, q, False)
        if not np.min(np.abs(dsh, out=size[:r]), initial=np.inf) >= pivmin:  # also true at a nan
            recur(shifted(i0, dsh), i0, q, True)
        counts += np.add.reduce(np.less(dsh, 0.0, out=neg[:r]), axis=0, dtype=np.uint16)
        if closed:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                border(dsh, i0, q, size[:r])
        q[:] = dsh[-1]
    if closed:
        counts += schur < 0
    return counts


def _gershgorin(d, off, corner):
    """Interval [lo, hi] holding every eigenvalue (Gershgorin discs), per
    block for a 2-D d."""
    rad = np.zeros(len(d))
    rad[:-1] += np.abs(off)
    rad[1:] += np.abs(off)
    if corner != 0.0:
        rad[0] += abs(corner)
        rad[-1] += abs(corner)
    rad = rad.reshape((-1,) + (1,) * (d.ndim - 1))
    return np.min(d - rad, axis=0), np.max(d + rad, axis=0)


class _BlockError(ConvergenceError):
    """A solver failure, naming the first block it occurred in."""

    def __init__(self, message, blocks):
        self.block = int(np.min(blocks))
        super().__init__(f"{message} in block {self.block}")


def _blocks(d, k_want):
    """The (n, B) stack and each wanted eigenvalue's block, block by block."""
    d = d.reshape(len(d), -1)
    k_want = np.broadcast_to(k_want, d.shape[1:])
    too_many = np.flatnonzero(k_want > len(d))
    if too_many.size:
        raise _BlockError(f"asked for {k_want.max()} eigenvalues of an {len(d)}-point grid",
                          too_many)
    return d, np.repeat(np.arange(d.shape[1]), k_want)


# a sweep cuts each unconverged bracket into _SECTIONS pieces, so the cap
# allows an 8^80 = 2^240-fold shrink
_SECTIONS = 8
_MAX_SWEEPS = 80


def _lowest_eigenvalues(d, off, corner, k_want):
    """Lowest k_want eigenvalues of every block (k_want: one count, or one
    per block) by vectorized Sturm multisection, all blocks in one sweep.

    Every sweep cuts each unconverged bracket into _SECTIONS = 8 pieces and
    counts their 7 interior points, across all blocks, in one _sturm_counts
    call (Lo, Philippe & Sameh 1987), so B blocks cost one row loop, not B.
    A sweep over n rows at K shifts costs about a n + b n K: the row blocks
    leave a per-row overhead a, but the count itself grows with K, so a
    bracket cut 8-fold takes twice the sweeps of a 64-fold cut at 1/9 of the
    shifts a sweep (DECISIONS.md, "The multisection cuts each bracket in
    eight").  Eigenvalues of one block that still share a bracket share its
    points; each block starts from its own Gershgorin interval.  Each
    bracket keeps a lower end counted below its target and an upper end
    counted at or above it, so the result never rests on counts being
    monotone in the shift (Demmel, Dhillon & Ren 1995).  A bracket still
    wider than 1e-11 (1 + |mid|) after _MAX_SWEEPS sweeps raises
    ConvergenceError naming its block.
    """
    d, block = _blocks(d, k_want)
    glo, ghi = _gershgorin(d, off, corner)
    lo = (glo - 1e-8)[block]
    hi = (ghi + 1e-8)[block]
    targets = np.arange(1, len(block) + 1) - block.searchsorted(block)
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    for sweep in range(_MAX_SWEEPS + 1):
        tol = 1e-11 * (1.0 + np.abs(0.5 * (lo + hi)))
        active = np.flatnonzero(hi - lo > tol)
        if active.size == 0:
            break
        if sweep == _MAX_SWEEPS:
            raise _BlockError(f"multisection did not converge in {_MAX_SWEEPS} sweeps",
                              block[active])
        # within a block brackets are nested or disjoint, so equal ones sit
        # side by side
        lo_a, hi_a, blk_a = lo[active], hi[active], block[active]
        first = np.ones(active.size, dtype=bool)
        first[1:] = (lo_a[1:] != lo_a[:-1]) | (hi_a[1:] != hi_a[:-1]) | (blk_a[1:] != blk_a[:-1])
        which = np.cumsum(first) - 1
        b_lo, b_hi = lo_a[first], hi_a[first]
        points = b_lo[:, None] + (b_hi - b_lo)[:, None] * frac
        counts = _sturm_counts(d, off, corner, points.ravel(),
                               np.repeat(blk_a[first], _SECTIONS - 1)).reshape(points.shape)
        # j: the first point counted at or above each target (_SECTIONS - 1
        # if none); the new bracket is [point j - 1, point j] with the old
        # ends standing in for points -1 and _SECTIONS - 1
        above = counts[which] >= targets[active][:, None]
        j = np.where(above.any(axis=1), np.argmax(above, axis=1), _SECTIONS - 1)
        ends = np.hstack((lo_a[:, None], points[which], hi_a[:, None]))
        rows = np.arange(active.size)
        lo[active], hi[active] = ends[rows, j], ends[rows, j + 1]
    out = 0.5 * (lo + hi)
    drop = (np.diff(out) < -1e-6 * (1.0 + np.abs(out[:-1]))) & (np.diff(block) == 0)
    if np.any(drop):
        raise _BlockError("multisection produced out-of-order eigenvalues", block[1:][drop])
    return out


def _shifted_solver(d, off, corner, block, shifts, tnorm):
    """Givens QR of T - shift, one column per shift; returns a solve that
    overwrites its rhs b (n, K) with x (n, K).

    Column k is block block[k] of the stack d (n, B) shifted by shifts[k];
    its rows are formed one at a time, d[i][block] - shifts.  tnorm: (K,),
    |T| of each column's block.  An orthogonal factorization
    is backward stable for every shift, so each solve is exact for a matrix
    within a small multiple of eps |T|; the unpivoted LDL^T is not, and on
    closed chains near (double) eigenvalues it loses up to 1e4 eps |T| in
    the residual.  Rows are rotated down one by one; a closed chain's last
    row, which holds the corner, is rotated against each of them in turn.
    R rows 0..n-5 hold columns i, i+1, i+2 and, for closed chains, n-2 and
    n-1 (column i+2 is rebuilt from the rotations in each solve, which saves
    an (n, K) array); the last four rows form a dense 4 x 4 block per shift.  Pivots
    below eps |T| are raised to it, as LAPACK xLAGTS does.  Needs n >= 5.
    """
    n, K = len(d), len(shifts)

    def ds(i):  # row i of the shifted diagonals
        return d[i][block] - shifts

    closed = corner != 0.0
    steps = n - 4
    c1, s1, r0, r1 = (np.empty((steps, K)) for _ in range(4))
    if closed:
        c2, s2, rm, rl = (np.empty((steps, K)) for _ in range(4))
    # the row being reduced holds columns (i, i+1, n-1); the spike row
    # holds (i, i+1, n-2, n-1)
    cu0, cu1, cul = ds(0), np.full(K, off[0]), np.full(K, corner)
    sp0, sp1, spm, spl = np.full(K, corner), np.zeros(K), np.full(K, off[n - 2]), ds(n - 1)
    for i in range(steps):
        # rotate row i + 1 (off[i], ds(i+1), off[i+1]) into the current row
        dnext = ds(i + 1)
        r = np.hypot(cu0, off[i])
        c, s = cu0 / r, off[i] / r
        a1 = c * cu1 + s * dnext
        a2 = s * off[i + 1]
        cu0 = c * dnext - s * cu1
        cu1 = c * off[i + 1]
        c1[i], s1[i] = c, s
        if not closed:
            r0[i], r1[i] = r, a1
            continue
        al = c * cul
        cul = -s * cul
        # then the spike row
        rr = np.hypot(r, sp0)
        c, s = r / rr, sp0 / rr
        c2[i], s2[i] = c, s
        r0[i], r1[i] = rr, c * a1 + s * sp1
        rm[i], rl[i] = s * spm, c * al + s * spl
        sp0, sp1 = c * sp1 - s * a1, -s * a2
        spm, spl = c * spm, c * spl - s * al
    tail = np.zeros((K, 4, 4))
    tail[:, 0, 0], tail[:, 0, 1], tail[:, 0, 3] = cu0, cu1, cul
    tail[:, 1, 0], tail[:, 1, 1], tail[:, 1, 2] = off[n - 4], ds(n - 3), off[n - 3]
    tail[:, 2, 1], tail[:, 2, 2], tail[:, 2, 3] = off[n - 3], ds(n - 2), off[n - 2]
    tail[:, 3, 0], tail[:, 3, 1], tail[:, 3, 2], tail[:, 3, 3] = sp0, sp1, spm, spl
    qt, rt = np.linalg.qr(tail)
    tiny = np.finfo(float).eps * tnorm
    np.maximum(r0, tiny, out=r0)
    dg = np.arange(4)
    piv = rt[:, dg, dg]
    rt[:, dg, dg] = np.where(np.abs(piv) < tiny[:, None], np.copysign(tiny[:, None], piv), piv)

    def solve(b):
        bs = b[n - 1].copy()
        for i in range(steps):
            t = c1[i] * b[i] + s1[i] * b[i + 1]
            b[i + 1] = c1[i] * b[i + 1] - s1[i] * b[i]
            if closed:
                b[i] = c2[i] * t + s2[i] * bs
                bs = c2[i] * bs - s2[i] * t
            else:
                b[i] = t
        bt = np.einsum("kji,kj->ki", qt, np.stack((b[n - 4], b[n - 3], b[n - 2], bs), axis=1))
        # back substitution: row i of b turns into x[i] once it is read
        b[n - 4:] = np.linalg.solve(rt, bt[..., None])[..., 0].T
        if closed:
            b[:steps] -= rm * b[n - 2] + rl * b[n - 1]
        for i in range(steps - 1, -1, -1):
            r2 = s1[i] * off[i + 1]  # R[i, i+2], rebuilt as the rotations made it
            if closed:
                r2 = c2[i] * r2
            b[i] = (b[i] - r1[i] * b[i + 1] - r2 * b[i + 2]) / r0[i]
        return b

    return solve


def _apply_tridiag(dk, off, corner, w):
    out = dk * w
    out[:-1] += off[:, None] * w[1:]
    out[1:] += off[:, None] * w[:-1]
    if corner != 0.0:
        out[0] += corner * w[-1]
        out[-1] += corner * w[0]
    return out


# Each Givens solve is exact for a matrix within a small multiple of eps |T|,
# and the product Tv adds at most 3 eps |T||v|, so a converged pair's residual
# is a small multiple of eps |T|: over 350 random closed spline and torus
# profiles (grids 100 to 4000) and the sphere profile it stayed below 10 eps
# |T|, with a median near 0.5.  100 leaves a tenfold margin; a vector mixed into
# a neighbour at gap g by a fraction f leaves about f g, so on the acceptance
# build (eps |T| <= 3.7e-8, gaps >= 12) a mix above 3e-7 is caught.
_RESIDUAL_FACTOR = 100.0


def _eigenpairs(d, off, corner, k_want, seed):
    """Lowest eigenpairs of every block: multisection, then batched block
    inverse iteration (k_want and seed: one value, or one per block).

    All columns of all blocks go through one shifted solve per iteration,
    each with its own shift, its own block's diagonal and |T|; a block's
    random start is that of its seed alone.  Each block's columns are
    orthonormalized together by one Householder QR after every solve: the
    solve's eps |T| backward error leaves two vectors overlapping by about
    eps |T| / gap, which reached 9.3e-8 on the closed torus profile's
    near-degenerate pairs without it, and the vectors of an exactly double
    eigenvalue would collapse onto one.  One Rayleigh-Ritz step per block
    then resolves the pairs the iteration leaves mixed where their gap is
    below the shifts' error (Parlett, The Symmetric Eigenvalue Problem, on
    subspace iteration), and the block's Ritz values are its eigenvalues.
    Every pair's residual |Tv - lambda v| must end below _RESIDUAL_FACTOR
    eps |T|.  Values and vectors come block by block, each block in
    ascending order.
    """
    vals = _lowest_eigenvalues(d, off, corner, k_want)
    d, block = _blocks(d, k_want)
    n, B = d.shape
    glo, ghi = _gershgorin(d, off, corner)
    tnorm = np.maximum(np.abs(glo), np.abs(ghi))[block]
    edges = np.searchsorted(block, np.arange(B + 1)).tolist()
    ranges = list(zip(edges[:-1], edges[1:]))
    seeds = np.broadcast_to(seed, (B,))
    V = np.hstack([np.random.default_rng(s).standard_normal((n, j - i))
                   for s, (i, j) in zip(seeds.tolist(), ranges)])
    solve = _shifted_solver(d, off, corner, block, vals, tnorm)
    for _ in range(3):
        V = solve(V)
        V /= np.maximum(V.max(axis=0), -V.min(axis=0))  # max |V|: keeps the squares below overflow
        lost = ~np.all(np.isfinite(V), axis=0)
        if np.any(lost):
            raise _BlockError("inverse iteration collapsed to zero", block[lost])
        for i, j in ranges:
            V[:, i:j] = np.linalg.qr(V[:, i:j])[0]
    del solve  # frees the factorization, 4 to 8 arrays the size of V
    TV = _apply_tridiag(d[:, block], off, corner, V)
    for i, j in ranges:
        vals[i:j], W = np.linalg.eigh(V[:, i:j].T @ TV[:, i:j])
        V[:, i:j] = V[:, i:j] @ W
        TV[:, i:j] = TV[:, i:j] @ W
    R = TV - V * vals
    residual = np.sqrt(np.einsum("ij,ij->j", R, R))
    bound = _RESIDUAL_FACTOR * np.finfo(float).eps * tnorm
    over = ~(residual <= bound)
    if np.any(over):
        worst = np.argmax(np.where(over, residual / bound, 0.0))
        raise _BlockError(f"inverse iteration residual {residual[worst]:.3e} exceeds "
                          f"{bound[worst]:.3e}", block[over])
    return vals, V


# ---------------------------------------------------------------------------
# surface-of-revolution basis


def _radial_matrix(profile, m, grid_n):
    """Flux-form discretization of the weighted radial problem.

    Cell centers s_i = (i-1/2)h; after w = sqrt(r) u the matrix is symmetric
    tridiagonal with face coefficients r(s +- h/2).  Open profiles get the
    natural zero-flux ends (the face radius vanishes there), which realizes
    the sqrt(r)-weighted regularity condition; closed profiles wrap.  Only
    the diagonal depends on m: (n,) for one m, (n, B) for B of them.
    """
    n = int(grid_n)
    L = profile.length
    h = L / n
    s = (np.arange(n) + 0.5) * h
    r = np.asarray(profile.r(s), dtype=float)
    if np.any(r <= 0):
        raise DomainError("profile radius must be positive at all cell centers")
    faces = np.asarray(profile.r(np.arange(n + 1) * h), dtype=float)
    if not profile.closed:
        faces[[0, -1]] = 0.0  # the poles: SurfaceOfRevolution holds |r| <= 1e-9 there
    m = np.asarray(m)
    d = (faces[:-1] + faces[1:]) / (h * h * r) + np.divide.outer(m * m, r * r)
    d = np.ascontiguousarray(d.T)
    off = -faces[1:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    corner = 0.0
    if profile.closed:
        corner = -faces[0] / (h * h * math.sqrt(r[0] * r[-1]))
    return s, r, h, d, off, corner


def surface_of_revolution_basis(profile, m_max, modes_per_m, grid_n):
    """The lowest modes_per_m radial modes of each Fourier block m = 0..m_max,
    every m > 0 as +m and -m.  lambda_max is the least top eigenvalue of the
    blocks m = 0..m_max + 1, the last solved for one mode only to certify
    that no higher m reaches below it.  All blocks are solved together."""
    sizes = (m_max, modes_per_m, grid_n)
    if not all(-math.inf < v < math.inf and v % 1 == 0 for v in sizes):
        raise DomainError(f"m_max, modes_per_m and grid_n must be whole numbers, not {sizes}")
    m_max, modes_per_m, grid_n = map(int, sizes)
    if grid_n < 100:
        raise DomainError("grid_n must be >= 100")
    if modes_per_m < 1 or m_max < 0:
        raise DomainError("need modes_per_m >= 1 and m_max >= 0")
    m = np.arange(m_max + 2)
    want = np.where(m == m_max + 1, 1, modes_per_m)
    s, r, h, d, off, corner = _radial_matrix(profile, m, grid_n)
    try:
        vals, vecs = _eigenpairs(d, off, corner, want, seed=90210 + 13 * m)
    except _BlockError as err:
        raise ConvergenceError(f"Fourier index m={m[err.block]}: {err}") from err
    lambda_max = float(np.min(vals[np.cumsum(want) - 1]))
    kept = (m_max + 1) * modes_per_m  # block m_max + 1 certifies lambda_max only
    w = vecs[:, :kept]  # scaled in place: the basis holds copies
    w /= math.sqrt(2.0 * math.pi * h)  # 2 pi h sum w^2 = 1
    # the first node reaching half of max |w| is positive: the largest |w|
    # alone would let a last-bit change pick the other of two mirror peaks
    half = 0.5 * np.maximum(w.max(axis=0), -w.min(axis=0))
    lead = np.argmax(np.abs(w) >= half, axis=0)
    w *= np.where(w[lead, np.arange(kept)] < 0, -1.0, 1.0)
    w /= np.sqrt(r)[:, None]
    u = w.T
    lam = np.where((vals[:kept] > -1e-9) & (vals[:kept] < 0.0), 0.0, vals[:kept])
    ms = np.repeat(m[:-1], modes_per_m)
    js = np.tile(np.arange(modes_per_m), m_max + 1)
    neg = ms > 0
    ms = np.concatenate((ms, -ms[neg]))
    return _sorted_basis(profile, np.concatenate((lam, lam[neg])), ms,
                         np.column_stack((ms, np.concatenate((js, js[neg])))), lambda_max,
                         radial=np.vstack((u, u[neg])))


# ---------------------------------------------------------------------------
# text export / import


def export_basis(basis, path):
    """One mode per line: eigenvalue, label, radial grid values."""
    if basis.radial is None:
        raise DomainError("text export is defined for discrete bases only")
    profile = basis.manifold
    n = basis.radial.shape[1] - 2
    header = (f"radial eigenbasis, text format v1\nprofile={profile.name} "
              f"closed={int(profile.closed)} length={format_float(profile.length)} grid_n={n} "
              f"lambda_max={format_float(basis.lambda_max)}\n"
              "line format: eigenvalue label u(s_1) ... u(s_n); s_i = (i-1/2) length/n")
    rows = np.column_stack((basis.eigenvalues, basis.m, basis.radial[:, 1:-1]))
    np.savetxt(path, rows, fmt=[_FLOAT_FORMAT, "%d"] + [_FLOAT_FORMAT] * n, header=header)


def import_basis(path, profile):
    """The basis export_basis wrote for profile; quantum j numbers each
    label's rows in file order.  A header that lacks a key, holds a
    malformed number or disagrees with the profile, or a row without grid_n
    numbers, raises DomainError naming the key or the line."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = dict(tok.split("=", 1) for ln in lines if ln.startswith("#")
                for tok in ln[1:].split() if "=" in tok)
    for key in ("closed", "length", "grid_n", "lambda_max"):
        if key not in meta:
            raise DomainError(f"{path}: header has no {key}=")
    for key, want in (("closed", str(int(profile.closed))), ("length", format_float(profile.length))):
        if meta[key] != want:
            raise DomainError(f"{path}: header {key}={meta[key]} but the profile has {want}")
    try:
        n = int(meta["grid_n"])
    except ValueError:
        n = 0
    if n < 1:
        raise DomainError(f"{path}: header grid_n={meta['grid_n']} is not a positive integer")
    try:
        lambda_max = float(meta["lambda_max"])
    except ValueError:
        lambda_max = math.nan
    if not math.isfinite(lambda_max):  # a nan cut-off would pass every truncation check
        raise DomainError(f"{path}: header lambda_max={meta['lambda_max']} is not a finite number")
    body = [(no, ln) for no, ln in enumerate(lines, 1) if ln.strip() and not ln.startswith("#")]
    lam, m, j, U, seen = [], [], [], np.empty((len(body), n)), {}
    for i, (no, ln) in enumerate(body):
        toks = ln.split()  # one row at a time: every row's tokens at once cost megabytes
        if len(toks) != n + 2:
            raise DomainError(f"{path}:{no}: {len(toks) - 2} values, grid_n={n}")
        try:
            lam.append(float(toks[0]))
            m.append(int(toks[1]))
            U[i] = toks[2:]  # numpy parses as float() does, message included
        except ValueError as err:
            raise DomainError(f"{path}:{no}: {err}") from None
        j.append(seen.get(m[-1], 0))
        seen[m[-1]] = j[-1] + 1
    return _sorted_basis(profile, lam, m, np.column_stack((m, j)), lambda_max, radial=U)
