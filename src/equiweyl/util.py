"""Shared numeric plumbing: deterministic reductions, grids, atomic reports."""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import tempfile

import numpy as np

_PANEL = 16


@functools.lru_cache(maxsize=128)
def gauss_nodes(n):
    """Gauss rule on [-1, 1] with at least n nodes.

    Single Gauss-Legendre rule up to 600 nodes; beyond that the companion
    eigensolve behind leggauss is cubic in n, so switch to composite
    16-point panels (node count rounds up to a multiple of 16).  Callers
    must use the returned arrays' length, not n.  The panels are uniform:
    they miss oscillation that crowds toward an end, as a spherical
    harmonic's does in cos(theta) at the poles (see _colatitude_nodes).
    """
    if n <= 600:
        x, w = np.polynomial.legendre.leggauss(int(n))
    else:
        panels = -(-int(n) // _PANEL)
        xp, wp = np.polynomial.legendre.leggauss(_PANEL)
        edges = np.linspace(-1.0, 1.0, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * xp[None, :]).ravel()
        w = (half[:, None] * wp[None, :]).ravel()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _colatitude_nodes(n):
    """The round sphere's polar rule: gauss_nodes(n) in the colatitude theta
    on [0, pi], where S^2's functions oscillate evenly, sin(theta) in the weights."""
    t, w = gauss_nodes(n)
    theta = 0.5 * math.pi * (t + 1.0)
    return theta, 0.5 * math.pi * w * np.sin(theta)


def pairwise_sum(values):
    """Sum in a fixed adjacent-pairing tree order; a 2-D input gives one sum
    per row, each exactly as the row alone would give.

    The reduction order depends only on the input order, never on how the
    input was chunked, so reports built from it are bit-reproducible.
    """
    a = np.asarray(values)
    a = a.astype(np.result_type(a, np.float64), copy=False)
    a = a.reshape(-1) if a.ndim < 2 else a.T
    if a.ndim == 1 and a.dtype == np.float64 and 1 < len(a) <= _SHORT_SUM:
        return _pairwise_sum_floats(a.tolist())
    if len(a) == 0:
        return np.zeros(a.shape[1:], a.dtype)[()]
    while len(a) > 1:
        m = (len(a) // 2) * 2
        head = a[0:m:2] + a[1:m:2]
        a = np.concatenate([head, a[m:]]) if len(a) > m else head
    return a[0]


# Up to this length the tree runs faster on Python floats than as numpy
# slices: 1-3 us saved a sum at lengths 3 to 24, even at 32 to 48, slower
# from 64 (median of 15 timings a length, one core).
_SHORT_SUM = 32


def _pairwise_sum_floats(v):
    """pairwise_sum's tree on a list of two or more floats: Python adds IEEE
    doubles as numpy does, so the sum keeps its bits (where two NaNs meet,
    the payload may be the other one's: IEEE 754 leaves that open)."""
    while len(v) > 1:
        head = list(map(operator.add, v[0::2], v[1::2]))
        if len(v) % 2:
            head.append(v[-1])
        v = head
    return np.float64(v[0])


def geometric_grid(lo, hi, ratio=math.sqrt(2.0)):
    """Geometric grid lo*ratio^j capped at hi; hi appended if not reached."""
    if not (lo > 0 and hi > lo and ratio > 1):
        raise ValueError("need 0 < lo < hi and ratio > 1")
    n = int(math.floor(math.log(hi / lo) / math.log(ratio) + 1e-9))
    pts = [lo * ratio**j for j in range(n + 1)]
    if pts[-1] < hi * (1 - 1e-12):
        pts.append(hi)
    return np.array(pts)


_FLOAT_FORMAT = "%.17g"  # the package-wide numeric text: doubles read back bit for bit


def format_float(x):
    """x in the package-wide numeric text format, 17 significant digits."""
    return _FLOAT_FORMAT % float(x)


def _json_scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        # JSON has no nan or inf: a non-finite measurement is written as null
        return format_float(x) if math.isfinite(x) else "null"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"unsupported report value {type(x)!r}")


def json_dumps(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{_json_scalar(str(k))}: {json_dumps(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{json_dumps(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, str):
                cells.append(c)
            elif isinstance(c, (int, np.integer)):
                cells.append(str(int(c)))
            else:
                cells.append(format_float(c))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
