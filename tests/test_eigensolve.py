"""Analytic bases and the discrete Sturm-Liouville route."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from equiweyl import eigensolve, geometry, lab, specfun, spectral
from equiweyl.errors import ConvergenceError, DomainError, InvalidPointError, ResourceLimitError
from equiweyl.util import pairwise_sum


def test_sphere_basis_census():
    b = eigensolve.sphere_basis(200.0)
    # k(k+1) <= 200 -> k <= 13, so (13+1)^2 modes
    assert len(b.eigenvalues) == 196
    assert b.lambda_max == 200.0
    assert np.all(np.diff(b.eigenvalues) >= 0)
    assert set(b.m.tolist()) == set(range(-13, 14))


def test_sphere_mode_evaluator_matches_specfun():
    b = eigensolve.sphere_basis(30.0)
    got = b.evaluate(geometry.sphere_point(0.8, 1.9))[:, 0]
    for value, (k, m) in zip(got, b.quantum.tolist()):
        want = specfun.spherical_harmonic(k, m, 0.8, 1.9)
        assert value == pytest.approx(want, rel=1e-11, abs=1e-13)
        assert abs(value) ** 2 == pytest.approx(abs(want) ** 2, rel=1e-10, abs=1e-13)


def test_torus_basis_circle():
    b = eigensolve.torus_basis(200.0)
    # lattice points with 4 pi^2 |k|^2 <= 200, |k|^2 <= 5.066: |k|^2 in {0,1,2,4,5}
    want = sum(1 for k1 in range(-3, 4) for k2 in range(-3, 4)
               if 4 * math.pi ** 2 * (k1 * k1 + k2 * k2) <= 200.0)
    assert len(b.eigenvalues) == want
    assert np.abs(b.evaluate((0.3, 0.7))[:, 0]) == pytest.approx(np.ones(want), abs=1e-14)


def test_torus_basis_holds_the_modes_at_its_lambda_max():
    """A basis cut at a lattice eigenvalue keeps every mode there, as many as
    the lattice count gives, and stores that eigenvalue bit for bit."""
    for n in (1, 25, 26, 50, 65, 325):
        lam = 4.0 * math.pi * math.pi * n
        b = eigensolve.torus_basis(lam)
        span = math.isqrt(n) + 1
        assert len(b.eigenvalues) == sum(spectral.torus_count_direct(m, lam)
                                         for m in range(-span, span + 1))
        assert b.eigenvalues[-1] == lam


def test_torus_basis_refuses_a_lattice_past_the_largest_sphere_basis():
    """A lattice of half-width R > 1000, more than the 2001^2 entries of the
    largest sphere basis, is refused before any of it is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="half-width 1001 > 1000"):
            eigensolve.torus_basis(4.0 * math.pi * math.pi * (1000 ** 2 + 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sor_eigenvalues_match_sphere():
    prof = geometry.sphere_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 2, 8, 1000)
    k = np.abs(b.quantum[:, 0]) + b.quantum[:, 1]
    exact = k * (k + 1.0)
    assert np.all(np.abs(b.eigenvalues[exact == 0.0]) <= 1e-9)
    rel = np.abs(b.eigenvalues - exact)[exact > 0.0] / exact[exact > 0.0]
    assert np.max(rel) <= 2e-3


def test_sor_degenerate_pairs():
    # +m and -m share the radial problem exactly
    prof = geometry.sphere_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 2, 5, 600)
    by_quantum = dict(zip(map(tuple, b.quantum.tolist()), b.eigenvalues.tolist()))
    for (m, j), lam in by_quantum.items():
        if m > 0:
            assert lam == by_quantum[(-m, j)]


def test_sor_grid_convergence_monotone():
    """Eigenvalues approach k(k+1) monotonically as the grid refines."""
    prof = geometry.sphere_profile()
    lams = []
    for grid in (250, 500, 1000):
        b = eigensolve.surface_of_revolution_basis(prof, 0, 4, grid)
        lams.append(b.eigenvalues)
    lams = np.array(lams)
    exact = np.array([k * (k + 1.0) for k in range(4)])
    errs = np.abs(lams - exact[None, :])
    assert np.all(errs[1] <= errs[0] + 1e-12)
    assert np.all(errs[2] <= errs[1] + 1e-12)
    # discrete values sit below the continuum limit on this scheme
    assert np.all(lams[0][1:] <= exact[1:])


def test_torus_profile_basis_smoke():
    prof = geometry.torus_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 1, 4, 600)
    lams = b.eigenvalues.tolist()
    assert lams == sorted(lams)
    assert lams[0] == pytest.approx(0.0, abs=1e-9)
    assert all(l >= -1e-9 for l in lams)


def test_sor_determinism():
    prof = geometry.sphere_profile()
    a = eigensolve.surface_of_revolution_basis(prof, 1, 4, 400)
    b = eigensolve.surface_of_revolution_basis(prof, 1, 4, 400)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_export_import_roundtrip(tmp_path):
    prof = geometry.sphere_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 1, 4, 400)
    path = tmp_path / "basis.npz"
    eigensolve.export_basis(b, path)
    b2 = eigensolve.import_basis(path, prof)
    x = (1.1, 0.4)
    assert np.abs(b2.evaluate(x)) ** 2 == pytest.approx(np.abs(b.evaluate(x)) ** 2,
                                                         rel=1e-12, abs=1e-15)
    # every array comes back as built, quantum (m, j) included
    for name in ("eigenvalues", "m", "quantum", "radial"):
        assert np.array_equal(getattr(b2, name), getattr(b, name)), name
    assert b2.lambda_max == b.lambda_max


def test_import_checks_the_file_against_the_profile(tmp_path):
    b = eigensolve.surface_of_revolution_basis(geometry.torus_profile(), 1, 2, 200)
    path = tmp_path / "basis.txt"
    eigensolve.export_basis(b, path)
    with pytest.raises(DomainError, match="closed"):
        eigensolve.import_basis(path, geometry.sphere_profile())
    with pytest.raises(DomainError, match="length"):
        eigensolve.import_basis(path, geometry.torus_profile(a=0.6))
    lines = path.read_text().splitlines()
    bad = {
        "header has no closed=": (1, lines[1].replace(" closed=1", "")),
        "header has no lambda_max=": (1, lines[1].split(" lambda_max=")[0]),
        r"basis\.txt:5: could not convert string to float: 'abc'":
            (4, lines[4].rsplit(" ", 1)[0] + " abc"),
        r"basis\.txt:4: 199 values, grid_n=200":  # the first mode loses its last value
            (3, lines[3].rsplit(" ", 1)[0]),
        r"basis\.txt: header grid_n=2OO is not a positive integer":
            (1, lines[1].replace("grid_n=200", "grid_n=2OO")),
        r"basis\.txt: header grid_n=-3 is not a positive integer":
            (1, lines[1].replace("grid_n=200", "grid_n=-3")),
        r"basis\.txt: header lambda_max=x1\.5 is not a finite number":
            (1, lines[1].split(" lambda_max=")[0] + " lambda_max=x1.5"),
        r"basis\.txt: header lambda_max=nan is not a finite number":
            (1, lines[1].split(" lambda_max=")[0] + " lambda_max=nan"),
    }
    for message, (i, line) in bad.items():
        path.write_text("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
        with pytest.raises(DomainError, match=message):
            eigensolve.import_basis(path, geometry.torus_profile())


def test_sphere_k_max():
    assert eigensolve.sphere_k_max(200.0) == 13
    assert eigensolve.sphere_k_max(1e6) == 999
    assert eigensolve.sphere_k_max(0.0) == 0


def _eps_norm(d, off, corner):
    lo, hi = eigensolve._gershgorin(d, off, corner)
    return np.finfo(float).eps * max(abs(lo), abs(hi))


def test_eigenpairs_match_lapack():
    """Multisection and inverse iteration against LAPACK xSTEBZ/xSTEIN.

    Both are backward stable, so their eigenvalues agree to a small multiple
    of eps |T| (here about 2e-10 relative) and their vectors up to sign.
    """
    linalg = pytest.importorskip("scipy.linalg")
    _, _, _, d, off, corner = eigensolve._radial_matrix(geometry.sphere_profile(), 3, 4000)
    want, W = linalg.eigh_tridiagonal(d, off, select="i", select_range=(0, 19))
    tol = 10.0 * _eps_norm(d, off, corner)
    assert np.max(np.abs(eigensolve._lowest_eigenvalues(d, off, corner, 20) - want)) <= tol
    vals, V = eigensolve._eigenpairs(d, off, corner, 20, seed=7)
    assert np.max(np.abs(vals - want)) <= tol
    assert np.min(np.abs(np.einsum("ij,ij->j", V, W))) >= 1.0 - 1e-12


def _dense(d, off, corner):
    T = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    T[0, -1] = T[-1, 0] = corner
    return T


@pytest.mark.parametrize("profile", [geometry.torus_profile(), geometry.torus_profile(3.0, 1.0),
                                     geometry.sphere_profile()],
                         ids=["torus", "fat-torus", "sphere"])
def test_sturm_counts_match_dense(profile):
    _, _, _, d, off, corner = eigensolve._radial_matrix(profile, 2, 40)
    lam = np.linalg.eigvalsh(_dense(d, off, corner))
    rng = np.random.default_rng(11)
    shifts = np.concatenate(((lam[:-1] + lam[1:]) / 2, [lam[0] - 1.0, lam[-1] + 1.0],
                             rng.uniform(lam[0], lam[-1], 200)))
    # keep clear of eigenvalues, where rounding may count either way
    gap = np.min(np.abs(shifts[:, None] - lam[None, :]), axis=1)
    shifts = shifts[gap > 1e3 * _eps_norm(d, off, corner)]
    assert len(shifts) > 200
    want = np.searchsorted(lam, shifts)
    assert np.array_equal(eigensolve._sturm_counts(d, off, corner, shifts), want)


def test_closed_chain_eigenpairs_match_dense():
    _, _, _, d, off, corner = eigensolve._radial_matrix(geometry.torus_profile(), 1, 120)
    T = _dense(d, off, corner)
    vals, V = eigensolve._eigenpairs(d, off, corner, 30, seed=3)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(T)[:30])) <= 10.0 * _eps_norm(d, off, corner)
    assert np.max(np.abs(T @ V - V * vals)) <= 10.0 * _eps_norm(d, off, corner)


def test_torus_profile_near_degenerate_pairs_orthonormal():
    """Pairs at relative gaps down to 3e-8 are re-orthogonalized as a block."""
    prof = geometry.torus_profile()
    for m in range(3):
        _, _, _, d, off, corner = eigensolve._radial_matrix(prof, m, 1000)
        _, V = eigensolve._eigenpairs(d, off, corner, 10, seed=m)
        assert np.max(np.abs(V.T @ V - np.eye(10))) <= 1e-10


def test_exactly_double_eigenvalues_of_a_circulant_chain():
    """A closed profile of constant radius gives a circulant chain: every
    block's eigenvalues d - 2|off| cos(2 pi k / n) are double for 0 < k < n/2,
    and each pair's two vectors stay apart."""
    prof = geometry.SurfaceOfRevolution(lambda s: np.full(np.shape(s), 1.5),
                                        lambda s: np.zeros(np.shape(s)), 2.0, closed=True)
    n, want = 200, 7
    _, _, _, d, off, corner = eigensolve._radial_matrix(prof, np.arange(4), n)
    vals, V = eigensolve._eigenpairs(d, off, corner, want, seed=np.arange(4))
    k = np.array([0, 1, 1, 2, 2, 3, 3])
    for b in range(4):
        exact = d[0, b] - 2.0 * abs(off[0]) * np.cos(2.0 * np.pi * k / n)
        block = slice(b * want, (b + 1) * want)
        assert np.max(np.abs(vals[block] - exact)) <= 10.0 * _eps_norm(d[:, b], off, corner)
        assert np.max(np.abs(V[:, block].T @ V[:, block] - np.eye(want))) <= 1e-12


def test_inverse_iteration_residual_gate(monkeypatch):
    _, _, _, d, off, corner = eigensolve._radial_matrix(geometry.sphere_profile(), [1, 2], 400)
    lam = eigensolve._lowest_eigenvalues(d, off, corner, 2)
    # a shift halfway between two eigenvalues of block 1 leaves its vector
    # mixed; block 0 keeps its own eigenvalue
    monkeypatch.setattr(eigensolve, "_lowest_eigenvalues",
                        lambda *args: np.array([lam[0], lam[2:].mean()]))
    with pytest.raises(ConvergenceError, match="residual .* in block 1$") as err:
        eigensolve._eigenpairs(d, off, corner, 1, seed=0)
    assert err.value.block == 1


def test_basis_names_the_fourier_index_that_failed(monkeypatch):
    prof = geometry.sphere_profile()
    _, _, _, d, off, corner = eigensolve._radial_matrix(prof, 2, 400)
    mixed = eigensolve._lowest_eigenvalues(d, off, corner, 2).mean()
    solve = eigensolve._lowest_eigenvalues

    def mix_m2(*args):
        vals = solve(*args)
        vals[2] = mixed  # one mode per block: entry 2 is block m = 2
        return vals

    monkeypatch.setattr(eigensolve, "_lowest_eigenvalues", mix_m2)
    with pytest.raises(ConvergenceError, match="^Fourier index m=2: inverse iteration residual"):
        eigensolve.surface_of_revolution_basis(prof, 2, 1, 400)


@pytest.mark.parametrize("profile", [geometry.sphere_profile(), geometry.torus_profile()],
                         ids=["open-sphere", "closed-torus"])
def test_stacked_blocks_do_not_interact(profile):
    """Each block of a stack gets, bit for bit, the values and vectors it gets
    when solved alone."""
    _, _, _, d, off, corner = eigensolve._radial_matrix(profile, np.arange(4), 300)
    want, seeds = np.array([3, 5, 2, 4]), np.array([11, 12, 13, 14])
    vals, V = eigensolve._eigenpairs(d, off, corner, want, seeds)
    assert V.shape == (300, want.sum())
    ends = np.cumsum(want)
    for b, (i, j) in enumerate(zip(ends - want, ends)):
        alone, W = eigensolve._eigenpairs(d[:, b], off, corner, want[b], seeds[b])
        assert np.array_equal(vals[i:j], alone)
        assert np.array_equal(V[:, i:j], W)


def test_identical_blocks_keep_their_own_brackets(monkeypatch):
    _, _, _, d, off, corner = eigensolve._radial_matrix(geometry.sphere_profile(), [2, 2], 200)
    sweeps = []
    count = eigensolve._sturm_counts

    def spy(d, off, corner, shifts, block):
        sweeps.append((np.array(shifts), np.array(block)))
        return count(d, off, corner, shifts, block)

    monkeypatch.setattr(eigensolve, "_sturm_counts", spy)
    vals = eigensolve._lowest_eigenvalues(d, off, corner, 3)
    # the shared Gershgorin start is one bracket per block, not one in all
    shifts, block = sweeps[0]
    assert np.array_equal(np.bincount(block), [eigensolve._SECTIONS - 1] * 2)
    assert np.array_equal(shifts[block == 0], shifts[block == 1])
    for shifts, block in sweeps:
        assert np.array_equal(shifts[block == 0], shifts[block == 1])
    assert np.array_equal(vals[:3], vals[3:])


def test_sweep_cap_counts_the_last_sweep(monkeypatch):
    """A cap of exactly the sweeps a solve needs returns its eigenvalues;
    one sweep fewer raises ConvergenceError naming the unconverged block."""
    _, _, _, d, off, corner = eigensolve._radial_matrix(geometry.sphere_profile(), 2, 200)
    sweeps = []
    count = eigensolve._sturm_counts

    def spy(*args):
        sweeps.append(None)
        return count(*args)

    monkeypatch.setattr(eigensolve, "_sturm_counts", spy)
    want = eigensolve._lowest_eigenvalues(d, off, corner, 3)
    needed = len(sweeps)
    monkeypatch.setattr(eigensolve, "_MAX_SWEEPS", needed)
    assert np.array_equal(eigensolve._lowest_eigenvalues(d, off, corner, 3), want)
    monkeypatch.setattr(eigensolve, "_MAX_SWEEPS", needed - 1)
    with pytest.raises(ConvergenceError, match=r"sweeps in block 0$"):
        eigensolve._lowest_eigenvalues(d, off, corner, 3)


def test_mode_signs_do_not_hang_on_the_last_bits(monkeypatch):
    """A cut of each bracket in 64 moves the eigenvalues in their last bits
    against a cut in 8; the odd modes' mirror peaks must not flip a mode."""
    radial = []
    for sections in (64, 8):
        monkeypatch.setattr(eigensolve, "_SECTIONS", sections)
        radial.append(eigensolve.surface_of_revolution_basis(
            geometry.sphere_profile(), 2, 5, 200).radial)
    assert np.max(np.abs(radial[0] - radial[1])) <= 1e-10


def test_closed_profile_with_vanishing_pivot():
    """A closed-profile build whose bordered solve once met an exactly vanishing
    Schur pivot, nudged it to 1e-290 and overflowed."""
    prof = geometry.torus_profile(2.3401442037428994, 1.0)
    b = eigensolve.surface_of_revolution_basis(prof, 1, 32, 600)
    lams = b.eigenvalues.tolist()
    assert len(lams) == 96
    assert lams == sorted(lams)


@pytest.mark.parametrize("sizes", [(1, 4, 150.7), (1, 2.5, 200), (1.5, 4, 200), (1, 4, math.nan),
                                   (1, 4, math.inf), (1, 4, -math.inf), (math.nan, 4, 200),
                                   (1, math.inf, 200)])
def test_sor_basis_refuses_sizes_that_are_not_whole(sizes):
    with pytest.raises(DomainError, match="must be whole numbers"):
        eigensolve.surface_of_revolution_basis(geometry.sphere_profile(), *sizes)


def test_sor_basis_takes_whole_floats():
    prof = geometry.sphere_profile()
    want = eigensolve.surface_of_revolution_basis(prof, 1, 2, 100)
    got = eigensolve.surface_of_revolution_basis(prof, 1.0, np.int64(2), 100.0)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.radial, want.radial)


# ---------------------------------------------------------------------------
# the blocked Sturm counts against the guarded recurrence, row by row


def _pivmin(off):
    return max(eigensolve._PIVMIN_FLOOR, 1e-30 * float(np.max(np.abs(off)) ** 2 + 1.0))


def _row_counts(d, off, corner, shifts, block=None):
    """The guarded LDL^T pivot recurrence one row at a time, every pivot with
    |q| < pivmin replaced by -pivmin: the counts _sturm_counts must give."""
    d = d.reshape(len(d), -1)
    n = len(d)
    shifts = np.asarray(shifts, dtype=float)
    if block is None:
        block = np.zeros(len(shifts), dtype=np.intp)
    pivmin = _pivmin(off)
    q = d[0][block] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0).astype(np.int64)
    osq = off * off
    if corner == 0.0:
        for i in range(1, n):
            q = (d[i][block] - shifts) - osq[i - 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            counts += q < 0
        return counts
    ftil = np.full_like(shifts, corner)
    schur = (d[n - 1][block] - shifts) - ftil * ftil / q
    for i in range(1, n - 1):
        l_prev = off[i - 1] / q
        q = (d[i][block] - shifts) - osq[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        fi = off[n - 2] if i == n - 2 else 0.0
        ftil = fi - l_prev * ftil
        schur = schur - ftil * ftil / q
        counts += q < 0
    counts += schur < 0
    return counts


def _chain(closed, n, blocks):
    prof = geometry.torus_profile() if closed else geometry.sphere_profile()
    _, _, _, d, off, corner = eigensolve._radial_matrix(prof, np.arange(blocks), n)
    return d, off, corner


def _rows_per_block(K, end):
    """The row block _sturm_counts takes for K shifts over rows 1..end-1."""
    return max(1, min((eigensolve._ROW_BLOCK_ELEMENTS - 1) // max(K, 1), end - 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("K", [0, 1, 63, 7623, 20000])
@pytest.mark.parametrize("grouping", ["none", "grouped", "interleaved"])
def test_blocked_sturm_counts_are_the_row_recurrence(closed, K, grouping):
    # 1100 rows: at 63 shifts a block of 1040 rows and a ragged one of 59,
    # at 7,623 blocks of 8 rows and a ragged last one; 20,000 shifts are
    # counted in three turns
    n = 1100
    d, off, corner = _chain(closed, n, 1 if grouping == "none" else 5)
    lo, hi = eigensolve._gershgorin(d, off, corner)
    rng = np.random.default_rng(K)
    # most shifts in the lowest part of the spectrum, where the counts change
    shifts = np.where(rng.random(K) < 0.8, rng.uniform(-1.0, 2000.0, K),
                      rng.uniform(np.min(lo), np.max(hi), K))
    block = None
    if grouping != "none":
        block = np.sort(rng.integers(0, 5, K))
        if grouping == "interleaved":
            rng.shuffle(block)
    want = _row_counts(d, off, corner, shifts, block)
    got = eigensolve._sturm_counts(d, off, corner, shifts, block)
    assert got.dtype == np.int64 and got.shape == (K,)
    assert np.array_equal(got, want)
    if K > 1:
        assert len(np.unique(want)) > 10  # the shifts meet many eigenvalues
    end = n - 1 if closed else n
    if K in (63, 7623):
        rows = _rows_per_block(K, end)
        assert 1 < (end - 1) / rows and (end - 1) % rows  # several blocks, the last ragged


def _force_zero_pivot(d, off, rows):
    """d with its first column changed on the given rows so that the guarded
    pivot of every one of them is exactly 0 at shift 0."""
    d, osq, pivmin = d.copy(), off * off, _pivmin(off)
    q = d[0, 0]
    for i in range(1, max(rows) + 1):
        x = osq[i - 1] / q
        if i in rows:
            d[i, 0] = x
        q = d[i, 0] - x
        q = -pivmin if abs(q) < pivmin else q
    return d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [63, 7623])
@pytest.mark.parametrize("where", ["first", "middle", "split", "open-last", "border-row"])
def test_blocked_sturm_counts_redo_a_block_with_a_tiny_pivot(K, where):
    """An exact zero pivot at shift 0, in a block's first row, in its middle,
    followed by a zero off-diagonal (0/0: nan in the unguarded pass), in an
    open chain's last row and in the closed chain's row n-2, which meets the
    border entry off[n-2]; the block is counted again from its saved start."""
    n = 1100
    closed = where == "border-row"
    d, off, corner = _chain(closed, n, 3)
    end = n - 1 if closed else n
    rows = _rows_per_block(K, end)
    second = min(rows, end - 1 - rows)  # the second block's length
    zero = {"first": 1 + rows, "middle": 1 + rows + second // 2, "split": 1 + rows // 2,
            "open-last": n - 1, "border-row": n - 2}[where]
    if where == "split":
        off = off.copy()
        off[zero] = 0.0
    d = _force_zero_pivot(d, off, [zero])
    rng = np.random.default_rng(5)
    shifts = np.concatenate(([0.0], rng.uniform(-1.0, 2000.0, K - 1)))
    block = np.sort(np.concatenate(([0], rng.integers(0, 3, K - 1))))
    want = _row_counts(d, off, corner, shifts, block)
    assert np.array_equal(eigensolve._sturm_counts(d, off, corner, shifts, block), want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1, 200, 20000])
@pytest.mark.parametrize("case", ["positive-off", "zero-off"] + [f"n={n}" for n in range(3, 9)])
def test_closed_sturm_counts_are_the_row_recurrence_and_dense(case, K):
    """Closed chains the torus profile never gives: positive off-diagonals
    under a negative corner, so every border term flips its sign; three to
    eight rows, where one row block ends at row n-2, which meets the border
    entry off[n-2]; and a zero off-diagonal inside the ring, which the
    corner still closes.  A third of the shifts sit on an eigenvalue."""
    rng = np.random.default_rng([K, len(case)])
    n = int(case[2:]) if case.startswith("n=") else 60
    d = rng.uniform(-2.0, 2.0, (n, 3))
    off = rng.uniform(0.5, 1.5, n - 1)
    corner = -rng.uniform(0.5, 1.5)
    if case.startswith("n="):
        off *= rng.choice([-1.0, 1.0], n - 1)
    elif case == "zero-off":
        off[n // 3] = 0.0
    lam = np.linalg.eigvalsh(np.stack([_dense(d[:, b], off, corner) for b in range(3)]))
    block = rng.integers(0, 3, K)
    shifts = rng.uniform(lam.min() - 0.5, lam.max() + 0.5, K)
    on = np.arange(K) % 3 == 2
    shifts[on] = lam[block[on], rng.integers(0, n, K)[on]]
    got = eigensolve._sturm_counts(d, off, corner, shifts, block)
    assert np.array_equal(got, _row_counts(d, off, corner, shifts, block))
    lo, hi = eigensolve._gershgorin(d, off, corner)
    tol = 1e3 * np.finfo(float).eps * max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    clear = np.min(np.abs(lam[block] - shifts[:, None]), axis=1) > tol
    assert np.count_nonzero(clear) > K / 2
    assert np.array_equal(got[clear], np.sum(lam[block] < shifts[:, None], axis=1)[clear])


def test_torus_build_counts_are_the_row_recurrence(monkeypatch):
    """Every count a torus_profile() build makes is the guarded recurrence's,
    bit for bit: multisection shifts close in on eigenvalues, where the
    random shifts above seldom fall."""
    count, same = eigensolve._sturm_counts, []

    def spy(d, off, corner, shifts, block=None):
        got = count(d, off, corner, shifts, block)
        same.append(np.array_equal(got, _row_counts(d, off, corner, shifts, block)))
        return got

    monkeypatch.setattr(eigensolve, "_sturm_counts", spy)
    eigensolve.surface_of_revolution_basis(geometry.torus_profile(), 2, 10, 1000)
    assert len(same) > 10 and all(same)


# ---------------------------------------------------------------------------
# the batched evaluator against the scalar formulas, value for value


def _sphere_formula(basis, i, x):
    k, m = basis.quantum[i].tolist()
    theta = math.acos(max(-1.0, min(1.0, x[2])))
    pbar = specfun.assoc_ladder(m, k, math.cos(theta), degrees=[k])[0]
    return pbar * cmath.exp(1j * m * math.atan2(x[1], x[0]))


def _torus_formula(basis, i, x):
    k1, k2 = basis.quantum[i].tolist()
    return cmath.exp(2j * math.pi * (k1 * x[0] + k2 * x[1]))


def _profile_formula(basis, i, x):
    """np.interp over the cell centers, extended past each end, times e^{i m phi}."""
    prof = basis.manifold
    m = int(basis.quantum[i, 0])
    u = basis.radial[i, 1:-1]
    h = prof.length / len(u)
    s_nodes = (np.arange(len(u)) + 0.5) * h
    assert basis.grid[0] == tuple(s_nodes)
    if prof.closed:
        s_ext = np.concatenate(([s_nodes[0] - h], s_nodes, [s_nodes[-1] + h]))
        u_ext = np.concatenate(([u[-1]], u, [u[0]]))
    else:
        end = 1.0 if m == 0 else 0.0
        s_ext = np.concatenate(([0.0], s_nodes, [prof.length]))
        u_ext = np.concatenate(([u[0] * end], u, [u[-1] * end]))
    s = float(x[0]) % prof.length if prof.closed else float(x[0])
    return float(np.interp(s, s_ext, u_ext)) * cmath.exp(1j * m * x[1])


def _profile_points(prof):
    L, h = prof.length, prof.length / 200
    pts = [(0.0, 0.0), (L, 0.0), (0.5 * h, 1.3), (L - 0.5 * h, -0.4), (0.2 * h, 2.0),
           (L - 0.2 * h, 0.9), (1.1, 0.0), (1.1, 2.7)]
    if prof.closed:
        # across the seam, both ways
        pts += [(L + 0.3 * h, 0.4), (-0.3 * h, 5.0), (2 * L + 1.1, -2.0)]
    return pts


def _sphere_case():
    rng = np.random.default_rng(5)
    pts = [geometry.sphere_point(0.0, 0.0), geometry.sphere_point(math.pi, 0.0),
           geometry.sphere_point(math.pi / 2, 0.0)]
    pts += [geometry.sphere_point(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            for _ in range(4)]
    return eigensolve.sphere_basis(12 * 13), pts, _sphere_formula


def _torus_case():
    pts = [(0.0, 0.0), (0.3, 0.7), (0.999, 0.123), (0.5, 0.5)]
    return eigensolve.torus_basis(500.0), pts, _torus_formula


def _profile_case(prof, imported=False, tmp_path=None):
    b = eigensolve.surface_of_revolution_basis(prof, 2, 5, 200)
    if imported:
        eigensolve.export_basis(b, tmp_path / "basis.txt")
        b = eigensolve.import_basis(tmp_path / "basis.txt", prof)
    return b, _profile_points(prof), _profile_formula


_CASES = {
    "sphere": lambda tmp: _sphere_case(),
    "torus-circle": lambda tmp: _torus_case(),
    "profile-open": lambda tmp: _profile_case(geometry.sphere_profile()),
    "profile-closed": lambda tmp: _profile_case(geometry.torus_profile()),
    "profile-imported": lambda tmp: _profile_case(geometry.torus_profile(), True, tmp),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_batched_evaluator_matches_scalar_formulas(case, tmp_path):
    basis, pts, formula = _CASES[case](tmp_path)
    got = basis.evaluate(np.array(pts))
    n = len(basis.eigenvalues)
    assert got.shape == (n, len(pts))
    want = np.array([[formula(basis, i, x) for x in pts] for i in range(n)])
    assert np.array_equal(got, want)
    # a subset of modes at one point reads the same values
    rows = np.arange(0, n, 3)
    assert np.array_equal(basis.evaluate(pts[1], rows)[:, 0], want[rows, 1])


@pytest.mark.parametrize("prof", [geometry.sphere_profile(), geometry.torus_profile()],
                         ids=["open", "closed"])
def test_one_point_route_is_the_point_array_route(prof):
    """evaluate at one point (bisect on Python floats) gives, byte for byte,
    what it gives on a (1, 2) array of that point (searchsorted on arrays)."""
    b = eigensolve.surface_of_revolution_basis(prof, 2, 5, 200)
    L, nodes = prof.length, b.grid[0]
    s_values = [0.0, L, nodes[0], nodes[17], nodes[-1], 0.5 * (nodes[3] + nodes[4]), 1.1]
    if prof.closed:
        s_values += [-5e-324, -1e-17, -0.3, math.nextafter(L, math.inf), L + 1e-15, 2 * L + 1.1]
    phis = [0.0, -0.0, 2.7, -3.9, 1e6, -4e9]
    m2 = np.flatnonzero(b.m == 2)
    modes = [None, 0, 7, m2, m2[:0], np.arange(len(b.eigenvalues))[::-5]]
    for s in s_values:
        for phi in phis:
            for rows in modes:
                one, arr = b.evaluate((s, phi), rows), b.evaluate(np.array([[s, phi]]), rows)
                assert one.shape == arr.shape and one.tobytes() == arr.tobytes()


@pytest.mark.parametrize("which", ["open", "closed", "imported"])
def test_label_read_is_the_point_array_route(which, tmp_path):
    """A label's one-point read (two rows of its node-major block and one
    phase) gives, byte for byte, evaluate's values on a (1, 2) array of the
    point, at every label, at lambda on an eigenvalue and between two; the
    diagonal and the Kuznecov sum are the sums of their densities.  An
    empty label still refuses a non-finite point."""
    prof = geometry.sphere_profile() if which == "open" else geometry.torus_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 2, 5, 200)
    if which == "imported":
        eigensolve.export_basis(b, tmp_path / "b.txt")
        b = eigensolve.import_basis(tmp_path / "b.txt", prof)
    L, nodes = prof.length, b.grid[0]
    s_values = [0.0, L, 0.5 * (nodes[3] + nodes[4]), 1.1]
    if prof.closed:
        s_values += [-5e-324, -1e-17, -0.3, math.nextafter(L, math.inf), L + 1e-15, 2 * L + 1.1]
    phis = [0.0, -0.0, 2.7, -3.9, 1e6, -4e9]
    points = [(s, phi) for s in s_values for phi in phis]
    points += [(s, phis[i % len(phis)]) for i, s in enumerate(nodes)]  # every node
    for m in np.unique(b.m).tolist():
        rsf = spectral.ReducedSpectralFunction(b, m)
        levels = b.eigenvalues[b.m == m].tolist()
        for lam in (-1.0, levels[0], 0.5 * (levels[0] + levels[1]), levels[1], b.lambda_max):
            rows = b.label_rows(m, lam)
            for x in points:
                want = b.evaluate(np.array([x]), rows)[:, 0]
                got = b._label_values(m, lam, x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, lam, x)
                if lam > b.lambda_max:  # past the truncation only the values are defined
                    continue
                diag = float(pairwise_sum(np.hypot(want.real, want.imag) ** 2))
                assert spectral.reduced_spectral_diag(rsf, x, lam) == diag
                if m == 0:
                    assert spectral.kuznecov_sum(b, x, lam) == diag
            for x in ((math.nan, 0.0), (1.0, math.inf)):
                with pytest.raises(InvalidPointError):
                    spectral.reduced_spectral_diag(rsf, x, -1.0)


def test_label_blocks_hold_radial_once():
    """Once every label has been read and one array evaluation has run, the
    arrays a discrete basis keeps come to one copy of radial, in the
    label blocks: no slope table is kept beside them."""
    def read(b):
        for m in np.unique(b.m).tolist():
            spectral.reduced_spectral_diag(spectral.ReducedSpectralFunction(b, m), (1.0, 0.5),
                                           b.lambda_max)
        b.evaluate(np.array([[1.0, 0.5], [2.0, 0.1]]))

    prof = geometry.sphere_profile()
    read(eigensolve.surface_of_revolution_basis(prof, 1, 2, 100))  # numpy's first-call caches
    b = eigensolve.surface_of_revolution_basis(prof, 8, 16, 400)
    tracemalloc.start()
    try:
        read(b)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * b.radial.nbytes, kept / b.radial.nbytes


@pytest.mark.parametrize("route", ["one point", "array"])
def test_points_off_the_profile_raise(route):
    """A non-finite coordinate raises on every profile, s outside [0, L] on
    an open one; a closed one wraps s."""
    def read(basis, s, phi):
        return basis.evaluate((s, phi) if route == "one point" else [(1.0, 0.0), (s, phi)])

    sphere = eigensolve.surface_of_revolution_basis(geometry.sphere_profile(), 2, 4, 200)
    torus = eigensolve.surface_of_revolution_basis(geometry.torus_profile(), 2, 4, 200)
    for s, phi in ((-1.0, 0.0), (5.0, 0.0), (-1e-300, 0.0), (math.pi * (1 + 1e-15), 0.0),
                   (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)):
        with pytest.raises(InvalidPointError):
            read(sphere, s, phi)
    for s, phi in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(InvalidPointError):
            read(torus, s, phi)
    for basis in (sphere, torus):  # a point is exactly (s, phi)
        for x in ((1.0,), (1.0, 0.0, 0.0)):
            with pytest.raises(InvalidPointError):
                basis.evaluate(x if route == "one point" else [x, x])
    L = torus.manifold.length
    assert np.array_equal(read(torus, -1.0, 0.4), read(torus, L - 1.0, 0.4))
    read(sphere, 0.0, 0.4), read(sphere, math.pi, 0.4)  # the ends lie on the profile
    rsf = spectral.ReducedSpectralFunction(sphere, 0)
    with pytest.raises(InvalidPointError):
        spectral.reduced_spectral_diag(rsf, (-1.0, 0.0), 10.0)


@pytest.mark.parametrize("make, point, label, lams", [
    (lambda: eigensolve.sphere_basis(20.0), [0.1, 0.2, math.nan], 3, (5.0, 20.0)),
    (lambda: eigensolve.torus_basis(500.0), [math.inf, 0.2], 3, (100.0, 500.0)),
], ids=["sphere", "torus"])
def test_analytic_bases_refuse_a_non_finite_point(make, point, label, lams):
    """The sphere once read a NaN height as the pole.  The label has no mode
    up to the first lambda and one up to the second: whether the point
    raises does not hang on lambda."""
    basis = make()
    with pytest.raises(InvalidPointError):
        basis.evaluate(point)
    with pytest.raises(InvalidPointError):
        basis.evaluate([[0.0] * (len(point) - 1) + [1.0], point])
    rsf = spectral.ReducedSpectralFunction(basis, label)
    assert [spectral.counting_function(rsf, lam) > 0 for lam in lams] == [False, True]
    for lam in lams:
        with pytest.raises(InvalidPointError):
            spectral.reduced_spectral_diag(rsf, point, lam)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_sphere_heights_keep_the_scalar_round_trip(p):
    """The sphere's evaluator takes cos theta as the clipped height z, where
    the scalar formulas take cos(acos(z)): on every meridian lpnorms-sphere
    reads, the zonal mode it reads is bit for bit the ladder at
    cos(acos(z))."""
    k_hi = max(lab._K_GRID)
    basis = eigensolve.sphere_basis(k_hi * (k_hi + 1.0))
    for k in lab._K_GRID:
        nodes, _, _, to_points = basis.manifold._meridian(math.sqrt(k * (k + 1.0)), p)
        pts = to_points(nodes)
        round_trip = np.array([math.cos(math.acos(z)) for z in pts[:, 2].tolist()])
        assert np.array_equal(round_trip, pts[:, 2])
        want = specfun.assoc_ladder(0, k, round_trip, degrees=[k])
        got = basis.evaluate(pts, k * (k + 1))
        assert got.real.tobytes() == want.tobytes() and not np.any(got.imag)


def test_export_import_export_is_byte_identical(tmp_path):
    prof = geometry.torus_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 2, 5, 200)
    eigensolve.export_basis(b, tmp_path / "a.txt")
    b2 = eigensolve.import_basis(tmp_path / "a.txt", prof)
    eigensolve.export_basis(b2, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert np.array_equal(b2.radial, b.radial) and np.array_equal(b2.eigenvalues, b.eigenvalues)


def test_export_matches_the_per_value_writer(tmp_path):
    """export_basis writes, byte for byte, what one format call per value wrote."""
    for prof in (geometry.sphere_profile(), geometry.torus_profile()):
        b = eigensolve.surface_of_revolution_basis(prof, 2, 3, 150)
        radial = b.radial[:, 1:-1]
        lines = [
            "# radial eigenbasis, text format v1",
            f"# profile={prof.name} closed={int(prof.closed)} length={prof.length:.17g} "
            f"grid_n={radial.shape[1]} lambda_max={b.lambda_max:.17g}",
            "# line format: eigenvalue label u(s_1) ... u(s_n); s_i = (i-1/2) length/n",
        ]
        for lam, m, u in zip(b.eigenvalues.tolist(), b.m.tolist(), radial):
            lines.append(f"{lam:.17g} {m} " + " ".join(f"{v:.17g}" for v in u.tolist()))
        eigensolve.export_basis(b, tmp_path / "basis.txt")
        assert (tmp_path / "basis.txt").read_text() == "\n".join(lines) + "\n"


def test_mode_views_serve_the_benchmark(tmp_path):
    """The per-mode views, exactly as the benchmark reads them: basis.modes,
    and each view's evaluator, eigenvalue, label.m, quantum and label
    equality, all read off the basis arrays.  No other test reads a view."""
    prof = geometry.torus_profile()
    b = eigensolve.surface_of_revolution_basis(prof, 2, 3, 200)
    eigensolve.export_basis(b, tmp_path / "basis.txt")
    again = eigensolve.import_basis(tmp_path / "basis.txt", prof)
    x = (1.1, 0.4)
    modes = b.modes
    assert len(modes) == len(b.eigenvalues)
    for i, (md, other) in enumerate(zip(modes, again.modes)):
        assert md.evaluator(x) == b.evaluate(x, i)[0, 0]
        assert md.eigenvalue == float(b.eigenvalues[i])
        assert md.label.m == int(b.m[i])
        assert md.quantum == tuple(b.quantum[i].tolist())
        assert md.label == other.label
        assert (md.label == modes[0].label) == (b.m[i] == b.m[0])
