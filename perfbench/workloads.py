"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload has ``setup(seed, scratch)`` (untimed by the pass clock; it is
what ``setup_s`` measures), ``run(state)`` (one timed pass, returning its
outputs) and ``check(state, out)``, which returns a ``Checked`` record: how
many of the pass's ``ops_per_pass`` operations failed a check, a digest of
the checked outputs, and the worst error seen per check.

Checks never use ``assert``: they must survive ``python -O``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from equiweyl import cli, eigensolve, geometry, spectral, weylcoef

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TWO_PI = 2.0 * math.pi


@dataclass
class Checked:
    failed: int
    digest: str
    worst: dict  # check name -> worst error seen in the pass


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=1)
def load_reference():
    """Values recorded at the commit that defined the benchmark (see record_reference.py)."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# suite: the command users run; inputs fixed by the registry


class Suite:
    """``equiweyl suite --all`` in-process, serial, into a fresh directory."""

    name = "suite"
    ids = ("weyl-torus-m3", "weyl-sphere-equator", "weyl-sphere-pole", "counting-sphere",
           "counting-torus", "concentration", "lpnorms-sphere", "lpnorms-torus", "kuznecov",
           "statphase-gaussian", "statphase-sphere", "hybrid", "interp", "critscan")
    volatile = ("timestamp", "runtime_s")
    expected_fail = "weyl-sphere-pole"
    # the frozen pole constant is off by exactly pi (see README)
    pole_ratio = math.pi
    pole_rtol = 1e-9
    # one operation per experiment, plus the suite command's exit code
    ops_per_pass = len(ids) + 1

    def setup(self, seed, scratch):
        return {"scratch": scratch}

    def run(self, state):
        out_dir = tempfile.mkdtemp(prefix="suite-", dir=state["scratch"])
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["suite", "--all", "--out-dir", out_dir])
        return {"code": code, "dir": out_dir}

    def check(self, state, out):
        failed = int(out["code"] != 1)
        canon = []
        worst_pole = math.inf
        for eid in self.ids:
            try:
                report = json.loads(Path(out["dir"], f"{eid}.json").read_text())
            except (OSError, ValueError):
                failed += 1
                continue
            ok = report.get("experiment") == eid
            if eid == self.expected_fail:
                dev = abs(report["ratio_at_top"] / self.pole_ratio - 1.0)
                worst_pole = dev
                ok = ok and report["verdict"] == "fail" and dev <= self.pole_rtol
            else:
                ok = ok and report["verdict"] == "pass"
            failed += not ok
            for key in self.volatile:
                report.pop(key, None)
            canon.append(json.dumps(report, sort_keys=True))
        for p in Path(out["dir"]).iterdir():
            p.unlink()
        Path(out["dir"]).rmdir()
        return Checked(failed, _digest(out["code"], *canon),
                       {"pole_ratio_over_pi_minus_1": worst_pole})


# ---------------------------------------------------------------------------
# sor_build: the surface-of-revolution eigensolver on an open and a closed profile


def _node_values(basis):
    """Radial values of every mode at the cell centres, read through its evaluator."""
    s_nodes = np.asarray(basis.grid[0])
    return np.array([[md.evaluator((s, 0.0)).real for s in s_nodes] for md in basis.modes])


def _orthonormality_error(basis, U):
    """max |2 pi h sum_i u_a u_b r - delta_ab| over each m block."""
    prof = basis.manifold
    s_nodes = np.asarray(basis.grid[0])
    h = prof.length / len(s_nodes)
    r = np.asarray(prof.r(s_nodes), dtype=float)
    labels = np.array([md.label.m for md in basis.modes])
    worst = 0.0
    for m in np.unique(labels):
        block = U[labels == m]
        gram = TWO_PI * h * (block * r) @ block.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(block))))))
    return worst


class SorBuild:
    """``surface_of_revolution_basis`` on the open sphere and the closed torus profile."""

    name = "sor_build"
    sphere_shape = (5, 20, 1000)  # m_max, modes per m, grid_n
    torus_shape = (2, 10, 1000)
    sphere_modes = 220
    torus_modes = 50
    # second-order finite differences at grid_n 1000: observed worst 3.4e-4
    sphere_rtol = 2e-3
    ortho_tol = 1e-10
    # the closed profile has near-degenerate pairs (relative gaps ~1e-7) that
    # fall outside the solver's 1e-9 grouping; its three inverse iterations
    # leave overlaps up to 9.3e-8 there.  This bound still fails a lost
    # degenerate-group path, whose overlaps are of order one.
    torus_ortho_tol = 1e-6
    # far below the discretization error, far above solver round-off
    torus_rtol = 1e-8
    # one operation per basis build
    ops_per_pass = 2

    def setup(self, seed, scratch):
        return {"sphere": geometry.sphere_profile(), "torus": geometry.torus_profile()}

    def run(self, state):
        sphere = eigensolve.surface_of_revolution_basis(state["sphere"], *self.sphere_shape)
        torus = eigensolve.surface_of_revolution_basis(state["torus"], *self.torus_shape)
        return {"sphere": sphere, "torus": torus}

    @staticmethod
    def torus_eigenvalues_by_m(basis):
        by_m = {}
        for md in basis.modes:
            by_m.setdefault(md.label.m, []).append(md.eigenvalue)
        return {m: sorted(v) for m, v in sorted(by_m.items())}

    def check(self, state, out):
        sphere, torus = out["sphere"], out["torus"]
        U_s, U_t = _node_values(sphere), _node_values(torus)

        lam = np.array([md.eigenvalue for md in sphere.modes])
        k = np.array([abs(md.quantum[0]) + md.quantum[1] for md in sphere.modes])
        exact = k * (k + 1.0)
        sphere_err = float(np.max(np.abs(lam - exact) / np.maximum(exact, 1.0)))
        ortho_s = _orthonormality_error(sphere, U_s)
        ok_sphere = (len(sphere.modes) == self.sphere_modes and sphere_err <= self.sphere_rtol
                     and ortho_s <= self.ortho_tol)

        got = self.torus_eigenvalues_by_m(torus)
        recorded = load_reference()["sor_build"]["torus_eigenvalues_by_m"]
        ref = {int(m): v for m, v in recorded.items()}
        torus_err = math.inf
        if got.keys() == ref.keys() and all(len(got[m]) == len(ref[m]) for m in ref):
            torus_err = max(float(np.max(np.abs(np.subtract(got[m], ref[m]))
                                         / (1.0 + np.abs(ref[m])))) for m in ref)
        ortho_t = _orthonormality_error(torus, U_t)
        ok_torus = (len(torus.modes) == self.torus_modes and torus_err <= self.torus_rtol
                    and ortho_t <= self.torus_ortho_tol)

        digest = _digest(lam, U_s, np.array([md.eigenvalue for md in torus.modes]), U_t,
                         [md.label.m for md in sphere.modes + torus.modes])
        return Checked((not ok_sphere) + (not ok_torus), digest,
                       {"sphere_eigenvalue_rel": sphere_err, "sphere_orthonormality": ortho_s,
                        "torus_eigenvalue_rel_vs_reference": torus_err,
                        "torus_orthonormality": ortho_t})


# ---------------------------------------------------------------------------
# sor_query: a seeded batch of reads against a prebuilt sphere-profile basis


class SorQuery:
    """Reads through the per-mode evaluator, the lifted-orbit route and text I/O."""

    name = "sor_query"
    shape = (8, 12, 600)
    labels = tuple(range(-8, 9))
    n_points = 1000
    n_kuznecov = 100
    n_local = 200
    lp_labels = tuple(range(0, 8))
    lp_orders = (4.0, math.inf)
    # lambda halfway between sphere levels k(k+1) and (k+1)(k+2), below lambda_max
    midpoints = tuple(float((k + 1) ** 2) for k in range(9))
    # fixed probes whose diagonals are recorded in reference.json
    probe_s = tuple(float(v) for v in np.linspace(0.15, math.pi - 0.3, 8))
    probe_lam = tuple(float((i + 2) ** 2) for i in range(8))
    # discretization error against the round sphere at grid_n 600: observed 2.2e-4
    sphere_tol = 2e-3
    identity_tol = 1e-10
    closed_form_tol = 1e-12
    resolved_pole_distance = 0.3
    reference_rtol = 1e-8
    # levels k = m..8 lie below lambda_max for every lp label m
    windows = tuple((m, k * (k + 1) - 0.5) for m in lp_labels for k in range(m, 9))
    # each diagonal, count, probe, Kuznecov sum, coefficient and norm is one
    # operation; so is the export/import round trip
    ops_per_pass = (2 * n_points * len(labels) + len(probe_s) * len(labels) + n_kuznecov
                    + n_local + 1 + len(windows) * len(lp_orders) + 1)

    def setup(self, seed, scratch):
        rng = np.random.default_rng(seed)
        profile = geometry.sphere_profile()
        basis = eigensolve.surface_of_revolution_basis(profile, *self.shape)
        return {
            "profile": profile,
            "basis": basis,
            "scratch": scratch,
            "s": rng.uniform(0.0, math.pi, self.n_points),
            "phi": rng.uniform(0.0, TWO_PI, self.n_points),
            "lam": rng.choice(self.midpoints, self.n_points),
            "local_s": rng.uniform(0.0, math.pi, self.n_local),
        }

    def run(self, state):
        basis = state["basis"]
        profile = state["profile"]
        rsfs = [spectral.ReducedSpectralFunction(basis, m) for m in self.labels]
        s, phi, lam = state["s"], state["phi"], state["lam"]
        diag = np.empty((self.n_points, len(rsfs)))
        count = np.empty((self.n_points, len(rsfs)), dtype=np.int64)
        for i in range(self.n_points):
            x, li = (s[i], phi[i]), float(lam[i])
            for j, rsf in enumerate(rsfs):
                diag[i, j] = spectral.reduced_spectral_diag(rsf, x, li)
                count[i, j] = spectral.counting_function(rsf, li)
        probes = np.array([[spectral.reduced_spectral_diag(rsf, (ps, 0.0), pl) for rsf in rsfs]
                           for ps, pl in zip(self.probe_s, self.probe_lam)])
        kuz = np.array([spectral.kuznecov_sum(basis, (s[i], phi[i]), float(lam[i]))
                        for i in range(self.n_kuznecov)])
        local = np.array([weylcoef.local_leading_coefficient(profile, [v, 0.0], 0).coefficient
                          for v in state["local_s"]])
        glob = weylcoef.global_leading_coefficient(profile, 0)
        lp = np.array([spectral.cluster_lp_norm(rsfs[self.labels.index(m)], w, p)
                       for m, w in self.windows for p in self.lp_orders])
        path = Path(state["scratch"], "basis.txt")
        eigensolve.export_basis(basis, path)
        imported = eigensolve.import_basis(path, profile)
        return {"diag": diag, "count": count, "probes": probes, "kuz": kuz, "local": local,
                "global": glob, "lp": lp, "path": path, "imported": imported}

    def oracles(self, state):
        """Inputs-only reference values, computed on the first check and kept."""
        if "oracles" not in state:
            s, lam = state["s"], state["lam"]
            state["oracles"] = {
                "sphere": np.array([[spectral.sphere_diag_direct(m, s[i], float(lam[i]))
                                     for m in self.labels] for i in range(self.n_points)]),
                "counts": np.array([[spectral.sphere_count_direct(m, float(lam[i]))
                                     for m in self.labels] for i in range(self.n_points)]),
                "closed": np.array([weylcoef.equator_coefficient_closed_form(min(v, math.pi - v))
                                    for v in state["local_s"]]),
                "round": np.array([weylcoef.local_leading_coefficient(
                    geometry.RoundSphere2(), geometry.sphere_point(v), 0).coefficient
                    for v in state["local_s"]]),
                "nodes": _node_values(state["basis"]),
            }
        return state["oracles"]

    def check(self, state, out):
        basis = state["basis"]
        ref = load_reference()["sor_query"]
        oracle = self.oracles(state)
        failed = 0

        # diagonals against the round-sphere closed form, counts exactly
        sphere, counts = oracle["sphere"], oracle["counts"]
        diag_err = np.abs(out["diag"] - sphere) / (1.0 + np.abs(sphere))
        failed += int(np.sum(diag_err > self.sphere_tol)) + int(np.sum(out["count"] != counts))

        probe_ref = np.array(ref["probe_diagonals"])
        probe_err = np.abs(out["probes"] - probe_ref) / (1.0 + np.abs(probe_ref))
        failed += int(np.sum(probe_err > self.reference_rtol))

        # the orbit-averaged sum must equal the label-0 diagonal (abelian action)
        diag0 = out["diag"][: self.n_kuznecov, self.labels.index(0)]
        kuz_err = np.abs(out["kuz"] - diag0) / (1.0 + np.abs(diag0))
        failed += int(np.sum(kuz_err > self.identity_tol))

        # the lifted-orbit route of the profile must reproduce the round
        # sphere's closed-form orbit length at the same fiber nodes
        route_err = np.abs(out["local"] / oracle["round"] - 1.0)
        # and both must match the closed-form fiber integral where the
        # 64-node fiber rule resolves it; nearer the poles its quadrature
        # error is reported, not counted (4e-4 at 0.05 rad, 1e-12 at 0.2 rad)
        local_err = np.abs(out["local"] / oracle["closed"] - 1.0)
        pole_distance = np.minimum(state["local_s"], math.pi - state["local_s"])
        resolved = pole_distance >= self.resolved_pole_distance
        failed += int(np.sum(route_err > self.closed_form_tol))
        failed += int(np.sum(local_err[resolved] > self.closed_form_tol))

        global_err = abs(out["global"] / ref["global_coefficient"] - 1.0)
        failed += int(global_err > self.reference_rtol)

        lp_ref = np.array(ref["lp_norms"])
        lp_err = np.abs(out["lp"] / lp_ref - 1.0)
        failed += int(np.sum(lp_err > self.reference_rtol))

        # export/import keeps eigenvalues and labels exactly, and node values
        # exactly at every node of every mode
        imported = out["imported"]
        text = out["path"].read_bytes()
        same = (len(imported.modes) == len(basis.modes)
                and all(a.eigenvalue == b.eigenvalue and a.label == b.label
                        for a, b in zip(basis.modes, imported.modes))
                and np.array_equal(_node_values(imported), oracle["nodes"]))
        failed += not same
        out["path"].unlink()

        digest = _digest(out["diag"], out["count"], out["probes"], out["kuz"], out["local"],
                         out["global"], out["lp"], text)
        return Checked(failed, digest, {
            "diagonal_vs_sphere_rel": float(np.max(diag_err)),
            "probe_vs_reference_rel": float(np.max(probe_err)),
            "kuznecov_vs_label0_rel": float(np.max(kuz_err)),
            "local_vs_round_sphere_rel": float(np.max(route_err)),
            "local_vs_closed_form_rel": float(np.max(local_err[resolved], initial=0.0)),
            "local_vs_closed_form_rel_near_pole": float(np.max(local_err[~resolved], initial=0.0)),
            "global_vs_reference_rel": float(global_err),
            "lp_vs_reference_rel": float(np.max(lp_err)),
        })


WORKLOADS = {w.name: w for w in (Suite(), SorBuild(), SorQuery())}
