"""Checks of the program's outputs against computations made apart from it.

Nothing here calls the solver's eigensolver, its operators or its scaling
code.  The MaxCut cost is rebuilt from the generated edge list and the QAP
cost from the generated matrices; lambda_max(C - A*(y)) comes from
``scipy.sparse.linalg.eigsh`` (MaxCut) or dense ``numpy.linalg.eigvalsh``
(QAP); cuts and assignment costs are recounted from the instance data.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from specbundle import bundle
from workloads import RoundResult, certificate

# relative agreement asked of two computations of the same quantity
MATCH_TOL = 1e-8
# slack for inequalities between quantities computed in floating point
BOUND_TOL = 1e-9


class MaxCutTruth:
    """Scaled MaxCut data of the induced graph on vertices 0..size-1, from
    the generated edge list: C = (L/4)/||L/4||_F, b = 1/size."""

    def __init__(self, edges: np.ndarray, size: int):
        keep = edges[1] < size
        self.u, self.v = edges[0][keep], edges[1][keep]
        self.n = size
        deg = np.bincount(self.u, minlength=size) + np.bincount(self.v, minlength=size)
        adj = sp.coo_matrix((np.ones(self.u.size), (self.u, self.v)), shape=(size, size))
        lap = sp.diags(deg.astype(float)) - adj - adj.T
        # ||L||_F^2 = sum(deg^2) + 2 * edges for a unit-weight graph
        self.scale_c = float(np.sqrt(float(deg @ deg) + 2.0 * self.u.size)) / 4.0
        self.cost = (lap / (4.0 * self.scale_c)).tocsr()

    def lambda_max(self, y: np.ndarray) -> float:
        m = (self.cost - sp.diags(y)).tocsr()
        v0 = np.random.default_rng(0).standard_normal(self.n)
        return float(spla.eigsh(m, k=1, which="LA", tol=1e-12, v0=v0, return_eigenvectors=False)[0])

    def dual_value(self, y: np.ndarray, alpha: float) -> tuple[float, float]:
        lam = self.lambda_max(y)
        return lam, alpha * max(lam, 0.0) + float(y.sum()) / self.n

    def upper_bound(self, f_y: float) -> float:
        """Cut-value bound implied by a dual value of the scaled problem."""
        return f_y * self.scale_c * self.n

    def cut(self, assignment: np.ndarray) -> float:
        return float(np.count_nonzero(assignment[self.u] != assignment[self.v]))


class QapTruth:
    """Lifted QAP cost from the generated W and D; the constraint operator
    is applied from the problem's entry lists with plain numpy."""

    def __init__(self, w: np.ndarray, d: np.ndarray):
        self.w, self.d = w.astype(float), d.astype(float)
        self.size = w.shape[0]
        self.n = self.size**2 + 1
        self.scale_c = float(np.linalg.norm(self.w) * np.linalg.norm(self.d))
        self.cost = np.zeros((self.n, self.n))
        self.cost[1:, 1:] = -np.kron(self.d, self.w) / self.scale_c

    def lambda_max(self, prob, y: np.ndarray) -> float:
        ops = prob.constraints
        contrib = y[ops.idx] * ops.vals
        adj = np.zeros((self.n, self.n))
        np.add.at(adj, (ops.rows, ops.cols), contrib)
        off = ops.rows != ops.cols
        np.add.at(adj, (ops.cols[off], ops.rows[off]), contrib[off])
        return float(np.linalg.eigvalsh(self.cost - adj)[-1])

    def dual_value(self, prob, y: np.ndarray) -> tuple[float, float]:
        lam = self.lambda_max(prob, y)
        return lam, prob.alpha * max(lam, 0.0) + float(prob.b @ y)

    def lower_bound(self, f_y: float) -> float:
        """Assignment-cost bound implied by a dual value of the negated,
        scaled problem."""
        return -f_y * self.scale_c * (self.size + 1)

    def cost_of(self, perm: np.ndarray) -> float:
        p = np.eye(self.size)[perm]
        return float(np.trace(self.w @ p @ self.d @ p.T))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_TOL * (1.0 + abs(b))


def _same_state(saved, loaded) -> bool:
    pairs = [
        (saved.y, loaded.y),
        (saved.nu, loaded.nu),
        (saved.model.basis, loaded.model.basis),
        (saved.model.stats.constr_image, loaded.model.stats.constr_image),
        (saved.model.store.sk.sketch_mat, loaded.model.store.sk.sketch_mat),
    ]
    scalars = saved.f_y == loaded.f_y and saved.model.stats.cost_ip == loaded.model.stats.cost_ip
    return scalars and all(np.array_equal(a, b) for a, b in pairs)


def check_round(rr: RoundResult, manifest: dict, workdir: Path) -> tuple[dict[str, list[str]], int]:
    """Failed checks per operation, and the number of checks made."""
    failures: dict[str, list[str]] = {}
    made = 0

    def check(label: str, ok: bool, what: str) -> None:
        nonlocal made
        made += 1
        if not ok:
            failures.setdefault(label, []).append(what)

    is_qap = manifest["spec"]["kind"] == "qap"
    ops = rr.operations
    # the parse of stage s feeds operation s; the state saved after
    # operation s feeds operation s+1
    if is_qap:
        truth = QapTruth(np.load(workdir / "weights.npy"), np.load(workdir / "distances.npy"))
        for stage, q in rr.parsed:
            same = np.array_equal(q.weights, truth.w) and np.array_equal(q.distances, truth.d)
            check(ops[stage], same, "parsed W and D differ from the generated ones")
        for e in rr.evidence:
            check(e.label, np.allclose(e.prob.cost.toarray(), truth.cost, rtol=0, atol=1e-14),
                  "cost matrix differs from -kron(D, W)/(|W| |D|)")
    else:
        edges = np.load(workdir / "edges.npy")
        sizes = manifest["sizes"]
        truths = {size: MaxCutTruth(edges, size) for size in sizes}
        for stage, g in rr.parsed:
            t = truths[sizes[stage]]
            order = np.lexsort((t.v, t.u))
            same = (
                g.n == t.n
                and np.array_equal(g.edges_u, t.u[order])
                and np.array_equal(g.edges_v, t.v[order])
                and np.all(g.edges_w == 1.0)
            )
            check(ops[stage], bool(same), "parsed graph differs from the generated edge list")
    for i, (saved, path) in enumerate(rr.saved_states):
        loaded = bundle.record_to_state(bundle.load_state(path))
        check(ops[i + 1], _same_state(saved, loaded), "state read back differs from the state saved")

    for e in rr.evidence:
        if is_qap:
            lam, f_y = truth.dual_value(e.prob, e.y)
        else:
            t = truths[e.n]
            lam, f_y = t.dual_value(e.y, e.prob.alpha)
        check(e.label, _close(lam, e.lam_y) and _close(f_y, e.f_y),
              f"lambda_max recomputed as {lam:.12g} (program {e.lam_y:.12g}), f(y) {f_y:.12g} (program {e.f_y:.12g})")
        if e.certified:
            measures = certificate(e.prob, f_y, e.c_x, e.a_x, lam)
            check(e.label, max(measures) <= e.eps,
                  f"certificate fails with the recomputed lambda_max: {measures}")
        resid = float(np.linalg.norm(e.a_x - e.prob.b))
        check(e.label, e.c_x <= f_y + float(np.linalg.norm(e.y)) * resid + BOUND_TOL * (1 + abs(e.c_x)),
              "weak duality <C,X> <= f(y) + |y| |A(X)-b| fails")
        check(e.label, e.tr_x <= e.prob.alpha * (1 + BOUND_TOL), "trace of X exceeds the trace bound")
        gram = e.factor.T @ e.factor
        check(e.label, np.all(np.isfinite(e.factor))
              and float(np.max(np.abs(gram - np.eye(gram.shape[0])))) <= 1e-8,
              "reconstructed factor columns are not orthonormal")
        check(e.label, bool(np.all(e.lams >= 0)), "reconstructed weights are negative")
        if e.rounded is None:
            continue
        if is_qap:
            perm = np.asarray(e.rounded.perm)
            check(e.label, np.array_equal(np.sort(perm), np.arange(truth.size)), "rounding is not a permutation")
            cost = truth.cost_of(perm)
            check(e.label, cost == e.rounded.objective,
                  f"trace(W P D P^T) = {cost:.12g}, rounding reports {e.rounded.objective:.12g}")
            bound = truth.lower_bound(f_y)
            check(e.label, bound <= cost + BOUND_TOL * abs(cost),
                  f"dual bound {bound:.12g} exceeds the rounded cost {cost:.12g}")
        else:
            x = np.asarray(e.rounded.assignment)
            check(e.label, x.shape == (t.n,) and bool(np.all(np.abs(x) == 1)), "cut is not a +-1 vector")
            cut = t.cut(x)
            check(e.label, cut == e.rounded.value, f"recounted cut {cut:.12g}, rounding reports {e.rounded.value:.12g}")
            bound = t.upper_bound(f_y)
            check(e.label, cut <= bound * (1 + BOUND_TOL), f"cut {cut:.12g} exceeds the dual bound {bound:.12g}")
    return failures, made
