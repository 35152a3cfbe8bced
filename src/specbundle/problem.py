"""SDP problem representation, scaling, projections, and instance builders.

A problem is the tuple (cost C, constraint operator bundle, right-hand side
b, inequality index set, trace bound alpha).  Constraint matrices are never
materialized as dense n x n lists: the solver only needs a handful of
operator actions, which the two bundle implementations below provide either
through the diagonal structure (MaxCut) or through flat sparse entry
families (QAP and generic problems).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .eigsolve import LinOp
from .symlin import svec_dim, tri_indices

__all__ = [
    "ParseError",
    "GraphInstance",
    "QapInstance",
    "DiagonalConstraints",
    "SparseConstraintFamilies",
    "SdpProblem",
    "build_maxcut",
    "build_qap",
    "build_from_families",
    "proj_K",
    "proj_N",
    "dual_slack_operator",
    "parse_graph_mm",
    "write_graph_mm",
    "parse_qaplib",
    "write_qaplib",
]


class ParseError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# instances


_EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", float)])
# edges are keyed by lo * n + hi, which must not overflow int64
_MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)


@dataclass
class GraphInstance:
    """Undirected weighted graph; duplicate edges are summed, self loops dropped."""

    n: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    edges_w: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int, float]]) -> "GraphInstance":
        rec = np.fromiter(edges, dtype=_EDGE_DTYPE)
        return cls.from_arrays(n, rec["u"], rec["v"], rec["w"])

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> "GraphInstance":
        """Edge list as three parallel arrays.  Self loops are dropped, then
        the first edge in input order with an endpoint outside [0, n) raises
        ValueError.  Duplicates in either orientation are summed in input
        order, and the edges come out sorted by (min, max) endpoint.  A
        non-finite summed weight raises ValueError."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > _MAX_VERTICES:
            raise ValueError(f"graph with n={n} vertices is too large")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        bad = (lo < 0) | (hi >= n)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"edge ({u[e]},{v[e]}) out of range for n={n}")
        keys, inverse = np.unique(lo * n + hi, return_inverse=True)
        # bincount adds each pair's weights in input order, starting from 0.0;
        # with no edges it returns integers
        ew = np.bincount(inverse, weights=w, minlength=keys.size).astype(float, copy=False)
        if not np.isfinite(ew).all():
            raise ValueError("edge weights must be finite")
        return cls(n=n, edges_u=keys // n, edges_v=keys % n, edges_w=ew)

    @property
    def num_edges(self) -> int:
        return len(self.edges_w)

    def laplacian(self) -> sp.csr_matrix:
        n = self.n
        u, v, w = self.edges_u, self.edges_v, self.edges_w
        deg = np.zeros(n)
        np.add.at(deg, u, w)
        np.add.at(deg, v, w)
        rows = np.concatenate([u, v, np.arange(n)])
        cols = np.concatenate([v, u, np.arange(n)])
        data = np.concatenate([-w, -w, deg])
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

    def subgraph(self, keep: int) -> "GraphInstance":
        """Induced subgraph on the first ``keep`` vertices."""
        mask = (self.edges_u < keep) & (self.edges_v < keep)
        return GraphInstance.from_arrays(
            keep, self.edges_u[mask], self.edges_v[mask], self.edges_w[mask]
        )


@dataclass
class QapInstance:
    """Assignment-alignment instance: symmetric weight and distance matrices."""

    weights: np.ndarray
    distances: np.ndarray
    known_optimum: Optional[float] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        d = np.asarray(self.distances, dtype=float)
        if w.shape != d.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight and distance matrices must be square and the same size")
        for name, a in (("weight", w), ("distance", d)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} matrix must be finite")
            # near the float range a - a.T overflows, which rightly reads as
            # asymmetric
            with np.errstate(over="ignore"):
                sym = np.allclose(a, a.T, atol=1e-12 * (1 + np.abs(a).max(initial=0.0)))
            if not sym:
                raise ValueError(f"{name} matrix must be symmetric")
        self.weights = w
        self.distances = d

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def shrink(self) -> "QapInstance":
        """Drop the final row and column of both matrices."""
        return QapInstance(self.weights[:-1, :-1].copy(), self.distances[:-1, :-1].copy())


# ---------------------------------------------------------------------------
# constraint operator bundles


class DiagonalConstraints:
    """Constraint family A_i = e_i e_i^T: the map X -> diag(X)."""

    def __init__(self, n: int):
        self.n = n
        self.m = n

    def primal_image_lowrank(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.einsum("ij,jk,ik->i", v, s, v)

    def primal_image_factor(self, u: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return (u * u) @ lams

    def primal_image_dense(self, x: np.ndarray) -> np.ndarray:
        return np.diag(x).copy()

    def primal_image_sparse(self, x: sp.spmatrix) -> np.ndarray:
        return x.diagonal()

    def adjoint_matrix(self, y: np.ndarray):
        return sp.diags(y)

    def adjoint_matvec(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return y * v

    def adjoint_inner_lowrank(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v.T @ (v * y[:, None])

    def compressed_rows(self, v: np.ndarray) -> np.ndarray:
        # svec(V^T A_i V) for A_i = e_i e_i^T is svec of the outer product of
        # row i of V with itself
        i, j, w = tri_indices(v.shape[1])
        out = v[:, i]
        out *= v[:, j]
        out *= w
        return out

    def frob_norms(self) -> np.ndarray:
        return np.ones(self.m)


class SparseConstraintFamilies:
    """Flat entry lists: constraint ``idx[e]`` has A[rows[e], cols[e]] =
    A[cols[e], rows[e]] = vals[e] with rows <= cols."""

    def __init__(self, n: int, m: int, idx, rows, cols, vals):
        self.n = int(n)
        self.m = int(m)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        if np.any(self.rows > self.cols):
            raise ValueError("entries must have rows <= cols")
        self._diag = self.rows == self.cols
        self._eff = np.where(self._diag, 1.0, 2.0) * self.vals

    def scaled(self, factors: np.ndarray) -> "SparseConstraintFamilies":
        return SparseConstraintFamilies(
            self.n, self.m, self.idx, self.rows, self.cols, self.vals * factors[self.idx]
        )

    # row gathers go through np.take: the same copy as v[self.rows], without
    # the fancy-indexing overhead, which dominates at QAP sizes

    def primal_image_lowrank(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        mid = np.take(v, self.rows, axis=0) @ s
        vals = np.einsum("ej,ej->e", mid, np.take(v, self.cols, axis=0))
        return np.bincount(self.idx, weights=vals * self._eff, minlength=self.m)

    def primal_image_factor(self, u: np.ndarray, lams: np.ndarray) -> np.ndarray:
        mid = np.take(u, self.rows, axis=0) * lams[None, :]
        vals = np.einsum("ej,ej->e", mid, np.take(u, self.cols, axis=0))
        return np.bincount(self.idx, weights=vals * self._eff, minlength=self.m)

    def primal_image_dense(self, x: np.ndarray) -> np.ndarray:
        vals = x[self.rows, self.cols]
        return np.bincount(self.idx, weights=vals * self._eff, minlength=self.m)

    def primal_image_sparse(self, x: sp.csr_matrix) -> np.ndarray:
        if not self.idx.size:  # scipy returns a sparse matrix for an empty gather
            return np.zeros(self.m)
        vals = np.asarray(x[self.rows, self.cols]).ravel()
        return np.bincount(self.idx, weights=vals * self._eff, minlength=self.m)

    def adjoint_matrix(self, y: np.ndarray):
        data = y[self.idx] * self.vals
        off = ~self._diag
        r = np.concatenate([self.rows, self.cols[off]])
        c = np.concatenate([self.cols, self.rows[off]])
        d = np.concatenate([data, data[off]])
        return sp.coo_matrix((d, (r, c)), shape=(self.n, self.n)).tocsr()

    def adjoint_matvec(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.adjoint_matrix(y) @ v

    def adjoint_inner_lowrank(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        m = v.T @ (self.adjoint_matrix(y) @ v)
        return 0.5 * (m + m.T)

    def compressed_rows(self, v: np.ndarray) -> np.ndarray:
        k = v.shape[1]
        i, j, w = tri_indices(k)
        g = np.take(v, self.rows, axis=0)[:, :, None] * np.take(v, self.cols, axis=0)[:, None, :]
        g = g + g.transpose(0, 2, 1)
        g[self._diag] *= 0.5
        g *= self.vals[:, None, None]
        contrib = g[:, i, j] * w[None, :]
        out = np.zeros((self.m, svec_dim(k)))
        np.add.at(out, self.idx, contrib)
        return out

    def frob_norms(self) -> np.ndarray:
        sq = self.vals**2 * np.where(self._diag, 1.0, 2.0)
        return np.sqrt(np.bincount(self.idx, weights=sq, minlength=self.m))


# ---------------------------------------------------------------------------
# problem container


@dataclass
class SdpProblem:
    """Scaled SDP data: maximize <cost, X> s.t. A X (<=|=) b, X >= 0, tr X <= alpha."""

    n: int
    m: int
    cost: sp.csr_matrix
    constraints: object
    b: np.ndarray
    ineq_mask: np.ndarray  # boolean, True on inequality rows
    alpha: float
    scale_c: float
    scale_x: float
    sense: int = 1  # +1: native maximization; -1: cost was negated at build
    labels: Optional[list] = None
    op_norm_estimate: Optional[float] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.ineq_mask = np.asarray(self.ineq_mask, dtype=bool)
        self._ineq_idx = np.flatnonzero(self.ineq_mask)

    @property
    def ineq_idx(self) -> np.ndarray:
        return self._ineq_idx

    @property
    def has_ineq(self) -> bool:
        return self._ineq_idx.size > 0

    def unscale_objective(self, scaled_value: float) -> float:
        """Objective of the original (unscaled, sign-restored) problem."""
        return self.sense * scaled_value * self.scale_c * self.scale_x

    def cost_quad(self, v: np.ndarray) -> np.ndarray:
        m = v.T @ (self.cost @ v)
        return 0.5 * (m + m.T)

    def cost_factor_ip(self, u: np.ndarray, lams: np.ndarray) -> float:
        return float(np.einsum("ij,ij->j", self.cost @ u, u) @ lams)


def proj_K(z: np.ndarray, prob: SdpProblem) -> np.ndarray:
    """Euclidean projection onto the feasible right-hand-side set."""
    out = prob.b.copy()
    idx = prob.ineq_idx
    if idx.size:
        out[idx] = np.minimum(z[idx], prob.b[idx])
    return out


def proj_N(z: np.ndarray, prob: SdpProblem) -> np.ndarray:
    """Euclidean projection onto the dual-slack domain (<= 0 on inequality
    rows, 0 on equality rows)."""
    return np.where(prob.ineq_mask, np.minimum(z, 0.0), 0.0)


def dual_slack_operator(prob: SdpProblem, y: np.ndarray) -> LinOp:
    """cost - adjoint(y) as a symmetric operator, built once per evaluation."""
    z = (prob.cost - prob.constraints.adjoint_matrix(y)).tocsr()
    return LinOp(dim=prob.n, matvec=lambda v: z @ v, matmat=lambda b: z @ b)


# ---------------------------------------------------------------------------
# builders


def _frob_norm_sparse(a: sp.spmatrix) -> float:
    return float(np.sqrt((a.multiply(a)).sum()))


def build_maxcut(g: GraphInstance, alpha: float = 2.0) -> SdpProblem:
    """Quarter-Laplacian objective with unit diagonal constraints, rescaled
    so the cost has unit Frobenius norm and the solution has unit trace."""
    if g.n < 1:
        raise ValueError("empty graph")
    n = g.n
    lap = g.laplacian()
    c_raw = (lap / 4.0).tocsr()
    scale_c = _frob_norm_sparse(c_raw) or 1.0
    cost = (c_raw / scale_c).tocsr()
    scale_x = float(n)
    b = np.full(n, 1.0 / scale_x)
    return SdpProblem(
        n=n,
        m=n,
        cost=cost,
        constraints=DiagonalConstraints(n),
        b=b,
        ineq_mask=np.zeros(n, dtype=bool),
        alpha=alpha,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=1,
        labels=[("diag", i) for i in range(n)],
    )


def qap_constraint_entries(q: QapInstance):
    """Entry families, right-hand sides, inequality flags, and labels for the
    lifted assignment relaxation.  Composite indices follow a = i*n + k with
    i the first (distance) factor and k the second (weight) factor; row and
    column 0 of the lifted matrix hold the affine corner."""
    n = q.size
    kron = np.kron(q.distances, q.weights)
    idx: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b: list[float] = []
    ineq: list[bool] = []
    labels: list[tuple] = []

    def add_constraint(entries, rhs, is_ineq, label):
        ci = len(b)
        for r, c, v in entries:
            if r > c:
                r, c = c, r
            idx.append(ci)
            rows.append(r)
            cols.append(c)
            vals.append(v)
        b.append(rhs)
        ineq.append(is_ineq)
        labels.append(label)

    # partial trace over the first factor equals the identity
    for k in range(n):
        for l in range(k, n):
            v = 1.0 if k == l else 0.5
            entries = [(1 + i * n + k, 1 + i * n + l, v) for i in range(n)]
            add_constraint(entries, 1.0 if k == l else 0.0, False, ("tr1", k, l))
    # partial trace over the second factor equals the identity
    for i in range(n):
        for j in range(i, n):
            v = 1.0 if i == j else 0.5
            entries = [(1 + i * n + k, 1 + j * n + k, v) for k in range(n)]
            add_constraint(entries, 1.0 if i == j else 0.0, False, ("tr2", i, j))
    # lifted entries on the support of the objective stay nonnegative
    ka, kb = np.nonzero(kron)
    for a, bb in zip(ka.tolist(), kb.tolist()):
        v = -1.0 if a == bb else -0.5
        add_constraint([(1 + a, 1 + bb, v)], 0.0, True, ("G", a, bb))
    # diagonal of the lifted block reproduces the assignment vector
    for a in range(n * n):
        add_constraint([(1 + a, 1 + a, 1.0), (0, 1 + a, -0.5)], 0.0, False, ("diagY", a))
    # assignment row sums
    for k in range(n):
        entries = [(0, 1 + i * n + k, 0.5) for i in range(n)]
        add_constraint(entries, 1.0, False, ("rowsum", k))
    # assignment column sums
    for i in range(n):
        entries = [(0, 1 + i * n + k, 0.5) for k in range(n)]
        add_constraint(entries, 1.0, False, ("colsum", i))
    # assignment entries stay nonnegative
    for a in range(n * n):
        add_constraint([(0, 1 + a, -0.5)], 0.0, True, ("B", a))
    # affine corner
    add_constraint([(0, 0, 1.0)], 1.0, False, ("corner",))
    # lifted block trace
    add_constraint([(1 + a, 1 + a, 1.0) for a in range(n * n)], float(n), False, ("trY",))

    return (
        np.array(idx),
        np.array(rows),
        np.array(cols),
        np.array(vals, dtype=float),
        np.array(b, dtype=float),
        np.array(ineq, dtype=bool),
        labels,
        kron,
    )


def estimate_operator_norm(ops, n: int, tol: float = 1e-6, max_iters: int = 500, seed: int = 0) -> float:
    """Power iteration on the composition adjoint(image(.)) over symmetric
    matrices; returns an estimate of the operator 2-norm of the image map."""
    rng = np.random.RandomState(seed)
    x = rng.standard_normal((n, n))
    x = 0.5 * (x + x.T)
    x /= np.linalg.norm(x)
    lam_prev = 0.0
    lam = 0.0
    for _ in range(max_iters):
        z = ops.primal_image_dense(x)
        y = np.asarray(ops.adjoint_matrix(z).todense(), dtype=float)
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        x = y / lam
        if abs(lam - lam_prev) <= tol * lam:
            break
        lam_prev = lam
    return float(np.sqrt(lam))


def build_qap(q: QapInstance, alpha: float = 2.0) -> SdpProblem:
    """Lifted assignment relaxation with the full normalization: unit cost
    norm, unit solution trace, unit operator norm, and equal row norms.  The
    native minimization is encoded by negating the cost; reports restore the
    sign through ``sense``."""
    n = q.size
    big_n = n * n + 1
    idx, rows, cols, vals, b_raw, ineq, labels, kron = qap_constraint_entries(q)
    m = len(b_raw)

    ka, kb = np.nonzero(kron)
    c_raw = sp.coo_matrix(
        (-kron[ka, kb], (1 + ka, 1 + kb)), shape=(big_n, big_n)
    ).tocsr()
    scale_c = _frob_norm_sparse(c_raw) or 1.0
    cost = (c_raw / scale_c).tocsr()

    scale_x = float(n + 1)  # corner contributes 1, lifted block contributes n
    b = b_raw / scale_x

    ops = SparseConstraintFamilies(big_n, m, idx, rows, cols, vals)
    norms = ops.frob_norms()
    if np.any(norms == 0):
        raise ValueError("degenerate constraint with zero norm")
    ops = ops.scaled(1.0 / norms)
    b = b / norms
    op_norm = estimate_operator_norm(ops, big_n)
    if op_norm > 0:
        ops = ops.scaled(np.full(m, 1.0 / op_norm))
        b = b / op_norm

    return SdpProblem(
        n=big_n,
        m=m,
        cost=cost,
        constraints=ops,
        b=b,
        ineq_mask=ineq,
        alpha=alpha,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=-1,
        labels=labels,
        op_norm_estimate=op_norm,
    )


def build_from_families(
    n: int,
    cost_raw,
    triples,
    b_raw,
    ineq_mask,
    alpha: float = 2.0,
    scale_x: float = 1.0,
    labels: Optional[list] = None,
) -> SdpProblem:
    """Generic problem from (constraint, row, col, value) entries.  Applies
    the unit-cost-norm scaling and divides b by ``scale_x``; no per-row or
    operator-norm normalization."""
    cost_raw = sp.csr_matrix(cost_raw)
    scale_c = _frob_norm_sparse(cost_raw) or 1.0
    idx, rows, cols, vals = (np.asarray(a) for a in triples)
    m = len(b_raw)
    ops = SparseConstraintFamilies(n, m, idx, rows, cols, vals)
    return SdpProblem(
        n=n,
        m=m,
        cost=(cost_raw / scale_c).tocsr(),
        constraints=ops,
        b=np.asarray(b_raw, dtype=float) / scale_x,
        ineq_mask=np.asarray(ineq_mask, dtype=bool),
        alpha=alpha,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=1,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# file formats


def parse_graph_mm(path) -> GraphInstance:
    """MatrixMarket coordinate reader for symmetric pattern/real/integer
    matrices; general-symmetry files must contain both mirror entries."""
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].strip().split()
    if len(header) < 5 or not header[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", 1)
    obj, fmt, fieldkind, symmetry = (t.lower() for t in header[1:5])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError("only coordinate matrices are supported", 1)
    if fieldkind not in ("real", "integer", "pattern"):
        raise ParseError(f"unsupported field {fieldkind}", 1)
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry {symmetry}", 1)
    pattern = fieldkind == "pattern"

    lineno = 1
    size_line = None
    for lineno in range(2, len(lines) + 1):
        text = lines[lineno - 1].strip()
        if not text or text.startswith("%"):
            continue
        size_line = text
        break
    if size_line is None:
        raise ParseError("missing size line", len(lines))
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError("size line must have three fields", lineno)
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad size line: {exc}", lineno) from exc
    if nrows != ncols:
        raise ParseError(f"matrix must be square, got {nrows}x{ncols}", lineno)

    entries: list[tuple[int, int, float]] = []
    seen: dict[tuple[int, int], tuple[float, int]] = {}
    count = 0
    for ln in range(lineno + 1, len(lines) + 1):
        text = lines[ln - 1].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        want = 2 if pattern else 3
        if len(parts) < want:
            raise ParseError("entry line has too few fields", ln)
        try:
            i = int(parts[0]) - 1
            j = int(parts[1]) - 1
            w = 1.0 if pattern else float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad entry: {exc}", ln) from exc
        if not 0 <= i < nrows or not 0 <= j < ncols:
            raise ParseError(f"entry ({i + 1},{j + 1}) out of range", ln)
        count += 1
        if symmetry == "general":
            seen[(i, j)] = (w, ln)
        if i != j:
            entries.append((i, j, w))
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}", len(lines))
    if symmetry == "general":
        for (i, j), (w, ln) in seen.items():
            if i == j:
                continue
            mirror = seen.get((j, i))
            if mirror is None:
                raise ParseError(f"entry ({i + 1},{j + 1}) has no mirror", ln)
            if abs(mirror[0] - w) > 1e-12 * (1 + abs(w)):
                raise ParseError(f"entry ({i + 1},{j + 1}) mirror mismatch", ln)
        # each undirected edge appeared twice
        entries = [(i, j, w) for (i, j, w) in entries if i > j]
    return GraphInstance.from_edges(nrows, entries)


def write_graph_mm(g: GraphInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{g.n} {g.n} {g.num_edges}\n")
        for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
            fh.write(f"{int(v) + 1} {int(u) + 1} {w:.17g}\n")


def parse_qaplib(path) -> QapInstance:
    """Plain-text reader: size line, then the weight block, then the
    distance block, whitespace separated with arbitrary line breaks."""
    tokens: list[tuple[str, int]] = []
    with open(path, "r") as fh:
        for ln, line in enumerate(fh, start=1):
            for tok in line.split():
                tokens.append((tok, ln))
    if not tokens:
        raise ParseError("empty file", 1)
    try:
        n = int(tokens[0][0])
    except ValueError as exc:
        raise ParseError(f"bad size field: {exc}", tokens[0][1]) from exc
    if n < 1:
        raise ParseError("size must be positive", tokens[0][1])
    need = 1 + 2 * n * n
    if len(tokens) < need:
        last_line = tokens[-1][1]
        raise ParseError(
            f"expected {need - 1} matrix entries, found {len(tokens) - 1}", last_line
        )
    if len(tokens) > need:
        raise ParseError("trailing data after matrices", tokens[need][1])
    vals = []
    for tok, ln in tokens[1:need]:
        try:
            vals.append(float(tok))
        except ValueError as exc:
            raise ParseError(f"bad matrix entry {tok!r}", ln) from exc
    w = np.array(vals[: n * n]).reshape(n, n)
    d = np.array(vals[n * n :]).reshape(n, n)
    try:
        return QapInstance(w, d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_qaplib(q: QapInstance, path) -> None:
    n = q.size

    def block(mat):
        return "\n".join(" ".join(f"{x:.17g}" for x in row) for row in mat)

    with open(path, "w") as fh:
        fh.write(f"{n}\n\n")
        fh.write(block(q.weights))
        fh.write("\n\n")
        fh.write(block(q.distances))
        fh.write("\n")
