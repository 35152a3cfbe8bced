"""SDP problem representation, scaling, projections, and instance builders.

A problem is the tuple (cost C, constraint operator bundle, right-hand side
b, inequality index set, trace bound alpha).  Constraint matrices are never
materialized as dense n x n lists: the solver only needs a handful of
operator actions, which the two bundle implementations below provide either
through the diagonal structure (MaxCut) or through two sparse matrices over
the n^2 cells of vec(X) (QAP and generic problems).  The flat entry families
run their per-iteration actions on one dense n x n array: the only families
built here are QAP relaxations, whose entries fill 98% of the cells, so the
array costs no more than the entries already do.
"""
from __future__ import annotations

import copy
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigsolve import LinOp
from .symlin import tri_indices

__all__ = [
    "ParseError",
    "GraphInstance",
    "QapInstance",
    "DiagonalConstraints",
    "SparseConstraintFamilies",
    "SdpProblem",
    "build_maxcut",
    "build_qap",
    "proj_K",
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
        if not keep.all():  # copy only to drop self loops
            u, v, w = u[keep], v[keep], w[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        bad = (lo < 0) | (hi >= n)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"edge ({u[e]},{v[e]}) out of range for n={n}")
        key = lo * n
        key += hi
        keys, inverse = np.unique(key, return_inverse=True)
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

    def primal_image_matrix(self, x) -> np.ndarray:
        """diag(X) of an ndarray or a scipy sparse matrix."""
        return np.array(x.diagonal())

    def adjoint_inner_lowrank(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v.T @ (v * y[:, None])

    def dual_slack(self, cost: sp.csr_matrix, y: np.ndarray) -> sp.csr_matrix:
        """cost - A*(y) as a CSR matrix."""
        return (cost - sp.diags(y)).tocsr()

    def compressed_rows(self, v: np.ndarray) -> np.ndarray:
        # svec(V^T A_i V) for A_i = e_i e_i^T is svec of the outer product of
        # row i of V with itself.  Filled one column at a time, so no second
        # n x d temporary is made.  F order, the layout of the gather
        # v[:, i]: compressed.T @ compressed rounds differently on a
        # C-ordered block, and that moves the solver's iterates.
        i, j, w = tri_indices(v.shape[1])
        out = np.empty((w.size, v.shape[0])).T
        for c in range(w.size):
            col = out[:, c]
            np.multiply(v[:, i[c]], v[:, j[c]], out=col)
            col *= w[c]
        return out

    def frob_norms(self) -> np.ndarray:
        return np.ones(self.m)


class SparseConstraintFamilies:
    """Constraint rows given as flat entry lists: constraint ``idx[e]`` has
    A[rows[e], cols[e]] = A[cols[e], rows[e]] = vals[e] with rows <= cols;
    repeated entries add.

    The family keeps no entry list, only two sparse matrices over the n^2
    cells of vec(X), the row-major ravel of an n x n X, into which the
    entries are summed once: ``_upper`` (m x n^2) holds each entry at its
    upper cell r*n + c, doubled off the diagonal, so A(X) =
    ``_upper @ vec(X)``, and ``_cells_t`` (n^2 x m, CSC) holds each entry
    at both its cells, so vec(A*(y)) = ``_cells_t @ y``.

    The dual slack and the X of each image are n x n arrays.  That suits
    the QAP relaxations, the only families the package builds: their
    entries and mirrors fill 98% of the cells (20,761 of 21,025 at
    n = 12).  A family too large for an n x n array is not supported."""

    def __init__(self, n: int, m: int, idx, rows, cols, vals):
        self.n = int(n)
        self.m = int(m)
        idx, rows, cols = (np.asarray(a, dtype=np.int64) for a in (idx, rows, cols))
        vals = np.asarray(vals, dtype=float)
        for name, arr, stop in (
            ("idx", idx, self.m), ("rows", rows, self.n), ("cols", cols, self.n)
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= stop):
                raise ValueError(f"{name} entries must lie in [0, {stop})")
        if np.any(rows > cols):
            raise ValueError("entries must have rows <= cols")
        cells = self.n * self.n
        # the index type scipy stores; keys made in it are not copied again
        itype = np.int32 if max(cells, self.m) <= np.iinfo(np.int32).max else np.int64
        off = rows != cols
        upper = (rows * self.n + cols).astype(itype)
        idx = idx.astype(itype)
        self._upper = sp.csr_matrix(
            (np.where(off, 2.0, 1.0) * vals, (idx, upper)), shape=(self.m, cells)
        )
        both = (
            np.concatenate([idx, idx[off]]),
            np.concatenate([upper, (cols[off] * self.n + rows[off]).astype(itype)]),
        )
        # CSC, the transpose of a CSR matrix: each row's values lie together
        self._cells_t = sp.csr_matrix(
            (np.concatenate([vals, vals[off]]), both), shape=(self.m, cells)
        ).T

    def _entries(self):
        """``(idx, rows, cols, vals)`` read back from ``_upper``, repeated
        entries summed.  Only the benchmark's QAP check reads the four
        names below."""
        coo = self._upper.tocoo()
        rows, cols = np.divmod(coo.col.astype(np.int64), self.n)
        return coo.row.astype(np.int64), rows, cols, np.where(rows == cols, 1.0, 0.5) * coo.data

    idx = property(lambda self: self._entries()[0])
    rows = property(lambda self: self._entries()[1])
    cols = property(lambda self: self._entries()[2])
    vals = property(lambda self: self._entries()[3])

    def scaled(self, factors: np.ndarray) -> "SparseConstraintFamilies":
        """The family with row i's values times ``factors[i]``.  It shares
        this one's cells, so nothing is sorted or checked again, and each
        stored value of both matrices is scaled by its row's factor.  When
        no row repeats a cell (every QAP family), a stored value is one
        entry and this equals the rebuild from the scaled values bit for
        bit; a summed value differs from it by rounding."""
        out = copy.copy(self)

        def rows_scaled(a):  # a holds each constraint row's values together
            data = a.data * np.repeat(factors, np.diff(a.indptr))
            return type(a)((data, a.indices, a.indptr), shape=a.shape)

        out._upper, out._cells_t = rows_scaled(self._upper), rows_scaled(self._cells_t)
        return out

    def primal_image_lowrank(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._upper @ ((v @ s) @ v.T).ravel()

    def primal_image_factor(self, u: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return self._upper @ ((u * lams) @ u.T).ravel()

    def primal_image_matrix(self, x) -> np.ndarray:
        """The image of an ndarray or a scipy sparse matrix, read at the
        upper cells."""
        if sp.issparse(x):
            x = x.toarray()
        return self._upper @ np.ravel(x)

    def _adjoint_dense(self, y: np.ndarray) -> np.ndarray:
        """A*(y) as an n x n array, 0 where no entry lies."""
        return (self._cells_t @ y).reshape(self.n, self.n)

    def adjoint_inner_lowrank(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        m = v.T @ (self._adjoint_dense(y) @ v)
        return 0.5 * (m + m.T)

    def dual_slack(self, cost: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
        """cost - A*(y) as an n x n array.  Each entry is the one the CSR
        difference holds: cost - 0.0 is cost where no entry lies."""
        z = cost.toarray()
        z -= self._adjoint_dense(y)
        return z

    def compressed_rows(self, v: np.ndarray) -> np.ndarray:
        # column c is the image of (w_c / 2)(v_i v_j^T + v_j v_i^T), built in
        # two n x n buffers reused across the columns (an n^2 x d block would
        # be a QAP iteration's largest array; a transposed read is slower than
        # the second buffer).  Halving v_i is exact, and on the diagonal
        # (w_c = 1) the column is the image of v_i v_i^T exactly
        i, j, w = tri_indices(v.shape[1])
        out = np.empty((self.m, w.size))
        outer, sym = np.empty((2, self.n, self.n))
        for c in range(w.size):
            v_i, v_j = v[:, i[c]], v[:, j[c]]
            if i[c] == j[c]:
                np.multiply.outer(v_i, v_i, out=sym)
            else:
                np.multiply.outer(0.5 * v_i, v_j, out=sym)
                np.multiply.outer(v_j, 0.5 * v_i, out=outer)
                sym += outer
                sym *= w[c]
            out[:, c] = self._upper @ sym.ravel()
        return out

    def frob_norms(self) -> np.ndarray:
        # a cell off the diagonal holds (2a)^2 and weighs 1/2: 2 a^2, the
        # square of the entry at both its cells
        halves = np.full(self.n * self.n, 0.5)
        halves[:: self.n + 1] = 1.0
        return np.sqrt(self._upper.multiply(self._upper) @ halves)


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

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.ineq_mask = np.asarray(self.ineq_mask, dtype=bool)
        self._ineq_idx = np.flatnonzero(self.ineq_mask)

    @property
    def ineq_idx(self) -> np.ndarray:
        return self._ineq_idx

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
    out[idx] = np.minimum(z[idx], prob.b[idx])
    return out


def dual_slack_operator(prob: SdpProblem, y: np.ndarray) -> LinOp:
    """cost - adjoint(y) as a symmetric operator, built once per evaluation
    in the constraint family's form: a CSR matrix for the diagonal family,
    an n x n array for the flat entry families, which the operator also
    carries as its ``matrix``."""
    z = prob.constraints.dual_slack(prob.cost, y)
    dense = z if isinstance(z, np.ndarray) else None
    return LinOp(dim=prob.n, matvec=lambda v: z @ v, matmat=lambda b: z @ b, matrix=dense)


# ---------------------------------------------------------------------------
# builders


# the trace bound alpha of both builders, above the unit trace they scale
# the solution to, as the exact penalty needs
TRACE_BOUND = 2.0
# the power iteration of ``estimate_operator_norm``: relative tolerance on
# ||A||^2, step cap, and the seed of its start, fixed because the QAP row
# scales depend on the estimate to the last bit
OPNORM_TOL, OPNORM_MAX_ITERS, OPNORM_SEED = 1e-6, 500, 0
# a cost whose Frobenius norm reaches this bound is rejected: the sum of its
# squares would come within a factor of four of the float range
_MAX_COST_NORM = math.sqrt(np.finfo(float).max) / 2
# below this largest entry the squares of the cost underflow
_MIN_COST_PEAK = math.sqrt(np.finfo(float).tiny)


def _check_cost_size(size: float, what: str) -> None:
    if size >= _MAX_COST_NORM:
        raise ValueError(
            f"{what} is {size:.3g}, so the cost's Frobenius norm would overflow; "
            "rescale the instance"
        )


def _normalized_cost(c_raw: sp.csr_matrix) -> tuple[sp.csr_matrix, float]:
    """The cost over its Frobenius norm, and that norm (1 for a zero cost).
    Raises ValueError before it sums squares that would overflow, and sums
    squares that would underflow in units of the largest entry."""
    data = np.abs(c_raw.data)
    peak = float(data.max(initial=0.0))
    tiny = 0.0 < peak < _MIN_COST_PEAK  # its squares would underflow
    if tiny or peak * math.sqrt(data.size) >= _MAX_COST_NORM:  # or the norm may reach the bound
        scale_c = peak * math.sqrt(float(np.sum(np.square(data / peak))))  # in units of peak
        _check_cost_size(scale_c, "the cost's Frobenius norm")
    if not tiny:
        scale_c = float(np.sqrt((c_raw.multiply(c_raw)).sum())) or 1.0
    return (c_raw / scale_c).tocsr(), scale_c


def build_maxcut(g: GraphInstance) -> SdpProblem:
    """Quarter-Laplacian objective with unit diagonal constraints, rescaled
    so the cost has unit Frobenius norm and the solution has unit trace.
    Raises ValueError when that norm would overflow."""
    if g.n < 1:
        raise ValueError("empty graph")
    n = g.n
    # an edge of weight w is a cost entry w/4; checking it first keeps the
    # Laplacian's degree sums finite
    _check_cost_size(float(np.abs(g.edges_w).max(initial=0.0)) / 4.0, "the largest edge weight / 4")
    cost, scale_c = _normalized_cost((g.laplacian() / 4.0).tocsr())
    scale_x = float(n)
    b = np.full(n, 1.0 / scale_x)
    return SdpProblem(
        n=n,
        m=n,
        cost=cost,
        constraints=DiagonalConstraints(n),
        b=b,
        ineq_mask=np.zeros(n, dtype=bool),
        alpha=TRACE_BOUND,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=1,
    )


def _qap_kron(q: QapInstance) -> np.ndarray:
    """``np.kron(distances, weights)``, the lifted objective.  Its largest
    entry is the product of the two largest magnitudes, checked before the
    product is formed: it must neither overflow nor underflow."""
    d_max, w_max = float(np.abs(q.distances).max()), float(np.abs(q.weights).max())
    peak = d_max * w_max
    _check_cost_size(peak, "the largest distance times the largest weight")
    if d_max > 0.0 and w_max > 0.0 and peak < np.finfo(float).tiny:
        raise ValueError(
            f"the largest distance times the largest weight is {d_max:.3g} x {w_max:.3g}, "
            "below the smallest normal float, so the cost would underflow; rescale the instance"
        )
    return np.kron(q.distances, q.weights)


QAP_FAMILIES = ("tr1", "tr2", "G", "diagY", "rowsum", "colsum", "B", "corner", "trY")


def qap_family_offsets(n: int, n_g: int) -> dict[str, slice]:
    """Rows of each ``QAP_FAMILIES`` family of the size-n lifted assignment
    relaxation with n_g G rows, one per unordered pair {a, b} of the
    objective's support (``_qap_g_support``)."""
    t = n * (n + 1) // 2
    stops = np.cumsum([t, t, n_g, n * n, n, n, n * n, 1, 1]).tolist()
    return {f: slice(start, stop) for f, start, stop in zip(QAP_FAMILIES, [0, *stops], stops)}


def _qap_g_support(kron: np.ndarray) -> np.ndarray:
    """The pairs a <= b that carry a G row: the upper triangle of the
    objective's support.  Y is symmetric, so Y[a, b] >= 0 and Y[b, a] >= 0
    are one constraint; a pair is kept when either entry is nonzero."""
    nonzero = kron != 0
    return np.triu(nonzero | nonzero.T)


def qap_constraint_entries(q: QapInstance):
    """Entries (idx, rows, cols, vals), right-hand sides b, inequality flags
    and the objective ``kron`` of the lifted assignment relaxation.

    Composite indices follow a = i*n + k with i the first (distance) factor
    and k the second (weight) factor; the lifted matrix holds a at 1 + a and
    the affine corner in row and column 0.  Rows come family by family in
    ``QAP_FAMILIES`` order: the two partial traces (tr1 over k <= l, tr2 over
    i <= j), Y[a,b] >= 0 on the objective's support (G, row-major),
    Y[a,a] = x_a (diagY), the assignment's row and column sums, x_a >= 0
    (B), the corner and tr Y = n.  Each row lists its entries by its running
    index, with row <= col.  G has one row per unordered pair {a, b} of the
    objective's support, a <= b; ``build_qap`` weights the rows with a < b,
    which stand for both ordered pairs.
    """
    n = q.size
    kron = _qap_kron(q)
    a = np.arange(n * n)
    lifted = (1 + a).reshape(n, n)  # lifted[i, k] = 1 + i*n + k
    row0, x_col = np.zeros((n * n, 1), dtype=np.int64), 1 + a[:, None]  # x_a = X[0, 1 + a]
    k, l = np.triu_indices(n)
    half = np.where(k == l, 1.0, 0.5)[:, None]
    delta = (k == l).astype(float)
    ga, gb = np.nonzero(_qap_g_support(kron))
    g_vals = np.where(ga == gb, -1.0, -0.5)[:, None]
    # rows, cols and vals broadcast to (family rows, entries per row), then
    # the right-hand side and the inequality flag
    families = [
        (lifted.T[k], lifted.T[l], half, delta, False),
        (lifted[k], lifted[l], half, delta, False),
        (1 + ga[:, None], 1 + gb[:, None], g_vals, 0.0, True),
        (np.hstack([x_col, row0]), x_col, np.array([1.0, -0.5]), 0.0, False),
        (0, lifted.T, 0.5, 1.0, False),
        (0, lifted, 0.5, 1.0, False),
        (row0, x_col, -0.5, 0.0, True),
        (np.zeros((1, 1), dtype=np.int64), 0, 1.0, 1.0, False),
        (1 + a[None, :], 1 + a[None, :], 1.0, float(n), False),
    ]
    parts = []
    start = 0
    for rows, cols, vals, rhs, is_ineq in families:
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        count = rows.shape[0]
        idx = np.broadcast_to(np.arange(start, start + count)[:, None], rows.shape)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (count,))
        parts.append((idx, rows, cols, vals, rhs, np.full(count, is_ineq)))
        start += count
    idx, rows, cols, vals, b, ineq = (np.concatenate([v.ravel() for v in p]) for p in zip(*parts))
    return idx, rows, cols, vals, b, ineq, kron


def qap_submatrix_constraint_map(full: QapInstance, n_sub: int) -> np.ndarray:
    """For each row of the relaxation of the leading ``n_sub`` x ``n_sub``
    blocks of ``full`` (``full.shrink()`` for n_sub = n - 1), the row of the
    full relaxation it maps to.

    A row keeps its position within its family.  The diagY, B and G rows
    move a = i*n_sub + k to a' = i*n + k, and the G row (a, b) becomes the
    rank of (a', b') among the full G pairs: the sub objective is the full
    one at the kept indices, the same products, and a < b gives a' < b'.
    """
    n = full.size
    if not 1 <= n_sub <= n:
        raise ValueError(f"sub-instance size {n_sub} must lie in [1, {n}]")
    support = _qap_g_support(_qap_kron(full))
    a = np.arange(n_sub * n_sub)
    kept = (a // n_sub) * n + a % n_sub
    k, l = np.triu_indices(n_sub)
    tri = k * n - k * (k + 1) // 2 + l  # rank of (k, l) in the full np.triu_indices(n)
    sub_g = (kept[:, None] * (n * n) + kept[None, :])[support[np.ix_(kept, kept)]]
    g = np.searchsorted(np.flatnonzero(support), sub_g)
    same = np.arange(n_sub)
    within = dict(zip(QAP_FAMILIES, [tri, tri, g, kept, same, same, kept, [0], [0]]))
    offsets = qap_family_offsets(n, int(support.sum()))
    return np.concatenate([offsets[f].start + np.asarray(within[f]) for f in QAP_FAMILIES])


def estimate_operator_norm(ops) -> float:
    """Power iteration on z -> A(A*(z)) over the m constraint rows of a
    ``SparseConstraintFamilies``; returns an estimate of the operator
    2-norm of the image map A.  Each step applies ``_upper``'s transpose
    to z / 2, which gives A*(z) at the upper cells off the diagonal
    exactly (their values are doubled) and half of it on the diagonal,
    doubles the n diagonal cells back, and applies ``_upper``."""
    upper, upper_t, diagonal = ops._upper, ops._upper.T, slice(None, None, ops.n + 1)
    z = np.random.RandomState(OPNORM_SEED).standard_normal(ops.m)
    lam = float(np.linalg.norm(z))
    for it in range(OPNORM_MAX_ITERS):
        if lam == 0.0:
            return 0.0
        cells = upper_t @ (z / (2.0 * lam))
        cells[diagonal] *= 2.0
        z = upper @ cells
        lam_prev, lam = lam, float(np.linalg.norm(z))
        if it and abs(lam - lam_prev) <= OPNORM_TOL * lam:
            break
    return float(np.sqrt(lam))


def build_qap(q: QapInstance) -> SdpProblem:
    """Lifted assignment relaxation with the full normalization: unit cost
    norm, unit solution trace, unit operator norm, and unit row norms, times
    sqrt(2) on a G row that stands for two ordered pairs.  The native
    minimization is encoded by negating the cost; reports restore the sign
    through ``sense``.  Raises ValueError when the cost's norm would
    overflow.

    The weight makes the one row exact for the two unit rows of (a, b) and
    (b, a) it replaces: those hold the same data, so their duals are equal,
    and the row sqrt(2) r with dual sqrt(2) y adds the same r (y + y) to
    A*(y) and the same 2 (r . X - b)^2 to the squared residual.  A^T A,
    the operator norm and the proximal step are those of the two rows."""
    n = q.size
    big_n = n * n + 1
    idx, rows, cols, vals, b_raw, ineq, kron = qap_constraint_entries(q)
    m = len(b_raw)

    ka, kb = np.nonzero(kron)
    cost, scale_c = _normalized_cost(
        sp.coo_matrix((-kron[ka, kb], (1 + ka, 1 + kb)), shape=(big_n, big_n)).tocsr()
    )

    scale_x = float(n + 1)  # corner contributes 1, lifted block contributes n
    b = b_raw / scale_x

    ops = SparseConstraintFamilies(big_n, m, idx, rows, cols, vals)
    norms = ops.frob_norms()
    if np.any(norms == 0):
        raise ValueError("degenerate constraint with zero norm")
    # the G rows off the diagonal: inequalities off the corner row and
    # the diagonal, one entry each
    weight = np.ones(m)
    weight[idx[ineq[idx] & (rows > 0) & (rows != cols)]] = math.sqrt(2.0)
    ops = ops.scaled(weight / norms)
    b = b * weight / norms
    op_norm = estimate_operator_norm(ops)
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
        alpha=TRACE_BOUND,
        scale_c=scale_c,
        scale_x=scale_x,
        sense=-1,
    )


# ---------------------------------------------------------------------------
# file formats


# Entry fields as np.loadtxt reads them: ASCII digits with no digit
# separators, and indices within int64.  The rescan that names a rejected
# line applies the same grammar.
_INDEX_TOKEN = re.compile(r"[+-]?[0-9]+", re.ASCII)
_REAL_TOKEN = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.ASCII | re.IGNORECASE,
)
_INT64_MAX = int(np.iinfo(np.int64).max)
_ENTRY_DTYPES = {
    2: np.dtype([("i", np.int64), ("j", np.int64)]),
    3: np.dtype([("i", np.int64), ("j", np.int64), ("w", float)]),
}
# bytes after which a "%" starts a field of its own
_FIELD_BREAKS = np.frombuffer(b" \t\n\r\x0b\x0c%", dtype=np.uint8)


# a byte-order mark at the start of a file is not part of its text; both
# readers drop one
_BOM = "\ufeff"


def _index_ok(tok: str) -> bool:
    return _INDEX_TOKEN.fullmatch(tok) is not None and -_INT64_MAX - 1 <= int(tok) <= _INT64_MAX


def _entry_lines(path, size_lineno: int):
    """(line number, fields) of each entry line after the size line."""
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            text = line.strip()
            if ln > size_lineno and text and not text.startswith("%"):
                yield ln, text.split()


def _first_bad_entry(path, size_lineno: int, want: int, nrows: int) -> ParseError | None:
    """The per-line checks in file order: the error of the first entry line
    with too few fields, a bad token or an index out of range."""
    for ln, parts in _entry_lines(path, size_lineno):
        if len(parts) < want:
            return ParseError("entry line has too few fields", ln)
        fields = parts[:want]
        if not (_index_ok(fields[0]) and _index_ok(fields[1])) or (
            want == 3 and _REAL_TOKEN.fullmatch(fields[2]) is None
        ):
            return ParseError(f"bad entry {' '.join(fields)!r}", ln)
        i, j = int(fields[0]), int(fields[1])
        if not (1 <= i <= nrows and 1 <= j <= nrows):
            return ParseError(f"entry ({i},{j}) out of range", ln)
    return None


def _loadtxt_unsafe(data: bytes, size_lineno: int, want: int) -> bool:
    """Whether an entry line holds a "%" or a non-ASCII character inside one
    of its first ``want`` fields.  Such a line is malformed, and np.loadtxt
    must not read it: it takes the "%" for the start of a comment and keeps
    the field cut short, and its integer parser reads some non-ASCII
    characters as digits and crashes on others."""
    raw = np.frombuffer(data, dtype=np.uint8)
    pct = np.flatnonzero(raw[1:] == ord("%")) + 1
    glued = pct[~np.isin(raw[pct - 1], _FIELD_BREAKS)]
    pos = np.concatenate([np.flatnonzero(raw >= 0x80), glued])
    if not pos.size:
        return False
    # line ends as universal newlines reads them: \n, \r\n or a lone \r
    lf, cr = raw == ord("\n"), raw == ord("\r")
    cr[:-1] &= ~lf[1:]
    ends = np.flatnonzero(lf | cr)
    starts, stops = np.r_[0, ends + 1], np.r_[ends, raw.size]
    lines = np.unique(np.searchsorted(ends, pos))  # 0-based, so line k + 1
    for k in lines[lines >= size_lineno].tolist():
        text = data[starts[k] : stops[k]].decode("utf-8").strip()
        fields = [] if text.startswith("%") else text.split()[:want]
        if any("%" in f or not f.isascii() for f in fields):
            return True
    return False


def _mirror_fault(i: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[int, str] | None:
    """The general-symmetry check.  Every off-diagonal entry (i, j) needs an
    entry (j, i) whose weight matches to 1e-12 relative to its own; a
    repeated entry counts with its last weight.  Returns the position of the
    last entry of the first failing (i, j), in order of first appearance,
    and the message, or None."""
    count = i.size
    if count == 0:
        return None
    ki, kj = i, j
    span = int(max(i.max(), j.max())) + 1
    if span > _MAX_VERTICES:  # i * span + j would overflow: number the indices in use
        _, ranks = np.unique(np.concatenate([i, j]), return_inverse=True)
        ki, kj, span = ranks[:count], ranks[count:], 2 * count
    key = ki * span + kj
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    first = order[starts]
    last = order[np.r_[starts[1:], count] - 1]
    keys = sorted_key[starts]
    mirror = kj[first] * span + ki[first]
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    found = keys[at] == mirror
    wl = w[last]
    # inf - inf and differences past the float range compare as Python's do
    with np.errstate(invalid="ignore", over="ignore"):
        mismatch = np.abs(wl[at] - wl) > 1e-12 * (1 + np.abs(wl))
    bad = np.flatnonzero((ki[first] != kj[first]) & (~found | mismatch))
    if not bad.size:
        return None
    k = bad[np.argmin(first[bad])]
    what = "mirror mismatch" if found[k] else "has no mirror"
    return int(last[k]), f"entry ({i[first[k]]},{j[first[k]]}) {what}"


def parse_graph_mm(path) -> GraphInstance:
    """MatrixMarket coordinate reader for symmetric pattern/real/integer
    matrices; general-symmetry files must contain both mirror entries.

    The header and the size line are read line by line, the entry block in
    one ``np.loadtxt`` pass, and the checks on it are array operations.
    Only a block that fails them is read again, line by line, to name the
    line at fault.  A byte that is not UTF-8 is an error wherever it stands,
    found before any other."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]  # its line as text mode counts lines
            ends = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", ends + 1) from None
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", 1)
        header = first.removeprefix(_BOM).strip().split()
        if len(header) < 5 or not header[0].startswith("%%MatrixMarket"):
            raise ParseError("missing MatrixMarket header", 1)
        obj, fmt, fieldkind, symmetry = (t.lower() for t in header[1:5])
        if obj != "matrix" or fmt != "coordinate":
            raise ParseError("only coordinate matrices are supported", 1)
        if fieldkind not in ("real", "integer", "pattern"):
            raise ParseError(f"unsupported field {fieldkind}", 1)
        if symmetry not in ("symmetric", "general"):
            raise ParseError(f"unsupported symmetry {symmetry}", 1)
        want = 2 if fieldkind == "pattern" else 3

        lineno = 1
        while True:
            line = fh.readline()
            if not line:
                raise ParseError("missing size line", lineno)
            lineno += 1
            text = line.strip()
            if text and not text.startswith("%"):
                break
        parts = text.split()
        if len(parts) != 3:
            raise ParseError("size line must have three fields", lineno)
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"bad size line: {exc}", lineno) from exc
        if nrows != ncols:
            raise ParseError(f"matrix must be square, got {nrows}x{ncols}", lineno)

        block = None
        if not _loadtxt_unsafe(data, lineno, want):
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    block = np.loadtxt(
                        fh, dtype=_ENTRY_DTYPES[want], comments="%", usecols=range(want), ndmin=1
                    )
            except ValueError:
                pass

    if block is not None:
        i, j = block["i"], block["j"]
        low = min(i.min(initial=1), j.min(initial=1))
        high = max(i.max(initial=0), j.max(initial=0))
    if block is None or low < 1 or high > nrows:
        raise _first_bad_entry(path, lineno, want, nrows) or ParseError(
            "entry block could not be read", lineno
        )
    count = block.size
    if count != nnz:
        with open(path, "r", encoding="utf-8") as fh:
            total = sum(1 for _ in fh)
        raise ParseError(f"expected {nnz} entries, found {count}", total)
    w = block["w"] if want == 3 else np.ones(count)
    if symmetry == "general":
        fault = _mirror_fault(i, j, w)
        if fault is not None:
            entry, message = fault
            ln, _ = next(itertools.islice(_entry_lines(path, lineno), entry, None))
            raise ParseError(message, ln)
        # each undirected edge appeared twice
        keep = i > j
        i, j, w = i[keep], j[keep], w[keep]
    return GraphInstance.from_arrays(nrows, i - 1, j - 1, w)


def write_graph_mm(g: GraphInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{g.n} {g.n} {g.num_edges}\n")
        rows, cols = (g.edges_v + 1).tolist(), (g.edges_u + 1).tolist()
        fh.write("".join(map("{} {} {:.17g}\n".format, rows, cols, g.edges_w.tolist())))


def _token_line(text: str, k: int) -> int:
    """Line number of whitespace-separated token ``k`` of ``text``."""
    counts = np.cumsum([len(line.split()) for line in text.split("\n")])
    return int(np.searchsorted(counts, k, side="right")) + 1


def parse_qaplib(path) -> QapInstance:
    """Plain-text reader: size line, then the weight block, then the
    distance block, whitespace separated with arbitrary line breaks.  The
    2 n^2 matrix tokens go through one array conversion; line numbers are
    looked up only for an error.  The text is ASCII with no ``_``."""
    # a byte that is not UTF-8 reads as a lone surrogate, U+DC80-U+DCFF
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read().removeprefix(_BOM)
    if not text.isascii() or "_" in text:
        at = re.search(r"[^\x00-\x7f]|_", text).start()
        line = text.count("\n", 0, at) + 1
        if "\udc80" <= text[at] <= "\udcff":
            raise ParseError(f"byte 0x{ord(text[at]) - 0xDC00:02x} is not UTF-8", line)
        raise ParseError(f"bad character {text[at]!r}: tokens are ASCII, with no '_'", line)
    tokens = text.split()
    if not tokens:
        raise ParseError("empty file", 1)
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ParseError(f"bad size field: {exc}", _token_line(text, 0)) from exc
    if n < 1:
        raise ParseError("size must be positive", _token_line(text, 0))
    need = 1 + 2 * n * n
    if len(tokens) < need:
        raise ParseError(
            f"expected {need - 1} matrix entries, found {len(tokens) - 1}",
            _token_line(text, len(tokens) - 1),
        )
    if len(tokens) > need:
        raise ParseError("trailing data after matrices", _token_line(text, need))
    try:
        vals = np.array(tokens[1:], dtype=float)
    except ValueError:
        for k, tok in enumerate(tokens[1:], start=1):
            try:
                float(tok)
            except ValueError as exc:
                raise ParseError(f"bad matrix entry {tok!r}", _token_line(text, k)) from exc
        raise
    try:
        return QapInstance(vals[: n * n].reshape(n, n), vals[n * n :].reshape(n, n))
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
