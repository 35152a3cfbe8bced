"""Dense symmetric-matrix kernels shared by every other module.

Symmetric matrices are vectorized in column-major lower-triangle order with
off-diagonal entries scaled by sqrt(2), so that the Frobenius inner product
of two symmetric matrices equals the plain dot product of their vectorized
forms.  All operations here are pure functions on small dense arrays.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "ConditioningError",
    "EmptyBasisError",
    "svec_dim",
    "mat_dim",
    "tri_indices",
    "svec",
    "svec_inv",
    "svec_identity",
    "u_matrix",
    "symm_kron",
    "orthonormalize",
    "small_eigh",
    "solve_spd",
    "is_positive_definite",
]

_SQRT2 = math.sqrt(2.0)


class ConditioningError(RuntimeError):
    """A factorization found the matrix not numerically positive definite."""


class EmptyBasisError(ValueError):
    """Orthonormalization received no usable directions."""


_IDX_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def mat_dim(d: int) -> int:
    """Side length n with n(n+1)/2 == d, or raise if d is not triangular."""
    n = int((math.isqrt(8 * d + 1) - 1) // 2)
    if n * (n + 1) // 2 != d:
        raise ValueError(f"length {d} is not a triangular number")
    return n


def tri_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, w) arrays for the vectorization order: pairs i >= j listed
    column by column, with w = sqrt(2) on off-diagonal positions."""
    cached = _IDX_CACHE.get(n)
    if cached is None:
        r, c = np.triu_indices(n)
        # upper triangle in row-major order transposes to lower triangle in
        # column-major order, preserving sequence position
        i, j = c.copy(), r.copy()
        w = np.where(i == j, 1.0, _SQRT2)
        cached = (i, j, w)
        _IDX_CACHE[n] = cached
    return cached


_SVEC_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SVEC_INV_CACHE: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}


def svec(a: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix; <A, B> == svec(A) @ svec(B).

    Gathers a[i, j] through flat indices i * n + j, then scales by w."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("svec expects a square matrix")
    cached = _SVEC_CACHE.get(n)
    if cached is None:
        i, j, w = tri_indices(n)
        flat = i * n + j
        flat.setflags(write=False)
        cached = (flat, w)
        _SVEC_CACHE[n] = cached
    flat, w = cached
    return a.take(flat) * w


def svec_inv(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`; exact round trip for symmetric input.

    Entries (i, j) and (j, i) both receive v[p] / w[p] for the position p
    of the pair, gathered in one pass."""
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    cached = _SVEC_INV_CACHE.get(d)
    if cached is None:
        n = mat_dim(d)
        i, j, w = tri_indices(n)
        pos = np.empty((n, n), dtype=np.int64)
        pos[i, j] = np.arange(d)
        pos[j, i] = np.arange(d)
        pos.setflags(write=False)
        cached = (n, pos.ravel(), w)
        _SVEC_INV_CACHE[d] = cached
    n, pos, w = cached
    return (v / w).take(pos).reshape(n, n)


_IDENT_CACHE: dict[int, np.ndarray] = {}


def svec_identity(k: int) -> np.ndarray:
    out = _IDENT_CACHE.get(k)
    if out is None:
        out = svec(np.eye(k))
        out.setflags(write=False)
        _IDENT_CACHE[k] = out
    return out


_U_CACHE: dict[int, np.ndarray] = {}


def u_matrix(n: int) -> np.ndarray:
    """Matrix mapping vec(A) (column-stacked) to svec(A) for symmetric A.

    Rows follow the svec order; columns follow column-major vec order.  The
    rows are orthonormal and U.T @ svec(A) == vec(A) for symmetric A.
    """
    cached = _U_CACHE.get(n)
    if cached is not None:
        return cached
    i, j, _ = tri_indices(n)
    d = svec_dim(n)
    u = np.zeros((d, n * n))
    for p in range(d):
        ip, jp = int(i[p]), int(j[p])
        if ip == jp:
            u[p, jp * n + ip] = 1.0
        else:
            u[p, jp * n + ip] = 1.0 / _SQRT2
            u[p, ip * n + jp] = 1.0 / _SQRT2
    u.setflags(write=False)
    _U_CACHE[n] = u
    return u


_KRON_SIDES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def symm_kron(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product as a dense operator on svec space.

    Satisfies (g (x)_s h) @ svec(A) == 0.5 * svec(h A g.T + g A h.T) for all
    symmetric A.  Materialized via the explicit row-compression matrix U
    since the operator is reused across Newton iterations of one subproblem
    solve.  The result is exactly ``((0.5 * U) @ (kron(g, h) + kron(h, g)))
    @ U.T``: the two Kronecker products are formed as the same single
    products g[i, j] * h[k, l] that ``np.kron`` forms, without its overhead,
    and ``0.5 * U`` and ``U.T`` are cached per size.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    n = g.shape[0]
    if g.shape != h.shape or g.shape != (n, n):
        raise ValueError("symm_kron expects two square matrices of equal size")
    sides = _KRON_SIDES.get(n)
    if sides is None:
        u = u_matrix(n)
        half_u = 0.5 * u
        half_u.setflags(write=False)
        sides = (half_u, u.T)
        _KRON_SIDES[n] = sides
    half_u, u_t = sides
    # p[i, k, j, l] = g[i, j] * h[k, l] = kron(g, h)[i*n + k, j*n + l];
    # kron(h, g) holds the same products with both index pairs swapped
    p = g[:, None, :, None] * h[None, :, None, :]
    kk = (p + p.transpose(1, 0, 3, 2)).reshape(n * n, n * n)
    return half_u @ kk @ u_t


def orthonormalize(cols, drop_tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis for the span of the given columns.

    Column-pivoted Gram-Schmidt with two projection passes; columns whose
    residual norm falls below drop_tol times the largest input column norm
    are dropped, which bounds the condition number of the returned basis.
    """
    if isinstance(cols, np.ndarray):
        a = np.array(cols, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
    else:
        a = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    if a.size == 0:
        raise EmptyBasisError("no input columns")
    max_norm = float(np.max(np.linalg.norm(a, axis=0)))
    if max_norm == 0.0:
        raise EmptyBasisError("all input columns are zero")
    thresh = drop_tol * max_norm
    work = a.copy()
    alive = list(range(a.shape[1]))
    basis: list[np.ndarray] = []
    while alive:
        norms = np.linalg.norm(work[:, alive], axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] <= thresh:
            break
        piv = alive.pop(pick)
        q = work[:, piv]
        if basis:
            qm = np.column_stack(basis)
            q = q - qm @ (qm.T @ q)
        nq = np.linalg.norm(q)
        if nq <= thresh:
            continue
        q = q / nq
        basis.append(q)
        if alive:
            rest = work[:, alive]
            work[:, alive] = rest - np.outer(q, q @ rest)
    if not basis:
        raise EmptyBasisError("all input columns are numerically dependent")
    return np.column_stack(basis)


def small_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a small symmetric matrix, descending order."""
    s = np.asarray(s, dtype=float)
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def solve_spd(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m @ x = rhs for symmetric positive definite m via Cholesky.

    Reads only the lower triangle of m: LAPACK ``dpotrf`` factors it as
    L L^T and ``dpotrs`` solves with that factor, the routines and arguments
    that ``scipy.linalg.cho_factor(m, lower=True)`` and ``cho_solve`` call,
    without their wrappers.  Raises ConditioningError if the factorization
    fails; the caller owns recovery (no silent regularization here).
    """
    factor, info = dpotrf(np.asarray(m, dtype=float), lower=1, clean=0)
    if info != 0:
        raise ConditioningError(f"Cholesky factorization failed (dpotrf info {info})")
    return dpotrs(factor, np.asarray(rhs, dtype=float), lower=1)[0]


def is_positive_definite(m: np.ndarray) -> bool:
    """Whether a Cholesky factorization of the lower triangle of m succeeds
    (``dpotrf`` as in :func:`solve_spd`)."""
    return dpotrf(m, lower=1, clean=0)[1] == 0
