"""Dense symmetric-matrix kernels shared by every other module.

Symmetric matrices are vectorized in column-major lower-triangle order with
off-diagonal entries scaled by sqrt(2), so that the Frobenius inner product
of two symmetric matrices equals the plain dot product of their vectorized
forms.  All operations here are pure functions on small dense arrays.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "ConditioningError",
    "svec_dim",
    "mat_dim",
    "tri_indices",
    "svec",
    "svec_inv",
    "svec_identity",
    "u_matrix",
    "symm_kron",
    "small_eigh",
    "solve_spd",
    "is_positive_definite",
]

_SQRT2 = math.sqrt(2.0)


class ConditioningError(RuntimeError):
    """A factorization found the matrix not numerically positive definite."""


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def mat_dim(d: int) -> int:
    """Side length n with n(n+1)/2 == d, or raise if d is not triangular."""
    n = int((math.isqrt(8 * d + 1) - 1) // 2)
    if n * (n + 1) // 2 != d:
        raise ValueError(f"length {d} is not a triangular number")
    return n


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: the per-size tables below are cached and
    shared by every caller."""
    a.setflags(write=False)
    return a


@functools.cache
def tri_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, w) arrays for the vectorization order: pairs i >= j listed
    column by column, with w = sqrt(2) on off-diagonal positions."""
    r, c = np.triu_indices(n)
    # upper triangle in row-major order transposes to lower triangle in
    # column-major order, preserving sequence position
    i, j = c.copy(), r.copy()
    return _read_only(i), _read_only(j), _read_only(np.where(i == j, 1.0, _SQRT2))


@functools.cache
def _svec_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, w): the flat indices i * n + j of the svec positions of an
    n x n matrix, and their weights."""
    i, j, w = tri_indices(n)
    return _read_only(i * n + j), w


@functools.cache
def _svec_inv_gather(d: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, pos, w): the side of a matrix with svec length d, for each of its
    entries in row-major order the svec position of its pair, and the
    weights."""
    n = mat_dim(d)
    i, j, w = tri_indices(n)
    pos = np.empty((n, n), dtype=np.int64)
    pos[i, j] = np.arange(d)
    pos[j, i] = np.arange(d)
    return n, _read_only(pos.ravel()), w


def svec(a: np.ndarray) -> np.ndarray:
    """Vectorize a symmetric matrix; <A, B> == svec(A) @ svec(B).

    Gathers a[i, j] through flat indices i * n + j, then scales by w."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("svec expects a square matrix")
    flat, w = _svec_gather(n)
    return a.take(flat) * w


def svec_inv(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`; exact round trip for symmetric input.

    Entries (i, j) and (j, i) both receive v[p] / w[p] for the position p
    of the pair, gathered in one pass."""
    v = np.asarray(v, dtype=float)
    n, pos, w = _svec_inv_gather(v.shape[0])
    return (v / w).take(pos).reshape(n, n)


@functools.cache
def svec_identity(k: int) -> np.ndarray:
    return _read_only(svec(np.eye(k)))


@functools.cache
def u_matrix(n: int) -> np.ndarray:
    """Matrix mapping vec(A) (column-stacked) to svec(A) for symmetric A.

    Rows follow the svec order; columns follow column-major vec order.  The
    rows are orthonormal and U.T @ svec(A) == vec(A) for symmetric A.  Row p
    holds 1 / w[p] at the vec positions of (i, j) and (j, i), the same
    position when i == j.
    """
    i, j, w = tri_indices(n)
    rows = np.arange(svec_dim(n))
    u = np.zeros((rows.size, n * n))
    u[rows, j * n + i] = 1.0 / w
    u[rows, i * n + j] = 1.0 / w
    return _read_only(u)


@functools.cache
def _kron_sides(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(0.5 * U, U.T) for :func:`symm_kron` at size n."""
    u = u_matrix(n)
    return _read_only(0.5 * u), u.T


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
    half_u, u_t = _kron_sides(n)
    # p[i, k, j, l] = g[i, j] * h[k, l] = kron(g, h)[i*n + k, j*n + l];
    # kron(h, g) holds the same products with both index pairs swapped
    p = g[:, None, :, None] * h[None, :, None, :]
    kk = (p + p.transpose(1, 0, 3, 2)).reshape(n * n, n * n)
    return half_u @ kk @ u_t


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
