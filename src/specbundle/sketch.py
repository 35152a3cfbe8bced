"""Randomized range sketch of the aggregate primal matrix.

The sketch stores the product of the tracked matrix with a fixed Gaussian
test matrix and supports the two operations the solver needs: a low-rank
additive update, and a stabilized positive semidefinite reconstruction.
Reconstruction error depends only on the final tracked matrix and the test
matrix, never on the number of updates applied.

The test matrix is regenerated from its seed with the legacy NumPy MT19937
generator (``numpy.random.RandomState.standard_normal``, row-major fill),
whose stream is frozen across NumPy versions, so serialized sketches replay
identically across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

__all__ = ["NystromSketch", "make_test_matrix", "sketch_init", "sketch_update", "reconstruct"]


def make_test_matrix(n: int, r: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(int(seed) & 0x7FFFFFFF)
    return rng.standard_normal((n, r))


@dataclass
class NystromSketch:
    n: int
    r: int
    psi_seed: int
    sketch_mat: np.ndarray  # n x r product of the tracked matrix with psi
    psi_cache: Optional[np.ndarray] = field(default=None, repr=False)

    def psi(self) -> np.ndarray:
        """The test matrix, drawn from its seed on first use and kept."""
        if self.psi_cache is None:
            self.psi_cache = make_test_matrix(self.n, self.r, self.psi_seed)
        return self.psi_cache


def sketch_init(n: int, r: int, seed: int) -> NystromSketch:
    """Zero sketch of an all-zero matrix with a reproducible test matrix."""
    if not 1 <= r <= n:
        raise ValueError(f"sketch rank {r} must lie in [1, {n}]")
    return NystromSketch(
        n=n,
        r=r,
        psi_seed=int(seed),
        sketch_mat=np.zeros((n, r)),
        psi_cache=make_test_matrix(n, r, seed),
    )


def sketch_update(s: NystromSketch, eta: float, v: np.ndarray, lams: np.ndarray) -> NystromSketch:
    """Apply the low-rank transition: tracked matrix becomes
    eta * old + V diag(lams) V^T.  Cost O(n k r), no n x n product."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    lams = np.asarray(lams, dtype=float)
    if np.any(lams < -1e-12 * max(1.0, float(np.max(np.abs(lams), initial=0.0)))):
        raise ValueError("update eigenvalues must be nonnegative")
    if v.shape[0] != s.n or lams.shape != (v.shape[1],):
        raise ValueError("dimension mismatch in sketch update")
    new_mat = eta * s.sketch_mat + (v * lams[None, :]) @ (v.T @ s.psi())
    return NystromSketch(
        n=s.n, r=s.r, psi_seed=s.psi_seed, sketch_mat=new_mat, psi_cache=s.psi_cache
    )


def reconstruct(s: NystromSketch) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r positive semidefinite approximation (U, lams) of the tracked
    matrix, as U diag(lams) U^T with orthonormal U.

    Uses the shift-stabilized formulation: a multiple of the identity is
    folded into the sketch before the Cholesky solve and subtracted from the
    reconstructed eigenvalues, which keeps the core solve well posed when
    the tracked matrix has rank below r.
    """
    p = s.sketch_mat
    norm_p = float(np.linalg.norm(p))
    if norm_p == 0.0:
        u = np.zeros((s.n, s.r))
        u[: s.r, : s.r] = np.eye(s.r)
        return u, np.zeros(s.r)
    psi = s.psi()
    shift = np.sqrt(s.n) * np.finfo(float).eps * norm_p
    p_shift = p + shift * psi
    core = psi.T @ p_shift
    core = 0.5 * (core + core.T)
    try:
        chol = np.linalg.cholesky(core)
        half = scipy.linalg.solve_triangular(chol, p_shift.T, lower=True).T
    except np.linalg.LinAlgError:
        # rank-deficient core despite the shift: eigenvalue pseudo-inverse
        w, qmat = np.linalg.eigh(core)
        keep = w > max(w.max(initial=0.0), 0.0) * 1e-14
        if not np.any(keep):
            u = np.zeros((s.n, s.r))
            u[: s.r, : s.r] = np.eye(s.r)
            return u, np.zeros(s.r)
        half = p_shift @ (qmat[:, keep] / np.sqrt(w[keep])[None, :])
    u, sing, _ = np.linalg.svd(half, full_matrices=False)
    lams = np.maximum(sing**2 - shift, 0.0)
    return u, lams
