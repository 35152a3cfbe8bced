"""Extreme eigenpairs of implicitly represented symmetric operators.

Thick-restart Lanczos with full reorthogonalization: the basis is small (a
few dozen vectors) while the operator dimension may be huge, so keeping the
basis fully orthogonal is cheap and avoids ghost eigenvalues.  Restarts keep
the leading Ritz vectors, which makes the leading Ritz value non-decreasing
from one cycle to the next, so a caller that only needs to know whether
lambda_max exceeds a threshold can stop the iteration once a Ritz value
does (the decision exit).  An operator given as an explicit array of side
at most ``DENSE_EIG_MAX_N``, or smaller than the Krylov basis, gets its top
pairs from one dense LAPACK solve instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dsyevr

from .symlin import small_eigh

__all__ = ["LinOp", "EigResult", "lanczos_top", "NumericError", "DENSE_EIG_MAX_N"]

# largest side of an explicit array whose top pairs come from one dense
# ``dsyevr`` call rather than Lanczos.  On QAP dual slacks (k_c = 2, the
# first six candidates of a solve, one OpenBLAS thread on a Xeon vCPU) the
# dense call with its residual product took 0.9 / 2.2 / 2.9 / 4.7 ms at
# sides 145 / 226 / 257 / 325, and Lanczos 2.2 / 2.6 / 2.9 / 3.5 ms
DENSE_EIG_MAX_N = 240


class NumericError(RuntimeError):
    """The operator produced non-finite values."""


@dataclass(frozen=True)
class LinOp:
    """Symmetric linear operator given by its matrix-vector product."""

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # the operator as an n x n array, when it is held as one
    matrix: Optional[np.ndarray] = None

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        if self.matmat is not None:
            return self.matmat(block)
        return np.column_stack([self.matvec(block[:, j]) for j in range(block.shape[1])])


@dataclass
class EigResult:
    eigenvalues: np.ndarray  # descending, length k
    eigenvectors: np.ndarray  # dim x k, orthonormal columns
    residuals: np.ndarray  # per-pair residual norms
    converged: bool  # every wanted pair met the tolerance
    leading_converged: bool  # the leading pair, which gives lambda_max, met it
    restarts: int
    matvecs: int  # operator applications, the residual products of a dense solve included
    # stopped at the decision exit: theta_0 > theta_stop with every wanted
    # residual at most res_max, so the values are lower bounds, not converged
    decided: bool = False


def _seeded_unit(n: int, seed: int, counter: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, counter])
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _fresh_direction(q: np.ndarray, used: int, seed: int, counter: int) -> np.ndarray | None:
    """A unit vector orthogonal to the first ``used`` rows of ``q``."""
    n = q.shape[1]
    for attempt in range(8):
        v = _seeded_unit(n, seed, counter + attempt + 1)
        v -= (q[:used] @ v) @ q[:used]
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            return v / nv
    return None


def _dense_top(op: LinOp, z: np.ndarray, k_c: int, tol: float, applied: int) -> EigResult:
    """The top ``k_c`` pairs of ``op``, held as the array ``z``, from one
    LAPACK ``dsyevr`` call on its lower triangle (the routine that
    ``scipy.linalg.eigh(z, subset_by_index=...)`` calls, without its
    wrapper).  The residuals come from one product of ``op``
    with the eigenvectors, so ``matvecs`` is ``applied`` plus those
    columns."""
    n = op.dim
    if not np.isfinite(z).all():
        raise NumericError("matvec returned non-finite values")
    k = min(k_c, n)
    w, v, found, _, info = dsyevr(z, compute_v=1, range="I", lower=1, il=n - k + 1, iu=n)
    if info != 0 or found != k:
        raise NumericError(f"dense eigensolve failed (dsyevr info {info}, {found} of {k} pairs)")
    vals = w[k - 1 :: -1].copy()
    vecs = np.ascontiguousarray(v[:, ::-1])
    res = np.linalg.norm(op.apply_block(vecs) - vecs * vals, axis=0)
    ok = res <= tol * (1.0 + abs(float(vals[0])))
    return EigResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=res,
        converged=bool(ok.all()),
        leading_converged=bool(ok[0]),
        restarts=0,
        matvecs=applied + k,
    )


@np.errstate(invalid="ignore", over="ignore")
def lanczos_top(
    op: LinOp,
    k_c: int,
    inner_iters: int = 32,
    max_restarts: int = 10,
    tol: float = 1e-9,
    seed: int = 0,
    matrix: Optional[np.ndarray] = None,
    theta_stop: Optional[float] = None,
    res_max: float = math.inf,
) -> EigResult:
    """Algebraically largest k_c Ritz pairs of a symmetric operator.

    Runs cycles of ``inner_iters`` Lanczos steps with full
    reorthogonalization, restarting from the leading Ritz vectors until the
    wanted residuals fall below ``tol * (1 + |leading Ritz value|)`` or
    ``max_restarts`` restarts have been spent.  Non-convergence is reported
    through the result, not raised: callers of this solver tolerate slightly
    inexact eigenvectors.  Identical inputs give bit-identical output.

    Only the leading pair has to be accurate; the trailing ``k_c - 1`` pairs
    enrich a model.  So from the third cycle on, once the leading residual
    meets the tolerance, the iteration also stops when the worst trailing
    residual cannot reach it in the restarts left: it has not fallen over the
    last two cycles, or it would still exceed the tolerance after shrinking
    at that two-cycle rate in every remaining restart.  Such a result is bit
    for bit the one ``max_restarts`` equal to its ``restarts`` gives, and is
    reported unconverged.  A leading pair that misses the tolerance is
    reported, not logged: ``leading_converged`` is False, and the bundle
    loop carries that flag into each iteration record, whose misses the
    CLI summary counts.

    ``theta_stop`` arms a decision exit for a caller that needs only to
    know whether ``lambda_max`` exceeds a threshold.  After any cycle that
    has not converged, the iteration stops once the leading Ritz value
    exceeds ``theta_stop`` and every wanted residual is at most
    ``res_max``.  Every Ritz value is at most ``lambda_max``, so the
    threshold is then certainly exceeded.  Such a result reports
    ``decided=True`` and ``converged=False``.
    Without ``theta_stop`` the path is the one above, bit for bit.

    Each step projects the product once on the rows it reaches in exact
    arithmetic: the vector itself and the one before it, or on the first
    step of a cycle every locked Ritz row as well (the arrow of a thick
    restart; Wu & Simon 2000).  One classical Gram-Schmidt pass against the
    whole basis then removes what rounding left, which keeps the basis
    orthogonal to working precision ("twice is enough": Daniel, Gragg,
    Kaufman & Stewart 1976) at one full-basis pass per step.

    The basis is stored one vector per row, so the operator gets the newest
    vector as a contiguous row and each projection reads only the live
    rows.  That row is the basis itself, so the operator must not write to
    its argument.  The array the operator returns is never written to: it
    may be the input vector or a buffer the operator reuses.  A non-finite
    matvec raises ``NumericError``, with no numpy floating-point warning
    before it: the non-finite values reach ``beta`` through both
    projections, and the warnings those would emit are silenced in this
    function.

    ``matrix`` is the operator as an ``n x n`` array, when it is held as
    one.  For ``n <= DENSE_EIG_MAX_N`` the top ``k_c`` pairs then come from
    one dense LAPACK solve on its lower triangle, as they do for any
    operator smaller than the basis (whose array is its product with the
    identity).  A dense result has no restarts, its residuals come from one
    product of ``op`` with its eigenvectors, and ``matvecs`` counts those
    columns, plus ``n`` when the array was built from ``op``.  A non-finite
    array raises ``NumericError``.  The dense routes ignore ``theta_stop``
    and ``res_max``.
    """
    n = op.dim
    if k_c < 1:
        raise ValueError("k_c must be at least 1")
    if max_restarts < 0:
        raise ValueError("max_restarts must be non-negative")
    # the basis must strictly exceed the wanted count for a restart to make
    # progress, so undersized budgets are bumped rather than truncated
    m = max(int(inner_iters), k_c + 1, 2)
    if matrix is not None and n <= DENSE_EIG_MAX_N:
        if matrix.shape != (n, n):
            raise ValueError(f"matrix has shape {matrix.shape}, the operator side is {n}")
        return _dense_top(op, matrix, k_c, tol, applied=0)
    if m >= n:
        return _dense_top(op, op.apply_block(np.eye(n)), k_c, tol, applied=n)
    q = np.zeros((m + 1, n))  # one basis vector per row
    h = np.zeros((m + 1, m + 1))
    q[0] = _seeded_unit(n, seed, 0)
    ell = 0
    reseed_counter = 0
    converged = False
    decided = False
    restarts_done = 0
    matvecs = 0
    trail: list[float] = []  # worst trailing residual of each cycle
    theta = np.zeros(m)
    y = np.eye(m)
    res = np.full(m, np.inf)

    for cycle in range(max_restarts + 1):
        matvecs += m - ell
        for j in range(ell, m):
            w = np.asarray(op.matvec(q[j]), dtype=float)
            # the product reaches only the three-term neighbours, or every
            # locked Ritz row on the first step of a cycle (the arrow)
            lo = 0 if j == ell else j - 1
            local = q[lo : j + 1]
            near = local @ w
            # the local projection allocates, so w is owned from here on
            w = w - near @ local
            basis = q[: j + 1]
            coeffs = basis @ w
            w -= coeffs @ basis
            coeffs[lo:] += near
            h[: j + 1, j] = coeffs
            h[j, : j + 1] = coeffs
            # a NaN or inf in the matvec survives both projections into beta
            beta = math.sqrt(w @ w)
            if not math.isfinite(beta):
                raise NumericError("matvec returned non-finite values")
            scale = max(1.0, float(np.abs(coeffs).max()))
            if beta <= 1e-13 * scale:
                # invariant subspace found; continue on a fresh direction
                reseed_counter += 16
                fresh = _fresh_direction(q, j + 1, seed, reseed_counter)
                q[j + 1] = 0.0 if fresh is None else fresh
                h[j + 1, j] = 0.0
                h[j, j + 1] = 0.0
            else:
                np.divide(w, beta, out=q[j + 1])
                h[j + 1, j] = beta
                h[j, j + 1] = beta
        theta, y = small_eigh(h[:m, :m])
        beta_last = h[m, m - 1]
        res = np.abs(beta_last * y[m - 1, :])
        tol_eff = tol * (1.0 + abs(float(theta[0])))
        if np.all(res[:k_c] <= tol_eff):
            converged = True
            break
        if theta_stop is not None and theta[0] > theta_stop and np.all(res[:k_c] <= res_max):
            decided = True
            break
        if cycle == max_restarts:
            break
        if k_c > 1:
            trail.append(float(res[1:k_c].max()))
            if cycle >= 2 and res[0] <= tol_eff:
                # the trailing pairs cannot converge in the restarts left
                now, before, left = trail[cycle], trail[cycle - 2], max_restarts - cycle
                if now >= before or now * math.sqrt(now / before) ** left > tol_eff:
                    break
        # thick restart: lock leading Ritz vectors, continue from the residual
        ell = max(1, min(k_c + 3, m - 2))
        q[:ell] = y[:, :ell].T @ q[:m]
        q[ell] = q[m]
        h[:, :] = 0.0
        h[:ell, :ell] = np.diag(theta[:ell])
        restarts_done += 1

    vals = theta[:k_c].copy()
    vecs = q[:m].T @ y[:, :k_c]
    return EigResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=res[:k_c].copy(),
        converged=converged,
        leading_converged=bool(res[0] <= tol_eff),
        restarts=restarts_done,
        matvecs=matvecs,
        decided=decided,
    )
