"""Extreme eigenpairs of implicitly represented symmetric operators.

Thick-restart Lanczos with full reorthogonalization: the basis is small (a
few dozen vectors) while the operator dimension may be huge, so keeping the
basis fully orthogonal is cheap and avoids ghost eigenvalues.  Restarts keep
the leading Ritz vectors, which makes the leading Ritz value non-decreasing
from one cycle to the next.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .symlin import small_eigh

__all__ = ["LinOp", "EigResult", "lanczos_top", "NumericError"]

log = logging.getLogger(__name__)


class NumericError(RuntimeError):
    """The operator produced non-finite values."""


@dataclass(frozen=True)
class LinOp:
    """Symmetric linear operator given by its matrix-vector product."""

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
    matvecs: int  # operator applications; the dense fallback counts n
    ritz_history: list = field(default_factory=list)


def _seeded_unit(n: int, seed: int, counter: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, counter])
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _fresh_direction(q: np.ndarray, used: int, seed: int, counter: int) -> np.ndarray | None:
    n = q.shape[0]
    for attempt in range(8):
        v = _seeded_unit(n, seed, counter + attempt + 1)
        v -= q[:, :used] @ (q[:, :used].T @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            return v / nv
    return None


def _dense_fallback(op: LinOp, k_c: int) -> EigResult:
    n = op.dim
    z = op.apply_block(np.eye(n))
    if not np.all(np.isfinite(z)):
        raise NumericError("matvec returned non-finite values")
    vals, vecs = small_eigh(0.5 * (z + z.T))
    k = min(k_c, n)
    return EigResult(
        eigenvalues=vals[:k],
        eigenvectors=vecs[:, :k],
        residuals=np.zeros(k),
        converged=True,
        leading_converged=True,
        restarts=0,
        matvecs=n,
        ritz_history=[float(vals[0])],
    )


@np.errstate(invalid="ignore", over="ignore")
def lanczos_top(
    op: LinOp,
    k_c: int,
    inner_iters: int = 32,
    max_restarts: int = 10,
    tol: float | None = None,
    seed: int = 0,
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
    reported unconverged.  A result whose leading pair misses the tolerance
    is logged as a warning.

    The operator is applied to a contiguous copy of the newest basis vector,
    not to a strided column of the basis, which a sparse operator would copy
    on every matvec.  The values are the same and the basis layout and the
    operands of every projection are unchanged, so the iterates are bit for
    bit those of applying the operator to the basis column.  The array the
    operator returns is never written to: it may be the input vector or a
    buffer the operator reuses.  A non-finite matvec raises ``NumericError``,
    with no numpy floating-point warning before it: the non-finite values
    reach ``beta`` through both projections, and the warnings those would
    emit are silenced in this function.
    """
    n = op.dim
    if k_c < 1:
        raise ValueError("k_c must be at least 1")
    if max_restarts < 0:
        raise ValueError("max_restarts must be non-negative")
    if k_c >= n or inner_iters >= n:
        return _dense_fallback(op, k_c)
    # the basis must strictly exceed the wanted count for a restart to make
    # progress, so undersized budgets are bumped rather than truncated
    m = max(int(inner_iters), k_c + 1, 2)
    if m >= n:
        return _dense_fallback(op, k_c)
    if tol is None:
        tol = 1e-9
    q = np.zeros((n, m + 1))
    h = np.zeros((m + 1, m + 1))
    # contiguous copy of the newest basis vector, the one the operator sees
    v = _seeded_unit(n, seed, 0)
    q[:, 0] = v
    ell = 0
    reseed_counter = 0
    ritz_history: list[float] = []
    converged = False
    restarts_done = 0
    matvecs = 0
    trail: list[float] = []  # worst trailing residual of each cycle
    theta = np.zeros(m)
    y = np.eye(m)
    res = np.full(m, np.inf)

    for cycle in range(max_restarts + 1):
        matvecs += m - ell
        for j in range(ell, m):
            w = np.asarray(op.matvec(v), dtype=float)
            basis = q[:, : j + 1]
            coeffs = basis.T @ w
            # the first projection allocates, so w is owned from here on
            w = w - basis @ coeffs
            extra = basis.T @ w
            w -= basis @ extra
            coeffs += extra
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
                v = np.zeros(n) if fresh is None else fresh
                h[j + 1, j] = 0.0
                h[j, j + 1] = 0.0
            else:
                w /= beta
                v = w
                h[j + 1, j] = beta
                h[j, j + 1] = beta
            q[:, j + 1] = v
        theta, y = small_eigh(h[:m, :m])
        beta_last = h[m, m - 1]
        res = np.abs(beta_last * y[m - 1, :])
        ritz_history.append(float(theta[0]))
        tol_eff = tol * (1.0 + abs(float(theta[0])))
        if np.all(res[:k_c] <= tol_eff):
            converged = True
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
        kept = q[:, :m] @ y[:, :ell]
        q[:, :ell] = kept
        q[:, ell] = v
        h[:, :] = 0.0
        h[:ell, :ell] = np.diag(theta[:ell])
        restarts_done += 1

    leading_converged = bool(res[0] <= tol_eff)
    if not leading_converged:
        log.warning(
            "leading Ritz pair unconverged after %d restarts: residual %.3e > tolerance %.3e",
            restarts_done,
            res[0],
            tol_eff,
        )
    vals = theta[:k_c].copy()
    vecs = q[:, :m] @ y[:, :k_c]
    return EigResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=res[:k_c].copy(),
        converged=converged,
        leading_converged=leading_converged,
        restarts=restarts_done,
        matvecs=matvecs,
        ritz_history=ritz_history,
    )
