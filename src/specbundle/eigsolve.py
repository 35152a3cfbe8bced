"""Extreme eigenpairs of implicitly represented symmetric operators.

Thick-restart Lanczos that keeps its basis orthogonal, which avoids ghost
eigenvalues.  The basis is small (a few dozen vectors), so below
``PARTIAL_REORTH_MIN_N`` every step makes one Gram-Schmidt pass against the
whole basis (full reorthogonalization).  On larger operators that pass
costs as much as the matvec, and a step makes it only when Simon's estimate
of the loss of orthogonality calls for it (partial reorthogonalization),
which keeps the basis semi-orthogonal.  Restarts keep the leading Ritz
vectors (on the partial path, an orthonormal basis of their subspace up to
rounding), which makes the leading Ritz value non-decreasing from one cycle
to the next, so a caller that only needs to know whether lambda_max
exceeds a threshold can stop the iteration once a Ritz value does (the
decision exit).  An operator given as an explicit array of side
at most ``DENSE_EIG_MAX_N``, or smaller than the Krylov basis, gets its top
pairs from one dense LAPACK solve instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import dsyevr

from .symlin import small_eigh

__all__ = [
    "LinOp",
    "EigResult",
    "lanczos_top",
    "NumericError",
    "DENSE_EIG_MAX_N",
    "PARTIAL_REORTH_MIN_N",
]

# largest side of an explicit array whose top pairs come from one dense
# ``dsyevr`` call rather than Lanczos.  On QAP dual slacks (k_c = 2, the
# first six candidates of a solve, one OpenBLAS thread on a Xeon vCPU) the
# dense call with its residual product took 0.9 / 2.2 / 2.9 / 4.7 ms at
# sides 145 / 226 / 257 / 325, and Lanczos 2.2 / 2.6 / 2.9 / 3.5 ms
DENSE_EIG_MAX_N = 240

# smallest operator side at which a Lanczos step makes its full
# Gram-Schmidt pass only when the estimated loss of orthogonality calls for
# it.  One pass over 22 rows took 12 / 43 / 86 / 313 / 2,008 us at
# n = 1e3 / 4e3 / 8e3 / 1.6e4 / 1e5 (one OpenBLAS thread on a Xeon vCPU
# with 2 MiB of L2 per core): it jumps once the basis outgrows the cache,
# while the estimate costs about 20 us a step.  Skipping passes moves the
# rounding, and so the iterates of a solve: at n = 1e3 (the benchmark's
# MaxCut arrivals) that took 63 / 92 iterations in place of 60 / 74; from
# n = 3e4 on a solve to a 1e-3 certificate got 17-42% faster
PARTIAL_REORTH_MIN_N = 1 << 14

# estimated |q_i^T q_k| above which a step makes its full pass: well under
# Simon's semi-orthogonality level sqrt(eps / m), at which the projected
# matrix still gives the Ritz values of an orthonormal basis.  On five
# n = 1e5 MaxCut slacks (673 matvecs in all) 1e-11 / 1e-10 / 1e-9 took
# 188 / 120 / 86 passes and returned vectors orthonormal to 2e-14 / 3e-14 /
# 3e-13
REORTH_OMEGA = 1e-10


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
    # full Gram-Schmidt passes against the whole basis: one per Lanczos step
    # below PARTIAL_REORTH_MIN_N, those the loss estimate calls for above it
    reorth_passes: int = 0


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


class _LossEstimate:
    """Simon's estimates of how far a Lanczos basis of ``m + 1`` rows of
    length ``n`` has lost orthogonality (Math. Comp. 1984), carried through
    thick restarts.

    Every row ``k`` satisfies ``A q_k = sum_i (h + dropped)[i, k] q_i +
    f_k`` with rounding ``f_k``.  Here ``h`` is the projected matrix
    (tridiagonal, with the arrow of a thick restart), and ``dropped`` holds
    what the relation has beyond it, in basis coordinates: the coefficients
    a full pass removed, which stay out of ``h``, and what the projections
    written into ``h`` replaced (a norm that divided a vector, the locked
    rows' coupling to the continuing vector).  Then ``q_k^T A q_j =
    q_j^T A q_k`` gives the new row ``q_{j+1}^T q_k`` from the earlier ones,
    at a cost of a few small products a step.  There the terms of
    ``dropped`` are products of two small quantities (a coefficient the
    size of the loss, times an estimate) and are left out; the restart
    needs them all.
    """

    def __init__(self, m: int, n: int):
        self.omega = np.zeros((m + 1, m + 1))  # estimates of q_i^T q_k, zero diagonal
        self.dropped = np.zeros((m + 1, m + 1))
        self.eps = np.finfo(float).eps * math.sqrt(n)  # rounding of one length-n product
        self.anorm = 0.0  # running bound on the norm of h
        self.pass_next = False
        # the locked rows' coupling to the continuing vector in the relation
        # of a restart, which h replaces by the projection of its product
        self.arrow = np.zeros(0)
        # set once a restart could not keep the relation in the basis: every
        # later step then makes the full pass
        self.exhausted = False

    def project(self, h: np.ndarray, j: int, near: np.ndarray, first: bool) -> None:
        """Write step ``j``'s local coefficients ``near`` (its last rows)
        into ``h``, keeping in ``dropped`` what they overwrite of the
        relation: on the first step of a cycle the arrow, otherwise the norm
        ``beta_{j-1}``, which the projection on ``q_{j-1}`` repeats up to
        rounding."""
        if first:
            self.dropped[j, :j] = self.arrow - near[:j]
        else:
            self.dropped[j, j - 1] = h[j, j - 1] - near[0]
        lo = j + 1 - near.size
        h[lo : j + 1, j] = near
        h[j, lo : j + 1] = near

    def wants_pass(self, h: np.ndarray, j: int, beta: float, first: bool) -> bool:
        """Whether step ``j``, whose new vector has norm ``beta`` after the
        local projection, makes the full pass: on the first step of a cycle
        (``first``), on the step after a pass the estimate called for, and
        when the estimate of ``q_k^T q_{j+1}`` exceeds ``REORTH_OMEGA`` for
        some ``k``.  The rounding is added with the sign of each estimate, as
        Simon does, so the estimate errs large.  ``beta`` must be nonzero
        unless ``first``."""
        self.anorm = max(self.anorm, float(np.abs(h[: j + 1, j]).sum()) + beta)
        if first or self.pass_next or self.exhausted:
            self.pass_next = False
            return True
        om = self.omega
        t = om[j, : j + 1] @ h[: j + 1, :j]
        t -= h[: j + 1, j] @ om[: j + 1, :j]
        noise = self.eps * self.anorm
        row = om[j + 1, : j + 1]
        row[:j] = (t + np.copysign(noise, t)) / beta
        row[j] = noise / beta  # the local projection against q_j
        om[: j + 1, j + 1] = row
        self.pass_next = float(np.abs(row).max()) > REORTH_OMEGA
        return self.pass_next

    def passed(self, j: int, coeffs: Optional[np.ndarray]) -> None:
        """Step ``j``'s new vector was orthogonalized against the whole
        basis: by a full pass that removed ``coeffs``, or as a fresh
        direction (``None``), after which the next step makes a pass too."""
        self.omega[j + 1, : j + 1] = self.eps
        self.omega[: j + 1, j + 1] = self.eps
        if coeffs is None:
            self.pass_next = True
        else:
            self.dropped[: j + 1, j] = coeffs

    def restart(
        self, h: np.ndarray, theta: np.ndarray, y: np.ndarray, ell: int, beta: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows to lock at a thick restart, as coordinates in the ``m``
        rows (one column each), and the diagonal of their block of ``h``.

        Ritz vectors of ``h`` would leave part of their relation on the
        Ritz vectors the restart discards, where no estimate can follow it.
        So the locked rows span the invariant subspace of the relation
        matrix ``h + dropped`` for its eigenvalues above the midpoint of
        the Ritz values ``theta[ell - 1]`` and ``theta[ell]``: its real Schur
        vectors, whose relation stays in the basis.  The block of their
        relation off its diagonal goes to ``dropped``.  The continuing
        vector ``q_m`` entered the basis with norm ``beta``.  Should the
        count above the midpoint leave no row to lock or no room for a
        cycle, the Ritz vectors ``y`` are locked as below the gate, and
        every later step makes the full pass."""
        m = y.shape[0]
        count = 0
        if not self.exhausted:
            cut = 0.5 * (theta[ell - 1] + theta[ell])
            block, vecs, count = schur(
                h[:m, :m] + self.dropped[:m, :m], output="real", sort=lambda re, im: re > cut
            )
        if 1 <= count < m:
            keep, locked = vecs[:, :count], block[:count, :count]
        else:
            keep, locked = y[:, :ell], np.diag(theta[:ell])
            self.exhausted = True
        ell = keep.shape[1]
        diag = np.diag(locked).copy()
        self.arrow = beta * keep[m - 1]
        carried = keep.T @ self.omega[:m, m]
        self.omega[:, :] = 0.0
        self.dropped[:, :] = 0.0
        self.dropped[:ell, :ell] = locked - np.diag(diag)
        # the estimates between two locked rows are never read
        self.omega[ell, :ell] = carried
        self.omega[:ell, ell] = carried
        return keep, diag


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

    Runs cycles of ``inner_iters`` Lanczos steps, restarting from the
    leading Ritz vectors until the
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
    threshold is then certainly exceeded.  On the partial path below, the
    leading value must exceed ``theta_stop`` by ``m * eps * sqrt(n)`` times
    a bound on the projected matrix's norm, for a semi-orthogonal basis.
    Such a result reports ``decided=True`` and ``converged=False``.
    Without ``theta_stop`` the path is the one above, bit for bit.

    Each step projects the product once on the rows it reaches in exact
    arithmetic: the vector itself and the one before it, or on the first
    step of a cycle every locked Ritz row as well (the arrow of a thick
    restart; Wu & Simon 2000).  One classical Gram-Schmidt pass against the
    whole basis then removes what rounding left, which keeps the basis
    orthogonal to working precision ("twice is enough": Daniel, Gragg,
    Kaufman & Stewart 1976).  Below ``PARTIAL_REORTH_MIN_N`` every step
    makes that pass.  From that side on (partial reorthogonalization;
    Simon, Math. Comp. 1984) a step makes it only on the first step of a
    cycle, where the arrow meets the locked rows, or when Simon's
    recurrence, run on the projected matrix, estimates some
    ``|q_i^T q_{j+1}|`` above ``REORTH_OMEGA``, and then on the next step
    too.  The pass's coefficients stay out of the projected matrix, which
    keeps its tridiagonal and arrow form; they are kept aside in the exact
    relation ``A Q = Q (h + dropped) + ...``.  A restart on the partial
    path locks the real Schur vectors of that relation matrix for
    its leading eigenvalues, which span the leading Ritz vectors' subspace
    up to rounding but keep the locked rows' relation inside the basis, and
    it re-derives the continuing vector's estimates against them.
    ``reorth_passes`` counts the passes made.

    The basis is stored one vector per row, so the operator gets the newest
    vector as a contiguous row and each projection reads only the live
    rows.  That row is the basis itself, so the operator must not write to
    its argument.  The array the operator returns is never written to: it
    may be the input vector or a buffer the operator reuses.  A non-finite
    matvec raises ``NumericError``, with no numpy floating-point warning
    before it: the non-finite values reach ``beta`` through the
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

    loss = _LossEstimate(m, n) if n >= PARTIAL_REORTH_MIN_N else None
    passes = 0

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
            if loss is None:
                coeffs = basis @ w
                w -= coeffs @ basis
                coeffs[lo:] += near
                h[: j + 1, j] = coeffs
                h[j, : j + 1] = coeffs
                passes += 1
            else:
                coeffs = near
                loss.project(h, j, near, j == ell)
            # a NaN or inf in the matvec survives the projections into beta
            beta = math.sqrt(w @ w)
            if not math.isfinite(beta):
                raise NumericError("matvec returned non-finite values")
            scale = max(1.0, float(np.abs(coeffs).max()))
            if (
                loss is not None
                and (j == ell or beta > 1e-13 * scale)
                and loss.wants_pass(h, j, beta, j == ell)
            ):
                # the coefficients stay out of h, which keeps its form
                removed = basis @ w
                w -= removed @ basis
                beta = math.sqrt(w @ w)
                loss.passed(j, removed)
                passes += 1
            if beta <= 1e-13 * scale:
                # invariant subspace found; continue on a fresh direction
                reseed_counter += 16
                fresh = _fresh_direction(q, j + 1, seed, reseed_counter)
                q[j + 1] = 0.0 if fresh is None else fresh
                h[j + 1, j] = 0.0
                h[j, j + 1] = 0.0
                if loss is not None:
                    loss.passed(j, None)
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
        # a semi-orthogonal basis leaves the Ritz values within a few
        # rounding units of the norm of those of an orthonormal one
        margin = 0.0 if loss is None else m * loss.eps * loss.anorm
        if (
            theta_stop is not None
            and theta[0] > theta_stop + margin
            and np.all(res[:k_c] <= res_max)
        ):
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
        keep, locked = y[:, :ell], theta[:ell]
        if loss is not None:
            keep, locked = loss.restart(h, theta, y, ell, beta_last)
            ell = locked.size
        q[:ell] = keep.T @ q[:m]
        q[ell] = q[m]
        h[:, :] = 0.0
        h[:ell, :ell] = np.diag(locked)
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
        reorth_passes=passes,
    )
