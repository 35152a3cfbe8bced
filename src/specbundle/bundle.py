"""Outer proximal bundle loop over the penalized dual objective.

Each iteration solves the proximal subproblem over the current spectral
set, forms the candidate dual point, evaluates the model and then the true
objective there (an extreme eigenvalue computation, stopped early once the
candidate certainly fails the sufficient decrease test), accepts or rejects
by that test, and updates the model either way.  Aggregate primal
statistics (trace, cost inner product, constraint image) are tracked in
closed form so residuals never need the dense primal matrix.  The proximal
weight is then rebalanced from those residuals, so it depends on outcomes,
never on the iteration count.
"""
from __future__ import annotations

import collections
import contextlib
import copy
import hashlib
import math
import os
import stat
import struct
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import sketch as sketchmod
from .eigsolve import EigResult, lanczos_top
from .problem import SdpProblem, dual_slack_operator, proj_K
from .subqp import alternating_max, assemble_eval_coeffs, ipm_eval
from .symlin import small_eigh

__all__ = [
    "SolverConfig",
    "default_config",
    "AggregateStats",
    "SketchStore",
    "BundleModel",
    "SolverState",
    "Residuals",
    "IterationInfo",
    "PrimalOutput",
    "FingerprintMismatch",
    "NULL_EXIT_RES",
    "Mapping",
    "penalized_obj",
    "candidate_iterate",
    "descent_test",
    "model_update",
    "certified_primal",
    "compute_residuals",
    "balance_rho",
    "cold_start",
    "solve",
    "primal_output",
    "save_state",
    "load_state",
    "state_from_record",
    "warm_start_pad",
    "fingerprint_of",
]


# residual balancing of the proximal weight (see balance_rho): rho moves by
# the factor RHO_STEP when one side of the certificate exceeds the other by
# the factor RHO_IMBALANCE
RHO_IMBALANCE = 2.0
RHO_STEP = 2.0

# the candidate eigensolve stops, as a certain null step, once its leading
# Ritz value puts f(y_cand) above the descent threshold and every wanted
# residual is at most NULL_EXIT_RES * (f_y - model_val) / alpha; rough
# vectors from an earlier exit slowed the warm arrival solves
NULL_EXIT_RES = 0.1


class FingerprintMismatch(RuntimeError):
    """Serialized state does not belong to this problem."""


@dataclass
class SolverConfig:
    """Solver settings.  The defaults are the MaxCut setting, which sketches
    the primal matrix at rank 10, so no default allocates an n x n array;
    :func:`default_config` gives the setting of each problem kind."""

    rho: float = 0.01  # the initial proximal weight; solve adapts it
    beta: float = 0.25
    k_c: int = 10
    k_p: int = 1
    eps: float = 1e-3
    sketch_rank: int = 10  # clamped to n; at n the reconstruction is exact
    max_iters: int = 1000
    max_time: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        rules = {
            # a 1/rho that overflows makes the first candidate step non-finite
            "rho": (0 < self.rho < math.inf and 1.0 / float(self.rho) < math.inf,
                    "positive and finite with a finite 1/rho"),
            "beta": (0 < self.beta < 1, "in (0, 1)"),
            "k_c": (self.k_c >= 1, "at least 1"),
            "k_p": (self.k_p >= 0, "at least 0"),
            "eps": (0 < self.eps < math.inf, "positive and finite"),
            "sketch_rank": (self.sketch_rank >= 1, "at least 1"),
            "max_iters": (self.max_iters >= 0, "at least 0"),
            "max_time": (self.max_time is None or self.max_time >= 0, "None or at least 0"),
            "seed": (self.seed >= 0, "at least 0"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"SolverConfig.{name} must be {rule}, got {getattr(self, name)!r}")


def default_config(kind: str, size: int, **overrides) -> SolverConfig:
    """The settings for a ``"maxcut"`` or ``"qap"`` problem, with
    ``overrides`` applied.  MaxCut takes SolverConfig's defaults.  QAP
    takes a smaller proximal weight, two spectral columns and no past one,
    and a sketch of rank ``size``, the assignment size."""
    if kind == "qap":
        overrides = {"rho": 0.005, "k_c": 2, "k_p": 0, "sketch_rank": size, **overrides}
    elif kind != "maxcut":
        raise ValueError(f"unknown problem kind {kind!r}")
    return SolverConfig(**overrides)


@dataclass
class AggregateStats:
    trace: float
    cost_ip: float
    constr_image: np.ndarray


@dataclass
class SketchStore:
    """The primal store: a Nystrom sketch of the aggregate matrix Xbar.  At
    rank n the test matrix is invertible and the reconstruction is Xbar."""

    sk: sketchmod.NystromSketch


@dataclass
class BundleModel:
    """The spectral set and the last proximal step's primal
    X+ = Xbar + W W^T: the aggregate Xbar, as statistics and a sketch, and
    the kept part W, the k_p eigenpairs of the step that stay in the basis."""

    basis: np.ndarray  # n x k, orthonormal columns
    stats: AggregateStats  # of Xbar
    k_c: int
    k_p: int
    store: SketchStore  # of Xbar
    kept: np.ndarray  # W, n x k_p

    @property
    def k(self) -> int:
        return self.basis.shape[1]


@dataclass
class Residuals:
    rel_subopt: float
    rel_infeas: float
    linf_infeas: float
    dual_feas: float

    def converged(self, eps: float) -> bool:
        """Every measure is at most eps, the gap in absolute value: <C, X>
        above the dual bound f(y) by more than eps means X is not yet
        feasible, or f(y) is wrong, not that X is optimal."""
        measures = (abs(self.rel_subopt), self.rel_infeas, self.linf_infeas, self.dual_feas)
        return all(v <= eps for v in measures)


@dataclass
class SolverState:
    """The whole state of the bundle loop, all of it saved in a state file
    but the residuals and status, which ``solve`` recomputes; it holds no
    proximal slack."""

    y: np.ndarray
    f_y: Optional[float]  # None, with lam_y, until evaluated (a padded state)
    lam_y: Optional[float]
    model: BundleModel
    rho: float  # the proximal weight of the next iteration
    descent_steps: int = 0
    null_steps: int = 0
    iterations: int = 0
    residuals: Optional[Residuals] = None
    status: Optional[str] = None
    scale_x: float = 1.0
    # each step eliminates its own slack.  This empty, read-only stand-in is
    # not a field and is never written or saved; its only reader is
    # perfbench/checks.py::_same_state, which compares saved.nu, loaded.nu
    nu = np.empty(0)
    nu.flags.writeable = False


@dataclass
class IterationInfo:
    """Per-iteration record handed to the solve callback."""

    t: int
    elapsed: float
    step: str  # "descent" or "null"
    f_y: float
    f_cand: float
    model_val: float
    y: np.ndarray
    y_cand: np.ndarray
    residuals: Residuals
    primal: AggregateStats  # of the certified X+
    eta: float
    rho: float  # the proximal weight of this step; state.rho is the next one
    lam_cand: float
    state: SolverState
    model: BundleModel
    # the eigensolve at y_cand, as scalars so that a kept record does not
    # hold its n x k_c eigenvectors; eig_leading_converged is False when
    # lam_cand comes from a leading pair that missed its tolerance
    eig_matvecs: int
    eig_restarts: int
    eig_converged: bool
    eig_leading_residual: float
    eig_leading_converged: bool
    # eig_decided: the eigensolve stopped at its decision exit, so the step
    # is null by construction and f_cand and lam_cand are lower bounds on
    # f(y_cand) and lambda_max there
    eig_decided: bool
    # full Gram-Schmidt passes of the eigensolve (EigResult.reorth_passes):
    # one per matvec below eigsolve.PARTIAL_REORTH_MIN_N, fewer above it
    eig_reorth_passes: int
    # the proximal step: the pieces of its objective that the one
    # interior-point solve visited (sets of sign rows kept; 1 for a problem
    # without sign rows, whose objective has one piece), its Newton steps,
    # and alt_exact False when that solve stopped inexact
    alt_passes: int
    alt_newton: int
    alt_exact: bool
    # perf_counter seconds of this iteration's phases (the proximal step with
    # its candidate point, the eigensolve at the candidate, the model value,
    # which runs before the eigensolve, the model update, the residuals with
    # the next proximal weight) and of the whole iteration up to the
    # callback, which holds them all
    secs_prox: float
    secs_eig: float
    secs_model_val: float
    secs_model_update: float
    secs_residuals: float
    secs_iter: float


@dataclass
class PrimalOutput:
    factor: np.ndarray  # n x r orthonormal columns
    lams: np.ndarray


# ---------------------------------------------------------------------------
# core operations


def penalized_obj(
    prob: SdpProblem,
    y: np.ndarray,
    cfg: SolverConfig,
    k_c: int,
    f_stop: Optional[float] = None,
    res_max: float = math.inf,
) -> tuple[float, EigResult]:
    """Penalized dual objective at a y with y >= 0 on the inequality rows,
    and the top ``k_c`` eigenpairs that realize it.

    With ``f_stop`` the eigensolve may stop at its decision exit once the
    objective certainly exceeds ``f_stop``, every wanted residual at most
    ``res_max``; the value returned is then a lower bound on the objective
    (``eig.decided``).  ``solve`` checks the sign of its start point, and
    every candidate it evaluates is clipped to the sign cone.
    """
    op = dual_slack_operator(prob, y)
    b_y = float(prob.b @ y)
    # f > f_stop once alpha * lambda_max > f_stop - <b, y>, and a Ritz value
    # is at most lambda_max
    theta_stop = None if f_stop is None else (f_stop - b_y) / prob.alpha
    # the array goes as an argument: a wrapper around lanczos_top may hand
    # it a rebuilt operator that does not carry it
    eig = lanczos_top(
        op, k_c, seed=cfg.seed, matrix=op.matrix, theta_stop=theta_stop, res_max=res_max
    )
    lam = float(eig.eigenvalues[0])
    f = prob.alpha * max(lam, 0.0) + b_y
    return f, eig


def candidate_iterate(
    y: np.ndarray,
    a_x: np.ndarray,
    b: np.ndarray,
    rho: float,
    ineq_idx: np.ndarray,
) -> np.ndarray:
    """Proximal candidate: the gradient step y - (b - a_x)/rho, clipped to
    max(., 0) on the sign rows.  That is y - (b + nu - a_x)/rho for the
    eliminated slack nu = min(a_x + rho*y - b, 0) on those rows."""
    out = y - (b - a_x) / rho
    out[ineq_idx] = np.maximum(out[ineq_idx], 0.0)
    return out


def descent_test(f_y: float, f_cand: float, model_val: float, beta: float) -> bool:
    """Accept when realized decrease covers a beta fraction of the decrease
    the model predicted."""
    return beta * (f_y - model_val) <= f_y - f_cand


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis, C-ordered, for the span of the columns of ``cols``.

    Column-pivoted Householder QR (LAPACK ``dgeqp3``) keeps the leading
    columns of Q whose |R_ii| exceed 1e-12 * |R_00|; pivoting makes
    |R_00| the largest input column norm.  An all-zero or numerically
    dependent block keeps no column."""
    q, r, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    kept = np.abs(np.diag(r)) > 1e-12 * abs(r[0, 0])
    rank = kept.size if kept.all() else int(np.argmin(kept))  # the first dropped
    return np.ascontiguousarray(q[:, :rank])


def _completion_columns(basis: np.ndarray, k: int, seed: int, tag: int) -> np.ndarray:
    """Deterministically extend an orthonormal n x c basis to k <= n columns.

    The k - c new columns are one Gaussian block drawn from (seed, tag),
    projected off the basis and orthonormalized by QR; for k <= n that block
    has full rank with probability 1."""
    n, c = basis.shape
    if c >= k:
        return basis
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x5EED, tag, 0])
    block = rng.standard_normal((n, k - c))
    block -= basis @ (basis.T @ block)
    return np.hstack([basis, np.linalg.qr(block)[0]])


def model_update(
    model: BundleModel,
    eta: float,
    s_next: np.ndarray,
    new_vecs: np.ndarray,
    prob: SdpProblem,
    seed: int = 0,
    tag: int = 0,
) -> BundleModel:
    """Fold the subproblem solution into the aggregate and rebuild the basis.

    The top k_p eigenpairs of the block solution carry past spectral
    information into the next basis, and are the kept part W of the
    certified primal; the remaining k_c eigenpairs are folded into the
    aggregate statistics and the primal store.  The new basis spans the
    kept directions together with the fresh extreme eigenvectors.
    """
    k_p, k_c = model.k_p, model.k_c
    vals, q = small_eigh(s_next)
    lam_c = np.maximum(vals[k_p:], 0.0)
    factor = model.basis @ q[:, k_p:]
    kept_dirs = model.basis @ q[:, :k_p]
    stats = model.stats
    new_trace = eta * stats.trace + float(lam_c.sum())
    new_cost = eta * stats.cost_ip + prob.cost_factor_ip(factor, lam_c)
    new_image = eta * stats.constr_image + prob.constraints.primal_image_factor(factor, lam_c)
    new_stats = AggregateStats(new_trace, new_cost, new_image)

    # a new store, so that each BundleModel owns its iteration's aggregate
    store = SketchStore(sketchmod.sketch_update(model.store.sk, eta, factor, lam_c))
    kept = kept_dirs * np.sqrt(np.maximum(vals[:k_p], 0.0))

    if k_p == 0:
        new_basis = np.asarray(new_vecs, dtype=float)
    else:
        new_basis = _orthonormalize(np.column_stack([kept_dirs, new_vecs]))
    if new_basis.shape[1] < model.k:
        new_basis = _completion_columns(new_basis, model.k, seed, tag)

    return BundleModel(new_basis, new_stats, k_c, k_p, store, kept)


def certified_primal(prob: SdpProblem, model: BundleModel) -> AggregateStats:
    """The statistics of the primal the certificate reads, the last proximal
    step's X+ = Xbar + W W^T; with no kept part that is the aggregate."""
    w = model.kept
    if not w.shape[1]:
        return model.stats
    ones = np.ones(w.shape[1])
    return AggregateStats(
        model.stats.trace + float(np.sum(w * w)),
        model.stats.cost_ip + prob.cost_factor_ip(w, ones),
        model.stats.constr_image + prob.constraints.primal_image_factor(w, ones),
    )


def compute_residuals(
    prob: SdpProblem,
    f_y: float,
    lam_y: float,
    primal: AggregateStats,
) -> Residuals:
    """Convergence measures from tracked statistics only.

    The suboptimality numerator is the gap f(y) - <C, X>: the dual objective
    value bounds the unknown optimum from above, so for a feasible X the
    reported value bounds the true relative suboptimality from above.
    """
    a_x = primal.constr_image
    proj = proj_K(a_x, prob)
    diff = a_x - proj
    b_norm = float(np.linalg.norm(prob.b))
    rel_infeas = float(np.linalg.norm(diff)) / (1.0 + b_norm)
    linf = float(np.max(np.abs(diff))) if diff.size else 0.0
    c_x = primal.cost_ip
    rel_subopt = (f_y - c_x) / (1.0 + abs(c_x))
    return Residuals(
        rel_subopt=rel_subopt,
        rel_infeas=rel_infeas,
        linf_infeas=linf,
        dual_feas=lam_y,
    )


def balance_rho(rho: float, res: Residuals, descent: bool) -> float:
    """The proximal weight for the next iteration, from the residuals of
    this one.  Residual balancing: with P = ``rel_infeas`` and
    D = max(``rel_subopt``, ``dual_feas``), the measures the certificate
    checks, rho grows when D > RHO_IMBALANCE * P (shorter steps, on any
    step) and shrinks when P > RHO_IMBALANCE * D, but only at a descent
    step, so a null step never lengthens the next one."""
    primal = res.rel_infeas
    dual = max(res.rel_subopt, res.dual_feas)
    if dual > RHO_IMBALANCE * primal:
        return rho * RHO_STEP
    if descent and primal > RHO_IMBALANCE * dual:
        return rho / RHO_STEP
    return rho


# ---------------------------------------------------------------------------
# initialization and the outer loop


def _clamped_dims(prob: SdpProblem, cfg: SolverConfig) -> tuple[int, int]:
    k_c = min(cfg.k_c, prob.n)
    k_p = min(cfg.k_p, prob.n - k_c)
    return k_c, k_p


def _derived_seed(seed: int) -> int:
    return int(np.random.SeedSequence(int(seed)).generate_state(1)[0])


def cold_start(prob: SdpProblem, cfg: SolverConfig) -> SolverState:
    """Zero dual point, zero aggregate, basis from the cost's top eigenpairs
    completed deterministically to k columns, and a zero sketch of rank
    ``min(sketch_rank, n)``.

    The eigensolve that yields the basis is the evaluation of the penalized
    objective at y = 0, so the state carries f(0) and lambda_max(C) and
    ``solve`` starts from it without a second eigensolve.
    """
    k_c, k_p = _clamped_dims(prob, cfg)
    k = k_c + k_p
    sketch_seed = _derived_seed(cfg.seed)
    y = np.zeros(prob.m)
    f_y, eig = penalized_obj(prob, y, cfg, k_c=k_c)
    basis = _completion_columns(eig.eigenvectors, k, cfg.seed, tag=0)
    stats = AggregateStats(0.0, 0.0, np.zeros(prob.m))
    store = SketchStore(sketchmod.sketch_init(prob.n, min(cfg.sketch_rank, prob.n), sketch_seed))
    model = BundleModel(basis, stats, k_c, k_p, store, kept=np.zeros((prob.n, k_p)))
    return SolverState(y, f_y, float(eig.eigenvalues[0]), model, cfg.rho, scale_x=prob.scale_x)


def solve(
    prob: SdpProblem,
    cfg: SolverConfig,
    init: Optional[SolverState] = None,
    callback: Optional[Callable[[IterationInfo], None]] = None,
) -> tuple[SolverState, PrimalOutput]:
    """Run the bundle loop until the residual targets or the budget is hit.

    Returns the final state (status "converged" or "budget") and the primal
    output, the certified primal reconstructed from the store.  The loop
    reads and writes ``state`` alone, and assigns new arrays rather than
    mutating them, so a saved state resumes exactly where this solve
    stopped, and ``init`` is left as it was.  Before the first iteration
    the start state, its ``f_y`` checked against ``lam_y`` and ``y``, is
    certified against ``cfg.eps``, so a state saved at convergence resumes
    converged after 0 iterations.  ``cfg.rho`` is the initial proximal
    weight of a cold start; a given state carries its own, and
    :func:`balance_rho` moves it after every iteration.
    """
    state = replace(init) if init is not None else cold_start(prob, cfg)
    if state.model.basis.shape[0] != prob.n or state.y.shape[0] != prob.m:
        raise ValueError("initial state does not match the problem dimensions")
    if np.any(state.y[prob.ineq_idx] < 0):  # the sign rows' y >= 0 is the dual's domain
        raise ValueError(
            "initial dual point violates the sign constraints: y < 0 on an inequality row"
        )
    t_start = time.monotonic()

    if state.f_y is None or state.lam_y is None:
        state.f_y, eig = penalized_obj(prob, state.y, cfg, k_c=state.model.k_c)
        state.lam_y = float(eig.eigenvalues[0])
    else:
        _check_f_y(prob, state)
    state.residuals = compute_residuals(
        prob, state.f_y, state.lam_y, certified_primal(prob, state.model)
    )
    state.iterations = 0
    state.status = "converged" if state.residuals.converged(cfg.eps) else None

    while state.status is None:
        if state.iterations >= cfg.max_iters or (
            cfg.max_time is not None and time.monotonic() - t_start > cfg.max_time
        ):
            state.status = "budget"
            break

        t0 = time.perf_counter()
        rho = state.rho
        alt = alternating_max(prob, state.model, state.y, rho)
        y_cand = candidate_iterate(state.y, alt.a_x, prob.b, rho, prob.ineq_idx)
        t1 = time.perf_counter()
        ev = ipm_eval(assemble_eval_coeffs(prob, state.model, y_cand, alt.cost_quad))
        model_val = float(prob.b @ y_cand) - ev.value
        t2 = time.perf_counter()
        # with a predicted decrease, the eigensolve may stop as soon as the
        # candidate is certainly above the descent threshold f_stop
        pred = state.f_y - model_val
        f_stop, res_max = None, math.inf
        if pred > 0:
            f_stop, res_max = state.f_y - cfg.beta * pred, NULL_EXIT_RES * pred / prob.alpha
        f_cand, eig_cand = penalized_obj(
            prob, y_cand, cfg, k_c=state.model.k_c, f_stop=f_stop, res_max=res_max
        )
        t3 = time.perf_counter()

        # a decision exit is a null step by construction; descent_test's
        # rounding on its lower bound must not accept it
        accept = not eig_cand.decided and descent_test(state.f_y, f_cand, model_val, cfg.beta)
        if accept:
            state.y, state.f_y, state.lam_y = y_cand, f_cand, float(eig_cand.eigenvalues[0])
            state.descent_steps += 1
        else:
            state.null_steps += 1
        step = "descent" if accept else "null"

        t4 = time.perf_counter()
        # the completion tag numbers this iteration over the whole run, so a
        # resumed solve draws the columns the uninterrupted one would
        state.model = model_update(
            state.model, alt.eta, alt.s_mat, eig_cand.eigenvectors, prob,
            seed=cfg.seed, tag=state.descent_steps + state.null_steps,
        )
        t5 = time.perf_counter()
        primal = certified_primal(prob, state.model)
        state.residuals = compute_residuals(prob, state.f_y, state.lam_y, primal)
        state.rho = balance_rho(rho, state.residuals, accept)
        state.iterations += 1
        t6 = time.perf_counter()

        if callback is not None:
            callback(
                IterationInfo(
                    t=state.iterations - 1,
                    elapsed=time.monotonic() - t_start,
                    step=step,
                    f_y=state.f_y,
                    f_cand=f_cand,
                    model_val=model_val,
                    y=state.y,
                    y_cand=y_cand,
                    residuals=state.residuals,
                    primal=primal,
                    eta=alt.eta,
                    rho=rho,
                    lam_cand=float(eig_cand.eigenvalues[0]),
                    state=state,
                    model=state.model,
                    eig_matvecs=eig_cand.matvecs,
                    eig_restarts=eig_cand.restarts,
                    eig_converged=eig_cand.converged,
                    eig_leading_residual=float(eig_cand.residuals[0]),
                    eig_leading_converged=eig_cand.leading_converged,
                    eig_decided=eig_cand.decided,
                    eig_reorth_passes=eig_cand.reorth_passes,
                    alt_passes=alt.passes,
                    alt_newton=alt.newton,
                    alt_exact=alt.exact,
                    secs_prox=t1 - t0,
                    secs_eig=t3 - t2,
                    secs_model_val=t2 - t1,
                    secs_model_update=t5 - t4,
                    secs_residuals=t6 - t5,
                    secs_iter=t6 - t0,
                )
            )
        if state.residuals.converged(cfg.eps):
            state.status = "converged"

    return state, primal_output(state.model)


def _check_f_y(prob: SdpProblem, state: SolverState) -> None:
    """Refuse a start ``f_y`` other than the ``alpha * max(lam_y, 0) + <b, y>``
    that :func:`penalized_obj` writes, beyond the rounding of ``<b, y>``."""
    lam = prob.alpha * max(state.lam_y, 0.0)
    f_y, terms = lam + float(prob.b @ state.y), lam + float(np.abs(prob.b) @ np.abs(state.y))
    if not abs(state.f_y - f_y) <= (prob.m + 2) * np.finfo(float).eps * terms:
        raise ValueError(
            f"initial f_y = {state.f_y!r} is not alpha * max(lam_y, 0) + <b, y> = {f_y!r}"
        )


def primal_output(model: BundleModel) -> PrimalOutput:
    """The rank-r factor of the certified primal X+ = Xbar + W W^T: the
    sketch is linear, so W W^T is added to a copy of the sketch of Xbar
    before the reconstruction, which at rank n gives X+ itself."""
    sk, w = model.store.sk, model.kept
    sk = replace(sk, sketch_mat=sk.sketch_mat + w @ (w.T @ sk.psi()))
    factor, lams = sketchmod.reconstruct(sk)
    return PrimalOutput(factor=factor, lams=lams)


# ---------------------------------------------------------------------------
# state serialization and warm starts

_MAGIC = b"USBS"
_VERSION = 5
# the fixed-size head of a state file: each field's name and struct code, in
# order.  The float64 payload follows: y, the aggregate constraint image,
# the n x k basis, the n x r sketch, then the n x k_p kept part W.
_HEADER_FIELDS = (
    ("magic", "4s"), ("version", "I"),
    ("n", "Q"), ("m", "Q"), ("n_ineq", "Q"), ("b_hash", "Q"),  # the fingerprint
    ("k_c", "I"), ("k_p", "I"),
    ("rank", "I"), ("psi_seed", "I"),  # the sketch's rank and test-matrix seed
    ("scale_x", "d"),
    ("f_y", "d"), ("lam_y", "d"),  # NaN when unknown
    ("descent", "Q"), ("null", "Q"),  # step counts
    ("trace", "d"), ("cost_ip", "d"),  # the aggregate's trace and <C, Xbar>
    ("rho", "d"),  # the proximal weight
)
_HEADER = struct.Struct("<" + "".join(code for _, code in _HEADER_FIELDS))
_Header = collections.namedtuple("_Header", [name for name, _ in _HEADER_FIELDS])


_FINGERPRINT_FIELDS = ("n", "m", "inequality rows", "hash of b")


def fingerprint_of(prob: SdpProblem) -> tuple[int, int, int, int]:
    h = hashlib.sha256(np.ascontiguousarray(prob.b, dtype="<f8").tobytes()).digest()
    return (prob.n, prob.m, int(prob.ineq_idx.size), int.from_bytes(h[:8], "little"))


def _fingerprint_difference(saved: tuple, here: tuple) -> str:
    """Each fingerprint field that differs, with both values."""
    parts = []
    for name, a, b in zip(_FINGERPRINT_FIELDS, saved, here):
        if a != b:
            if name == "hash of b":
                a, b = f"{a:016x}", f"{b:016x}"
            parts.append(f"{name} {a} in the state, {b} in the problem")
    return "; ".join(parts)


@dataclass
class StateRecord:
    """A loaded state file: the fingerprint of the problem it was saved
    from and the state itself."""

    fingerprint: tuple[int, int, int, int]
    state: SolverState


def save_state(path, state: SolverState, prob: SdpProblem) -> None:
    """Versioned little-endian binary container for warm starts, written to
    a file name or to a binary file object opened for writing."""
    model = state.model
    sk = model.store.sk
    n, m, n_ineq, b_hash = fingerprint_of(prob)
    header = _Header(
        magic=_MAGIC, version=_VERSION, n=n, m=m, n_ineq=n_ineq, b_hash=b_hash,
        k_c=model.k_c, k_p=model.k_p, rank=sk.r, psi_seed=sk.psi_seed & 0xFFFFFFFF,
        scale_x=state.scale_x,
        f_y=state.f_y if state.f_y is not None else np.nan,
        lam_y=state.lam_y if state.lam_y is not None else np.nan,
        descent=state.descent_steps, null=state.null_steps,
        trace=model.stats.trace, cost_ip=model.stats.cost_ip, rho=state.rho,
    )
    arrays = (state.y, model.stats.constr_image, model.basis, sk.sketch_mat, model.kept)
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        fh.write(_HEADER.pack(*header))
        for arr in arrays:
            # the array's own buffer when it is C-contiguous little-endian
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_state(path) -> StateRecord:
    """Read a state file written by :func:`save_state`.  Raises ValueError
    for a wrong magic, a version other than 5 (earlier versions lack the
    kept part W of the certified primal, so the solve must run again),
    ``k_c < 1``, ``k_c + k_p > n``, a sketch rank outside [1, n] (the rules
    :func:`cold_start` keeps), a rho that is not positive and finite, a
    payload shorter or longer than the header declares, non-finite arrays
    or statistics, and a path that is not a regular file."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            # a pipe has no size to check the header against
            raise ValueError(f"state file {path} is not a regular file")
        size = info.st_size
        head = fh.read(_HEADER.size)
        if len(head) < 8:
            raise ValueError("truncated state file")
        magic, version = struct.unpack_from("<4sI", head)
        if magic != _MAGIC:
            raise ValueError("not a solver state file")
        if version != _VERSION:
            raise ValueError(
                f"unsupported state file version {version}: only version {_VERSION}, which "
                "holds the certified primal, is read; run the solve again to write one"
            )
        if len(head) < _HEADER.size:
            raise ValueError("truncated state file")
        h = _Header._make(_HEADER.unpack(head))
        n, m, k_c, k_p, rank, rho = h.n, h.m, h.k_c, h.k_p, h.rank, h.rho
        if k_c < 1:
            raise ValueError(f"state file has k_c = {k_c}; it must be at least 1")
        k = k_c + k_p
        if k > n:
            raise ValueError(f"state file has k_c + k_p = {k}; it must be at most n = {n}")
        if not 1 <= rank <= n:
            raise ValueError(f"state file has sketch rank {rank}; it must lie in [1, n = {n}]")
        if not (np.isfinite(rho) and rho > 0):
            raise ValueError(f"state file has rho = {rho}; it must be positive and finite")
        count = 2 * m + n * k + n * rank + n * k_p
        expected = _HEADER.size + 8 * count
        if size < expected:
            raise ValueError(f"truncated state file: {size} bytes, the header declares {expected}")
        if size > expected:
            raise ValueError(f"state file has {size - expected} trailing bytes after its payload")
        payload = np.empty(count, dtype="<f8")
        if fh.readinto(payload) != 8 * count:
            raise ValueError("truncated state file")
    # a copy only on a big-endian host
    payload = payload.astype(float, copy=False)
    finite = np.isfinite([h.scale_x, h.trace, h.cost_ip]).all()
    # f_y and lam_y are NaN when unknown; a resume certifies with them
    if not (np.all(np.isfinite(payload)) and finite) or np.isinf([h.f_y, h.lam_y]).any():
        raise ValueError("state file holds non-finite arrays, scale, f_y, lam_y, traces or costs")
    y, a_xbar, basis, sketch_mat, kept = np.split(payload, np.cumsum([m, m, n * k, n * rank]))
    sk = sketchmod.NystromSketch(n, rank, h.psi_seed, sketch_mat.reshape(n, rank))
    stats = AggregateStats(h.trace, h.cost_ip, a_xbar)
    model = BundleModel(basis.reshape(n, k), stats, k_c, k_p, SketchStore(sk), kept.reshape(n, k_p))
    state = SolverState(
        y=y,
        f_y=None if np.isnan(h.f_y) else float(h.f_y),
        lam_y=None if np.isnan(h.lam_y) else float(h.lam_y),
        model=model,
        rho=rho,
        descent_steps=h.descent,
        null_steps=h.null,
        scale_x=h.scale_x,
    )
    return StateRecord(fingerprint=(n, m, h.n_ineq, h.b_hash), state=state)


def record_to_state(rec: StateRecord) -> SolverState:
    """An independent copy of the loaded state, without a fingerprint check,
    for cross-problem padding; use :func:`state_from_record` when the
    problem must match."""
    return copy.deepcopy(rec.state)


def state_from_record(rec: StateRecord, prob: SdpProblem) -> SolverState:
    """Rebuild a state for the exact problem it was saved from."""
    here = fingerprint_of(prob)
    if rec.fingerprint != here:
        raise FingerprintMismatch(
            "state fingerprint does not match the problem: "
            + _fingerprint_difference(rec.fingerprint, here)
        )
    state = record_to_state(rec)
    state.scale_x = prob.scale_x
    return state


@dataclass
class Mapping:
    """Embedding of a smaller instance into a larger one: position p of each
    array holds the index in the larger problem."""

    vertex_map: np.ndarray
    constraint_map: np.ndarray


def _arrival_duals(y_kept: np.ndarray, prob: SdpProblem, cmap: np.ndarray) -> np.ndarray:
    """The padding rule of :func:`warm_start_pad` applied to every row of
    ``prob``; the caller then puts ``y_kept`` back on the kept rows."""
    ops = prob.constraints
    norm2 = ops.frob_norms() ** 2
    ratio = np.divide(
        ops.primal_image_matrix(prob.cost), norm2, out=np.zeros(prob.m), where=norm2 > 0
    )
    kept = ratio[cmap]
    ok = kept != 0
    r = float(np.median(y_kept[ok] / kept[ok])) if ok.any() else 0.0
    if r == 0.0:  # exact zeros, not -0.0 on rows with a negative ratio
        return np.zeros(prob.m)
    y = r * ratio
    idx = prob.ineq_idx
    y[idx] = np.maximum(y[idx], 0.0)
    return y


def _rows_or_zeros(a: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Row ``src[v]`` of ``a`` for each v, or a zero row where ``src[v]`` is
    ``len(a)``: one np.take gather in place of a zero fill and a row scatter."""
    return np.take(np.vstack([a, np.zeros((1, a.shape[1]))]), src, axis=0)


def warm_start_pad(
    prev: SolverState,
    new_prob: SdpProblem,
    mapping: Mapping,
    sketch_seed: Optional[int] = None,
) -> SolverState:
    """Embed a solved state into a larger problem.

    Kept constraints keep their dual values.  A new constraint i gets
    ``r * <A_i, C> / ||A_i||_F^2`` on the new problem's data, where ``r`` is
    the median of ``y_j / (<A_j, C> / ||A_j||_F^2)`` over the kept rows j
    whose denominator is nonzero; new inequality rows are clipped to the
    sign cone y >= 0.  A new row with ``<A_i, C> = 0`` stays at zero, and
    every new row does when no kept row qualifies.  For MaxCut this is
    complementary slackness, y_i = (C X)_ii / X_ii, with one common scale:
    a new vertex gets ``r * C_ii`` instead of leaving its whole diagonal
    in ``C - A*(y)``.  The proximal weight rho is carried over as it is.
    The aggregate's factor is padded with zero rows on new vertices and
    rescaled by the ratio of trace normalizations so the padded matrix
    represents the same unscaled object; statistics are recomputed against
    the new problem data, and the padded matrix is sketched afresh at the
    old rank, clamped to the new n.  The kept part W is zero.  Both maps
    must be injective and in range; a ValueError names the map that is not.
    """
    vmap = np.asarray(mapping.vertex_map, dtype=np.int64)
    cmap = np.asarray(mapping.constraint_map, dtype=np.int64)
    if vmap.size and (vmap.min() < 0 or vmap.max() >= new_prob.n):
        raise ValueError("vertex mapping out of range")
    if cmap.size and (cmap.min() < 0 or cmap.max() >= new_prob.m):
        raise ValueError("constraint mapping out of range")
    if vmap.size != prev.model.basis.shape[0] or cmap.size != prev.y.shape[0]:
        raise ValueError("mapping does not match the previous state dimensions")
    for name, arr in (("vertex", vmap), ("constraint", cmap)):
        uniq, counts = np.unique(arr, return_counts=True)
        if uniq.size != arr.size:
            dup = int(uniq[np.argmax(counts > 1)])
            raise ValueError(f"{name} mapping is not injective: index {dup} appears more than once")

    model = prev.model
    tau = prev.scale_x / new_prob.scale_x
    factor_old, lams_old = sketchmod.reconstruct(model.store.sk)
    # old row of each new vertex; a new vertex points one past the last row
    src = np.full(new_prob.n, vmap.size)
    src[vmap] = np.arange(vmap.size)
    factor = _rows_or_zeros(factor_old, src)
    lams = tau * lams_old

    y = _arrival_duals(prev.y, new_prob, cmap)
    y[cmap] = prev.y

    basis = _rows_or_zeros(model.basis, src)

    trace = float(lams.sum())
    cost_ip = new_prob.cost_factor_ip(factor, lams)
    image = new_prob.constraints.primal_image_factor(factor, lams)
    stats = AggregateStats(trace, cost_ip, image)

    seed = sketch_seed if sketch_seed is not None else model.store.sk.psi_seed
    sk = sketchmod.sketch_init(new_prob.n, min(model.store.sk.r, new_prob.n), seed)
    store = SketchStore(sketchmod.sketch_update(sk, 0.0, factor, lams))

    kept = np.zeros((new_prob.n, model.k_p))
    model = BundleModel(basis, stats, model.k_c, model.k_p, store, kept)
    return SolverState(y, None, None, model, rho=prev.rho, scale_x=new_prob.scale_x)
