"""Outer proximal bundle loop over the penalized dual objective.

Each iteration solves the proximal subproblem over the current spectral
set, forms the candidate dual point, evaluates the true objective there (an
extreme eigenvalue computation), accepts or rejects by the sufficient
decrease test, and updates the model either way.  Aggregate primal
statistics (trace, cost inner product, constraint image) are tracked in
closed form so residuals never need the dense primal matrix.  The proximal
weight is then rebalanced from those residuals, so it depends on outcomes,
never on the iteration count.
"""
from __future__ import annotations

import copy
import hashlib
import math
import struct
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import sketch as sketchmod
from .eigsolve import EigResult, lanczos_top
from .problem import SdpProblem, dual_slack_operator, proj_K
from .subqp import (
    alternating_max,
    assemble_eval_coeffs,
    ipm_eval,
)
from .symlin import small_eigh

__all__ = [
    "SolverConfig",
    "AggregateStats",
    "ExplicitStore",
    "SketchStore",
    "BundleModel",
    "SolverState",
    "Residuals",
    "IterationInfo",
    "PrimalOutput",
    "FingerprintMismatch",
    "MAX_EXPLICIT_N",
    "Mapping",
    "penalized_obj",
    "candidate_iterate",
    "descent_test",
    "model_update",
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


# largest problem side for which cold_start keeps the aggregate primal matrix
# as a dense n x n array (sketch_rank = 0): 3.2 GB of float64 at this size
MAX_EXPLICIT_N = 20_000

# residual balancing of the proximal weight (see balance_rho): rho moves by
# the factor RHO_STEP when one side of the certificate exceeds the other by
# the factor RHO_IMBALANCE
RHO_IMBALANCE = 2.0
RHO_STEP = 2.0


class FingerprintMismatch(RuntimeError):
    """Serialized state does not belong to this problem."""


@dataclass
class SolverConfig:
    rho: float = 0.01  # the initial proximal weight; solve adapts it
    beta: float = 0.25
    k_c: int = 10
    k_p: int = 1
    eps: float = 1e-3
    sketch_rank: int = 0  # 0 keeps the aggregate matrix explicitly (n <= MAX_EXPLICIT_N)
    max_iters: int = 1000
    max_time: Optional[float] = None
    seed: int = 0
    linf_check: bool = False

    def __post_init__(self):
        rules = {
            # a 1/rho that overflows makes the first candidate step non-finite
            "rho": (0 < self.rho < math.inf and 1.0 / float(self.rho) < math.inf,
                    "positive and finite with a finite 1/rho"),
            "beta": (0 < self.beta < 1, "in (0, 1)"),
            "k_c": (self.k_c >= 1, "at least 1"),
            "k_p": (self.k_p >= 0, "at least 0"),
            "eps": (0 < self.eps < math.inf, "positive and finite"),
            "sketch_rank": (self.sketch_rank >= 0, "at least 0"),
            "max_iters": (self.max_iters >= 0, "at least 0"),
            "max_time": (self.max_time is None or self.max_time >= 0, "None or at least 0"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"SolverConfig.{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class AggregateStats:
    trace: float
    cost_ip: float
    constr_image: np.ndarray

    def copy(self) -> "AggregateStats":
        return AggregateStats(self.trace, self.cost_ip, self.constr_image.copy())


@dataclass
class ExplicitStore:
    xbar: np.ndarray

    def update(self, eta: float, factor: np.ndarray, lams: np.ndarray) -> "ExplicitStore":
        """A new store of eta * Xbar + factor diag(lams) factor^T; this one
        keeps its matrix, so each BundleModel owns its iteration's aggregate."""
        return ExplicitStore(eta * self.xbar + (factor * lams[None, :]) @ factor.T)

    def factorize(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = small_eigh(self.xbar)
        keep = vals > max(vals.max(initial=0.0), 0.0) * 1e-12
        if not np.any(keep):
            n = self.xbar.shape[0]
            return np.eye(n, 1), np.zeros(1)
        return vecs[:, keep], vals[keep]


@dataclass
class SketchStore:
    sk: sketchmod.NystromSketch

    def update(self, eta: float, factor: np.ndarray, lams: np.ndarray) -> "SketchStore":
        """A new store holding the sketch of the same transition as
        :meth:`ExplicitStore.update`; this one keeps its sketch."""
        return SketchStore(sketchmod.sketch_update(self.sk, eta, factor, lams))

    def factorize(self) -> tuple[np.ndarray, np.ndarray]:
        return sketchmod.reconstruct(self.sk)


@dataclass
class BundleModel:
    basis: np.ndarray  # n x k, orthonormal columns
    stats: AggregateStats
    k_c: int
    k_p: int
    store: object  # ExplicitStore | SketchStore

    @property
    def k(self) -> int:
        return self.basis.shape[1]


@dataclass
class Residuals:
    rel_subopt: float
    rel_infeas: float
    linf_infeas: float
    dual_feas: float

    def converged(self, eps: float, linf_check: bool = False) -> bool:
        ok = self.rel_subopt <= eps and self.rel_infeas <= eps and self.dual_feas <= eps
        if linf_check:
            ok = ok and self.linf_infeas <= eps
        return ok


@dataclass
class SolverState:
    y: np.ndarray
    nu: np.ndarray  # the last proximal step's slack: saved, but seeds no solve
    f_y: Optional[float]
    lam_y: Optional[float]
    model: BundleModel
    descent_steps: int = 0
    null_steps: int = 0
    iterations: int = 0
    last_primal: Optional[AggregateStats] = None
    residuals: Optional[Residuals] = None
    status: Optional[str] = None
    scale_x: float = 1.0
    scale_c: float = 1.0
    # the proximal weight of the next iteration; None starts a solve at cfg.rho
    rho: Optional[float] = None


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
    nu_cand: np.ndarray
    residuals: Residuals
    primal: AggregateStats
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
    # the proximal step: the pieces of its objective that the one
    # interior-point solve visited (1 without inequality rows), its Newton
    # steps, and alt_exact False when that solve stopped inexact
    alt_passes: int
    alt_newton: int
    alt_exact: bool


@dataclass
class PrimalOutput:
    factor: np.ndarray  # n x r orthonormal columns
    lams: np.ndarray
    dense: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# core operations


def penalized_obj(
    prob: SdpProblem, y: np.ndarray, cfg: SolverConfig, k_c: Optional[int] = None
) -> tuple[float, Optional[EigResult]]:
    """Penalized dual objective and the extreme eigenpairs that realize it.

    Returns +inf with no eigenpairs when y violates the sign constraint on
    inequality rows.
    """
    idx = prob.ineq_idx
    if idx.size and np.min(y[idx]) < 0:
        return np.inf, None
    if k_c is None:
        k_c = min(cfg.k_c, prob.n)
    op = dual_slack_operator(prob, y)
    eig = lanczos_top(op, k_c, seed=cfg.seed)
    lam = float(eig.eigenvalues[0])
    f = prob.alpha * max(lam, 0.0) + float(prob.b @ y)
    return f, eig


def candidate_iterate(
    y: np.ndarray,
    nu: np.ndarray,
    a_x: np.ndarray,
    b: np.ndarray,
    rho: float,
    ineq_idx: np.ndarray,
) -> np.ndarray:
    """Proximal candidate: the sign-feasible projection of the gradient
    step, equal to y - (b + nu - a_x)/rho for the optimally projected slack.
    Complementarity with nu holds exactly: entries with active slack land on
    zero."""
    out = y - (b - a_x) / rho
    if ineq_idx.size:
        sub = out[ineq_idx]
        out[ineq_idx] = np.where(nu[ineq_idx] < 0.0, 0.0, np.maximum(sub, 0.0))
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
    information into the next basis; the remaining k_c eigenpairs are folded
    into the aggregate statistics and the primal store.  The new basis spans
    the kept directions together with the fresh extreme eigenvectors.
    """
    k_p, k_c = model.k_p, model.k_c
    vals, q = small_eigh(s_next)
    lam_c = np.maximum(vals[k_p:], 0.0)
    q_c = q[:, k_p:]
    q_p = q[:, :k_p]

    factor = model.basis @ q_c
    stats = model.stats
    new_trace = eta * stats.trace + float(lam_c.sum())
    new_cost = eta * stats.cost_ip + prob.cost_factor_ip(factor, lam_c)
    new_image = eta * stats.constr_image + prob.constraints.primal_image_factor(factor, lam_c)
    new_stats = AggregateStats(new_trace, new_cost, new_image)

    store = model.store.update(eta, factor, lam_c)

    if k_p == 0:
        new_basis = np.asarray(new_vecs, dtype=float)
    else:
        new_basis = _orthonormalize(np.column_stack([model.basis @ q_p, new_vecs]))
    if new_basis.shape[1] < model.k:
        new_basis = _completion_columns(new_basis, model.k, seed, tag)

    return BundleModel(basis=new_basis, stats=new_stats, k_c=k_c, k_p=k_p, store=store)


def compute_residuals(
    prob: SdpProblem,
    y: np.ndarray,
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


def _derived_seeds(seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(int(seed)).generate_state(2)
    return int(state[0]), int(state[1])


def _check_explicit_size(n: int) -> None:
    """Refuse a dense n x n primal store above MAX_EXPLICIT_N."""
    if n > MAX_EXPLICIT_N:
        raise ValueError(
            f"sketch_rank=0 stores a dense {n} x {n} primal matrix; "
            f"it is allowed up to n={MAX_EXPLICIT_N}, so set sketch_rank > 0"
        )


def cold_start(prob: SdpProblem, cfg: SolverConfig) -> SolverState:
    """Zero dual point, zero aggregate, basis from the cost's top eigenpairs
    completed deterministically to k columns.  Raises ValueError for
    ``sketch_rank = 0`` above ``MAX_EXPLICIT_N``, before any eigensolve.

    The eigensolve that yields the basis is the evaluation of the penalized
    objective at y = 0, so the state carries f(0) and lambda_max(C) and
    ``solve`` starts from it without a second eigensolve.
    """
    if cfg.sketch_rank == 0:
        _check_explicit_size(prob.n)
    k_c, k_p = _clamped_dims(prob, cfg)
    k = k_c + k_p
    sketch_seed, _ = _derived_seeds(cfg.seed)
    y = np.zeros(prob.m)
    f_y, eig = penalized_obj(prob, y, cfg, k_c=k_c)
    basis = _completion_columns(eig.eigenvectors, k, cfg.seed, tag=0)
    stats = AggregateStats(0.0, 0.0, np.zeros(prob.m))
    if cfg.sketch_rank > 0:
        r = min(cfg.sketch_rank, prob.n)
        store: object = SketchStore(
            sketchmod.sketch_init(prob.n, r, sketch_seed)
        )
    else:
        store = ExplicitStore(np.zeros((prob.n, prob.n)))
    model = BundleModel(basis=basis, stats=stats, k_c=k_c, k_p=k_p, store=store)
    return SolverState(
        y=y,
        nu=np.zeros(prob.m),
        f_y=f_y,
        lam_y=float(eig.eigenvalues[0]),
        model=model,
        scale_x=prob.scale_x,
        scale_c=prob.scale_c,
        rho=cfg.rho,
    )


def solve(
    prob: SdpProblem,
    cfg: SolverConfig,
    init: Optional[SolverState] = None,
    callback: Optional[Callable[[IterationInfo], None]] = None,
) -> tuple[SolverState, PrimalOutput]:
    """Run the bundle loop until the residual targets or the budget is hit.

    Returns the final state (status "converged" or "budget") and the primal
    output reconstructed from the aggregate store.  The loop reads and
    writes ``state`` alone, and assigns new arrays rather than mutating
    them, so a saved state resumes exactly where this solve stopped, and
    ``init`` is left as it was.  ``cfg.rho`` is the initial proximal weight
    of a state that carries none; :func:`balance_rho` moves it after every
    iteration.
    """
    state = replace(init) if init is not None else cold_start(prob, cfg)
    if state.model.basis.shape[0] != prob.n or state.y.shape[0] != prob.m:
        raise ValueError("initial state does not match the problem dimensions")
    if state.rho is None:
        state.rho = cfg.rho
    t_start = time.monotonic()

    if state.f_y is None or state.lam_y is None:
        state.f_y, eig = penalized_obj(prob, state.y, cfg, k_c=state.model.k_c)
        if not np.isfinite(state.f_y):
            raise ValueError("initial dual point violates the sign constraints")
        state.lam_y = float(eig.eigenvalues[0])
    if state.last_primal is None:  # the last iterate's primal is not saved
        state.last_primal = state.model.stats.copy()
    state.residuals = compute_residuals(prob, state.y, state.f_y, state.lam_y, state.last_primal)
    state.iterations = 0
    state.status = "converged" if state.residuals.converged(cfg.eps, cfg.linf_check) else None

    while state.status is None:
        if state.iterations >= cfg.max_iters or (
            cfg.max_time is not None and time.monotonic() - t_start > cfg.max_time
        ):
            state.status = "budget"
            break

        rho = state.rho
        alt = alternating_max(prob, state.model, state.y, rho)
        state.nu = alt.nu
        y_cand = candidate_iterate(state.y, alt.nu, alt.a_x, prob.b, rho, prob.ineq_idx)
        f_cand, eig_cand = penalized_obj(prob, y_cand, cfg, k_c=state.model.k_c)
        ev = ipm_eval(assemble_eval_coeffs(prob, state.model, y_cand, alt.cost_quad))
        model_val = float(prob.b @ y_cand) - ev.value

        accept = descent_test(state.f_y, f_cand, model_val, cfg.beta)
        if accept:
            state.y, state.f_y, state.lam_y = y_cand, f_cand, float(eig_cand.eigenvalues[0])
            state.descent_steps += 1
        else:
            state.null_steps += 1
        step = "descent" if accept else "null"

        # the completion tag numbers this iteration over the whole run, so a
        # resumed solve draws the columns the uninterrupted one would
        state.model = model_update(
            state.model, alt.eta, alt.s_mat, eig_cand.eigenvectors, prob,
            seed=cfg.seed, tag=state.descent_steps + state.null_steps,
        )
        state.last_primal = AggregateStats(alt.tr_x, alt.c_x, alt.a_x)
        state.residuals = compute_residuals(
            prob, state.y, state.f_y, state.lam_y, state.last_primal
        )
        state.rho = balance_rho(rho, state.residuals, accept)
        state.iterations += 1

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
                    nu_cand=alt.nu,
                    residuals=state.residuals,
                    primal=state.last_primal,
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
                    alt_passes=alt.passes,
                    alt_newton=alt.newton,
                    alt_exact=alt.exact,
                )
            )
        if state.residuals.converged(cfg.eps, cfg.linf_check):
            state.status = "converged"

    return state, primal_output(state.model)


def primal_output(model: BundleModel) -> PrimalOutput:
    factor, lams = model.store.factorize()
    dense = model.store.xbar if isinstance(model.store, ExplicitStore) else None
    return PrimalOutput(factor=factor, lams=lams, dense=dense)


# ---------------------------------------------------------------------------
# state serialization and warm starts

_MAGIC = b"USBS"
_VERSION = 2
# the fixed-size head of a state file, in order: magic, version; the problem
# fingerprint n, m, |I|, hash of b; k_c, k_p; store kind (1 explicit,
# 2 sketch), sketch rank, psi seed; scale_x, scale_c; f_y, lam_y (NaN when
# unknown); descent steps, null steps; aggregate trace, aggregate cost
# inner product; the proximal weight rho (NaN when unknown).  The float64
# payload follows: y, nu, the aggregate constraint image, the n x k basis,
# then the n x n matrix or the n x r sketch.  Version 1 is the same file
# without rho.
_HEADER = struct.Struct("<4sI QQQQ II B II dd dd QQ dd d")
_HEADER_V1 = struct.Struct(_HEADER.format[:-2])


def fingerprint_of(prob: SdpProblem) -> tuple[int, int, int, int]:
    h = hashlib.sha256(np.ascontiguousarray(prob.b, dtype="<f8").tobytes()).digest()
    return (prob.n, prob.m, int(prob.ineq_idx.size), int.from_bytes(h[:8], "little"))


@dataclass
class StateRecord:
    """A loaded state file: the fingerprint of the problem it was saved
    from and the state itself."""

    fingerprint: tuple[int, int, int, int]
    state: SolverState


def save_state(path, state: SolverState, prob: SdpProblem) -> None:
    """Versioned little-endian binary container for warm starts."""
    model = state.model
    store = model.store
    if isinstance(store, ExplicitStore):
        kind, rank, seed, store_mat = 1, 0, 0, store.xbar
    else:
        kind, rank, seed, store_mat = 2, store.sk.r, store.sk.psi_seed, store.sk.sketch_mat
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        *fingerprint_of(prob),
        model.k_c,
        model.k_p,
        kind,
        rank,
        seed & 0xFFFFFFFF,
        state.scale_x,
        state.scale_c,
        state.f_y if state.f_y is not None else np.nan,
        state.lam_y if state.lam_y is not None else np.nan,
        state.descent_steps,
        state.null_steps,
        model.stats.trace,
        model.stats.cost_ip,
        state.rho if state.rho is not None else np.nan,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (state.y, state.nu, model.stats.constr_image, model.basis, store_mat):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_state(path) -> StateRecord:
    """Read a state file written by :func:`save_state`, or by its version 1,
    which has no rho: such a state, like one saved with ``rho=None``, has
    ``rho=None`` and resumes at ``cfg.rho``.  Raises ValueError for a wrong
    magic or version, an unknown store kind, ``k_c < 1``, ``k_c + k_p > n``,
    a sketch rank outside [1, n] (the rules :func:`cold_start` keeps), a rho
    that is not positive, a payload shorter or longer than the header
    declares, and non-finite arrays or statistics."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_V1.size:
        raise ValueError("truncated state file")
    magic, version = struct.unpack_from("<4sI", raw)
    if magic != _MAGIC:
        raise ValueError("not a solver state file")
    if version not in (1, _VERSION):
        raise ValueError(f"unsupported state file version {version}")
    header = _HEADER if version == _VERSION else _HEADER_V1
    if len(raw) < header.size:
        raise ValueError("truncated state file")
    fields = header.unpack_from(raw)
    (
        _,
        _,
        n,
        m,
        n_ineq,
        b_hash,
        k_c,
        k_p,
        kind,
        rank,
        psi_seed,
        scale_x,
        scale_c,
        f_y,
        lam_y,
        descent,
        null,
        trace,
        cost_ip,
        rho,
    ) = fields if version == _VERSION else fields + (np.nan,)
    if kind not in (1, 2):
        raise ValueError(f"unknown store kind {kind} in state file (1 explicit, 2 sketch)")
    if k_c < 1:
        raise ValueError(f"state file has k_c = {k_c}; it must be at least 1")
    k = k_c + k_p
    if k > n:
        raise ValueError(f"state file has k_c + k_p = {k}; it must be at most n = {n}")
    if kind == 2 and not 1 <= rank <= n:
        raise ValueError(f"state file has sketch rank {rank}; it must lie in [1, n = {n}]")
    if not (np.isnan(rho) or (np.isfinite(rho) and rho > 0)):
        raise ValueError(f"state file has rho = {rho}; it must be positive and finite")
    store_size = n * n if kind == 1 else n * rank
    expected = header.size + 8 * (3 * m + n * k + store_size)
    if len(raw) < expected:
        raise ValueError(f"truncated state file: {len(raw)} bytes, the header declares {expected}")
    if len(raw) > expected:
        raise ValueError(f"state file has {len(raw) - expected} trailing bytes after its payload")
    payload = np.frombuffer(raw, dtype="<f8", offset=header.size).astype(float)
    if not (np.all(np.isfinite(payload)) and np.isfinite([scale_x, scale_c, trace, cost_ip]).all()):
        raise ValueError("state file holds non-finite arrays, scales, trace or cost")
    y, nu, a_xbar, basis, store_mat = np.split(payload, np.cumsum([m, m, m, n * k]))
    if kind == 1:
        store: object = ExplicitStore(store_mat.reshape(n, n))
    else:
        store = SketchStore(
            sketchmod.NystromSketch(
                n=n, r=rank, psi_seed=psi_seed, sketch_mat=store_mat.reshape(n, rank)
            )
        )
    stats = AggregateStats(trace, cost_ip, a_xbar)
    model = BundleModel(basis=basis.reshape(n, k), stats=stats, k_c=k_c, k_p=k_p, store=store)
    state = SolverState(
        y=y,
        nu=nu,
        f_y=None if np.isnan(f_y) else float(f_y),
        lam_y=None if np.isnan(lam_y) else float(lam_y),
        model=model,
        descent_steps=descent,
        null_steps=null,
        scale_x=scale_x,
        scale_c=scale_c,
        rho=None if np.isnan(rho) else float(rho),
    )
    return StateRecord(fingerprint=(n, m, n_ineq, b_hash), state=state)


def record_to_state(rec: StateRecord) -> SolverState:
    """An independent copy of the loaded state, without a fingerprint check,
    for cross-problem padding; use :func:`state_from_record` when the
    problem must match."""
    return copy.deepcopy(rec.state)


def state_from_record(rec: StateRecord, prob: SdpProblem) -> SolverState:
    """Rebuild a state for the exact problem it was saved from."""
    if rec.fingerprint != fingerprint_of(prob):
        raise FingerprintMismatch("state fingerprint does not match this problem")
    state = record_to_state(rec)
    state.scale_x = prob.scale_x
    state.scale_c = prob.scale_c
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
    in ``C - A*(y)``.  The nu vector is padded with zeros, and the proximal
    weight rho is carried over as it is.  The primal factor is padded with
    zero rows on new vertices and rescaled by the ratio of trace
    normalizations so the padded matrix represents the same unscaled
    object; statistics are recomputed against the new problem data.  A
    dense store is refused, with the ValueError of :func:`cold_start`, when
    the new problem is larger than ``MAX_EXPLICIT_N``.  Both maps must be
    injective and in range; a ValueError names the map that is not.
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
    if isinstance(model.store, ExplicitStore):
        _check_explicit_size(new_prob.n)
    tau = prev.scale_x / new_prob.scale_x
    factor_old, lams_old = model.store.factorize()
    # old row of each new vertex; a new vertex points one past the last row
    src = np.full(new_prob.n, vmap.size)
    src[vmap] = np.arange(vmap.size)
    factor = _rows_or_zeros(factor_old, src)
    lams = tau * lams_old

    y = _arrival_duals(prev.y, new_prob, cmap)
    y[cmap] = prev.y
    nu = np.zeros(new_prob.m)
    nu[cmap] = prev.nu

    basis = _rows_or_zeros(model.basis, src)

    trace = float(lams.sum())
    cost_ip = new_prob.cost_factor_ip(factor, lams)
    image = new_prob.constraints.primal_image_factor(factor, lams)
    stats = AggregateStats(trace, cost_ip, image)

    if isinstance(model.store, ExplicitStore):
        store: object = ExplicitStore((factor * lams[None, :]) @ factor.T)
    else:
        seed = sketch_seed if sketch_seed is not None else model.store.sk.psi_seed
        sk = sketchmod.sketch_init(new_prob.n, min(model.store.sk.r, new_prob.n), seed)
        sk = sketchmod.sketch_update(sk, 0.0, factor, lams)
        store = SketchStore(sk)

    new_model = BundleModel(basis=basis, stats=stats, k_c=model.k_c, k_p=model.k_p, store=store)
    return SolverState(
        y=y,
        nu=nu,
        f_y=None,
        lam_y=None,
        model=new_model,
        scale_x=new_prob.scale_x,
        scale_c=new_prob.scale_c,
        rho=prev.rho,
    )
