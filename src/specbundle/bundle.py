"""Outer proximal bundle loop over the penalized dual objective.

Each iteration solves the proximal subproblem over the current spectral
set, forms the candidate dual point, evaluates the true objective there (an
extreme eigenvalue computation), accepts or rejects by the sufficient
decrease test, and updates the model either way.  Aggregate primal
statistics (trace, cost inner product, constraint image) are tracked in
closed form so residuals never need the dense primal matrix.
"""
from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sketch as sketchmod
from .eigsolve import EigResult, lanczos_top
from .problem import SdpProblem, dual_slack_operator, proj_K
from .subqp import (
    IpmOptions,
    alternating_max,
    assemble_eval_coeffs,
    ipm_eval,
)
from .symlin import EmptyBasisError, orthonormalize, small_eigh

__all__ = [
    "LanczosSettings",
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


class FingerprintMismatch(RuntimeError):
    """Serialized state does not belong to this problem."""


@dataclass
class LanczosSettings:
    inner_iters: int = 32
    max_restarts: int = 10
    tol: Optional[float] = None


@dataclass
class SolverConfig:
    rho: float = 0.01
    beta: float = 0.25
    k_c: int = 10
    k_p: int = 1
    eps: float = 1e-3
    sketch_rank: int = 0  # 0 keeps the aggregate matrix explicitly (n <= MAX_EXPLICIT_N)
    max_iters: int = 1000
    max_time: Optional[float] = None
    seed: int = 0
    lanczos: LanczosSettings = field(default_factory=LanczosSettings)
    linf_check: bool = False
    store_psi: bool = True
    ipm: IpmOptions = field(default_factory=IpmOptions)

    def __post_init__(self):
        if not (self.rho > 0 and 0 < self.beta < 1 and self.k_c >= 1 and self.k_p >= 0):
            raise ValueError("invalid solver configuration")
        if self.eps <= 0 or self.sketch_rank < 0:
            raise ValueError("invalid solver configuration")


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

    def update(self, eta: float, factor: np.ndarray, lams: np.ndarray) -> None:
        self.xbar = eta * self.xbar + (factor * lams[None, :]) @ factor.T

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

    def update(self, eta: float, factor: np.ndarray, lams: np.ndarray) -> None:
        k = factor.shape[1]
        self.sk = sketchmod.sketch_update(self.sk, eta, factor, np.eye(k), lams)

    def factorize(self) -> tuple[np.ndarray, np.ndarray]:
        return sketchmod.reconstruct(self.sk)


@dataclass
class BundleModel:
    basis: np.ndarray  # n x k, orthonormal columns
    stats: AggregateStats
    k_c: int
    k_p: int
    store: object  # ExplicitStore | SketchStore
    last_update: Optional[tuple[float, np.ndarray, np.ndarray]] = None

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
    nu: np.ndarray
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
    eig = lanczos_top(
        op,
        k_c,
        inner_iters=cfg.lanczos.inner_iters,
        max_restarts=cfg.lanczos.max_restarts,
        tol=cfg.lanczos.tol,
        seed=cfg.seed,
    )
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


def _completion_columns(basis: np.ndarray, k: int, seed: int, tag: int) -> np.ndarray:
    """Deterministically extend an orthonormal basis to k columns."""
    n = basis.shape[0]
    cols = [basis]
    have = basis.shape[1]
    attempt = 0
    while have < k:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x5EED, tag, attempt])
        v = rng.standard_normal(n)
        cur = np.column_stack(cols) if len(cols) > 1 else cols[0]
        v -= cur @ (cur.T @ v)
        nv = np.linalg.norm(v)
        attempt += 1
        if nv < 1e-10:
            continue
        cols.append((v / nv)[:, None])
        have += 1
    out = np.column_stack(cols) if len(cols) > 1 else cols[0]
    return out[:, :k]


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

    store = model.store
    store.update(eta, factor, lam_c)

    if k_p == 0:
        new_basis = np.asarray(new_vecs, dtype=float)
    else:
        cand = np.column_stack([model.basis @ q_p, new_vecs])
        try:
            new_basis = orthonormalize(cand)
        except EmptyBasisError:
            new_basis = np.zeros((model.basis.shape[0], 0))
    if new_basis.shape[1] < model.k:
        if new_basis.shape[1] == 0:
            new_basis = _completion_columns(
                np.zeros((model.basis.shape[0], 0)), model.k, seed, tag
            )
        else:
            new_basis = _completion_columns(new_basis, model.k, seed, tag)

    return BundleModel(
        basis=new_basis,
        stats=new_stats,
        k_c=k_c,
        k_p=k_p,
        store=store,
        last_update=(eta, factor, lam_c),
    )


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


# ---------------------------------------------------------------------------
# initialization and the outer loop


def _clamped_dims(prob: SdpProblem, cfg: SolverConfig) -> tuple[int, int]:
    k_c = min(cfg.k_c, prob.n)
    k_p = min(cfg.k_p, prob.n - k_c)
    return k_c, k_p


def _derived_seeds(seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(int(seed)).generate_state(2)
    return int(state[0]), int(state[1])


def cold_start(prob: SdpProblem, cfg: SolverConfig) -> SolverState:
    """Zero dual point, zero aggregate, basis from the cost's top eigenpairs
    completed deterministically to k columns.  Raises ValueError for
    ``sketch_rank = 0`` above ``MAX_EXPLICIT_N``, before any eigensolve.

    The eigensolve that yields the basis is the evaluation of the penalized
    objective at y = 0, so the state carries f(0) and lambda_max(C) and
    ``solve`` starts from it without a second eigensolve.
    """
    if cfg.sketch_rank == 0 and prob.n > MAX_EXPLICIT_N:
        raise ValueError(
            f"sketch_rank=0 stores a dense {prob.n} x {prob.n} primal matrix; "
            f"it is allowed up to n={MAX_EXPLICIT_N}, so set sketch_rank > 0"
        )
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
            sketchmod.sketch_init(prob.n, r, sketch_seed, store_psi=cfg.store_psi)
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
        last_primal=stats.copy(),
        scale_x=prob.scale_x,
        scale_c=prob.scale_c,
    )


def solve(
    prob: SdpProblem,
    cfg: SolverConfig,
    init: Optional[SolverState] = None,
    callback: Optional[Callable[[IterationInfo], None]] = None,
) -> tuple[SolverState, PrimalOutput]:
    """Run the bundle loop until the residual targets or the budget is hit.

    Returns the final state (status "converged" or "budget") and the primal
    output reconstructed from the aggregate store.
    """
    state = init if init is not None else cold_start(prob, cfg)
    model = state.model
    if model.basis.shape[0] != prob.n or state.y.shape[0] != prob.m:
        raise ValueError("initial state does not match the problem dimensions")
    t_start = time.monotonic()

    y = state.y
    if state.f_y is None or state.lam_y is None:
        f_y, eig = penalized_obj(prob, y, cfg, k_c=model.k_c)
        if not np.isfinite(f_y):
            raise ValueError("initial dual point violates the sign constraints")
        lam_y = float(eig.eigenvalues[0])
    else:
        f_y, lam_y = state.f_y, state.lam_y

    primal = state.last_primal if state.last_primal is not None else model.stats.copy()
    residuals = compute_residuals(prob, y, f_y, lam_y, primal)
    state.f_y, state.lam_y = f_y, lam_y
    state.residuals = residuals
    status: Optional[str] = None
    if residuals.converged(cfg.eps, cfg.linf_check):
        status = "converged"

    t = 0
    inner_nu = state.nu.copy()
    while status is None:
        if t >= cfg.max_iters:
            status = "budget"
            break
        if cfg.max_time is not None and time.monotonic() - t_start > cfg.max_time:
            status = "budget"
            break

        alt = alternating_max(prob, model, y, cfg.rho, opts=cfg.ipm, nu0=inner_nu)
        inner_nu = alt.nu
        y_cand = candidate_iterate(y, alt.nu, alt.a_x, prob.b, cfg.rho, prob.ineq_idx)
        f_cand, eig_cand = penalized_obj(prob, y_cand, cfg, k_c=model.k_c)
        ev = ipm_eval(assemble_eval_coeffs(prob, model, y_cand), cfg.ipm)
        model_val = float(prob.b @ y_cand) - ev.value

        accept = descent_test(f_y, f_cand, model_val, cfg.beta)
        if accept:
            y = y_cand
            f_y = f_cand
            lam_y = float(eig_cand.eigenvalues[0])
            state.nu = alt.nu
            state.descent_steps += 1
        else:
            state.null_steps += 1
        step = "descent" if accept else "null"

        model = model_update(
            model, alt.eta, alt.s_mat, eig_cand.eigenvectors, prob, seed=cfg.seed, tag=t + 1
        )
        primal = AggregateStats(alt.tr_x, alt.c_x, alt.a_x)
        residuals = compute_residuals(prob, y, f_y, lam_y, primal)

        state.y = y
        state.f_y = f_y
        state.lam_y = lam_y
        state.model = model
        state.last_primal = primal
        state.residuals = residuals
        state.iterations = t + 1

        if callback is not None:
            callback(
                IterationInfo(
                    t=t,
                    elapsed=time.monotonic() - t_start,
                    step=step,
                    f_y=f_y,
                    f_cand=f_cand,
                    model_val=model_val,
                    y=y,
                    y_cand=y_cand,
                    nu_cand=alt.nu,
                    residuals=residuals,
                    primal=primal,
                    eta=alt.eta,
                    lam_cand=float(eig_cand.eigenvalues[0]),
                    state=state,
                    model=model,
                    eig_matvecs=eig_cand.matvecs,
                    eig_restarts=eig_cand.restarts,
                    eig_converged=eig_cand.converged,
                    eig_leading_residual=float(eig_cand.residuals[0]),
                    eig_leading_converged=eig_cand.leading_converged,
                )
            )
        t += 1
        if residuals.converged(cfg.eps, cfg.linf_check):
            status = "converged"

    state.status = status
    return state, primal_output(model)


def primal_output(model: BundleModel) -> PrimalOutput:
    factor, lams = model.store.factorize()
    dense = model.store.xbar if isinstance(model.store, ExplicitStore) else None
    return PrimalOutput(factor=factor, lams=lams, dense=dense)


# ---------------------------------------------------------------------------
# state serialization and warm starts

_MAGIC = b"USBS"
_VERSION = 1


def fingerprint_of(prob: SdpProblem) -> tuple[int, int, int, int]:
    h = hashlib.sha256(np.ascontiguousarray(prob.b, dtype="<f8").tobytes()).digest()
    return (prob.n, prob.m, int(prob.ineq_idx.size), int.from_bytes(h[:8], "little"))


@dataclass
class StateRecord:
    n: int
    m: int
    n_ineq: int
    b_hash: int
    k_c: int
    k_p: int
    store_kind: int  # 1 explicit, 2 sketch
    sketch_rank: int
    psi_seed: int
    scale_x: float
    scale_c: float
    f_y: Optional[float]
    lam_y: Optional[float]
    descent_steps: int
    null_steps: int
    y: np.ndarray
    nu: np.ndarray
    a_xbar: np.ndarray
    trace: float
    cost_ip: float
    basis: np.ndarray
    xbar: Optional[np.ndarray]
    sketch_mat: Optional[np.ndarray]


def save_state(path, state: SolverState, prob: SdpProblem) -> None:
    """Versioned little-endian binary container for warm starts."""
    n, m, n_ineq, b_hash = fingerprint_of(prob)
    model = state.model
    store = model.store
    if isinstance(store, ExplicitStore):
        kind, rank, seed = 1, 0, 0
    else:
        kind, rank, seed = 2, store.sk.r, store.sk.psi_seed
    f_y = state.f_y if state.f_y is not None else np.nan
    lam_y = state.lam_y if state.lam_y is not None else np.nan
    header = struct.pack(
        "<4sI QQQQ II B II dd dd QQ dd",
        _MAGIC,
        _VERSION,
        n,
        m,
        n_ineq,
        b_hash,
        model.k_c,
        model.k_p,
        kind,
        rank,
        seed & 0xFFFFFFFF,
        state.scale_x,
        state.scale_c,
        f_y,
        lam_y,
        state.descent_steps,
        state.null_steps,
        model.stats.trace,
        model.stats.cost_ip,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (state.y, state.nu, model.stats.constr_image, model.basis):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if kind == 1:
            fh.write(np.ascontiguousarray(store.xbar, dtype="<f8").tobytes())
        else:
            fh.write(np.ascontiguousarray(store.sk.sketch_mat, dtype="<f8").tobytes())


def load_state(path) -> StateRecord:
    """Read a state file written by :func:`save_state`.  Raises ValueError
    for a wrong magic or version, an unknown store kind, a payload shorter
    or longer than the header declares, and non-finite arrays or
    statistics."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_fmt = "<4sI QQQQ II B II dd dd QQ dd"
    head_size = struct.calcsize(head_fmt)
    if len(raw) < head_size:
        raise ValueError("truncated state file")
    (
        magic,
        version,
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
    ) = struct.unpack(head_fmt, raw[:head_size])
    if magic != _MAGIC:
        raise ValueError("not a solver state file")
    if version != _VERSION:
        raise ValueError(f"unsupported state file version {version}")
    if kind not in (1, 2):
        raise ValueError(f"unknown store kind {kind} in state file (1 explicit, 2 sketch)")
    k = k_c + k_p
    store_size = n * n if kind == 1 else n * rank
    expected = head_size + 8 * (3 * m + n * k + store_size)
    if len(raw) < expected:
        raise ValueError(f"truncated state file: {len(raw)} bytes, the header declares {expected}")
    if len(raw) > expected:
        raise ValueError(f"state file has {len(raw) - expected} trailing bytes after its payload")
    payload = np.frombuffer(raw, dtype="<f8", offset=head_size).astype(float)
    if not (np.all(np.isfinite(payload)) and np.isfinite([scale_x, scale_c, trace, cost_ip]).all()):
        raise ValueError("state file holds non-finite arrays, scales, trace or cost")
    y, nu, a_xbar, basis, store_mat = np.split(payload, np.cumsum([m, m, m, n * k]))
    basis = basis.reshape(n, k)
    xbar = store_mat.reshape(n, n) if kind == 1 else None
    sketch_mat = store_mat.reshape(n, rank) if kind == 2 else None
    return StateRecord(
        n=n,
        m=m,
        n_ineq=n_ineq,
        b_hash=b_hash,
        k_c=k_c,
        k_p=k_p,
        store_kind=kind,
        sketch_rank=rank,
        psi_seed=psi_seed,
        scale_x=scale_x,
        scale_c=scale_c,
        f_y=None if np.isnan(f_y) else float(f_y),
        lam_y=None if np.isnan(lam_y) else float(lam_y),
        descent_steps=descent,
        null_steps=null,
        y=y,
        nu=nu,
        a_xbar=a_xbar,
        trace=trace,
        cost_ip=cost_ip,
        basis=basis,
        xbar=xbar,
        sketch_mat=sketch_mat,
    )


def record_to_state(rec: StateRecord) -> SolverState:
    """Rebuild a state without a fingerprint check, for cross-problem
    padding; use :func:`state_from_record` when the problem must match."""
    if rec.store_kind == 1:
        store: object = ExplicitStore(rec.xbar.copy())
    else:
        store = SketchStore(
            sketchmod.NystromSketch(
                n=rec.n, r=rec.sketch_rank, psi_seed=rec.psi_seed, sketch_mat=rec.sketch_mat.copy()
            )
        )
    stats = AggregateStats(rec.trace, rec.cost_ip, rec.a_xbar.copy())
    model = BundleModel(basis=rec.basis.copy(), stats=stats, k_c=rec.k_c, k_p=rec.k_p, store=store)
    return SolverState(
        y=rec.y.copy(),
        nu=rec.nu.copy(),
        f_y=rec.f_y,
        lam_y=rec.lam_y,
        model=model,
        descent_steps=rec.descent_steps,
        null_steps=rec.null_steps,
        last_primal=stats.copy(),
        scale_x=rec.scale_x,
        scale_c=rec.scale_c,
    )


def state_from_record(rec: StateRecord, prob: SdpProblem) -> SolverState:
    """Rebuild a state for the exact problem it was saved from."""
    if (rec.n, rec.m, rec.n_ineq, rec.b_hash) != fingerprint_of(prob):
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
        ops.primal_image_sparse(prob.cost), norm2, out=np.zeros(prob.m), where=norm2 > 0
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
    in ``C - A*(y)``.  The nu vector is padded with zeros.  The primal
    factor is padded with zero rows on new vertices and rescaled by the
    ratio of trace normalizations so the padded matrix represents the same
    unscaled object; statistics are recomputed against the new problem
    data.
    """
    vmap = np.asarray(mapping.vertex_map, dtype=np.int64)
    cmap = np.asarray(mapping.constraint_map, dtype=np.int64)
    if vmap.size and (vmap.min() < 0 or vmap.max() >= new_prob.n):
        raise ValueError("vertex mapping out of range")
    if cmap.size and (cmap.min() < 0 or cmap.max() >= new_prob.m):
        raise ValueError("constraint mapping out of range")
    if vmap.size != prev.model.basis.shape[0] or cmap.size != prev.y.shape[0]:
        raise ValueError("mapping does not match the previous state dimensions")

    model = prev.model
    tau = prev.scale_x / new_prob.scale_x
    factor_old, lams_old = model.store.factorize()
    factor = np.zeros((new_prob.n, factor_old.shape[1]))
    factor[vmap] = factor_old
    lams = tau * lams_old

    y = _arrival_duals(prev.y, new_prob, cmap)
    y[cmap] = prev.y
    nu = np.zeros(new_prob.m)
    nu[cmap] = prev.nu

    basis = np.zeros((new_prob.n, model.k))
    basis[vmap] = model.basis

    trace = float(lams.sum())
    cost_ip = new_prob.cost_factor_ip(factor, lams)
    image = new_prob.constraints.primal_image_factor(factor, lams)
    stats = AggregateStats(trace, cost_ip, image)

    if isinstance(model.store, ExplicitStore):
        store: object = ExplicitStore((factor * lams[None, :]) @ factor.T)
    else:
        seed = sketch_seed if sketch_seed is not None else model.store.sk.psi_seed
        sk = sketchmod.sketch_init(new_prob.n, min(model.store.sk.r, new_prob.n), seed)
        sk = sketchmod.sketch_update(sk, 0.0, factor, np.eye(factor.shape[1]), lams)
        store = SketchStore(sk)

    new_model = BundleModel(basis=basis, stats=stats, k_c=model.k_c, k_p=model.k_p, store=store)
    return SolverState(
        y=y,
        nu=nu,
        f_y=None,
        lam_y=None,
        model=new_model,
        last_primal=stats.copy(),
        scale_x=new_prob.scale_x,
        scale_c=new_prob.scale_c,
    )
