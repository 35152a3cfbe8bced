"""Solvers for the small bundle subproblems.

Both live in budget-rescaled variables where the feasible set is

    eta >= 0,  S >= 0,  tr(S) + eta <= 1,

and the trace-bound factor is absorbed into the coefficients; solutions are
rescaled on exit.  The model value at a candidate minimizes a linear
objective over this set, so it sits at a vertex and takes one k x k
eigenvalue.  The quadratic proximal subproblem, whose solution drives the
candidate iterate, is solved by a primal-dual path-following method whose
Newton system is reduced analytically to a single symmetric positive
definite solve on the S-block.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import SdpProblem, proj_N
from .symlin import (
    ConditioningError,
    is_positive_definite,
    small_eigh,
    solve_spd,
    svec,
    svec_dim,
    svec_identity,
    svec_inv,
    symm_kron,
)

__all__ = [
    "EvalCoeffs",
    "QuadCoeffs",
    "IpmState",
    "IpmResult",
    "StepFailureError",
    "assemble_eval_coeffs",
    "assemble_quad_coeffs",
    "ipm_eval",
    "ipm_quad",
    "alternating_max",
    "AltMaxResult",
]

log = logging.getLogger(__name__)


class StepFailureError(RuntimeError):
    """No strictly feasible step length found above the minimum."""


@dataclass
class EvalCoeffs:
    """Linear subproblem data: minimize lin_s . svec(S) + eta * lin_eta."""

    lin_s: np.ndarray
    lin_eta: float
    has_eta: bool
    k: int


@dataclass
class QuadCoeffs:
    """Quadratic subproblem data:

    minimize 0.5 s'Qs + eta q's + 0.5 eta^2 q2 + h's + eta h2
    over the budget set, with s = svec(S).  ``quad_ss`` is a Gram matrix and
    therefore positive semidefinite.
    """

    quad_ss: np.ndarray
    quad_s_eta: np.ndarray
    quad_eta: float
    lin_s: np.ndarray
    lin_eta: float
    has_eta: bool
    k: int
    cost_quad: Optional[np.ndarray] = None  # V^T C V, cached for reuse
    compressed: Optional[np.ndarray] = None  # stacked svec(V^T A_i V) rows


@dataclass
class IpmState:
    s_mat: np.ndarray
    eta: float
    t_mat: np.ndarray
    zeta: float
    omega: float
    mu: float
    has_eta: bool

    @property
    def k(self) -> int:
        return self.s_mat.shape[0]

    def trace_slack(self) -> float:
        return 1.0 - float(self.s_mat.trace()) - self.eta

    def complementarity(self) -> float:
        total = float((self.s_mat * self.t_mat).sum()) + self.omega * self.trace_slack()
        if self.has_eta:
            total += self.eta * self.zeta
        return total

    def pairs(self) -> int:
        return self.k + (2 if self.has_eta else 1)

    def strictly_feasible(self) -> bool:
        if self.omega <= 0 or self.trace_slack() <= 0:
            return False
        if self.has_eta and (self.eta <= 0 or self.zeta <= 0):
            return False
        return is_positive_definite(self.s_mat) and is_positive_definite(self.t_mat)


# interior-point settings.  The final duality gap tracks mu times the number
# of complementarity pairs (empirically about 1e2 x mu), so the barrier exit
# sits well below the 1e-8 slack the model-condition checks rely on
MU_TOL = 1e-11
KKT_TOL = 1e-6
MAX_NEWTON = 100
STEP_FRAC = 0.99
BACKTRACK = 0.8
MIN_STEP = 1e-12
MAX_STEP_FAILURES = 6
WARM_BLEND = 0.2  # pull warm starts this far toward the cold center

# the alternation is exact once nu moves by at most ALT_TOL * (1 + ||b||)
ALT_MAX_PASSES = 50
ALT_TOL = 1e-8


@dataclass
class Direction:
    ds_vec: np.ndarray
    deta: float
    dt_vec: np.ndarray
    dzeta: float
    domega: float


@dataclass
class IpmResult:
    s_opt: np.ndarray  # k x k, budget-rescaled units
    eta_opt: float
    value: float
    state: Optional[IpmState]  # None for the closed-form model value
    newton_iters: int
    exact: bool


def _cold_state(k: int, has_eta: bool) -> IpmState:
    pairs = k + (2 if has_eta else 1)
    c = 1.0 / (2.0 * pairs)
    st = IpmState(
        s_mat=c * np.eye(k),
        eta=c if has_eta else 0.0,
        t_mat=np.eye(k),
        zeta=1.0 if has_eta else 0.0,
        omega=1.0,
        mu=0.0,
        has_eta=has_eta,
    )
    st.mu = st.complementarity() / (2.0 * st.pairs())
    return st


def _objective(q: QuadCoeffs, s_vec: np.ndarray, eta: float) -> float:
    val = float(
        0.5 * s_vec @ (q.quad_ss @ s_vec)
        + q.lin_s @ s_vec
    )
    if q.has_eta:
        val += float(eta * (q.quad_s_eta @ s_vec) + 0.5 * eta**2 * q.quad_eta + eta * q.lin_eta)
    return val


def _stationarity(
    q: QuadCoeffs, st: IpmState, s_vec: np.ndarray, t_vec: np.ndarray
) -> tuple[np.ndarray, float]:
    """Dual residuals at ``st``, given s_vec = svec(S) and t_vec = svec(T)."""
    f1 = q.quad_ss @ s_vec + q.lin_s - t_vec + st.omega * svec_identity(q.k)
    f2 = 0.0
    if q.has_eta:
        f1 = f1 + st.eta * q.quad_s_eta
        f2 = float(q.quad_s_eta @ s_vec + st.eta * q.quad_eta + q.lin_eta - st.zeta + st.omega)
    return f1, f2


def _direction(
    q: QuadCoeffs,
    st: IpmState,
    mu: float,
    f1: np.ndarray,
    f2: float,
    t_vec: np.ndarray,
    sigma: float,
) -> Direction:
    """Newton step for the linearized central-path system, computed by
    analytically eliminating every block except svec(S), from the
    stationarity residuals (f1, f2), t_vec = svec(T) and the trace slack
    sigma at ``st``."""
    v_i = svec_identity(q.k)
    s_inv = np.linalg.inv(st.s_mat)
    s_inv = 0.5 * (s_inv + s_inv.T)
    e_op = symm_kron(st.t_mat, s_inv)
    r_c = mu / st.omega - sigma
    r_d = mu * svec(s_inv) - t_vec
    kappa1 = sigma / st.omega

    if not q.has_eta:
        m = q.quad_ss + e_op + (v_i[:, None] * v_i[None, :]) / kappa1
        rhs = -f1 + r_d - (r_c / kappa1) * v_i
        ds = solve_spd(m, rhs)
        domega = (r_c + v_i @ ds) / kappa1
        dt = r_d - e_op @ ds
        return Direction(ds_vec=ds, deta=0.0, dt_vec=dt, dzeta=0.0, domega=domega)

    r_e = mu / st.eta - st.zeta
    kappa2 = st.zeta / st.eta + q.quad_eta
    c = kappa1 * kappa2 + 1.0
    q12 = q.quad_s_eta
    m = (
        q.quad_ss
        + e_op
        - (
            q12[:, None] * (kappa1 * q12 + v_i)[None, :]
            + v_i[:, None] * (q12 - kappa2 * v_i)[None, :]
        )
        / c
    )
    rhs = (
        q12 * ((r_c + kappa1 * (f2 - r_e)) / c)
        + v_i * ((f2 - r_e - kappa2 * r_c) / c)
        - f1
        + r_d
    )
    ds = solve_spd(m, rhs)
    deta = -(r_c + kappa1 * (f2 - r_e) + (kappa1 * q12 + v_i) @ ds) / c
    dzeta = r_e - (st.zeta / st.eta) * deta
    domega = -f2 + r_e - q12 @ ds - kappa2 * deta
    dt = r_d - e_op @ ds
    return Direction(ds_vec=ds, deta=deta, dt_vec=dt, dzeta=dzeta, domega=domega)


def _line_search(
    st: IpmState, d: Direction, sigma: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest step fraction in (0, 1] keeping the state strictly feasible,
    given the trace slack sigma at ``st``, and svec_inv of the two matrix
    directions for the update.

    Scalar blocks and the trace slack have exact boundary steps; the two
    matrix blocks are checked by Cholesky with backtracking.
    """
    if not (
        np.isfinite(d.ds_vec).all()
        and np.isfinite(d.dt_vec).all()
        and math.isfinite(d.deta)
        and math.isfinite(d.dzeta)
        and math.isfinite(d.domega)
    ):
        raise StepFailureError("non-finite direction")
    bounds = []
    scalars = [(st.omega, d.domega)]
    if st.has_eta:
        scalars += [(st.eta, d.deta), (st.zeta, d.dzeta)]
    for x, dx in scalars:
        if dx < 0:
            bounds.append(-x / dx)
    v_i = svec_identity(st.k)
    dsigma = -(v_i @ d.ds_vec + d.deta)
    if dsigma < 0:
        bounds.append(-sigma / dsigma)
    delta = min(1.0, STEP_FRAC * min(bounds)) if bounds else 1.0
    ds_mat = svec_inv(d.ds_vec)
    dt_mat = svec_inv(d.dt_vec)
    while delta >= MIN_STEP:
        ok = is_positive_definite(st.s_mat + delta * ds_mat) and is_positive_definite(
            st.t_mat + delta * dt_mat
        )
        if ok:
            # guard scalar positivity against rounding at the boundary
            if st.omega + delta * d.domega <= 0 or sigma + delta * dsigma <= 0:
                ok = False
            if st.has_eta and (
                st.eta + delta * d.deta <= 0 or st.zeta + delta * d.dzeta <= 0
            ):
                ok = False
        if ok:
            return delta, ds_mat, dt_mat
        delta *= BACKTRACK
    raise StepFailureError("no strictly feasible step above minimum")


def _barrier_target(st: IpmState, delta: float, estimate: float) -> float:
    """Non-increasing barrier estimate after a step of fraction ``delta``,
    given the complementarity estimate at ``st``."""
    gamma = 1.0 if delta <= 0.2 else 0.5 - 0.4 * delta**2
    return min(st.mu, gamma * estimate)


def ipm_eval(coeffs: EvalCoeffs) -> IpmResult:
    """Minimize the linear model objective over the budget set.

    A linear function is smallest at a vertex of the set: the origin,
    S = v v^T for a unit eigenvector v of the least eigenvalue of
    svec_inv(lin_s), or eta = 1.  So the value is min(0, lambda_min, lin_eta)
    and no Newton step runs.
    """
    vals, vecs = small_eigh(svec_inv(coeffs.lin_s))
    lam = float(vals[-1])
    s_opt = np.zeros((coeffs.k, coeffs.k))
    eta_opt = value = 0.0
    if coeffs.has_eta and coeffs.lin_eta < min(lam, 0.0):
        eta_opt, value = 1.0, float(coeffs.lin_eta)
    elif lam < 0.0:
        s_opt, value = np.outer(vecs[:, -1], vecs[:, -1]), lam
    return IpmResult(
        s_opt=s_opt, eta_opt=eta_opt, value=value, state=None, newton_iters=0, exact=True
    )


def ipm_quad(coeffs: QuadCoeffs, warm: IpmState | None = None) -> IpmResult:
    """Minimize the quadratic proximal objective over the budget set,
    optionally warm-started from a previous strictly feasible state."""
    q = coeffs
    st = None
    if warm is not None and warm.k == q.k and warm.has_eta == q.has_eta:
        if warm.strictly_feasible():
            # blend toward the cold center: a converged previous state sits
            # on the boundary, where Newton steps for the new coefficients
            # would be truncated to nothing
            lam = WARM_BLEND
            cold = _cold_state(q.k, q.has_eta)
            st = IpmState(
                s_mat=(1 - lam) * warm.s_mat + lam * cold.s_mat,
                eta=(1 - lam) * warm.eta + lam * cold.eta,
                t_mat=(1 - lam) * warm.t_mat + lam * cold.t_mat,
                zeta=(1 - lam) * warm.zeta + lam * cold.zeta,
                omega=(1 - lam) * warm.omega + lam * cold.omega,
                mu=0.0,
                has_eta=q.has_eta,
            )
            st.mu = st.complementarity() / (2.0 * st.pairs())
    if st is None:
        st = _cold_state(q.k, q.has_eta)
    mu = st.mu

    coeff_scale = 1.0 + max(
        float(np.max(np.abs(q.lin_s))) if q.lin_s.size else 0.0,
        abs(q.lin_eta),
        float(np.max(np.abs(q.quad_ss))) if q.quad_ss.size else 0.0,
        float(np.max(np.abs(q.quad_s_eta))) if q.quad_s_eta.size else 0.0,
        abs(q.quad_eta),
    )

    exact = False
    failures = 0
    iters = 0
    # gate on the achieved complementarity, not the barrier target: the
    # non-increasing target can run ahead of the iterates, and the
    # complementarity sum bounds every product block of the optimality
    # system as well as the duality gap.  It changes only with the state, so
    # the estimate behind each barrier update serves the next step's gate.
    achieved = st.complementarity() / (2.0 * st.pairs())
    for iters in range(1, MAX_NEWTON + 1):
        t_vec = svec(st.t_mat)
        f1, f2 = _stationarity(q, st, svec(st.s_mat), t_vec)
        stat_res = max(float(np.abs(f1).max()), abs(f2))
        if mu < MU_TOL and achieved < MU_TOL and stat_res <= KKT_TOL * coeff_scale:
            exact = True
            iters -= 1
            break
        sigma = st.trace_slack()
        try:
            d = _direction(q, st, mu, f1, f2, t_vec, sigma)
            delta, ds_mat, dt_mat = _line_search(st, d, sigma)
        except (ConditioningError, StepFailureError):
            # recovery: recenter by raising the barrier target
            failures += 1
            if failures > MAX_STEP_FAILURES:
                break
            mu = max(mu * 10.0, 10.0 * MU_TOL)
            st.mu = mu
            continue
        failures = 0
        st.s_mat = st.s_mat + delta * ds_mat
        st.t_mat = st.t_mat + delta * dt_mat
        st.omega += delta * d.domega
        if q.has_eta:
            st.eta += delta * d.deta
            st.zeta += delta * d.dzeta
        achieved = st.complementarity() / (2.0 * st.pairs())
        mu = _barrier_target(st, delta, achieved)
        st.mu = mu

    s_vec = svec(st.s_mat)
    value = _objective(q, s_vec, st.eta)
    if not exact:
        log.debug("subproblem solve inexact after %d Newton iterations", iters)
    return IpmResult(
        s_opt=st.s_mat.copy(),
        eta_opt=st.eta if q.has_eta else 0.0,
        value=value,
        state=st,
        newton_iters=iters,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# coefficient assembly


def assemble_eval_coeffs(prob: SdpProblem, model, y: np.ndarray) -> EvalCoeffs:
    """Model-evaluation coefficients at y, from tracked aggregate statistics."""
    v = model.basis
    alpha = prob.alpha
    slack_quad = prob.constraints.adjoint_inner_lowrank(y, v) - prob.cost_quad(v)
    lin_s = alpha * svec(slack_quad)
    tr = model.stats.trace
    if tr > 0.0:
        lin_eta = alpha / tr * float(y @ model.stats.constr_image - model.stats.cost_ip)
        has_eta = True
    else:
        lin_eta = 0.0
        has_eta = False
    return EvalCoeffs(lin_s=lin_s, lin_eta=lin_eta, has_eta=has_eta, k=v.shape[1])


def assemble_quad_coeffs(
    prob: SdpProblem,
    model,
    y: np.ndarray,
    nu: np.ndarray,
    rho: float,
    base: QuadCoeffs | None = None,
) -> QuadCoeffs:
    """Proximal-subproblem coefficients.  The quadratic part depends only on
    the model and rho and may be reused across slack updates via ``base``."""
    v = model.basis
    alpha = prob.alpha
    tr = model.stats.trace
    has_eta = tr > 0.0

    if base is None:
        compressed = prob.constraints.compressed_rows(v)
        quad_ss = (alpha**2 / rho) * (compressed.T @ compressed)
        d = svec_dim(v.shape[1])
        if has_eta:
            a_img = model.stats.constr_image
            # rows of the compressed matrix are svec(V^T A_i V), so the
            # adjoint compression of any m-vector is a single product
            quad_s_eta = (alpha**2 / (rho * tr)) * (compressed.T @ a_img)
            quad_eta = (alpha**2 / (rho * tr**2)) * float(a_img @ a_img)
        else:
            quad_s_eta = np.zeros(d)
            quad_eta = 0.0
        cost_quad = prob.cost_quad(v)
    else:
        compressed = base.compressed
        quad_ss = base.quad_ss
        quad_s_eta = base.quad_s_eta
        quad_eta = base.quad_eta
        cost_quad = base.cost_quad

    # slack enters the coupling with a plus sign: it lives in the
    # nonpositive orthant on inequality rows
    w_vec = y - (prob.b + nu) / rho
    lin_s = alpha * (compressed.T @ w_vec - svec(cost_quad))
    if has_eta:
        lin_eta = alpha / tr * float(
            model.stats.constr_image @ w_vec - model.stats.cost_ip
        )
    else:
        lin_eta = 0.0
    return QuadCoeffs(
        quad_ss=quad_ss,
        quad_s_eta=quad_s_eta,
        quad_eta=quad_eta,
        lin_s=lin_s,
        lin_eta=lin_eta,
        has_eta=has_eta,
        k=v.shape[1],
        cost_quad=cost_quad,
        compressed=compressed,
    )


# ---------------------------------------------------------------------------
# alternating maximization


@dataclass
class AltMaxResult:
    eta: float  # weight on the aggregate matrix, original units
    s_mat: np.ndarray  # k x k block, original units
    nu: np.ndarray
    a_x: np.ndarray  # constraint image of the new iterate
    c_x: float  # cost inner product of the new iterate
    tr_x: float
    passes: int
    newton: int  # interior-point Newton steps, summed over the passes
    exact: bool


def alternating_max(
    prob: SdpProblem,
    model,
    y: np.ndarray,
    rho: float,
    nu0: np.ndarray | None = None,
) -> AltMaxResult:
    """Blockwise maximization of the proximal coupling over (X, nu).

    The X block is solved by the quadratic interior-point method (warm
    started between passes); the slack block is a closed-form projection.
    Without inequality rows a single X step is exact.  ``nu0`` seeds the
    slack block (the caller's previous slack), so inner progress compounds
    across outer iterations when the pass budget truncates convergence; a
    result cut off by the pass cap is not exact.
    """
    alpha = prob.alpha
    tr = model.stats.trace
    has_eta = tr > 0.0
    nu = proj_N(nu0, prob) if nu0 is not None else np.zeros(prob.m)
    warm: IpmState | None = None
    base: QuadCoeffs | None = None
    exact = True
    newton = 0
    b_norm = float(np.linalg.norm(prob.b))
    for passes in range(1, ALT_MAX_PASSES + 1):
        coeffs = assemble_quad_coeffs(prob, model, y, nu, rho, base=base)
        base = coeffs
        res = ipm_quad(coeffs, warm=warm)
        warm = res.state
        newton += res.newton_iters
        exact = exact and res.exact
        s_act = alpha * res.s_opt
        eta_act = (alpha * res.eta_opt / tr) if has_eta else 0.0
        a_x = eta_act * model.stats.constr_image + prob.constraints.primal_image_lowrank(
            model.basis, s_act
        )
        nu_next = proj_N(a_x + rho * y - prob.b, prob)
        done = (not prob.has_ineq) or bool(
            np.linalg.norm(nu_next - nu) <= ALT_TOL * (1.0 + b_norm)
        )
        nu = nu_next
        if done:
            break

    c_x = eta_act * model.stats.cost_ip + float((base.cost_quad * s_act).sum())
    tr_x = eta_act * tr + float(s_act.trace())
    return AltMaxResult(
        eta=eta_act,
        s_mat=s_act,
        nu=nu,
        a_x=a_x,
        c_x=c_x,
        tr_x=tr_x,
        passes=passes,
        newton=newton,
        exact=exact and done,
    )
