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

On inequality rows the proximal subproblem also carries a slack nu, whose
optimum for a given X is the projection proj_N(A(X) + rho*y - b).  With nu
eliminated the objective is a convex C^1 piecewise quadratic: each piece
keeps the equality rows and the inequality rows with a positive residual.
The interior-point method re-selects the piece at every Newton step, so one
solve reaches the joint optimum over (X, nu).
"""
from __future__ import annotations

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


def _coeff_scale(q: QuadCoeffs) -> float:
    return 1.0 + max(
        float(np.max(np.abs(q.lin_s))) if q.lin_s.size else 0.0,
        abs(q.lin_eta),
        float(np.max(np.abs(q.quad_ss))) if q.quad_ss.size else 0.0,
        float(np.max(np.abs(q.quad_s_eta))) if q.quad_s_eta.size else 0.0,
        abs(q.quad_eta),
    )


def ipm_quad(coeffs: QuadCoeffs | None, pieces: _Pieces | None = None) -> IpmResult:
    """Minimize the quadratic proximal objective over the budget set, from
    the cold center.

    ``pieces`` (with ``coeffs`` None) makes the objective piecewise
    quadratic: the piece active at the iterate is selected at the top of
    every Newton step, the first included, and the coefficients are replaced
    when it changes.  The gradient is continuous across pieces, so the exit
    test certifies the piecewise objective."""
    q = coeffs
    if pieces is None:
        st, coeff_scale = _cold_state(q.k, q.has_eta), _coeff_scale(q)
    else:  # the first select supplies q and its scale
        st, coeff_scale = _cold_state(pieces.k, pieces.has_eta), None
    mu = st.mu

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
        if pieces is not None:
            piece = pieces.select(st.s_mat, st.eta)
            if piece is not None:
                q, coeff_scale = piece, _coeff_scale(piece)
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


def assemble_eval_coeffs(
    prob: SdpProblem, model, y: np.ndarray, cost_quad: np.ndarray
) -> EvalCoeffs:
    """Model-evaluation coefficients at y, from tracked aggregate statistics
    and ``cost_quad`` = V^T C V for the model's basis V (the proximal step
    computes it for the same basis)."""
    v = model.basis
    alpha = prob.alpha
    slack_quad = prob.constraints.adjoint_inner_lowrank(y, v) - cost_quad
    lin_s = alpha * svec(slack_quad)
    tr = model.stats.trace
    if tr > 0.0:
        lin_eta = alpha / tr * float(y @ model.stats.constr_image - model.stats.cost_ip)
        has_eta = True
    else:
        lin_eta = 0.0
        has_eta = False
    return EvalCoeffs(lin_s=lin_s, lin_eta=lin_eta, has_eta=has_eta, k=v.shape[1])


def _row_sums(c: np.ndarray, w_vec: np.ndarray, a_img: np.ndarray | None) -> list:
    """The sums over a set of constraint rows that fix the proximal
    coefficients on them, given the rows of the compressed block ``c``, of
    w = y - b/rho and of the aggregate's image (None without an aggregate):
    ``[c^T c, c^T w, c^T a, a . a, a . w]``, the a-sums zero without one.
    Rows of the compressed block are svec(V^T A_i V), so the adjoint
    compression of any row vector is a single product."""
    if a_img is None:
        return [c.T @ c, c.T @ w_vec, np.zeros(c.shape[1]), 0.0, 0.0]
    return [c.T @ c, c.T @ w_vec, c.T @ a_img, float(a_img @ a_img), float(a_img @ w_vec)]


def assemble_quad_coeffs(
    prob: SdpProblem, model, rho: float, sums: list, cost_quad: np.ndarray
) -> QuadCoeffs:
    """Coefficients of (1/(2 rho)) * sum over a row set D of r_i^2 - <C, X>,
    with r = A(X) + rho*y - b, from the sums over D of :func:`_row_sums`
    and ``cost_quad`` = V^T C V for the model's basis V.  With D every row
    it is the objective of a problem without inequality rows."""
    gram, c_w, c_a, a_a, a_w = sums
    alpha = prob.alpha
    tr = model.stats.trace
    has_eta = tr > 0.0
    quad_ss = (alpha**2 / rho) * gram
    lin_s = alpha * (c_w - svec(cost_quad))
    if has_eta:
        quad_s_eta = (alpha**2 / (rho * tr)) * c_a
        quad_eta = (alpha**2 / (rho * tr**2)) * a_a
        lin_eta = alpha / tr * (a_w - model.stats.cost_ip)
    else:
        quad_s_eta = np.zeros(svec_dim(model.basis.shape[1]))
        quad_eta = lin_eta = 0.0
    return QuadCoeffs(
        quad_ss=quad_ss,
        quad_s_eta=quad_s_eta,
        quad_eta=quad_eta,
        lin_s=lin_s,
        lin_eta=lin_eta,
        has_eta=has_eta,
        k=model.basis.shape[1],
    )


class _Pieces:
    """The pieces of the proximal objective with the slack eliminated.

    A piece keeps the equality rows and the inequality rows whose residual
    r = A(X) + rho*y - b is positive; the optimal slack absorbs the others.
    Its coefficients are fixed by sums over the rows it keeps
    (:func:`_row_sums`).  Those are seeded from the equality rows, and each
    :meth:`select` adds the sums of the rows that enter the piece and
    subtracts those of the rows that leave it.  ``compressed`` is the
    compressed block of every row and ``cost_quad`` = V^T C V.  ``visited``
    counts the pieces :meth:`select` has returned.
    """

    def __init__(
        self,
        prob: SdpProblem,
        model,
        y: np.ndarray,
        rho: float,
        compressed: np.ndarray,
        cost_quad: np.ndarray,
    ):
        self.prob, self.model, self.rho = prob, model, rho
        self.compressed, self.cost_quad = compressed, cost_quad
        self.k, self.has_eta = model.basis.shape[1], model.stats.trace > 0.0
        self.w_vec = y - prob.b / rho
        self.r0 = rho * y - prob.b
        self.equality = ~prob.ineq_mask
        self.keep = self.equality.copy()
        self.sums = self._sums(np.flatnonzero(self.keep))
        self.visited = 0

    def _sums(self, rows: np.ndarray) -> list:
        """The :func:`_row_sums` of ``rows``."""
        stats = self.model.stats
        return _row_sums(
            np.take(self.compressed, rows, axis=0),
            np.take(self.w_vec, rows),
            np.take(stats.constr_image, rows) if self.has_eta else None,
        )

    def select(self, s_mat: np.ndarray, eta: float) -> QuadCoeffs | None:
        """Coefficients of the piece active at (S, eta), or None when it is
        the piece returned last."""
        # r = A(X) + rho*y - b at the iterate X = (alpha/tr) eta Xbar + alpha V S V^T
        alpha, stats = self.prob.alpha, self.model.stats
        r = self.compressed @ (alpha * svec(s_mat))
        r += self.r0
        if self.has_eta:
            r += (alpha * eta / stats.trace) * stats.constr_image
        pos = r > 0.0
        pos |= self.equality
        flips = np.flatnonzero(pos != self.keep)
        if self.visited and not flips.size:
            return None
        entering = pos[flips]
        added, removed = self._sums(flips[entering]), self._sums(flips[~entering])
        self.sums = [s + a - r for s, a, r in zip(self.sums, added, removed)]
        self.keep = pos
        self.visited += 1
        return assemble_quad_coeffs(self.prob, self.model, self.rho, self.sums, self.cost_quad)


# ---------------------------------------------------------------------------
# the proximal step


@dataclass
class AltMaxResult:
    eta: float  # weight on the aggregate matrix, original units
    s_mat: np.ndarray  # k x k block, original units
    nu: np.ndarray  # the optimal slack, proj_N(a_x + rho*y - b)
    a_x: np.ndarray  # constraint image of the new iterate
    c_x: float  # cost inner product of the new iterate
    tr_x: float
    passes: int  # pieces the solve visited; 1 without inequality rows
    newton: int  # Newton steps of the one interior-point solve
    exact: bool
    cost_quad: np.ndarray  # V^T C V for the model's basis


def alternating_max(prob: SdpProblem, model, y: np.ndarray, rho: float) -> AltMaxResult:
    """Maximize the proximal coupling over (X, nu) with one interior-point
    solve.

    It no longer alternates: the slack is eliminated in closed form, and the
    solve re-selects the piece of the resulting piecewise-quadratic
    objective as it goes (see the module docstring).  The optimal slack is
    then the projection of the final residual.
    """
    alpha = prob.alpha
    tr = model.stats.trace
    v = model.basis
    compressed = prob.constraints.compressed_rows(v)
    cost_quad = prob.cost_quad(v)
    if prob.has_ineq:
        pieces = _Pieces(prob, model, y, rho, compressed, cost_quad)
        res = ipm_quad(None, pieces)
    else:
        pieces = None
        a_img = model.stats.constr_image if tr > 0.0 else None
        sums = _row_sums(compressed, y - prob.b / rho, a_img)
        res = ipm_quad(assemble_quad_coeffs(prob, model, rho, sums, cost_quad))
    s_act = alpha * res.s_opt
    eta_act = (alpha * res.eta_opt / tr) if tr > 0.0 else 0.0
    a_x = eta_act * model.stats.constr_image + prob.constraints.primal_image_lowrank(v, s_act)
    c_x = eta_act * model.stats.cost_ip + float((cost_quad * s_act).sum())
    tr_x = eta_act * tr + float(s_act.trace())
    return AltMaxResult(
        eta=eta_act,
        s_mat=s_act,
        nu=proj_N(a_x + rho * y - prob.b, prob),
        a_x=a_x,
        c_x=c_x,
        tr_x=tr_x,
        passes=pieces.visited if pieces is not None else 1,
        newton=res.newton_iters,
        exact=res.exact,
        cost_quad=cost_quad,
    )
