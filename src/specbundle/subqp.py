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

On its sign rows (the inequality rows) the proximal subproblem also carries
a slack nu, whose optimum for a given X is min(A(X) + rho*y - b, 0) on
those rows.  With nu eliminated the objective is a convex C^1 piecewise
quadratic: each piece keeps the equality rows and the sign rows with a
positive residual, so a problem without sign rows has one piece.  The
interior-point method re-selects the piece at every Newton step, reading
the residual on the sign rows alone, so one solve reaches the joint optimum
over (X, nu).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import SdpProblem
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


def ipm_quad(pieces: _Pieces) -> IpmResult:
    """Minimize the piecewise-quadratic proximal objective over the budget
    set, from the cold center.

    The piece active at the iterate is selected at the top of every Newton
    step, the first included, and the coefficients are replaced when it
    changes.  The gradient is continuous across pieces, so the exit test
    certifies the piecewise objective."""
    st = _cold_state(pieces.k, pieces.has_eta)
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
        piece = pieces.select(st.s_mat, st.eta)  # the first call returns one
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


def _rows(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``block``.  np.take gathers a C-ordered block 3x faster than
    indexing, but copies an F-ordered one (a MaxCut block) whole, even for no rows."""
    return np.take(block, rows, axis=0) if block.flags.c_contiguous else block[rows]


def _block_sums(c: np.ndarray, w_vec: np.ndarray, a_img: np.ndarray | None) -> list:
    """``[c^T c, c^T w, c^T a]`` over the rows of the compressed block ``c``,
    given their rows of w = y - b/rho and of the aggregate's image (None
    without an aggregate, when c^T a is zero).  Rows of the compressed block
    are svec(V^T A_i V), so the adjoint compression of any row vector is a
    single product, and the sums over a row set add block by block."""
    c_a = np.zeros(c.shape[1]) if a_img is None else c.T @ a_img
    return [c.T @ c, c.T @ w_vec, c_a]


def _image_sums(w_vec: np.ndarray, a_img: np.ndarray | None) -> list:
    """``[a . a, a . w]`` over a set of constraint rows, zero without an
    aggregate."""
    return [0.0, 0.0] if a_img is None else [float(a_img @ a_img), float(a_img @ w_vec)]


def _row_sums(c: np.ndarray, w_vec: np.ndarray, a_img: np.ndarray | None) -> list:
    """The sums over a set of constraint rows that fix the proximal
    coefficients on them, given the rows of the compressed block ``c``, of
    w = y - b/rho and of the aggregate's image (None without an aggregate):
    ``[c^T c, c^T w, c^T a, a . a, a . w]``, the a-sums zero without one."""
    return _block_sums(c, w_vec, a_img) + _image_sums(w_vec, a_img)


def assemble_quad_coeffs(
    prob: SdpProblem, model, rho: float, sums: list, cost_quad: np.ndarray
) -> QuadCoeffs:
    """Coefficients of (1/(2 rho)) * sum over a row set D of r_i^2 - <C, X>,
    with r = A(X) + rho*y - b, from the sums over D of :func:`_row_sums`
    and ``cost_quad`` = V^T C V for the model's basis V.  With D every row
    it is the objective of a problem without sign rows."""
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

    A piece keeps the equality rows and the sign rows whose residual
    r = A(X) + rho*y - b is positive; the optimal slack absorbs the others.
    Its coefficients are fixed by sums over the rows it keeps
    (:func:`_row_sums`).  The compressed rows come as ``(rows, block)``
    pairs (``compressed_blocks``), and each block is read once: its sign
    rows are kept and its equality rows are added into the sums
    (:func:`_block_sums`, on the block itself when every row is one), so
    only one block and the sign rows are ever held.  The image sums are one
    dot each over all equality rows.  Each :meth:`select` adds the sums of
    the sign rows that enter the piece and subtracts those of the sign rows
    that leave it.  r is read on the sign rows alone: their rows of w =
    y - b/rho and of the aggregate's image are gathered once.  Without sign
    rows there is one piece.  ``keep`` marks the sign rows of the piece
    returned last, and ``visited`` counts the pieces :meth:`select` has
    returned.
    """

    def __init__(
        self,
        prob: SdpProblem,
        model,
        y: np.ndarray,
        rho: float,
        blocks,
        cost_quad: np.ndarray,
    ):
        self.prob, self.model, self.rho, self.cost_quad = prob, model, rho, cost_quad
        self.k, self.has_eta = model.basis.shape[1], model.stats.trace > 0.0
        w_vec, a_img = y - prob.b / rho, model.stats.constr_image
        sign = prob.ineq_idx
        self.w_sign, self.a_sign = w_vec[sign], a_img[sign]
        self.r0 = rho * y[sign] - prob.b[sign]
        c_sign, sums = [], None
        for rows, c in blocks:
            w_b, a_b, on_sign = w_vec[rows], a_img[rows], prob.ineq_mask[rows]
            if on_sign.any():
                c_sign.append(_rows(c, np.flatnonzero(on_sign)))
                equality = np.flatnonzero(~on_sign)
                c, w_b, a_b = _rows(c, equality), w_b[equality], a_b[equality]
            part = _block_sums(c, w_b, a_b if self.has_eta else None)
            sums = part if sums is None else [s + p for s, p in zip(sums, part)]
            del c  # the next block is formed without this one held
        if sign.size:
            equality = np.flatnonzero(~prob.ineq_mask)
            w_vec, a_img = w_vec[equality], a_img[equality]
        self.sums = sums + _image_sums(w_vec, a_img if self.has_eta else None)
        if len(c_sign) != 1:  # no sign rows, or sign rows in several blocks
            c_sign = [np.concatenate([np.empty((0, svec_dim(self.k))), *c_sign])]
        self.c_sign = c_sign[0]
        self.keep = np.zeros(sign.size, dtype=bool)
        self.visited = 0

    def _sums(self, rows: np.ndarray) -> list:
        """The :func:`_row_sums` of the sign rows at positions ``rows``."""
        a_img = self.a_sign[rows] if self.has_eta else None
        return _row_sums(_rows(self.c_sign, rows), self.w_sign[rows], a_img)

    def select(self, s_mat: np.ndarray, eta: float) -> QuadCoeffs | None:
        """Coefficients of the piece active at (S, eta), or None when it is
        the piece returned last.  Without sign rows only the first call
        returns a piece, and no call reads a row."""
        if self.visited and not self.keep.size:
            return None
        # r on the sign rows at the iterate X = (alpha/tr) eta Xbar + alpha V S V^T
        alpha = self.prob.alpha
        r = self.c_sign @ (alpha * svec(s_mat))
        r += self.r0
        if self.has_eta:
            r += (alpha * eta / self.model.stats.trace) * self.a_sign
        pos = r > 0.0
        flips = np.flatnonzero(pos != self.keep)
        if flips.size:
            entering = pos[flips]
            added, removed = self._sums(flips[entering]), self._sums(flips[~entering])
            self.sums = [s + a - d for s, a, d in zip(self.sums, added, removed)]
            self.keep = pos
        elif self.visited:
            return None
        self.visited += 1
        return assemble_quad_coeffs(self.prob, self.model, self.rho, self.sums, self.cost_quad)


# ---------------------------------------------------------------------------
# the proximal step


@dataclass
class AltMaxResult:
    eta: float  # weight on the aggregate matrix, original units
    s_mat: np.ndarray  # k x k block, original units
    a_x: np.ndarray  # constraint image of the new iterate
    passes: int  # pieces the solve visited; 1 without sign rows
    newton: int  # Newton steps of the one interior-point solve
    exact: bool
    cost_quad: np.ndarray  # V^T C V for the model's basis


def alternating_max(prob: SdpProblem, model, y: np.ndarray, rho: float) -> AltMaxResult:
    """Maximize the proximal coupling over (X, nu) with one interior-point
    solve, which re-selects the piece of the objective with the slack
    eliminated as it goes (see the module docstring).

    The name is the one of the alternation over X and nu that this solve
    replaced; it stays because the benchmark's tracer
    (``perfbench/spans.py``) patches the function by that name.
    """
    alpha = prob.alpha
    tr = model.stats.trace
    v = model.basis
    cost_quad = prob.cost_quad(v)
    pieces = _Pieces(prob, model, y, rho, prob.constraints.compressed_blocks(v), cost_quad)
    res = ipm_quad(pieces)
    s_act = alpha * res.s_opt
    eta_act = (alpha * res.eta_opt / tr) if tr > 0.0 else 0.0
    a_x = eta_act * model.stats.constr_image + prob.constraints.primal_image_lowrank(v, s_act)
    return AltMaxResult(
        eta=eta_act,
        s_mat=s_act,
        a_x=a_x,
        passes=pieces.visited,
        newton=res.newton_iters,
        exact=res.exact,
        cost_quad=cost_quad,
    )
