"""Independent reference computations used to freeze expected test values.

These implementations deliberately share nothing with the solver path they
check: brute-force enumeration, long-run projected gradient, and dense
linear algebra only.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from specbundle.symlin import svec, svec_inv, tri_indices


def project_budget_set(s_mat: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """Euclidean projection onto {S >= 0, eta >= 0, tr(S) + eta <= 1} via
    eigenvalue clipping plus simplex scaling."""
    vals, vecs = np.linalg.eigh(0.5 * (s_mat + s_mat.T))
    x = np.concatenate([vals, [eta]])
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total > 1.0:
        # project the clipped vector onto the standard simplex
        u = np.sort(x)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, len(u) + 1)
        cond = u - css / idx > 0
        rho_i = idx[cond][-1]
        theta = css[cond][-1] / rho_i
        x = np.maximum(x - theta, 0.0)
    s_proj = (vecs * x[:-1][None, :]) @ vecs.T
    return s_proj, float(x[-1])


def pg_quad_oracle(coeffs, steps: int = 10**6, step_size: float = 1e-3) -> float:
    """Long-run projected gradient descent for the quadratic subproblem."""
    k = coeffs.k
    s_mat = np.zeros((k, k))
    eta = 0.0
    q = coeffs.quad_ss
    q12 = coeffs.quad_s_eta
    q22 = coeffs.quad_eta
    h1 = coeffs.lin_s
    h2 = coeffs.lin_eta
    for _ in range(steps):
        s_vec = svec(s_mat)
        grad_s = q @ s_vec + h1
        if coeffs.has_eta:
            grad_s = grad_s + eta * q12
            grad_eta = float(q12 @ s_vec + q22 * eta + h2)
        else:
            grad_eta = 0.0
        s_mat = s_mat - step_size * svec_inv(grad_s)
        eta = eta - step_size * grad_eta
        s_mat, eta = project_budget_set(s_mat, eta)
        if not coeffs.has_eta:
            eta = 0.0
    s_vec = svec(s_mat)
    val = float(0.5 * s_vec @ (q @ s_vec) + h1 @ s_vec)
    if coeffs.has_eta:
        val += float(eta * (q12 @ s_vec) + 0.5 * eta**2 * q22 + eta * h2)
    return val


def brute_force_maxcut(g) -> float:
    """Exhaustive cut maximization over 2^(n-1) sign patterns."""
    lap = g.laplacian().toarray()
    n = g.n
    best = 0.0
    for bits in range(2 ** (n - 1)):
        x = np.ones(n)
        for i in range(n - 1):
            if bits >> i & 1:
                x[i + 1] = -1.0
        best = max(best, 0.25 * float(x @ lap @ x))
    return best


def brute_force_qap(weights: np.ndarray, distances: np.ndarray):
    n = weights.shape[0]
    best_val = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        val = float(np.sum(weights * distances[np.ix_(p, p)]))
        if val < best_val:
            best_val = val
            best_perm = p
    return best_val, best_perm


def brute_force_assignment(cost: np.ndarray):
    n = cost.shape[0]
    best_val = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n))
        if val < best_val:
            best_val = val
            best_perm = np.array(perm)
    return best_val, best_perm


def maxcut_round_frozen(u: np.ndarray, g):
    """``rounding.maxcut_round`` as it scored each sign cut through the
    graph Laplacian, 0.25 x^T L x, keeping the first strictly larger cut."""
    from specbundle.rounding import CutResult

    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.ndim != 2 or u.shape[0] != g.n or u.shape[1] == 0:
        raise ValueError("factor must be a nonempty n x r matrix")
    lap = g.laplacian()
    best_x: np.ndarray | None = None
    best_val = -np.inf
    for j in range(u.shape[1]):
        x = np.where(u[:, j] >= 0.0, 1.0, -1.0)
        val = 0.25 * float(x @ (lap @ x))
        if val > best_val:
            best_val = val
            best_x = x
    return CutResult(assignment=best_x.astype(int), value=best_val)


def hungarian_frozen(cost: np.ndarray) -> np.ndarray:
    """``rounding.hungarian`` as it scattered the column indices by row."""
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def random_quad_coeffs(seed: int, k: int = 3):
    """Deterministic generator shared by the frozen-oracle tests."""
    from specbundle.subqp import QuadCoeffs
    from specbundle.symlin import svec_dim

    rng = np.random.default_rng(seed)
    sd = svec_dim(k)
    a = rng.standard_normal((sd + 2, sd))
    q = a.T @ a / (sd + 2)
    z = rng.standard_normal(sd + 2)
    q12 = a.T @ z / (sd + 2)
    q22 = float(z @ z / (sd + 2))
    h1 = rng.standard_normal(sd)
    h2 = float(rng.standard_normal())
    return QuadCoeffs(
        quad_ss=q,
        quad_s_eta=q12,
        quad_eta=q22,
        lin_s=h1,
        lin_eta=h2,
        has_eta=True,
        k=k,
    )


def _lanczos_seeded_unit(n: int, seed: int, counter: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, counter])
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _lanczos_eigh_desc(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = 0.5 * (s + s.T)
    vals, vecs = np.linalg.eigh(s)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def lanczos_top_frozen(matvec, n: int, k_c: int, inner_iters: int = 32,
                       max_restarts: int = 10, tol: float = 1e-9, seed: int = 0):
    """Frozen copy of the thick-restart Lanczos iteration as it stood before
    the solver began streaming a contiguous vector to the operator: the
    operator is applied to the strided basis column and every projection
    allocates.  The solver's ``lanczos_top`` stores the basis one vector per
    row, so it must agree with this copy up to that layout's rounding.

    Returns (eigenvalues, eigenvectors, residuals, converged, restarts).
    The leading Ritz value of each cycle is checked here to be
    non-decreasing, as the thick restart guarantees.  Only the iterative
    path is copied, so n must exceed the basis size.
    """
    m = max(int(inner_iters), k_c + 1, 2)
    assert k_c < n and m < n
    q = np.zeros((n, m + 1))
    h = np.zeros((m + 1, m + 1))
    q[:, 0] = _lanczos_seeded_unit(n, seed, 0)
    ell = 0
    reseed_counter = 0
    ritz_history = []
    converged = False
    restarts_done = 0
    theta = np.zeros(m)
    y = np.eye(m)
    res = np.full(m, np.inf)
    for cycle in range(max_restarts + 1):
        for j in range(ell, m):
            w = np.asarray(matvec(q[:, j]), dtype=float)
            assert np.all(np.isfinite(w))
            coeffs = q[:, : j + 1].T @ w
            w = w - q[:, : j + 1] @ coeffs
            extra = q[:, : j + 1].T @ w
            w = w - q[:, : j + 1] @ extra
            coeffs += extra
            h[: j + 1, j] = coeffs
            h[j, : j + 1] = coeffs
            beta = float(np.linalg.norm(w))
            scale = max(1.0, float(np.max(np.abs(coeffs))) if coeffs.size else 0.0)
            if beta <= 1e-13 * scale:
                reseed_counter += 16
                fresh = None
                for attempt in range(8):
                    cand = _lanczos_seeded_unit(n, seed, reseed_counter + attempt + 1)
                    cand -= q[:, : j + 1] @ (q[:, : j + 1].T @ cand)
                    nc = np.linalg.norm(cand)
                    if nc > 1e-8:
                        fresh = cand / nc
                        break
                q[:, j + 1] = 0.0 if fresh is None else fresh
                h[j + 1, j] = 0.0
                h[j, j + 1] = 0.0
            else:
                q[:, j + 1] = w / beta
                h[j + 1, j] = beta
                h[j, j + 1] = beta
        theta, y = _lanczos_eigh_desc(h[:m, :m])
        res = np.abs(h[m, m - 1] * y[m - 1, :])
        ritz_history.append(float(theta[0]))
        if np.all(res[:k_c] <= tol * (1.0 + abs(float(theta[0])))):
            converged = True
            break
        if cycle == max_restarts:
            break
        ell = max(1, min(k_c + 3, m - 2))
        kept = q[:, :m] @ y[:, :ell]
        q_next = q[:, m].copy()
        q[:, :ell] = kept
        q[:, ell] = q_next
        h[:, :] = 0.0
        h[:ell, :ell] = np.diag(theta[:ell])
        restarts_done += 1
    assert all(b >= a - 1e-10 * (1 + abs(a)) for a, b in zip(ritz_history, ritz_history[1:]))
    return (theta[:k_c].copy(), q[:, :m] @ y[:, :k_c], res[:k_c].copy(), converged,
            restarts_done)


def graph_from_edges(n: int, edges):
    """``GraphInstance.from_arrays`` on a list of (u, v, w) tuples."""
    from specbundle.problem import GraphInstance

    rec = np.fromiter(edges, dtype=[("u", np.int64), ("v", np.int64), ("w", float)])
    return GraphInstance.from_arrays(n, rec["u"], rec["v"], rec["w"])


def graph_from_edges_dict(n: int, edges):
    """Dictionary accumulation of an undirected edge list: self loops
    dropped, each pair keyed as (min, max) and range-checked in input order,
    duplicate weights summed in input order, keys sorted.  Returns (u, v, w)
    arrays."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    acc = {}
    for u, v, w in edges:
        if u == v:
            continue
        a, b = (int(u), int(v)) if u < v else (int(v), int(u))
        if not 0 <= a < n or not 0 <= b < n:
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        acc[(a, b)] = acc.get((a, b), 0.0) + float(w)
    keys = sorted(acc)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([acc[k] for k in keys], dtype=float),
    )


# ---------------------------------------------------------------------------
# frozen copies of the interior-point Newton core, its kernels and the sparse
# constraint images, as they stood before their per-call overhead was cut.
# The solver must reproduce them bit for bit.


def svec_frozen(a: np.ndarray) -> np.ndarray:
    """svec through two-array fancy indexing."""
    from specbundle.symlin import tri_indices

    i, j, w = tri_indices(a.shape[0])
    return a[i, j] * w


def svec_inv_frozen(v: np.ndarray) -> np.ndarray:
    """Inverse svec through two fancy-index assignments into zeros."""
    from specbundle.symlin import mat_dim, tri_indices

    n = mat_dim(v.shape[0])
    i, j, w = tri_indices(n)
    a = np.zeros((n, n))
    vals = v / w
    a[i, j] = vals
    a[j, i] = vals
    return a


def u_matrix_frozen(n: int) -> np.ndarray:
    """The row-compression matrix U, mapping vec(A) (column-stacked) to
    svec(A), filled one svec position at a time."""
    from specbundle.symlin import svec_dim, tri_indices

    i, j, _ = tri_indices(n)
    d = svec_dim(n)
    u = np.zeros((d, n * n))
    for p in range(d):
        ip, jp = int(i[p]), int(j[p])
        if ip == jp:
            u[p, jp * n + ip] = 1.0
        else:
            u[p, jp * n + ip] = 1.0 / math.sqrt(2.0)
            u[p, ip * n + jp] = 1.0 / math.sqrt(2.0)
    return u


def symm_kron_frozen(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symmetric Kronecker product through two ``np.kron`` calls and the
    row-compression matrix."""
    u = u_matrix_frozen(g.shape[0])
    return 0.5 * u @ (np.kron(g, h) + np.kron(h, g)) @ u.T


def solve_spd_frozen(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve through scipy's ``cho_factor`` and ``cho_solve``."""
    import scipy.linalg

    from specbundle.symlin import ConditioningError

    m = np.asarray(m, dtype=float)
    try:
        factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise ConditioningError(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, np.asarray(rhs, dtype=float), check_finite=False)


def _chol_ok(m: np.ndarray) -> bool:
    import scipy.linalg

    try:
        scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        return False
    return True


class FrozenIpmState:
    """Iterate of the frozen Newton loop (same fields as ``IpmState``)."""

    def __init__(self, s_mat, eta, t_mat, zeta, omega, mu, has_eta):
        self.s_mat = s_mat
        self.eta = eta
        self.t_mat = t_mat
        self.zeta = zeta
        self.omega = omega
        self.mu = mu
        self.has_eta = has_eta

    @property
    def k(self) -> int:
        return self.s_mat.shape[0]

    def trace_slack(self) -> float:
        return 1.0 - float(np.trace(self.s_mat)) - self.eta

    def complementarity(self) -> float:
        total = float(np.sum(self.s_mat * self.t_mat)) + self.omega * self.trace_slack()
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
        return _chol_ok(self.s_mat) and _chol_ok(self.t_mat)


def _frozen_cold_state(k: int, has_eta: bool) -> FrozenIpmState:
    pairs = k + (2 if has_eta else 1)
    c = 1.0 / (2.0 * pairs)
    st = FrozenIpmState(
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


def stationarity_frozen(q, st) -> tuple[np.ndarray, float]:
    from specbundle.symlin import svec_identity

    s_vec = svec_frozen(st.s_mat)
    t_vec = svec_frozen(st.t_mat)
    v_i = svec_identity(q.k)
    f1 = q.quad_ss @ s_vec + q.lin_s - t_vec + st.omega * v_i
    f2 = 0.0
    if q.has_eta:
        f1 = f1 + st.eta * q.quad_s_eta
        f2 = float(q.quad_s_eta @ s_vec + st.eta * q.quad_eta + q.lin_eta - st.zeta + st.omega)
    return f1, f2


def newton_direction_frozen(q, st, mu):
    """Eliminated Newton step; returns (ds, deta, dt, dzeta, domega)."""
    from specbundle.symlin import svec_identity

    v_i = svec_identity(q.k)
    t_vec = svec_frozen(st.t_mat)
    s_inv = np.linalg.inv(st.s_mat)
    s_inv = 0.5 * (s_inv + s_inv.T)
    e_op = symm_kron_frozen(st.t_mat, s_inv)
    f1, f2 = stationarity_frozen(q, st)
    sigma = st.trace_slack()
    r_c = mu / st.omega - sigma
    r_d = mu * svec_frozen(s_inv) - t_vec
    kappa1 = sigma / st.omega

    if not q.has_eta:
        m = q.quad_ss + e_op + np.outer(v_i, v_i) / kappa1
        rhs = -f1 + r_d - (r_c / kappa1) * v_i
        ds = solve_spd_frozen(m, rhs)
        domega = (r_c + v_i @ ds) / kappa1
        dt = r_d - e_op @ ds
        return ds, 0.0, dt, 0.0, domega

    r_e = mu / st.eta - st.zeta
    kappa2 = st.zeta / st.eta + q.quad_eta
    c = kappa1 * kappa2 + 1.0
    q12 = q.quad_s_eta
    m = (
        q.quad_ss
        + e_op
        - (np.outer(q12, kappa1 * q12 + v_i) + np.outer(v_i, q12 - kappa2 * v_i)) / c
    )
    rhs = (
        q12 * ((r_c + kappa1 * (f2 - r_e)) / c)
        + v_i * ((f2 - r_e - kappa2 * r_c) / c)
        - f1
        + r_d
    )
    ds = solve_spd_frozen(m, rhs)
    deta = -(r_c + kappa1 * (f2 - r_e) + (kappa1 * q12 + v_i) @ ds) / c
    dzeta = r_e - (st.zeta / st.eta) * deta
    domega = -f2 + r_e - q12 @ ds - kappa2 * deta
    dt = r_d - e_op @ ds
    return ds, deta, dt, dzeta, domega


class _FrozenStepFailure(RuntimeError):
    pass


# the interior-point settings the frozen loop was pinned with, copied here so
# that a changed setting in the solver breaks the pins
_MU_TOL = 1e-11
_KKT_TOL = 1e-6
_MAX_NEWTON = 100
_STEP_FRAC = 0.99
_BACKTRACK = 0.8
_MIN_STEP = 1e-12
_MAX_STEP_FAILURES = 6
_WARM_BLEND = 0.2


def line_search_frozen(st, d) -> float:
    """Step fraction for the direction tuple ``d``; raises
    ``_FrozenStepFailure`` where the solver raises ``StepFailureError``."""
    from specbundle.symlin import svec_identity

    ds, deta, dt, dzeta, domega = d
    if not (
        np.all(np.isfinite(ds))
        and np.all(np.isfinite(dt))
        and np.isfinite(deta)
        and np.isfinite(dzeta)
        and np.isfinite(domega)
    ):
        raise _FrozenStepFailure("non-finite direction")
    bounds = []
    scalars = [(st.omega, domega)]
    if st.has_eta:
        scalars += [(st.eta, deta), (st.zeta, dzeta)]
    for x, dx in scalars:
        if dx < 0:
            bounds.append(-x / dx)
    sigma = st.trace_slack()
    v_i = svec_identity(st.k)
    dsigma = -(v_i @ ds + deta)
    if dsigma < 0:
        bounds.append(-sigma / dsigma)
    delta = min(1.0, _STEP_FRAC * min(bounds)) if bounds else 1.0
    ds_mat = svec_inv_frozen(ds)
    dt_mat = svec_inv_frozen(dt)
    while delta >= _MIN_STEP:
        ok = _chol_ok(st.s_mat + delta * ds_mat) and _chol_ok(st.t_mat + delta * dt_mat)
        if ok:
            if st.omega + delta * domega <= 0 or sigma + delta * dsigma <= 0:
                ok = False
            if st.has_eta and (st.eta + delta * deta <= 0 or st.zeta + delta * dzeta <= 0):
                ok = False
        if ok:
            return delta
        delta *= _BACKTRACK
    raise _FrozenStepFailure("no strictly feasible step above minimum")


def ipm_solve_frozen(q, warm, pieces=None):
    """The interior-point Newton loop.  Returns (s_opt, eta_opt, value,
    state, newton_iters, exact).  ``pieces`` re-selects the coefficients at
    the top of every Newton step, as ``ipm_quad`` does; ``q`` may then be
    None, and the first selection supplies it."""
    from specbundle.symlin import ConditioningError

    k, has_eta = (q.k, q.has_eta) if q is not None else (pieces.k, pieces.has_eta)
    st = None
    if warm is not None and warm.k == k and warm.has_eta == has_eta:
        warm_f = FrozenIpmState(
            warm.s_mat, warm.eta, warm.t_mat, warm.zeta, warm.omega, warm.mu, warm.has_eta
        )
        if warm_f.strictly_feasible():
            lam = _WARM_BLEND
            cold = _frozen_cold_state(k, has_eta)
            st = FrozenIpmState(
                s_mat=(1 - lam) * warm.s_mat + lam * cold.s_mat,
                eta=(1 - lam) * warm.eta + lam * cold.eta,
                t_mat=(1 - lam) * warm.t_mat + lam * cold.t_mat,
                zeta=(1 - lam) * warm.zeta + lam * cold.zeta,
                omega=(1 - lam) * warm.omega + lam * cold.omega,
                mu=0.0,
                has_eta=has_eta,
            )
            st.mu = st.complementarity() / (2.0 * st.pairs())
    if st is None:
        st = _frozen_cold_state(k, has_eta)
    mu = st.mu

    def scale(q):
        return 1.0 + max(
            float(np.max(np.abs(q.lin_s))) if q.lin_s.size else 0.0,
            abs(q.lin_eta),
            float(np.max(np.abs(q.quad_ss))) if q.quad_ss.size else 0.0,
            float(np.max(np.abs(q.quad_s_eta))) if q.quad_s_eta.size else 0.0,
            abs(q.quad_eta),
        )

    coeff_scale = scale(q) if q is not None else None
    exact = False
    failures = 0
    iters = 0
    for iters in range(1, _MAX_NEWTON + 1):
        if pieces is not None:
            piece = pieces.select(st.s_mat, st.eta)
            if piece is not None:
                q, coeff_scale = piece, scale(piece)
        f1, f2 = stationarity_frozen(q, st)
        stat_res = max(float(np.max(np.abs(f1))), abs(f2))
        achieved = st.complementarity() / (2.0 * st.pairs())
        if (
            mu < _MU_TOL
            and achieved < _MU_TOL
            and stat_res <= _KKT_TOL * coeff_scale
        ):
            exact = True
            iters -= 1
            break
        try:
            d = newton_direction_frozen(q, st, mu)
            delta = line_search_frozen(st, d)
        except (ConditioningError, _FrozenStepFailure):
            failures += 1
            if failures > _MAX_STEP_FAILURES:
                break
            mu = max(mu * 10.0, 10.0 * _MU_TOL)
            st.mu = mu
            continue
        failures = 0
        ds, deta, dt, dzeta, domega = d
        st.s_mat = st.s_mat + delta * svec_inv_frozen(ds)
        st.t_mat = st.t_mat + delta * svec_inv_frozen(dt)
        st.omega += delta * domega
        if q.has_eta:
            st.eta += delta * deta
            st.zeta += delta * dzeta
        gamma = 1.0 if delta <= 0.2 else 0.5 - 0.4 * delta**2
        estimate = st.complementarity() / (2.0 * st.pairs())
        mu = min(st.mu, gamma * estimate)
        st.mu = mu

    s_vec = svec_frozen(st.s_mat)
    value = float(0.5 * s_vec @ (q.quad_ss @ s_vec) + q.lin_s @ s_vec)
    if q.has_eta:
        value += float(
            st.eta * (q.quad_s_eta @ s_vec) + 0.5 * st.eta**2 * q.quad_eta + st.eta * q.lin_eta
        )
    return st.s_mat.copy(), (st.eta if q.has_eta else 0.0), value, st, iters, exact


def full_newton_residual(q, st, mu: float, d) -> float:
    """Max-norm residual of the full five-block linearized system at a
    proposed direction; used to certify the eliminated solve."""
    from specbundle.symlin import svec_identity

    v_i = svec_identity(q.k)
    t_vec = svec_frozen(st.t_mat)
    s_inv = np.linalg.inv(st.s_mat)
    s_inv = 0.5 * (s_inv + s_inv.T)
    e_op = symm_kron_frozen(st.t_mat, s_inv)
    f1, f2 = stationarity_frozen(q, st)
    sigma = st.trace_slack()
    kappa1 = sigma / st.omega

    r1 = q.quad_ss @ d.ds_vec - d.dt_vec + d.domega * v_i + f1
    if q.has_eta:
        r1 = r1 + d.deta * q.quad_s_eta
    r3 = kappa1 * d.domega - v_i @ d.ds_vec - d.deta - (mu / st.omega - sigma)
    r4 = e_op @ d.ds_vec + d.dt_vec - (mu * svec_frozen(s_inv) - t_vec)
    worst = max(float(np.max(np.abs(r1))), abs(float(r3)), float(np.max(np.abs(r4))))
    if q.has_eta:
        r2 = q.quad_s_eta @ d.ds_vec + d.deta * q.quad_eta - d.dzeta + d.domega + f2
        r5 = (st.zeta / st.eta) * d.deta + d.dzeta - (mu / st.eta - st.zeta)
        worst = max(worst, abs(float(r2)), abs(float(r5)))
    return worst


def psi_value(prob, y: np.ndarray, rho: float, c_x: float, a_x: np.ndarray, nu: np.ndarray) -> float:
    """Proximal coupling objective of an (X, nu) pair at anchor y."""
    w = prob.b + nu - a_x
    return float(c_x + w @ y - (w @ w) / (2.0 * rho))


def alternation_reference(
    prob, model, y: np.ndarray, rho: float, tol: float = 1e-14, max_passes: int = 20000,
    values=None,
) -> dict:
    """The blockwise (X, nu) maximization of the proximal coupling that the
    solver ran before it eliminated the slack.

    Warm-started X steps of the frozen Newton loop alternate with the slack
    projection nu = proj_N(A(X) + rho*y - b), from nu = 0, until nu moves by at most
    tol * (1 + ||b||) or ``max_passes`` run out.  ``values`` collects the
    coupling after each half step.  Returns a_x, c_x, nu, passes and exact.
    """
    from dataclasses import replace

    alpha, tr = prob.alpha, model.stats.trace
    a_img = model.stats.constr_image
    compressed = prob.constraints.compressed_rows(model.basis)
    cost_quad = prob.cost_quad(model.basis)
    base = all_row_quad_coeffs(prob, model, y, rho)
    nu = np.zeros(prob.m)
    b_norm = float(np.linalg.norm(prob.b))
    warm, exact, done = None, True, False
    for passes in range(1, max_passes + 1):
        w = y - (prob.b + nu) / rho
        coeffs = replace(
            base,
            lin_s=alpha * (compressed.T @ w - svec(cost_quad)),
            lin_eta=alpha / tr * float(a_img @ w - model.stats.cost_ip) if tr > 0.0 else 0.0,
        )
        s_opt, eta_opt, _, warm, _, ok = ipm_solve_frozen(coeffs, warm)
        exact = exact and ok
        s_act = alpha * s_opt
        eta_act = alpha * eta_opt / tr if tr > 0.0 else 0.0
        a_x = eta_act * a_img + prob.constraints.primal_image_lowrank(model.basis, s_act)
        c_x = eta_act * model.stats.cost_ip + float(np.sum(cost_quad * s_act))
        nu_next = proj_N_frozen(a_x + rho * y - prob.b, prob)
        if values is not None:
            values.append(psi_value(prob, y, rho, c_x, a_x, nu))
            values.append(psi_value(prob, y, rho, c_x, a_x, nu_next))
        done = bool(np.linalg.norm(nu_next - nu) <= tol * (1.0 + b_norm))
        nu = nu_next
        if done:
            break
    return {"a_x": a_x, "c_x": c_x, "nu": nu, "passes": passes, "exact": exact and done}


def all_row_quad_coeffs(prob, model, y: np.ndarray, rho: float):
    """The library's proximal coefficients over every constraint row, formed
    as the proximal step forms them on a problem without inequality rows."""
    from specbundle.subqp import _row_sums, assemble_quad_coeffs

    v = model.basis
    a_img = model.stats.constr_image if model.stats.trace > 0.0 else None
    sums = _row_sums(prob.constraints.compressed_rows(v), y - prob.b / rho, a_img)
    return assemble_quad_coeffs(prob, model, rho, sums, prob.cost_quad(v))


def quad_coeffs_reference(prob, model, y: np.ndarray, rho: float, keep=None) -> dict:
    """The proximal coefficients of the piece that keeps the rows of the
    boolean mask ``keep`` (None: every row, ungathered), from scratch: the
    kept rows of the compressed block, of w = y - b/rho and of the
    aggregate's image are gathered, and each coefficient is formed from
    them directly.  With ``keep=None`` it is the all-row formula, on the
    block as ``compressed_rows`` returns it."""
    alpha, tr = prob.alpha, model.stats.trace
    v = model.basis
    c = prob.constraints.compressed_rows(v)
    w = y - prob.b / rho
    a = model.stats.constr_image
    if keep is not None:
        rows = np.flatnonzero(keep)
        c, w, a = c[rows], w[rows], a[rows]
    out = {
        "quad_ss": (alpha**2 / rho) * (c.T @ c),
        "lin_s": alpha * (c.T @ w - svec(prob.cost_quad(v))),
        "quad_s_eta": np.zeros(c.shape[1]),
        "quad_eta": 0.0,
        "lin_eta": 0.0,
    }
    if tr > 0.0:
        out["quad_s_eta"] = (alpha**2 / (rho * tr)) * (c.T @ a)
        out["quad_eta"] = (alpha**2 / (rho * tr**2)) * float(a @ a)
        out["lin_eta"] = alpha / tr * float(a @ w - model.stats.cost_ip)
    return out


def eval_coeffs_reference(prob, model, y: np.ndarray) -> tuple[np.ndarray, float]:
    """(lin_s, lin_eta) of the model value at y, with V^T C V computed here
    for the model's basis V."""
    v, alpha, tr = model.basis, prob.alpha, model.stats.trace
    lin_s = alpha * svec(prob.constraints.adjoint_inner_lowrank(y, v) - prob.cost_quad(v))
    lin_eta = 0.0
    if tr > 0.0:
        lin_eta = alpha / tr * float(y @ model.stats.constr_image - model.stats.cost_ip)
    return lin_s, lin_eta


def partial_trace1(y: np.ndarray, n: int) -> np.ndarray:
    """Trace out the first factor of an (n*n) x (n*n) matrix."""
    y4 = y.reshape(n, n, n, n)
    return np.einsum("ikil->kl", y4)


def partial_trace2(y: np.ndarray, n: int) -> np.ndarray:
    """Trace out the second factor of an (n*n) x (n*n) matrix."""
    y4 = y.reshape(n, n, n, n)
    return np.einsum("ikjk->ij", y4)


class Entries(NamedTuple):
    """A family's flat entry lists, in ``SparseConstraintFamilies``'s
    argument order, so ``SparseConstraintFamilies(*entries)`` builds it."""

    n: int
    m: int
    idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def read_entries(fam) -> Entries:
    """The entries of a ``SparseConstraintFamilies`` read back from
    ``_upper``: cell r*n + c gives (r, c), and a value off the diagonal is
    halved.  Exact when no row repeats a cell, as in every ``build_qap``
    family; the entries come by row, then by cell."""
    coo = fam._upper.tocoo()
    rows, cols = np.divmod(coo.col.astype(np.int64), fam.n)
    vals = np.where(rows == cols, 1.0, 0.5) * coo.data
    return Entries(fam.n, fam.m, coo.row.astype(np.int64), rows, cols, vals)


def _entry_weights(fam) -> np.ndarray:
    """Each entry's value counted over its cells: twice off the diagonal."""
    return np.where(fam.rows == fam.cols, 1.0, 2.0) * fam.vals


def primal_image_lowrank_frozen(fam, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``SparseConstraintFamilies.primal_image_lowrank`` as one sum over the
    entries, with fancy-index row gathers."""
    mid = v[fam.rows] @ s
    vals = np.einsum("ej,ej->e", mid, v[fam.cols])
    return np.bincount(fam.idx, weights=vals * _entry_weights(fam), minlength=fam.m)


def primal_image_factor_frozen(fam, u: np.ndarray, lams: np.ndarray) -> np.ndarray:
    mid = u[fam.rows] * lams[None, :]
    vals = np.einsum("ej,ej->e", mid, u[fam.cols])
    return np.bincount(fam.idx, weights=vals * _entry_weights(fam), minlength=fam.m)


def compressed_rows_frozen(fam, v: np.ndarray) -> np.ndarray:
    from specbundle.symlin import svec_dim, tri_indices

    k = v.shape[1]
    i, j, w = tri_indices(k)
    g = v[fam.rows][:, :, None] * v[fam.cols][:, None, :]
    g = g + g.transpose(0, 2, 1)
    g[fam.rows == fam.cols] *= 0.5
    g *= fam.vals[:, None, None]
    contrib = g[:, i, j] * w[None, :]
    out = np.zeros((fam.m, svec_dim(k)))
    np.add.at(out, fam.idx, contrib)
    return out


# ---------------------------------------------------------------------------
# the flat entry families as they were laid out over their distinct positions:
# an m x p matrix, a weight per position and a map from each of the n^2 cells
# back to its position.  ``SparseConstraintFamilies`` must agree with it bit
# for bit.


class SparseConstraintFamiliesFrozen:
    """Flat entry lists: constraint ``idx[e]`` has A[rows[e], cols[e]] =
    A[cols[e], rows[e]] = vals[e] with rows <= cols; repeated entries add.

    The entries are summed once into ``_mat``, an m x p CSR matrix over the
    p distinct positions (``_pos_rows``, ``_pos_cols``) they touch, and
    ``_mat_t`` holds its transpose in CSR form, built with it, for the
    products with a dual vector.  Every operator action is then a gather
    at those positions and one sparse product; ``_weight`` counts each
    position's cells in the symmetric matrix (2 off the diagonal).

    The dual slack, A*(y) in ``adjoint_inner_lowrank`` and X in the two
    low-rank images are formed as one n x n array (``_flat_layout``, laid
    out once): A*(y) is one gather of every cell from the values at the
    positions, each Lanczos matvec is a GEMV, and each image one GEMM and
    a gather at the positions.  That suits the QAP relaxations, the only
    families the package builds: their positions and mirrors fill 98% of
    the cells (20,761 of 21,025 at n = 12), so the positions already cost
    O(n^2), and the cell map and each array (8 n^2 bytes) take at most
    4/3 of the 12 bytes per stored cell of the CSR slack an array
    replaces.  A family too large for an n x n array is not supported."""

    def __init__(self, n: int, m: int, idx, rows, cols, vals):
        self.n = int(n)
        self.m = int(m)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)
        for name, arr, stop in (
            ("idx", self.idx, self.m), ("rows", self.rows, self.n), ("cols", self.cols, self.n)
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= stop):
                raise ValueError(f"{name} entries must lie in [0, {stop})")
        if np.any(self.rows > self.cols):
            raise ValueError("entries must have rows <= cols")
        keys, pos = np.unique(self.rows * self.n + self.cols, return_inverse=True)
        self._pos_rows, self._pos_cols = np.divmod(keys, self.n)
        self._weight = np.where(self._pos_rows == self._pos_cols, 1.0, 2.0)
        self._mat = sp.csr_matrix((self.vals, (self.idx, pos)), shape=(self.m, keys.size))
        self._mat_t = self._mat.T.tocsr()

    def scaled(self, factors: np.ndarray) -> "SparseConstraintFamiliesFrozen":
        """The family with row i's values times ``factors[i]``.  It shares
        this one's entries and positions, so nothing is sorted or checked
        again, and each stored value of ``_mat`` is scaled by its row's
        factor.  When no row repeats a position (every QAP family), a stored
        value is one entry and this equals the rebuild from the scaled
        values bit for bit; a summed value differs from it by rounding."""
        out = copy.copy(self)
        out.vals = self.vals * factors[self.idx]
        mat = self._mat
        data = mat.data * np.repeat(factors, np.diff(mat.indptr))
        out._mat = sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)
        out._mat_t = out._mat.T.tocsr()
        return out

    def _image(self, at_positions: np.ndarray) -> np.ndarray:
        """<A_i, X> for every row, from X at the distinct positions."""
        return self._mat @ (self._weight * at_positions)

    # gathers go through np.take: the same copy as x[rows], without the
    # fancy-indexing overhead, which dominates at QAP sizes

    def primal_image_lowrank(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._image(np.take((v @ s) @ v.T, self._flat_layout[0]))

    def primal_image_factor(self, u: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return self._image(np.take((u * lams) @ u.T, self._flat_layout[0]))

    def primal_image_matrix(self, x) -> np.ndarray:
        """The image of an ndarray or a scipy CSR matrix."""
        if not self._pos_rows.size:  # scipy returns a sparse matrix for an empty gather
            return np.zeros(self.m)
        return self._image(np.asarray(x[self._pos_rows, self._pos_cols]).ravel())

    @functools.cached_property
    def _flat_layout(self):
        """``(positions, source)``: the flat n x n slot of each position,
        and for each of the n^2 cells the position that fills it (its own
        or its mirror's), or p for a cell that no position touches."""
        n, p = self.n, self._pos_rows.size
        positions = self._pos_rows * n + self._pos_cols
        source = np.full(n * n, p)
        source[positions] = np.arange(p)
        source[self._pos_cols * n + self._pos_rows] = np.arange(p)
        return positions, source

    def _adjoint_dense(self, y: np.ndarray) -> np.ndarray:
        """A*(y) as an n x n array: one gather of every cell, 0 where no
        position lies."""
        at_positions = np.append(self._mat_t @ y, 0.0)
        return np.take(at_positions, self._flat_layout[1]).reshape(self.n, self.n)

    def adjoint_inner_lowrank(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        m = v.T @ (self._adjoint_dense(y) @ v)
        return 0.5 * (m + m.T)

    def dual_slack(self, cost: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
        """cost - A*(y) as an n x n array.  Each entry is the one the CSR
        difference holds: cost - 0.0 is cost where no position lies."""
        z = cost.toarray()
        z -= self._adjoint_dense(y)
        return z

    def compressed_rows(self, v: np.ndarray) -> np.ndarray:
        # row q of g is svec(V^T E_q V) for the position's symmetric unit
        # E_q = e_r e_c^T + e_c e_r^T (e_r e_r^T on the diagonal)
        i, j, w = tri_indices(v.shape[1])
        vr = np.take(v, self._pos_rows, axis=0)
        vc = np.take(v, self._pos_cols, axis=0)
        # filled one column at a time: block-wide products would be the
        # largest temporaries of a QAP outer iteration
        g = np.empty((vr.shape[0], w.size))
        half_weight = 0.5 * self._weight
        for c in range(w.size):
            col = vr[:, i[c]] * vc[:, j[c]]
            col += vc[:, i[c]] * vr[:, j[c]]
            col *= w[c]
            col *= half_weight
            g[:, c] = col
        return self._mat @ g

    def frob_norms(self) -> np.ndarray:
        return np.sqrt(self._mat.multiply(self._mat) @ self._weight)


def estimate_operator_norm_frozen(ops, tol: float = 1e-6, max_iters: int = 500, seed: int = 0) -> float:
    """``estimate_operator_norm`` through the position matrix of a
    ``SparseConstraintFamiliesFrozen``."""
    z = np.random.RandomState(seed).standard_normal(ops.m)
    lam = float(np.linalg.norm(z))
    for it in range(max_iters):
        if lam == 0.0:
            return 0.0
        z = ops._image(ops._mat_t @ (z / lam))
        lam_prev, lam = lam, float(np.linalg.norm(z))
        if it and abs(lam - lam_prev) <= tol * lam:
            break
    return float(np.sqrt(lam))


def adjoint_matrix(fam, y: np.ndarray):
    """A*(y) of a ``SparseConstraintFamilies`` as a CSR matrix over the
    cells its entries and their mirrors touch."""
    cells = np.flatnonzero(np.bincount(fam._cells_t.indices, minlength=fam.n * fam.n))
    r, c = np.divmod(cells, fam.n)
    itype = np.int32 if max(cells.size, fam.n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(fam.n + 1, dtype=itype)
    np.cumsum(np.bincount(r, minlength=fam.n), out=indptr[1:])
    data = np.take(fam._cells_t @ y, cells)
    mat = sp.csr_matrix((data, c.astype(itype), indptr), shape=(fam.n, fam.n))
    mat.has_canonical_format = True
    return mat


def adjoint_matrix_frozen(fam, y: np.ndarray):
    """``adjoint_matrix`` as a COO matrix of the entries and their mirrors,
    converted to CSR on every call."""
    import scipy.sparse as sp

    data = y[fam.idx] * fam.vals
    off = fam.rows != fam.cols
    r = np.concatenate([fam.rows, fam.cols[off]])
    c = np.concatenate([fam.cols, fam.rows[off]])
    d = np.concatenate([data, data[off]])
    return sp.coo_matrix((d, (r, c)), shape=(fam.n, fam.n)).tocsr()


def proj_N_frozen(z: np.ndarray, prob) -> np.ndarray:
    """Dual-slack projection through an index gather and scatter."""
    out = np.zeros_like(prob.b)
    idx = prob.ineq_idx
    if idx.size:
        out[idx] = np.minimum(z[idx], 0.0)
    return out


def proximal_slack(prob, y: np.ndarray, rho: float, a_x: np.ndarray) -> np.ndarray:
    """The slack the proximal step at anchor y eliminates, for the step's
    constraint image a_x: proj_N(a_x + rho*y - b)."""
    return proj_N_frozen(a_x + rho * y - prob.b, prob)


def candidate_iterate_frozen(y, nu, a_x, b, rho, ineq_idx) -> np.ndarray:
    """The candidate as the solver formed it while it kept the slack: the
    step y - (b - a_x)/rho, with the sign rows set to 0 where nu < 0 and
    clipped to max(., 0) elsewhere."""
    out = y - (b - a_x) / rho
    if ineq_idx.size:
        sub = out[ineq_idx]
        out[ineq_idx] = np.where(nu[ineq_idx] < 0.0, 0.0, np.maximum(sub, 0.0))
    return out


def qap_constraint_entries_frozen(q, ordered_pairs: bool = False):
    """Frozen copy of the per-constraint loop that built the lifted
    assignment rows before they were built from index arrays, with one G
    row per unordered pair of the objective's support.  Returns (idx, rows,
    cols, vals, b, ineq, labels, kron), where labels[i] names row i's
    family and indices, e.g. ("G", a, b) with a <= b, or ("corner",).
    With ``ordered_pairs`` the G family is the earlier layout instead: one
    row per objective nonzero (a, b), so (a, b) and (b, a) both have one."""
    n = q.size
    kron = np.kron(q.distances, q.weights)
    idx, rows, cols, vals, b, ineq, labels = [], [], [], [], [], [], []

    def add_constraint(entries, rhs, is_ineq, label):
        ci = len(b)
        for r, c, v in entries:
            if r > c:
                r, c = c, r
            idx.append(ci)
            rows.append(r)
            cols.append(c)
            vals.append(v)
        b.append(rhs)
        ineq.append(is_ineq)
        labels.append(label)

    for k in range(n):
        for l in range(k, n):
            v = 1.0 if k == l else 0.5
            entries = [(1 + i * n + k, 1 + i * n + l, v) for i in range(n)]
            add_constraint(entries, 1.0 if k == l else 0.0, False, ("tr1", k, l))
    for i in range(n):
        for j in range(i, n):
            v = 1.0 if i == j else 0.5
            entries = [(1 + i * n + k, 1 + j * n + k, v) for k in range(n)]
            add_constraint(entries, 1.0 if i == j else 0.0, False, ("tr2", i, j))
    for a in range(n * n):
        for bb in range(0 if ordered_pairs else a, n * n):
            if kron[a, bb] != 0 or (not ordered_pairs and kron[bb, a] != 0):
                v = -1.0 if a == bb else -0.5
                add_constraint([(1 + a, 1 + bb, v)], 0.0, True, ("G", a, bb))
    for a in range(n * n):
        add_constraint([(1 + a, 1 + a, 1.0), (0, 1 + a, -0.5)], 0.0, False, ("diagY", a))
    for k in range(n):
        entries = [(0, 1 + i * n + k, 0.5) for i in range(n)]
        add_constraint(entries, 1.0, False, ("rowsum", k))
    for i in range(n):
        entries = [(0, 1 + i * n + k, 0.5) for k in range(n)]
        add_constraint(entries, 1.0, False, ("colsum", i))
    for a in range(n * n):
        add_constraint([(0, 1 + a, -0.5)], 0.0, True, ("B", a))
    add_constraint([(0, 0, 1.0)], 1.0, False, ("corner",))
    add_constraint([(1 + a, 1 + a, 1.0) for a in range(n * n)], float(n), False, ("trY",))

    return (
        np.array(idx),
        np.array(rows),
        np.array(cols),
        np.array(vals, dtype=float),
        np.array(b, dtype=float),
        np.array(ineq, dtype=bool),
        labels,
        kron,
    )


def build_qap_frozen(q, ordered_pairs: bool = False):
    """The scaled QAP data as the loop-based builder produced it, from
    ``qap_constraint_entries_frozen``: returns (cost, scale_c, b, idx, rows,
    cols, vals) with the unit-norm cost, the trace, row-norm and
    operator-norm scalings applied, and the G rows off the diagonal
    weighted by sqrt(2) before the operator norm.  With ``ordered_pairs``,
    the earlier layout: two unit G rows per pair, no weight."""
    import scipy.sparse as sp

    from specbundle.problem import SparseConstraintFamilies, estimate_operator_norm

    n = q.size
    big_n = n * n + 1
    idx, rows, cols, vals, b_raw, ineq, labels, kron = qap_constraint_entries_frozen(q, ordered_pairs)
    m = len(b_raw)
    pair = [lab[0] == "G" and lab[1] != lab[2] and not ordered_pairs for lab in labels]
    weight = np.where(pair, math.sqrt(2.0), 1.0)
    ka, kb = np.nonzero(kron)
    c_raw = sp.coo_matrix((-kron[ka, kb], (1 + ka, 1 + kb)), shape=(big_n, big_n)).tocsr()
    scale_c = float(np.sqrt((c_raw.multiply(c_raw)).sum())) or 1.0
    cost = (c_raw / scale_c).tocsr()
    b = b_raw / float(n + 1)
    norms = SparseConstraintFamilies(big_n, m, idx, rows, cols, vals).frob_norms()
    # each scaling multiplies the entry values; a family is built from them
    # only for the norms
    vals = vals * (weight / norms)[idx]
    b = b * weight / norms
    op_norm = estimate_operator_norm(SparseConstraintFamilies(big_n, m, idx, rows, cols, vals))
    vals = vals * np.full(m, 1.0 / op_norm)[idx]
    b = b / op_norm
    return cost, scale_c, b, idx, rows, cols, vals


def scaled_qap_entries(q) -> Entries:
    """The entries of ``build_qap(q).constraints`` as ``build_qap_frozen``
    builds and scales them, without reading the family's matrices."""
    _, _, b, *entries = build_qap_frozen(q)
    return Entries(q.size**2 + 1, b.size, *entries)


def build_qap_ordered_pairs(q):
    """The QAP problem in the earlier layout, two unit G rows (a, b) and
    (b, a) per pair, as an ``SdpProblem``, and its row labels."""
    from specbundle.problem import SdpProblem, SparseConstraintFamilies

    n = q.size**2 + 1
    cost, scale_c, b, idx, rows, cols, vals = build_qap_frozen(q, ordered_pairs=True)
    *_, ineq, labels, _ = qap_constraint_entries_frozen(q, ordered_pairs=True)
    prob = SdpProblem(
        n=n, m=b.size, cost=cost, constraints=SparseConstraintFamilies(n, b.size, idx, rows, cols, vals),
        b=b, ineq_mask=ineq, alpha=2.0, scale_c=scale_c, scale_x=float(q.size + 1), sense=-1,
    )
    return prob, labels


# ---------------------------------------------------------------------------
# frozen copies of the per-line instance readers.  The vectorized readers
# must return the same instance bit for bit, or raise ParseError on the same
# line.


def parse_graph_mm_frozen(path):
    """``parse_graph_mm`` as a per-line loop over ``readlines()``."""
    from specbundle.problem import ParseError

    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].removeprefix("\ufeff").strip().split()
    if len(header) < 5 or not header[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", 1)
    obj, fmt, fieldkind, symmetry = (t.lower() for t in header[1:5])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError("only coordinate matrices are supported", 1)
    if fieldkind not in ("real", "integer", "pattern"):
        raise ParseError(f"unsupported field {fieldkind}", 1)
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry {symmetry}", 1)
    pattern = fieldkind == "pattern"

    lineno = 1
    size_line = None
    for lineno in range(2, len(lines) + 1):
        text = lines[lineno - 1].strip()
        if not text or text.startswith("%"):
            continue
        size_line = text
        break
    if size_line is None:
        raise ParseError("missing size line", len(lines))
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError("size line must have three fields", lineno)
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad size line: {exc}", lineno) from exc
    if nrows != ncols:
        raise ParseError(f"matrix must be square, got {nrows}x{ncols}", lineno)

    entries = []
    seen = {}
    count = 0
    for ln in range(lineno + 1, len(lines) + 1):
        text = lines[ln - 1].strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        want = 2 if pattern else 3
        if len(parts) < want:
            raise ParseError("entry line has too few fields", ln)
        try:
            i = int(parts[0]) - 1
            j = int(parts[1]) - 1
            w = 1.0 if pattern else float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad entry: {exc}", ln) from exc
        if not 0 <= i < nrows or not 0 <= j < ncols:
            raise ParseError(f"entry ({i + 1},{j + 1}) out of range", ln)
        count += 1
        if symmetry == "general":
            seen[(i, j)] = (w, ln)
        if i != j:
            entries.append((i, j, w))
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}", len(lines))
    if symmetry == "general":
        for (i, j), (w, ln) in seen.items():
            if i == j:
                continue
            mirror = seen.get((j, i))
            if mirror is None:
                raise ParseError(f"entry ({i + 1},{j + 1}) has no mirror", ln)
            if abs(mirror[0] - w) > 1e-12 * (1 + abs(w)):
                raise ParseError(f"entry ({i + 1},{j + 1}) mirror mismatch", ln)
        # each undirected edge appeared twice
        entries = [(i, j, w) for (i, j, w) in entries if i > j]
    return graph_from_edges(nrows, entries)


def parse_qaplib_frozen(path):
    """``parse_qaplib`` with a (token, line) pair per token and one float()
    call per matrix entry."""
    from specbundle.problem import ParseError, QapInstance

    tokens = []
    with open(path, "r") as fh:
        for ln, line in enumerate(fh, start=1):
            for tok in (line.removeprefix("\ufeff") if ln == 1 else line).split():
                tokens.append((tok, ln))
    if not tokens:
        raise ParseError("empty file", 1)
    try:
        n = int(tokens[0][0])
    except ValueError as exc:
        raise ParseError(f"bad size field: {exc}", tokens[0][1]) from exc
    if n < 1:
        raise ParseError("size must be positive", tokens[0][1])
    need = 1 + 2 * n * n
    if len(tokens) < need:
        last_line = tokens[-1][1]
        raise ParseError(
            f"expected {need - 1} matrix entries, found {len(tokens) - 1}", last_line
        )
    if len(tokens) > need:
        raise ParseError("trailing data after matrices", tokens[need][1])
    vals = []
    for tok, ln in tokens[1:need]:
        try:
            vals.append(float(tok))
        except ValueError as exc:
            raise ParseError(f"bad matrix entry {tok!r}", ln) from exc
    w = np.array(vals[: n * n]).reshape(n, n)
    d = np.array(vals[n * n :]).reshape(n, n)
    try:
        return QapInstance(w, d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# frozen copy of the per-edge MatrixMarket writer.  The one-pass writer must
# write the same bytes.


def write_graph_mm_frozen(g, path) -> None:
    """``write_graph_mm`` with one ``write`` call per edge."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{g.n} {g.n} {g.num_edges}\n")
        for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w):
            fh.write(f"{int(v) + 1} {int(u) + 1} {w:.17g}\n")


# ---------------------------------------------------------------------------
# frozen writer of the state files of format versions 1 to 3, which hold no
# last primal; versions 1 and 2 hold the last proximal step's slack nu after
# y, and version 1 has no rho either.  Each must be refused by its version.


def save_state_frozen(path, state, prob, version: int) -> None:
    """``save_state`` as it wrote format version 1 (the 19-field header
    without rho), 2 or 3 (the 20-field header), then the float64 payload y,
    for versions 1 and 2 a zero slack, the aggregate image, the basis and
    the sketch."""
    import hashlib
    import struct

    model = state.model
    sk = model.store.sk
    b_hash = hashlib.sha256(np.ascontiguousarray(prob.b, dtype="<f8").tobytes()).digest()
    rho = () if version == 1 else (state.rho,)
    header = struct.pack(
        "<4sI QQQQ II B II dd dd QQ dd" + ("" if version == 1 else " d"),
        b"USBS",
        version,
        prob.n,
        prob.m,
        int(prob.ineq_idx.size),
        int.from_bytes(b_hash[:8], "little"),
        model.k_c,
        model.k_p,
        2,  # store kind: a sketch
        sk.r,
        sk.psi_seed & 0xFFFFFFFF,
        state.scale_x,
        prob.scale_c,
        state.f_y if state.f_y is not None else np.nan,
        state.lam_y if state.lam_y is not None else np.nan,
        state.descent_steps,
        state.null_steps,
        model.stats.trace,
        model.stats.cost_ip,
        *rho,
    )
    slack = [] if version == 3 else [np.zeros(prob.m)]
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (state.y, *slack, model.stats.constr_image, model.basis, sk.sketch_mat):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def orthonormalize_frozen(a: np.ndarray) -> np.ndarray:
    """The column-pivoted Gram-Schmidt that built the bundle basis before the
    pivoted QR: two projection passes, dropping a column whose residual norm
    is at most 1e-12 times the largest input column norm.  Returns an n x 0
    array for an all-zero or fully dependent block."""
    a = np.array(a, dtype=float)
    thresh = 1e-12 * float(np.max(np.linalg.norm(a, axis=0)))
    work = a.copy()
    alive = list(range(a.shape[1]))
    basis: list[np.ndarray] = []
    while alive:
        norms = np.linalg.norm(work[:, alive], axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] <= thresh:
            break
        piv = alive.pop(pick)
        q = work[:, piv]
        if basis:
            qm = np.column_stack(basis)
            q = q - qm @ (qm.T @ q)
        nq = np.linalg.norm(q)
        if nq <= thresh:
            continue
        q = q / nq
        basis.append(q)
        if alive:
            rest = work[:, alive]
            work[:, alive] = rest - np.outer(q, q @ rest)
    return np.column_stack(basis) if basis else np.zeros((a.shape[0], 0))


# the CLI's settings tables as they stood while the CLI kept its own copy of
# them: keyed by the CLI's names (kc, kp), with a QAP sketch rank of None
# meaning the assignment size
CLI_DEFAULTS_FROZEN = {
    "maxcut": {"rho": 0.01, "beta": 0.25, "kc": 10, "kp": 1, "sketch_rank": 10},
    "qap": {"rho": 0.005, "beta": 0.25, "kc": 2, "kp": 0, "sketch_rank": None},
}
CLI_COMMON_FROZEN = {
    "eps": 1e-3,
    "max_iters": 1000,
    "max_time": None,
    "seed": 0,
    "linf_check": False,
}


def cli_settings_frozen(kind: str, size: int, **changes) -> dict:
    """The SolverConfig fields, by field name, that the frozen tables give
    for a problem kind and assignment size, with ``changes`` (keyed by the
    CLI's names) applied on top."""
    settings = {**CLI_COMMON_FROZEN, **CLI_DEFAULTS_FROZEN[kind], **changes}
    if settings["sketch_rank"] is None:
        settings["sketch_rank"] = size
    settings["k_c"] = settings.pop("kc")
    settings["k_p"] = settings.pop("kp")
    return settings
