"""Independent reference computations used to freeze expected test values.

These implementations deliberately share nothing with the solver path they
check: brute-force enumeration, long-run projected gradient, and dense
linear algebra only.
"""
from __future__ import annotations

import itertools

import numpy as np

from specbundle.symlin import svec, svec_inv


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
    allocates.  The solver's ``lanczos_top`` must reproduce it bit for bit.

    Returns (eigenvalues, eigenvectors, residuals, converged, restarts,
    ritz_history).  Only the iterative path is copied, so n must exceed the
    basis size.
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
    return (theta[:k_c].copy(), q[:, :m] @ y[:, :k_c], res[:k_c].copy(), converged,
            restarts_done, ritz_history)


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
