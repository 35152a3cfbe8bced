import warnings

import numpy as np
import pytest

from specbundle import eigsolve
from specbundle.eigsolve import DENSE_EIG_MAX_N, LinOp, NumericError, lanczos_top


def dense_op(a):
    return LinOp(dim=a.shape[0], matvec=lambda v: a @ v, matmat=lambda b: a @ b)


def test_diagonal_spike():
    op = LinOp(dim=4, matvec=lambda v: np.array([5.0, 1.0, 1.0, 1.0]) * v)
    res = lanczos_top(op, 1, inner_iters=3, seed=0)
    assert res.eigenvalues[0] == pytest.approx(5.0, abs=1e-10)
    np.testing.assert_allclose(np.abs(res.eigenvectors[:, 0]), [1, 0, 0, 0], atol=1e-8)


def test_triangle_laplacian():
    lap = np.diag([2.0, 2.0, 2.0]) - (np.ones((3, 3)) - np.eye(3))
    res = lanczos_top(dense_op(lap), 1, inner_iters=2, seed=0)
    assert res.eigenvalues[0] == pytest.approx(3.0, abs=1e-10)


def test_random_matches_dense():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((200, 200))
    a = 0.5 * (a + a.T)
    res = lanczos_top(dense_op(a), 5, seed=1)
    dense = np.linalg.eigvalsh(a)[::-1][:5]
    np.testing.assert_allclose(res.eigenvalues, dense, atol=1e-8)
    np.testing.assert_allclose(
        res.eigenvectors.T @ res.eigenvectors, np.eye(5), atol=1e-10
    )


def test_determinism():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((80, 80))
    a = 0.5 * (a + a.T)
    r1 = lanczos_top(dense_op(a), 3, seed=7)
    r2 = lanczos_top(dense_op(a), 3, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_ritz_history_monotone():
    # a run cut at r restarts is bit for bit the first r + 1 cycles of a
    # longer one, so the sweep over the budget reads the leading Ritz value
    # of every cycle
    rng = np.random.default_rng(3)
    a = rng.standard_normal((300, 300))
    a = 0.5 * (a + a.T)
    full = lanczos_top(dense_op(a), 8, inner_iters=16, max_restarts=10, seed=0)
    assert full.restarts >= 1
    hist = []
    for r in range(full.restarts + 1):
        res = lanczos_top(dense_op(a), 8, inner_iters=16, max_restarts=r, seed=0)
        assert res.restarts == r
        hist.append(float(res.eigenvalues[0]))
    assert hist[-1] == full.eigenvalues[0]
    assert all(b >= a_ - 1e-10 for a_, b in zip(hist, hist[1:]))


def test_negative_definite_sign():
    op = LinOp(dim=50, matvec=lambda v: -2.0 * v)
    res = lanczos_top(op, 1, seed=0)
    assert res.eigenvalues[0] == pytest.approx(-2.0, abs=1e-10)


def test_degenerate_subspace_projector():
    # doubly repeated top eigenvalue: compare projectors, not vectors
    d = np.array([4.0, 4.0] + [1.0] * 60)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((62, 62)))
    a = (q * d[None, :]) @ q.T
    res = lanczos_top(dense_op(a), 2, seed=0)
    np.testing.assert_allclose(res.eigenvalues, [4.0, 4.0], atol=1e-8)
    p_true = q[:, :2] @ q[:, :2].T
    p_est = res.eigenvectors @ res.eigenvectors.T
    assert np.linalg.norm(p_true - p_est) <= 1e-6


def test_dense_fallback_when_k_large():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    res = lanczos_top(dense_op(a), 6, seed=0)
    np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a)[::-1], atol=1e-12)
    assert res.converged


def test_residual_reporting_under_budget():
    # one inner iteration cycle on a hard spectrum: must report, not raise
    rng = np.random.default_rng(7)
    a = rng.standard_normal((400, 400))
    a = 0.5 * (a + a.T)
    res = lanczos_top(dense_op(a), 3, inner_iters=8, max_restarts=1, seed=0)
    assert res.residuals.shape == (3,)
    assert res.restarts <= 1


def test_nonfinite_matvec_raises():
    op = LinOp(dim=10, matvec=lambda v: v * np.nan)
    with pytest.raises(NumericError):
        lanczos_top(op, 1, seed=0)


def test_defaults_match_documented_values():
    import inspect

    sig = inspect.signature(lanczos_top)
    assert sig.parameters["inner_iters"].default == 32
    assert sig.parameters["max_restarts"].default == 10


def _assert_matches_frozen(op, k_c, frozen_restarts=None, **kw):
    """``lanczos_top`` agrees with the frozen copy, which stores the basis one
    vector per column, up to the rounding of the layout: the same flags and
    restarts, every pair converged on both sides within the tolerance, and
    the same leading vector when the leading value is simple.  ``frozen_restarts`` runs the frozen copy with
    that restart budget instead of the same one.  ``lanczos_top`` itself
    repeats bit for bit."""
    from _oracles import lanczos_top_frozen

    res = lanczos_top(op, k_c, **kw)
    again = lanczos_top(op, k_c, **kw)
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(res, field), getattr(again, field))
    assert (res.converged, res.restarts) == (again.converged, again.restarts)
    assert res.eigenvectors.flags.c_contiguous
    if frozen_restarts is not None:
        kw = dict(kw, max_restarts=frozen_restarts)
    vals, vecs, resid, converged, restarts = lanczos_top_frozen(
        op.matvec, op.dim, k_c, **kw
    )
    assert res.converged == converged
    assert res.restarts == restarts
    tol_eff = kw.get("tol", 1e-9) * (1.0 + abs(vals[0]))
    both = (res.residuals <= tol_eff) & (resid <= tol_eff)
    assert both[0]
    np.testing.assert_allclose(res.eigenvalues[both], vals[both], rtol=0, atol=tol_eff)
    # a leading value repeated within the tolerance (the identity operator)
    # has no single leading vector
    if k_c == 1 or vals[0] - vals[1] > tol_eff:
        assert 1.0 - abs(res.eigenvectors[:, 0] @ vecs[:, 0]) <= 1e-10
    return res


def _maxcut_slack_op(n=2000, seed=8):
    # C - diag(C) of a degree-8 random graph: the top of the spectrum is the
    # clustered edge of the bulk
    from specbundle.problem import GraphInstance, build_maxcut, dual_slack_operator

    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=(4 * n, 2))
    prob = build_maxcut(GraphInstance.from_arrays(n, e[:, 0], e[:, 1], np.ones(4 * n)))
    return dual_slack_operator(prob, prob.cost.diagonal().copy())


def test_bit_identical_to_frozen_dense():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 300))
    a = 0.5 * (a + a.T)
    _assert_matches_frozen(dense_op(a), 5, seed=1)


def test_bit_identical_to_frozen_sparse_maxcut():
    # the trailing pairs of the clustered bulk edge cannot converge in ten
    # restarts, so the iteration stops once lambda_max is certified, with
    # exactly what a budget of that many restarts gives
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = _maxcut_slack_op()
    res = lanczos_top(op, 10, seed=0)
    _assert_matches_frozen(op, 10, frozen_restarts=res.restarts, seed=0)
    assert not res.converged and res.restarts < 10
    theta0 = res.eigenvalues[0]
    assert res.residuals[0] <= 1e-9 * (1.0 + abs(theta0))
    lin = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
    ref = eigsh(lin, k=1, which="LA", tol=1e-14, return_eigenvectors=False)[0]
    assert abs(theta0 - ref) <= 1e-12 * abs(ref)


def test_bit_identical_to_frozen_single_pair():
    # k_c = 1 has no trailing pairs: the iteration runs until lambda_max
    # converges, after several restarts, exactly as before
    res = _assert_matches_frozen(_maxcut_slack_op(), 1, seed=0)
    assert res.converged and res.restarts >= 3


def test_bit_identical_to_frozen_qap_slack():
    # QAP n=5 slack operator at the first candidate point: lambda_max is
    # certified from the first cycle on, but the trailing pairs shrink fast
    # enough to converge within the budget, so the iteration must not stop
    from conftest import random_qap
    from specbundle.bundle import SolverConfig, solve
    from specbundle.problem import build_qap, dual_slack_operator

    prob = build_qap(random_qap(5, seed=3))
    cands = []
    cfg = SolverConfig(k_c=2, k_p=1, eps=1e-12, max_iters=1)
    solve(prob, cfg, callback=lambda info: cands.append(info.y_cand.copy()))
    op = dual_slack_operator(prob, cands[0])
    res = _assert_matches_frozen(op, 3, seed=0, inner_iters=12)
    assert res.converged and res.restarts >= 4


def test_bit_identical_to_frozen_low_rank(monkeypatch):
    # rank 5 < basis size: the Krylov space closes and the iteration must
    # continue on freshly drawn directions
    from specbundle import eigsolve

    calls = []
    real = eigsolve._fresh_direction
    monkeypatch.setattr(
        eigsolve, "_fresh_direction", lambda *args: calls.append(1) or real(*args)
    )
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((200, 5)))
    a = (u * np.array([5.0, 4.0, 3.0, 2.0, 1.0])) @ u.T
    _assert_matches_frozen(dense_op(a), 3, seed=0)
    assert calls


def test_operator_may_return_its_argument_or_buffer():
    n = 300
    d = np.linspace(-1.0, 2.0, n)
    buf = np.empty(n)

    def scale_into_buffer(v):
        np.multiply(d, v, out=buf)
        return buf

    pairs = [
        (LinOp(dim=n, matvec=lambda v: v), LinOp(dim=n, matvec=lambda v: v.copy())),
        (LinOp(dim=n, matvec=scale_into_buffer), LinOp(dim=n, matvec=lambda v: d * v)),
    ]
    for reused, fresh in pairs:
        r1 = lanczos_top(reused, 3, seed=4)
        r2 = _assert_matches_frozen(fresh, 3, seed=4)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
        assert np.array_equal(r1.residuals, r2.residuals)


def test_nonfinite_matvec_raises_through_projection():
    # a single inf entry, not a whole non-finite vector
    def mv(v):
        out = 2.0 * v
        out[3] = np.inf
        return out

    with pytest.raises(NumericError):
        lanczos_top(LinOp(dim=50, matvec=mv), 1, seed=0)


@pytest.mark.parametrize(
    "make_op, k_c, kw",
    [
        (_maxcut_slack_op, 10, {}),  # stops early
        (_maxcut_slack_op, 1, {}),  # converges
        (lambda: dense_op(np.diag(np.linspace(-1.0, 1.0, 300))), 4, {"max_restarts": 2}),
        (lambda: dense_op(np.diag(np.arange(6.0))), 6, {}),  # dense fallback
    ],
)
def test_matvec_count(make_op, k_c, kw):
    op = make_op()
    calls = []
    counted = LinOp(dim=op.dim, matvec=lambda v: calls.append(1) or op.matvec(v))
    res = lanczos_top(counted, k_c, seed=0, **kw)
    assert res.matvecs == len(calls) > 0


def test_unconverged_leading_pair_is_reported_not_logged():
    # the result flags the miss, which the iteration record and the CLI
    # summary count
    rng = np.random.default_rng(7)
    a = rng.standard_normal((400, 400))
    a = 0.5 * (a + a.T)
    res = lanczos_top(dense_op(a), 3, inner_iters=8, max_restarts=0, seed=0)
    tol_eff = 1e-9 * (1.0 + abs(res.eigenvalues[0]))
    assert res.residuals[0] > tol_eff
    assert not res.leading_converged and not res.converged and not res.decided


def test_converging_operators_report_a_converged_leading_pair():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((200, 200))
    a = 0.5 * (a + a.T)
    spike = LinOp(dim=4, matvec=lambda v: np.array([5.0, 1.0, 1.0, 1.0]) * v)
    for res in (lanczos_top(dense_op(a), 5, seed=1), lanczos_top(spike, 1, inner_iters=3, seed=0)):
        assert res.converged and res.leading_converged and not res.decided
    # stops early with lambda_max certified and the trailing pairs short
    res = lanczos_top(_maxcut_slack_op(), 10, seed=0)
    assert res.leading_converged and not res.converged and not res.decided
    assert res.residuals[0] <= 1e-9 * (1.0 + abs(res.eigenvalues[0]))


def test_negative_restart_budget_rejected():
    with pytest.raises(ValueError, match="max_restarts"):
        lanczos_top(LinOp(dim=50, matvec=lambda v: 2.0 * v), 1, max_restarts=-1)


def _arrow_op(n=300, m=24, seed=0):
    # m - 1 close eigenvalues at the top and two far below, m + 1 distinct in
    # all: a restart discards only the two bottom Ritz vectors, which have
    # converged, so the product of a cycle's first vector is almost all
    # coupling to the locked Ritz rows (the arrow), and its new direction is
    # small
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    big = 1e5
    centres = np.concatenate([big / 2 - 1 + np.linspace(0, 1, m - 1), [-big / 2, -big / 6]])
    return dense_op((q * centres[np.arange(n) % (m + 1)]) @ q.T)


def _gaussian_op():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 300))
    return dense_op(0.5 * (a + a.T))


@pytest.mark.parametrize(
    "make_op, k_c, kw",
    [
        (_maxcut_slack_op, 10, {}),
        (_gaussian_op, 5, {"seed": 1}),
        (_arrow_op, 20, {"inner_iters": 24}),
    ],
)
def test_restarted_basis_stays_orthonormal(make_op, k_c, kw):
    # each step projects once on the rows its product reaches and once on
    # the whole basis; orthogonality lost in either shows in the returned
    # vectors and in residuals that the Ritz values no longer explain
    op = make_op()
    res = lanczos_top(op, k_c, **kw)
    assert res.restarts >= 3
    v = res.eigenvectors
    assert np.abs(v.T @ v - np.eye(k_c)).max() <= 1e-12
    explicit = np.linalg.norm(op.matmat(v) - v * res.eigenvalues, axis=0)
    slack = 1e-12 * (1.0 + abs(res.eigenvalues[0]))
    assert np.all(explicit <= res.residuals + slack)


# ---------------------------------------------------------------------------
# the dense route: an operator handed over with its array


def _qap_slack(n, seed):
    from conftest import random_qap
    from specbundle.problem import build_qap, dual_slack_operator

    prob = build_qap(random_qap(n, seed=seed))
    y = np.random.default_rng(seed).random(prob.m) * 0.1
    return dual_slack_operator(prob, y)


@pytest.mark.parametrize("n", range(3, 15))
def test_dense_route_matches_eigvalsh_on_qap_slacks(n):
    op = _qap_slack(n, seed=40 + n)
    z = op.matrix
    assert z.shape == (n * n + 1, n * n + 1) and z.shape[0] <= DENSE_EIG_MAX_N
    ref = np.linalg.eigvalsh(z)[::-1]
    for k_c in (1, 2, 3):
        res = lanczos_top(op, k_c, seed=0, matrix=z)
        assert res.matvecs == k_c and res.restarts == 0
        assert res.converged and res.leading_converged
        assert np.all(np.abs(res.eigenvalues - ref[:k_c]) <= 1e-12 * np.abs(ref).max())
        assert np.all(np.diff(res.eigenvalues) <= 0.0)
        v = res.eigenvectors
        assert v.shape == (op.dim, k_c) and np.abs(v.T @ v - np.eye(k_c)).max() <= 1e-12
        assert np.array_equal(res.residuals, np.linalg.norm(z @ v - v * res.eigenvalues, axis=0))


def test_dense_route_nonfinite_array_raises_without_warning():
    op = _qap_slack(4, seed=1)
    z = op.matrix.copy()
    z[3, 5] = z[5, 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            lanczos_top(dense_op(z), 2, seed=0, matrix=z)


def test_dense_route_refuses_an_array_of_another_side():
    op = _qap_slack(3, seed=2)
    with pytest.raises(ValueError, match="shape"):
        lanczos_top(op, 2, matrix=op.matrix[:-1, :-1])


def test_csr_slack_and_large_array_run_lanczos():
    op = _maxcut_slack_op()
    assert op.matrix is None
    assert lanczos_top(op, 10, seed=0, matrix=op.matrix).matvecs > 10
    rng = np.random.default_rng(9)
    for side, dense in ((DENSE_EIG_MAX_N, True), (DENSE_EIG_MAX_N + 1, False)):
        a = rng.standard_normal((side, side))
        a = 0.5 * (a + a.T)
        res = lanczos_top(dense_op(a), 2, seed=0, matrix=a)
        assert (res.matvecs == 2) == dense
        if not dense:
            plain = lanczos_top(dense_op(a), 2, seed=0)
            assert res.matvecs > 2 and res.matvecs == plain.matvecs
            assert np.array_equal(res.eigenvalues, plain.eigenvalues)
            assert np.array_equal(res.eigenvectors, plain.eigenvectors)


def _decision_exit(op, k_c=10):
    """A threshold between the leading Ritz values of the first two cycles,
    and a residual bound the second cycle meets: the full eigensolve and
    the one that stops at the decision exit."""
    full = lanczos_top(op, k_c, seed=0)
    theta_stop = float(full.eigenvalues[0]) - 1e-5
    res_max = 1e-3
    return full, theta_stop, res_max, lanczos_top(
        op, k_c, seed=0, theta_stop=theta_stop, res_max=res_max
    )


def test_decision_exit_stops_above_the_threshold_within_the_residual_bound():
    op = _maxcut_slack_op()
    full, theta_stop, res_max, res = _decision_exit(op)
    assert res.decided and not res.converged
    # the leading pair is far from its tolerance, and a decided result is
    # no leading-pair miss that the caller counts
    assert not res.leading_converged
    assert res.eigenvalues[0] > theta_stop
    assert np.all(res.residuals <= res_max)
    assert res.restarts >= 1 and res.matvecs < full.matvecs
    # a threshold at lambda_max is never passed, so the call is the full one
    top = lanczos_top(op, 10, seed=0, theta_stop=float(full.eigenvalues[0]), res_max=np.inf)
    assert not top.decided
    assert (top.converged, top.restarts, top.matvecs) == (full.converged, full.restarts, full.matvecs)
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        assert np.array_equal(getattr(top, field), getattr(full, field))


def test_decision_exit_leading_value_is_at_most_lambda_max():
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = _maxcut_slack_op()
    _, _, _, res = _decision_exit(op)
    lin = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
    ref = eigsh(lin, k=1, which="LA", tol=1e-14, return_eigenvectors=False)[0]
    assert res.decided
    assert res.eigenvalues[0] <= ref + 1e-12 * abs(ref)


def test_dense_routes_ignore_the_decision_exit():
    small = dense_op(np.diag(np.arange(6.0)))  # no larger than the basis
    op = _qap_slack(5, seed=3)
    for operator, matrix in ((small, None), (op, op.matrix)):
        plain = lanczos_top(operator, 2, seed=0, matrix=matrix)
        res = lanczos_top(operator, 2, seed=0, matrix=matrix, theta_stop=-np.inf, res_max=np.inf)
        assert not res.decided and res.converged
        assert res.matvecs == plain.matvecs
        for field in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(res, field), getattr(plain, field))


# ---------------------------------------------------------------------------
# partial reorthogonalization, which runs from PARTIAL_REORTH_MIN_N on; these
# tests lower the gate to reach it on small operators


@pytest.fixture
def partial(monkeypatch):
    monkeypatch.setattr(eigsolve, "PARTIAL_REORTH_MIN_N", 0)


def _gaussian(n, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_gate_splits_full_from_partial_reorthogonalization(monkeypatch):
    # below the gate every step makes a full pass; from it on only some do
    a = _gaussian(300)
    full = lanczos_top(dense_op(a), 3, seed=0)
    assert full.reorth_passes == full.matvecs
    monkeypatch.setattr(eigsolve, "PARTIAL_REORTH_MIN_N", 300)
    res = lanczos_top(dense_op(a), 3, seed=0)
    assert 0 < res.reorth_passes < res.matvecs
    assert res.leading_converged
    assert abs(res.eigenvalues[0] - full.eigenvalues[0]) <= 1e-12 * abs(full.eigenvalues[0])


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("k_c", [3, 10])
@pytest.mark.parametrize("inner_iters", [20, 32])
def test_partial_reorthogonalization_matches_eigh(partial, n, k_c, inner_iters):
    # tol = 0 spends all 30 restarts, so the locked Ritz rows go through
    # every restart with converged pairs among them, where the basis loses
    # orthogonality fastest
    a = _gaussian(n)
    ref = np.linalg.eigvalsh(a)[::-1][:k_c]
    res = lanczos_top(dense_op(a), k_c, inner_iters=inner_iters, max_restarts=30, tol=0.0, seed=0)
    assert res.reorth_passes < res.matvecs
    met = res.residuals <= 1e-9 * (1.0 + abs(res.eigenvalues[0]))
    assert met[0]
    assert np.all(np.abs(res.eigenvalues - ref)[met] <= 1e-10 * abs(ref[0]))
    v = res.eigenvectors
    assert np.abs(v.T @ v - np.eye(k_c)).max() <= 1e-8


def test_top_pair_converging_early_in_a_long_cycle_has_no_ghost(partial):
    # two isolated values above a bulk: within a 100-step cycle the top pair
    # converges after a few steps, and a basis left to lose orthogonality
    # grows copies of it (with no pass but the first, all three values
    # come back as 10)
    n = 1000
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.concatenate([[10.0, 9.0], rng.uniform(-1.0, 1.0, n - 2)])
    op = dense_op((q * d) @ q.T)
    res = lanczos_top(op, 3, inner_iters=100, seed=0)
    assert res.converged and res.reorth_passes < res.matvecs
    np.testing.assert_allclose(res.eigenvalues, np.sort(d)[::-1][:3], rtol=1e-10)
    assert np.all(np.diff(res.eigenvalues) < -1e-3)
    v = res.eigenvectors
    assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-8


def test_loss_estimate_bounds_the_measured_loss(partial, monkeypatch):
    # each product's argument is a row of the basis; compare the basis'
    # measured |q_k^T q_j| with the estimate the step that made q_j left,
    # on the short cycles of k_c = 10 and inner_iters = 20.  Locking the
    # Ritz vectors of h there, whose relation partly leaves the basis with
    # the discarded ones, let the estimate fall 1e4-fold short and the
    # leading value drift by 1e-11
    seen = {}
    real = eigsolve._LossEstimate.wants_pass

    def spy(self, *args):
        seen["omega"] = self.omega
        return real(self, *args)

    monkeypatch.setattr(eigsolve._LossEstimate, "wants_pass", spy)
    a = _gaussian(300)
    worst = []

    def matvec(v):
        basis = v.base
        j = (v.ctypes.data - basis.ctypes.data) // basis.strides[0]
        if j > 0 and "omega" in seen:
            measured = np.abs(basis[:j] @ v).max()
            worst.append(measured / max(np.abs(seen["omega"][j, :j]).max(), 1e-15))
        return a @ v

    res = lanczos_top(LinOp(300, matvec), 10, inner_iters=20, max_restarts=30, tol=0.0, seed=0)
    assert res.restarts == 30 and len(worst) > 100
    assert max(worst) <= 1.0


def test_partial_decision_exit_is_at_most_lambda_max_plus_its_margin(partial):
    # the exit asks theta_0 to pass the threshold by m * eps * sqrt(n) times
    # anorm, the largest column sum of the projected matrix's magnitudes
    # plus beta: at most (m + 1) entries of at most ||A||_2 <= ||A||_1 each
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = _maxcut_slack_op()
    full, theta_stop, res_max, res = _decision_exit(op)
    assert res.decided and res.reorth_passes < res.matvecs
    assert res.eigenvalues[0] > theta_stop and np.all(res.residuals <= res_max)
    lin = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
    ref = eigsh(lin, k=1, which="LA", tol=1e-14, return_eigenvectors=False)[0]
    m = 32
    norm_1 = np.abs(op.apply_block(np.eye(op.dim))).sum(axis=0).max()
    margin = m * np.finfo(float).eps * np.sqrt(op.dim) * (m + 1) * norm_1
    assert res.eigenvalues[0] <= ref + margin
    assert res.eigenvalues[0] <= ref + 1e-12 * abs(ref)  # what this operator shows


def test_restart_without_a_leading_invariant_subspace_falls_back_to_full_passes(
    partial, monkeypatch
):
    # a Schur form that selects no eigenvalue leaves no rows to lock: the
    # restart locks the Ritz vectors, and every later step makes the pass
    real = eigsolve.schur
    calls = []

    def none_selected(a, **kw):
        block, vecs, _ = real(a, **kw)
        calls.append(1)
        return block, vecs, 0

    monkeypatch.setattr(eigsolve, "schur", none_selected)
    a = _gaussian(300)
    first = lanczos_top(dense_op(a), 3, inner_iters=20, max_restarts=0, seed=0)
    res = lanczos_top(dense_op(a), 3, inner_iters=20, seed=0)
    assert len(calls) == 1 and res.restarts >= 1
    assert first.reorth_passes < first.matvecs
    assert res.reorth_passes == first.reorth_passes + res.matvecs - first.matvecs
    ref = np.linalg.eigvalsh(a)[::-1][:3]
    assert res.leading_converged
    assert abs(res.eigenvalues[0] - ref[0]) <= 1e-10 * abs(ref[0])
