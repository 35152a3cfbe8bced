import numpy as np
import pytest

from specbundle.eigsolve import LinOp, NumericError, lanczos_top


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


def test_warns_on_unconverged_leading_pair(caplog):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((400, 400))
    a = 0.5 * (a + a.T)
    with caplog.at_level("WARNING", logger="specbundle.eigsolve"):
        res = lanczos_top(dense_op(a), 3, inner_iters=8, max_restarts=0, seed=0)
    tol_eff = 1e-9 * (1.0 + abs(res.eigenvalues[0]))
    assert res.residuals[0] > tol_eff
    [rec] = caplog.records
    assert rec.levelname == "WARNING" and rec.name == "specbundle.eigsolve"
    assert f"{res.residuals[0]:.3e}" in rec.getMessage()
    assert f"{tol_eff:.3e}" in rec.getMessage()


def test_converging_operators_log_nothing(caplog):
    rng = np.random.default_rng(42)
    a = rng.standard_normal((200, 200))
    a = 0.5 * (a + a.T)
    with caplog.at_level("DEBUG", logger="specbundle.eigsolve"):
        assert lanczos_top(dense_op(a), 5, seed=1).converged
        lanczos_top(LinOp(dim=4, matvec=lambda v: np.array([5.0, 1.0, 1.0, 1.0]) * v), 1,
                    inner_iters=3, seed=0)
        lanczos_top(_maxcut_slack_op(), 10, seed=0)  # stops early with lambda_max certified
    assert caplog.records == []


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
