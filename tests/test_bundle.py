import functools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import adjoint_matrix, save_state_frozen
from conftest import (
    graph_from_edges,
    make_k3,
    mixed_inequality_problem,
    random_graph,
    random_qap,
    record_store_updates,
    state_header_offset,
)
from specbundle.bundle import (
    AggregateStats,
    FingerprintMismatch,
    Mapping,
    Residuals,
    SolverConfig,
    SketchStore,
    _HEADER,
    _Header,
    _completion_columns,
    balance_rho,
    candidate_iterate,
    certified_primal,
    cold_start,
    compute_residuals,
    descent_test,
    load_state,
    model_update,
    penalized_obj,
    primal_output,
    save_state,
    solve,
    state_from_record,
    warm_start_pad,
)
from specbundle import sketch as sketchmod
from specbundle.eigsolve import LinOp
from specbundle.problem import GraphInstance, build_maxcut, build_qap
from specbundle.subqp import assemble_eval_coeffs, ipm_eval


def dense_shadow(updates, n: int) -> np.ndarray:
    """The aggregate matrix that the recorded store updates build from zero."""
    x = np.zeros((n, n))
    for eta, factor, lams in updates:
        x = eta * x + (factor * lams[None, :]) @ factor.T
    return x


def reconstructed(out) -> np.ndarray:
    return (out.factor * out.lams[None, :]) @ out.factor.T


def assert_rel_close(a, ref, tol=1e-10):
    assert np.linalg.norm(a - ref) <= tol * np.linalg.norm(ref)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho", 0.0),
            ("rho", -0.01),
            ("rho", float("inf")),
            ("rho", float("nan")),
            ("rho", 1e-320),
            ("eps", 0.0),
            ("eps", float("inf")),
            ("eps", float("nan")),
            ("beta", 1.0),
            ("k_c", 0),
            ("k_p", -1),
            ("sketch_rank", 0),
            ("sketch_rank", -1),
            ("max_iters", -3),
            ("max_time", -1.0),
            ("max_time", float("nan")),
            ("seed", -1),
        ],
    )
    def test_rejects_a_setting_that_breaks_the_solve(self, field, value):
        with pytest.raises(ValueError, match=f"SolverConfig.{field} must be"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("rho", 1e-300), ("max_iters", 0), ("max_time", 0.0), ("eps", 1e300), ("seed", 0)],
    )
    def test_accepts_the_edge_of_each_range(self, field, value):
        assert getattr(SolverConfig(**{field: value}), field) == value


class TestPenalizedObj:
    def test_zero_cost_zero_dual(self):
        from conftest import mixed_inequality_problem
        from conftest import build_from_families

        n = 5
        idx = np.arange(n)
        prob = build_from_families(
            n, np.zeros((n, n)), (idx, idx, idx, np.ones(n)), np.ones(n), [False] * n
        )
        cfg = SolverConfig(k_c=2, k_p=0)
        f, eig = penalized_obj(prob, np.zeros(n), cfg, k_c=2)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_negative_slack_branch(self):
        # all-ones dual on diagonal constraints with zero cost: the slack
        # matrix is -I, the bracket clips to zero, f equals <b, y>
        from conftest import build_from_families

        n = 4
        idx = np.arange(n)
        prob = build_from_families(
            n, np.zeros((n, n)), (idx, idx, idx, np.ones(n)), np.ones(n), [False] * n
        )
        cfg = SolverConfig(k_c=2, k_p=0)
        y = np.ones(n)
        f, eig = penalized_obj(prob, y, cfg, k_c=2)
        assert eig.eigenvalues[0] == pytest.approx(-1.0, abs=1e-9)
        assert f == pytest.approx(float(prob.b @ y), abs=1e-9)


class TestStartStateSign:
    """y >= 0 on the inequality rows is the dual's domain: ``solve`` refuses
    a start point outside it before any eigensolve, whether or not the
    state carries ``f_y`` and ``lam_y`` (every saved state does)."""

    @staticmethod
    def _solved(kind):
        prob = build_qap(random_qap(4, 3)) if kind == "qap" else mixed_inequality_problem(6, 1)[0]
        cfg = SolverConfig(k_c=2, k_p=0, max_iters=3, seed=0)
        state, _ = solve(prob, cfg)
        return prob, cfg, state

    @pytest.mark.parametrize("kind", ["qap", "mixed"])
    @pytest.mark.parametrize("value", [-5.0, -1e-300])
    @pytest.mark.parametrize("carries_f", [True, False])
    def test_negative_sign_row_dual_is_refused_before_any_eigensolve(
        self, monkeypatch, kind, value, carries_f
    ):
        from specbundle import bundle

        prob, cfg, state = self._solved(kind)
        assert state.f_y is not None and state.lam_y is not None
        y = state.y.copy()
        y[prob.ineq_idx[-1]] = value
        init = replace(state, y=y)
        if not carries_f:
            init = replace(init, f_y=None, lam_y=None)
        calls = []
        monkeypatch.setattr(bundle, "lanczos_top", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="sign constraints: y < 0 on an inequality row"):
            solve(prob, cfg, init=init)
        assert calls == []

    @pytest.mark.parametrize("kind", ["qap", "mixed"])
    def test_zero_on_the_sign_rows_is_accepted(self, kind):
        prob, cfg, state = self._solved(kind)
        y = state.y.copy()
        y[prob.ineq_idx] = -0.0
        # f_y and lam_y belong to the old y: the new one is evaluated afresh
        init = replace(state, y=y, f_y=None, lam_y=None)
        resumed, _ = solve(prob, replace(cfg, max_iters=0), init=init)
        assert resumed.status in ("budget", "converged")


class TestStartStateObjective:
    """A start state's f_y must be alpha * max(lam_y, 0) + <b, y>, the value
    penalized_obj writes, up to rounding: the certificate reads it."""

    @staticmethod
    def _converged_k3():
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        return prob, cfg, state

    def test_forged_f_y_is_refused(self, monkeypatch):
        """With f_y forged to -1e300 the gap reads hugely negative; a
        converged K3 state so forged is refused before any eigensolve."""
        from specbundle import bundle

        prob, cfg, state = self._converged_k3()
        calls = []
        monkeypatch.setattr(bundle, "lanczos_top", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=r"^initial f_y = -1e\+300 is not alpha"):
            solve(prob, cfg, init=replace(state, f_y=-1e300))
        assert calls == []

    def test_f_y_within_rounding_resumes(self):
        prob, cfg, state = self._converged_k3()
        for f_y in np.nextafter(state.f_y, [-np.inf, np.inf]):
            resumed, _ = solve(prob, cfg, init=replace(state, f_y=float(f_y)))
            assert resumed.status == "converged" and resumed.iterations == 0


class TestCandidateIterate:
    def test_fixed_point(self):
        y = np.array([1.0, -2.0, 0.5])
        b = np.array([0.3, 0.1, -0.2])
        out = candidate_iterate(y, b.copy(), b, 0.7, np.array([], dtype=int))
        np.testing.assert_allclose(out, y)

    def test_equality_only_formula(self):
        rng = np.random.default_rng(0)
        y, b, ax = rng.standard_normal((3, 5))
        out = candidate_iterate(y, ax, b, 2.0, np.array([], dtype=int))
        np.testing.assert_allclose(out, y - (b - ax) / 2.0)

    def test_clipping_on_inequality_rows(self):
        y = np.zeros(2)
        b = np.array([1.0, 1.0])
        ax = np.array([0.0, 2.0])
        ineq = np.array([0, 1])
        rho = 1.0
        nu = np.minimum(ax + rho * y - b, 0.0)
        out = candidate_iterate(y, ax, b, rho, ineq)
        # row 0 would go negative and clips to zero; row 1 stays positive
        np.testing.assert_allclose(out, [0.0, 1.0])
        assert out @ nu == 0.0

    def test_matches_slack_form(self):
        rng = np.random.default_rng(1)
        m = 12
        ineq = np.arange(4, m)
        y = np.abs(rng.standard_normal(m))
        b, ax = rng.standard_normal((2, m))
        rho = 0.3
        w = ax + rho * y - b
        nu = np.zeros(m)
        nu[ineq] = np.minimum(w[ineq], 0.0)
        out = candidate_iterate(y, ax, b, rho, ineq)
        direct = y - (b + nu - ax) / rho
        np.testing.assert_allclose(out, direct, atol=1e-12)
        assert np.min(out[ineq]) >= 0.0


class TestDescentTest:
    def test_candidate_matches_model(self):
        assert descent_test(1.0, 0.5, 0.5, 0.99)

    def test_boundary_zero_zero(self):
        assert descent_test(1.0, 1.0, 1.0, 0.25)

    def test_null_step(self):
        assert not descent_test(1.0, 1.1, 0.5, 0.25)


class TestModelUpdate:
    def setup_model(self, n=10, k_c=3, k_p=2, seed=0):
        g = random_graph(n, 0.4, seed)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=k_c, k_p=k_p, sketch_rank=n)
        state = cold_start(prob, cfg)
        return prob, cfg, state.model

    def test_no_past_block_replaces_basis(self):
        prob, cfg, model = self.setup_model(k_c=3, k_p=0)
        rng = np.random.default_rng(1)
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, 3)))
        s = np.diag([0.5, 0.2, 0.1])
        new = model_update(model, 0.0, s, vecs, prob)
        np.testing.assert_array_equal(new.basis, vecs)
        # aggregate equals the full block solution when no past block exists
        assert new.stats.trace == pytest.approx(0.8)

    def test_identity_weight_zero_block(self):
        prob, cfg, model = self.setup_model()
        model.stats = AggregateStats(0.3, 0.1, np.full(prob.m, 0.01))
        lams = np.full(prob.n, 0.3 / prob.n)
        sk = sketchmod.sketch_update(model.store.sk, 0.0, np.eye(prob.n), lams)
        model.store = SketchStore(sk)
        rng = np.random.default_rng(2)
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k_c)))
        new = model_update(model, 1.0, np.zeros((model.k, model.k)), vecs, prob)
        assert new.stats.trace == pytest.approx(0.3)
        assert new.stats.cost_ip == pytest.approx(0.1)
        np.testing.assert_allclose(new.stats.constr_image, np.full(prob.m, 0.01))

    def test_stats_match_dense_shadow(self, monkeypatch):
        prob, cfg, model = self.setup_model(n=20, k_c=4, k_p=2, seed=3)
        updates = record_store_updates(monkeypatch)
        psi = model.store.sk.psi()
        rng = np.random.default_rng(4)
        shadow = np.zeros((prob.n, prob.n))
        cost = prob.cost.toarray()
        for t in range(12):
            eta = float(rng.random())
            s = rng.standard_normal((model.k, model.k))
            s = s @ s.T / model.k
            vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k_c)))
            basis = model.basis
            model = model_update(model, eta, s, vecs, prob, seed=0, tag=t)
            eta_u, factor, lams = updates[-1]
            shadow = eta * shadow + (factor * lams[None, :]) @ factor.T
            assert abs(model.stats.trace - np.trace(shadow)) <= 1e-9
            assert abs(model.stats.cost_ip - np.sum(cost * shadow)) <= 1e-9
            np.testing.assert_allclose(
                model.stats.constr_image, np.diag(shadow), atol=1e-9
            )
            assert_rel_close(model.store.sk.sketch_mat, shadow @ psi)

    def test_trace_update_identity(self):
        prob, cfg, model = self.setup_model(n=15, k_c=3, k_p=2, seed=5)
        rng = np.random.default_rng(6)
        s = rng.standard_normal((model.k, model.k))
        s = s @ s.T
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k_c)))
        eta = 0.4
        tr_before = model.stats.trace
        new = model_update(model, eta, s, vecs, prob)
        vals = np.sort(np.linalg.eigvalsh(s))[::-1]
        lam_c = np.maximum(vals[model.k_p :], 0.0)
        assert new.stats.trace == pytest.approx(eta * tr_before + lam_c.sum(), abs=1e-12)

    def test_basis_spans_new_eigvecs(self):
        prob, cfg, model = self.setup_model(n=12, k_c=3, k_p=2, seed=7)
        rng = np.random.default_rng(8)
        s = rng.standard_normal((model.k, model.k))
        s = s @ s.T
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k_c)))
        new = model_update(model, 0.5, s, vecs, prob)
        assert new.basis.shape == model.basis.shape
        np.testing.assert_allclose(
            new.basis.T @ new.basis, np.eye(new.k), atol=1e-10
        )
        proj = new.basis @ (new.basis.T @ vecs)
        np.testing.assert_allclose(proj, vecs, atol=1e-8)

    def test_rank_deficient_padded(self):
        prob, cfg, model = self.setup_model(n=12, k_c=3, k_p=2, seed=9)
        # new vectors duplicate the kept past directions
        s = np.diag([1.0, 0.8, 0.0, 0.0, 0.0])
        vecs = model.basis[:, : model.k_c]
        new = model_update(model, 0.1, s, vecs, prob, seed=3, tag=5)
        assert new.basis.shape[1] == model.k
        np.testing.assert_allclose(
            new.basis.T @ new.basis, np.eye(model.k), atol=1e-10
        )

    def test_all_zero_block_is_completed_from_seed_and_tag(self):
        # no kept direction and no new one: every column comes from the
        # completion draw of (seed, tag)
        prob, cfg, model = self.setup_model(n=12, k_c=3, k_p=2, seed=9)
        model = replace(model, basis=np.zeros_like(model.basis))
        s = np.diag([1.0, 0.8, 0.5, 0.0, 0.0])
        vecs = np.zeros((prob.n, model.k_c))

        def basis(tag):
            return model_update(model, 0.1, s, vecs, prob, seed=3, tag=tag).basis

        new = basis(5)
        assert new.shape == model.basis.shape
        assert new.flags.c_contiguous
        np.testing.assert_allclose(new.T @ new, np.eye(model.k), atol=1e-12)
        assert np.array_equal(new, basis(5))
        assert not np.allclose(new, basis(6))

    @pytest.mark.parametrize("c", [0, 1, 3])
    def test_completion_keeps_its_input_columns(self, c):
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.standard_normal((12, c)))
        out = _completion_columns(basis, 5, seed=3, tag=2)
        assert out.shape == (12, 5)
        assert out.flags.c_contiguous
        assert np.array_equal(out[:, :c], basis)
        np.testing.assert_allclose(out.T @ out, np.eye(5), atol=1e-12)


class TestKeptRecords:
    def test_each_record_keeps_its_iteration_aggregate(self, monkeypatch):
        """Each model owns its primal store and kept part: a record kept
        after the solve moves on gives the certified primal X+ = Xbar + W W^T
        its callback saw, bit for bit."""
        prob = build_maxcut(random_graph(30, 0.3, 2))
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=prob.n, eps=1e-12, max_iters=5, seed=0)
        updates = record_store_updates(monkeypatch)
        records, seen = [], []

        def keep(info):
            records.append(info)
            out = primal_output(info.model)
            shadow = dense_shadow(updates, prob.n) + info.model.kept @ info.model.kept.T
            assert_rel_close(reconstructed(out), shadow)
            seen.append((shadow, out.factor.copy(), out.lams.copy()))

        solve(prob, cfg, callback=keep)
        assert len(records) == 5
        assert len({id(r.model.store) for r in records}) == 5
        for info, (shadow, factor, lams) in zip(records, seen):
            out = primal_output(info.model)
            np.testing.assert_array_equal(out.factor, factor)
            np.testing.assert_array_equal(out.lams, lams)
            assert_rel_close(reconstructed(out), shadow)
        assert not np.allclose(seen[0][0], seen[-1][0])

    def test_update_leaves_the_old_store_as_it_was(self):
        prob = build_maxcut(random_graph(12, 0.4, 1))
        s = np.diag([0.3, 0.2, 0.1, 0.05])
        vecs = np.eye(prob.n, 3)
        for rank in (prob.n, 4):
            model = cold_start(prob, SolverConfig(k_c=3, k_p=1, sketch_rank=rank)).model
            model = model_update(model, 1.0, s, vecs, prob)
            before = model.store.sk.sketch_mat.copy()
            new = model_update(model, 0.5, s, vecs, prob)
            assert type(new.store) is type(model.store) and new.store is not model.store
            np.testing.assert_array_equal(model.store.sk.sketch_mat, before)


class TestResiduals:
    def test_feasible_point_zero_infeas(self):
        prob = build_maxcut(make_k3())
        stats = AggregateStats(1.0, 0.5, prob.b.copy())
        r = compute_residuals(prob, 0.7, 0.0, stats)
        assert r.rel_infeas == 0.0 and r.linf_infeas == 0.0

    def test_upper_bound_property_after_solve(self):
        g = random_graph(20, 0.3, 10)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=8, k_p=1, eps=1e-5, max_iters=2000, seed=0)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        p_star = certified_primal(prob, state.model).cost_ip
        # any dual value bounds the optimum from above
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = state.y + 0.01 * rng.standard_normal(prob.m)
            f, _ = penalized_obj(prob, y, cfg, k_c=cfg.k_c)
            assert f >= p_star - 1e-4


class TestSolveEndToEnd:
    def test_k3_analytic(self, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0)
        state, out = solve(prob, cfg)
        assert state.status == "converged"
        obj = prob.unscale_objective(certified_primal(prob, state.model).cost_ip)
        assert obj == pytest.approx(9 / 4, abs=1e-2)

    def test_dual_feasibility_dense_check(self):
        g = random_graph(10, 0.5, 20)
        prob = build_maxcut(g)
        cfg = SolverConfig(eps=1e-3, max_iters=1000, seed=1)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        z = prob.cost.toarray() - np.diag(state.y)
        assert np.linalg.eigvalsh(z).max() <= cfg.eps + 1e-9

    @pytest.mark.parametrize("qap", [False, True])
    def test_phase_seconds_fit_in_the_iteration(self, qap):
        if qap:
            prob, cfg = build_qap(random_qap(4, 3)), SolverConfig(k_c=2, k_p=0, max_iters=6, eps=1e-12)
        else:
            prob, cfg = build_maxcut(random_graph(40, 0.2, 5)), SolverConfig(k_c=4, k_p=1, max_iters=6, eps=1e-12)
        infos = []
        solve(prob, cfg, callback=infos.append)
        assert len(infos) == 6
        for info in infos:
            phases = [info.secs_prox, info.secs_eig, info.secs_model_val,
                      info.secs_model_update, info.secs_residuals]
            assert all(p >= 0.0 for p in phases)
            assert info.secs_eig > 0.0 and info.secs_prox > 0.0
            assert sum(phases) <= info.secs_iter
        assert sum(info.secs_iter for info in infos) <= infos[-1].elapsed

    @staticmethod
    def monotone_solve(prob):
        """Solve ``prob``, checking that f(y) never rises and that the duals
        of the sign rows stay at or above 0 at every iteration."""
        cfg = SolverConfig(rho=0.1, k_c=5, k_p=1, eps=1e-3, max_iters=300, seed=0)
        f_values = []

        def cb(info):
            f_values.append(info.f_y)
            assert np.min(info.y[prob.ineq_idx], initial=0.0) >= 0.0

        state, _ = solve(prob, cfg, callback=cb)
        assert len(f_values) == state.iterations > 1
        assert all(b <= a + 1e-12 for a, b in zip(f_values, f_values[1:]))
        return state

    def test_monotone_objective_and_feasible_duals(self):
        """``mixed_inequality_problem(10, 3)`` is primal-infeasible within
        the trace bound: f(y) falls without bound (below -9 after 300
        iterations), the relative infeasibility stays near 1.1e-2, and the
        solve, which has no infeasibility exit, runs its whole budget."""
        prob, _ = mixed_inequality_problem(10, 3)
        state = self.monotone_solve(prob)
        assert state.status == "budget" and state.f_y < 0.0

    def test_monotone_objective_and_feasible_duals_to_convergence(self):
        """The same checks on a feasible instance, which converges."""
        prob, _ = mixed_inequality_problem(8, 1)
        assert self.monotone_solve(prob).status == "converged"

    def test_minorant_and_subgradient_bounds(self):
        g = random_graph(15, 0.4, 30)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=5, k_p=1, eps=1e-4, max_iters=500, seed=2)
        checks = []

        def cb(info):
            # model minorant at the candidate
            checks.append(info.model_val <= info.f_cand + 1e-8 * (1 + abs(info.f_cand)))
            # the refreshed model supports the candidate from below
            ev = ipm_eval(
                assemble_eval_coeffs(
                    prob, info.model, info.y_cand, prob.cost_quad(info.model.basis)
                )
            )
            new_model_val = float(prob.b @ info.y_cand) - ev.value
            checks.append(
                new_model_val >= info.f_cand - 1e-8 * (1 + abs(info.f_cand))
            )

        state, _ = solve(prob, cfg, callback=cb)
        assert state.status == "converged"
        assert all(checks)

    def test_trace_budget_every_iteration(self):
        g = random_graph(12, 0.4, 40)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=4, k_p=1, eps=1e-3, max_iters=300, seed=3)
        traces = []
        state, _ = solve(prob, cfg, callback=lambda info: traces.append(info.primal.trace))
        assert all(t <= prob.alpha + 1e-9 for t in traces)

    def test_warm_start_fixed_point(self, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0)
        state, _ = solve(prob, cfg)
        descent_before = state.descent_steps
        state2, _ = solve(prob, cfg, init=state)
        assert state2.status == "converged"
        assert state2.descent_steps == descent_before  # zero new descent steps

    @pytest.mark.parametrize("rank", [30, 5])
    def test_solve_leaves_init_untouched(self, rank):
        """``solve(prob, cfg, init=s)`` works on a copy: s keeps its point,
        model, weight and step counts, and two solves from s agree."""
        prob = build_maxcut(random_graph(30, 0.3, 2))
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=rank, eps=1e-12, max_iters=4, seed=0)

        def snapshot(st):
            store = st.model.store
            mat = store.sk.sketch_mat
            arrays = [a.copy() for a in (st.y, st.model.basis, st.model.stats.constr_image, mat)]
            scalars = (st.f_y, st.lam_y, st.rho, st.descent_steps, st.null_steps, st.iterations,
                       st.model.stats.trace, st.model.stats.cost_ip, st.status)
            return arrays, scalars, st.model, store

        s, _ = solve(prob, cfg)
        before = snapshot(s)
        first, _ = solve(prob, cfg, init=s)
        second, _ = solve(prob, cfg, init=s)
        after = snapshot(s)
        assert after[1] == before[1] and after[2] is before[2] and after[3] is before[3]
        for old, new in zip(before[0], after[0]):
            np.testing.assert_array_equal(new, old)
        assert first.iterations == 4 and first.descent_steps + first.null_steps == 8
        one, two = snapshot(first), snapshot(second)
        assert one[1] == two[1]
        for a, b in zip(one[0], two[0]):
            np.testing.assert_array_equal(a, b)

    def test_budget_exhaustion_flagged(self):
        prob = build_maxcut(random_graph(40, 0.3, 77))
        cfg = SolverConfig(eps=1e-10, max_iters=3, seed=0)
        state, _ = solve(prob, cfg)
        assert state.status == "budget"
        assert state.iterations == 3

    def test_inexact_eigensolve_flagged_in_iteration_record(self, monkeypatch):
        # with no restarts the leading pair misses its tolerance, and each
        # iteration record says so for the eigensolve that gave lam_cand
        from specbundle import bundle

        monkeypatch.setattr(
            bundle, "lanczos_top",
            functools.partial(bundle.lanczos_top, inner_iters=6, max_restarts=0),
        )
        prob = build_maxcut(random_graph(60, 0.2, 12))
        cfg = SolverConfig(k_c=4, k_p=1, max_iters=5, seed=0)
        infos = []
        solve(prob, cfg, callback=infos.append)
        assert len(infos) == 5
        for info in infos:
            assert info.eig_restarts == 0 and info.eig_matvecs == 6 and not info.eig_converged
            tol = 1e-9 * (1 + abs(info.lam_cand))
            assert info.eig_leading_converged == (info.eig_leading_residual <= tol)
        assert any(not info.eig_leading_converged for info in infos)

    @pytest.mark.parametrize("gate", [None, 0])
    def test_iteration_record_counts_the_full_passes(self, monkeypatch, gate):
        # the record carries the candidate eigensolve's full Gram-Schmidt
        # passes: one per matvec below the gate, fewer from it on
        from specbundle import bundle, eigsolve

        if gate is not None:
            monkeypatch.setattr(eigsolve, "PARTIAL_REORTH_MIN_N", gate)
        results = []
        real = bundle.lanczos_top
        monkeypatch.setattr(
            bundle, "lanczos_top", lambda *a, **kw: results.append(real(*a, **kw)) or results[-1]
        )
        prob = build_maxcut(random_graph(60, 0.2, 12))
        infos = []
        solve(prob, SolverConfig(k_c=4, k_p=1, max_iters=5, seed=0), callback=infos.append)
        assert len(infos) == 5 and len(results) == 6
        assert [i.eig_reorth_passes for i in infos] == [r.reorth_passes for r in results[1:]]
        for info in infos:
            if gate is None:
                assert info.eig_reorth_passes == info.eig_matvecs
            else:
                assert 0 < info.eig_reorth_passes < info.eig_matvecs

    def test_sketch_and_explicit_agree(self, monkeypatch):
        # the sketch rank changes only the primal store: the dual path is
        # identical, and the reconstruction approximates the certified primal
        # (the dense shadow of the store updates plus W W^T) up to the tail
        # beyond the sketch rank; at rank n it is the certified primal
        g = random_graph(30, 0.3, 50)
        prob = build_maxcut(g)
        cfg_e = SolverConfig(k_c=6, k_p=1, eps=1e-3, max_iters=500, seed=4, sketch_rank=prob.n)
        cfg_s = replace(cfg_e, sketch_rank=10)
        updates = record_store_updates(monkeypatch)
        se, oe = solve(prob, cfg_e)
        xbar = dense_shadow(updates, prob.n)
        xe = xbar + se.model.kept @ se.model.kept.T
        updates.clear()
        ss, os_ = solve(prob, cfg_s)
        assert se.iterations == ss.iterations
        np.testing.assert_allclose(se.y, ss.y, atol=1e-12)
        pe, ps = certified_primal(prob, se.model), certified_primal(prob, ss.model)
        assert ps.trace == pytest.approx(pe.trace, abs=1e-12)
        assert ps.cost_ip == pytest.approx(pe.cost_ip, abs=1e-12)
        np.testing.assert_array_equal(dense_shadow(updates, prob.n), xbar)
        np.testing.assert_array_equal(ss.model.kept, se.model.kept)
        assert_rel_close(reconstructed(oe), xe)
        assert np.linalg.norm(xe - reconstructed(os_)) <= 0.1 * np.linalg.norm(xe)

    @pytest.mark.parametrize("kind", ["maxcut", "qap"])
    def test_rank_n_sketch_is_the_exact_aggregate(self, monkeypatch, kind):
        """A sketch of rank n gives back the certified primal: its
        reconstruction equals the dense shadow of the store updates, the
        aggregate, plus W W^T to 1e-10 relative after every iteration of a
        solve."""
        if kind == "maxcut":
            prob = build_maxcut(random_graph(30, 0.3, 8))
            cfg = SolverConfig(k_c=4, k_p=1, eps=1e-3, max_iters=300, seed=0)
        else:
            # a gap below -eps does not stop: this solve runs 663 iterations
            prob = build_qap(random_qap(5, 2))
            cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, eps=1e-2, max_iters=800, seed=0)
        cfg = replace(cfg, sketch_rank=prob.n)
        updates = record_store_updates(monkeypatch)
        seen = []

        def check(info):
            shadow = dense_shadow(updates, prob.n)
            w = info.model.kept
            assert_rel_close(reconstructed(primal_output(info.model)), shadow + w @ w.T)
            assert np.trace(shadow) == pytest.approx(info.model.stats.trace, rel=1e-10)
            seen.append(info.t)

        state, out = solve(prob, cfg, callback=check)
        assert state.status == "converged" and len(seen) == state.iterations > 1
        assert out.factor.shape == (prob.n, prob.n)
        w = state.model.kept
        assert_rel_close(reconstructed(out), dense_shadow(updates, prob.n) + w @ w.T)


class TestStateFile:
    def test_round_trip(self, tmp_path, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0, sketch_rank=2)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        save_state(path, state, prob)
        rec = load_state(path)
        state2 = state_from_record(rec, prob)
        np.testing.assert_array_equal(state2.y, state.y)
        np.testing.assert_array_equal(state2.model.basis, state.model.basis)
        assert state2.f_y == state.f_y
        assert state2.model.stats.trace == state.model.stats.trace
        np.testing.assert_array_equal(
            state2.model.store.sk.sketch_mat, state.model.store.sk.sketch_mat
        )
        np.testing.assert_array_equal(state2.model.kept, state.model.kept)
        last, last2 = certified_primal(prob, state.model), certified_primal(prob, state2.model)
        assert (last2.trace, last2.cost_ip) == (last.trace, last.cost_ip)
        np.testing.assert_array_equal(last2.constr_image, last.constr_image)
        assert _Header._make(_HEADER.unpack_from(path.read_bytes())).scale_x == prob.scale_x

    def test_fingerprint_rejects_other_problem(self, tmp_path, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=50, seed=0)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        save_state(path, state, prob)
        other = build_maxcut(random_graph(4, 0.9, 0))
        with pytest.raises(FingerprintMismatch):
            state_from_record(load_state(path), other)

    def test_fingerprint_mismatch_names_each_differing_field(self, tmp_path, k3):
        prob = build_maxcut(k3)
        state = cold_start(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=2))
        path = tmp_path / "s.bin"
        save_state(path, state, prob)
        rec = load_state(path)
        n, m, n_ineq, b_hash = rec.fingerprint
        rec.fingerprint = (n, m + 4, n_ineq, b_hash)
        with pytest.raises(FingerprintMismatch) as info:
            state_from_record(rec, prob)
        assert str(info.value) == (
            "state fingerprint does not match the problem: m 7 in the state, 3 in the problem"
        )
        rec.fingerprint = (n, m, n_ineq + 1, b_hash ^ 0xF)
        with pytest.raises(FingerprintMismatch) as info:
            state_from_record(rec, prob)
        assert str(info.value).endswith(
            f"inequality rows 1 in the state, 0 in the problem; "
            f"hash of b {b_hash ^ 0xF:016x} in the state, {b_hash:016x} in the problem"
        )

    def test_resumed_sketch_draws_its_test_matrix_once(self, tmp_path, monkeypatch):
        prob = build_maxcut(random_graph(30, 0.3, 2))
        cfg = SolverConfig(k_c=4, k_p=1, eps=1e-9, max_iters=3, seed=0, sketch_rank=5)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        save_state(path, state, prob)
        draws = []
        real = sketchmod.make_test_matrix

        def counted(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(sketchmod, "make_test_matrix", counted)
        init = state_from_record(load_state(path), prob)
        resumed, _ = solve(prob, replace(cfg, max_iters=5), init=init)
        assert resumed.iterations == 5
        assert len(draws) == 1
        np.testing.assert_array_equal(resumed.model.store.sk.psi(), real(prob.n, 5, draws[0][2]))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 200)
        with pytest.raises(ValueError):
            load_state(path)

    def test_version_2_round_trips_rho(self, tmp_path):
        """rho, in the header since format version 2, round-trips through
        the current version."""
        prob = build_maxcut(random_graph(12, 0.4, 3))
        cfg = SolverConfig(k_c=3, k_p=1, eps=1e-12, max_iters=3, seed=0, sketch_rank=3)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        for rho in (state.rho, 0.1 + 2.0**-50, 1e-300):
            save_state(path, replace(state, rho=rho), prob)
            assert state_from_record(load_state(path), prob).rho == rho
        assert path.read_bytes()[4:8] == (5).to_bytes(4, "little")

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_format_versions_are_refused_by_name(self, tmp_path, version):
        """Versions 1 to 4 hold no kept part W, so a resume from them could
        not rebuild the certified primal: each is refused with a message that
        names its version.  The store-kind byte of versions 1 to 3, and
        version 1's missing rho, are never read."""
        prob = build_maxcut(random_graph(12, 0.4, 3))
        cfg = SolverConfig(k_c=3, k_p=1, eps=1e-12, max_iters=3, seed=0, sketch_rank=4)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        save_state_frozen(path, state, prob, version)
        message = f"unsupported state file version {version}: only version 5"
        with pytest.raises(ValueError, match=f"^{message}.*run the solve again"):
            load_state(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_dense_store_file_is_refused(self, tmp_path, version):
        """A file whose store kind byte reads 1, the dense store of earlier
        versions, is refused by its version before that byte is read."""
        prob = build_maxcut(random_graph(12, 0.4, 3))
        state = cold_start(prob, SolverConfig(k_c=3, k_p=1, sketch_rank=4))
        path = tmp_path / "s.bin"
        save_state_frozen(path, state, prob, version)
        raw = bytearray(path.read_bytes())
        kind_at = state_header_offset("rank")  # the byte after k_p
        assert raw[kind_at] == 2
        raw[kind_at] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^unsupported state file version {version}:"):
            load_state(path)

    def test_enormous_declared_payload_is_refused_before_allocating(self, tmp_path):
        """A header whose n declares terabytes of payload is refused as
        truncated, and nothing near that size is allocated first."""
        prob = build_maxcut(make_k3())
        path = tmp_path / "s.bin"
        save_state(path, cold_start(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=2)), prob)
        raw = path.read_bytes()
        head = _Header._make(_HEADER.unpack_from(raw))._replace(n=2**40)
        path.write_bytes(_HEADER.pack(*head) + raw[_HEADER.size :])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^truncated state file: \d+ bytes, the header declares"):
                load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_pipe_is_refused(self, tmp_path):
        prob = build_maxcut(make_k3())
        path = tmp_path / "s.bin"
        save_state(path, cold_start(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=2)), prob)
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            with pytest.raises(ValueError, match="is not a regular file"):
                load_state(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_payload_is_held_once(self, tmp_path):
        """Saving writes the arrays' own buffers and loading reads the
        payload into one array: neither holds a second copy of it."""
        prob = build_maxcut(random_graph(600, 0.01, 1))
        state = cold_start(prob, SolverConfig(k_c=3, k_p=1, sketch_rank=prob.n))
        lams = np.array([0.5, 0.5])
        state.model.store = SketchStore(
            sketchmod.sketch_update(state.model.store.sk, 0.0, np.eye(prob.n, 2), lams)
        )
        path = tmp_path / "s.bin"
        payload = 8 * (2 * prob.m + prob.n * 4 + prob.n**2 + prob.n * 1)  # k = 4, k_p = 1
        tracemalloc.start()
        try:
            save_state(path, state, prob)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            rec = load_state(path)
            load_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == _HEADER.size + payload
        assert save_peak < payload / 4
        assert payload <= load_peak < 1.5 * payload
        np.testing.assert_array_equal(
            rec.state.model.store.sk.sketch_mat, state.model.store.sk.sketch_mat
        )

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_rho_that_is_not_positive(self, tmp_path, rho):
        prob = build_maxcut(make_k3())
        state = cold_start(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=2))
        path = tmp_path / "s.bin"
        save_state(path, replace(state, rho=rho), prob)
        with pytest.raises(ValueError, match="rho"):
            load_state(path)


class TestWarmStartPad:
    def test_identity_mapping_same_problem(self, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0, sketch_rank=3)
        state, _ = solve(prob, cfg)
        mapping = Mapping(np.arange(3), np.arange(3))
        padded = warm_start_pad(state, prob, mapping)
        np.testing.assert_allclose(padded.y, state.y)
        assert padded.model.stats.trace == pytest.approx(state.model.stats.trace, rel=1e-10)
        np.testing.assert_allclose(
            padded.model.stats.constr_image, state.model.stats.constr_image, atol=1e-10
        )

    CFG = SolverConfig(k_c=4, k_p=1, eps=1e-3, max_iters=500, seed=0)

    def _arrival(self, extra_edges):
        """A solved 9-vertex state and a 10-vertex problem with ``extra_edges``
        added, padded by the prefix mapping."""
        g_small = random_graph(9, 0.5, 60)
        state, _ = solve(build_maxcut(g_small), self.CFG)
        edges = list(
            zip(g_small.edges_u.tolist(), g_small.edges_v.tolist(), g_small.edges_w.tolist())
        )
        prob_big = build_maxcut(graph_from_edges(10, edges + extra_edges))
        padded = warm_start_pad(state, prob_big, Mapping(np.arange(9), np.arange(9)))
        return state, prob_big, padded

    def test_new_vertex_gets_median_ratio_times_its_diagonal(self):
        state, prob_big, padded = self._arrival([(0, 9, 1.0)])
        diag = prob_big.cost.diagonal()
        assert np.all(diag > 0)
        r = np.median(state.y / diag[:9])
        assert r > 0
        np.testing.assert_array_equal(padded.y[:9], state.y)
        assert padded.y[9] == pytest.approx(r * diag[9], rel=1e-12)
        assert padded.model.basis.shape == (10, state.model.k)
        # rescale ratio: old trace normalization over new
        assert padded.model.stats.trace == pytest.approx(
            state.model.stats.trace * 9 / 10, rel=1e-9
        )
        state2, _ = solve(prob_big, self.CFG, init=padded)
        assert state2.status == "converged"

    def test_new_isolated_vertex_gets_zero(self):
        _, prob_big, padded = self._arrival([])
        assert prob_big.cost[9, 9] == 0.0
        assert padded.y[9] == 0.0

    def test_no_qualifying_kept_row_pads_zeros(self):
        state, _, _ = self._arrival([])
        # the kept vertices are isolated in the new graph, the arrivals are not
        prob = build_maxcut(graph_from_edges(11, [(9, 10, 1.0)]))
        assert np.all(prob.cost.diagonal()[9:] > 0)
        padded = warm_start_pad(state, prob, Mapping(np.arange(9), np.arange(9)))
        np.testing.assert_array_equal(padded.y[:9], state.y)
        np.testing.assert_array_equal(padded.y[9:], 0.0)

    def test_new_inequality_rows_stay_in_the_sign_cone(self):
        small, _ = mixed_inequality_problem(12, 2, n_ineq=6)
        big, _ = mixed_inequality_problem(12, 2, n_ineq=12)
        assert np.array_equal(small.b, big.b[:18])  # the same first 18 rows
        # the rule reads only the duals, so a 20-iteration state will do
        state, _ = solve(small, SolverConfig(k_c=4, k_p=1, max_iters=20, seed=0))
        padded = warm_start_pad(state, big, Mapping(np.arange(12), np.arange(18)))
        # <A_i, C> and ||A_i||^2 from each dense A_i, apart from the
        # constraint-family method the padding uses
        cost = big.cost.toarray()
        mats = [adjoint_matrix(big.constraints, e).toarray() for e in np.eye(big.m)]
        ratio = np.array([np.sum(a * cost) / np.sum(a * a) for a in mats])
        kept = ratio[:18] != 0
        r = np.median(state.y[kept] / ratio[:18][kept])
        assert r > 0
        new = padded.y[18:]
        assert np.any(ratio[18:] < 0) and np.any(ratio[18:] > 0)
        np.testing.assert_allclose(new, np.maximum(r * ratio[18:], 0.0), rtol=1e-12, atol=0)
        assert np.all(new >= 0.0)
        # solve's start-state check accepts the padded point
        resumed, _ = solve(big, replace(self.CFG, max_iters=0), init=padded)
        assert np.isfinite(resumed.f_y)

    def test_arrival_certifies_sooner_than_zero_padding(self):
        # one percent of the vertices arrive, as in the benchmark's arrivals;
        # with a tenth arriving, the zero primal rows of the new vertices set
        # the pace and both paddings take about as many iterations.  On one
        # graph the margin is within rounding noise, so five graphs are run
        cfg = SolverConfig(k_c=10, k_p=1, eps=1e-3, max_iters=1000, seed=0, sketch_rank=10)
        mapping = Mapping(np.arange(500), np.arange(500))
        warm_iters, zero_iters = [], []
        for graph_seed in (17, 1, 2, 3, 4):
            g = random_graph(505, 8.0 / 505, graph_seed)
            prev, _ = solve(build_maxcut(g.subgraph(500)), cfg)
            prob = build_maxcut(g)
            padded = warm_start_pad(prev, prob, mapping, sketch_seed=0)
            zeroed = warm_start_pad(prev, prob, mapping, sketch_seed=0)
            zeroed.y[500:] = 0.0
            assert np.all(padded.y[500:] > 0)
            warm, _ = solve(prob, cfg, init=padded)
            zero, _ = solve(prob, cfg, init=zeroed)
            assert warm.status == zero.status == "converged"
            warm_iters.append(warm.iterations)
            zero_iters.append(zero.iterations)
        assert sum(warm_iters) < sum(zero_iters)
        assert sum(w < z for w, z in zip(warm_iters, zero_iters)) >= 4, (warm_iters, zero_iters)

    def test_qap_submatrix_arrival_pads_zeros(self):
        # every kept row with a nonzero ratio is an inequality; with those
        # inactive at zero the median ratio and the padding are zero
        from specbundle.problem import qap_submatrix_constraint_map

        full = random_qap(4, 1)
        sub = full.shrink()
        cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, eps=1e-1, max_iters=400, seed=0, sketch_rank=3)
        sub_prob = build_qap(sub)
        prev, _ = solve(sub_prob, cfg)
        y = prev.y.copy()
        y[sub_prob.ineq_idx] = 0.0
        assert np.any(y != 0.0)
        prev = replace(prev, y=y)
        kept = np.arange(sub.size**2)
        vertex_map = np.concatenate([[0], 1 + (kept // sub.size) * full.size + kept % sub.size])
        mapping = Mapping(vertex_map, qap_submatrix_constraint_map(full, sub.size))
        prob = build_qap(full)
        padded = warm_start_pad(prev, prob, mapping, sketch_seed=0)
        ratio = prob.constraints.primal_image_matrix(prob.cost)[mapping.constraint_map]
        assert np.all(np.isin(np.flatnonzero(ratio), sub_prob.ineq_idx))
        arriving = np.ones(prob.m, dtype=bool)
        arriving[mapping.constraint_map] = False
        np.testing.assert_array_equal(padded.y[mapping.constraint_map], prev.y)
        assert np.all(padded.y[arriving] == 0.0) and not np.any(np.signbit(padded.y[arriving]))

    @pytest.mark.parametrize("sketch_rank", [10, 3])
    def test_padding_gathers_match_zero_fill_scatter(self, sketch_rank):
        """The padded basis and primal factor equal a zero fill plus a row
        scatter bit for bit, on a vertex map that is not a prefix."""
        from specbundle.problem import qap_submatrix_constraint_map

        full = random_qap(4, 1)
        sub = full.shrink()
        cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, eps=1e-1, max_iters=20, seed=0,
                           sketch_rank=sketch_rank)
        prev, _ = solve(build_qap(sub), cfg)
        kept = np.arange(sub.size**2)
        vmap = np.concatenate([[0], 1 + (kept // sub.size) * full.size + kept % sub.size])
        prob = build_qap(full)
        padded = warm_start_pad(
            prev, prob, Mapping(vmap, qap_submatrix_constraint_map(full, sub.size)), sketch_seed=0
        )
        basis = np.zeros((prob.n, prev.model.k))
        basis[vmap] = prev.model.basis
        assert padded.model.basis.tobytes() == basis.tobytes()
        factor_old, lams_old = sketchmod.reconstruct(prev.model.store.sk)
        factor = np.zeros((prob.n, factor_old.shape[1]))
        factor[vmap] = factor_old
        lams = (prev.scale_x / prob.scale_x) * lams_old
        image = prob.constraints.primal_image_factor(factor, lams)
        assert padded.model.stats.constr_image.tobytes() == image.tobytes()
        assert padded.model.stats.cost_ip == prob.cost_factor_ip(factor, lams)

    @pytest.mark.parametrize("rho", [0.37])
    def test_keeps_prev_rho(self, rho):
        g = random_graph(10, 0.4, 5)
        keep = np.arange(9)
        inside = g.edges_v < 9  # edges_u < edges_v
        sub = GraphInstance.from_arrays(9, g.edges_u[inside], g.edges_v[inside], g.edges_w[inside])
        prev = cold_start(build_maxcut(sub), SolverConfig(k_c=3, k_p=1, sketch_rank=3))
        padded = warm_start_pad(
            replace(prev, rho=rho), build_maxcut(g), Mapping(keep, keep), sketch_seed=0
        )
        assert padded.rho == rho

    def test_out_of_range_mapping(self, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=50, seed=0)
        state, _ = solve(prob, cfg)
        with pytest.raises(ValueError):
            warm_start_pad(state, prob, Mapping(np.array([0, 1, 7]), np.arange(3)))

    @pytest.mark.parametrize("name", ["vertex", "constraint"])
    def test_map_that_is_not_injective(self, name):
        # two old vertices (or rows) onto one new one would give a basis that
        # is not orthonormal (or drop a dual) without a word
        prob = build_maxcut(random_graph(6, 0.6, 62))
        state, _ = solve(prob, SolverConfig(k_c=3, k_p=1, max_iters=3, seed=0, sketch_rank=6))
        maps = {"vertex": np.arange(6), "constraint": np.arange(6)}
        maps[name] = np.array([0, 1, 2, 3, 4, 4])
        with pytest.raises(ValueError, match=f"{name} mapping is not injective: index 4"):
            warm_start_pad(state, prob, Mapping(maps["vertex"], maps["constraint"]))


class TestConvergenceGates:
    @pytest.mark.parametrize("field, value", [("rel_subopt", -2e-3), ("linf_infeas", 2e-3)])
    def test_stop_rule_reads_every_measure(self, field, value):
        """converged means every measure at most eps, the gap in absolute
        value: a gap of -2 eps, or a largest row violation of 2 eps, with
        the rest below eps, is not converged.  lambda_max(C - A*(y)) below
        zero is dual feasible, so dual_feas is not taken absolutely."""
        eps = 1e-3
        below = Residuals(rel_subopt=-eps, rel_infeas=0.5 * eps, linf_infeas=eps, dual_feas=-1.0)
        assert below.converged(eps)
        assert not replace(below, **{field: value}).converged(eps)

    def test_weighted_graph_end_to_end(self):
        rng = np.random.default_rng(91)
        edges = [
            (i, j, float(rng.integers(1, 6)))
            for i in range(12)
            for j in range(i + 1, 12)
            if rng.random() < 0.4
        ]
        from specbundle.rounding import maxcut_round
        from _oracles import brute_force_maxcut

        g = graph_from_edges(12, edges)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=6, k_p=1, eps=1e-4, max_iters=1000, seed=0)
        state, out = solve(prob, cfg)
        assert state.status == "converged"
        best = brute_force_maxcut(g)
        relax = prob.unscale_objective(certified_primal(prob, state.model).cost_ip)
        assert relax >= best - 1e-2  # relaxation upper-bounds the cut
        cut = maxcut_round(out.factor, g)
        assert cut.value <= best + 1e-9

    def test_disconnected_graph(self):
        g = graph_from_edges(6, [(0, 1, 1.0), (2, 3, 1.0)])
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=4, k_p=1, eps=1e-3, max_iters=500, seed=0)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        # both edges are cut in the optimum; unscaled value is 2
        assert prob.unscale_objective(certified_primal(prob, state.model).cost_ip) == pytest.approx(
            2.0, abs=1e-2
        )


class TestColdStartEigensolve:
    @pytest.mark.parametrize("kind", ["maxcut", "mixed"])
    def test_carries_f_and_lambda_at_zero(self, kind):
        if kind == "maxcut":
            prob = build_maxcut(random_graph(30, 0.3, 4))
        else:
            prob, _ = mixed_inequality_problem(12, 2)
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=5)
        state = cold_start(prob, cfg)
        f0, eig0 = penalized_obj(prob, np.zeros(prob.m), cfg, k_c=state.model.k_c)
        assert state.f_y == f0
        assert state.lam_y == float(eig0.eigenvalues[0])
        assert np.array_equal(state.model.basis[:, : state.model.k_c], eig0.eigenvectors)

    def test_cold_solve_spends_one_eigensolve_per_iteration_plus_one(self, monkeypatch):
        from specbundle import bundle

        calls = []
        real = bundle.lanczos_top
        monkeypatch.setattr(
            bundle, "lanczos_top", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        prob = build_maxcut(random_graph(30, 0.3, 4))
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=5, max_iters=3, eps=1e-12)
        state, _ = solve(prob, cfg)
        assert state.iterations == 3
        assert len(calls) == 4

    def test_qap_solve_hands_each_eigensolve_its_slack_array(self, monkeypatch):
        # the explicit QAP slack goes to lanczos_top as an argument, so a
        # wrapper that rebuilds the operator keeps the dense route
        from specbundle import bundle

        calls = []
        real = bundle.lanczos_top

        def wrapped(op, *a, **kw):
            calls.append(kw.get("matrix"))
            bare = LinOp(dim=op.dim, matvec=op.matvec, matmat=op.matmat)
            return real(bare, *a, **kw)

        monkeypatch.setattr(bundle, "lanczos_top", wrapped)
        prob = build_qap(random_qap(4, 6))
        cfg = SolverConfig(k_c=2, k_p=0, max_iters=4, eps=1e-12)
        infos = []
        state, _ = solve(prob, cfg, callback=infos.append)
        assert state.iterations == 4
        assert len(calls) == 5
        assert all(isinstance(z, np.ndarray) and z.shape == (prob.n, prob.n) for z in calls)
        assert all(info.eig_matvecs == 2 and info.eig_restarts == 0 for info in infos)

    def test_sketch_seed_is_the_first_of_two_derived_words(self):
        # one drawn word equals the first of two, so a seed keeps the sketch
        # test matrix that state files saved with two-word draws hold
        from specbundle.bundle import _derived_seed

        seeds = list(range(300)) + [12345, 2**31 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**64 + 5, 10**30]
        for s in seeds:
            two = np.random.SeedSequence(s).generate_state(2)
            assert _derived_seed(s) == int(two[0])
        prob = build_maxcut(random_graph(12, 0.4, 4))
        state = cold_start(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=3, seed=7))
        assert state.model.store.sk.psi_seed == int(np.random.SeedSequence(7).generate_state(2)[0])


def path_graph(n: int) -> GraphInstance:
    u = np.arange(n - 1)
    return GraphInstance.from_arrays(n, u, u + 1, np.ones(n - 1))


class TestNoDensePrimalStore:
    """No setting keeps a dense n x n primal matrix: the store is a sketch."""

    def test_default_settings_store_no_dense_matrix(self):
        """SolverConfig() sketches: at n = 20,000 a dense store would be
        3.2 GB, and cold_start stays far below that."""
        tracemalloc.start()
        try:
            state = cold_start(build_maxcut(path_graph(20_000)), SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(state.model.store, SketchStore)
        assert peak < 64 << 20


class TestCertificateGap:
    def test_converged_maxcut_has_gap_at_most_eps(self):
        """rel_subopt is the gap f(y) - <C, X> over 1 + |<C, X>|, so a run
        that reports "converged" has a certified gap.  With the sign reversed,
        this graph stopped at iteration 47 with a gap of 1.19e-3."""
        eps = 1e-3
        prob = build_maxcut(random_graph(25, 0.3, 7))
        gaps = []

        def callback(info):
            c_x = info.primal.cost_ip
            gap = (info.f_y - c_x) / (1.0 + abs(c_x))
            assert info.residuals.rel_subopt == gap
            gaps.append(gap)

        state, _ = solve(prob, SolverConfig(eps=eps, max_iters=1000, seed=0), callback=callback)
        assert state.status == "converged"
        c_x = certified_primal(prob, state.model).cost_ip
        assert abs(state.f_y - c_x) / (1.0 + abs(c_x)) <= eps
        assert gaps[-1] <= eps


class TestReturnedFactor:
    """The returned factor is the certified primal X+ = Xbar + W W^T: with a
    sketch of rank n its own residuals are the certified ones."""

    @pytest.mark.parametrize("kind", ["maxcut", "mixed"])
    def test_factor_residuals_are_the_certified_ones(self, kind):
        if kind == "maxcut":
            prob = build_maxcut(random_graph(40, 0.2, 3))
            cfg = SolverConfig(sketch_rank=prob.n)  # k_p = 1
        else:
            prob, _ = mixed_inequality_problem(12, 2)
            cfg = SolverConfig(rho=0.1, k_c=5, k_p=2, sketch_rank=prob.n, max_iters=300, seed=0)
        state, out = solve(prob, cfg)
        assert state.status == "converged" and state.model.k_p > 0
        factor_stats = AggregateStats(
            float(out.lams.sum()),
            prob.cost_factor_ip(out.factor, out.lams),
            prob.constraints.primal_image_factor(out.factor, out.lams),
        )
        got = compute_residuals(prob, state.f_y, state.lam_y, factor_stats)
        for field in ("rel_subopt", "rel_infeas", "linf_infeas", "dual_feas"):
            assert getattr(got, field) == pytest.approx(getattr(state.residuals, field), abs=1e-10)


class TestAdaptiveRho:
    @staticmethod
    def res(primal, subopt, dual):
        return Residuals(rel_subopt=subopt, rel_infeas=primal, linf_infeas=primal, dual_feas=dual)

    def test_balance_rule(self):
        # D = max(rel_subopt, dual_feas) against P = rel_infeas
        assert balance_rho(0.01, self.res(1e-3, 3e-3, -1.0), False) == 0.02
        assert balance_rho(0.01, self.res(1e-3, -1.0, 3e-3), True) == 0.02
        assert balance_rho(0.01, self.res(3e-3, 1e-3, 1e-4), True) == 0.005
        assert balance_rho(0.01, self.res(3e-3, 1e-3, 1e-4), False) == 0.01
        # within a factor 2 either way rho stays
        assert balance_rho(0.01, self.res(1e-3, 2e-3, 0.0), True) == 0.01
        assert balance_rho(0.01, self.res(2e-3, 1e-3, 0.0), True) == 0.01

    @pytest.mark.parametrize("kind", ["maxcut", "qap"])
    def test_rho_never_falls_on_a_null_step(self, kind):
        """Over whole solves the weight moves, falls only at descent steps,
        and each record reports the weight its step used."""
        if kind == "maxcut":
            prob = build_maxcut(random_graph(60, 0.2, 4))
            cfg = SolverConfig(k_c=6, k_p=1, sketch_rank=6, eps=1e-4, max_iters=1000, seed=0)
        else:
            # a gap below -eps does not stop: this solve runs 1,022 iterations
            prob = build_qap(random_qap(5, 1))
            cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, eps=1e-2, max_iters=1200,
                               seed=0)
        steps = []
        solve_state, _ = solve(
            prob, cfg, callback=lambda info: steps.append((info.step, info.rho, info.state.rho))
        )
        assert solve_state.status == "converged"
        assert steps[0][1] == cfg.rho
        for (_, _, nxt), (_, used, _) in zip(steps, steps[1:]):
            assert used == nxt
        for step, used, nxt in steps:
            assert nxt in (used, 2.0 * used, 0.5 * used)
            if step == "null":
                assert nxt >= used
        assert any(nxt > used for _, used, nxt in steps)
        if kind == "maxcut":
            assert any(nxt < used for _, used, nxt in steps)


class TestDecisionExit:
    """The candidate eigensolve stops at its decision exit once the step is
    certainly null; a full eigensolve at the same candidate agrees."""

    CFG = SolverConfig(rho=0.01, beta=0.25, k_c=10, k_p=1, sketch_rank=10, seed=0)

    @staticmethod
    def graph(n=2000, seed=1):
        # a uniform random graph of average degree 8, the shape of the
        # benchmark's MaxCut instances
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, (2, 4 * n))
        keep = u != v
        return build_maxcut(GraphInstance.from_arrays(n, u[keep], v[keep], np.ones(keep.sum())))

    @staticmethod
    def full_accuracy(real):
        """``lanczos_top`` without the decision exit's arguments."""

        def full(*args, theta_stop=None, res_max=None, **kwargs):
            return real(*args, **kwargs)

        return full

    def test_every_decision_exit_is_a_null_step_of_the_full_eigensolve(self, monkeypatch):
        from specbundle import bundle

        prob = self.graph()
        real = bundle.lanczos_top
        full = self.full_accuracy(real)
        replayed = []  # the full leading value at each candidate

        def both(op, *args, **kwargs):
            replayed.append(float(full(op, *args, **kwargs).eigenvalues[0]))
            return real(op, *args, **kwargs)

        monkeypatch.setattr(bundle, "lanczos_top", both)
        records = []  # each record with the state's lam_y after its step
        solve(
            prob, replace(self.CFG, eps=1e-12, max_iters=30),
            callback=lambda info: records.append((info, info.state.lam_y)),
        )
        assert len(replayed) == len(records) + 1  # cold_start's eigensolve first
        lam_y = replayed[0]
        decided = 0
        for (info, lam_after), lam_full in zip(records, replayed[1:]):
            if not info.eig_decided:
                lam_y = lam_after
                continue
            decided += 1
            f_full = prob.alpha * max(lam_full, 0.0) + float(prob.b @ info.y_cand)
            assert info.step == "null"
            assert not descent_test(info.f_y, f_full, info.model_val, self.CFG.beta)
            # the exit's values are lower bounds, and lam_y stays as it was
            assert info.lam_cand <= lam_full + 1e-12 * abs(lam_full)
            assert info.f_cand <= f_full
            assert lam_after == lam_y
        assert decided >= 10, decided

    def test_certifies_with_an_exact_lambda_in_fewer_matvecs(self, monkeypatch):
        from scipy.sparse.linalg import LinearOperator, eigsh

        from specbundle import bundle
        from specbundle.problem import dual_slack_operator

        prob = self.graph()
        cfg = replace(self.CFG, eps=1e-3)
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(bundle, "lanczos_top", self.full_accuracy(bundle.lanczos_top))
            infos = []
            state, _ = solve(prob, cfg, callback=infos.append)
            assert state.status == "converged"
            runs.append((state, infos))
        (state, infos), (_, full_infos) = runs
        assert any(info.eig_decided for info in infos)
        assert not any(info.eig_decided for info in full_infos)
        assert sum(i.eig_matvecs for i in infos) < sum(i.eig_matvecs for i in full_infos)
        op = dual_slack_operator(prob, state.y)
        lin = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
        ref = eigsh(lin, k=1, which="LA", tol=1e-12, return_eigenvectors=False)[0]
        assert abs(state.lam_y - ref) <= 1e-8
