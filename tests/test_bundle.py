import functools
from dataclasses import replace

import numpy as np
import pytest

from _oracles import save_state_v1_frozen
from conftest import (
    graph_from_edges,
    make_k3,
    mixed_inequality_problem,
    random_graph,
    random_qap,
    record_store_updates,
)
from specbundle.bundle import (
    AggregateStats,
    ExplicitStore,
    FingerprintMismatch,
    Mapping,
    Residuals,
    SolverConfig,
    _completion_columns,
    balance_rho,
    candidate_iterate,
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
from specbundle.problem import GraphInstance, build_maxcut, build_qap
from specbundle.subqp import assemble_eval_coeffs, ipm_eval


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
            ("sketch_rank", -1),
            ("max_iters", -3),
            ("max_time", -1.0),
            ("max_time", float("nan")),
        ],
    )
    def test_rejects_a_setting_that_breaks_the_solve(self, field, value):
        with pytest.raises(ValueError, match=f"SolverConfig.{field} must be"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("rho", 1e-300), ("max_iters", 0), ("max_time", 0.0), ("eps", 1e300)]
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
        f, eig = penalized_obj(prob, np.zeros(n), cfg)
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
        f, eig = penalized_obj(prob, y, cfg)
        assert eig.eigenvalues[0] == pytest.approx(-1.0, abs=1e-9)
        assert f == pytest.approx(float(prob.b @ y), abs=1e-9)

    def test_infeasible_sentinel(self):
        prob, _ = mixed_inequality_problem(6, 1)
        cfg = SolverConfig(k_c=2, k_p=0)
        y = np.zeros(prob.m)
        y[prob.ineq_idx[0]] = -1e-3
        f, eig = penalized_obj(prob, y, cfg)
        assert f == np.inf and eig is None


class TestCandidateIterate:
    def test_fixed_point(self):
        y = np.array([1.0, -2.0, 0.5])
        b = np.array([0.3, 0.1, -0.2])
        out = candidate_iterate(y, np.zeros(3), b.copy(), b, 0.7, np.array([], dtype=int))
        np.testing.assert_allclose(out, y)

    def test_equality_only_formula(self):
        rng = np.random.default_rng(0)
        y, b, ax = rng.standard_normal((3, 5))
        out = candidate_iterate(y, np.zeros(5), ax, b, 2.0, np.array([], dtype=int))
        np.testing.assert_allclose(out, y - (b - ax) / 2.0)

    def test_clipping_on_inequality_rows(self):
        y = np.zeros(2)
        b = np.array([1.0, 1.0])
        ax = np.array([0.0, 2.0])
        ineq = np.array([0, 1])
        rho = 1.0
        nu = np.minimum(ax + rho * y - b, 0.0)
        out = candidate_iterate(y, nu, ax, b, rho, ineq)
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
        out = candidate_iterate(y, nu, ax, b, rho, ineq)
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
        cfg = SolverConfig(k_c=k_c, k_p=k_p, sketch_rank=0)
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
        model.store.xbar = 0.3 / prob.n * np.eye(prob.n)
        rng = np.random.default_rng(2)
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k_c)))
        before = model.stats.copy()
        new = model_update(model, 1.0, np.zeros((model.k, model.k)), vecs, prob)
        assert new.stats.trace == pytest.approx(before.trace)
        assert new.stats.cost_ip == pytest.approx(before.cost_ip)
        np.testing.assert_allclose(new.stats.constr_image, before.constr_image)

    def test_stats_match_dense_shadow(self, monkeypatch):
        prob, cfg, model = self.setup_model(n=20, k_c=4, k_p=2, seed=3)
        updates = record_store_updates(monkeypatch, ExplicitStore)
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
            np.testing.assert_allclose(shadow, model.store.xbar, atol=1e-9)

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
    def test_each_record_keeps_its_iteration_aggregate(self):
        """Each model owns its primal store: a record kept after the solve
        moves on gives the aggregate its callback saw, bit for bit."""
        prob = build_maxcut(random_graph(30, 0.3, 2))
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=0, eps=1e-12, max_iters=5, seed=0)
        records, seen = [], []

        def keep(info):
            records.append(info)
            out = primal_output(info.model)
            seen.append((out.dense.copy(), out.factor.copy(), out.lams.copy()))

        solve(prob, cfg, callback=keep)
        assert len(records) == 5
        assert len({id(r.model.store) for r in records}) == 5
        for info, (dense, factor, lams) in zip(records, seen):
            out = primal_output(info.model)
            np.testing.assert_array_equal(out.dense, dense)
            np.testing.assert_array_equal(out.factor, factor)
            np.testing.assert_array_equal(out.lams, lams)
        assert not np.array_equal(seen[0][0], seen[-1][0])

    def test_update_leaves_the_old_store_as_it_was(self):
        prob = build_maxcut(random_graph(12, 0.4, 1))
        for rank in (0, 4):
            store = cold_start(prob, SolverConfig(k_c=3, k_p=1, sketch_rank=rank)).model.store
            before = store.xbar.copy() if rank == 0 else store.sk.sketch_mat.copy()
            new = store.update(0.5, np.eye(prob.n, 2), np.array([0.3, 0.1]))
            assert type(new) is type(store) and new is not store
            after = store.xbar if rank == 0 else store.sk.sketch_mat
            np.testing.assert_array_equal(after, before)


class TestResiduals:
    def test_feasible_point_zero_infeas(self):
        prob = build_maxcut(make_k3())
        stats = AggregateStats(1.0, 0.5, prob.b.copy())
        r = compute_residuals(prob, np.zeros(3), 0.7, 0.0, stats)
        assert r.rel_infeas == 0.0 and r.linf_infeas == 0.0

    def test_upper_bound_property_after_solve(self):
        g = random_graph(20, 0.3, 10)
        prob = build_maxcut(g)
        cfg = SolverConfig(k_c=8, k_p=1, eps=1e-5, max_iters=2000, seed=0)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        p_star = state.last_primal.cost_ip
        # any dual value bounds the optimum from above
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = state.y + 0.01 * rng.standard_normal(prob.m)
            f, _ = penalized_obj(prob, y, cfg)
            assert f >= p_star - 1e-4


class TestSolveEndToEnd:
    def test_k3_analytic(self, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0)
        state, out = solve(prob, cfg)
        assert state.status == "converged"
        obj = prob.unscale_objective(state.last_primal.cost_ip)
        assert obj == pytest.approx(9 / 4, abs=1e-2)

    def test_dual_feasibility_dense_check(self):
        g = random_graph(10, 0.5, 20)
        prob = build_maxcut(g)
        cfg = SolverConfig(eps=1e-3, max_iters=1000, seed=1)
        state, _ = solve(prob, cfg)
        assert state.status == "converged"
        z = prob.cost.toarray() - np.diag(state.y)
        assert np.linalg.eigvalsh(z).max() <= cfg.eps + 1e-9

    def test_monotone_objective_and_feasible_duals(self):
        prob, _ = mixed_inequality_problem(10, 3)
        cfg = SolverConfig(rho=0.1, k_c=5, k_p=1, eps=1e-3, max_iters=300, seed=0)
        f_values = []

        def cb(info):
            f_values.append(info.f_y)
            assert np.min(info.y[prob.ineq_idx], initial=0.0) >= 0.0

        state, _ = solve(prob, cfg, callback=cb)
        assert all(b <= a + 1e-12 for a, b in zip(f_values, f_values[1:]))

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

    @pytest.mark.parametrize("rank", [0, 5])
    def test_solve_leaves_init_untouched(self, rank):
        """``solve(prob, cfg, init=s)`` works on a copy: s keeps its point,
        model, weight and step counts, and two solves from s agree."""
        prob = build_maxcut(random_graph(30, 0.3, 2))
        cfg = SolverConfig(k_c=4, k_p=1, sketch_rank=rank, eps=1e-12, max_iters=4, seed=0)

        def snapshot(st):
            store = st.model.store
            mat = store.xbar if rank == 0 else store.sk.sketch_mat
            arrays = [a.copy() for a in (st.y, st.nu, st.model.basis, st.model.stats.constr_image, mat)]
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

    def test_sketch_and_explicit_agree(self):
        # the sketch changes only the primal store: the dual path is
        # identical, and the reconstruction approximates the exact aggregate
        # up to the tail beyond the sketch rank
        g = random_graph(30, 0.3, 50)
        prob = build_maxcut(g)
        cfg_e = SolverConfig(k_c=6, k_p=1, eps=1e-3, max_iters=500, seed=4, sketch_rank=0)
        cfg_s = SolverConfig(k_c=6, k_p=1, eps=1e-3, max_iters=500, seed=4, sketch_rank=10)
        se, oe = solve(prob, cfg_e)
        ss, os_ = solve(prob, cfg_s)
        assert se.iterations == ss.iterations
        np.testing.assert_allclose(se.y, ss.y, atol=1e-12)
        assert ss.last_primal.trace == pytest.approx(se.last_primal.trace, abs=1e-12)
        assert ss.last_primal.cost_ip == pytest.approx(se.last_primal.cost_ip, abs=1e-12)
        xe = oe.dense
        xs = (os_.factor * os_.lams[None, :]) @ os_.factor.T
        assert np.linalg.norm(xe - xs) <= 0.1 * np.linalg.norm(xe)


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
        np.testing.assert_array_equal(state2.nu, state.nu)
        np.testing.assert_array_equal(state2.model.basis, state.model.basis)
        assert state2.f_y == state.f_y
        assert state2.model.stats.trace == state.model.stats.trace
        np.testing.assert_array_equal(
            state2.model.store.sk.sketch_mat, state.model.store.sk.sketch_mat
        )

    def test_fingerprint_rejects_other_problem(self, tmp_path, k3):
        prob = build_maxcut(k3)
        cfg = SolverConfig(eps=1e-3, max_iters=50, seed=0)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        save_state(path, state, prob)
        other = build_maxcut(random_graph(4, 0.9, 0))
        with pytest.raises(FingerprintMismatch):
            state_from_record(load_state(path), other)

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
        prob = build_maxcut(random_graph(12, 0.4, 3))
        cfg = SolverConfig(k_c=3, k_p=1, eps=1e-12, max_iters=3, seed=0, sketch_rank=3)
        state, _ = solve(prob, cfg)
        path = tmp_path / "s.bin"
        for rho in (state.rho, 0.1 + 2.0**-50, 1e-300, None):
            save_state(path, replace(state, rho=rho), prob)
            assert state_from_record(load_state(path), prob).rho == rho
        assert path.read_bytes()[4:8] == (2).to_bytes(4, "little")

    @pytest.mark.parametrize("rank", [0, 3])
    def test_version_1_file_resumes_at_cfg_rho(self, tmp_path, rank):
        """A file of format version 1 has no rho: it loads with rho None and
        resumes exactly as the same state started at cfg.rho."""
        prob = build_maxcut(random_graph(12, 0.4, 3))
        cfg = SolverConfig(k_c=3, k_p=1, eps=1e-12, max_iters=3, seed=0, sketch_rank=rank)
        state, _ = solve(prob, cfg)
        assert state.rho != cfg.rho
        v1, v2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
        save_state_v1_frozen(v1, state, prob)
        save_state(v2, replace(state, rho=cfg.rho), prob)
        old = state_from_record(load_state(v1), prob)
        assert old.rho is None
        infos = []
        resumed, _ = solve(prob, cfg, init=old, callback=infos.append)
        assert infos[0].rho == cfg.rho
        again, _ = solve(prob, cfg, init=state_from_record(load_state(v2), prob))
        np.testing.assert_array_equal(resumed.y, again.y)
        assert resumed.rho == again.rho
        # the payloads agree; only the header grew by one float64
        assert v1.read_bytes()[121:] == v2.read_bytes()[129:]

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf])
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
        cfg = SolverConfig(eps=1e-3, max_iters=200, seed=0, sketch_rank=0)
        state, _ = solve(prob, cfg)
        mapping = Mapping(np.arange(3), np.arange(3))
        padded = warm_start_pad(state, prob, mapping)
        np.testing.assert_allclose(padded.y, state.y)
        np.testing.assert_allclose(padded.nu, state.nu)
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
        np.testing.assert_array_equal(padded.nu[9:], 0.0)
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
        mats = [big.constraints.adjoint_matrix(e).toarray() for e in np.eye(big.m)]
        ratio = np.array([np.sum(a * cost) / np.sum(a * a) for a in mats])
        kept = ratio[:18] != 0
        r = np.median(state.y[kept] / ratio[:18][kept])
        assert r > 0
        new = padded.y[18:]
        assert np.any(ratio[18:] < 0) and np.any(ratio[18:] > 0)
        np.testing.assert_allclose(new, np.maximum(r * ratio[18:], 0.0), rtol=1e-12, atol=0)
        assert np.all(new >= 0.0)
        f, _ = penalized_obj(big, padded.y, self.CFG)
        assert np.isfinite(f)

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

    @pytest.mark.parametrize("sketch_rank", [0, 3])
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
        factor_old, lams_old = prev.model.store.factorize()
        factor = np.zeros((prob.n, factor_old.shape[1]))
        factor[vmap] = factor_old
        lams = (prev.scale_x / prob.scale_x) * lams_old
        image = prob.constraints.primal_image_factor(factor, lams)
        assert padded.model.stats.constr_image.tobytes() == image.tobytes()
        assert padded.model.stats.cost_ip == prob.cost_factor_ip(factor, lams)

    @pytest.mark.parametrize("rho", [0.37, None])
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

    def test_dense_store_refused_above_limit_before_factorize(self, monkeypatch):
        from specbundle import bundle

        monkeypatch.setattr(bundle, "MAX_EXPLICIT_N", 12)
        g_small = random_graph(10, 0.5, 61)
        prev = cold_start(build_maxcut(g_small), SolverConfig(k_c=3, k_p=1, sketch_rank=0))
        edges = list(
            zip(g_small.edges_u.tolist(), g_small.edges_v.tolist(), g_small.edges_w.tolist())
        )

        def no_factorize(self):
            raise AssertionError("factorize before the size check")

        mapping = Mapping(np.arange(10), np.arange(10))
        big = build_maxcut(graph_from_edges(14, edges + [(0, 13, 1.0)]))
        with monkeypatch.context() as m:
            m.setattr(bundle.ExplicitStore, "factorize", no_factorize)
            with pytest.raises(ValueError, match="sketch_rank"):
                warm_start_pad(prev, big, mapping)
        at_limit = build_maxcut(graph_from_edges(12, edges + [(0, 11, 1.0)]))
        padded = warm_start_pad(prev, at_limit, mapping)
        assert padded.model.store.xbar.shape == (12, 12)

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
        state, _ = solve(prob, SolverConfig(k_c=3, k_p=1, max_iters=3, seed=0, sketch_rank=0))
        maps = {"vertex": np.arange(6), "constraint": np.arange(6)}
        maps[name] = np.array([0, 1, 2, 3, 4, 4])
        with pytest.raises(ValueError, match=f"{name} mapping is not injective: index 4"):
            warm_start_pad(state, prob, Mapping(maps["vertex"], maps["constraint"]))


class TestConvergenceGates:
    def test_linf_check_gates_convergence(self):
        g = random_graph(25, 0.3, 90)
        prob = build_maxcut(g)
        loose = SolverConfig(k_c=5, k_p=1, eps=1e-2, max_iters=400, seed=0)
        state, _ = solve(prob, loose)
        assert state.status == "converged"
        strict = SolverConfig(
            k_c=5, k_p=1, eps=1e-2, max_iters=state.iterations, seed=0, linf_check=True
        )
        state2, _ = solve(prob, strict)
        if state2.status == "converged":
            assert state2.residuals.linf_infeas <= 1e-2
        else:
            # the extra gate withheld convergence within the same budget
            assert state2.residuals.linf_infeas > 1e-2 or state2.iterations == state.iterations

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
        relax = prob.unscale_objective(state.last_primal.cost_ip)
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
        assert prob.unscale_objective(state.last_primal.cost_ip) == pytest.approx(
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


def path_graph(n: int) -> GraphInstance:
    u = np.arange(n - 1)
    return GraphInstance.from_arrays(n, u, u + 1, np.ones(n - 1))


class TestExplicitStoreLimit:
    def test_dense_store_rejected_above_limit_before_eigensolve(self, monkeypatch):
        from specbundle import bundle

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the size check")

        monkeypatch.setattr(bundle, "lanczos_top", no_eigensolve)
        prob = build_maxcut(path_graph(bundle.MAX_EXPLICIT_N + 1))
        with pytest.raises(ValueError, match="sketch_rank"):
            cold_start(prob, SolverConfig(sketch_rank=0))
        with pytest.raises(ValueError, match="sketch_rank"):
            solve(prob, SolverConfig(sketch_rank=0))

    def test_limit_is_inclusive_and_sketch_is_exempt(self, monkeypatch):
        from specbundle import bundle

        monkeypatch.setattr(bundle, "MAX_EXPLICIT_N", 6)
        at_limit = cold_start(build_maxcut(path_graph(6)), SolverConfig(k_c=2, sketch_rank=0))
        assert isinstance(at_limit.model.store, bundle.ExplicitStore)
        above = build_maxcut(path_graph(7))
        with pytest.raises(ValueError, match="sketch_rank"):
            cold_start(above, SolverConfig(k_c=2, sketch_rank=0))
        sketched = cold_start(above, SolverConfig(k_c=2, sketch_rank=3))
        assert isinstance(sketched.model.store, bundle.SketchStore)


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
        c_x = state.last_primal.cost_ip
        assert (state.f_y - c_x) / (1.0 + abs(c_x)) <= eps
        assert gaps[-1] <= eps


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
            prob = build_qap(random_qap(5, 1))
            cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, eps=1e-2, max_iters=400,
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
