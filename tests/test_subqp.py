import copy

import numpy as np
import pytest
from dataclasses import replace

from conftest import make_k3, mixed_inequality_problem
from _oracles import (
    all_row_quad_coeffs,
    alternation_reference,
    candidate_iterate_frozen,
    eval_coeffs_reference,
    full_newton_residual,
    ipm_solve_frozen,
    line_search_frozen,
    newton_direction_frozen,
    pg_quad_oracle,
    proximal_slack,
    psi_value,
    quad_coeffs_reference,
    random_quad_coeffs,
)
from conftest import random_graph, random_qap
from _ipm_steps import (
    barrier_update,
    line_search_feasible,
    newton_direction,
    solve_quad,
    strictly_feasible,
)
from specbundle import bundle, problem, subqp
from specbundle.bundle import SolverConfig, cold_start
from conftest import build_from_families
from specbundle.problem import build_maxcut, build_qap
from specbundle.subqp import (
    EvalCoeffs,
    IpmResult,
    IpmState,
    QuadCoeffs,
    StepFailureError,
    alternating_max,
    assemble_eval_coeffs,
    ipm_eval,
)
from specbundle.subqp import Direction
from specbundle.symlin import svec, svec_dim, svec_inv


def zero_cost_diag_problem(n):
    """Diagonal equality constraints with zero cost, for assembly examples."""
    idx = np.arange(n)
    return build_from_families(
        n, np.zeros((n, n)), (idx, idx, idx, np.ones(n)), np.ones(n), [False] * n
    )


def eval_coeffs(g_mat, g2=None):
    k = g_mat.shape[0]
    return EvalCoeffs(
        lin_s=svec(g_mat),
        lin_eta=0.0 if g2 is None else g2,
        has_eta=g2 is not None,
        k=k,
    )


def random_feasible_state(rng, k, has_eta):
    b = rng.standard_normal((k, k))
    s = b @ b.T / k + 0.05 * np.eye(k)
    s *= 0.4 / np.trace(s)
    c = rng.standard_normal((k, k))
    t = c @ c.T / k + 0.1 * np.eye(k)
    eta = 0.15 if has_eta else 0.0
    st = IpmState(
        s_mat=s,
        eta=eta,
        t_mat=t,
        zeta=0.7 if has_eta else 0.0,
        omega=0.9,
        mu=1e-2,
        has_eta=has_eta,
    )
    assert st.trace_slack() > 0
    return st


def random_quad(rng, k, has_eta, include_quad=True):
    sd = svec_dim(k)
    if include_quad:
        a = rng.standard_normal((sd + 2, sd))
        q = a.T @ a / (sd + 2)
        z = rng.standard_normal(sd + 2)
        q12 = a.T @ z / (sd + 2) if has_eta else np.zeros(sd)
        q22 = float(z @ z / (sd + 2)) if has_eta else 0.0
    else:
        q = np.zeros((sd, sd))
        q12 = np.zeros(sd)
        q22 = 0.0
    return QuadCoeffs(
        quad_ss=q,
        quad_s_eta=q12,
        quad_eta=q22,
        lin_s=rng.standard_normal(sd),
        lin_eta=float(rng.standard_normal()) if has_eta else 0.0,
        has_eta=has_eta,
        k=k,
    )


class TestAssembleEval:
    def test_all_zero(self):
        prob = zero_cost_diag_problem(4)
        cfg = SolverConfig(k_c=2, k_p=0)
        model = cold_start(prob, cfg).model
        coeffs = assemble_eval_coeffs(prob, model, np.zeros(4), prob.cost_quad(model.basis))
        np.testing.assert_array_equal(coeffs.lin_s, np.zeros(3))
        assert coeffs.lin_eta == 0.0
        assert not coeffs.has_eta  # empty aggregate disables the eta block

    def test_diagonal_operator_single_column(self):
        prob = zero_cost_diag_problem(3)
        cfg = SolverConfig(k_c=1, k_p=0)
        state = cold_start(prob, cfg)
        state.model.basis = np.eye(3)[:, :1]
        y = np.array([1.0, 0.0, 0.0])
        coeffs = assemble_eval_coeffs(prob, state.model, y, prob.cost_quad(state.model.basis))
        np.testing.assert_allclose(coeffs.lin_s, prob.alpha * svec(np.eye(1)))

    def test_matches_dense_materialization(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=1)
        model = cold_start(prob, cfg).model
        rng = np.random.default_rng(0)
        y = rng.standard_normal(3)
        coeffs = assemble_eval_coeffs(prob, model, y, prob.cost_quad(model.basis))
        v = model.basis
        dense = v.T @ (np.diag(y) - prob.cost.toarray()) @ v
        np.testing.assert_allclose(coeffs.lin_s, prob.alpha * svec(dense), atol=1e-10)


class TestIpmEval:
    def test_negative_identity_full_budget(self):
        res = ipm_eval(eval_coeffs(-np.eye(3), -1.0))
        assert res.value == pytest.approx(-1.0, abs=1e-6)

    def test_nonnegative_diagonal_stays_home(self):
        res = ipm_eval(eval_coeffs(np.diag([0.5, 2.0]), 0.3))
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_analytic_simplex_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            g = rng.standard_normal((k, k))
            g = 0.5 * (g + g.T)
            g2 = float(rng.standard_normal())
            has_eta = bool(rng.integers(0, 2))
            coeffs = eval_coeffs(g, g2 if has_eta else None)
            res = ipm_eval(coeffs)
            lam_min = float(np.linalg.eigvalsh(g)[0])
            oracle = min(lam_min, g2, 0.0) if has_eta else min(lam_min, 0.0)
            assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_closed_form_vertex(self):
        """The value is the analytic minimum to rounding, and the returned
        vertex lies in the budget set and attains it."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            g = rng.standard_normal((k, k))
            g = 0.5 * (g + g.T) + float(rng.uniform(-1.0, 3.0)) * np.eye(k)
            g2 = float(rng.standard_normal())
            has_eta = bool(rng.integers(0, 2))
            res = ipm_eval(eval_coeffs(g, g2 if has_eta else None))
            lam_min = float(np.linalg.eigvalsh(g)[0])
            oracle = min(lam_min, g2, 0.0) if has_eta else min(lam_min, 0.0)
            assert abs(res.value - oracle) <= 1e-12 * (1.0 + abs(oracle))
            assert res.newton_iters == 0 and res.exact and res.state is None
            s = res.s_opt
            assert np.array_equal(s, s.T) and np.linalg.eigvalsh(s)[0] >= -1e-12
            assert res.eta_opt >= 0.0 and (has_eta or res.eta_opt == 0.0)
            assert np.trace(s) + res.eta_opt <= 1.0 + 1e-12
            attained = float(np.sum(g * s)) + (g2 * res.eta_opt if has_eta else 0.0)
            assert abs(attained - res.value) <= 1e-12 * (1.0 + abs(oracle))


def frozen_eval(coeffs):
    """The model value by the frozen interior-point loop, on the
    zero-quadratic coefficients, as the solver computed it before."""
    sd = svec_dim(coeffs.k)
    as_quad = QuadCoeffs(
        quad_ss=np.zeros((sd, sd)), quad_s_eta=np.zeros(sd), quad_eta=0.0,
        lin_s=coeffs.lin_s, lin_eta=coeffs.lin_eta, has_eta=coeffs.has_eta, k=coeffs.k,
    )
    return IpmResult(*ipm_solve_frozen(as_quad, None))


class TestEvalDecisions:
    """The closed-form model value takes every descent/null decision the
    interior-point value took, so the iterates do not move."""

    def run(self, prob, cfg, evaluate=None, monkeypatch=None):
        if evaluate is not None:
            monkeypatch.setattr(bundle, "ipm_eval", evaluate)
        records = []
        bundle.solve(
            prob, cfg, callback=lambda info: records.append((info.step, info.y, info.model_val))
        )
        if evaluate is not None:
            monkeypatch.undo()
        return records

    @pytest.mark.parametrize("case", ["maxcut", "qap"])
    def test_same_steps_and_iterates(self, monkeypatch, case):
        if case == "maxcut":
            from conftest import random_graph

            prob = build_maxcut(random_graph(30, 0.2, 5))
            cfg = SolverConfig(k_c=4, k_p=1, eps=1e-4, max_iters=60, seed=1)
        else:
            prob = build_qap(random_qap(5, seed=2))
            cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, eps=1e-12, max_iters=25)
        closed = self.run(prob, cfg)
        frozen = self.run(prob, cfg, frozen_eval, monkeypatch)
        assert len(closed) == len(frozen) >= 20
        assert [r[0] for r in closed] == [r[0] for r in frozen]
        assert {r[0] for r in closed} == {"descent", "null"}
        for (_, y, val), (_, y_ref, val_ref) in zip(closed, frozen):
            assert np.array_equal(y, y_ref)
            assert abs(val - val_ref) <= 1e-8


class TestAssembleQuad:
    def test_large_rho_reduces_to_eval(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=1)
        model = cold_start(prob, cfg).model
        rng = np.random.default_rng(1)
        y = np.abs(rng.standard_normal(3))
        quad = all_row_quad_coeffs(prob, model, y, rho=1e12)
        ev = assemble_eval_coeffs(prob, model, y, prob.cost_quad(model.basis))
        scale = np.abs(ev.lin_s).max() + 1.0
        assert np.abs(quad.lin_s - ev.lin_s).max() <= 1e-4 * scale
        assert np.abs(quad.quad_ss).max() <= 1e-4

    def test_maxcut_identity_basis_pattern(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=3, k_p=0)
        state = cold_start(prob, cfg)
        state.model.basis = np.eye(3)
        rho = 0.5
        quad = all_row_quad_coeffs(prob, state.model, np.zeros(3), rho)
        expected = np.zeros((6, 6))
        for i in range(3):
            row = svec(np.outer(np.eye(3)[i], np.eye(3)[i]))
            expected += np.outer(row, row)
        expected *= prob.alpha**2 / rho
        np.testing.assert_allclose(quad.quad_ss, expected, atol=1e-12)
        # diagonal with ones exactly at the three diagonal svec positions
        diag_positions = [0, 3, 5]
        for p in diag_positions:
            assert quad.quad_ss[p, p] == pytest.approx(prob.alpha**2 / rho)

    def test_quad_ss_psd(self):
        prob, _ = mixed_inequality_problem(10, 2)
        cfg = SolverConfig(k_c=4, k_p=1)
        model = cold_start(prob, cfg).model
        quad = all_row_quad_coeffs(prob, model, np.zeros(prob.m), rho=0.1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.standard_normal(quad.quad_ss.shape[0])
            assert z @ quad.quad_ss @ z >= -1e-10


class TestIpmQuad:
    def test_scalar_boundary(self):
        coeffs = QuadCoeffs(
            quad_ss=np.array([[1.0]]),
            quad_s_eta=np.zeros(1),
            quad_eta=0.0,
            lin_s=np.array([-1.0]),
            lin_eta=0.0,
            has_eta=False,
            k=1,
        )
        res = solve_quad(coeffs)
        assert res.s_opt[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert res.value == pytest.approx(-0.5, abs=1e-6)

    def test_zero_linear_stays_home(self):
        coeffs = QuadCoeffs(
            quad_ss=np.eye(3),
            quad_s_eta=np.zeros(3),
            quad_eta=0.0,
            lin_s=np.zeros(3),
            lin_eta=0.0,
            has_eta=False,
            k=2,
        )
        res = solve_quad(coeffs)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert np.abs(res.s_opt).max() <= 1e-3

    def test_descent_from_origin_and_above_unconstrained_min(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            coeffs = random_quad(rng, 3, has_eta=True)
            res = solve_quad(coeffs)
            assert res.value <= 1e-9  # no worse than (S, eta) = 0
            # unconstrained minimum of the joint quadratic bounds from below
            sd = svec_dim(3)
            h_full = np.concatenate([coeffs.lin_s, [coeffs.lin_eta]])
            q_full = np.zeros((sd + 1, sd + 1))
            q_full[:sd, :sd] = coeffs.quad_ss
            q_full[:sd, sd] = coeffs.quad_s_eta
            q_full[sd, :sd] = coeffs.quad_s_eta
            q_full[sd, sd] = coeffs.quad_eta
            x = np.linalg.lstsq(q_full, -h_full, rcond=None)[0]
            lower = 0.5 * x @ q_full @ x + h_full @ x
            assert res.value >= lower - 1e-8

    def test_matches_frozen_projected_gradient_oracle(self):
        import json
        from pathlib import Path

        path = Path(__file__).parent / "data_quad_oracle.json"
        frozen = json.loads(path.read_text())
        assert frozen["steps"] == 10**6
        for seed_str, expected in frozen["values"].items():
            coeffs = random_quad_coeffs(int(seed_str))
            res = solve_quad(coeffs)
            assert res.value == pytest.approx(expected, abs=1e-5), seed_str

    @pytest.mark.skipif(
        "not config.getoption('--regenerate-oracles', default=False)",
        reason="long-running oracle regeneration",
    )
    def test_live_projected_gradient_agreement(self):
        coeffs = random_quad_coeffs(0)
        res = solve_quad(coeffs)
        oracle = pg_quad_oracle(coeffs, steps=10**6)
        assert res.value == pytest.approx(oracle, abs=1e-5)


class TestBarrierUpdate:
    def make_state(self):
        return IpmState(
            s_mat=0.1 * np.eye(2),
            eta=0.1,
            t_mat=np.eye(2),
            zeta=1.0,
            omega=1.0,
            mu=1.0,
            has_eta=True,
        )

    def test_gamma_one_at_fifth(self):
        st = self.make_state()
        est = st.complementarity() / (2.0 * st.pairs())
        assert barrier_update(st, 0.2) == pytest.approx(min(st.mu, est))

    def test_gamma_tenth_at_one(self):
        st = self.make_state()
        st.mu = 1e9  # force the estimate branch
        est = st.complementarity() / (2.0 * st.pairs())
        assert barrier_update(st, 1.0) == pytest.approx(0.1 * est)

    def test_never_increases(self):
        st = self.make_state()
        st.mu = 1e-12
        assert barrier_update(st, 0.5) <= st.mu


class TestLineSearch:
    def test_zero_direction_full_step(self):
        rng = np.random.default_rng(5)
        st = random_feasible_state(rng, 3, True)
        d = Direction(
            ds_vec=np.zeros(svec_dim(3)), deta=0.0, dt_vec=np.zeros(svec_dim(3)),
            dzeta=0.0, domega=0.0,
        )
        assert line_search_feasible(st, d) == 1.0

    def test_boundary_hit_strictly_interior(self):
        rng = np.random.default_rng(6)
        st = random_feasible_state(rng, 2, True)
        d = Direction(
            ds_vec=np.zeros(3), deta=-st.eta, dt_vec=np.zeros(3), dzeta=0.0, domega=0.0
        )
        delta = line_search_feasible(st, d)
        assert delta < 1.0
        assert st.eta + delta * d.deta > 0.0

    def test_random_direction_keeps_feasibility(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            st = random_feasible_state(rng, 3, True)
            d = Direction(
                ds_vec=rng.standard_normal(6),
                deta=float(rng.standard_normal()),
                dt_vec=rng.standard_normal(6),
                dzeta=float(rng.standard_normal()),
                domega=float(rng.standard_normal()),
            )
            delta = line_search_feasible(st, d)
            stepped = IpmState(
                s_mat=st.s_mat + delta * svec_inv(d.ds_vec),
                eta=st.eta + delta * d.deta,
                t_mat=st.t_mat + delta * svec_inv(d.dt_vec),
                zeta=st.zeta + delta * d.dzeta,
                omega=st.omega + delta * d.domega,
                mu=st.mu,
                has_eta=True,
            )
            assert strictly_feasible(stepped)

    def test_nonfinite_direction_rejected(self):
        rng = np.random.default_rng(8)
        st = random_feasible_state(rng, 2, True)
        d = Direction(
            ds_vec=np.full(3, np.nan), deta=0.0, dt_vec=np.zeros(3), dzeta=0.0, domega=0.0
        )
        with pytest.raises(StepFailureError):
            line_search_feasible(st, d)


class TestEliminatedSystem:
    def test_direction_satisfies_full_system(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for trial in range(20):
            k = int(rng.integers(2, 5))
            has_eta = trial % 2 == 0
            # alternate between the linear-objective and quadratic systems
            coeffs = random_quad(rng, k, has_eta, include_quad=bool(trial % 3))
            st = random_feasible_state(rng, k, has_eta)
            mu = 10.0 ** float(rng.uniform(-6, -1))
            d = newton_direction(coeffs, st, mu)
            worst = max(worst, full_newton_residual(coeffs, st, mu, d))
        assert worst <= 1e-8


class TestAlternatingMax:
    def test_equality_only_single_pass(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=1)
        model = cold_start(prob, cfg).model
        res = alternating_max(prob, model, np.zeros(3), rho=0.5)
        assert res.passes == 1

    def test_psi_monotone_across_half_steps(self):
        """The reference alternation never lowers the coupling, and the one
        interior-point solve ends at least as high."""
        prob, _ = mixed_inequality_problem(10, 5)
        cfg = SolverConfig(k_c=4, k_p=0, rho=0.1)
        model = cold_start(prob, cfg).model
        rng = np.random.default_rng(11)
        y = np.abs(rng.standard_normal(prob.m)) * 0.05
        # set up a nonzero aggregate so the eta block participates
        from specbundle.bundle import model_update

        alt0 = alternating_max(prob, model, y, cfg.rho)
        vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k)))
        model = model_update(model, alt0.eta, alt0.s_mat, vecs[:, : model.k_c], prob)

        values = []
        alternation_reference(prob, model, y, cfg.rho, max_passes=8, values=values)
        assert len(values) == 16
        tol = 1e-8 * (1.0 + max(abs(v) for v in values))
        assert all(b >= a - tol for a, b in zip(values, values[1:]))
        one = alternating_max(prob, model, y, cfg.rho)
        nu = proximal_slack(prob, y, cfg.rho, one.a_x)
        assert psi_value(prob, y, cfg.rho, step_cost(model, one), one.a_x, nu) >= values[-1] - tol

    def test_capped_state_solves_exactly(self):
        """With the CLI's QAP settings, the state the first iteration leaves
        stopped the old alternation at its 50-pass cap at the initial
        weight.  One interior-point solve now solves it exactly.  MaxCut has
        a single piece."""
        prob = build_qap(random_qap(5, 1))
        cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=5, max_iters=1)
        infos = []
        state, _ = bundle.solve(prob, cfg, callback=infos.append)
        assert infos[0].alt_exact is True
        bundle.solve(prob, cfg, init=replace(state, rho=cfg.rho), callback=infos.append)
        assert infos[1].rho == cfg.rho
        assert infos[1].alt_exact is True and infos[1].alt_passes > 1

        prob = build_maxcut(make_k3())
        infos = []
        bundle.solve(prob, SolverConfig(max_iters=1), callback=infos.append)
        assert infos[0].alt_passes == 1 and infos[0].alt_exact is True

    @pytest.mark.parametrize(
        "make_prob, cfg",
        [
            (lambda: build_maxcut(random_graph(30, 0.3, 4)), SolverConfig(max_iters=8)),
            (
                lambda: build_qap(random_qap(5, 1)),
                SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, max_iters=6),
            ),
        ],
        ids=["maxcut", "qap"],
    )
    def test_newton_steps_recorded(self, monkeypatch, make_prob, cfg):
        """Each outer iteration runs one interior-point solve, and
        ``alt_newton`` is its Newton steps."""
        steps = []
        real = subqp.ipm_quad

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            steps.append(res.newton_iters)
            return res

        monkeypatch.setattr(subqp, "ipm_quad", counted)
        records = []

        def callback(info):
            records.append((info.alt_newton, info.alt_passes, list(steps)))
            steps.clear()

        prob = make_prob()
        bundle.solve(prob, cfg, callback=callback)
        assert len(records) == cfg.max_iters
        for newton, passes, calls in records:
            assert calls == [newton] and newton > 0
            assert passes >= 1 and (prob.ineq_idx.size > 0 or passes == 1)

    def test_trace_budget_respected(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=3, k_p=0)
        model = cold_start(prob, cfg).model
        res = alternating_max(prob, model, np.zeros(3), rho=0.01)
        assert res.eta * model.stats.trace + np.trace(res.s_mat) <= prob.alpha + 1e-9


def qap_states():
    """(label, problem, model, y, rho) after each of the first four QAP n=5
    iterations at the CLI's settings, at the weight the next iteration
    uses, and the first of them at the initial weight: the state where the
    old alternation stopped at its pass cap."""
    prob = build_qap(random_qap(5, 1))
    cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=5, max_iters=1)
    out, state = [], None
    for it in range(4):
        state, _ = bundle.solve(prob, cfg, init=state)
        if it == 0:
            out.append(("capped", prob, state.model, state.y, cfg.rho))
        out.append((f"iteration-{it}", prob, state.model, state.y, state.rho))
    return out


def mixed_states():
    """Cold and updated models of two mixed problems at a positive y."""
    out = []
    for seed, updated in ((2, False), (2, True), (5, False)):
        prob, _ = mixed_inequality_problem(8, seed)
        rho = 0.1
        model = cold_start(prob, SolverConfig(k_c=3, k_p=0, rho=rho)).model
        rng = np.random.default_rng(11)
        y = np.abs(rng.standard_normal(prob.m)) * 0.05
        if updated:
            from specbundle.bundle import model_update

            alt0 = alternating_max(prob, model, y, rho)
            vecs, _ = np.linalg.qr(rng.standard_normal((prob.n, model.k)))
            model = model_update(model, alt0.eta, alt0.s_mat, vecs[:, : model.k_c], prob)
        out.append((f"seed-{seed}-{'updated' if updated else 'cold'}", prob, model, y, rho))
    return out


def step_cost(model, step) -> float:
    """<C, X+> of a proximal step, X+ = eta Xbar + V S V^T."""
    return step.eta * model.stats.cost_ip + float(np.sum(step.cost_quad * step.s_mat))


def assert_matches_alternation(prob, model, y, rho):
    one = alternating_max(prob, model, y, rho)
    ref = alternation_reference(prob, model, y, rho)
    assert one.exact and ref["exact"]
    np.testing.assert_allclose(one.a_x, ref["a_x"], rtol=0, atol=1e-9)
    c_one = step_cost(model, one)
    psi_one = psi_value(prob, y, rho, c_one, one.a_x, proximal_slack(prob, y, rho, one.a_x))
    psi_ref = psi_value(prob, y, rho, ref["c_x"], ref["a_x"], ref["nu"])
    assert abs(psi_one - psi_ref) <= 1e-10 * abs(psi_ref)


class TestOneSolveMatchesAlternation:
    """The one interior-point solve on the objective with the slack
    eliminated reaches the optimum that the reference alternation (warm
    started, tolerance 1e-14 on the slack) converges to."""

    def test_qap_states(self):
        for _, prob, model, y, rho in qap_states():
            assert_matches_alternation(prob, model, y, rho)

    def test_mixed_inequality_states(self, monkeypatch):
        """On these problems both methods stop about 1e-7 from the optimum
        at the default interior-point exit, which bounds each Newton solve's
        stationarity relative to its coefficients.  Both exits are
        tightened here, so the comparison tests the elimination rather
        than the shared exit rule; the default exit must still be exact."""
        import _oracles

        states = mixed_states()
        for _, prob, model, y, rho in states:
            assert alternating_max(prob, model, y, rho).exact
        monkeypatch.setattr(subqp, "MU_TOL", 1e-15)
        monkeypatch.setattr(subqp, "KKT_TOL", 1e-12)
        monkeypatch.setattr(_oracles, "_MU_TOL", 1e-15)
        monkeypatch.setattr(_oracles, "_KKT_TOL", 1e-12)
        for _, prob, model, y, rho in states:
            assert_matches_alternation(prob, model, y, rho)


class TestCandidateWithoutSlack:
    """``candidate_iterate`` clips the sign rows of the gradient step, where
    the solver used to set the rows of negative slack to zero first.  Both
    give the same candidate, bit for bit, the sign of zero included."""

    @staticmethod
    def slack_and_check(prob, y, rho, a_x, y_cand=None):
        nu = proximal_slack(prob, y, rho, a_x)
        want = candidate_iterate_frozen(y, nu, a_x, prob.b, rho, prob.ineq_idx)
        got = bundle.candidate_iterate(y, a_x, prob.b, rho, prob.ineq_idx) if y_cand is None else y_cand
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        return nu

    def test_qap_and_mixed_states(self):
        gated = 0
        for _, prob, model, y, rho in qap_states() + mixed_states():
            alt = alternating_max(prob, model, y, rho)
            gated += np.count_nonzero(self.slack_and_check(prob, y, rho, alt.a_x) < 0)
        assert gated > 0  # the old gate was active on some rows

    @pytest.mark.parametrize("kind", ["qap", "mixed"])
    def test_every_candidate_of_a_solve(self, monkeypatch, kind):
        if kind == "qap":
            prob = build_qap(random_qap(5, 1))
            cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=5, max_iters=30)
        else:
            prob, _ = mixed_inequality_problem(12, 0)
            cfg = SolverConfig(rho=0.1, beta=0.25, k_c=5, k_p=1, max_iters=40, seed=0)
        anchor, gated, steps = [np.zeros(prob.m)], [], []
        real = bundle.alternating_max
        monkeypatch.setattr(
            bundle, "alternating_max", lambda *a: steps.append(real(*a)) or steps[-1]
        )

        def check(info):
            nu = self.slack_and_check(prob, anchor[0], info.rho, steps[-1].a_x, info.y_cand)
            gated.append(np.count_nonzero(nu < 0))
            anchor[0] = info.y

        state, _ = bundle.solve(prob, replace(cfg, eps=1e-12), callback=check)
        assert len(gated) == state.iterations == cfg.max_iters and sum(gated) > 0


class TestPieceSums:
    """The proximal step updates its piece's sums by the sign rows that
    change side.  Every piece it selects must match the coefficients
    computed from scratch on the same rows, and the one piece of a problem
    without sign rows (every MaxCut step) must stay the old all-row formula
    bit for bit."""

    QUAD_FIELDS = ("quad_ss", "lin_s", "quad_s_eta", "quad_eta", "lin_eta")

    @staticmethod
    def kept_rows(prob, pieces):
        """Every row a piece keeps, as a mask over all m rows: the equality
        rows and the sign rows that ``pieces.keep`` marks."""
        rows = ~prob.ineq_mask
        rows[prob.ineq_idx[pieces.keep]] = True
        return rows

    @staticmethod
    def watch_pieces(monkeypatch):
        """Wrap the proximal step and the piece selection: each piece
        returned is compared with ``quad_coeffs_reference`` on the rows it
        keeps, within 1e-12 of each coefficient's largest entry.  Returns the
        tally: pieces compared, and sign rows that left a piece and came back
        within one proximal step."""
        tally = {"pieces": 0, "returned": 0}
        current = {}
        real_alt, real_select = bundle.alternating_max, subqp._Pieces.select

        def alt(prob, model, y, rho):
            current.update(prob=prob, model=model, y=y, rho=rho, left=None)
            return real_alt(prob, model, y, rho)

        def select(self, s_mat, eta):
            before = self.keep.copy()
            piece = real_select(self, s_mat, eta)
            left = before & ~self.keep
            current["left"] = left if current["left"] is None else current["left"] | left
            tally["returned"] += int(np.count_nonzero(current["left"] & self.keep))
            if piece is not None:
                want = quad_coeffs_reference(
                    current["prob"], current["model"], current["y"], current["rho"],
                    TestPieceSums.kept_rows(current["prob"], self),
                )
                for name in TestPieceSums.QUAD_FIELDS:
                    got, ref = np.asarray(getattr(piece, name)), np.asarray(want[name])
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name
                tally["pieces"] += 1
            return piece

        monkeypatch.setattr(bundle, "alternating_max", alt)
        monkeypatch.setattr(subqp._Pieces, "select", select)
        return tally, alt

    def test_qap_solve_pieces_match_reference(self, monkeypatch):
        tally, _ = self.watch_pieces(monkeypatch)
        prob = build_qap(random_qap(5, 1))
        cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=5, max_iters=6)
        state, _ = bundle.solve(prob, cfg)
        assert state.iterations == 6
        assert tally["pieces"] > 6 and tally["returned"] > 0

    def test_mixed_states_pieces_match_reference(self, monkeypatch):
        states = mixed_states()  # built before the wrap: the updated model runs a step
        tally, alt = self.watch_pieces(monkeypatch)
        for _, prob, model, y, rho in states:
            assert alt(prob, model, y, rho).exact
        assert tally["pieces"] > len(states) and tally["returned"] > 0

    def test_inequality_step_never_sums_every_row(self, monkeypatch):
        """With inequality rows the step seeds its sums from the equality
        rows and updates them by the rows that change side, so no
        :func:`subqp._block_sums` call, the one sum every other goes
        through, gets all m rows."""
        states = [qap_states()[1], mixed_states()[1]]  # built before the wrap
        rows = []
        real = subqp._block_sums

        def counted(c, w_vec, a_img):
            rows.append(c.shape[0])
            return real(c, w_vec, a_img)

        monkeypatch.setattr(subqp, "_block_sums", counted)
        for _, prob, model, y, rho in states:
            rows.clear()
            res = alternating_max(prob, model, y, rho)
            assert res.exact and res.passes > 1
            assert len(rows) == 1 + 2 * res.passes
            assert max(rows) < prob.m

    @staticmethod
    def maxcut_states():
        """A cold MaxCut model (no aggregate) and the model after five
        iterations, with the y and rho the next step uses."""
        prob = build_maxcut(random_graph(30, 0.3, 4))
        cfg = SolverConfig(k_c=4, k_p=1, max_iters=5, eps=1e-12)
        cold = cold_start(prob, cfg)
        state, _ = bundle.solve(prob, cfg)
        assert cold.model.stats.trace == 0.0 and state.model.stats.trace > 0.0
        return prob, [(cold.model, cold.y, cfg.rho), (state.model, state.y, state.rho)]

    def test_maxcut_all_rows_bit_for_bit(self):
        """The one piece of a MaxCut step is the all-row formula, on the
        block as ``compressed_rows`` returns it, bit for bit."""
        prob, states = self.maxcut_states()
        for model, y, rho in states:
            v = model.basis
            pieces = subqp._Pieces(
                prob, model, y, rho, prob.constraints.compressed_blocks(v), prob.cost_quad(v)
            )
            for got in (pieces.select(np.eye(v.shape[1]), 0.5), all_row_quad_coeffs(prob, model, y, rho)):
                want = quad_coeffs_reference(prob, model, y, rho)
                for name in self.QUAD_FIELDS:
                    assert np.array_equal(getattr(got, name), want[name]), name

    @staticmethod
    def piece_path(prob, model, y, rho, points) -> list:
        """What ``select`` returns at each (S, eta) of ``points`` in turn, from
        one set of pieces."""
        v = model.basis
        pieces = subqp._Pieces(
            prob, model, y, rho, prob.constraints.compressed_blocks(v), prob.cost_quad(v)
        )
        return [pieces.select(s_mat, eta) for s_mat, eta in points]

    @pytest.mark.parametrize("sign_rows", [False, True])
    def test_maxcut_row_blocks_match_one_block(self, monkeypatch, sign_rows):
        """With ``ROW_BLOCK`` at 7 rows a 30-vertex step forms its compressed
        rows in 5 blocks, and every piece agrees with the one-block piece to
        1e-13 of each coefficient's largest entry.  With every third row
        made a sign row, the sign rows of all 5 blocks are kept together and
        the pieces change at the same points."""
        prob, states = self.maxcut_states()
        if sign_rows:
            prob = replace(prob, ineq_mask=np.arange(prob.m) % 3 == 0)
        rng = np.random.default_rng(3)
        for model, y, rho in states:
            k = model.basis.shape[1]
            points = []
            for _ in range(6):
                g = rng.standard_normal((k, k))
                points.append((g @ g.T / (4 * k * k), rng.uniform(0.0, 0.5)))
            one = self.piece_path(prob, model, y, rho, points)
            monkeypatch.setattr(problem, "ROW_BLOCK", 7)
            assert len(list(prob.constraints.compressed_blocks(model.basis))) == 5
            blocked = self.piece_path(prob, model, y, rho, points)
            monkeypatch.undo()
            returned = sum(piece is not None for piece in one)
            assert returned > 1 if sign_rows else returned == 1
            for want, got in zip(one, blocked):
                assert (want is None) == (got is None)
                for name in self.QUAD_FIELDS if want is not None else ():
                    ref = np.asarray(getattr(want, name))
                    err = np.abs(np.asarray(getattr(got, name)) - ref).max()
                    assert err <= 1e-13 * np.abs(ref).max(), name

    def test_maxcut_step_has_one_piece_on_the_block_itself(self, monkeypatch):
        """A MaxCut step goes through the piece selection like any other:
        its first ``select`` returns the one piece and every later one
        returns None.  Its compressed rows are formed in blocks of at most
        ``ROW_BLOCK`` rows, here 7 and the default, and each block is summed
        once, itself, not a copy; no row is gathered and no other sum reads
        a row."""
        prob, states = self.maxcut_states()
        blocks, summed, selected = [], [], []
        real_rows, real_sums, real_select = (
            type(prob.constraints).compressed_rows, subqp._block_sums, subqp._Pieces.select,
        )

        def compressed_rows(self, v, rows=slice(None)):
            blocks.append(real_rows(self, v, rows))
            return blocks[-1]

        def block_sums(c, w_vec, a_img):
            summed.append(c)
            return real_sums(c, w_vec, a_img)

        def select(self, s_mat, eta):
            selected.append(real_select(self, s_mat, eta))
            return selected[-1]

        def gathered(*args):
            raise AssertionError("a MaxCut step gathered rows")

        monkeypatch.setattr(type(prob.constraints), "compressed_rows", compressed_rows)
        monkeypatch.setattr(subqp, "_block_sums", block_sums)
        monkeypatch.setattr(subqp._Pieces, "select", select)
        monkeypatch.setattr(subqp, "_rows", gathered)
        for row_block in (problem.ROW_BLOCK, 7):
            monkeypatch.setattr(problem, "ROW_BLOCK", row_block)
            for model, y, rho in states:
                blocks.clear(), summed.clear(), selected.clear()
                res = alternating_max(prob, model, y, rho)
                assert res.passes == 1 and res.exact
                assert len(selected) == res.newton + 1  # one call per Newton step and the exit test
                assert selected[0] is not None and all(piece is None for piece in selected[1:])
                assert len(blocks) == -(-prob.m // row_block)
                assert [c.shape[0] for c in blocks] == [
                    min(row_block, prob.m - start) for start in range(0, prob.m, row_block)
                ]
                assert len(summed) == len(blocks)
                assert all(c is block for c, block in zip(summed, blocks))

    def test_maxcut_step_holds_one_row_block(self):
        """At n = 5e4 and k = 11 one proximal step's traced peak stays below
        the 26.4 MB of one n x 66 compressed block: the rows are formed and
        summed 2^14 at a time."""
        import tracemalloc

        from specbundle.bundle import AggregateStats, BundleModel, SketchStore
        from specbundle.problem import GraphInstance
        from specbundle.sketch import sketch_init

        n, k = 50_000, 11
        rng = np.random.default_rng(8)
        u = rng.integers(0, n, 4 * n)
        w = rng.integers(0, n, 4 * n)
        keep = u != w
        prob = build_maxcut(
            GraphInstance.from_arrays(n, u[keep], w[keep], np.ones(int(keep.sum())))
        )
        basis, _ = np.linalg.qr(rng.standard_normal((n, k)))
        stats = AggregateStats(1.0, 0.5, rng.uniform(0.0, 2.0 / n, n))
        model = BundleModel(
            basis, stats, k - 1, 1, SketchStore(sketch_init(n, 10, 1)), np.zeros((n, 1))
        )
        y = rng.standard_normal(n) / n
        block = n * svec_dim(k) * 8
        tracemalloc.start()
        try:
            res = alternating_max(prob, model, y, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passes == 1
        assert peak < block

    def test_maxcut_eval_coeffs_bit_for_bit(self, monkeypatch):
        """The model value takes V^T C V from the proximal step: the same
        coefficients, with one ``cost_quad`` per iteration."""
        prob, _ = self.maxcut_states()
        calls = {"cost_quad": 0, "eval": 0}
        real_eval, real_cost_quad = bundle.assemble_eval_coeffs, type(prob).cost_quad

        def checked_eval(prob, model, y, cost_quad):
            got = real_eval(prob, model, y, cost_quad)
            lin_s, lin_eta = eval_coeffs_reference(prob, model, y)
            assert np.array_equal(got.lin_s, lin_s) and got.lin_eta == lin_eta
            calls["eval"] += 1
            return got

        def counted_cost_quad(self, v):
            calls["cost_quad"] += 1
            return real_cost_quad(self, v)

        monkeypatch.setattr(bundle, "assemble_eval_coeffs", checked_eval)
        bundle.solve(prob, SolverConfig(k_c=4, k_p=1, max_iters=8, eps=1e-12))
        assert calls["eval"] == 8
        monkeypatch.setattr(bundle, "assemble_eval_coeffs", real_eval)
        monkeypatch.setattr(type(prob), "cost_quad", counted_cost_quad)
        bundle.solve(prob, SolverConfig(k_c=4, k_p=1, max_iters=8, eps=1e-12))
        assert calls["cost_quad"] == 8


class TestDegenerateAggregate:
    def test_zero_trace_drops_eta(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=0)
        model = cold_start(prob, cfg).model
        assert model.stats.trace == 0.0
        coeffs = all_row_quad_coeffs(prob, model, np.zeros(3), rho=0.1)
        assert not coeffs.has_eta
        res = solve_quad(coeffs)
        assert res.eta_opt == 0.0


class TestExitCertificate:
    def test_kkt_residuals_at_exit(self):
        # at a flagged-exact exit every block of the optimality system is
        # small: stationarity directly, complementarity through the barrier
        rng = np.random.default_rng(31)
        for trial in range(10):
            k = int(rng.integers(2, 5))
            coeffs = random_quad(rng, k, has_eta=True)
            res = solve_quad(coeffs)
            assert res.exact
            st = res.state
            scale = 1.0 + max(
                np.abs(coeffs.lin_s).max(),
                abs(coeffs.lin_eta),
                np.abs(coeffs.quad_ss).max(),
            )
            s_vec = svec(st.s_mat)
            f1 = (
                coeffs.quad_ss @ s_vec
                + st.eta * coeffs.quad_s_eta
                + coeffs.lin_s
                - svec(st.t_mat)
                + st.omega * svec(np.eye(k))
            )
            f2 = (
                coeffs.quad_s_eta @ s_vec
                + st.eta * coeffs.quad_eta
                + coeffs.lin_eta
                - st.zeta
                + st.omega
            )
            assert np.abs(f1).max() <= 1e-6 * scale
            assert abs(f2) <= 1e-6 * scale
            assert np.abs(st.s_mat @ st.t_mat).max() <= 1e-6 * scale
            assert st.eta * st.zeta <= 1e-6 * scale
            assert st.omega * st.trace_slack() <= 1e-6 * scale


def assert_same_solve(res, frozen):
    s_opt, eta_opt, value, st, iters, exact = frozen
    assert res.newton_iters == iters and res.exact == exact
    assert np.array_equal(res.s_opt, s_opt)
    assert res.eta_opt == eta_opt and res.value == value
    assert np.array_equal(res.state.s_mat, st.s_mat)
    assert np.array_equal(res.state.t_mat, st.t_mat)
    for name in ("eta", "zeta", "omega", "mu"):
        assert getattr(res.state, name) == getattr(st, name)


class TestNewtonBitIdentity:
    """The Newton loop must reproduce a frozen copy of the previous loop
    (np.kron, cho_factor/cho_solve, stationarity computed twice per step,
    direction matrices rebuilt for the update) bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    @pytest.mark.parametrize("has_eta", [True, False])
    def test_cold_and_warm_solves(self, k, has_eta):
        """Cold solves of random coefficient sets."""
        rng = np.random.default_rng(400 + 10 * k + int(has_eta))
        for trial in range(4):
            coeffs = random_quad(rng, k, has_eta, include_quad=trial != 2)
            assert_same_solve(solve_quad(coeffs), ipm_solve_frozen(coeffs, None))

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    def test_direction_and_step(self, k):
        rng = np.random.default_rng(600 + k)
        for trial in range(6):
            has_eta = trial % 2 == 0
            coeffs = random_quad(rng, k, has_eta)
            st = random_feasible_state(rng, k, has_eta)
            mu = 10.0 ** float(rng.uniform(-8, -1))
            d = newton_direction(coeffs, st, mu)
            frozen = newton_direction_frozen(coeffs, st, mu)
            assert np.array_equal(d.ds_vec, frozen[0]) and d.deta == frozen[1]
            assert np.array_equal(d.dt_vec, frozen[2])
            assert d.dzeta == frozen[3] and d.domega == frozen[4]
            assert line_search_feasible(st, d) == line_search_frozen(st, frozen)

    def test_qap_alternation_matches_frozen(self, monkeypatch):
        """Every quadratic IPM solve of a few QAP outer iterations, cold
        started, with the pieces the proximal step really selects."""
        prob = build_qap(random_qap(5, seed=3))
        cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, max_iters=3, eps=1e-12)
        calls = []
        real_quad = subqp.ipm_quad

        def checked_quad(pieces):
            twin = copy.deepcopy(pieces)
            res = real_quad(pieces)
            assert_same_solve(res, ipm_solve_frozen(None, None, twin))
            calls.append((res.newton_iters, pieces.visited))
            return res

        monkeypatch.setattr(subqp, "ipm_quad", checked_quad)
        state, _ = bundle.solve(prob, cfg)
        assert state.iterations == 3 and len(calls) == 3
        assert all(newton > 0 for newton, _ in calls)
        assert max(visited for _, visited in calls) > 1  # the pieces changed mid-solve
