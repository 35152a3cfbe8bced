import numpy as np
import pytest
from dataclasses import replace

from conftest import make_k3, mixed_inequality_problem
from _oracles import (
    full_newton_residual,
    ipm_solve_frozen,
    line_search_frozen,
    newton_direction_frozen,
    pg_quad_oracle,
    psi_value,
    random_quad_coeffs,
)
from conftest import random_qap
from _ipm_steps import barrier_update, line_search_feasible, newton_direction
from specbundle import bundle, subqp
from specbundle.bundle import SolverConfig, cold_start
from specbundle.problem import build_from_families, build_maxcut, build_qap, proj_N
from specbundle.subqp import (
    EvalCoeffs,
    IpmResult,
    IpmState,
    QuadCoeffs,
    StepFailureError,
    alternating_max,
    assemble_eval_coeffs,
    assemble_quad_coeffs,
    ipm_eval,
    ipm_quad,
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
        coeffs = assemble_eval_coeffs(prob, model, np.zeros(4))
        np.testing.assert_array_equal(coeffs.lin_s, np.zeros(3))
        assert coeffs.lin_eta == 0.0
        assert not coeffs.has_eta  # empty aggregate disables the eta block

    def test_diagonal_operator_single_column(self):
        prob = zero_cost_diag_problem(3)
        cfg = SolverConfig(k_c=1, k_p=0)
        state = cold_start(prob, cfg)
        state.model.basis = np.eye(3)[:, :1]
        y = np.array([1.0, 0.0, 0.0])
        coeffs = assemble_eval_coeffs(prob, state.model, y)
        np.testing.assert_allclose(coeffs.lin_s, prob.alpha * svec(np.eye(1)))

    def test_matches_dense_materialization(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=1)
        model = cold_start(prob, cfg).model
        rng = np.random.default_rng(0)
        y = rng.standard_normal(3)
        coeffs = assemble_eval_coeffs(prob, model, y)
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
        quad = assemble_quad_coeffs(prob, model, y, np.zeros(3), rho=1e12)
        ev = assemble_eval_coeffs(prob, model, y)
        scale = np.abs(ev.lin_s).max() + 1.0
        assert np.abs(quad.lin_s - ev.lin_s).max() <= 1e-4 * scale
        assert np.abs(quad.quad_ss).max() <= 1e-4

    def test_maxcut_identity_basis_pattern(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=3, k_p=0)
        state = cold_start(prob, cfg)
        state.model.basis = np.eye(3)
        rho = 0.5
        quad = assemble_quad_coeffs(prob, state.model, np.zeros(3), np.zeros(3), rho)
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
        quad = assemble_quad_coeffs(
            prob, model, np.zeros(prob.m), np.zeros(prob.m), rho=0.1
        )
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
        res = ipm_quad(coeffs)
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
        res = ipm_quad(coeffs)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert np.abs(res.s_opt).max() <= 1e-3

    def test_descent_from_origin_and_above_unconstrained_min(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            coeffs = random_quad(rng, 3, has_eta=True)
            res = ipm_quad(coeffs)
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
            res = ipm_quad(coeffs)
            assert res.value == pytest.approx(expected, abs=1e-5), seed_str

    @pytest.mark.skipif(
        "not config.getoption('--regenerate-oracles', default=False)",
        reason="long-running oracle regeneration",
    )
    def test_live_projected_gradient_agreement(self):
        coeffs = random_quad_coeffs(0)
        res = ipm_quad(coeffs)
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
            assert stepped.strictly_feasible()

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
        np.testing.assert_array_equal(res.nu, np.zeros(3))

    def test_nu_zero_when_projection_inactive(self):
        prob, _ = mixed_inequality_problem(8, 4, n_ineq=4)
        cfg = SolverConfig(k_c=3, k_p=0)
        model = cold_start(prob, cfg).model
        # large y makes the projection argument positive on inequality rows
        y = np.zeros(prob.m)
        y[prob.ineq_idx] = 10.0
        res = alternating_max(prob, model, y, rho=1.0)
        assert np.all(res.nu == 0.0)

    def test_psi_monotone_across_half_steps(self):
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

        nu = np.zeros(prob.m)
        base = None
        warm = None
        values = []
        for _ in range(8):
            coeffs = assemble_quad_coeffs(prob, model, y, nu, cfg.rho, base=base)
            base = coeffs
            res = ipm_quad(coeffs, warm=warm)
            warm = res.state
            alpha, tr = prob.alpha, model.stats.trace
            s_act = alpha * res.s_opt
            eta_act = alpha * res.eta_opt / tr if tr > 0 else 0.0
            a_x = eta_act * model.stats.constr_image + prob.constraints.primal_image_lowrank(
                model.basis, s_act
            )
            c_x = eta_act * model.stats.cost_ip + float(np.sum(base.cost_quad * s_act))
            values.append(psi_value(prob, y, cfg.rho, c_x, a_x, nu))
            nu = proj_N(a_x + cfg.rho * y - prob.b, prob)
            values.append(psi_value(prob, y, cfg.rho, c_x, a_x, nu))
        tol = 1e-8 * (1.0 + max(abs(v) for v in values))
        assert all(b >= a - tol for a, b in zip(values, values[1:]))

    def test_pass_cap_recorded_as_inexact(self):
        """With the CLI's QAP settings the first alternation is exact.  From
        the state that iteration leaves, an alternation at the initial
        weight stops at the pass cap with nu still moving, and the solve
        records it as inexact.  MaxCut takes one exact pass."""
        prob = build_qap(random_qap(5, 1))
        cfg = SolverConfig(rho=0.005, beta=0.25, k_c=2, k_p=0, sketch_rank=5, max_iters=1)
        infos = []
        state, _ = bundle.solve(prob, cfg, callback=infos.append)
        assert infos[0].alt_passes < 50 and infos[0].alt_exact is True
        capped = alternating_max(prob, state.model, state.y, cfg.rho, nu0=state.nu)
        assert capped.passes == subqp.ALT_MAX_PASSES == 50 and capped.exact is False
        bundle.solve(prob, cfg, init=replace(state, rho=cfg.rho), callback=infos.append)
        assert infos[1].rho == cfg.rho
        assert infos[1].alt_passes == 50 and infos[1].alt_exact is False

        prob = build_maxcut(make_k3())
        infos = []
        bundle.solve(prob, SolverConfig(max_iters=1), callback=infos.append)
        assert infos[0].alt_passes == 1 and infos[0].alt_exact is True

    def test_trace_budget_respected(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=3, k_p=0)
        model = cold_start(prob, cfg).model
        res = alternating_max(prob, model, np.zeros(3), rho=0.01)
        assert res.tr_x <= prob.alpha + 1e-9

    def test_warm_start_beats_cold_in_aggregate(self):
        rng = np.random.default_rng(123)
        wins = 0
        total = 0
        for _ in range(20):
            k = int(rng.integers(2, 5))
            coeffs = random_quad(rng, k, has_eta=True)
            warm = None
            for call in range(5):
                coeffs = replace(
                    coeffs,
                    lin_s=coeffs.lin_s + 0.02 * rng.standard_normal(coeffs.lin_s.shape),
                    lin_eta=coeffs.lin_eta + 0.02 * float(rng.standard_normal()),
                )
                cold_res = ipm_quad(coeffs, warm=None)
                warm_res = ipm_quad(coeffs, warm=warm)
                if call > 0:
                    total += 1
                    wins += warm_res.newton_iters <= cold_res.newton_iters
                warm = warm_res.state
        assert wins / total >= 0.9


class TestDegenerateAggregate:
    def test_zero_trace_drops_eta(self):
        prob = build_maxcut(make_k3())
        cfg = SolverConfig(k_c=2, k_p=0)
        model = cold_start(prob, cfg).model
        assert model.stats.trace == 0.0
        coeffs = assemble_quad_coeffs(prob, model, np.zeros(3), np.zeros(3), rho=0.1)
        assert not coeffs.has_eta
        res = ipm_quad(coeffs)
        assert res.eta_opt == 0.0


class TestExitCertificate:
    def test_kkt_residuals_at_exit(self):
        # at a flagged-exact exit every block of the optimality system is
        # small: stationarity directly, complementarity through the barrier
        rng = np.random.default_rng(31)
        for trial in range(10):
            k = int(rng.integers(2, 5))
            coeffs = random_quad(rng, k, has_eta=True)
            res = ipm_quad(coeffs)
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
        rng = np.random.default_rng(400 + 10 * k + int(has_eta))
        warm = None
        for trial in range(4):
            coeffs = random_quad(rng, k, has_eta, include_quad=trial != 2)
            res = ipm_quad(coeffs, warm=warm)
            assert_same_solve(res, ipm_solve_frozen(coeffs, warm))
            warm = res.state

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
        """Every quadratic IPM solve of a few QAP outer iterations, with the
        warm starts and coefficients the alternation really produces."""
        prob = build_qap(random_qap(5, seed=3))
        cfg = SolverConfig(rho=0.005, k_c=2, k_p=0, sketch_rank=5, max_iters=3, eps=1e-12)
        calls = []
        real_quad = subqp.ipm_quad

        def checked_quad(coeffs, warm=None):
            res = real_quad(coeffs, warm=warm)
            assert_same_solve(res, ipm_solve_frozen(coeffs, warm))
            calls.append(res.newton_iters)
            return res

        monkeypatch.setattr(subqp, "ipm_quad", checked_quad)
        state, _ = bundle.solve(prob, cfg)
        assert state.iterations == 3
        assert len(calls) > 3 and sum(calls) > 0
