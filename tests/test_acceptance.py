"""Acceptance suite: each test pins one solver-level guarantee at its stated
tolerance and prints one PASS line on success (pytest reports failures)."""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_k3,
    mixed_inequality_problem,
    random_graph,
    random_qap,
    record_store_updates,
)
from _ipm_steps import newton_direction
from _oracles import brute_force_qap, full_newton_residual, proximal_slack, random_quad_coeffs
from specbundle.bundle import (
    Mapping,
    SketchStore,
    SolverConfig,
    solve,
    warm_start_pad,
)
from specbundle.eigsolve import LinOp, lanczos_top
from specbundle.problem import build_maxcut, build_qap, parse_qaplib, write_qaplib
from specbundle.rounding import maxcut_round, qap_round
from specbundle.sketch import reconstruct, sketch_init, sketch_update
from specbundle.subqp import (
    EvalCoeffs,
    IpmState,
    QuadCoeffs,
    ipm_eval,
    ipm_quad,
)
from specbundle.symlin import svec, svec_dim


def report(num, text):
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: analytic triangle instance


def test_criterion_1_triangle_analytic():
    t0 = time.monotonic()
    g = make_k3()
    prob = build_maxcut(g)
    cfg = SolverConfig(eps=1e-3, max_iters=500, seed=0)
    state, out = solve(prob, cfg)
    elapsed = time.monotonic() - t0

    # independent oracle: restrict to X = I + t(J - I); PSD needs
    # t in [-1/2, 1]; maximize the quarter-trace objective on a fine grid
    ts = np.linspace(-0.5, 1.0, 300001)
    oracle = float(np.max((6.0 - 6.0 * ts) / 4.0))
    assert oracle == pytest.approx(9 / 4, abs=1e-9)

    assert state.status == "converged"
    obj = prob.unscale_objective(state.last_primal.cost_ip)
    assert abs(obj - oracle) <= 1e-2
    cut = maxcut_round(out.factor, g)
    assert cut.value == 2.0
    assert elapsed < 5.0
    report(1, f"objective {obj:.6f} vs 9/4, cut 2, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 10 share twenty instrumented runs

EPS_SUITE = 1e-3


@pytest.fixture(scope="module")
def convergence_suite_runs():
    rng = np.random.default_rng(2024)
    runs = []
    t0 = time.monotonic()
    for trial in range(20):
        n = int(rng.integers(30, 101))
        p = float(rng.uniform(0.08, 0.3))
        g = random_graph(n, p, seed=trial)
        prob = build_maxcut(g)
        cfg = SolverConfig(
            rho=0.01, beta=0.25, k_c=10, k_p=1, eps=EPS_SUITE, max_iters=3000, seed=trial
        )
        rows = []

        def cb(info):
            rows.append(
                {
                    "f_y": info.f_y,
                    "y_min_ineq": 0.0,
                    "model_val": info.model_val,
                    "f_cand": info.f_cand,
                    "trace": info.primal.trace,
                }
            )

        state, _ = solve(prob, cfg, callback=cb)
        runs.append({"g": g, "prob": prob, "state": state, "rows": rows})
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def test_criterion_2_convergence_invariants(convergence_suite_runs):
    runs = convergence_suite_runs["runs"]
    elapsed = convergence_suite_runs["elapsed"]
    for run in runs:
        prob, state = run["prob"], run["state"]
        assert state.status == "converged"
        # dual feasibility via an independent dense eigensolve
        z = prob.cost.toarray() - np.diag(state.y)
        lam = float(np.linalg.eigvalsh(z).max())
        assert lam <= EPS_SUITE + 1e-10
        assert state.residuals.rel_infeas <= EPS_SUITE
        c_x = state.last_primal.cost_ip
        b_y = float(prob.b @ state.y)
        scale = abs(c_x) + abs(b_y)
        assert abs(b_y - c_x) <= np.sqrt(EPS_SUITE) * (1.0 + scale)
        f_values = [row["f_y"] for row in run["rows"]]
        assert all(b <= a + 1e-12 for a, b in zip(f_values, f_values[1:]))
        # equality-constrained duals are unconstrained; sign check is vacuous
        # but the candidate clipping is exercised in criterion 6
    assert elapsed < 120.0
    report(2, f"20 instances converged, invariants hold, {elapsed:.1f}s")


def test_criterion_10_model_conditions(convergence_suite_runs):
    runs = convergence_suite_runs["runs"]
    alpha = runs[0]["prob"].alpha
    minorant_checked = 0
    for run in runs:
        for row in run["rows"]:
            slack = 1e-8 * (1.0 + abs(row["f_cand"]))
            assert row["model_val"] <= row["f_cand"] + slack
            assert row["trace"] <= alpha + 1e-9
            minorant_checked += 1
    report(10, f"minorant and trace budget hold at {minorant_checked} iterations")


# ---------------------------------------------------------------------------
# criterion 3: subproblem oracle equivalence


def test_criterion_3_subproblem_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst_eval = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        g = rng.standard_normal((k, k))
        g = 0.5 * (g + g.T)
        g2 = float(rng.standard_normal())
        has_eta = bool(rng.integers(0, 2))
        coeffs = EvalCoeffs(
            lin_s=svec(g), lin_eta=g2 if has_eta else 0.0, has_eta=has_eta, k=k
        )
        res = ipm_eval(coeffs)
        lam_min = float(np.linalg.eigvalsh(g)[0])
        oracle = min(lam_min, g2, 0.0) if has_eta else min(lam_min, 0.0)
        worst_eval = max(worst_eval, abs(res.value - oracle))
        assert abs(res.value - oracle) <= 1e-6

    frozen = json.loads((Path(__file__).parent / "data_quad_oracle.json").read_text())
    assert frozen["steps"] == 10**6 and frozen["step_size"] == 1e-3
    worst_quad = 0.0
    for seed_str, expected in frozen["values"].items():
        coeffs = random_quad_coeffs(int(seed_str))
        res = ipm_quad(coeffs)
        worst_quad = max(worst_quad, abs(res.value - expected))
        assert abs(res.value - expected) <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        3,
        f"eval worst {worst_eval:.1e} (tol 1e-6), quad worst {worst_quad:.1e} "
        f"(tol 1e-5 vs frozen 1e6-step projected gradient), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: eliminated Newton systems


def test_criterion_4_newton_back_substitution():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(2, 5))
        sd = svec_dim(k)
        has_eta = trial % 2 == 0
        quadratic = trial % 3 != 0  # alternate linear- and quadratic-objective systems
        if quadratic:
            a = rng.standard_normal((sd + 2, sd))
            q = a.T @ a / (sd + 2)
            z = rng.standard_normal(sd + 2)
            q12 = a.T @ z / (sd + 2) if has_eta else np.zeros(sd)
            q22 = float(z @ z / (sd + 2)) if has_eta else 0.0
        else:
            q = np.zeros((sd, sd))
            q12 = np.zeros(sd)
            q22 = 0.0
        coeffs = QuadCoeffs(
            quad_ss=q,
            quad_s_eta=q12,
            quad_eta=q22,
            lin_s=rng.standard_normal(sd),
            lin_eta=float(rng.standard_normal()) if has_eta else 0.0,
            has_eta=has_eta,
            k=k,
        )
        b = rng.standard_normal((k, k))
        s = b @ b.T / k + 0.05 * np.eye(k)
        s *= 0.4 / np.trace(s)
        c = rng.standard_normal((k, k))
        t_mat = c @ c.T / k + 0.1 * np.eye(k)
        st = IpmState(
            s_mat=s,
            eta=0.15 if has_eta else 0.0,
            t_mat=t_mat,
            zeta=0.7 if has_eta else 0.0,
            omega=0.9,
            mu=0.0,
            has_eta=has_eta,
        )
        assert st.trace_slack() > 0
        mu = 10.0 ** float(rng.uniform(-6, -1))
        d = newton_direction(coeffs, st, mu)
        worst = max(worst, full_newton_residual(coeffs, st, mu, d))
    assert worst <= 1e-8
    report(4, f"20 states, both systems: worst full-system residual {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: sketch fidelity


def test_criterion_5_sketch_fidelity(monkeypatch):
    t0 = time.monotonic()
    updates = record_store_updates(monkeypatch, SketchStore)
    # tracked statistics against a dense shadow across 50 seeded runs
    worst = 0.0
    for seed in range(50):
        g = random_graph(40, 0.2, seed=seed + 500)
        prob = build_maxcut(g)
        cfg = SolverConfig(
            rho=0.01, k_c=5, k_p=1, eps=1e-6, max_iters=12, seed=seed, sketch_rank=8
        )
        shadow = {"x": np.zeros((40, 40))}
        cost = prob.cost.toarray()
        errs = []

        def cb(info):
            eta, factor, lams = updates[-1]
            shadow["x"] = eta * shadow["x"] + (factor * lams[None, :]) @ factor.T
            stats = info.model.stats
            errs.append(abs(stats.trace - np.trace(shadow["x"])))
            errs.append(abs(stats.cost_ip - float(np.sum(cost * shadow["x"]))))
            errs.append(float(np.max(np.abs(stats.constr_image - np.diag(shadow["x"])))))

        solve(prob, cfg, callback=cb)
        worst = max(worst, max(errs))
    assert worst <= 1e-9

    # exact recovery of a rank-3 matrix with a rank-6 sketch
    rng = np.random.default_rng(404)
    f = rng.standard_normal((40, 3))
    lams0 = np.abs(rng.standard_normal(3)) + 0.5
    target = (f * lams0[None, :]) @ f.T
    s = sketch_init(40, 6, seed=77)
    s = sketch_update(s, 0.0, f, lams0)
    u, lams = reconstruct(s)
    rel = np.linalg.norm((u * lams[None, :]) @ u.T - target) / np.linalg.norm(target)
    assert rel <= 1e-8

    # update count does not change the reconstruction
    one = sketch_init(40, 6, seed=78)
    one = sketch_update(one, 0.0, f, lams0)
    many = sketch_init(40, 6, seed=78)
    many = sketch_update(many, 0.0, f, lams0 / 100.0)
    for _ in range(99):
        many = sketch_update(many, 1.0, f, lams0 / 100.0)
    u1, l1 = reconstruct(one)
    u2, l2 = reconstruct(many)
    drift = np.linalg.norm((u1 * l1[None, :]) @ u1.T - (u2 * l2[None, :]) @ u2.T)
    assert drift <= 1e-9 * (1 + np.linalg.norm(l1))
    elapsed = time.monotonic() - t0
    report(
        5,
        f"stats shadow worst {worst:.1e}, rank-3 recovery {rel:.1e}, "
        f"compounding drift {drift:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: inequality-constraint path


def test_criterion_6_inequality_path():
    prob, _ = mixed_inequality_problem(12, 0)
    cfg = SolverConfig(rho=0.1, beta=0.25, k_c=5, k_p=1, eps=1e-3, max_iters=500, seed=0)
    worst_comp = 0.0
    worst_sign = 0.0
    anchor = np.zeros(prob.m)  # the y of the step: the previous record's

    def cb(info):
        nonlocal worst_comp, worst_sign, anchor
        yc = info.y_cand
        worst_sign = min(worst_sign, float(np.min(yc[prob.ineq_idx])))
        nu = proximal_slack(prob, anchor, info.rho, info.primal.constr_image)
        worst_comp = max(worst_comp, abs(float(yc @ nu)))
        anchor = info.y

    state, _ = solve(prob, cfg, callback=cb)
    assert state.status == "converged"
    assert worst_sign >= 0.0
    assert worst_comp <= 1e-10
    report(
        6,
        f"mixed instance converged in {state.iterations} iterations, "
        f"min candidate entry {worst_sign:.1e}, worst complementarity {worst_comp:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: warm-start behavior


def test_criterion_7_warm_start_descent_counts():
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in range(5):
        g = random_graph(100, 0.08, seed=900 + seed)
        prob = build_maxcut(g)
        cfg = SolverConfig(
            rho=0.01, beta=0.25, k_c=10, k_p=1, eps=1e-3, max_iters=3000, seed=seed
        )
        cold_state, _ = solve(prob, cfg)
        assert cold_state.status == "converged"

        sub = g.subgraph(99)  # drop the trailing one percent
        sub_prob = build_maxcut(sub)
        sub_state, _ = solve(sub_prob, cfg)
        mapping = Mapping(np.arange(99), np.arange(99))
        padded = warm_start_pad(sub_state, prob, mapping, sketch_seed=seed)
        warm_state, _ = solve(prob, cfg, init=padded)
        assert warm_state.status == "converged"
        ok = warm_state.descent_steps <= cold_state.descent_steps
        wins += ok
        details.append((cold_state.descent_steps, warm_state.descent_steps, ok))
    assert wins >= 4
    elapsed = time.monotonic() - t0
    report(
        7,
        f"warm start won {wins}/5 (cold vs warm descent steps: "
        f"{[(c, w) for c, w, _ in details]}), exception rate {(5 - wins) / 5:.0%}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: assignment-problem pipeline


def test_criterion_8_qap_pipeline(tmp_path):
    # exact recovery at size three against brute force
    q3 = random_qap(3, 31)
    best, best_perm = brute_force_qap(q3.weights, q3.distances)
    pi = np.zeros((3, 3))
    pi[np.arange(3), best_perm] = 1.0
    lifted = np.concatenate([[1.0], pi.flatten(order="F")])[:, None]
    res3 = qap_round(lifted, q3)
    assert res3.objective == pytest.approx(best)
    np.testing.assert_array_equal(res3.perm, best_perm)

    # size twelve through the text format, solver, and rounding
    t0 = time.monotonic()
    q = random_qap(12, 32)
    path = tmp_path / "q12.dat"
    write_qaplib(q, path)
    q = parse_qaplib(path)
    identity_obj = float(np.sum(q.weights * q.distances))  # reference upper bound
    prob = build_qap(q)
    cfg = SolverConfig(
        rho=0.005, beta=0.25, k_c=2, k_p=0, eps=1e-3, max_iters=150,
        max_time=420.0, seed=0, sketch_rank=12,
    )
    gaps = []

    def cb(info):
        if info.t % 10 == 0:
            from specbundle.bundle import primal_output

            out = primal_output(info.model)
            gaps.append(qap_round(out.factor, q, known_optimum=identity_obj).relative_gap)

    state, out = solve(prob, cfg, callback=cb)
    final = qap_round(out.factor, q, known_optimum=identity_obj)
    gaps.append(final.relative_gap)
    best_gap = min(gaps)
    elapsed = time.monotonic() - t0
    assert sorted(final.perm.tolist()) == list(range(12))
    assert np.isfinite(best_gap)
    assert elapsed < 600.0
    report(
        8,
        f"size-3 matches brute force; size-12 rounded objective {final.objective:.0f} "
        f"(reference {identity_obj:.0f}), best relative gap {best_gap:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: eigensolver oracle equivalence


def test_criterion_9_lanczos_against_dense():
    import inspect

    sig = inspect.signature(lanczos_top)
    assert sig.parameters["inner_iters"].default == 32
    assert sig.parameters["max_restarts"].default == 10

    rng = np.random.default_rng(55)
    worst = 0.0
    for seed in range(50):
        a = rng.standard_normal((200, 200))
        a = 0.5 * (a + a.T)
        res = lanczos_top(
            LinOp(dim=200, matvec=lambda v, a=a: a @ v), 5, seed=seed
        )
        dense = np.linalg.eigvalsh(a)[::-1][:5]
        worst = max(worst, float(np.max(np.abs(res.eigenvalues - dense))))
    assert worst <= 1e-8
    report(9, f"50 matrices, worst eigenvalue error {worst:.1e} (tol 1e-8)")
