import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_k3, random_graph, random_qap
from _oracles import (
    brute_force_assignment,
    brute_force_maxcut,
    brute_force_qap,
    hungarian_frozen,
    maxcut_round_frozen,
)
import specbundle
from specbundle.bundle import SolverConfig, solve
from specbundle.problem import GraphInstance, build_maxcut
from specbundle.rounding import hungarian, maxcut_round, qap_round


def _weighted_graph(n: int, p: float, seed: int) -> GraphInstance:
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    return GraphInstance.from_arrays(n, u[keep], v[keep], rng.uniform(0.1, 10.0, keep.sum()))


def _unit_weight_cases():
    k3 = make_k3()
    rng = np.random.default_rng(31)
    cases = [
        pytest.param(k3, np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -2.0]]), id="k3-zero-row"),
        # x and -x give one partition; so does a positive rescaling
        pytest.param(k3, np.column_stack([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [2.0, -0.5, 3.0]]),
                     id="k3-tied-columns"),
        pytest.param(k3, np.ones((3, 1)), id="k3-all-ones"),
        pytest.param(k3, np.column_stack([np.ones(3), [1.0, -1.0, -1.0]]), id="k3-all-ones-first"),
        pytest.param(GraphInstance.from_arrays(4, [], [], []), rng.standard_normal((4, 3)), id="edgeless-4"),
    ]
    for n, p, seed, r in [(14, 0.4, 7, 6), (40, 0.2, 32, 10), (300, 0.03, 33, 10), (1000, 0.008, 34, 12)]:
        cases.append(pytest.param(random_graph(n, p, seed), rng.standard_normal((n, r)), id=f"random-{n}"))
    # columns that repeat one sign pattern tie exactly
    col = rng.standard_normal(30)
    cases.append(pytest.param(random_graph(30, 0.3, 35),
                              np.column_stack([-col, col, 2 * col, rng.standard_normal(30)]),
                              id="random-30-repeated"))
    return cases


def _weighted_cases():
    rng = np.random.default_rng(36)
    return [
        pytest.param(_weighted_graph(n, p, seed), rng.standard_normal((n, r)), id=f"weighted-{n}")
        for n, p, seed, r in [(3, 1.0, 37, 4), (12, 0.5, 38, 6), (60, 0.2, 39, 10), (500, 0.02, 40, 10)]
    ]


class TestMaxcutRound:
    def test_k3_mixed_signs(self, k3):
        u = np.array([[1.0], [-1.0], [0.5]])
        res = maxcut_round(u, k3)
        assert res.value == 2.0

    def test_all_equal_sign_zero_cut(self, k3):
        res = maxcut_round(np.ones((3, 1)), k3)
        assert res.value == 0.0

    def test_zero_entries_sign_positive(self, k3):
        res = maxcut_round(np.zeros((3, 1)), k3)
        np.testing.assert_array_equal(res.assignment, [1, 1, 1])

    def test_best_column_kept(self, k3):
        u = np.column_stack([np.ones(3), [1.0, -1.0, 1.0]])
        res = maxcut_round(u, k3)
        assert res.value == 2.0

    def test_bounded_by_brute_force(self):
        g = random_graph(14, 0.4, 7)
        best = brute_force_maxcut(g)
        rng = np.random.default_rng(8)
        u = rng.standard_normal((14, 6))
        res = maxcut_round(u, g)
        assert res.value <= best + 1e-9

    def test_recovers_integral_solution(self):
        g = random_graph(12, 0.4, 9)
        best = brute_force_maxcut(g)
        # feed the optimal cut vector itself
        lap = g.laplacian().toarray()
        best_x = None
        best_val = -1
        for bits in range(2**11):
            x = np.ones(12)
            for i in range(11):
                if bits >> i & 1:
                    x[i + 1] = -1
            v = 0.25 * x @ lap @ x
            if v > best_val:
                best_val, best_x = v, x
        res = maxcut_round(best_x[:, None], g)
        assert res.value == pytest.approx(best)

    def test_positive_scaling_invariance(self):
        g = random_graph(10, 0.5, 10)
        rng = np.random.default_rng(11)
        u = rng.standard_normal((10, 4))
        scales = rng.random(4) * 5 + 0.1
        r1 = maxcut_round(u, g)
        r2 = maxcut_round(u * scales[None, :], g)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.assignment, r2.assignment)

    def test_cut_value_matches_edge_recount(self):
        g = random_graph(15, 0.3, 12)
        rng = np.random.default_rng(13)
        res = maxcut_round(rng.standard_normal((15, 3)), g)
        x = res.assignment
        recount = sum(
            w for u, v, w in zip(g.edges_u, g.edges_v, g.edges_w) if x[u] != x[v]
        )
        assert res.value == pytest.approx(recount)

    def test_empty_factor_rejected(self, k3):
        with pytest.raises(ValueError):
            maxcut_round(np.zeros((3, 0)), k3)

    @pytest.mark.parametrize("g,u", _unit_weight_cases())
    def test_unit_weights_match_laplacian_form(self, g, u):
        res, ref = maxcut_round(u, g), maxcut_round_frozen(u, g)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.assignment.dtype == ref.assignment.dtype
        assert res.value == ref.value

    @pytest.mark.parametrize("g,u", _weighted_cases())
    def test_weighted_match_laplacian_form(self, g, u):
        res, ref = maxcut_round(u, g), maxcut_round_frozen(u, g)
        np.testing.assert_array_equal(res.assignment, ref.assignment)
        assert res.assignment.dtype == ref.assignment.dtype
        assert res.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)


class TestHungarian:
    def test_zero_diagonal_identity(self):
        cost = 1.0 - np.eye(4)
        np.testing.assert_array_equal(hungarian(cost), np.arange(4))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cost = rng.standard_normal((5, 5))
            perm = hungarian(cost)
            np.testing.assert_array_equal(perm, hungarian_frozen(cost))
            assert perm.dtype == hungarian_frozen(cost).dtype
            val = sum(cost[i, perm[i]] for i in range(5))
            best, _ = brute_force_assignment(cost)
            assert val == pytest.approx(best)

    def test_row_constant_invariance(self):
        rng = np.random.default_rng(15)
        cost = rng.standard_normal((6, 6))
        shift = rng.standard_normal(6)
        p1 = hungarian(cost)
        p2 = hungarian(cost + shift[:, None])
        v1 = sum(cost[i, p1[i]] for i in range(6))
        v2 = sum(cost[i, p2[i]] for i in range(6))
        assert v1 == pytest.approx(v2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_deterministic_under_ties(self):
        tied = [
            np.zeros((4, 4)),
            np.ones((1, 1)),
            np.random.default_rng(41).integers(0, 3, (8, 8)).astype(float),
            np.kron(np.ones((3, 3)), np.eye(2)),
        ]
        for cost in tied:
            p1 = hungarian(cost)
            p2 = hungarian(cost)
            np.testing.assert_array_equal(p1, p2)
            np.testing.assert_array_equal(p1, hungarian_frozen(cost))
            assert p1.dtype == hungarian_frozen(cost).dtype


class TestQapRound:
    def lift(self, perm, n):
        pi = np.zeros((n, n))
        pi[np.arange(n), perm] = 1.0
        return np.concatenate([[1.0], pi.flatten(order="F")])[:, None]

    def test_exact_permutation_recovered(self):
        q = random_qap(3, 20)
        perm = np.array([1, 2, 0])
        res = qap_round(self.lift(perm, 3), q)
        np.testing.assert_array_equal(res.perm, perm)

    def test_never_beats_brute_force_and_matches_at_optimum(self):
        q = random_qap(3, 21)
        best, best_perm = brute_force_qap(q.weights, q.distances)
        rng = np.random.default_rng(22)
        res = qap_round(rng.standard_normal((10, 4)), q)
        assert res.objective >= best - 1e-9
        res_opt = qap_round(self.lift(best_perm, 3), q)
        assert res_opt.objective == pytest.approx(best)

    def test_relative_gap_zero_at_optimum(self):
        q = random_qap(3, 23)
        best, best_perm = brute_force_qap(q.weights, q.distances)
        res = qap_round(self.lift(best_perm, 3), q, known_optimum=best)
        assert res.relative_gap == pytest.approx(0.0, abs=1e-12)

    def test_output_always_permutation(self):
        q = random_qap(4, 24)
        rng = np.random.default_rng(25)
        for _ in range(5):
            res = qap_round(rng.standard_normal((17, 3)), q)
            assert sorted(res.perm.tolist()) == list(range(4))

    def test_shape_mismatch(self):
        q = random_qap(3, 26)
        with pytest.raises(ValueError):
            qap_round(np.zeros((9, 2)), q)


_FOOTPRINT = """
import json, sys
import numpy as np
import specbundle.cli
from specbundle.bundle import SolverConfig, solve
from specbundle.problem import GraphInstance, QapInstance, build_maxcut
from specbundle.rounding import maxcut_round, qap_round

case = json.load(sys.stdin)
g = GraphInstance.from_arrays(case["n"], case["u"], case["v"], np.ones(len(case["u"])))
_, output = solve(build_maxcut(g), SolverConfig(**case["cfg"]))
cut = maxcut_round(output.factor, g).value
after_maxcut = "scipy.optimize" in sys.modules
q = QapInstance(np.array(case["w"]), np.array(case["d"]))
perm = qap_round(np.array(case["lift"]), q).perm.tolist()
print(json.dumps(dict(after_maxcut=after_maxcut, cut=cut, perm=perm, after_qap="scipy.optimize" in sys.modules)))
"""


def test_only_assignment_rounding_loads_scipy_optimize():
    """A fresh process imports the CLI, solves and rounds a MaxCut without
    loading scipy.optimize; assignment rounding loads it on first use."""
    g = random_graph(20, 0.3, 3)
    cfg = dict(max_iters=3, sketch_rank=2, seed=0)
    q, perm = random_qap(3, 20), np.array([1, 2, 0])
    case = dict(
        n=g.n, u=g.edges_u.tolist(), v=g.edges_v.tolist(), cfg=cfg,
        w=q.weights.tolist(), d=q.distances.tolist(), lift=TestQapRound().lift(perm, 3).tolist(),
    )
    env = dict(os.environ, PYTHONPATH=str(Path(specbundle.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], input=json.dumps(case), capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert not seen["after_maxcut"]
    _, output = solve(build_maxcut(g), SolverConfig(**cfg))
    assert seen["cut"] == maxcut_round(output.factor, g).value
    assert seen["perm"] == perm.tolist() and seen["after_qap"]
