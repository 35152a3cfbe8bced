import numpy as np
import pytest

from conftest import make_k3, random_graph, random_qap
from _oracles import (
    compressed_rows_frozen,
    partial_trace1,
    partial_trace2,
    primal_image_factor_frozen,
    primal_image_lowrank_frozen,
    proj_N_frozen,
)
from specbundle.problem import (
    DiagonalConstraints,
    GraphInstance,
    ParseError,
    QapInstance,
    SparseConstraintFamilies,
    build_maxcut,
    build_qap,
    parse_graph_mm,
    parse_qaplib,
    proj_K,
    proj_N,
    write_graph_mm,
    write_qaplib,
)


def frob(m):
    return float(np.sqrt((m.multiply(m)).sum()))


class TestGraphInstance:
    def test_laplacian_k3(self):
        lap = make_k3().laplacian().toarray()
        np.testing.assert_allclose(lap, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_single_edge(self):
        g = GraphInstance.from_edges(2, [(0, 1, 1.0)])
        np.testing.assert_allclose(g.laplacian().toarray(), [[1, -1], [-1, 1]])

    def test_duplicates_summed_self_loops_dropped(self):
        g = GraphInstance.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 5.0)])
        assert g.num_edges == 1
        assert g.edges_w[0] == 3.0
        lap = g.laplacian().toarray()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0)


class TestBuildMaxcut:
    def test_k3_shape_and_scaling(self):
        g = make_k3()
        prob = build_maxcut(g)
        assert (prob.n, prob.m) == (3, 3)
        assert not prob.has_ineq
        np.testing.assert_allclose(prob.b, np.full(3, 1 / 3))
        assert frob(prob.cost) == pytest.approx(1.0, abs=1e-10)
        assert prob.scale_c == pytest.approx(np.linalg.norm(g.laplacian().toarray() / 4))
        assert prob.scale_x == 3.0
        assert prob.alpha == 2.0

    def test_k3_relaxation_value(self):
        # symmetry reduction: X = I + t(J - I) is feasible iff eigenvalues
        # 1 - t and 1 + 2t are nonnegative; objective (6 - 6t)/4 peaks at
        # the PSD boundary t = -1/2
        ts = np.linspace(-0.5, 1.0, 100001)
        objs = (6 - 6 * ts) / 4
        assert objs.max() == pytest.approx(9 / 4, abs=1e-12)

    def test_trace_target(self):
        g = make_k3()
        prob = build_maxcut(g)
        # feasible X satisfies diag = b, so its trace is one after scaling
        assert prob.b.sum() == pytest.approx(1.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            GraphInstance.from_edges(0, [])


class TestBuildQap:
    def test_constraint_families_n2(self):
        q = random_qap(2, 0, lo=1, hi=9)  # dense, no zero entries off-diagonal
        prob = build_qap(q)
        from collections import Counter

        counts = Counter(label[0] for label in prob.labels)
        kron = np.kron(q.distances, q.weights)
        assert counts["tr1"] == 3
        assert counts["tr2"] == 3
        assert counts["G"] == int(np.count_nonzero(kron))
        assert counts["diagY"] == 4
        assert counts["rowsum"] == 2
        assert counts["colsum"] == 2
        assert counts["B"] == 4
        assert counts["corner"] == 1
        assert counts["trY"] == 1
        assert prob.m == sum(counts.values())
        assert prob.n == 5

    def test_g_count_tracks_kron_support(self):
        rng = np.random.default_rng(3)
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        d = rng.integers(1, 5, (3, 3)).astype(float)
        d = d + d.T
        np.fill_diagonal(d, 0)
        q = QapInstance(w, d)
        prob = build_qap(q)
        n_g = sum(1 for label in prob.labels if label[0] == "G")
        assert n_g == np.count_nonzero(w) * np.count_nonzero(d)

    def test_partial_trace_identities(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 2))
        np.testing.assert_allclose(partial_trace1(np.kron(np.eye(2), m), 2), 2 * m)
        np.testing.assert_allclose(
            partial_trace2(np.kron(m, np.eye(2)), 2), 2 * m
        )

    def test_scaling_invariants(self):
        q = random_qap(3, 7)
        prob = build_qap(q)
        assert frob(prob.cost) == pytest.approx(1.0, abs=1e-10)
        norms = prob.constraints.frob_norms()
        assert norms.max() - norms.min() <= 1e-12 * norms.max()
        assert prob.op_norm_estimate is not None
        # after normalization the operator norm estimate is one
        from specbundle.problem import estimate_operator_norm

        post = estimate_operator_norm(prob.constraints, prob.n)
        assert post == pytest.approx(1.0, rel=1e-4)
        assert prob.sense == -1
        assert prob.scale_x == q.size + 1

    def test_integral_assignment_is_feasible(self):
        # lift a permutation and check every scaled constraint row
        q = random_qap(3, 9)
        n = q.size
        prob = build_qap(q)
        perm = np.array([2, 0, 1])
        pi = np.zeros((n, n))
        pi[np.arange(n), perm] = 1.0
        y_vec = pi.flatten(order="F")
        x = np.concatenate([[1.0], y_vec])
        big = np.outer(x, x) / prob.scale_x
        image = prob.constraints.primal_image_dense(big)
        viol_eq = np.abs(image - prob.b)[~prob.ineq_mask].max()
        viol_in = (image - prob.b)[prob.ineq_mask].max()
        assert viol_eq <= 1e-12
        assert viol_in <= 1e-12

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            QapInstance(np.zeros((2, 2)), np.zeros((3, 3)))


class TestProjections:
    def make_prob(self):
        rng = np.random.default_rng(0)
        n = 6
        idx = list(range(8))
        rows = list(rng.integers(0, n, 8))
        cols = rows.copy()
        vals = [1.0] * 8
        b = rng.standard_normal(8)
        ineq = [False] * 4 + [True] * 4
        from specbundle.problem import build_from_families

        return build_from_families(n, np.eye(n), (idx, rows, cols, vals), b, ineq)

    def test_proj_k_fixed_point(self):
        prob = self.make_prob()
        np.testing.assert_allclose(proj_K(prob.b.copy(), prob), prob.b)

    def test_proj_k_no_ineq_returns_b(self):
        prob = build_maxcut(make_k3())
        z = np.array([5.0, -1.0, 0.2])
        np.testing.assert_allclose(proj_K(z, prob), prob.b)

    def test_proj_k_feasible_side_unchanged(self):
        prob = self.make_prob()
        z = prob.b - 0.5
        out = proj_K(z, prob)
        np.testing.assert_allclose(out[prob.ineq_mask], z[prob.ineq_mask])

    def test_proj_n_no_ineq_zero(self):
        prob = build_maxcut(make_k3())
        np.testing.assert_array_equal(proj_N(np.ones(3), prob), np.zeros(3))

    def test_proj_n_nonpositive_preserved(self):
        prob = self.make_prob()
        z = -np.abs(np.random.default_rng(1).standard_normal(prob.m))
        out = proj_N(z, prob)
        np.testing.assert_allclose(out[prob.ineq_mask], z[prob.ineq_mask])
        np.testing.assert_array_equal(out[~prob.ineq_mask], 0.0)

    def test_proj_n_is_nearest_point(self):
        prob = self.make_prob()
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.standard_normal(prob.m)
            out = proj_N(z, prob)
            # coordinate-wise oracle
            expected = np.where(
                prob.ineq_mask, np.minimum(z, 0.0), 0.0
            )
            np.testing.assert_allclose(out, expected)

    def test_projections_idempotent_nonexpansive(self):
        prob = self.make_prob()
        rng = np.random.default_rng(3)
        for proj in (proj_K, proj_N):
            z1, z2 = rng.standard_normal((2, prob.m))
            p1, p2 = proj(z1, prob), proj(z2, prob)
            np.testing.assert_allclose(proj(p1, prob), p1)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-14


class TestOperatorBundles:
    def test_adjoint_identity_both_builders(self):
        for prob in (build_maxcut(random_graph(12, 0.4, 0)), build_qap(random_qap(3, 1))):
            rng = np.random.default_rng(5)
            y = rng.standard_normal(prob.m)
            v, _ = np.linalg.qr(rng.standard_normal((prob.n, 3)))
            s = rng.standard_normal((3, 3))
            s = s @ s.T
            lhs = prob.constraints.primal_image_lowrank(v, s) @ y
            rhs = float(np.sum(prob.constraints.adjoint_inner_lowrank(y, v) * s))
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_diagonal_fast_path_matches_generic(self):
        n = 8
        diag = DiagonalConstraints(n)
        generic = SparseConstraintFamilies(
            n, n, np.arange(n), np.arange(n), np.arange(n), np.ones(n)
        )
        rng = np.random.default_rng(6)
        y = rng.standard_normal(n)
        v, _ = np.linalg.qr(rng.standard_normal((n, 4)))
        s = rng.standard_normal((4, 4))
        s = s + s.T
        x = rng.standard_normal((n, n))
        x = x + x.T
        np.testing.assert_allclose(
            diag.adjoint_matvec(y, v[:, 0]), generic.adjoint_matvec(y, v[:, 0]), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.adjoint_inner_lowrank(y, v), generic.adjoint_inner_lowrank(y, v), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.primal_image_lowrank(v, s), generic.primal_image_lowrank(v, s), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.primal_image_dense(x), generic.primal_image_dense(x), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.compressed_rows(v), generic.compressed_rows(v), atol=1e-13
        )
        np.testing.assert_allclose(diag.frob_norms(), generic.frob_norms())

    def test_compressed_rows_definition(self):
        prob = build_qap(random_qap(2, 4))
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.standard_normal((prob.n, 2)))
        rows = prob.constraints.compressed_rows(v)
        # row i must be svec(V^T A_i V); reconstruct A_i densely per row
        from specbundle.symlin import svec

        ops = prob.constraints
        for i in (0, 5, 11, prob.m - 1):
            a_dense = np.zeros((prob.n, prob.n))
            sel = ops.idx == i
            for r, c, val in zip(ops.rows[sel], ops.cols[sel], ops.vals[sel]):
                a_dense[r, c] += val
                if r != c:
                    a_dense[c, r] += val
            np.testing.assert_allclose(rows[i], svec(v.T @ a_dense @ v), atol=1e-12)


class TestParsers:
    def test_k3_pattern_file(self, tmp_path):
        path = tmp_path / "k3.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"
        )
        g = parse_graph_mm(path)
        assert g.n == 3 and g.num_edges == 3

    def test_graph_round_trip(self, tmp_path):
        g = random_graph(15, 0.3, 11)
        path = tmp_path / "g.mtx"
        write_graph_mm(g, path)
        h = parse_graph_mm(path)
        assert h.n == g.n
        np.testing.assert_array_equal(h.edges_u, g.edges_u)
        np.testing.assert_array_equal(h.edges_v, g.edges_v)
        np.testing.assert_allclose(h.edges_w, g.edges_w)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a header\n1 1 0\n")
        with pytest.raises(ParseError) as err:
            parse_graph_mm(path)
        assert err.value.line == 1

    def test_missing_mirror_in_general(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1.5\n"
        )
        with pytest.raises(ParseError):
            parse_graph_mm(path)

    def test_general_with_mirrors(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.5\n2 1 1.5\n"
        )
        g = parse_graph_mm(path)
        assert g.num_edges == 1 and g.edges_w[0] == 1.5

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 4 0\n")
        with pytest.raises(ParseError):
            parse_graph_mm(path)

    def test_entry_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_graph_mm(path)
        assert err.value.line == 3

    def test_qaplib_small(self, tmp_path):
        path = tmp_path / "q.dat"
        path.write_text("2\n\n0 3\n3 0\n\n0 5\n5 0\n")
        q = parse_qaplib(path)
        assert q.size == 2
        np.testing.assert_allclose(q.weights, [[0, 3], [3, 0]])
        np.testing.assert_allclose(q.distances, [[0, 5], [5, 0]])

    def test_qaplib_round_trip(self, tmp_path):
        q = random_qap(4, 13)
        path = tmp_path / "rt.dat"
        write_qaplib(q, path)
        p = parse_qaplib(path)
        np.testing.assert_allclose(p.weights, q.weights)
        np.testing.assert_allclose(p.distances, q.distances)

    def test_qaplib_truncated(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(ParseError):
            parse_qaplib(path)

    def test_qaplib_asymmetric(self, tmp_path):
        path = tmp_path / "asym.dat"
        path.write_text("2\n0 1\n2 0\n0 0\n0 0\n")
        with pytest.raises(ParseError):
            parse_qaplib(path)


class TestDualSlackOperator:
    def test_symmetry_spot_check(self):
        from specbundle.problem import dual_slack_operator

        for prob in (build_maxcut(random_graph(10, 0.4, 1)), build_qap(random_qap(2, 2))):
            rng = np.random.default_rng(4)
            y = rng.standard_normal(prob.m)
            op = dual_slack_operator(prob, y)
            u, v = rng.standard_normal((2, prob.n))
            lhs = u @ op.matvec(v)
            rhs = op.matvec(u) @ v
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_matches_dense(self):
        prob = build_maxcut(random_graph(8, 0.5, 3))
        from specbundle.problem import dual_slack_operator

        rng = np.random.default_rng(5)
        y = rng.standard_normal(prob.m)
        op = dual_slack_operator(prob, y)
        dense = prob.cost.toarray() - np.diag(y)
        v = rng.standard_normal(prob.n)
        np.testing.assert_allclose(op.matvec(v), dense @ v, atol=1e-12)


class TestFromEdgesMatchesDict:
    def _check(self, n, edges):
        from _oracles import graph_from_edges_dict

        g = GraphInstance.from_edges(n, edges)
        u, v, w = graph_from_edges_dict(n, edges)
        assert np.array_equal(g.edges_u, u) and g.edges_u.dtype == np.int64
        assert np.array_equal(g.edges_v, v) and g.edges_v.dtype == np.int64
        assert np.array_equal(g.edges_w, w) and g.edges_w.dtype == np.float64
        return g

    def test_random_with_duplicates_and_loops(self):
        rng = np.random.default_rng(3)
        n = 60
        u = rng.integers(0, n, 800)
        v = rng.integers(0, n, 800)
        v[:40] = u[:40]  # self loops
        w = rng.standard_normal(800)
        edges = [(int(a), int(b), float(c)) for a, b, c in zip(u, v, w)]
        # repeat a block in the opposite orientation
        edges += [(b, a, 0.1 * c) for a, b, c in edges[100:300]]
        g = self._check(n, edges)
        assert np.all(g.edges_u < g.edges_v)

    def test_empty_and_loops_only(self):
        g = self._check(4, [])
        assert g.num_edges == 0
        g = self._check(4, [(2, 2, 1.0), (0, 0, 3.0)])
        assert g.num_edges == 0

    def test_first_out_of_range_edge_raises(self):
        from _oracles import graph_from_edges_dict

        # the loop on an out-of-range vertex is dropped before the check
        edges = [(0, 1, 1.0), (9, 9, 1.0), (5, 0, 1.0), (-1, 2, 1.0)]
        with pytest.raises(ValueError) as ref:
            graph_from_edges_dict(3, edges)
        with pytest.raises(ValueError) as got:
            GraphInstance.from_edges(3, edges)
        assert str(got.value) == str(ref.value) == "edge (5,0) out of range for n=3"

    def test_vertex_count_beyond_pair_keys_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            GraphInstance.from_edges(2**32, [(0, 1, 1.0)])

    def test_subgraph_matches_rebuilt_edges(self):
        g = random_graph(40, 0.3, 5)
        sub = g.subgraph(25)
        mask = (g.edges_u < 25) & (g.edges_v < 25)
        edges = [
            (int(a), int(b), float(c))
            for a, b, c in zip(g.edges_u[mask], g.edges_v[mask], g.edges_w[mask])
        ]
        ref = self._check(25, edges)
        assert np.array_equal(sub.edges_u, ref.edges_u)
        assert np.array_equal(sub.edges_w, ref.edges_w)


class TestDiagonalCompressedRows:
    def test_bitwise_equal_to_product_form(self):
        from specbundle.symlin import tri_indices

        rng = np.random.default_rng(9)
        v = rng.standard_normal((50, 6))
        i, j, w = tri_indices(6)
        out = DiagonalConstraints(50).compressed_rows(v)
        assert np.array_equal(out, v[:, i] * v[:, j] * w[None, :])


class TestSparseImagesBitIdentity:
    """The np.take row gathers and the masked projection must equal the
    frozen fancy-index versions bit for bit."""

    @pytest.fixture(scope="class")
    def qap5(self):
        return build_qap(random_qap(5, seed=11))

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_images(self, qap5, k):
        fam = qap5.constraints
        rng = np.random.default_rng(700 + k)
        v = np.linalg.qr(rng.standard_normal((qap5.n, k)))[0]
        a = rng.standard_normal((k, k))
        s = a @ a.T
        lams = rng.random(k)
        # column-major and strided bases gather the same rows
        for basis in (v, np.asfortranarray(v), np.repeat(v, 2, axis=1)[:, ::2]):
            assert np.array_equal(
                fam.primal_image_lowrank(basis, s), primal_image_lowrank_frozen(fam, v, s)
            )
            assert np.array_equal(
                fam.primal_image_factor(basis, lams), primal_image_factor_frozen(fam, v, lams)
            )
            assert np.array_equal(fam.compressed_rows(basis), compressed_rows_frozen(fam, v))

    def test_proj_n(self, qap5):
        rng = np.random.default_rng(12)
        for z in (rng.standard_normal(qap5.m), np.zeros(qap5.m), -np.zeros(qap5.m)):
            out = proj_N(z, qap5)
            ref = proj_N_frozen(z, qap5)
            assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))
        maxcut = build_maxcut(make_k3())
        z = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(proj_N(z, maxcut), proj_N_frozen(z, maxcut))
