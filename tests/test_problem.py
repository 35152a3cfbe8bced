import numpy as np
import pytest

from conftest import graph_from_edges, make_k3, random_graph, random_qap
from _oracles import (
    adjoint_matrix_frozen,
    compressed_rows_frozen,
    partial_trace1,
    partial_trace2,
    primal_image_factor_frozen,
    primal_image_lowrank_frozen,
    proj_N_frozen,
)
from specbundle.problem import (
    DiagonalConstraints,
    ParseError,
    QapInstance,
    SparseConstraintFamilies,
    build_maxcut,
    build_qap,
    parse_graph_mm,
    qap_family_offsets,
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
        g = graph_from_edges(2, [(0, 1, 1.0)])
        np.testing.assert_allclose(g.laplacian().toarray(), [[1, -1], [-1, 1]])

    def test_duplicates_summed_self_loops_dropped(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 5.0)])
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
            graph_from_edges(0, [])


def qap_family_rows(prob) -> dict:
    """Rows of a built QAP problem grouped by their shape alone: the
    inequality flag, the entries per row, whether the entries touch the
    corner row 0 and whether one is off the diagonal."""
    fam = prob.constraints
    per_row = np.bincount(fam.idx, minlength=prob.m)
    corner = np.bincount(fam.idx, weights=fam.rows == 0, minlength=prob.m) > 0
    offdiag = np.bincount(fam.idx, weights=fam.rows != fam.cols, minlength=prob.m) > 0
    out = {}
    for i in range(prob.m):
        key = (bool(prob.ineq_mask[i]), int(per_row[i]), bool(corner[i]), bool(offdiag[i]))
        out.setdefault(key, []).append(i)
    return out


class TestBuildQap:
    def test_constraint_families_n2(self):
        q = random_qap(2, 0, lo=1, hi=9)  # dense, no zero entries off-diagonal
        prob = build_qap(q)
        n_g = int(np.count_nonzero(np.kron(q.distances, q.weights)))
        off = qap_family_offsets(2, n_g)
        sizes = {name: s.stop - s.start for name, s in off.items()}
        assert sizes == {
            "tr1": 3, "tr2": 3, "G": n_g, "diagY": 4, "rowsum": 2, "colsum": 2,
            "B": 4, "corner": 1, "trY": 1,
        }
        assert off["trY"].stop == prob.m
        assert prob.n == 5

        def rows(*names):
            return [i for name in names for i in range(off[name].start, off[name].stop)]

        # key: (inequality, entries per row, touches row 0, has an
        # off-diagonal entry); the zero diagonals of both matrices leave the
        # objective, and so the G rows, off the diagonal
        assert qap_family_rows(prob) == {
            (False, 2, False, False): [0, 2, 3, 5],  # tr1 (k, k) and tr2 (i, i)
            (False, 2, False, True): [1, 4],  # tr1 (0, 1) and tr2 (0, 1)
            (True, 1, False, True): rows("G"),
            (False, 2, True, True): rows("diagY", "rowsum", "colsum"),
            (True, 1, True, True): rows("B"),
            (False, 1, True, False): rows("corner"),
            (False, 4, False, False): rows("trY"),
        }

    def test_g_count_tracks_kron_support(self):
        rng = np.random.default_rng(3)
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 2.0
        d = rng.integers(1, 5, (3, 3)).astype(float)
        d = d + d.T
        np.fill_diagonal(d, 0)
        q = QapInstance(w, d)
        prob = build_qap(q)
        # the G rows are the inequalities off the corner row
        shapes = qap_family_rows(prob)
        n_g = sum(len(v) for (ineq, _, corner, _), v in shapes.items() if ineq and not corner)
        assert n_g == np.count_nonzero(w) * np.count_nonzero(d)
        assert prob.m == qap_family_offsets(3, n_g)["trY"].stop

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
        # after normalization the operator norm estimate is one
        from specbundle.problem import estimate_operator_norm

        post = estimate_operator_norm(prob.constraints)
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
        image = prob.constraints.primal_image_matrix(big)
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
        from conftest import build_from_families

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
            diag.adjoint_matrix(y) @ v[:, 0], generic.adjoint_matrix(y) @ v[:, 0], atol=1e-13
        )
        np.testing.assert_allclose(
            diag.adjoint_inner_lowrank(y, v), generic.adjoint_inner_lowrank(y, v), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.primal_image_lowrank(v, s), generic.primal_image_lowrank(v, s), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.primal_image_matrix(x), generic.primal_image_matrix(x), atol=1e-13
        )
        np.testing.assert_allclose(
            diag.compressed_rows(v), generic.compressed_rows(v), atol=1e-13
        )
        np.testing.assert_allclose(diag.frob_norms(), generic.frob_norms())

    def test_primal_image_sparse_matches_dense(self):
        # <A_i, C> for every row: the sparse cost and its dense copy give
        # the same values, in both constraint families
        for prob in (build_maxcut(random_graph(12, 0.4, 0)), build_qap(random_qap(3, 1))):
            ops = prob.constraints
            np.testing.assert_array_equal(
                ops.primal_image_matrix(prob.cost), ops.primal_image_matrix(prob.cost.toarray())
            )
        empty = SparseConstraintFamilies(4, 2, [], [], [], [])
        cost = build_maxcut(make_k3()).cost
        np.testing.assert_array_equal(empty.primal_image_matrix(cost), 0.0)
        np.testing.assert_array_equal(empty.primal_image_matrix(cost.toarray()), 0.0)

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


class TestSparseFamilyEntries:
    """The entry lists stay the operator's definition: repeated entries add,
    out-of-range entries are refused, and every action equals a dense
    rebuild from ``idx/rows/cols/vals`` (the one the benchmark's checks
    use)."""

    def test_frob_norm_squares_the_summed_entry(self):
        # two halves of A_0[0, 1] = A_0[1, 0] = 2: ||A_0||_F = sqrt(8)
        fam = SparseConstraintFamilies(3, 1, [0, 0], [0, 0], [1, 1], [1.0, 1.0])
        np.testing.assert_allclose(fam.frob_norms(), [np.sqrt(8.0)], rtol=1e-15)

    @pytest.mark.parametrize(
        "field,entry",
        [
            ("idx", ([1], [0], [1], [1.0])),
            ("idx", ([-1], [0], [1], [1.0])),
            ("rows", ([0], [-1], [1], [1.0])),
            ("cols", ([0], [0], [3], [1.0])),
        ],
    )
    def test_out_of_range_entry_rejected(self, field, entry):
        with pytest.raises(ValueError, match=field):
            SparseConstraintFamilies(3, 1, *entry)

    @staticmethod
    def dense_rows(ops) -> np.ndarray:
        """A_i as an m x n x n array, summed from the entry lists."""
        dense = np.zeros((ops.m, ops.n, ops.n))
        np.add.at(dense, (ops.idx, ops.rows, ops.cols), ops.vals)
        off = ops.rows != ops.cols
        np.add.at(dense, (ops.idx[off], ops.cols[off], ops.rows[off]), ops.vals[off])
        return dense

    def test_operator_norm_matches_dense(self):
        from specbundle.problem import estimate_operator_norm, qap_constraint_entries
        from specbundle.symlin import svec

        q = random_qap(3, 7)
        idx, rows, cols, vals, b, _, _ = qap_constraint_entries(q)
        ops = SparseConstraintFamilies(q.size**2 + 1, len(b), idx, rows, cols, vals)
        svec_rows = np.array([svec(a) for a in self.dense_rows(ops)])
        want = np.linalg.norm(svec_rows, 2)
        assert estimate_operator_norm(ops) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("size", [3, 5])
    def test_actions_match_the_entry_lists(self, size):
        from specbundle.symlin import svec

        prob = build_qap(random_qap(size, 3))
        ops = prob.constraints
        dense = self.dense_rows(ops)
        rng = np.random.default_rng(size)
        y = rng.standard_normal(prob.m)
        v = np.linalg.qr(rng.standard_normal((prob.n, 3)))[0]
        x = rng.standard_normal((prob.n, prob.n))
        x = x + x.T
        pairs = [
            (ops.adjoint_matrix(y).toarray(), np.einsum("i,ijk->jk", y, dense)),
            (ops.compressed_rows(v), np.array([svec(v.T @ a @ v) for a in dense])),
            (ops.primal_image_matrix(x), np.einsum("ijk,jk->i", dense, x)),
        ]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


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


    @pytest.mark.parametrize("weight", ["nan", "inf", "-1e999"])
    def test_non_finite_edge_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "w.mtx"
        header = "%%MatrixMarket matrix coordinate real symmetric"
        path.write_text(f"{header}\n3 3 2\n2 1 1\n3 1 {weight}\n")
        with pytest.raises(ValueError, match="finite"):
            parse_graph_mm(path)

    def test_overflowing_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            graph_from_edges(2, [(0, 1, 1e308), (1, 0, 1e308)])

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("0 nan nan 0 0 0 0 0", "finite"),
            ("0 0 0 0 0 inf inf 0", "finite"),
            ("0 1e308 -1e308 0 0 0 0 0", "symmetric"),
        ],
    )
    def test_qaplib_non_finite_or_overflowing_rejected(self, tmp_path, entries, message):
        path = tmp_path / "bad.dat"
        path.write_text(f"2\n{entries}\n")
        with pytest.raises(ParseError, match=message):
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

        g = graph_from_edges(n, edges)
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
            graph_from_edges(3, edges)
        assert str(got.value) == str(ref.value) == "edge (5,0) out of range for n=3"

    def test_vertex_count_beyond_pair_keys_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            graph_from_edges(2**32, [(0, 1, 1.0)])

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

    @pytest.mark.parametrize("n", [5, 1000])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_equal_to_fancy_index_form_in_f_order(self, n, k):
        # F order is the layout of v[:, i], which fixes how
        # compressed.T @ compressed rounds
        from specbundle.symlin import tri_indices

        v = np.random.default_rng(100 * n + k).standard_normal((n, k))
        i, j, w = tri_indices(k)
        out = DiagonalConstraints(n).compressed_rows(v)
        assert np.array_equal(out, v[:, i] * v[:, j] * w[None, :])
        assert out.flags.f_contiguous

    def test_no_second_n_by_d_temporary(self):
        import tracemalloc

        v = np.random.default_rng(10).standard_normal((20000, 11))
        tracemalloc.start()
        try:
            out = DiagonalConstraints(20000).compressed_rows(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


class TestSparseImagesBitIdentity:
    """The position-matrix images agree with the frozen per-entry sums to
    within a floating-point summation bound: 1e-13 times the same action on
    |vals| and |v| (or |y|), so cancellation cannot trip it.  The adjoint
    keeps the COO conversion's CSR layout byte for byte, and the masked
    projection equals the frozen one bit for bit."""

    @pytest.fixture(scope="class")
    def qap5(self):
        return build_qap(random_qap(5, seed=11))

    @staticmethod
    def _abs(fam):
        return SparseConstraintFamilies(fam.n, fam.m, fam.idx, fam.rows, fam.cols, np.abs(fam.vals))

    @staticmethod
    def _close(got, want, bound):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * bound)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_images(self, qap5, k):
        fam = qap5.constraints
        rng = np.random.default_rng(700 + k)
        v = np.linalg.qr(rng.standard_normal((qap5.n, k)))[0]
        a = rng.standard_normal((k, k))
        s = a @ a.T
        lams = rng.random(k)
        mag, abs_v = self._abs(fam), np.abs(v)
        # column-major and strided bases gather the same rows
        for basis in (v, np.asfortranarray(v), np.repeat(v, 2, axis=1)[:, ::2]):
            self._close(
                fam.primal_image_lowrank(basis, s),
                primal_image_lowrank_frozen(fam, v, s),
                primal_image_lowrank_frozen(mag, abs_v, np.abs(s)),
            )
            self._close(
                fam.primal_image_factor(basis, lams),
                primal_image_factor_frozen(fam, v, lams),
                primal_image_factor_frozen(mag, abs_v, lams),
            )
            self._close(
                fam.compressed_rows(basis),
                compressed_rows_frozen(fam, v),
                compressed_rows_frozen(mag, abs_v),
            )

    def test_adjoint_matrix(self, qap5):
        """The same CSR layout as the COO conversion, byte for byte, and the
        same values within the summation bound."""
        rng = np.random.default_rng(13)

        def check(fam, y):
            got, want = fam.adjoint_matrix(y), adjoint_matrix_frozen(fam, y)
            assert type(got) is type(want) and got.shape == want.shape
            for x, z in ((got.indptr, want.indptr), (got.indices, want.indices)):
                assert x.dtype == z.dtype and x.tobytes() == z.tobytes()
            bound = adjoint_matrix_frozen(self._abs(fam), np.abs(y))
            self._close(got.data, want.data, bound.data)

        fam = qap5.constraints
        for _ in range(5):
            check(fam, rng.standard_normal(fam.m) * 10.0 ** rng.integers(-8, 9, fam.m))
        # many duplicates per cell, summed once per position
        for n, e in ((1, 40), (3, 200), (20, 300), (40, 0)):
            a, b = rng.integers(0, n, (2, e))
            fam = SparseConstraintFamilies(
                n, 7, rng.integers(0, 7, e), np.minimum(a, b), np.maximum(a, b),
                rng.standard_normal(e),
            )
            check(fam, rng.standard_normal(7) * 10.0 ** rng.integers(-8, 9, 7))

    def test_proj_n(self, qap5):
        rng = np.random.default_rng(12)
        for z in (rng.standard_normal(qap5.m), np.zeros(qap5.m), -np.zeros(qap5.m)):
            out = proj_N(z, qap5)
            ref = proj_N_frozen(z, qap5)
            assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))
        maxcut = build_maxcut(make_k3())
        z = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(proj_N(z, maxcut), proj_N_frozen(z, maxcut))


def _qap_cases():
    rng = np.random.default_rng(41)
    cases = []
    for n in (1, 2, 3, 5, 12):
        cases.append((f"sparse-{n}", random_qap(n, n)))
        # no zero entry anywhere: every objective entry carries a G row
        w = rng.uniform(1, 2, (n, n))
        d = rng.uniform(1, 2, (n, n))
        cases.append((f"dense-{n}", QapInstance(w + w.T, d + d.T)))
    cases.append(("zero-weights-3", QapInstance(np.zeros((3, 3)), random_qap(3, 2).distances)))
    return cases


QAP_CASES = _qap_cases()


def _assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestQapEntriesFrozen:
    """The array-built QAP rows equal the frozen per-constraint loop bit for
    bit, and so does every scaled quantity of ``build_qap``."""

    @pytest.mark.parametrize("name,q", QAP_CASES, ids=[c[0] for c in QAP_CASES])
    def test_entries_match_loop(self, name, q):
        from _oracles import qap_constraint_entries_frozen
        from specbundle.problem import qap_constraint_entries

        *want, labels, kron_want = qap_constraint_entries_frozen(q)
        *got, kron = qap_constraint_entries(q)
        for g, w in zip(got, want):
            _assert_same_array(g, w)
        _assert_same_array(kron, kron_want)
        # every family sits where the offsets put it
        off = qap_family_offsets(q.size, int(np.count_nonzero(kron)))
        assert [label[0] for label in labels] == [
            name for name, s in off.items() for _ in range(s.start, s.stop)
        ]

    @pytest.mark.parametrize("name,q", QAP_CASES, ids=[c[0] for c in QAP_CASES])
    def test_build_qap_matches_loop(self, name, q):
        from _oracles import build_qap_frozen

        cost, scale_c, b, idx, rows, cols, vals = build_qap_frozen(q)
        prob = build_qap(q)
        assert prob.scale_c == scale_c
        for g, w in (
            (prob.cost.data, cost.data),
            (prob.cost.indices, cost.indices),
            (prob.cost.indptr, cost.indptr),
            (prob.b, b),
            (prob.constraints.idx, idx),
            (prob.constraints.rows, rows),
            (prob.constraints.cols, cols),
            (prob.constraints.vals, vals),
        ):
            _assert_same_array(g, w)

    @staticmethod
    def repeated_entries():
        """Row 0 holds A[0, 1] twice and row 1 holds A[2, 2] three times:
        their stored values are sums of entries."""
        return 3, 2, [0, 0, 1, 1, 1, 0], [0, 0, 2, 2, 2, 1], [1, 1, 2, 2, 2, 2], [
            0.1, 0.7, 1.3, -0.3, 0.9, 2.0,
        ]

    @pytest.mark.parametrize("name", ["sparse-5", "dense-12", "repeated"])
    def test_scaled_equals_rebuild(self, monkeypatch, name):
        """A scaled family equals the family rebuilt from its scaled values,
        position matrix included (bit for bit on the QAP families, within
        rounding where a row repeats a position), and does not sort the
        entries again."""
        from specbundle.problem import qap_constraint_entries

        if name == "repeated":
            n, m, idx, rows, cols, vals = self.repeated_entries()
            idx, vals = np.asarray(idx), np.asarray(vals)
        else:
            q = dict(QAP_CASES)[name]
            idx, rows, cols, vals, b, _, _ = qap_constraint_entries(q)
            n, m = q.size**2 + 1, len(b)
        fam = SparseConstraintFamilies(n, m, idx, rows, cols, vals)
        factors = np.random.default_rng(5).uniform(0.1, 3.0, m)
        want = SparseConstraintFamilies(n, m, idx, rows, cols, vals * factors[idx])
        before = fam._mat.copy()

        def no_sort(*args, **kwargs):
            raise AssertionError("scaled sorted the entries again")

        monkeypatch.setattr(np, "unique", no_sort)
        got = fam.scaled(factors)
        monkeypatch.undo()
        if name == "repeated":
            np.testing.assert_allclose(got._mat.data, want._mat.data, rtol=1e-14, atol=0.0)
        else:
            _assert_same_array(got._mat.data, want._mat.data)
        for g, w in (
            (got.vals, want.vals),
            (got._mat.indices, want._mat.indices),
            (got._mat.indptr, want._mat.indptr),
            (got._pos_rows, want._pos_rows),
            (got._pos_cols, want._pos_cols),
            (got._weight, want._weight),
            (fam._mat.data, before.data),  # the parent is left as it was
            (fam.vals, vals),
        ):
            _assert_same_array(g, w)
        assert got._mat.shape == want._mat.shape


class TestCostOverflow:
    """A cost whose Frobenius norm would overflow is rejected with a message
    that names the cause, with no floating-point warning first."""

    def test_maxcut_heavy_edge(self):
        g = graph_from_edges(3, [(0, 1, 1e160), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="edge weight.*overflow"):
            build_maxcut(g)

    def test_maxcut_norm_at_the_bound(self):
        # entries below the bound whose norm reaches it, and just below
        with pytest.raises(ValueError, match="Frobenius norm is .*overflow"):
            build_maxcut(graph_from_edges(3, [(0, 1, 2e154), (1, 2, 1.0)]))
        prob = build_maxcut(graph_from_edges(3, [(0, 1, 1e154), (1, 2, 1.0)]))
        assert np.isfinite(prob.scale_c) and np.isfinite(prob.cost.data).all()

    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_qap_heavy_entry(self, big):
        q = random_qap(3, 4)
        w = q.weights.copy()
        w[0, 1] = w[1, 0] = big
        with pytest.raises(ValueError, match="distance times the largest weight.*overflow"):
            build_qap(QapInstance(w, q.distances))

    def test_generic_cost(self):
        from conftest import build_from_families

        cost = np.array([[1e155, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Frobenius norm is .*overflow"):
            build_from_families(2, cost, ([0], [0], [0], [1.0]), [1.0], [False])


class TestCostUnderflow:
    """A cost whose squares underflow is normalized in units of its largest
    entry; a QAP objective whose products underflow is rejected with a
    message that names the cause."""

    @pytest.mark.parametrize("w", [1e-170, 1e-160])
    def test_maxcut_tiny_edges(self, w):
        edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]
        ref = build_maxcut(graph_from_edges(3, edges))
        prob = build_maxcut(graph_from_edges(3, [(a, b, w * x) for a, b, x in edges]))
        assert prob.scale_c == pytest.approx(w * ref.scale_c, rel=1e-14)
        assert float(np.sqrt(np.sum(prob.cost.data**2))) == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(prob.cost.toarray(), ref.cost.toarray(), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("tiny", [1e-170, 1e-160])
    def test_qap_tiny_entries(self, tiny):
        q = random_qap(3, 4, lo=1)
        with pytest.raises(ValueError, match="distance times the largest weight.*underflow"):
            build_qap(QapInstance(tiny * q.weights, tiny * q.distances))
