import math

import numpy as np
import pytest

from _oracles import (
    orthonormalize_frozen,
    solve_spd_frozen,
    svec_frozen,
    svec_inv_frozen,
    symm_kron_frozen,
    u_matrix_frozen,
)
from specbundle import symlin
from specbundle.bundle import _orthonormalize
from specbundle.symlin import (
    ConditioningError,
    mat_dim,
    small_eigh,
    solve_spd,
    svec,
    svec_dim,
    svec_inv,
    svec_identity,
    symm_kron,
    tri_indices,
    u_matrix,
)

SQRT2 = math.sqrt(2.0)


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestSvec:
    def test_ordering(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(svec(a), [1.0, 2.0 * SQRT2, 3.0])

    def test_identity(self):
        np.testing.assert_array_equal(svec(np.eye(2)), [1.0, 0.0, 1.0])

    def test_inner_product_example(self):
        b = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert svec(np.eye(2)) @ svec(b) == pytest.approx(4.0)

    def test_isometry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a, b = random_sym(rng, n), random_sym(rng, n)
            ip = np.trace(a @ b)
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(svec(a) @ svec(b) - ip) <= 1e-12 * max(scale, 1.0)

    def test_round_trip_exact(self):
        # one ulp is the attainable limit: the off-diagonal scaling is
        # irrational, so divide-then-multiply can flip the last bit
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            v = rng.standard_normal(svec_dim(n))
            np.testing.assert_allclose(svec(svec_inv(v)), v, rtol=4e-16, atol=0.0)
            a = svec_inv(v)
            np.testing.assert_allclose(svec_inv(svec(a)), a, rtol=4e-16, atol=0.0)

    def test_inv_zero(self):
        np.testing.assert_array_equal(svec_inv(np.zeros(6)), np.zeros((3, 3)))

    def test_inv_rejects_non_triangular_length(self):
        with pytest.raises(ValueError):
            svec_inv(np.zeros(5))
        assert mat_dim(6) == 3


class TestUMatrix:
    def test_printed_2x2(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1 / SQRT2, 1 / SQRT2, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(u_matrix(2), expected)

    def test_vec_recovery(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 5):
            a = random_sym(rng, n)
            u = u_matrix(n)
            np.testing.assert_allclose(u.T @ svec(a), a.flatten(order="F"), atol=1e-14)

    def test_orthonormal_rows(self):
        u = u_matrix(4)
        np.testing.assert_allclose(u @ u.T, np.eye(svec_dim(4)), atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_loop_reference(self, n):
        assert np.array_equal(u_matrix(n), u_matrix_frozen(n))


class TestCachedTables:
    """The per-size tables are built once and shared by every caller, so
    each must refuse writes: one stray in-place update would corrupt every
    later call."""

    @staticmethod
    def tables(n):
        d = svec_dim(n)
        return {
            "tri_indices": tri_indices(n),
            "svec gather": symlin._svec_gather(n),
            "svec_inv gather": symlin._svec_inv_gather(d)[1:],
            "svec_identity": (svec_identity(n),),
            "u_matrix": (u_matrix(n),),
            "symm_kron sides": symlin._kron_sides(n),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 11])
    def test_every_array_refuses_writes(self, n):
        a = random_sym(np.random.default_rng(n), n)
        before = svec(a)
        for name, arrays in self.tables(n).items():
            for arr in arrays:
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr *= 2
        assert np.array_equal(svec(a), before)

    def test_built_once_per_size(self):
        for n in (2, 7):
            first = self.tables(n)
            for name, arrays in self.tables(n).items():
                assert all(x is y for x, y in zip(arrays, first[name])), name


class TestSymmKron:
    def test_identity_action(self):
        rng = np.random.default_rng(3)
        a = random_sym(rng, 3)
        op = symm_kron(np.eye(3), np.eye(3))
        np.testing.assert_allclose(op @ svec(a), svec(a), atol=1e-13)

    def test_action_matches_direct(self):
        rng = np.random.default_rng(4)
        k = 4
        g = rng.standard_normal((k, k))
        h = rng.standard_normal((k, k))
        a = random_sym(rng, k)
        lhs = symm_kron(g, h) @ svec(a)
        rhs = 0.5 * svec(h @ a @ g.T + g @ a @ h.T)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_same_argument_symmetric(self):
        # symmetric operands, as in the Newton systems this feeds
        rng = np.random.default_rng(5)
        g = random_sym(rng, 3)
        op = symm_kron(g, g)
        np.testing.assert_allclose(op, op.T, atol=1e-14)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            symm_kron(np.eye(2), np.eye(3))


class TestOrthonormalize:
    """The bundle basis kernel: one column-pivoted QR with a relative drop
    rule (``bundle._orthonormalize``)."""

    def test_already_orthonormal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        q = _orthonormalize(np.column_stack([e1, e2]))
        assert q.shape == (3, 2)
        assert q.flags.c_contiguous
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-14)

    def test_duplicate_dropped(self):
        v = np.array([1.0, 1.0]) / SQRT2
        q = _orthonormalize(np.column_stack([v, v]))
        assert q.shape == (2, 1)

    def test_random_block(self):
        rng = np.random.default_rng(6)
        q = _orthonormalize(rng.standard_normal((100, 8)))
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-12

    @pytest.mark.parametrize("cols", [np.zeros((4, 2)), np.zeros((4, 1))])
    def test_all_zero_keeps_no_column(self, cols):
        assert _orthonormalize(cols).shape == (4, 0)

    @pytest.mark.parametrize(
        "case, rank",
        [("random", 4), ("dependent", 3), ("below drop", 3), ("above drop", 4), ("zero", 0)],
    )
    def test_same_rank_and_span_as_gram_schmidt(self, case, rank):
        # the drop rule is relative to the largest column norm in both; the
        # last column sits 1e-14 or 1e-9 of that norm off the span of the rest
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 4))
        if case == "dependent":
            a[:, 3] = a[:, 0] - 2.0 * a[:, 1]
        elif case in ("below drop", "above drop"):
            off = np.linalg.qr(a[:, :3])[0]
            v = a[:, 3] - off @ (off.T @ a[:, 3])
            scale = (1e-14 if case == "below drop" else 1e-9) * np.linalg.norm(a, axis=0).max()
            a[:, 3] = a[:, 0] + scale * v / np.linalg.norm(v)
        elif case == "zero":
            a[:] = 0.0
        q, ref = _orthonormalize(a), orthonormalize_frozen(a)
        assert q.shape == ref.shape == (50, rank)
        # a direction recovered from a 1e-9 residual carries about eps / 1e-9
        # of rounding in either method
        atol = 1e-6 if case == "above drop" else 1e-12
        np.testing.assert_allclose(q @ q.T, ref @ ref.T, atol=atol)

    def test_span_preserved(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 3))
        cols = np.column_stack([a[:, 0], a[:, 1], a[:, 0] + a[:, 1], a[:, 2]])
        q = _orthonormalize(cols)
        assert q.shape[1] == 3
        # every input column reproduces from the basis
        np.testing.assert_allclose(q @ (q.T @ cols), cols, atol=1e-10)


class TestSmallEigh:
    def test_diag(self):
        vals, vecs = small_eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)

    def test_zero(self):
        vals, vecs = small_eigh(np.zeros((2, 2)))
        np.testing.assert_array_equal(vals, np.zeros(2))
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(2), atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        s = random_sym(rng, 10)
        vals, vecs = small_eigh(s)
        recon = (vecs * vals[None, :]) @ vecs.T
        assert np.linalg.norm(recon - s) <= 1e-12 * np.linalg.norm(s)
        assert np.all(np.diff(vals) <= 0)

    def test_2x2_analytic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b, c = rng.standard_normal(3)
            m = np.array([[a, b], [b, c]])
            disc = math.sqrt((a - c) ** 2 + 4 * b * b)
            expected = np.array([(a + c + disc) / 2, (a + c - disc) / 2])
            vals, _ = small_eigh(m)
            np.testing.assert_allclose(vals, expected, atol=1e-14)


class TestSolveSpd:
    def test_identity(self):
        b = np.arange(4.0)
        np.testing.assert_allclose(solve_spd(np.eye(4), b), b)

    def test_scaled_identity(self):
        b = np.arange(4.0) + 1
        np.testing.assert_allclose(solve_spd(2 * np.eye(4), b), b / 2)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((50, 50))
        m = a @ a.T + 50 * np.eye(50)
        rhs = rng.standard_normal(50)
        x = solve_spd(m, rhs)
        bound = 1e-10 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert np.linalg.norm(m @ x - rhs) <= bound

    def test_indefinite_raises(self):
        with pytest.raises(ConditioningError):
            solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_svec_identity_cached_matches():
    np.testing.assert_array_equal(svec_identity(4), svec(np.eye(4)))


class TestBitIdentity:
    """The lean kernels must equal the frozen np.kron, cho_factor/cho_solve
    and fancy-index versions bit for bit: rounding differences of 1e-17 in
    the Newton core move the solver's iteration counts."""

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    def test_symm_kron(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(5):
            g = random_sym(rng, k)
            h = np.linalg.inv(random_sym(rng, k) + k * np.eye(k))
            assert np.array_equal(symm_kron(g, h), symm_kron_frozen(g, h))
            # the products need no symmetry
            a, b = rng.standard_normal((2, k, k))
            assert np.array_equal(symm_kron(a, b), symm_kron_frozen(a, b))

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    def test_solve_spd(self, k):
        rng = np.random.default_rng(200 + k)
        d = svec_dim(k)
        for _ in range(5):
            a = rng.standard_normal((d, d))
            m = a @ a.T + 0.1 * np.eye(d)
            rhs = rng.standard_normal(d)
            assert np.array_equal(solve_spd(m, rhs), solve_spd_frozen(m, rhs))
            # only the lower triangle is read
            skew = m + np.triu(rng.standard_normal((d, d)), 1)
            assert np.array_equal(solve_spd(skew, rhs), solve_spd_frozen(skew, rhs))

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([1.0, -1.0, 2.0]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            np.zeros((3, 3)),
        ],
    )
    def test_not_positive_definite_raises(self, m):
        rhs = np.ones(m.shape[0])
        with pytest.raises(ConditioningError):
            solve_spd_frozen(m, rhs)
        with pytest.raises(ConditioningError):
            solve_spd(m, rhs)

    def test_nan_matrix_same_outcome(self):
        m = np.array([[1.0, 0.0], [0.0, np.nan]])
        rhs = np.ones(2)
        assert np.array_equal(solve_spd(m, rhs), solve_spd_frozen(m, rhs), equal_nan=True)

    def test_solve_spd_leaves_inputs(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        m0, rhs0 = m.copy(), rhs.copy()
        solve_spd(m, rhs)
        assert np.array_equal(m, m0) and np.array_equal(rhs, rhs0)

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    def test_svec_and_inverse(self, k):
        rng = np.random.default_rng(300 + k)
        a = random_sym(rng, k)
        assert np.array_equal(svec(a), svec_frozen(a))
        assert np.array_equal(svec(np.asfortranarray(a)), svec_frozen(a))
        v = rng.standard_normal(svec_dim(k))
        assert np.array_equal(svec_inv(v), svec_inv_frozen(v))
