import numpy as np
import pytest

from specbundle.sketch import (
    NystromSketch,
    make_test_matrix,
    reconstruct,
    sketch_init,
    sketch_update,
)


def random_psd_factor(rng, n, rank):
    f = rng.standard_normal((n, rank))
    lams = np.abs(rng.standard_normal(rank)) + 0.1
    return f, lams


class TestInit:
    def test_zero_sketch(self):
        s = sketch_init(40, 6, seed=3)
        np.testing.assert_array_equal(s.sketch_mat, np.zeros((40, 6)))

    def test_seed_determinism(self):
        a = sketch_init(30, 5, seed=9)
        b = sketch_init(30, 5, seed=9)
        np.testing.assert_array_equal(a.psi(), b.psi())

    def test_regenerated_matches_cached(self):
        # a sketch read back from a state file holds no test matrix
        s = NystromSketch(n=25, r=4, psi_seed=1, sketch_mat=np.zeros((25, 4)))
        assert s.psi_cache is None
        np.testing.assert_array_equal(s.psi(), sketch_init(25, 4, seed=1).psi())

    def test_column_norm_concentration(self):
        n = 100
        norms = []
        for seed in range(100):
            psi = make_test_matrix(n, 3, seed)
            norms.extend(np.linalg.norm(psi, axis=0))
        norms = np.array(norms)
        # chi distribution with n degrees of freedom: mean ~ sqrt(n), sd ~ 1/sqrt(2)
        assert np.all(np.abs(norms - np.sqrt(n)) <= 4.0)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            sketch_init(5, 6, seed=0)
        with pytest.raises(ValueError):
            sketch_init(5, 0, seed=0)


class TestUpdate:
    def test_identity_weight_zero_update(self):
        s = sketch_init(20, 4, seed=0)
        rng = np.random.default_rng(1)
        f, lams = random_psd_factor(rng, 20, 3)
        s = sketch_update(s, 1.0, f, lams)
        before = s.sketch_mat.copy()
        s = sketch_update(s, 1.0, f, np.zeros(3))
        np.testing.assert_array_equal(s.sketch_mat, before)

    def test_rank_one_from_zero(self):
        s = sketch_init(15, 3, seed=2)
        v = np.arange(15.0)[:, None]
        s = sketch_update(s, 0.0, v, np.ones(1))
        expected = v @ (v.T @ s.psi())
        np.testing.assert_allclose(s.sketch_mat, expected, atol=1e-12)

    def test_tracks_dense_shadow(self):
        n, r = 40, 8
        s = sketch_init(n, r, seed=5)
        rng = np.random.default_rng(6)
        shadow = np.zeros((n, n))
        for _ in range(30):
            eta = float(rng.random())
            k = int(rng.integers(1, 4))
            v, _ = np.linalg.qr(rng.standard_normal((n, k)))
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            lams = np.abs(rng.standard_normal(k))
            f = v @ q
            s = sketch_update(s, eta, f, lams)
            shadow = eta * shadow + (f * lams[None, :]) @ f.T
        np.testing.assert_allclose(s.sketch_mat, shadow @ s.psi(), atol=1e-9)

    def test_dimension_mismatch(self):
        s = sketch_init(10, 2, seed=0)
        with pytest.raises(ValueError):
            sketch_update(s, 1.0, np.zeros((9, 2)), np.ones(2))

    def test_negative_weight_rejected(self):
        s = sketch_init(10, 2, seed=0)
        with pytest.raises(ValueError):
            sketch_update(s, -0.5, np.zeros((10, 2)), np.ones(2))

    def test_linearity(self):
        n, r = 30, 5
        rng = np.random.default_rng(7)
        f1, l1 = random_psd_factor(rng, n, 2)
        f2, l2 = random_psd_factor(rng, n, 2)
        eta = 0.7
        a = sketch_init(n, r, seed=8)
        a = sketch_update(a, 1.0, f1, l1)
        a = sketch_update(a, eta, f2, l2)
        # same object assembled in one shot
        dense = eta * (f1 * l1[None, :]) @ f1.T + (f2 * l2[None, :]) @ f2.T
        np.testing.assert_allclose(
            a.sketch_mat, dense @ a.psi(), rtol=1e-12, atol=1e-12
        )


class TestReconstruct:
    def test_zero_sketch_zero_reconstruction(self):
        s = sketch_init(12, 4, seed=0)
        u, lams = reconstruct(s)
        np.testing.assert_array_equal(lams, np.zeros(4))
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-14)

    def test_exact_rank_one_recovery(self):
        n = 30
        rng = np.random.default_rng(9)
        v = rng.standard_normal(n)
        s = sketch_init(n, 2, seed=10)
        s = sketch_update(s, 0.0, v[:, None], np.ones(1))
        u, lams = reconstruct(s)
        target = np.outer(v, v)
        recon = (u * lams[None, :]) @ u.T
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_exact_rank_three_with_rank_six_sketch(self):
        n = 40
        rng = np.random.default_rng(11)
        f, lams0 = random_psd_factor(rng, n, 3)
        target = (f * lams0[None, :]) @ f.T
        s = sketch_init(n, 6, seed=12)
        s = sketch_update(s, 0.0, f, lams0)
        u, lams = reconstruct(s)
        recon = (u * lams[None, :]) @ u.T
        rel = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_nuclear_error_bound_monte_carlo(self):
        # exact-rank regime of the expected-error bound: a rank-3 matrix
        # sketched at rank 6 reconstructs with essentially zero nuclear error
        n = 40
        rng = np.random.default_rng(13)
        f, lams0 = random_psd_factor(rng, n, 3)
        target = (f * lams0[None, :]) @ f.T
        errors = []
        for seed in range(50):
            s = sketch_init(n, 6, seed=seed)
            s = sketch_update(s, 0.0, f, lams0)
            u, lams = reconstruct(s)
            recon = (u * lams[None, :]) @ u.T
            errors.append(np.linalg.eigvalsh(target - recon))
        nuclear = np.abs(np.array(errors)).sum(axis=1).mean()
        assert nuclear <= 1e-7 * np.trace(target)

    def test_reconstruction_psd(self):
        n = 25
        rng = np.random.default_rng(14)
        s = sketch_init(n, 5, seed=15)
        for _ in range(10):
            f, lams0 = random_psd_factor(rng, n, 2)
            s = sketch_update(s, float(rng.random()), f, lams0)
        _, lams = reconstruct(s)
        assert np.all(lams >= -1e-10)

    def test_error_does_not_compound(self):
        # one update versus one hundred updates reaching the same matrix
        n = 40
        rng = np.random.default_rng(16)
        f, lams0 = random_psd_factor(rng, n, 3)
        one = sketch_init(n, 6, seed=17)
        one = sketch_update(one, 0.0, f, lams0)
        many = sketch_init(n, 6, seed=17)
        many = sketch_update(many, 0.0, f, lams0 / 100.0)
        for _ in range(99):
            many = sketch_update(many, 1.0, f, lams0 / 100.0)
        u1, l1 = reconstruct(one)
        u2, l2 = reconstruct(many)
        r1 = (u1 * l1[None, :]) @ u1.T
        r2 = (u2 * l2[None, :]) @ u2.T
        assert np.linalg.norm(r1 - r2) <= 1e-9 * (1 + np.linalg.norm(r1))
