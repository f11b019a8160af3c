import numpy as np
import pytest

from zeroport import fundsep
from conftest import numeric_budget_optimum


class TestBenchmarkWeights:
    def test_identity_two_assets(self):
        w = fundsep.benchmark_weights(np.eye(2))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_diagonal_inverse_variance(self):
        # Sigma^-1 1 = (1, 0.25), normalized by 1.25
        w = fundsep.benchmark_weights(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-14)

    def test_identity_four_assets(self):
        w = fundsep.benchmark_weights(np.eye(4))
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15)

    def test_sums_to_one_random(self, rng):
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            sigma = a @ a.T + 0.1 * np.eye(3)
            assert abs(fundsep.benchmark_weights(sigma).sum() - 1.0) < 1e-12

    def test_singular_raises_with_condition(self):
        with pytest.raises(fundsep.SolverError) as err:
            fundsep.benchmark_weights(np.zeros((2, 2)), eps=0.0)
        assert err.value.condition is not None


class TestActiveWeights:
    def test_symmetric_views(self):
        w = fundsep.active_weights(np.array([0.01, -0.01]), np.eye(2), gamma=1.0)
        np.testing.assert_allclose(w, [0.01, -0.01], atol=1e-15)

    def test_constant_mean_is_flat(self):
        w = fundsep.active_weights(np.full(3, 0.02), np.eye(3))
        np.testing.assert_allclose(w, 0.0, atol=1e-15)

    def test_gamma_scaling(self, rng):
        mu = rng.normal(size=4) * 0.01
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T + 0.2 * np.eye(4)
        w1 = fundsep.active_weights(mu, sigma, gamma=1.0)
        w2 = fundsep.active_weights(mu, sigma, gamma=2.0)
        np.testing.assert_allclose(w2, w1 / 2.0, rtol=1e-13)

    def test_zero_sum_random(self, rng):
        for _ in range(100):
            m = rng.integers(2, 6)
            mu = rng.normal(size=m) * 0.05
            a = rng.normal(size=(m, m))
            sigma = a @ a.T + 0.1 * np.eye(m)
            w = fundsep.active_weights(mu, sigma)
            assert abs(w.sum()) < 1e-12

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            fundsep.active_weights(np.zeros(2), np.eye(2), gamma=0.0)


class TestAgentControls:
    def test_active_unit_leverage(self):
        h = fundsep.agent_controls(np.array([0.01, -0.01]), np.eye(2), "active")
        np.testing.assert_allclose(h, [0.5, -0.5], atol=1e-14)

    def test_absolute_flat_view_uniform(self):
        h = fundsep.agent_controls(np.full(2, 0.03), np.eye(2), "absolute")
        np.testing.assert_allclose(h, [0.5, 0.5], atol=1e-14)

    def test_active_three_assets_matches_demeaned_mean(self):
        mu = np.array([0.02, 0.01, -0.03])
        h = fundsep.agent_controls(mu, np.eye(3), "active")
        expected = mu - mu.mean()
        expected /= np.abs(expected).sum()
        np.testing.assert_allclose(h, [1 / 3, 1 / 6, -1 / 2], atol=1e-14)
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_active_direction_agrees_with_constrained_search(self, rng):
        # Dense random search over the zero-sum unit-L1 set; the analytic
        # direction should share the sign pattern and point the same way.
        mu = np.array([0.02, 0.01, -0.03])
        sigma = np.eye(3)
        h = fundsep.agent_controls(mu, sigma, "active")
        cand = rng.normal(size=(40000, 3))
        cand -= cand.mean(axis=1, keepdims=True)
        cand /= np.abs(cand).sum(axis=1, keepdims=True)
        objective = cand @ mu - 0.5 * np.einsum("ij,jk,ik->i", cand, sigma, cand)
        best = cand[np.argmax(objective)]
        cosine = (h @ best) / (np.linalg.norm(h) * np.linalg.norm(best))
        assert cosine > 0.9
        assert np.array_equal(np.sign(best), np.sign(h))

    def test_active_zero_fallback_on_flat_view(self):
        h = fundsep.agent_controls(np.full(4, 0.01), np.eye(4), "active")
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_absolute_on_simplex_random(self, rng):
        for _ in range(200):
            m = rng.integers(2, 7)
            mu = rng.normal(size=m) * 0.1
            a = rng.normal(size=(m, m))
            sigma = a @ a.T + 0.05 * np.eye(m)
            h = fundsep.agent_controls(mu, sigma, "absolute")
            assert np.all(h >= 0)
            assert abs(h.sum() - 1.0) < 1e-12

    def test_active_normalization_random(self, rng):
        for _ in range(200):
            m = rng.integers(2, 7)
            mu = rng.normal(size=m) * 0.1
            a = rng.normal(size=(m, m))
            sigma = a @ a.T + 0.05 * np.eye(m)
            h = fundsep.agent_controls(mu, sigma, "active")
            lev = np.abs(h).sum()
            assert abs(h.sum()) < 1e-12
            assert lev == 0.0 or abs(lev - 1.0) < 1e-12

    def test_active_scale_invariance(self, rng):
        mu = rng.normal(size=3) * 0.02
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.1 * np.eye(3)
        h1 = fundsep.agent_controls(mu, sigma, "active")
        h2 = fundsep.agent_controls(17.0 * mu, sigma, "active")
        np.testing.assert_allclose(h1, h2, atol=1e-12)

    def test_batched_matches_scalar(self, rng):
        mus = rng.normal(size=(8, 3)) * 0.05
        raw = rng.normal(size=(8, 3, 3))
        sigmas = raw @ raw.transpose(0, 2, 1) + 0.1 * np.eye(3)
        for mode in ("absolute", "active"):
            batch = fundsep.agent_controls(mus, sigmas, mode)
            for i in range(8):
                single = fundsep.agent_controls(mus[i], sigmas[i], mode)
                np.testing.assert_array_equal(batch[i], single)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            fundsep.agent_controls(np.zeros(2), np.eye(2), "sideways")


class TestRegularize:
    def test_well_conditioned_untouched(self):
        sigma = np.diag([1.0, 2.0])
        np.testing.assert_array_equal(fundsep.regularize(sigma), sigma)

    def test_rank_one_becomes_positive_definite(self):
        v = np.array([1.0, 2.0, 3.0])
        sigma = np.outer(v, v)
        out = fundsep.regularize(sigma)
        assert np.linalg.eigvalsh(out)[0] > 0

    def test_zero_matrix_gets_identity_ridge(self):
        out = fundsep.regularize(np.zeros((3, 3)), eps=1e-8)
        np.testing.assert_allclose(out, 1e-8 * np.eye(3))

    def test_symmetrizes(self):
        sigma = np.array([[1.0, 0.2], [0.0, 1.0]])
        out = fundsep.regularize(sigma)
        np.testing.assert_allclose(out, out.T)

    def test_deficient_mask_changes_no_bits(self, rng):
        # Flagged matrices skip the eigenvalue test; they fail it anyway.
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n_samples = rng.integers(1, 2 * m + 2, size=int(rng.integers(1, 12)))
            stack = []
            for n in n_samples:
                y = rng.normal(0.0, 0.02, size=(n, m))
                if rng.integers(3) == 0:  # singular although not flagged
                    y[:, 0] = y[:, 1]
                stack.append(np.cov(y, rowvar=False) if n > 1 else np.zeros((m, m)))
            stack = np.array(stack)
            deficient = n_samples <= m
            masked = fundsep.regularize(stack, assume_deficient=deficient)
            assert masked.tobytes() == fundsep.regularize(stack).tobytes()

    @staticmethod
    def _per_matrix_reference(stack, flagged, eps=fundsep.DEFAULT_RIDGE):
        """Each matrix decided alone by its smallest eigenvalue."""
        out = []
        for sigma, deficient in zip(stack, flagged):
            s = 0.5 * (sigma + sigma.T)
            trace = np.trace(s)
            scale = trace / s.shape[0] if trace > 0.0 else 1.0
            if deficient or np.linalg.eigvalsh(s)[0] < eps * scale:
                s = s + eps * scale * np.eye(s.shape[0])
            out.append(s)
        return np.array(out)

    @pytest.mark.parametrize("masked", [True, False], ids=["mask", "no-mask"])
    @pytest.mark.parametrize("below", [False, True], ids=["screen", "fallback"])
    def test_screen_equals_per_matrix_eigvalsh(self, rng, monkeypatch, masked, below):
        # "screen": every tested matrix clears the floor, so one Cholesky
        # decides them all; "fallback": one unflagged matrix is below it.
        m = 5
        n_samples = [2 * m, 3 * m, m + 3, 40] + ([1, 3, m] if masked else [])
        stack = []
        for n in n_samples:
            y = rng.normal(0.0, 0.02, size=(n, m))
            stack.append(np.cov(y, rowvar=False) if n > 1 else np.zeros((m, m)))
        if below:
            y = rng.normal(0.0, 0.02, size=(3 * m, m))
            y[:, 0] = y[:, 1]
            stack.append(np.cov(y, rowvar=False))
            n_samples.append(3 * m)
        stack = np.array(stack)
        deficient = np.array(n_samples) <= m
        expected = self._per_matrix_reference(stack, deficient)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        out = fundsep.regularize(stack, assume_deficient=deficient if masked else None)
        assert out.tobytes() == expected.tobytes()
        assert len(calls) == int(below)
        if below:  # the fallback decomposes only the matrices the mask leaves
            assert calls[0][0] == (np.count_nonzero(~deficient) if masked else len(stack))

    def test_screen_keeps_nonfinite_on_eigvalsh(self):
        # A NaN matrix may factor without error; it must not pass the screen.
        sigma = np.eye(3)
        sigma[0, 0] = np.nan
        stack = np.array([np.eye(3), sigma])
        try:
            expected = self._per_matrix_reference(stack, [False, False])
        except np.linalg.LinAlgError:  # LAPACK builds differ on NaN input
            with pytest.raises(np.linalg.LinAlgError):
                fundsep.regularize(stack)
            return
        assert fundsep.regularize(stack).tobytes() == expected.tobytes()


class TestProjection:
    def test_already_on_simplex(self, rng):
        w = rng.dirichlet(np.ones(4))
        np.testing.assert_allclose(fundsep.project_to_simplex(w), w, atol=1e-12)

    def test_projection_properties(self, rng):
        for _ in range(200):
            v = rng.normal(size=5) * 3
            p = fundsep.project_to_simplex(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-10

    def test_closest_point_beats_random_feasible(self, rng):
        v = rng.normal(size=4) * 2
        p = fundsep.project_to_simplex(v)
        dist = np.sum((p - v) ** 2)
        others = rng.dirichlet(np.ones(4), size=5000)
        assert np.all(np.sum((others - v) ** 2, axis=1) >= dist - 1e-12)

    def test_clip_renormalize_all_negative(self):
        out = fundsep.clip_renormalize(np.array([-1.0, -2.0, -3.0]))
        np.testing.assert_allclose(out, np.full(3, 1 / 3))


class TestQuadraticOracle:
    def test_closed_form_matches_numeric_optimum(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 4))
            mu = rng.normal(0, 0.1, size=m)
            a = rng.normal(size=(m, m))
            sigma = a @ a.T + 0.2 * np.eye(m)
            gamma = float(rng.uniform(0.5, 4.0))
            w = fundsep.mean_variance_weights(mu, sigma, gamma=gamma)
            ref = numeric_budget_optimum(mu, sigma, gamma)
            np.testing.assert_allclose(w, ref, atol=1e-6)

    def test_lagrange_stationarity(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 4))
            mu = rng.normal(0, 0.1, size=m)
            a = rng.normal(size=(m, m))
            sigma = a @ a.T + 0.2 * np.eye(m)
            gamma = float(rng.uniform(0.5, 4.0))
            w = fundsep.mean_variance_weights(mu, sigma, gamma=gamma)
            lam = fundsep.lagrange_multiplier(mu, sigma, gamma=gamma)
            residual = gamma * sigma @ w - (mu - lam)
            assert np.max(np.abs(residual)) < 1e-10
            assert abs(w.sum() - 1.0) < 1e-12

    def test_separation_identity(self, rng):
        # w* = benchmark + active, exactly as solved
        mu = rng.normal(0, 0.1, size=3)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.2 * np.eye(3)
        w = fundsep.mean_variance_weights(mu, sigma, gamma=2.0)
        parts = fundsep.benchmark_weights(sigma) + fundsep.active_weights(mu, sigma, gamma=2.0)
        np.testing.assert_allclose(w, parts, atol=1e-14)


class TestNumericLogOptimal:
    def test_recovers_bcrp_on_simple_sample(self):
        # One asset always wins: growth-optimal is all-in on it.
        sample = np.array([[1.1, 0.95], [1.08, 0.9], [1.12, 0.97]])
        w = fundsep.log_optimal_controls(sample)
        assert w[0] > 0.99

    def test_balanced_sample_interior(self):
        sample = np.array([[1.2, 0.9], [0.9, 1.2]])
        w = fundsep.log_optimal_controls(sample)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-4)
