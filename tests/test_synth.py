import math
from dataclasses import replace

import numpy as np
import pytest

from zeroport import synth
from zeroport.synth import SynthSpec, asset_means, generate, lognormal_params


class TestLognormalParams:
    def test_degenerate_zero_variance(self):
        assert lognormal_params(1.0, 0.0) == (0.0, 0.0)

    def test_flat_case(self):
        # direct evaluation: log(1/sqrt(1.0002)), sqrt(log(1.0002))
        mu_bar, sigma_bar = lognormal_params(1.0, 0.0002)
        assert mu_bar == pytest.approx(-9.99900013331334e-05, rel=1e-12)
        assert sigma_bar == pytest.approx(0.014141428593542688, rel=1e-12)

    def test_drift_case(self):
        mu_bar, sigma_bar = lognormal_params(1.001, 0.0002)
        assert mu_bar == pytest.approx(8.99709992257671e-04, rel=1e-12)
        assert sigma_bar == pytest.approx(0.014127302702629539, rel=1e-12)

    def test_round_trip_moments(self, rng):
        # lognormal with these parameters has mean mu and variance v
        for mu, v in ((1.0, 2e-4), (1.001, 2e-4), (0.98, 1e-3)):
            mu_bar, sigma_bar = lognormal_params(mu, v)
            mean = math.exp(mu_bar + sigma_bar**2 / 2)
            var = (math.exp(sigma_bar**2) - 1) * math.exp(2 * mu_bar + sigma_bar**2)
            assert mean == pytest.approx(mu, rel=1e-12)
            assert var == pytest.approx(v, rel=1e-9, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lognormal_params(0.0, 1e-4)
        with pytest.raises(ValueError):
            lognormal_params(1.0, -1e-4)


class TestCaseMeans:
    def test_sdc3_clamp_formula(self):
        # the drift map: delta=-3 floors at 1.0, delta=+3 caps at 1.001
        for delta, expected in ((-3.0, 1.0), (3.0, 1.001), (0.0, 1.0005)):
            drift = 1.0 + max(0.0, min(0.0005 + 0.0005 * delta, 0.001))
            assert drift == expected

    def test_sdc3_means_replicate_documented_draw_order(self):
        spec = SynthSpec(case="SDC3", seed=11)
        rng = np.random.Generator(np.random.MT19937(11))
        delta = rng.standard_normal(10)
        expected = 1.0 + np.maximum(0.0, np.minimum(0.0005 + 0.0005 * delta, 0.001))
        np.testing.assert_array_equal(asset_means(spec), expected)

    def test_sdc3_clamp_bounds_many_seeds(self):
        for seed in range(1, 200):
            means = asset_means(SynthSpec(case="SDC3", seed=seed))
            assert np.all(means >= 1.0)
            assert np.all(means <= 1.001)

    def test_sdc4_three_down_assets(self):
        means = asset_means(SynthSpec(case="SDC4", seed=3))
        assert (means == 0.999).sum() == 3
        assert (means == 1.001).sum() == 7

    def test_flat_and_drift_cases(self):
        np.testing.assert_array_equal(asset_means(SynthSpec(case="SDC1", seed=1)), 1.0)
        np.testing.assert_array_equal(asset_means(SynthSpec(case="SDC2", seed=1)), 1.001)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate(SynthSpec(case="SDC1", seed=5))
        b = generate(SynthSpec(case="SDC1", seed=5))
        assert a.values.tobytes() == b.values.tobytes()

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(case="SDC1", seed=5))
        b = generate(SynthSpec(case="SDC1", seed=6))
        assert not np.array_equal(a.values, b.values)

    def test_all_relatives_positive(self):
        for case in synth.CASES:
            m = generate(SynthSpec(case=case, seed=2, periods=200))
            assert np.all(m.values > 0)

    def test_shape_and_labels(self):
        m = generate(SynthSpec(case="SDC2", assets=4, periods=50, seed=1))
        assert m.values.shape == (50, 4)
        assert len(m.tickers) == 4
        assert len(m.timestamps) == 50

    def test_log_moments_within_standard_errors(self):
        # per-asset log mean/std should sit near (mu_bar, sigma_bar)
        t = 8000
        m = generate(SynthSpec(case="SDC2", assets=6, periods=t, seed=9))
        mu_bar, sigma_bar = lognormal_params(1.001, 2e-4)
        logs = np.log(m.values)
        se_mean = sigma_bar / math.sqrt(t)
        assert np.all(np.abs(logs.mean(axis=0) - mu_bar) < 4 * se_mean)
        se_sd = sigma_bar / math.sqrt(2 * (t - 1))
        assert np.all(np.abs(logs.std(axis=0, ddof=1) - sigma_bar) < 4 * se_sd)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(case="SDC9")


def batch(spec, seeds):
    """Independent matrices for a sequence of seeds (paper protocol: 1..30)."""
    return [generate(replace(spec, seed=int(s))) for s in seeds]


class TestBatch:
    def test_thirty_runs_pairwise_distinct(self):
        runs = batch(SynthSpec(case="SDC1", periods=50), range(1, 31))
        assert len(runs) == 30
        fingerprints = {r.values.tobytes() for r in runs}
        assert len(fingerprints) == 30

    def test_grand_mean_clt_bound(self):
        runs = batch(SynthSpec(case="SDC2", periods=1000), range(1, 31))
        values = np.concatenate([r.values.ravel() for r in runs])
        half_width = 3 * math.sqrt(2e-4) / math.sqrt(values.size)
        assert abs(values.mean() - 1.001) < half_width
