"""Seed streams and estimate combinators."""
import math

import numpy as np
import pytest

from airylab.errors import DomainError
from airylab.mc import (McEstimate, estimate_from_log_samples, estimate_from_samples,
                        product_estimate, spawn_rng)


class TestSpawnRng:
    def test_deterministic_across_calls(self):
        a = spawn_rng(17, "module", 3).standard_normal(5)
        b = spawn_rng(17, "module", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = spawn_rng(17, "module", 3).standard_normal(5)
        b = spawn_rng(17, "module", 4).standard_normal(5)
        c = spawn_rng(17, "other", 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_component(self):
        with pytest.raises(TypeError):
            spawn_rng(17, 3.5)


class TestEstimates:
    def test_from_samples(self):
        est = estimate_from_samples(np.array([1.0, 2.0, 3.0, 4.0]), seed=1)
        assert est.mean == 2.5
        assert est.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        assert est.n_samples == 4

    def test_log_samples_match_plain_when_safe(self):
        rng = spawn_rng(2, "log")
        vals = rng.uniform(0.1, 2.0, 500)
        direct = estimate_from_samples(vals, seed=2)
        via_log = estimate_from_log_samples(np.log(vals), seed=2)
        assert via_log.mean == pytest.approx(direct.mean, rel=1e-12)
        assert via_log.stderr == pytest.approx(direct.stderr, rel=1e-12)

    def test_log_samples_handle_deep_underflow(self):
        # linear mean underflows the double range; the log fields stay exact
        logs = np.array([-2000.0, -2001.0, -1999.5])
        est = estimate_from_log_samples(logs, seed=3)
        assert est.mean == 0.0
        assert est.log_mean == pytest.approx(
            math.log(np.mean(np.exp(logs + 1999.5))) - 1999.5, rel=1e-12)
        assert math.isfinite(est.rel_stderr)

    def test_all_minus_inf_gives_zero(self):
        est = estimate_from_log_samples(np.array([-math.inf, -math.inf]), seed=4)
        assert est.mean == 0.0
        assert est.log_mean == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            estimate_from_samples(np.array([]), seed=5)
        with pytest.raises(DomainError):
            estimate_from_log_samples(np.array([]), seed=5)


class TestWeightHealth:
    def test_kish_ess_and_largest_share(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_from_log_samples(np.log(w), seed=6)
        assert est.ess == pytest.approx(w.sum() ** 2 / (w ** 2).sum(), rel=1e-14)
        assert est.max_weight_share == pytest.approx(4.0 / 10.0, rel=1e-14)

    def test_invariant_under_a_common_shift(self):
        logs = np.log([0.5, 1.0, 3.0, 0.01, 2.0])
        est = estimate_from_log_samples(logs, seed=7)
        deep = estimate_from_log_samples(logs - 800.0, seed=7)
        assert deep.mean == 0.0
        assert deep.ess == pytest.approx(est.ess, rel=1e-12)
        assert deep.max_weight_share == pytest.approx(est.max_weight_share, rel=1e-12)

    def test_ess_share_at_most_one(self):
        rng = spawn_rng(8, "ess")
        for scale in (0.0, 0.1, 1.0, 10.0):
            logs = scale * rng.standard_normal(200)
            est = estimate_from_log_samples(logs, seed=8)
            assert 0.0 < est.ess / est.n_samples <= 1.0 + 1e-12
            assert 1.0 / est.n_samples - 1e-15 <= est.max_weight_share <= 1.0

    def test_other_estimates_carry_none(self):
        est = estimate_from_samples(np.array([1.0, 2.0]), seed=9)
        assert est.ess is None and est.max_weight_share is None


class TestProduct:
    def test_relative_errors_add_in_quadrature(self):
        a = McEstimate(mean=2.0, stderr=0.2, n_samples=100, seed=0)
        b = McEstimate(mean=3.0, stderr=0.3, n_samples=200, seed=0)
        prod = product_estimate([a, b], seed=0)
        assert prod.mean == 6.0
        rel = math.hypot(0.1, 0.1)
        assert prod.stderr == pytest.approx(6.0 * rel)
        assert prod.n_samples == 100

    def test_deterministic_factor_free(self):
        a = McEstimate(mean=0.5, stderr=0.0, n_samples=10, seed=0)
        b = McEstimate(mean=2.0, stderr=0.1, n_samples=10, seed=0)
        prod = product_estimate([a, b], seed=0)
        assert prod.stderr == pytest.approx(0.05)

    def test_within_helper(self):
        a = McEstimate(mean=1.0, stderr=0.1, n_samples=10, seed=0)
        b = McEstimate(mean=1.25, stderr=0.0, n_samples=10, seed=0)
        assert a.within(b)
        assert a.within(1.29)
        assert not a.within(1.35)
