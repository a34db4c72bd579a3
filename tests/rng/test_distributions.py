"""Unit + statistical tests for hash-backed distributions."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.rng.philox import counter_hash
from repro.rng import distributions as dist


def bernoulli(words, p):
    """The kernels' Bernoulli draw: a uniform below ``p``."""
    return dist.uniform01(words) < p


@pytest.fixture
def words():
    return counter_hash(12345, 1, 0, np.arange(200_000))


class TestUniform01:
    def test_range(self, words):
        u = dist.uniform01(words)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_mean_and_var(self, words):
        u = dist.uniform01(words)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.005

    def test_ks_against_uniform(self, words):
        u = dist.uniform01(words[:5000])
        stat, pvalue = sps.kstest(u, "uniform")
        assert pvalue > 0.001


class TestBernoulli:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_rate(self, words, p):
        hits = bernoulli(words, p)
        assert abs(hits.mean() - p) < 0.01

    def test_array_p(self, words):
        p = np.linspace(0, 1, words.size)
        hits = bernoulli(words, p)
        # Low-p half should hit much less often than high-p half.
        half = words.size // 2
        assert hits[:half].mean() < 0.3 < hits[half:].mean()


class TestRandintBelow:
    @pytest.mark.parametrize("n", [1, 2, 8, 26])
    def test_range_and_uniformity(self, words, n):
        r = dist.randint_below(words, n)
        assert r.min() >= 0
        assert r.max() < n
        counts = np.bincount(r, minlength=n)
        expected = words.size / n
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected) + 5)

    def test_rejects_nonpositive(self, words):
        with pytest.raises(ValueError):
            dist.randint_below(words, 0)


class TestPoisson:
    @pytest.mark.parametrize("mu", [0.5, 4.0, 60.0])
    def test_moments(self, words, mu):
        x = dist.poisson(words[:50_000], mu)
        assert abs(x.mean() - mu) < 0.05 * max(mu, 1)
        assert abs(x.var() - mu) < 0.1 * max(mu, 1)

    def test_nonnegative_integers(self, words):
        x = dist.poisson(words[:1000], 3.0)
        assert x.dtype == np.int64
        assert x.min() >= 0

    def test_zero_word_draws_zero(self):
        """A word whose top 53 bits are zero maps to u == 0, where SciPy's
        quantile function gives a - 1 = -1; the draw is 0.  All six callers
        in src/ (core/kernels.py x5, core/seeding.py) clamp their draw with
        ``maximum(1, .)``, so no trace, digest or cache key saw the -1."""
        words = np.array([0, 1, 2**11 - 1, 2**11], dtype=np.uint64)
        assert dist.uniform01(words).tolist() == [0.0, 0.0, 0.0, 2.0**-53]
        for mu in (0.5, 3.0, 150.0, 40_000.0):
            assert dist.poisson(words[:3], mu).tolist() == [0, 0, 0]
            assert dist.poisson(words, np.full(4, mu)).min() == 0

    def test_array_mu(self, words):
        mu = np.full(1000, 2.0)
        mu[500:] = 20.0
        x = dist.poisson(words[:1000], mu)
        assert x[:500].mean() < x[500:].mean()


class TestExponential:
    def test_mean(self, words):
        x = dist.exponential(words, 7.0)
        assert abs(x.mean() - 7.0) < 0.2

    def test_positive_finite(self, words):
        x = dist.exponential(words, 1.0)
        assert np.all(np.isfinite(x))
        assert x.min() >= 0.0
