"""`distributions.poisson` against its oracle, `scipy.stats.poisson.ppf`.

The sampler searches a per-``mu`` threshold table and recomputes the draws
near a threshold by SciPy's own formula (DESIGN.md §4 "Exact table Poisson
draws"); every golden trace, digest and cache key rests on it giving what
``scipy.stats`` gave.  ``scipy.stats`` is imported here only — ``src/`` must
not (tests/test_import_budget.py).

A draw sees its word through ``u = (word >> 11) * 2**-53``, so "an ulp" below
is one step of that grid: the finest perturbation a word can express.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro.core.params import SimCovParams
from repro.rng import distributions as dist
from repro.rng import philox
from repro.rng.philox import counter_hash

GRID = 2**53


def _periods(params) -> list[float]:
    """Every Poisson mean the kernels draw with (``tcell_binding_period``
    is used as is, never drawn)."""
    return [
        float(getattr(params, f.name))
        for f in dataclasses.fields(params)
        if f.name.endswith("_period")
        and f.name not in ("tcell_binding_period", "tcell_vascular_period")
    ]


MODEL_MUS = sorted(
    {*_periods(SimCovParams()), *_periods(SimCovParams.fast_test())}
)


def words_at(m) -> np.ndarray:
    """Words whose uniform is ``m * 2**-53`` (clipped onto the grid)."""
    m = np.clip(np.asarray(m, dtype=np.int64), 0, GRID - 1)
    return m.astype(np.uint64) << np.uint64(11)


def oracle(words, mu) -> np.ndarray:
    u = dist.uniform01(words)
    # SciPy's ppf(0) is a - 1 = -1; the model's draw at u == 0 is 0.
    return np.where(u == 0, 0, stats.poisson.ppf(u, mu).astype(np.int64))


def adversarial_words(mu: float) -> np.ndarray:
    """Every threshold ``pdtr(k, mu)`` +/- {0, 1, 2, 4, ..., 2**30} ulps, and
    both ends of the grid: ``k * 2**-53`` and ``1 - k * 2**-53``, k < 1000."""
    n = int(mu + 9 * np.sqrt(mu)) + 30
    at = np.rint(special.pdtr(np.arange(n, dtype=np.float64), mu) * GRID)
    at = at.astype(np.int64)
    steps = np.array([0] + [s << e for e in range(31) for s in (1, -1)])
    k = np.arange(1000)
    m = np.concatenate([(at[:, None] + steps).reshape(-1), k, GRID - 1 - k])
    return words_at(np.unique(np.clip(m, 0, GRID - 1)))


def assert_exact(words, mu):
    got = dist.poisson(words, mu)
    assert got.dtype == np.int64 and got.shape == np.shape(words)
    np.testing.assert_array_equal(got, oracle(words, mu))


@pytest.fixture(autouse=True)
def fresh_tables():
    dist._poisson_edges.cache_clear()
    yield
    dist._poisson_edges.cache_clear()


class TestModelPeriods:
    def test_both_parameter_sets_are_covered(self):
        assert {480.0, 900.0, 180.0, 1440.0, 10.0, 40.0, 8.0, 150.0} <= set(
            MODEL_MUS
        )

    @pytest.mark.parametrize("mu", MODEL_MUS)
    def test_thresholds_and_grid_ends(self, mu):
        assert dist._poisson_edges(mu).size > 1, "table expected, not the reference"
        assert_exact(adversarial_words(mu), mu)

    @pytest.mark.parametrize("mu", MODEL_MUS)
    def test_million_random_words(self, mu):
        words = counter_hash(int(mu), 3, 1, np.arange(1_000_000))
        assert_exact(words, mu)

    def test_beyond_the_table_cap(self):
        """Too long a table is not built; the reference formula serves."""
        mu = 40_000.0
        assert dist._poisson_edges(mu) is dist._NO_TABLE
        assert_exact(counter_hash(1, 3, 1, np.arange(20_000)), mu)
        assert_exact(words_at([0, 1, GRID // 2, GRID - 1]), mu)


class TestDrawnMu:
    @settings(max_examples=25, deadline=None)
    @given(
        mu=st.one_of(
            st.floats(0.0, 2e4, exclude_min=True),
            st.floats(0.25, 64.0),
            st.integers(1, 20_000).map(float),
        ),
        seed=st.integers(0, 2**32),
    )
    def test_exact(self, mu, seed):
        assert_exact(adversarial_words(mu), mu)
        assert_exact(counter_hash(seed, 3, 1, np.arange(20_000)), mu)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(0.0, 2e4, exclude_min=True), min_size=1, max_size=4,
            unique=True,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_array_mu(self, values, seed):
        """A ``ParamsStack`` sweep: per-element ``mu`` with a few distinct
        values, grouped onto the scalar tables."""
        words = counter_hash(seed, 3, 1, np.arange(4_000))
        pick = np.random.default_rng(seed).integers(0, len(values), words.size)
        mu = np.array(values)[pick]
        assert_exact(words, mu)
        for value in values:
            sel = mu == value
            np.testing.assert_array_equal(
                dist.poisson(words, mu)[sel], dist.poisson(words[sel], value)
            )


class TestShapes:
    def test_batched_block_shape_and_dtype_kept(self):
        """Full-region ensemble draw: ``(B, ny, nx)`` words against a
        ``(B, 1, 1)`` parameter array and against a scalar."""
        words = counter_hash(5, 3, 1, np.arange(4 * 9 * 7)).reshape(4, 9, 7)
        mu = np.array([8.0, 40.0, 8.0, 150.0]).reshape(4, 1, 1)
        assert_exact(words, mu)
        assert_exact(words, 40.0)
        for b in range(4):
            np.testing.assert_array_equal(
                dist.poisson(words, mu)[b], dist.poisson(words[b], mu[b, 0, 0])
            )

    def test_empty_and_zero_dimensional(self):
        assert dist.poisson(np.empty(0, dtype=np.uint64), 3.0).shape == (0,)
        word = counter_hash(5, 3, 1, np.array(7))
        assert int(dist.poisson(word, 3.0)) == int(oracle(word, 3.0))

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.inf, np.nan])
    def test_bad_mu_raises(self, mu):
        words = counter_hash(5, 3, 1, np.arange(4))
        with pytest.raises(ValueError, match="finite mu > 0"):
            dist.poisson(words, mu)
        with pytest.raises(ValueError, match="finite mu > 0"):
            dist.poisson(words, np.array([3.0, mu, 3.0, 3.0]))


class TestProbeAndCache:
    def test_failing_probe_routes_mu_to_the_reference(self, monkeypatch):
        """What a SciPy whose ``pdtrik`` misses by more than the band gets:
        no table for that ``mu``, the same draws."""
        monkeypatch.setattr(dist, "_probe_agrees", lambda edges, mu: False)
        assert dist._poisson_edges(40.0) is dist._NO_TABLE
        assert_exact(adversarial_words(40.0), 40.0)
        assert_exact(counter_hash(2, 3, 1, np.arange(20_000)), 40.0)

    def test_probe_sees_a_band_that_is_too_narrow(self, monkeypatch):
        """The probe is what fails when the reference deviates outside the
        band: with a band of a few ulps, mu = 900 (SciPy 1.17 deviates up to
        2**9 ulps above a reachable threshold, older ones more) must be
        refused."""
        monkeypatch.setattr(dist, "_BAND", 2.0**-50)
        assert dist._poisson_edges(900.0) is dist._NO_TABLE
        assert_exact(adversarial_words(900.0), 900.0)

    def test_cache_is_bounded(self):
        words = counter_hash(2, 3, 1, np.arange(8))
        for i in range(1000):
            dist.poisson(words, 1.0 + i / 7.0)
        info = dist._poisson_edges.cache_info()
        assert info.currsize == info.maxsize == dist._TABLE_CACHE

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            dist._poisson_edges(40.0)[0] = 0.0


class TestScalarHashPrefix:
    """`counter_hash` folds an int seed's (seed, stream, step) prefix in
    Python ints; the words must be those of the all-array fold."""

    @staticmethod
    def all_array(seed, stream, step, keys):
        s = philox._mix(philox._as_u64(seed) + philox.PHI64)
        s = philox._mix((s ^ (philox._as_u64(stream) * philox.PHI64)) + philox.PHI64)
        s = philox._mix((s ^ (philox._as_u64(step) * philox._MIX1)) + philox.PHI64)
        k = philox._as_u64(keys)
        out = philox._mix(
            (s ^ (k * philox._MIX2) ^ (k >> np.uint64(32))) + philox.PHI64
        )
        return out.reshape(np.shape(keys))

    @pytest.mark.parametrize(
        "seed", [0, 1, -1, -(2**63), 2**63 - 1, 2**63 + 5, 2**64 - 1,
                 np.int64(-7), np.uint64(2**63 + 9)],
    )
    @pytest.mark.parametrize("step", [0, 1, -1, 2**40, 2**63 + 1, np.int64(3)])
    def test_int_seed_equals_array_fold(self, seed, step):
        keys = np.arange(-3, 40).reshape(43, 1)
        for stream in (1, 14):
            got = counter_hash(seed, stream, step, keys)
            want = self.all_array(seed, stream, step, keys)
            assert got.dtype == np.uint64 and got.shape == keys.shape
            np.testing.assert_array_equal(got, want)
            # ... and those of a one-member array seed (EnsembleRNG's path).
            np.testing.assert_array_equal(
                counter_hash(np.array([seed]).reshape(1, 1), stream, step, keys),
                want,
            )
