"""Unit tests for the counter-based hash core."""

import numpy as np
import pytest

from repro.rng.philox import PHI64, _as_u64, _mix, counter_hash


def hash_u64(x):
    """splitmix64's finalizer on a uint64 (array), shape kept: the round
    that every fold of :func:`counter_hash` applies."""
    return _mix(_as_u64(x) + PHI64).reshape(np.shape(x))


class TestHashU64:
    def test_scalar_deterministic(self):
        assert hash_u64(42) == hash_u64(42)

    def test_array_matches_scalar(self):
        xs = np.arange(100, dtype=np.uint64)
        batch = hash_u64(xs)
        for i in (0, 1, 50, 99):
            assert batch[i] == hash_u64(int(xs[i]))

    def test_distinct_inputs_distinct_outputs(self):
        xs = np.arange(100_000, dtype=np.uint64)
        out = hash_u64(xs)
        assert len(np.unique(out)) == len(xs)

    def test_shape_preserved(self):
        xs = np.zeros((3, 4, 5), dtype=np.uint64)
        assert hash_u64(xs).shape == (3, 4, 5)

    def test_negative_python_int_accepted(self):
        # Two's-complement folding, no exception.
        a = hash_u64(-1)
        b = hash_u64(np.uint64(0xFFFFFFFFFFFFFFFF))
        assert a == b

    def test_avalanche_single_bit_flip(self):
        """Flipping one input bit flips ~half the output bits."""
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        total_flipped = 0
        trials = 0
        for bit in range(0, 64, 7):
            flipped = base ^ np.uint64(1 << bit)
            d = hash_u64(base) ^ hash_u64(flipped)
            total_flipped += int(np.unpackbits(d.view(np.uint8)).sum())
            trials += len(base) * 64
        frac = total_flipped / trials
        assert 0.45 < frac < 0.55

    def test_output_bits_unbiased(self):
        xs = np.arange(10_000, dtype=np.uint64)
        bits = np.unpackbits(hash_u64(xs).view(np.uint8))
        frac = bits.mean()
        assert 0.49 < frac < 0.51


class TestCounterHash:
    def test_deterministic(self):
        keys = np.arange(10)
        a = counter_hash(7, 1, 100, keys)
        b = counter_hash(7, 1, 100, keys)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("field", ["seed", "stream", "step"])
    def test_each_field_changes_output(self, field):
        keys = np.arange(1000)
        kwargs = dict(seed=3, stream=5, step=9)
        a = counter_hash(kwargs["seed"], kwargs["stream"], kwargs["step"], keys)
        kwargs[field] += 1
        b = counter_hash(kwargs["seed"], kwargs["stream"], kwargs["step"], keys)
        # Essentially all words should differ.
        assert (a != b).mean() > 0.999

    def test_key_order_independence(self):
        """The hash of a key does not depend on its position in the array."""
        keys = np.array([11, 22, 33, 44])
        fwd = counter_hash(1, 2, 3, keys)
        rev = counter_hash(1, 2, 3, keys[::-1])
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_sequential_keys_uncorrelated(self):
        """Consecutive voxel ids must not produce correlated uniforms."""
        keys = np.arange(50_000)
        u = (counter_hash(0, 1, 0, keys) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        # Lag-1 autocorrelation of the sequence.
        x = u - u.mean()
        r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(r1) < 0.02

    def test_scalar_key(self):
        out = counter_hash(1, 2, 3, 4)
        assert out.shape == ()
