"""One hash prefix per member: gathered draws fold ``(seed, stream, step)``
once per member and gather it, on both tiers.

The reference is the per-element formulation this replaced —
``counter_hash`` with an *array* of seeds, one per element, which mixes the
whole 4-tuple for every element on the (unchanged) numpy array path.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rng.philox import NATIVE_FROM, counter_hash, fold_prefix, hash_keys
from repro.rng.streams import EnsembleRNG, Stream, VoxelRNG

SEEDS = [0, 7, -3, 2**31 - 1, -(2**63), 2**63 - 1]
#: As hash_keys takes them: seeds past int64 too (counter_hash's int branch
#: folds any Python int mod 2**64).
WIDE_SEEDS = [5, 2**63 + 11, 2**64 - 1, -1]


def per_element(seeds, member, stream, step, keys):
    """Every element hashed with its own member's seed, nothing shared."""
    seeds = np.array([s % 2**64 for s in seeds], dtype=np.uint64)
    return counter_hash(seeds[member], stream, step, keys)


def prefixes(seeds, stream, step):
    return np.array([fold_prefix(s, stream, step) for s in seeds], dtype=np.uint64)


@pytest.mark.parametrize("n", [0, 1, NATIVE_FROM - 1, NATIVE_FROM, 1000])
def test_gathered_words_equal_the_per_element_formulation(tier, n):
    rs = np.random.default_rng(n)
    member = rs.integers(0, len(SEEDS), size=n)
    keys = rs.integers(-(2**63), 2**63, size=n)
    rng = EnsembleRNG(SEEDS)
    for stream, step in ((Stream.TCELL_BID, 0), (Stream.INFECTION, 12345)):
        got = rng.words(stream, step, keys, member=member)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, per_element(SEEDS, member, int(stream), step, keys))


def test_seeds_and_keys_past_int64(tier):
    rs = np.random.default_rng(1)
    member = rs.integers(0, len(WIDE_SEEDS), size=500)
    keys = rs.integers(0, 2**64, size=500, dtype=np.uint64)
    keys[:3] = [0, 2**63, 2**64 - 1]
    got = hash_keys(prefixes(WIDE_SEEDS, 9, 77), keys, member)
    assert np.array_equal(got, per_element(WIDE_SEEDS, member, 9, 77, keys))


@pytest.mark.parametrize("make", [
    lambda k: k.astype(np.int32),
    lambda k: k.astype(np.uint64),
    lambda k: np.repeat(k, 2)[::2],               # strided view
    lambda k: k.reshape(20, 20).T,                # 2-D, Fortran order
], ids=["int32", "uint64", "strided", "transposed"])
def test_key_dtypes_and_layouts(tier, make):
    rs = np.random.default_rng(2)
    keys = make(rs.integers(0, 2**31 - 1, size=400))
    member = rs.integers(0, len(SEEDS), size=keys.shape)
    got = hash_keys(prefixes(SEEDS, 3, 4), keys, member)
    assert got.shape == keys.shape
    assert np.array_equal(got, per_element(SEEDS, member, 3, 4, keys))
    # ... and the one-trial form, member for member.
    for seed in SEEDS[:2]:
        solo = hash_keys(prefixes([seed], 3, 4), keys)
        assert solo.shape == keys.shape
        assert np.array_equal(solo, counter_hash(np.full(keys.shape, seed), 3, 4, keys))


def test_scalar_and_empty_keys(tier):
    assert counter_hash(5, 1, 2, 9).shape == ()
    assert counter_hash(5, 1, 2, 9) == counter_hash(np.array([5]), 1, 2, np.array([9]))[0]
    empty = VoxelRNG(5).words(Stream.TCELL_BID, 3, np.empty(0, dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.uint64


def test_member_out_of_range_raises(tier):
    rng = EnsembleRNG([1, 2, 3])
    with pytest.raises(IndexError):
        rng.words(Stream.TCELL_BID, 0, np.arange(4), member=np.array([0, 1, 2, 3]))


def test_prefixes_are_the_solo_prefix_per_member():
    rng = EnsembleRNG(SEEDS)
    got = rng.prefixes(Stream.APOPTOSIS_PERIOD, 31)
    assert got.dtype == np.uint64
    for b, seed in enumerate(SEEDS):
        assert got[b] == fold_prefix(seed, Stream.APOPTOSIS_PERIOD, 31)
        assert got[b] == VoxelRNG(seed).prefixes(Stream.APOPTOSIS_PERIOD, 31)[0]


# -- the member prefix table ------------------------------------------------------

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
EDGE_SEEDS = st.sampled_from([-(2**63), -1, 0, 2**63 - 1])


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(st.one_of(INT64, EDGE_SEEDS), min_size=1, max_size=300),
    calls=st.lists(
        st.tuples(st.sampled_from(list(Stream)),
                  st.integers(min_value=-(2**40), max_value=2**40)),
        min_size=1, max_size=6,
    ),
)
def test_the_prefix_table_is_the_per_member_fold(seeds, calls):
    """``EnsembleRNG.prefixes`` — the ``(seed, stream)`` folds kept per
    stream, the step folded per call — is bitwise ``fold_prefix`` member by
    member, on a stream's first call and on every later one."""
    rng = EnsembleRNG(seeds)
    for stream, step in calls + calls[::-1]:
        got = rng.prefixes(stream, step)
        assert got.dtype == np.uint64 and got.shape == (len(seeds),)
        assert np.array_equal(got, prefixes(seeds, stream, step))


@pytest.mark.parametrize("stream", list(Stream), ids=lambda s: s.name)
def test_every_stream_from_the_table(stream):
    rng = EnsembleRNG(SEEDS)
    for step in (0, 1, 10**6, 2**40, -1, -(2**40), 0):
        assert np.array_equal(rng.prefixes(stream, step), prefixes(SEEDS, stream, step))


def test_two_rngs_never_share_their_folds():
    a, b = EnsembleRNG([1, 2, 3]), EnsembleRNG([4, 5, 6])
    for rng in (a, b, a):
        rng.prefixes(Stream.TCELL_BID, 9)
    assert a._folds is not b._folds
    assert not np.array_equal(a._folds[Stream.TCELL_BID], b._folds[Stream.TCELL_BID])
    want = prefixes([4, 5, 6], Stream.TCELL_BID, 9)
    assert np.array_equal(b.prefixes(Stream.TCELL_BID, 9), want)


def test_the_table_is_derived_state():
    """Neither a pickle, a copy nor a member's solo rng carries the table:
    they fold afresh and draw the same words."""
    rng = EnsembleRNG([-(2**63), 7, 2**63 - 1])
    want = rng.prefixes(Stream.TCELL_DIRECTION, 40)
    blob = pickle.dumps(rng)
    assert rng._folds[Stream.TCELL_DIRECTION].tobytes() not in blob
    for twin in (pickle.loads(blob), copy.copy(rng), copy.deepcopy(rng)):
        assert twin._folds == {} and type(twin) is EnsembleRNG
        assert np.array_equal(twin.seeds, rng.seeds)
        assert np.array_equal(twin.prefixes(Stream.TCELL_DIRECTION, 40), want)
    solo = rng.member_rng(1)
    assert not hasattr(solo, "_folds") and type(solo) is VoxelRNG
    assert solo.prefixes(Stream.TCELL_DIRECTION, 40)[0] == want[1]
