"""Property tests: the float totals summed over the active band, and by
the compiled pass over the active region, are the whole-interior sum, bit
for bit.

:func:`repro.core.stats.interior_sum` sums only the rows of a field's
support, widened outward to numpy's ``k``-row reduction chunks, when the
layout's probe finds numpy's sum of the interior to be the in-order fold
of its chunk sums.  Drawn here: a layout (1024-wide rows, 200 x 136,
48 x 48 x 32, ragged last chunks, and 10 x 100 x 100, whose planes
overflow an 8192-element buffer so the fold identity fails and the probe
must refuse), numpy's buffer size, and a non-negative field that is zero
outside a random box.  The banded sum must have the bits of
``field[interior].sum()`` with the probe's own verdict and with the probe
forced to refuse.

The compiled pass (:func:`repro.core.stats.float_totals` with the tier on)
replays numpy's tree and reads only the leaves of at most 128 elements that
meet the region.  Drawn for it: the same layouts and buffer sizes, a solo
block or a batch of 1-4 members each non-zero in its own box (edges
included) under the boxes' hull, and the dist coordinator's copies
(:class:`~repro.core.stats.FloatFields`) non-zero in up to three boxes
under theirs.  Each total must have the bits of ``field[interior].sum()``
and of :func:`~repro.core.stats.interior_sum`.  Mutation-checked: a leaf
of 127, a split rounded to a multiple of 4, and pruning by rows alone each
fail it.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core import native, stats
from repro.core.state import EnsembleBlock, VoxelBlock
from repro.grid.spec import GridSpec

#: Interior shapes; 29 x 1024 and 13 x 10 x 9 end in a ragged chunk.
LAYOUTS = [(40, 1024), (29, 1024), (200, 136), (48, 48, 32), (13, 10, 9),
           (10, 100, 100)]
#: numpy buffer sizes (multiples of 16, as np.setbufsize requires).
BUFSIZES = [1024, 4096, 8192, 16384]


@contextlib.contextmanager
def bufsize(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def _layout(shape):
    return tuple(s + 2 for s in shape), tuple(slice(1, s + 1) for s in shape)


@st.composite
def worlds(draw):
    """(padded array, interior, support box): non-negative values spread
    over six decades inside the box, exact zeros outside it."""
    shape = draw(st.sampled_from(LAYOUTS))
    padded, interior = _layout(shape)
    lo = [draw(st.integers(0, s - 1)) for s in shape]
    box = tuple(
        slice(a + 1, draw(st.integers(a + 1, s)) + 1) for a, s in zip(lo, shape)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = np.zeros(padded)
    size = field[box].shape
    field[box] = rng.random(size) * 10.0 ** rng.integers(-3, 4, size)
    return field, interior, box


class TestBand:
    @given(world=worlds(), size=st.sampled_from(BUFSIZES))
    @settings(max_examples=200, deadline=None)
    def test_band_sum_has_the_whole_interior_bits(self, world, size):
        field, interior, box = world
        with bufsize(size):
            want = _bits(field[interior].sum(dtype=np.float64))
            k = stats._probe(stats._chunk_rows, field.shape, interior)
            event("probe accepts" if k else "probe refuses")
            first, last, rows = box[0].start - 1, box[0].stop - 1, len(field) - 2
            if k and (first >= k or -(-last // k) * k < rows):
                event("band narrower than the interior")
            assert _bits(stats.interior_sum(field, interior, box[0])) == want
            with mock.patch.object(stats, "_chunk_rows", lambda view: 0):
                assert _bits(stats.interior_sum(field, interior, box[0])) == want

    def test_no_support_is_zero(self):
        field = np.zeros((6, 6))
        assert _bits(stats.interior_sum(field, (slice(1, 5),) * 2, None)) == 0

    def test_probe_refuses_where_numpy_does_not_fold_the_planes(self):
        """10 x 100 x 100: a plane (10 000 elements) overflows the 8192
        buffer, so numpy's sum is not the in-order fold of the plane sums
        (one band may still match the whole sum, which is why the probe
        checks the fold); the band is then the whole interior."""
        padded, interior = _layout((10, 100, 100))
        with bufsize(8192):
            view = np.random.default_rng(1).random(padded)[interior]
            acc = 0.0
            for plane in view:
                acc += plane.sum(dtype=np.float64)
            if acc == view.sum(dtype=np.float64):
                pytest.skip("this numpy sums the layout as the plane fold")
            assert stats._probe(stats._chunk_rows, padded, interior) == 0

    def test_each_buffer_size_is_probed_on_its_own(self):
        """numpy's chunking follows np.getbufsize(), so a verdict reached
        under one buffer size says nothing about another — for the solo
        chunk probe and for the batched one alike."""
        padded, interior = _layout((64, 1024))
        batched = (3,) + padded, (slice(0, 3),) + interior
        for check, shape, sl in (
            (stats._chunk_rows, padded, interior),
            (stats._batched_sum_exact, *batched),
        ):
            for size in (4096, 8192):
                with bufsize(size):
                    stats._probe(check, shape, sl)
            sizes = {key[-1] for key in stats._PROBES if key[:2] == (check, shape)}
            assert {4096, 8192} <= sizes


def _box(draw, shape):
    """Padded slices of a non-empty box of an interior of ``shape``, its
    ends on the interior's edges about one draw in three."""
    lo = [draw(st.sampled_from([0, draw(st.integers(0, n - 1))])) for n in shape]
    return tuple(
        slice(a + 1, draw(st.sampled_from([n, draw(st.integers(a + 1, n))])) + 1)
        for a, n in zip(lo, shape)
    )


def _hull(boxes):
    return tuple(slice(min(s.start for s in a), max(s.stop for s in a)) for a in zip(*boxes))


def _fill(field, box, seed):
    rng = np.random.default_rng(seed)
    size = field[box].shape
    field[box] = rng.random(size) * 10.0 ** rng.integers(-3, 4, size)


@st.composite
def regions(draw):
    """(block, region): a solo block (``batch`` None) or a batch of 1-4
    members, or the coordinator's copies, each member non-zero in its own
    box and zero outside; the region is the boxes' hull."""
    shape = draw(st.sampled_from(LAYOUTS))
    kind = draw(st.sampled_from(["solo", "batch", "copies"]))
    spec, seed = GridSpec(shape), draw(st.integers(0, 2**32 - 1))
    if kind == "copies":
        fields = stats.FloatFields(spec, np.zeros(_layout(shape)[0]), np.zeros(_layout(shape)[0]))
        boxes = [_box(draw, shape) for _ in range(draw(st.integers(1, 3)))]
        for i, box in enumerate(boxes):
            _fill(fields.virions, box, seed + i)
            _fill(fields.chemokine, box, seed + i + 7)
        return fields, _hull(boxes)
    batch = draw(st.integers(1, 4)) if kind == "batch" else None
    block = VoxelBlock(spec, spec.domain) if batch is None else EnsembleBlock(
        spec, spec.domain, batch)
    members = [block] if batch is None else [block.member_view(b) for b in range(batch)]
    boxes = [_box(draw, shape) for _ in members]
    for i, (member, box) in enumerate(zip(members, boxes)):
        _fill(member.virions, box, seed + i)
        _fill(member.chemokine, box, seed + i + 7)
    lead = () if batch is None else (slice(0, batch),)
    return block, lead + _hull(boxes)


def leaves(shape, k, box) -> np.ndarray:
    """Whether each element of a solo interior view of ``shape`` lies in a
    leaf of numpy's summation tree — ``k``-slice chunks, each split at
    half its size less the remainder mod 8 down to at most 128 elements —
    that meets ``box`` (slices of the view): what the compiled pass reads."""
    inside = np.zeros(shape, bool)
    inside[box] = True
    flat, read = inside.reshape(-1), np.zeros(inside.size, bool)

    def tree(s, n):
        if n > 128:
            half = n // 2 - n // 2 % 8
            tree(s, half)
            tree(s + half, n - half)
        elif flat[s:s + n].any():
            read[s:s + n] = True

    chunk = k * (inside.size // len(inside))
    for s in range(0, inside.size, chunk):
        tree(s, min(chunk, inside.size - s))
    return read.reshape(shape)


class TestCompiledPass:
    @given(world=regions(), size=st.sampled_from(BUFSIZES))
    @settings(max_examples=150, deadline=None)
    def test_the_pass_has_the_whole_interior_bits(self, world, size):
        """Every total has the whole interior's bits; on the compiled tier
        the pass is certified wherever numpy folds its chunks, and reads
        nothing but the leaves that meet the region: with every other
        element NaN the totals stay the same."""
        block, region = world
        solo = region[len(region) - block.spec.ndim:]
        batched = isinstance(block, EnsembleBlock)
        members = [block.member_view(b) for b in range(block.batch)] if batched else [block]
        with bufsize(size):
            got = stats.float_totals(block, region)
            for member, pair in zip(members, got.reshape(-1, 2)):
                sl = member.interior
                for field, total in zip((member.virions, member.chemokine), pair):
                    assert _bits(total) == _bits(field[sl].sum(dtype=np.float64))
                    assert _bits(total) == _bits(stats.interior_sum(field, sl, solo[0]))
            if native.tier() is None:
                return event("numpy twin")
            shape, sl = members[0].shape, members[0].interior
            k = stats._probe(stats._compiled_fold, shape, sl)
            assert k == stats._probe(stats._chunk_rows, shape, sl)
            if not k:
                return event("numpy does not fold this layout's chunks")
            unread = ~leaves(members[0].virions[sl].shape, k,
                             tuple(slice(s.start - 1, s.stop - 1) for s in solo))
            event("some leaves unread" if unread.any() else "every leaf read")
            for member in members:
                member.virions[sl][unread] = member.chemokine[sl][unread] = np.nan
            assert np.array_equal(stats.float_totals(block, region), got)

    def test_no_region_is_zero(self):
        spec = GridSpec((4, 4))
        block = EnsembleBlock(spec, spec.domain, 2)
        assert np.array_equal(stats.float_totals(block, None), np.zeros((2, 2)))
