"""Property test: the float totals summed over the active band are the
whole-interior sum, bit for bit.

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
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core import stats

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
