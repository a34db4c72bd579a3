"""Bind once, call many: a compiled entry point bound to one block's arrays (DESIGN.md §4
"The compiled tier").

A block's first native call builds its :class:`Slot` for that entry point: the addresses of
the block's fields, of the per-member rate vectors and of the other arrays the pass reads,
each checked once, here.  A call then writes only what varies — the rates, the step, the
region's geometry, the thread's buffer for found vectors — and makes one foreign call.
Slots live in ``block._native``, which the block drops when any of its attributes is
replaced (``VoxelBlock.__setattr__``): that is the one place a binding is invalidated.
"""

import ctypes
import functools
import operator
import threading

import numpy as np

#: A call drops the GIL from this many voxels or keys, no sooner (DESIGN.md §4: serve_mix).
DROP_GIL_FROM = 1 << 14
_BOUNDS = operator.attrgetter("start", "stop", "step")
_local = threading.local()  # a thread's buffer for the found vectors, kept


def address(a: np.ndarray) -> int:
    """Where ``a`` starts: ``.ctypes.data`` is 4x slower than the buffer protocol,
    which refuses read-only and empty arrays."""
    if a.size and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def checked(arr, dtype, shape):
    if arr.shape != shape or arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"need C-contiguous {np.dtype(dtype)}{shape}, got {arr.dtype}{arr.shape}")
    return arr


#: A found vector that holds nothing: returned, not copied, when a pass finds nothing.
NOTHING = np.empty(0, np.int64)
NOTHING.flags.writeable = False

#: A compiled pass's ``int64[6]`` bounds — (Z, Y, X) lower, then upper — holding nothing yet.
EMPTY_BOX = np.array([np.iinfo(np.int64).max] * 3 + [-1] * 3)
EMPTY_BOX.flags.writeable = False


def box_slices(box: np.ndarray, ndim: int) -> tuple[slice, ...] | None:
    """The last ``ndim`` axes of ``box`` as slices; None if it holds nothing."""
    if box[5] < 0:
        return None
    return tuple(slice(int(box[a]), int(box[a + 3])) for a in range(3 - ndim, 3))


def members(block) -> int:
    """``B``: the block's members (1 on a solo block)."""
    return block.shape[0] if len(block.shape) > block.spec.ndim else 1


@functools.lru_cache(maxsize=256)  # a gate region lasts a sweep period, eight calls a step
def _geometry(shape, ndim: int, bounds, margin: int):
    """``int64[13]`` — ``shape`` as ``(B, Z, Y, X)``, the region's bounds in it (``bounds``: each
    slice's start, stop, step), ``ndim`` — its address, and the region's volume; ``margin``: how
    far beyond the region the kernel reads in space."""
    dims = [(n, *slice(*b).indices(n)) for b, n in zip(bounds, shape, strict=True)]
    if any(step != 1 for *_, step in dims) or any(
        lo < hi and (lo < margin or hi > n - margin) for n, lo, hi, _ in dims[-ndim:]
    ):
        raise ValueError(f"region {bounds}: strided, or within {margin} of the edge")
    dims = (dims[:-ndim] or [(1, 0, 1)]) + [(1, 0, 1)] * (3 - ndim) + dims[-ndim:]
    g = np.array([d[i] for i in range(3) for d in dims] + [ndim], dtype=np.int64)
    return g, address(g), int(np.maximum(g[8:12] - g[4:8], 0).prod())


def buffer(need: int):
    """The thread's buffer of at least ``need`` words — three counts, then the found vectors;
    unzeroed (DESIGN.md §4): one per thread, shared by every entry point — and its address."""
    if len(out := getattr(_local, "out", ())) < need:
        _local.out = out = np.empty(need, np.int64)
        _local.base = address(out)
    return out, _local.base


def bound(block, name, fns, fields=(), rates=0, key=(), rest=tuple, found=0) -> "Slot":
    """``block``'s slot for entry point ``name`` (``fns[name]``: the function holding the GIL,
    then the one dropping it); built at the block's first call of it, and again when ``key`` —
    the caller's arrays among ``rest()`` — are not those it was built with."""
    if (slots := block._native) is None:  # the block's first native call since it was made
        slots = block._native = {}
    slot = slots.get(name)
    if slot is None or key and not all(map(operator.is_, slot.key, key)):
        slot = slots[name] = Slot(fns[name], key, block, fields, rates, rest(), found)
    return slot


class Slot:
    """One entry point bound to one block: ``args`` — the geometry first, then ``fields``, a
    ``float64[B]`` vector per rate, ``rest``, and last ``found`` vectors and their counts."""

    def __init__(self, fns, key, block, fields, rates, rest, found):
        self.fns, self.key, self.out, self.region = fns, key, None, None
        self.rates = [np.zeros(members(block)) for _ in range(rates)]
        self.arrays = [*(checked(getattr(block, f), block.FIELD_DTYPES[f], block.shape)
                         for f in fields), *self.rates, *rest]  # kept alive here
        self.args = [0, *map(address, self.arrays), *[0] * (found and found + 1)]
        if len(self.args) != len(fns[0].argtypes):  # ctypes would pass a surplus on
            raise TypeError(f"{fns[0].__name__} takes {len(fns[0].argtypes)} pointers, "
                            f"not {len(self.args)}")
        self.shape, self.ndim, size = block.shape, block.spec.ndim, int(np.prod(block.shape))
        self.offsets, self.need = [3 + k * size for k in range(found)], 3 + found * size

    def run(self, region, rates=(), step=None, margin=0) -> list[np.ndarray]:
        """``rates`` (one value, or one per member) and ``step`` (into ``rest``'s last array)
        written, one foreign call per region (``region`` or each of a list): the found
        vectors, joined in region order."""
        for buf, value in zip(self.rates, rates):
            buf[:] = value.reshape(-1) if isinstance(value, np.ndarray) else value
        if step is not None:
            self.arrays[-1][0] = step
        if type(region) is list:
            parts = [self.run(r, margin=margin) for r in region]
            return [np.concatenate([p[k] for p in parts] or [np.empty(0, np.int64)])
                    for k in range(len(self.offsets))]
        if region is not self.region:  # kept, so that its id stays unique
            bounds = tuple(map(_BOUNDS, region))
            self.geometry, self.region = _geometry(self.shape, self.ndim, bounds, margin), region
        g, at, volume = self.geometry
        args = self.args
        args[0] = at
        if not self.offsets:
            return self.fns[volume >= DROP_GIL_FROM](*args)
        out = getattr(_local, "out", None)
        if out is None or out is not self.out:  # a new thread, another one, or a regrown buffer
            self.out, base = buffer(self.need)
            args[-len(self.offsets) - 1:] = [base + 8 * o for o in self.offsets] + [base]
        self.fns[volume >= DROP_GIL_FROM](*args)
        return [self.out[o:o + n].copy() if n else NOTHING
                for o, n in zip(self.offsets, self.out[:3].tolist())]
