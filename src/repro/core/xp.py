"""Array-module plug-in point: the ``xp`` injection layer.

Every numeric kernel in :mod:`repro.core.kernels` is written against an
injected array namespace (``xp``) instead of a hard-coded ``numpy``, the
BioDynaMo-style backend abstraction that makes the same kernel source run
on NumPy today and CuPy/Torch tomorrow.  A namespace is a thin adapter
object exposing the numpy-compatible function surface the kernels use,
plus the few operations whose spelling differs between libraries
(``astype``, ``copy``, host transfer).

Selection:

- ``get_array_module()`` / ``get_array_module("numpy")`` — the NumPy
  adapter, always available; this is the default everywhere and the only
  module the bitwise-exactness guarantees are stated against.
- ``get_array_module("cupy")`` / ``get_array_module("torch")`` — GPU
  modules, auto-detected; requesting one that is not importable raises a
  clean error naming what *is* available (callers and tests skip).
- ``get_array_module("auto")`` — the first available of cupy, torch,
  numpy.

The RNG hash always runs on the host (counter-based splitmix64 needs
uint64 wraparound, which torch lacks); adapters transfer the resulting
draws with ``xp.asarray``.  For NumPy that transfer is a no-op view.
"""

from __future__ import annotations

import numpy as np

#: Module names probed by auto-detection, in preference order.
KNOWN_MODULES = ("cupy", "torch", "numpy")


class ArrayModule:
    """Thin numpy-compatible facade over one array library.

    Unknown attributes delegate to the wrapped module, so for NumPy and
    CuPy (whose APIs mirror NumPy) the adapter is mostly transparent; the
    explicit methods cover the spellings that differ across libraries.
    """

    name = "array"
    #: The compiled tier of the per-voxel kernels and the counter hash
    #: (:class:`repro.core.native.Tier`), or None: kernels that have a
    #: compiled body dispatch to it when it is there.  Only the numpy
    #: module can have one.
    native = None

    def __init__(self, mod):
        self._mod = mod

    def __getattr__(self, attr):
        return getattr(self._mod, attr)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ArrayModule {self.name}>"

    # -- cross-library spellings -------------------------------------------

    def astype(self, arr, dtype):
        return arr.astype(dtype)

    def copy(self, arr):
        return arr.copy()

    def asnumpy(self, arr) -> np.ndarray:
        """Host (numpy) view or copy of ``arr``."""
        return np.asarray(arr)

    def is_native(self, arr) -> bool:
        """Whether ``arr`` already lives on this module's substrate."""
        return isinstance(arr, np.ndarray)

    def maximum_at(self, flat_arr, idx, vals) -> None:
        """``flat_arr[idx] = max(flat_arr[idx], vals)`` in place, with
        repeated indices all taking part — the paper's ``atomicMax``
        (§3.1).  ``flat_arr`` must be a 1-D *view* of the target storage."""
        np.maximum.at(flat_arr, idx, vals)


class NumpyModule(ArrayModule):
    name = "numpy"

    def __init__(self):
        super().__init__(np)

    @property
    def native(self):
        """Built, loaded and probed at the first read, not at import; None
        without a compiler or a private cache directory, when the build or
        the probe fails, and under ``REPRO_NATIVE=0``
        (:func:`repro.core.native.status` says which)."""
        from repro.core import native

        return native.tier()


class CupyModule(ArrayModule):  # pragma: no cover - requires cupy
    name = "cupy"

    def __init__(self):
        import cupy

        super().__init__(cupy)

    def asnumpy(self, arr) -> np.ndarray:
        return self._mod.asnumpy(arr)

    def is_native(self, arr) -> bool:
        return isinstance(arr, self._mod.ndarray)

    def maximum_at(self, flat_arr, idx, vals) -> None:
        import cupyx

        cupyx.scatter_max(flat_arr, idx, vals)


class TorchModule(ArrayModule):  # pragma: no cover - requires torch
    """numpy-spelling adapter over ``torch`` (CPU tensors by default).

    Torch mirrors enough of the numpy call surface (``axis=`` aliases,
    boolean masking, ``maximum``/``minimum``, ``nonzero`` via
    ``torch.where``) that the kernels run with only the translations
    below.  Exactness across modules is *statistical*, not bitwise — see
    DESIGN.md §4d.
    """

    name = "torch"

    def __init__(self, device: str = "cpu"):
        import torch

        super().__init__(torch)
        self.device = device
        self._dtype_map = {
            np.dtype(np.int8): torch.int8,
            np.dtype(np.int32): torch.int32,
            np.dtype(np.int64): torch.int64,
            # Torch has no usable uint64; bid words ride in int64.  Bid
            # comparisons only need a total order, which reinterpreting
            # uint64 as int64 changes — torch runs are therefore
            # statistical, never bitwise (DESIGN.md §4d).
            np.dtype(np.uint64): torch.int64,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.float64): torch.float64,
            np.dtype(np.bool_): torch.bool,
        }

    def _dtype(self, dtype):
        if dtype is None or isinstance(dtype, self._mod.dtype):
            return dtype
        return self._dtype_map[np.dtype(dtype)]

    def zeros(self, shape, dtype=None):
        return self._mod.zeros(shape, dtype=self._dtype(dtype), device=self.device)

    def zeros_like(self, arr, dtype=None):
        return self._mod.zeros_like(arr, dtype=self._dtype(dtype))

    def full(self, shape, value, dtype=None):
        return self._mod.full(shape, value, dtype=self._dtype(dtype), device=self.device)

    def asarray(self, arr, dtype=None):
        return self._mod.as_tensor(
            np.ascontiguousarray(arr) if isinstance(arr, np.ndarray) else arr,
            dtype=self._dtype(dtype), device=self.device,
        )

    def astype(self, arr, dtype):
        return arr.to(self._dtype(dtype))

    def copy(self, arr):
        return arr.clone()

    def asnumpy(self, arr) -> np.ndarray:
        if isinstance(arr, self._mod.Tensor):
            return arr.detach().cpu().numpy()
        return np.asarray(arr)

    def is_native(self, arr) -> bool:
        return isinstance(arr, self._mod.Tensor)

    def nonzero(self, arr):
        return self._mod.where(arr)

    def array_equal(self, a, b) -> bool:
        return bool(self._mod.equal(a, b))

    def _pair(self, a, b):
        """Promote python scalars to tensors (torch.maximum needs two)."""
        T = self._mod.Tensor
        if isinstance(a, T) and not isinstance(b, T):
            b = self._mod.as_tensor(b, dtype=a.dtype, device=a.device)
        elif isinstance(b, T) and not isinstance(a, T):
            a = self._mod.as_tensor(a, dtype=b.dtype, device=b.device)
        return a, b

    def maximum(self, a, b):
        a, b = self._pair(a, b)
        return self._mod.maximum(a, b)

    def minimum(self, a, b):
        a, b = self._pair(a, b)
        return self._mod.minimum(a, b)

    def cumsum(self, arr, axis=-1):
        return self._mod.cumsum(arr, dim=axis)

    def argmax(self, arr, axis=None):
        return self._mod.argmax(arr, dim=axis)

    def maximum_at(self, flat_arr, idx, vals) -> None:
        flat_arr.index_reduce_(0, idx, vals, "amax")


_FACTORIES = {
    "numpy": NumpyModule,
    "cupy": CupyModule,
    "torch": TorchModule,
}

#: Singleton NumPy adapter — the default ``xp`` of every block/kernel.
NUMPY = NumpyModule()

_cache: dict[str, ArrayModule] = {"numpy": NUMPY}


def available_modules() -> tuple[str, ...]:
    """Names of array modules importable right now (numpy always)."""
    out = []
    for name in KNOWN_MODULES:
        if name == "numpy":
            out.append(name)
            continue
        try:
            __import__(name)
        except ImportError:
            continue
        out.append(name)
    return tuple(out)


def get_array_module(name: str | None = None) -> ArrayModule:
    """Resolve an array namespace by name.

    ``None``/``"numpy"`` → the NumPy adapter; ``"cupy"``/``"torch"`` →
    the GPU adapters when importable; ``"auto"`` → the first available of
    :data:`KNOWN_MODULES`.  Passing an :class:`ArrayModule` returns it
    unchanged.  Unknown or unavailable names raise with the list of
    modules that *are* available, so callers can degrade cleanly.
    """
    if isinstance(name, ArrayModule):
        return name
    if name is None:
        name = "numpy"
    if name == "auto":
        name = available_modules()[0]
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array module {name!r}; known: {sorted(_FACTORIES)}"
        )
    if name not in _cache:
        try:
            _cache[name] = _FACTORIES[name]()
        except ImportError as err:  # pragma: no cover - absent optional dep
            raise ModuleNotFoundError(
                f"array module {name!r} is not installed "
                f"(available: {', '.join(available_modules())})"
            ) from err
    return _cache[name]
