"""Core counter-based hash primitives.

The generator is a vectorized splitmix64-style avalanche hash.  It is
stateless: every output is a pure function of its inputs, which is the
property SIMCoV-GPU needs so that two devices sharing a boundary can agree
on the random bid of a T cell that only one of them owns (paper §3.1).

All arithmetic is modulo 2**64 (numpy uint64 wraps silently for array
operands; scalar operands are promoted to 0-d arrays to avoid the scalar
overflow warning path).
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

# 2**64 / golden ratio, the Weyl increment used by splitmix64.
PHI64 = np.uint64(0x9E3779B97F4A7C15)

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _as_u64(x) -> np.ndarray:
    """Coerce ``x`` to an at-least-1d uint64 ndarray.

    Promoting scalars to 1-element arrays keeps all arithmetic on the
    (silently wrapping) array fast path; numpy's *scalar* uint64 operations
    would raise overflow RuntimeWarnings.
    """
    arr = np.asarray(x)
    if arr.dtype != np.uint64:
        # int64 -> uint64 two's complement (negative python ints): a view.
        arr = arr.astype(np.int64, copy=False).view(np.uint64)
    return np.atleast_1d(arr)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


_M64 = (1 << 64) - 1
_PHI_INT, _MIX1_INT, _MIX2_INT = int(PHI64), int(_MIX1), int(_MIX2)


def _mix_int(z: int) -> int:
    """:func:`_mix` on one Python int taken mod 2**64."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
    return z ^ (z >> 31)


#: Keys from which a :func:`hash_keys` draw may resolve the compiled tier.
#: Below, a draw takes the tier only once something else has resolved it (a
#: step's first kernel): a constructor's few seeding draws must not be what
#: builds and loads it.
NATIVE_FROM = 256


def fold_prefix(seed, stream, step) -> int:
    """The ``(seed, stream, step)`` folds of :func:`counter_hash` for one
    trial, in Python ints mod 2**64: three folds of single words, cheaper
    than on 1-element arrays and the same bits (two's complement for
    negatives)."""
    s = _mix_int(int(seed) + _PHI_INT)
    s = _mix_int((s ^ (int(stream) * _PHI_INT)) + _PHI_INT)
    return _mix_int((s ^ (int(step) * _MIX1_INT)) + _PHI_INT)


def _stream_fold(seeds, stream) -> np.ndarray:
    """The ``(seed, stream)`` folds of :func:`fold_prefix` for each of
    ``seeds`` (int64 or uint64), as ``uint64`` words: what a batched rng
    folds once per stream and keeps (:meth:`EnsembleRNG.prefixes`)."""
    s = _mix(_as_u64(seeds) + PHI64)
    return _mix((s ^ np.uint64(int(stream) * _PHI_INT & _M64)) + PHI64)


def _step_fold(s: np.ndarray, step) -> np.ndarray:
    """:func:`fold_prefix`'s last fold, ``step`` into :func:`_stream_fold`
    words: one vector of prefixes, one per member."""
    return _mix((s ^ np.uint64(int(step) * _MIX1_INT & _M64)) + PHI64)


def _fold_keys(s, keys) -> np.ndarray:
    k = _as_u64(keys)
    return _mix((s ^ (k * _MIX2) ^ (k >> np.uint64(32))) + PHI64)


def hash_keys(prefix, keys, member=None) -> np.ndarray:
    """The last fold of :func:`counter_hash`: ``keys`` into ``prefix[0]``,
    one trial's :func:`fold_prefix` word, or — gathered draws of a batch —
    each key into ``prefix[member]``, ``prefix`` holding one word per member
    (``uint64[B]``) and ``member`` the batch index of each key.  It runs in
    the compiled tier (:mod:`repro.core.native`) when there is one and it is
    resolved, or the draw has :data:`NATIVE_FROM` keys and resolves it."""
    native = sys.modules.get("repro.core.native")  # not imported here: it imports this module
    if native is None or native._resolved is None:
        native = None if np.size(keys) < NATIVE_FROM else importlib.import_module(
            "repro.core.native")
    if native is not None and (tier := native.tier()) is not None:
        return tier.hash_keys(prefix, keys, member)
    s = prefix[0] if member is None else prefix[member]
    return _fold_keys(s, keys).reshape(np.shape(keys))


def counter_hash(seed, stream, step, keys) -> np.ndarray:
    """Hash the 4-tuple ``(seed, stream, step, keys)`` into uint64 words.

    ``keys`` is typically an array of global voxel ids (any shape); the
    result has the broadcast shape of ``seed`` and ``keys``.
    ``stream``/``step`` are scalars; ``seed`` is a scalar for one trial,
    or an array broadcastable against ``keys`` for batched ensembles
    (e.g. member seeds shaped ``(B, 1, 1)`` against voxel-id keys shaped
    ``(B, ny, nx)`` — each member's words are then bitwise identical to a
    scalar-seed call with that member's seed).

    The tuple members are folded in sequentially, re-avalanched between
    folds so that low-entropy inputs (small consecutive integers, which is
    exactly what voxel ids and step counters are) still produce
    statistically independent outputs.
    """
    if isinstance(seed, (int, np.integer)):
        prefix = np.array([fold_prefix(seed, stream, step)], dtype=np.uint64)
        return hash_keys(prefix, keys)
    shape = np.broadcast_shapes(np.shape(seed), np.shape(keys))
    s = _mix(_as_u64(seed) + PHI64)
    s = _mix((s ^ (_as_u64(stream) * PHI64)) + PHI64)
    s = _mix((s ^ (_as_u64(step) * _MIX1)) + PHI64)
    return _fold_keys(s, keys).reshape(shape)
