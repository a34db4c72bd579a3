"""Distributions layered over the counter-based hash.

Each function maps uint64 hash words to a target distribution with
deterministic, decomposition-independent results.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as _sc

#: 2**-53, scale factor mapping the top 53 bits of a uint64 to [0, 1).
_U53 = float(2.0**-53)

#: Relative half-width of the band around each Poisson threshold inside
#: which a draw is recomputed by :func:`_poisson_reference` (DESIGN.md §4
#: "Exact table Poisson draws": ``pdtrik`` misses by up to 2**-35 here).
_BAND = float(2.0**-26)
#: Longest threshold table built; longer ones (``mu`` above ~31000) are
#: served by the reference formula.  The longest default period,
#: ``tcell_tissue_period`` 1440, needs ~1800 thresholds; ten times that,
#: ~15000.
_TABLE_MAX = 1 << 15
#: Distinct ``mu`` whose tables are kept (a model draws with four periods
#: and a lesion radius; a ``ParamsStack`` sweep with a few of each).
_TABLE_CACHE = 64
#: Edge table that sends every draw to the reference formula.
_NO_TABLE = np.array([-1.0])
_NO_TABLE.flags.writeable = False


def uniform01(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 uniform on [0, 1).

    Uses the top 53 bits so every representable value is equally likely and
    1.0 is never produced.
    """
    return (words >> np.uint64(11)).astype(np.float64) * _U53


def randint_below(words: np.ndarray, n: int) -> np.ndarray:
    """Integers uniform on [0, n).

    Plain modulo; the bias is < n / 2**64, negligible for every ``n`` used
    here (neighborhood sizes <= 26, and ``num_voxels`` < 2**40 for the
    extravasation sites).
    """
    if n <= 0:
        raise ValueError(f"randint_below requires n >= 1, got {n}")
    return (words % np.uint64(n)).astype(np.int64)


def _poisson_reference(u: np.ndarray, mu: float) -> np.ndarray:
    """SciPy's Poisson quantile function (the distribution's ``ppf``),
    spelled with the ``scipy.special`` ufuncs SciPy itself calls so that
    only that submodule is imported; ``u == 0`` gives 0 where SciPy gives
    -1."""
    vals = np.ceil(_sc.pdtrik(u, mu))
    vals1 = np.maximum(vals - 1, 0)
    return np.where(u > 0, np.where(_sc.pdtr(vals1, mu) >= u, vals1, vals), 0)


def _probe_agrees(edges: np.ndarray, mu: float) -> bool:
    """Whether the reference formula gives the table's answer just outside
    the band of every threshold a nonzero draw can reach."""
    probes = np.concatenate(
        [np.nextafter(edges[0::2], 0.0), np.nextafter(edges[1::2], 1.0)]
    )
    probes = probes[probes >= _U53]
    at = np.searchsorted(edges, probes)
    outside = at & 1 == 0
    return np.array_equal(
        _poisson_reference(probes[outside], mu), at[outside] >> 1
    )


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _poisson_edges(mu: float) -> np.ndarray:
    """Sorted band edges ``c_k * (1 -/+ _BAND)`` of the thresholds
    ``c_k = pdtr(k, mu)``, interleaved and of odd length.

    ``j = searchsorted(edges, u)`` then holds the draw and whether to trust
    it: even ``j`` lies strictly between two bands and ``j >> 1`` is the
    smallest ``k`` with ``c_k >= u``; odd ``j`` lies inside a band, or past
    the last one kept (bands overlap once ``c_k`` saturates towards 1), and
    is recomputed.  A table that is too long, or that the probe contradicts,
    degenerates to :data:`_NO_TABLE`.
    """
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"poisson requires a finite mu > 0, got {mu}")
    # Bernstein: P(X > mu + t) < 2**-53 for t = 9 * sqrt(mu) + 30.
    n = int(mu + 9.0 * math.sqrt(mu)) + 30
    if n > _TABLE_MAX:
        return _NO_TABLE
    c = _sc.pdtr(np.arange(n, dtype=np.float64), mu)
    edges = np.empty(2 * n)
    edges[0::2] = c * (1.0 - _BAND)
    edges[1::2] = c * (1.0 + _BAND)
    unsorted = np.flatnonzero(edges[1:] < edges[:-1])
    if unsorted.size:
        edges = edges[: unsorted[0] + 1]
    # Odd length: the last edge is a band's lower one, past which j is odd.
    edges = edges[: edges.size - 1 + edges.size % 2]
    if not _probe_agrees(edges, mu):
        return _NO_TABLE
    edges.flags.writeable = False
    return edges


def _poisson_draw(u: np.ndarray, mu: float) -> np.ndarray:
    """Draws for a flat ``u`` at one ``mu`` (see :func:`_poisson_edges`)."""
    j = np.searchsorted(_poisson_edges(mu), u)
    k = (j >> 1).astype(np.int64, copy=False)
    near = np.flatnonzero(j & 1)
    if near.size:
        k[near] = _poisson_reference(u[near], mu)
    return k


def poisson(words: np.ndarray, mu) -> np.ndarray:
    """Poisson variates via inverse transform of the uniform mapping.

    SIMCoV draws per-cell incubation/expressing/apoptosis periods from
    Poisson distributions (paper §2.2).  Inverse transform keeps the draw a
    pure function of the hash word, preserving cross-implementation
    determinism.  ``mu`` may be scalar or an array broadcastable to
    ``words.shape``; it must be finite and > 0.

    Equal element for element to SciPy's Poisson quantile function, except
    that ``u == 0`` gives 0 and not -1: a search of a per-``mu`` table of
    the thresholds ``pdtr(k, mu)``, with the draws that fall within
    ``_BAND`` of a threshold recomputed by SciPy's own formula (DESIGN.md §4
    "Exact table Poisson draws").
    """
    u = np.asarray(uniform01(words))
    flat = u.reshape(-1)
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim == 0:
        return _poisson_draw(flat, float(mu)).reshape(u.shape)
    values, group = np.unique(mu, return_inverse=True)
    group = np.broadcast_to(group.reshape(mu.shape), u.shape).reshape(-1)
    out = np.empty(flat.shape, dtype=np.int64)
    for i, value in enumerate(values):
        sel = group == i
        out[sel] = _poisson_draw(flat[sel], float(value))
    return out.reshape(u.shape)


def exponential(words: np.ndarray, scale) -> np.ndarray:
    """Exponential variates with mean ``scale``."""
    u = uniform01(words)
    # 1 - u is in (0, 1]; log is finite.
    return -np.log1p(-u) * scale
