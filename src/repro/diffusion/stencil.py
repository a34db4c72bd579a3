"""Von Neumann stencil diffusion kernels (2D and 3D).

Three entry points serve the three implementations:

- :func:`diffuse_global` — whole-grid update for the sequential reference;
- :func:`diffuse_padded` — interior update of a ghost-padded local array
  (CPU ranks / GPU devices after a halo exchange);
- :func:`diffuse_region` — update of one tile's sub-region of a padded
  array (the memory-tiled GPU kernels, §3.2).
"""

from __future__ import annotations

import numpy as np

from repro.grid.box import Box


def _shifted(sl: tuple[slice, ...], axis: int, delta: int) -> tuple[slice, ...]:
    """Shift one axis of a slice tuple by ``delta`` (slices must be bounded)."""
    out = list(sl)
    s = sl[axis]
    out[axis] = slice(s.start + delta, s.stop + delta)
    return tuple(out)


def diffuse_region(
    src: np.ndarray,
    dst: np.ndarray,
    region: tuple[slice, ...],
    rate,
    spatial_ndim: int | None = None,
) -> None:
    """Write the diffusion update of ``src`` over ``region`` into ``dst``.

    ``region`` indexes the *padded* arrays and must not touch the outer
    ghost ring (neighbors are read at distance 1).  ``src`` and ``dst``
    must be distinct buffers (Jacobi update, as on the GPU).

    ``spatial_ndim`` names how many *trailing* axes are spatial; leading
    axes (an ensemble batch) carry independent grids and are not diffused
    across.  ``rate`` may be an array broadcastable against the region
    (per-member rates shaped ``(B, 1, ..., 1)``).
    """
    if src is dst:
        raise ValueError("diffuse_region requires distinct src/dst buffers")
    ndim = src.ndim if spatial_ndim is None else int(spatial_ndim)
    if not 1 <= ndim <= src.ndim:
        raise ValueError(f"spatial_ndim {ndim} out of range for {src.ndim}-d array")
    axis0 = src.ndim - ndim
    core = src[region]
    # First-pair initialization instead of zeros_like keeps this kernel
    # array-library-agnostic (no library-specific allocator needed).  Field
    # values are non-negative, so dropping the leading `0 +` is bitwise
    # neutral.
    nb_sum = src[_shifted(region, axis0, +1)] + src[_shifted(region, axis0, -1)]
    for axis in range(axis0 + 1, src.ndim):
        nb_sum += src[_shifted(region, axis, +1)]
        nb_sum += src[_shifted(region, axis, -1)]
    k = 2 * ndim
    dst[region] = core + (rate / k) * (nb_sum - k * core)


def diffuse_padded(padded: np.ndarray, rate: float) -> np.ndarray:
    """Diffusion update of a ghost-padded array's interior; returns a new
    interior array (ghosts must already hold correct neighbor values)."""
    interior = tuple(slice(1, s - 1) for s in padded.shape)
    out = np.empty_like(padded)
    diffuse_region(padded, out, interior, rate)
    return out[interior].copy()


def mirror_pad(field: np.ndarray) -> np.ndarray:
    """Pad by one cell with edge replication — the no-flux boundary."""
    return np.pad(field, 1, mode="edge")


def diffuse_global(field: np.ndarray, rate: float) -> np.ndarray:
    """Whole-domain diffusion step with no-flux boundaries."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"diffusion rate must be in [0, 1], got {rate}")
    return diffuse_padded(mirror_pad(field), rate)


def kept_fraction(rate):
    """``1 - rate``, what one step of decay at ``rate`` (a scalar or an
    array of per-member rates, each in [0, 1]) leaves of a field."""
    lo, hi = (rate.min(), rate.max()) if isinstance(rate, np.ndarray) else (rate, rate)
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(f"decay rate must be in [0, 1], got {rate}")
    return 1.0 - rate


def decay_field(field: np.ndarray, rate) -> None:
    """In-place exponential decay: c *= (1 - rate).

    ``rate`` may be an array of per-member rates broadcastable against
    ``field`` (shape ``(B, 1, ..., 1)``).
    """
    field *= kept_fraction(rate)


def mirror_out_of_domain(
    arr: np.ndarray, owned: Box, domain: Box, ghost: int = 1
) -> None:
    """Fill ghost cells that fall *outside the global domain* with the
    nearest owned value (no-flux boundary for subdomain arrays).

    Ghost cells inside the domain are the neighbor ranks' responsibility
    (halo exchange) and are left untouched.

    ``arr`` may carry leading non-spatial axes (an ensemble batch); only
    the trailing ``len(owned.lo)`` axes are treated as spatial.
    """
    offset = arr.ndim - len(owned.lo)
    if offset < 0:
        raise ValueError(
            f"array rank {arr.ndim} below spatial rank {len(owned.lo)}"
        )
    for axis in range(len(owned.lo)):
        ax = axis + offset
        if owned.lo[axis] == domain.lo[axis]:
            lo_edge = [slice(None)] * arr.ndim
            lo_src = [slice(None)] * arr.ndim
            lo_edge[ax] = slice(0, ghost)
            lo_src[ax] = slice(ghost, ghost + 1)
            arr[tuple(lo_edge)] = arr[tuple(lo_src)]
        if owned.hi[axis] == domain.hi[axis]:
            hi_edge = [slice(None)] * arr.ndim
            hi_src = [slice(None)] * arr.ndim
            hi_edge[ax] = slice(arr.shape[ax] - ghost, arr.shape[ax])
            hi_src[ax] = slice(arr.shape[ax] - ghost - 1, arr.shape[ax] - ghost)
            arr[tuple(hi_edge)] = arr[tuple(hi_src)]
