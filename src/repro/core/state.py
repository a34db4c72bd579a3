"""Voxel state arrays.

Each voxel holds at most one epithelial cell and at most one T cell (paper
§2.2), so agents are represented struct-of-arrays style as per-voxel
fields — the GPU-friendly layout all three implementations share.  A
:class:`VoxelBlock` is one ghost-padded block of the domain (the whole
domain for the sequential model, a subdomain for the parallel ones).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.grid.box import Box
from repro.grid.spec import GridSpec


class EpiState(enum.IntEnum):
    """Epithelial cell states (paper Fig 1A)."""

    #: No epithelial cell (airway/structural voxel, or outside the domain).
    EMPTY = 0
    HEALTHY = 1
    #: Infected, producing virus, not yet detectable by T cells.
    INCUBATING = 2
    #: Infected, producing virus, detectable (T cells can bind).
    EXPRESSING = 3
    #: Bound by a T cell; dying.
    APOPTOTIC = 4
    DEAD = 5


#: States in which a cell produces virions (the paper's §2.2: incubating
#: cells "produce virus while not being detectable").
VIRION_PRODUCERS = (EpiState.INCUBATING, EpiState.EXPRESSING, EpiState.APOPTOTIC)
#: States that secrete the inflammatory signal (detectable infection).
CHEMOKINE_PRODUCERS = (EpiState.EXPRESSING, EpiState.APOPTOTIC)
#: States a T cell can bind.
BINDABLE = (EpiState.EXPRESSING,)

#: Sentinel for "no move / no bind chosen" in intent arrays.
NO_INTENT = np.int8(-1)


def block_geometry(spec: GridSpec, owned: Box, ghost: int) -> tuple[np.ndarray, np.ndarray]:
    """Global voxel ids (-1 outside the domain) and the in-domain mask over
    ``owned`` grown by ``ghost``: C-contiguous ``int64`` and ``bool`` arrays.

    Raveling is separable: :meth:`GridSpec.id_grid` folds one ``arange``
    per axis in by broadcasting, and each axis's out-of-domain slabs are
    then set to -1, so the two results are the only block-sized arrays
    built (no per-voxel coordinate table).
    """
    ext = owned.expand(ghost)
    gid = spec.id_grid(ext)
    for d, (lo, hi, n) in enumerate(zip(ext.lo, ext.hi, spec.shape)):
        axis = np.arange(lo, hi)
        gid[(slice(None),) * d + ((axis < 0) | (axis >= n),)] = -1
    return gid, gid >= 0


@dataclass
class VoxelBlock:
    """One ghost-padded block of voxel state.

    All arrays have shape ``owned.shape + 2*ghost`` per dimension.  The
    interior (owned) region is ``self.interior``; ghost cells mirror
    neighbor blocks (parallel impls) or are inert padding (sequential).
    """

    spec: GridSpec
    owned: Box
    ghost: int = 1

    # Filled by __post_init__:
    epi_state: np.ndarray = field(init=False)
    epi_timer: np.ndarray = field(init=False)
    virions: np.ndarray = field(init=False)
    chemokine: np.ndarray = field(init=False)
    tcell: np.ndarray = field(init=False)
    tcell_tissue_time: np.ndarray = field(init=False)
    tcell_bound_time: np.ndarray = field(init=False)
    gid: np.ndarray = field(init=False)
    in_domain: np.ndarray = field(init=False)

    #: Dtype of every allocated (checkpointable + exchangeable) field, in
    #: canonical order.  Shared-memory arenas size their segments from this.
    FIELD_DTYPES = {
        "epi_state": np.int8,
        "epi_timer": np.int32,
        "virions": np.float64,
        "chemokine": np.float64,
        "tcell": np.int8,
        "tcell_tissue_time": np.int32,
        "tcell_bound_time": np.int32,
    }

    #: The compiled tier's binding of this block (:mod:`repro.core.binding`): its entry
    #: points' argument lists by name, made at the block's first native call.  Fields are
    #: fixed after construction (a restore writes into them); replacing any attribute drops
    #: the binding, here and nowhere else.
    _native = None

    def __setattr__(self, name, value):
        if name != "_native":
            self.__dict__.pop("_native", None)
        object.__setattr__(self, name, value)

    def __getstate__(self):
        """A copy or a pickle starts unbound: a binding is one block's alone."""
        return {k: v for k, v in self.__dict__.items() if k != "_native"}

    def __post_init__(self):
        shape = tuple(s + 2 * self.ghost for s in self.owned.shape)
        for name, dtype in self.FIELD_DTYPES.items():
            setattr(self, name, np.zeros(shape, dtype=dtype))
        self._derive_geometry()
        # Tissue: every in-domain voxel starts with a healthy epithelial
        # cell (the paper evaluates full 2D tissue slices).
        self.epi_state[self.in_domain] = EpiState.HEALTHY

    def _derive_geometry(self) -> None:
        """Global voxel ids over the padded block; -1 outside the domain.

        ``gid_spatial`` / ``in_domain_spatial`` are the same geometry over
        the spatial axes only — here the arrays themselves; on an
        :class:`EnsembleBlock` the one copy every member shares.  The
        agent kernels address them by flat spatial index.
        """
        gid, inside = block_geometry(self.spec, self.owned, self.ghost)
        self.gid = self.gid_spatial = gid
        self.in_domain = self.in_domain_spatial = inside

    @classmethod
    def from_arrays(
        cls,
        spec: GridSpec,
        owned: Box,
        arrays: dict[str, np.ndarray],
        ghost: int = 1,
        fresh: bool = True,
    ) -> "VoxelBlock":
        """Build a block whose field storage is caller-provided.

        ``arrays`` maps every :attr:`FIELD_DTYPES` name to a padded-shape
        array (e.g. views into a ``multiprocessing.shared_memory``
        segment).  With ``fresh=True`` the storage is initialized like a
        normal construction (zeroed, healthy tissue); ``fresh=False``
        adopts the contents as-is — the attach path for processes joining
        a segment another process already initialized.  Geometry arrays
        (``gid``/``in_domain``) are always derived locally, so they never
        live in shared storage.  Every field must be C-contiguous: the agent
        kernels scatter through ``arr.reshape(-1)``, which on any other
        layout is a silent copy.
        """
        block = cls.__new__(cls)
        block.spec = spec
        block.owned = owned
        block.ghost = int(ghost)
        shape = tuple(s + 2 * block.ghost for s in owned.shape)
        for name, dtype in cls.FIELD_DTYPES.items():
            arr = arrays[name]
            if (arr.shape != shape or arr.dtype != np.dtype(dtype)
                    or not arr.flags.c_contiguous):
                raise ValueError(
                    f"field {name!r}: got {arr.dtype}{arr.shape}, "
                    f"need C-contiguous {np.dtype(dtype)}{shape}"
                )
            setattr(block, name, arr)
        block._derive_geometry()
        if fresh:
            for name in cls.FIELD_DTYPES:
                getattr(block, name)[...] = 0
            block.epi_state[block.in_domain] = EpiState.HEALTHY
        return block

    # -- geometry ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.epi_state.shape

    @property
    def interior(self) -> tuple[slice, ...]:
        """Slices selecting the owned region."""
        g = self.ghost
        return tuple(slice(g, s - g) for s in self.shape)

    @property
    def origin(self) -> tuple[int, ...]:
        """Global coordinate of the padded array's [0, 0, ...] element."""
        return tuple(l - self.ghost for l in self.owned.lo)

    # -- activity -----------------------------------------------------------------

    def activity_mask(self, min_chemokine: float) -> np.ndarray:
        """Owned-region mask of voxels that can change next step.

        A voxel is active if it carries virions or signal, hosts a T cell,
        or holds an infected cell.  (Everything else is invariant: the
        §3.2 tile sweep and the CPU active-list both key off this.)
        """
        return self._activity(self.interior, min_chemokine)

    def activity_mask_padded(self, min_chemokine: float) -> np.ndarray:
        """Activity over the whole padded block, ghosts included.

        Parallel implementations derive their active sets from this after a
        boundary exchange, so activity approaching from a neighbor block
        activates the receiving boundary voxels in time (the role the
        paper's RPC-time active-list updates / always-active ghost tiles
        play).
        """
        return self._activity(
            tuple(slice(None) for _ in self.shape), min_chemokine
        )

    def _activity(self, sl, min_chemokine: float) -> np.ndarray:
        epi = self.epi_state[sl]
        # Sub-threshold signal is zeroed at commit time, so the threshold
        # test only matters transiently; it keeps the active set identical
        # to the original's definition.
        return (
            (self.virions[sl] > 0.0)
            | (self.chemokine[sl] >= min_chemokine)
            | (self.tcell[sl] != 0)
            | (epi == EpiState.INCUBATING)
            | (epi == EpiState.EXPRESSING)
            | (epi == EpiState.APOPTOTIC)
        )


class EnsembleBlock(VoxelBlock):
    """A batch of ``B`` same-shape :class:`VoxelBlock` states stacked on a
    leading axis.

    Every field has shape ``(B,) + padded``; the spatial geometry
    (``gid``/``in_domain``) is shared by all members and exposed as a
    broadcast view, so elementwise kernels run once for the whole batch.
    Member ``b``'s slice ``field[b]`` is exactly the solo block layout,
    which is what :meth:`member_view` hands back (a writable view) for
    per-member code paths: seeding and checkpointing.
    """

    def __init__(self, spec: GridSpec, owned: Box, batch: int,
                 ghost: int = 1):
        if batch < 1:
            raise ValueError(f"ensemble batch must be >= 1, got {batch}")
        self.spec = spec
        self.owned = owned
        self.ghost = int(ghost)
        self.batch = int(batch)
        spatial = tuple(s + 2 * self.ghost for s in owned.shape)
        shape = (self.batch,) + spatial
        for name, dtype in self.FIELD_DTYPES.items():
            setattr(self, name, np.zeros(shape, dtype=dtype))
        self._derive_geometry()
        self.epi_state[self.in_domain] = EpiState.HEALTHY

    def _derive_geometry(self) -> None:
        gid, inside = block_geometry(self.spec, self.owned, self.ghost)
        self.gid_spatial = gid
        self.in_domain_spatial = inside
        bshape = (self.batch,) + gid.shape
        # Zero-copy broadcast views: all members share one geometry.
        self.gid = np.broadcast_to(gid, bshape)
        self.in_domain = np.broadcast_to(inside, bshape)

    # -- geometry ------------------------------------------------------------

    @property
    def interior(self) -> tuple[slice, ...]:
        """Slices selecting every member's owned region (full batch axis;
        bounded, like every region the kernels are handed)."""
        g = self.ghost
        return (slice(0, self.shape[0]),) + tuple(
            slice(g, s - g) for s in self.shape[1:]
        )

    # -- per-member access ---------------------------------------------------

    def member_view(self, b: int) -> VoxelBlock:
        """Solo-layout :class:`VoxelBlock` over member ``b``'s storage.

        The returned block's fields are *views* into the batched storage —
        writes flow through, so solo code (seeding, a checkpoint restore)
        mutates the ensemble state directly.
        """
        arrays = {name: getattr(self, name)[b] for name in self.FIELD_DTYPES}
        return VoxelBlock.from_arrays(
            self.spec, self.owned, arrays, ghost=self.ghost, fresh=False
        )
