"""Per-step simulation statistics (paper §3.3, Fig 5).

SIMCoV logs aggregate quantities every timestep — epithelial counts per
state, tissue T cells, total virions — to enable time-series analysis of
infection dynamics.  All implementations produce the same
:class:`StepStats`; they differ only in *how* the numbers are reduced
(numpy + PGAS allreduce vs GPU atomics vs GPU tree reduction), which is the
Fig 4 ablation axis.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from repro.core.state import EpiState, VoxelBlock
from repro.grid.spec import GridSpec

#: Reduction vector layout shared by every implementation.
REDUCED_FIELDS = (
    "healthy",
    "incubating",
    "expressing",
    "apoptotic",
    "dead",
    "tcells_tissue",
    "virions_total",
    "chemokine_total",
)
#: The leading REDUCED_FIELDS are integer counts (five epithelial states,
#: tissue T cells); the rest are float field totals.
N_COUNTS = 6
_COUNTED_STATES = (
    EpiState.HEALTHY,
    EpiState.INCUBATING,
    EpiState.EXPRESSING,
    EpiState.APOPTOTIC,
    EpiState.DEAD,
)


@dataclass(frozen=True)
class StepStats:
    """Aggregate state after one step."""

    step: int
    healthy: float
    incubating: float
    expressing: float
    apoptotic: float
    dead: float
    tcells_tissue: float
    virions_total: float
    chemokine_total: float
    #: Replicated scalar (not reduced): the vascular T-cell pool.
    tcells_vasculature: float = 0.0
    #: New tissue T cells this step.
    extravasations: int = 0
    #: Epithelial cells driven apoptotic this step.
    binds: int = 0
    #: T-cell moves executed this step.
    moves: int = 0

    @classmethod
    def from_vector(
        cls,
        step: int,
        vec: np.ndarray,
        pool: float = 0.0,
        extravasations: int = 0,
        binds: int = 0,
        moves: int = 0,
    ) -> "StepStats":
        if len(vec) != len(REDUCED_FIELDS):
            raise ValueError(
                f"stats vector length {len(vec)} != {len(REDUCED_FIELDS)}"
            )
        kwargs = dict(zip(REDUCED_FIELDS, (float(v) for v in vec)))
        return cls(
            step=step,
            tcells_vasculature=pool,
            extravasations=extravasations,
            binds=binds,
            moves=moves,
            **kwargs,
        )

    @property
    def infected(self) -> float:
        """All cells carrying virus (incubating + expressing + apoptotic)."""
        return self.incubating + self.expressing + self.apoptotic


def interior_sum(
    field: np.ndarray, interior: tuple[slice, ...], rows: slice | None
) -> float:
    """The float reduction: ``field[interior].sum()`` of a solo-layout
    padded array that is zero outside the padded row range ``rows``
    (``None``: zero everywhere, the sum is ``0.0``).

    Every float total any bitwise backend reports is this value.  numpy
    sums the view in chunks of ``k`` whole outer slices (rows in 2D,
    planes in 3D), pairwise within a chunk and in order across chunks
    from ``+0.0``, so an all-zero chunk adds an exact ``+0.0``: the sum
    over ``rows`` widened outward to chunk boundaries has the whole
    interior's bits.  When :func:`_chunk_rows` refuses the layout, or
    ``rows`` covers the interior, the band is the whole interior
    (DESIGN.md §4, "The float totals in the active region").
    """
    if rows is None:
        return 0.0
    top, end = interior[0].start, interior[0].stop
    lo, hi = top, end
    if (rows.start > top or rows.stop < end) and (
        k := _probe(_chunk_rows, field.shape, interior)
    ):
        lo = top + (rows.start - top) // k * k
        hi = min(end, top - (top - rows.stop) // k * k)
    return float(field[(slice(lo, hi),) + interior[1:]].sum(dtype=np.float64))


def stats_vector(block: VoxelBlock) -> np.ndarray:
    """This block's local contribution to the reduction, REDUCED_FIELDS order.

    Plain numpy sums over the owned interior — the whole-domain reference
    reduction all strategies must reproduce exactly (integer stats) / to
    fp tolerance.
    """
    sl = block.interior
    state = block.epi_state[sl]
    return np.array(
        [
            float((state == EpiState.HEALTHY).sum()),
            float((state == EpiState.INCUBATING).sum()),
            float((state == EpiState.EXPRESSING).sum()),
            float((state == EpiState.APOPTOTIC).sum()),
            float((state == EpiState.DEAD).sum()),
            float((block.tcell[sl] != 0).sum()),
            interior_sum(block.virions, sl, sl[0]),
            interior_sum(block.chemokine, sl, sl[0]),
        ],
        dtype=np.float64,
    )


#: Layout probe verdicts keyed by (probe, padded shape, interior,
#: np.getbufsize()): all that numpy's summation order depends on.
_PROBES: dict[tuple, int] = {}


def _probe(check, shape: tuple[int, ...], sl: tuple[slice, ...]) -> int:
    """``check`` of the interior view of a float64 array of this layout.

    numpy's reduction tree depends on the operand's shape, strides and
    the buffer size, never on its values, so one probe with random data
    decides the question per layout; it runs at the first reduce.
    """
    key = (check, shape, tuple((s.start, s.stop) for s in sl), np.getbufsize())
    if (hit := _PROBES.get(key)) is None:
        view = np.random.default_rng(0xC0FFEE).random(shape)[sl]
        hit = _PROBES[key] = int(check(view))
    return hit


def _chunk_rows(view: np.ndarray) -> int:
    """The chunk height ``k`` of a solo view, or 0 if numpy's sum of it is
    not the in-order fold of its ``k``-row chunk sums — checked on the
    whole view and on a shorter band aligned to chunk boundaries at both
    ends.  (One band matching the whole sum proves nothing: on a
    10×100×100 interior it does, yet the fold identity fails.)"""
    k = max(1, np.getbufsize() // (view.size // len(view)))

    def folds(v):
        acc = 0.0
        for i in range(0, len(v), k):
            acc += v[i : i + k].sum(dtype=np.float64)
        return acc == v.sum(dtype=np.float64)

    return k if folds(view) and folds(view[k : (len(view) - 1) // k * k]) else 0


def _compiled_fold(view: np.ndarray) -> int:
    """:func:`_chunk_rows`' ``k`` if the compiled ``float_totals`` pass, in
    chunks of ``k``, has the bits of numpy's sum of this solo view (the
    view of a random padded array), else 0.  The pass replays numpy's
    whole tree here, every leaf read; pruning a leaf it then skips only
    drops an exact ``+0.0``, whatever the values."""
    from repro.core import native  # late: native imports from this module

    if not (k := _chunk_rows(view)) or (tier := native.tier()) is None:
        return 0
    fields = FloatFields(GridSpec(view.shape), view.base, view.base)
    return k if tier.float_totals(fields, fields.interior, k)[0] == view.sum() else 0


def _batched_sum_exact(view: np.ndarray) -> bool:
    """Whether ``view.sum(axis=(1..))`` of a batched view is bitwise each
    member's solo sum.  When it is (for all production layouts) the
    numpy twin's per-member totals run as one vectorized call; otherwise
    it loops over members, trivially exact because a member view has the
    solo block's layout."""
    vec = view.sum(axis=tuple(range(1, view.ndim)), dtype=np.float64)
    return np.array_equal(vec, [m.sum(dtype=np.float64) for m in view])


def _lead(block) -> tuple[int, ...]:
    """Member axes in front of the spatial ones: ``()`` or ``(B,)``."""
    return block.shape[: len(block.shape) - block.spec.ndim]


class FloatFields:
    """A solo block's two float fields alone, in its padded layout (one
    ghost voxel a side), which :func:`float_totals` sums as a block's: the
    dist coordinator's copies of its ranks' fields, a probe's random one."""

    FIELD_DTYPES = {"virions": np.float64, "chemokine": np.float64}
    #: The compiled tier's binding (:mod:`repro.core.binding`).
    _native = None

    def __init__(self, spec: GridSpec, virions: np.ndarray, chemokine: np.ndarray):
        self.spec, self.virions, self.chemokine = spec, virions, chemokine

    @property
    def shape(self) -> tuple[int, ...]:
        return self.virions.shape

    @property
    def interior(self) -> tuple[slice, ...]:
        return tuple(slice(1, n - 1) for n in self.shape)


def float_totals(block, region: tuple[slice, ...] | None) -> np.ndarray:
    """Virion and chemokine totals of a block whose fields are zero outside
    ``region`` (None: everywhere): shape ``(2,)`` on a solo block and
    ``(B, 2)`` on a batched one, each row bitwise ``field[interior].sum()``
    of that member's solo layout.

    The compiled pass replays numpy's summation tree and reads only its
    leaves that meet ``region``, on each layout :func:`_compiled_fold`
    certifies (DESIGN.md §4, "The float totals in the active region").
    Elsewhere numpy sums: the :func:`interior_sum` band of the region's rows
    on a solo block, the whole interior of a batched one."""
    lead, sl = _lead(block), block.interior
    if region is None:
        return np.zeros(lead + (2,))
    from repro.core import native  # late: native imports from this module

    if (tier := native.tier()) is not None and (
        k := _probe(_compiled_fold, block.shape[len(lead):], sl[len(lead):])
    ):
        return tier.float_totals(block, region, k)
    if not lead:
        return np.array([interior_sum(f, sl, region[0]) for f in (block.virions, block.chemokine)])
    if _probe(_batched_sum_exact, block.virions.shape, sl):
        axes = tuple(range(1, block.epi_state.ndim))
        return np.stack(
            [block.virions[sl].sum(axis=axes), block.chemokine[sl].sum(axis=axes)], axis=-1
        )
    else:  # pragma: no cover - no production layout fails the probe
        members = [block.member_view(b) for b in range(block.batch)]
        return np.array([float_totals(m, m.interior) for m in members])


def region_counts(block, region: tuple[slice, ...] | None) -> np.ndarray:
    """The integer statistics of ``region`` (padded-array slices; ``None``
    is the empty region): int64 counts in REDUCED_FIELDS order, shape
    ``(N_COUNTS,)`` on a solo block and ``(B, N_COUNTS)`` behind the member
    axis of a batched one."""
    lead = _lead(block)
    if region is None:
        return np.zeros(lead + (N_COUNTS,), dtype=np.int64)
    from repro.core import native  # late: native imports from this module

    if (tier := native.tier()) is not None:
        return tier.region_counts(block, region)
    state = block.epi_state[region]
    masks = [state == s for s in _COUNTED_STATES] + [block.tcell[region] != 0]
    if not lead:
        return np.array([np.count_nonzero(m) for m in masks], dtype=np.int64)
    axes = tuple(range(len(lead), state.ndim))
    return np.stack([m.sum(axis=axes) for m in masks], axis=-1).astype(np.int64)


def crop(region: tuple[slice, ...], box: tuple[slice, ...]) -> tuple[slice, ...] | None:
    """``region`` cropped to ``box`` (bounded slices); None if they miss."""
    out = tuple(
        slice(max(a.start, b.start), min(a.stop, b.stop)) for a, b in zip(region, box)
    )
    return out if all(s.start < s.stop for s in out) else None


class RegionReducer:
    """The per-step reduction at the cost of the active region (§3.3).

    Every kernel write of a step lies inside the activity gate's region,
    so outside it ``epi_state`` is frozen and no T cell exists: the six
    integer statistics are ``region_counts(region) + outside``, where
    ``outside`` changes only when the region does.  The caller reports
    that with :meth:`rebase` right after each gate sweep — before any
    kernel has written since the last :meth:`counts`, so the last totals
    still describe the block — and a whole-domain count happens only on
    the first call and after :meth:`reset`.  With gating off the region is
    the whole interior and ``outside`` is zero: the reference path is this
    code, not a fork of it.

    The two float totals are :func:`float_totals` over the region, which
    is exact only if both float fields are zero outside ``region``
    (the gate's invariant: a voxel with virions or supra-threshold
    chemokine is active, and sub-threshold chemokine is zeroed).  The
    integer half holds for any region.

    ``counted`` (padded slices) restricts every count to that box — a
    dist rank's owned voxels inside its ghost band; every region is
    cropped to it.
    """

    def __init__(self, block, counted=None):
        self.block = block
        self.counted = counted
        #: Integer totals as of the last :meth:`counts`; None = the block
        #: was (re)written since, recount the whole domain.
        self._totals: np.ndarray | None = None
        self._outside: np.ndarray | None = None

    def reset(self) -> None:
        """The block was rewritten behind the reducer (checkpoint restore)."""
        self._totals = None

    def _crop(self, region):
        return region if region is None or self.counted is None else crop(region, self.counted)

    def rebase(self, region) -> None:
        """The gate region moved to ``region``; block state is unchanged
        since the last :meth:`counts`."""
        if self._totals is not None:
            self._outside = self._totals - region_counts(self.block, self._crop(region))

    def counts(self, region) -> np.ndarray:
        """Whole-domain integer statistics, counting only ``region``."""
        inside = region_counts(self.block, self._crop(region))
        if self._totals is None:
            self._outside = self.whole_domain_counts() - inside
        self._totals = inside + self._outside
        return self._totals

    def whole_domain_counts(self) -> np.ndarray:
        """The one full sweep; steady-state steps never reach it."""
        return region_counts(self.block, self.counted or self.block.interior)

    def reduce(self, region) -> np.ndarray:
        """The REDUCED_FIELDS vector (one row per member when batched) of
        a block whose float fields are zero outside ``region``."""
        return np.concatenate(
            [self.counts(region), float_totals(self.block, region)], axis=-1
        )


class TimeSeries:
    """The per-step statistics of a run, as columns: per step the step
    number, the REDUCED_FIELDS row, the vascular pool and the three
    tallies.  On a batched run (``batch`` members) each entry carries the
    member axis and :meth:`member` is one member's view over the same
    columns; the series itself reads member 0.  A :class:`StepStats` is
    built only when a row is read, from the values the engine produced,
    so each member's rows are bitwise its solo run's."""

    #: Column names, in column order (the keys of :meth:`to_arrays`).
    COLUMNS = ("step", "reduced", "pool", "extravasations", "binds", "moves")

    def __init__(self, batch: int | None = None):
        self.batch = batch
        #: Step numbers, REDUCED_FIELDS rows, pools, extravasations,
        #: binds and moves, one entry per step each.
        self._columns: tuple[list, ...] = ([], [], [], [], [], [])
        #: The member this series reads; None on a solo run.
        self._member = None if batch is None else 0

    def member(self, b: int) -> TimeSeries:
        """Member ``b``'s rows of a batched series: a solo series over
        the same columns (a view: it grows and truncates with this one)."""
        view = copy.copy(self)
        view.batch, view._member = None, range(self.batch)[b]
        return view

    def add(self, step, reduced, pool, extravasations, binds, moves) -> None:
        """One step's entry as the engine produced it (per-member vectors
        on a batched run; a tally may be the scalar 0 of an idle step)."""
        for column, value in zip(
            self._columns, (step, reduced, pool, extravasations, binds, moves)
        ):
            column.append(value)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The columns as fresh arrays (``(steps, …)``; a batch's entries
        ``(steps, B, …)``, an idle step's scalar tally broadcast), keyed by
        :data:`COLUMNS`; a member view gives its member's solo arrays."""
        lead = () if self.batch is None else (self.batch,)
        shapes = {"step": (), "reduced": lead + (len(REDUCED_FIELDS),)}
        out = {}
        for name, column in zip(self.COLUMNS, self._columns):
            shape = shapes.get(name, lead)
            if self._member is not None and not lead:
                column = [v[self._member] if isinstance(v, np.ndarray) else v for v in column]
            elif lead and name != "step":
                column = [np.broadcast_to(v, shape) for v in column]
            dtype = np.float64 if name in ("reduced", "pool") else np.int64
            out[name] = np.array(column, dtype=dtype).reshape(-1, *shape)
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray] | None) -> None:
        """Replace every entry with :meth:`to_arrays` output (``None``: no
        entries), scalars as Python ints and floats, so each row reads
        back bitwise as recorded."""
        self.truncate(0)
        if arrays is not None:
            for name, column in zip(self.COLUMNS, self._columns):
                values = arrays[name]
                column.extend(values.tolist() if values.ndim == 1 else list(values))

    def append(self, stats: StepStats) -> None:
        self.add(
            stats.step, [getattr(stats, f) for f in REDUCED_FIELDS],
            stats.tcells_vasculature, stats.extravasations, stats.binds,
            stats.moves,
        )

    def truncate(self, length: int) -> None:
        """Drop every entry at index >= ``length``, of every member."""
        if length < 0:
            raise ValueError("length must be >= 0")
        for column in self._columns:
            del column[length:]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i: int) -> StepStats:
        steps, *columns = self._columns
        row = [column[i] for column in columns]
        if (b := self._member) is not None:
            row = [v[b] if isinstance(v, np.ndarray) else v for v in row]
        reduced, pool, ext, binds, moves = row
        return StepStats.from_vector(
            steps[i], reduced, pool=float(pool), extravasations=int(ext),
            binds=int(binds), moves=int(moves),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def field(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self], dtype=np.float64)

    def steps(self) -> np.ndarray:
        return np.array(self._columns[0], dtype=np.int64)

    def peak(self, name: str) -> tuple[int, float]:
        """(step, value) of the field's maximum — the Table 2 statistics."""
        vals = self.field(name)
        if vals.size == 0:
            raise ValueError("empty time series")
        i = int(np.argmax(vals))
        return int(self._columns[0][i]), float(vals[i])

    def to_rows(self) -> list[dict]:
        """Plain dict rows (CSV/analysis helper)."""
        return [{f.name: getattr(s, f.name) for f in dc_fields(s)} for s in self]
