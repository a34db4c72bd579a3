"""Per-step simulation statistics (paper §3.3, Fig 5).

SIMCoV logs aggregate quantities every timestep — epithelial counts per
state, tissue T cells, total virions — to enable time-series analysis of
infection dynamics.  All implementations produce the same
:class:`StepStats`; they differ only in *how* the numbers are reduced
(numpy + PGAS allreduce vs GPU atomics vs GPU tree reduction), which is the
Fig 4 ablation axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from repro.core.state import EpiState, VoxelBlock

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


def interior_sum(field: np.ndarray, interior: tuple[slice, ...]) -> float:
    """The float reduction: one numpy sum over the interior view of a
    solo-layout padded array.

    Every float total any bitwise backend reports is this call on this
    layout.  numpy accumulates a strided view in buffer-sized chunks whose
    boundaries depend on the view's shape, so a sum over anything narrower
    (a row band, a region) has different bits (DESIGN.md §4, "Why the
    float totals stay whole-domain").
    """
    return float(field[interior].sum(dtype=np.float64))


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
            interior_sum(block.virions, sl),
            interior_sum(block.chemokine, sl),
        ],
        dtype=np.float64,
    )


#: Probe results keyed by (padded shape, interior) — see _batched_sum_exact.
_SUM_PROBE_CACHE: dict[tuple, bool] = {}


def _batched_sum_exact(shape: tuple[int, ...], sl: tuple[slice, ...]) -> bool:
    """Whether ``arr[sl].sum(axis=(1..))`` is bitwise-equal to summing each
    member's view separately, for float64 arrays of this layout.

    numpy's pairwise-summation reduction tree depends only on the
    operand's shape/strides, never on its values, so a one-time probe with
    random data soundly decides the question per layout.  When the probe
    passes (it does for all production layouts), the per-member stats
    reduction can run as one vectorized call; otherwise the caller falls
    back to a per-member loop, which is trivially exact because a member
    view has the solo block's exact layout.
    """
    key = (shape, tuple((s.start, s.stop, s.step) for s in sl[1:]))
    hit = _SUM_PROBE_CACHE.get(key)
    if hit is None:
        probe = np.random.default_rng(0xC0FFEE).random(shape)
        axes = tuple(range(1, len(shape)))
        vec = probe[sl].sum(axis=axes, dtype=np.float64)
        loop = np.array(
            [probe[b][sl[1:]].sum(dtype=np.float64) for b in range(shape[0])]
        )
        hit = bool(np.array_equal(vec, loop))
        _SUM_PROBE_CACHE[key] = hit
    return hit


def _lead(block) -> tuple[int, ...]:
    """Member axes in front of the spatial ones: ``()`` or ``(B,)``."""
    return block.shape[: len(block.shape) - block.spec.ndim]


def float_totals(block) -> np.ndarray:
    """Virion and chemokine totals over the whole interior: shape ``(2,)``
    on a solo block (the :func:`interior_sum` pair) and ``(B, 2)`` on a
    batched one, each row bitwise equal to that member's solo pair."""
    sl = block.interior
    if not _lead(block):
        return np.array(
            [interior_sum(block.virions, sl), interior_sum(block.chemokine, sl)]
        )
    xp = block.xp
    if xp.name != "numpy" or _batched_sum_exact(block.virions.shape, sl):
        axes = tuple(range(1, block.epi_state.ndim))
        return np.stack(
            [
                xp.asnumpy(block.virions[sl].sum(axis=axes)),
                xp.asnumpy(block.chemokine[sl].sum(axis=axes)),
            ],
            axis=-1,
        )
    else:  # pragma: no cover - no production layout fails the probe
        return np.array(
            [float_totals(block.member_view(b)) for b in range(block.batch)]
        )


def region_counts(block, region: tuple[slice, ...] | None) -> np.ndarray:
    """The integer statistics of ``region`` (padded-array slices; ``None``
    is the empty region): int64 counts in REDUCED_FIELDS order, shape
    ``(N_COUNTS,)`` on a solo block and ``(B, N_COUNTS)`` behind the member
    axis of a batched one."""
    lead = _lead(block)
    if region is None:
        return np.zeros(lead + (N_COUNTS,), dtype=np.int64)
    if (native := block.xp.native) is not None:
        return native.region_counts(block, region)
    state = block.epi_state[region]
    masks = [state == s for s in _COUNTED_STATES] + [block.tcell[region] != 0]
    if not lead:
        return np.array([np.count_nonzero(m) for m in masks], dtype=np.int64)
    axes = tuple(range(len(lead), state.ndim))
    return np.stack(
        [block.xp.asnumpy(m.sum(axis=axes)) for m in masks], axis=-1
    ).astype(np.int64)


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

    The two float totals are :func:`interior_sum` over the whole interior
    every step; see its docstring for why they are not region-limited.
    """

    def __init__(self, block):
        self.block = block
        #: Integer totals as of the last :meth:`counts`; None = the block
        #: was (re)written since, recount the whole domain.
        self._totals: np.ndarray | None = None
        self._outside: np.ndarray | None = None

    def reset(self) -> None:
        """The block was rewritten behind the reducer (checkpoint restore)."""
        self._totals = None

    def rebase(self, region) -> None:
        """The gate region moved to ``region``; block state is unchanged
        since the last :meth:`counts`."""
        if self._totals is not None:
            self._outside = self._totals - region_counts(self.block, region)

    def counts(self, region) -> np.ndarray:
        """Whole-domain integer statistics, counting only ``region``."""
        inside = region_counts(self.block, region)
        if self._totals is None:
            self._outside = self.whole_domain_counts() - inside
        self._totals = inside + self._outside
        return self._totals

    def whole_domain_counts(self) -> np.ndarray:
        """The one full sweep; steady-state steps never reach it."""
        return region_counts(self.block, self.block.interior)

    def reduce(self, region) -> np.ndarray:
        """The REDUCED_FIELDS vector (one row per member when batched)."""
        return np.concatenate(
            [self.counts(region), float_totals(self.block)], axis=-1
        )


class TimeSeries:
    """Accumulates StepStats and exposes numpy views per field."""

    def __init__(self):
        self._stats: list[StepStats] = []

    def append(self, stats: StepStats) -> None:
        self._stats.append(stats)

    def truncate(self, length: int) -> None:
        """Drop every entry at index >= ``length`` (recovery rollback:
        replayed steps re-append bitwise-identical stats)."""
        if length < 0:
            raise ValueError("length must be >= 0")
        del self._stats[length:]

    def __len__(self) -> int:
        return len(self._stats)

    def __getitem__(self, i: int) -> StepStats:
        return self._stats[i]

    def field(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self._stats], dtype=np.float64)

    def steps(self) -> np.ndarray:
        return np.array([s.step for s in self._stats], dtype=np.int64)

    def peak(self, name: str) -> tuple[int, float]:
        """(step, value) of the field's maximum — the Table 2 statistics."""
        vals = self.field(name)
        if vals.size == 0:
            raise ValueError("empty time series")
        i = int(np.argmax(vals))
        return int(self._stats[i].step), float(vals[i])

    def to_rows(self) -> list[dict]:
        """Plain dict rows (CSV/analysis helper)."""
        return [
            {f.name: getattr(s, f.name) for f in dc_fields(s)} for s in self._stats
        ]
