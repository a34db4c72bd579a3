"""Named random streams keyed by global voxel id.

Every stochastic decision in the model gets its own :class:`Stream` so that
adding or removing one kind of draw never perturbs another — and so that the
sequential, CPU-PGAS and GPU implementations consume identical randomness
even though they evaluate voxels in different orders.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.rng.philox import _step_fold, _stream_fold, counter_hash, fold_prefix, hash_keys
from repro.rng import distributions as dist


class Stream(enum.IntEnum):
    """Substreams for each stochastic decision in SIMCoV."""

    #: Virion-driven infection of a healthy epithelial cell.
    INFECTION = 1
    #: Poisson draw of the incubation period at infection time.
    INCUBATION_PERIOD = 2
    #: Poisson draw of the expressing period.
    EXPRESSING_PERIOD = 3
    #: Poisson draw of the apoptosis period.
    APOPTOSIS_PERIOD = 4
    #: T-cell movement direction choice.
    TCELL_DIRECTION = 5
    #: T-cell movement/binding tiebreak bid (paper §3.1).
    TCELL_BID = 6
    #: T-cell binding target selection among infected neighbors.
    TCELL_BIND_SELECT = 7
    #: Whether a T cell attempts to bind this step.
    TCELL_BIND_TRY = 8
    #: Extravasation site selection (keyed by attempt index, not voxel).
    EXTRAVASATE_SITE = 9
    #: Extravasation acceptance roll against the inflammatory signal.
    EXTRAVASATE_ACCEPT = 10
    #: Poisson draw of a new tissue T cell's lifespan.
    TCELL_TISSUE_LIFE = 11
    #: Stochastic rounding of the fractional vascular-pool flux.
    POOL_ROUND = 12
    #: Initial FOI placement (keyed by focus index).
    SEEDING = 13
    #: Patchy-lesion generator (keyed by lesion index).
    LESION = 14


class VoxelRNG:
    """Deterministic randomness source for one simulation trial.

    Parameters
    ----------
    seed:
        Trial seed.  Different trials of an experiment use different seeds.

    Notes
    -----
    All methods take the timestep and an array of keys (global voxel ids or
    attempt indices) and return arrays of the keys' shape.  No internal
    state exists; calls may be made in any order, any number of times, from
    any rank or device, and always agree.

    Every method accepts an optional ``member=`` argument so batched
    kernels can use one call spelling for solo and ensemble runs; a solo
    RNG has exactly one member and ignores it.
    """

    __slots__ = ("seed",)

    #: Whether draws carry a leading ensemble-batch axis (see EnsembleRNG).
    batched = False

    def __init__(self, seed: int):
        self.seed = int(seed)

    # -- raw words ---------------------------------------------------------

    def prefixes(self, stream: Stream, step: int) -> np.ndarray:
        """The ``(seed, stream, step)`` hash prefix of every member,
        ``uint64[B]`` (``B = 1`` for a solo rng: one Python-int fold)."""
        return np.array([fold_prefix(self.seed, stream, step)], dtype=np.uint64)

    def stream_folds(self, stream: Stream) -> np.ndarray:
        """Every member's ``(seed, stream)`` fold, ``uint64[B]``: the
        prefixes less the step, which a compiled pass folds in itself."""
        return _stream_fold(np.array([self.seed], dtype=np.int64), stream)

    def words(self, stream: Stream, step: int, keys, member=None) -> np.ndarray:
        """Raw uint64 hash words for ``(stream, step, keys)``."""
        return counter_hash(self.seed, int(stream), step, np.asarray(keys))

    # -- distribution helpers ---------------------------------------------

    def uniform(self, stream: Stream, step: int, keys, member=None) -> np.ndarray:
        """Uniform [0,1) floats."""
        return dist.uniform01(self.words(stream, step, keys, member=member))

    def randint(self, stream: Stream, step: int, keys, n: int, member=None) -> np.ndarray:
        """Integers uniform on [0, n)."""
        return dist.randint_below(self.words(stream, step, keys, member=member), n)

    def poisson(self, stream: Stream, step: int, keys, mu, member=None) -> np.ndarray:
        """Poisson integers with mean ``mu``."""
        return dist.poisson(self.words(stream, step, keys, member=member), mu)

    def bids(self, step: int, keys, member=None) -> np.ndarray:
        """T-cell tiebreak bids: uint64 words with 0 reserved as 'no bid'.

        The paper (§3.1) draws bids "from a large range of integers" and
        ignores the negligible true-tie probability; reserving 0 costs one
        value out of 2**64.
        """
        w = self.words(Stream.TCELL_BID, step, keys, member=member)
        return np.maximum(w, np.uint64(1))


class EnsembleRNG(VoxelRNG):
    """Batched randomness: one counter-based stream per ensemble member.

    Draws are keyed ``(member_seed, stream, step, voxel)`` and vectorized
    across the leading batch axis, so member ``b``'s draws are **bitwise
    identical** to ``VoxelRNG(seeds[b])`` — the property that makes every
    batched run exactly reproduce its members' solo runs.  Two call
    shapes exist:

    - *full-region draws*: ``keys`` carries the leading batch axis
      (shape ``(B, ...)``, e.g. a broadcast voxel-id view); seeds are
      folded in shaped ``(B, 1, ..., 1)`` and broadcast;
    - *gathered draws* (``member=`` given): ``keys`` is a flat gather of
      voxel ids and ``member`` the same-shape gather of batch indices;
      each element hashes with its own member's seed.
    """

    __slots__ = ("seeds", "_folds")

    batched = True

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.int64)
        if self.seeds.ndim != 1 or self.seeds.size == 0:
            raise ValueError(f"seeds must be a non-empty 1-D sequence, got "
                             f"shape {self.seeds.shape}")
        self.seed = int(self.seeds[0])
        #: The member prefix table: each stream's ``(seed, stream)`` folds,
        #: ``uint64[B]``, made at its first draw.  Derived state, never
        #: pickled or copied (:meth:`__reduce__`).
        self._folds: dict[int, np.ndarray] = {}

    def __reduce__(self):
        return EnsembleRNG, (self.seeds,)

    def prefixes(self, stream: Stream, step: int) -> np.ndarray:
        """Every member's prefix as one vector fold of ``step`` into the
        table, bitwise ``fold_prefix(seeds[b], stream, step)``."""
        return _step_fold(self.stream_folds(stream), step)

    def stream_folds(self, stream: Stream) -> np.ndarray:
        folds = self._folds.get(stream)
        if folds is None:
            folds = self._folds[stream] = _stream_fold(self.seeds, stream)
        return folds

    @property
    def batch(self) -> int:
        return int(self.seeds.size)

    def member_rng(self, b: int) -> VoxelRNG:
        """The solo RNG whose draws member ``b`` reproduces bitwise."""
        return VoxelRNG(int(self.seeds[b]))

    def words(self, stream: Stream, step: int, keys, member=None) -> np.ndarray:
        keys = np.asarray(keys)
        if member is None:
            if keys.ndim < 1 or keys.shape[0] not in (1, self.batch):
                raise ValueError(
                    f"batched draw needs keys with leading batch axis "
                    f"{self.batch}, got shape {keys.shape}"
                )
            seed = self.seeds.reshape((self.batch,) + (1,) * (keys.ndim - 1))
            return counter_hash(seed, int(stream), step, keys)
        # One prefix per member, gathered: three of the hash's four rounds
        # run B times, not once per element.
        member = np.asarray(member, dtype=np.int64)
        return hash_keys(self.prefixes(stream, step), keys, member)
