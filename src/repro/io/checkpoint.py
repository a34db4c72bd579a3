"""Checkpoint/restore: implementation-independent simulation snapshots.

Paper-scale SIMCoV runs are multi-hour supercomputer jobs; production use
needs restartable state.  Because this reproduction's randomness is a pure
function of (seed, step, voxel), a checkpoint is just the global voxel
state plus four scalars and the time series so far — and a run can resume
on *any* implementation (sequential, CPU ranks, GPU devices, any
decomposition) and continue bitwise identically to the uninterrupted
original, its series the whole run's.

Two forms share one payload shape (:func:`snapshot_state` /
:func:`restore_state`):

- **shadow snapshots** — plain in-memory dicts a job's segment runner
  (:mod:`repro.serve.runner`) takes every K steps, or when preempted,
  at near-memcpy cost;
- **on-disk checkpoints** — ``.npz`` files written *atomically* (tmp file
  + ``os.replace``, so a crash mid-write never destroys the previous
  checkpoint) with a CRC32 per array that :func:`load_checkpoint`
  verifies, raising :class:`CheckpointCorruptError` on any mismatch or
  undecodable container.

A batched ensemble is one state with a member axis (``(B,)`` pool and
seeds, ``(B, …)`` interiors and series entries, one FOI list per member),
written as ``format_version`` 3 under the solo file's keys; a solo run
still writes version 2.  A file without the (optional) series keys
restores a series that starts at the restored step.

Parameters are serialized by an explicit typed field codec
(:func:`encode_params` / :func:`decode_params`): every
:class:`~repro.core.params.SimCovParams` field is converted by its
*declared* type, so numpy scalars are normalized on save instead of
round-tripping through ``repr`` and a new field with an unsupported type
fails loudly at save time rather than corrupting restores.
"""

from __future__ import annotations

import json
import os
import re
import types
import typing
import zipfile
import zlib

import numpy as np

from repro.core.params import ParamsStack, SimCovParams
from repro.core.stats import TimeSeries

#: Voxel fields captured in a checkpoint.
CHECKPOINT_FIELDS = (
    "epi_state",
    "epi_timer",
    "virions",
    "chemokine",
    "tcell",
    "tcell_tissue_time",
    "tcell_bound_time",
)

#: Format marker for forward compatibility.  Version 2 added the typed
#: params codec and per-array CRCs; version-1 files are still readable.
#: A batch is written as version 3: version 2's keys with a member axis.
FORMAT_VERSION = 2
BATCH_FORMAT_VERSION = 3

#: The time-series columns' keys (optional: older files have none).
SERIES_ARRAYS = tuple(f"series_{name}" for name in TimeSeries.COLUMNS)

#: Arrays stored with their CRC32 (``seed_gid_counts``: batch files only).
CHECKED_ARRAYS = (*CHECKPOINT_FIELDS, "seed_gids", "seed_gid_counts", *SERIES_ARRAYS)

#: Filename pattern of auto-checkpoints (a job's mirrored snapshots).
AUTO_CHECKPOINT_PATTERN = re.compile(r"^ckpt_step(\d+)\.npz$")

#: Auto-checkpoints a job's directory keeps; rotation deletes older ones.
KEEP_CHECKPOINTS = 2


class CheckpointCorruptError(RuntimeError):
    """The checkpoint file is unreadable or failed CRC verification."""


# -- typed parameter codec ---------------------------------------------------

def _param_types() -> dict[str, type]:
    """Resolved (non-string) type per SimCovParams field."""
    return typing.get_type_hints(SimCovParams)


def _code_field(name: str, tp, value, *, decoding: bool):
    """Convert one field value by its declared type (both directions —
    encoding normalizes numpy scalars, decoding rebuilds tuples)."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        return _code_field(name, args[0], value, decoding=decoding)
    if tp is int:
        return int(value)
    if tp is float:
        return float(value)
    if origin is tuple or tp is tuple:
        item_types = typing.get_args(tp) or (int, Ellipsis)
        item = item_types[0]
        converted = tuple(
            _code_field(name, item, v, decoding=decoding) for v in value
        )
        # JSON has no tuple; ship a list, rebuild the tuple on decode.
        return converted if decoding else list(converted)
    raise TypeError(
        f"no checkpoint codec for SimCovParams.{name!r} of type {tp!r}; "
        "extend repro.io.checkpoint._code_field when adding param fields"
    )


def encode_params(params: SimCovParams) -> str:
    """Explicitly-typed JSON form of every SimCovParams field."""
    fields = {}
    for name, tp in _param_types().items():
        fields[name] = _code_field(
            name, tp, getattr(params, name), decoding=False
        )
    return json.dumps(fields, sort_keys=True)


def decode_params(text: str) -> SimCovParams:
    """Inverse of :func:`encode_params`."""
    raw = json.loads(text)
    hints = _param_types()
    fields = {
        name: _code_field(name, hints[name], value, decoding=True)
        for name, value in raw.items()
        if name in hints
    }
    return SimCovParams(**fields)


# -- payload assembly --------------------------------------------------------

def snapshot_state(sim) -> dict:
    """A self-contained in-memory snapshot of any implementation's state.

    Contains the full-domain interior of every checkpoint field, the
    scalars that, with the counter-based RNG, pin the rest of the run,
    and a copy of the series (:meth:`TimeSeries.to_arrays`).
    Decomposition-independent: restorable onto any implementation and
    any rank count.  A batched ensemble's snapshot carries the member
    axis: a ``(B,)`` pool and seed vector, ``(B, …)`` interiors and
    series entries, and one FOI array per member.
    """
    if np.ndim(sim.pool):
        pool, seed = np.array(sim.pool), sim.rng.seeds.copy()
        seed_gids = [
            np.array(g, dtype=np.int64) for g in sim.backend.member_seed_gids
        ]
    else:
        pool, seed = float(sim.pool), int(sim.rng.seed)
        seed_gids = np.asarray(sim.seed_gids, dtype=np.int64).copy()
    return {
        "step_num": int(sim.step_num),
        "pool": pool,
        "seed": seed,
        "seed_gids": seed_gids,
        "arrays": {n: np.ascontiguousarray(sim.gather_field(n)) for n in CHECKPOINT_FIELDS},
        "series": sim.series.to_arrays(),
    }


def restore_state(sim, snapshot: dict) -> None:
    """Write a snapshot's state into an already-constructed simulation.

    Works on every driver, fresh or already stepped: the field arrays are
    scattered into the implementation's blocks (for the distributed
    runtime these are the coordinator's shared-memory views, so parked
    workers see the restored state at their next step; for a batch, every
    member at once), the engine scalars are reset, the series is replaced
    by the snapshot's (emptied when it has none), and the backend drops
    what it had derived from the state it held before
    (:meth:`ExecutionBackend.state_restored`).
    """
    for block in sim.blocks if hasattr(sim, "blocks") else [sim.block]:
        gsl = block.owned.slices_from((0,) * block.owned.ndim)
        for name in CHECKPOINT_FIELDS:
            getattr(block, name)[block.interior] = snapshot["arrays"][name][(..., *gsl)]
    sim.step_num = snapshot["step_num"]
    sim.pool = snapshot["pool"]
    sim.series.load_arrays(snapshot.get("series"))
    sim.backend.state_restored()


# -- on-disk format ----------------------------------------------------------

def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def save_checkpoint(path: str, sim) -> None:
    """Snapshot any implementation's state to a ``.npz`` file.

    The write is atomic: the payload goes to a temporary file in the
    target directory first and is moved over ``path`` with
    ``os.replace``, so a crash mid-write leaves any previous checkpoint
    at ``path`` intact.  Every array is stored alongside its CRC32.  A
    batch is written as :data:`BATCH_FORMAT_VERSION`.
    """
    snapshot = snapshot_state(sim)
    gids = snapshot["seed_gids"]
    batched = np.ndim(snapshot["pool"]) > 0
    params_text = (
        json.dumps([encode_params(m) for m in sim.params.members])
        if batched else encode_params(sim.params)
    )
    payload = {
        "format_version": BATCH_FORMAT_VERSION if batched else FORMAT_VERSION,
        "step_num": snapshot["step_num"],
        "pool": snapshot["pool"],
        "seed": snapshot["seed"],
        "seed_gids": np.concatenate(gids) if batched else gids,
        "params_json": np.frombuffer(params_text.encode(), dtype=np.uint8),
        **snapshot["arrays"],
        **{f"series_{name}": a for name, a in snapshot["series"].items()},
    }
    if batched:
        payload["seed_gid_counts"] = np.array([g.size for g in gids], dtype=np.int64)
    for name in CHECKED_ARRAYS:
        if name in payload:
            payload[f"crc_{name}"] = np.uint32(_crc(payload[name]))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_snapshot(path: str) -> dict:
    """Read + CRC-verify an on-disk checkpoint into the snapshot-dict
    shape :func:`restore_state` consumes (plus a ``params`` entry).

    The restore half of :func:`save_checkpoint` for callers that build
    their own simulation — the serve runner resumes journal-replayed
    jobs through this.  Every corruption mode — undecodable container,
    missing members, CRC mismatch — raises :class:`CheckpointCorruptError`.
    """
    try:
        with np.load(path) as data:
            version = int(data["format_version"])
            if version not in (1, FORMAT_VERSION, BATCH_FORMAT_VERSION):
                raise ValueError(f"unsupported checkpoint format {version}")
            batched = version == BATCH_FORMAT_VERSION
            series_keys = SERIES_ARRAYS if SERIES_ARRAYS[0] in data.files else ()
            names = [*CHECKPOINT_FIELDS, "seed_gids", *series_keys]
            if batched:
                names.append("seed_gid_counts")
            arrays = {name: data[name] for name in names}
            if version == 1:
                # Legacy repr-encoded params, no CRCs.
                import ast

                fields = ast.literal_eval(bytes(data["params_repr"]).decode())
                fields["dim"] = tuple(fields["dim"])
                params = SimCovParams(**fields)
            else:
                for name, arr in arrays.items():
                    stored, actual = int(data[f"crc_{name}"]), _crc(arr)
                    if stored != actual:
                        raise CheckpointCorruptError(
                            f"checkpoint {path!r}: CRC mismatch on array "
                            f"{name!r} (stored {stored:#010x}, computed "
                            f"{actual:#010x})"
                        )
                text = bytes(data["params_json"]).decode()
                params = (
                    ParamsStack([decode_params(t) for t in json.loads(text)])
                    if batched else decode_params(text)
                )
            seed_gids = arrays.pop("seed_gids")
            series = {n: arrays.pop(k) for n, k in zip(TimeSeries.COLUMNS, series_keys)}
            if batched:
                counts = arrays.pop("seed_gid_counts")
                seed_gids = np.split(seed_gids, np.cumsum(counts)[:-1])
            return {
                "params": params,
                "step_num": int(data["step_num"]),
                "pool": data["pool"] if batched else float(data["pool"]),
                "seed": data["seed"] if batched else int(data["seed"]),
                "seed_gids": seed_gids,
                "arrays": arrays,
                "series": series or None,
            }
    except (CheckpointCorruptError, FileNotFoundError, ValueError):
        raise
    except (
        KeyError, OSError, EOFError, zlib.error, zipfile.BadZipFile
    ) as err:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is unreadable: {err}"
        ) from err


def load_checkpoint(path: str, make_sim=None):
    """Restore a simulation from a checkpoint.

    ``make_sim(params, seed, seed_gids)`` builds the implementation to
    resume on (default: the sequential reference, or an
    :class:`~repro.engine.ensemble.EnsembleSimCov` for a batch file).
    The restored simulation continues bitwise identically to the original
    run — on any implementation — because randomness is keyed by (seed,
    step, voxel).  Raises :class:`CheckpointCorruptError` if the file
    fails CRC verification or cannot be decoded.
    """
    snapshot = load_snapshot(path)
    if make_sim is None and np.ndim(snapshot["pool"]):
        from repro.engine.ensemble import EnsembleSimCov

        make_sim = lambda p, s, g: EnsembleSimCov(p, seeds=s, seed_gids=g)
    elif make_sim is None:
        from repro.core.model import SequentialSimCov

        make_sim = lambda p, s, g: SequentialSimCov(p, seed=s, seed_gids=g)
    sim = make_sim(
        snapshot["params"], snapshot["seed"], snapshot["seed_gids"]
    )
    restore_state(sim, snapshot)
    return sim


# -- auto-checkpoint rotation ------------------------------------------------

def auto_checkpoint_path(directory: str, step_num: int) -> str:
    """Canonical on-disk name for a periodic checkpoint at ``step_num``."""
    return os.path.join(directory, f"ckpt_step{step_num:08d}.npz")


def rotate_checkpoints(directory: str, keep: int) -> list[str]:
    """Delete all but the newest ``keep`` auto-checkpoints in ``directory``.

    Only files matching the ``ckpt_step<NNN>.npz`` pattern are
    considered, sorted by their embedded step number.  Returns the paths
    removed.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for entry in entries:
        m = AUTO_CHECKPOINT_PATTERN.match(entry)
        if m:
            found.append((int(m.group(1)), entry))
    removed = []
    for _step, entry in sorted(found)[:-keep]:
        target = os.path.join(directory, entry)
        try:
            os.unlink(target)
            removed.append(target)
        except FileNotFoundError:  # concurrent rotation
            pass
    return removed
