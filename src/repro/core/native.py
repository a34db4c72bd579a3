"""The compiled tier: ``_native.c`` built by the C compiler on the box at the first native
call (never at import), cached per user, loaded with ``ctypes``, reached only through
:func:`tier` (DESIGN.md §4 "The compiled tier").  No compiler, a cache someone else may
write, a failed build or probe, and ``REPRO_NATIVE=0`` all end in ``None`` with a reason in
:func:`status` (which ``python -m repro.core.native`` prints), never in an exception: the
numpy bodies are then the only path.  :class:`Tier` is the one place that marshals: each
entry point through the block's binding (:mod:`repro.core.binding`)."""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import kernels
from repro.core.binding import DROP_GIL_FROM as _DROP_GIL_FROM
from repro.core.binding import address as _address
from repro.core.binding import EMPTY_BOX, box_slices, bound, buffer, members
from repro.core.binding import checked as _checked
from repro.core.stats import N_COUNTS, _lead
from repro.diffusion.stencil import diffuse_region, kept_fraction
from repro.rng.distributions import _poisson_edges, _poisson_reference
from repro.rng.philox import _as_u64, _fold_keys
from repro.rng.streams import Stream

SOURCE = Path(__file__).with_name("_native.c")
#: Adds and multiplies round, and int32 wraps, where numpy's do (DESIGN.md §4).
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11", "-ffp-contract=off", "-fno-fast-math", "-fwrapv")
#: Every function in ``_native.c`` returns void and takes this many pointers.
_NARGS = {"hash_keys": 5, "epithelial": 11, "production": 6, "diffuse": 7,
          "commit": 8, "tcell_age": 5, "region_counts": 4, "tcell_intents": 14,
          "compute_moves": 10, "resolve_binds": 10, "activity": 8, "sweep_window": 5,
          "extravasate": 17, "retime": 9, "float_totals": 5, "mirror": 4}
#: Drop the GIL at every call, whatever the size (DESIGN.md §4): once a step, where the numpy
#: bodies' sorts did, so that serve's event loop gets the GIL while a small job steps.
_YIELDS = {"extravasate"}
_lock, _resolved = threading.Lock(), None  # tier()'s once-per-process result
_WORDS = {np.dtype(np.int64), np.dtype(np.uint64)}
#: The schedule's four streams, in the order ``extravasate`` reads their folds.
_ATTEMPT_STREAMS = (Stream.POOL_ROUND, Stream.EXTRAVASATE_SITE, Stream.EXTRAVASATE_ACCEPT,
                    Stream.TCELL_TISSUE_LIFE)
#: An unbounded ``counted`` box: every entrant counts.
_EVERYWHERE = [(-(1 << 62), 1 << 62)] * 3


@functools.lru_cache(maxsize=64)
def _joined(mus: tuple, rows: int):
    """The ``_poisson_edges`` tables of ``mus`` (one mean, or one per member) joined into one
    buffer, and each of ``rows`` members' ``(offset, length)`` in it; the tables too."""
    tables = {mu: _poisson_edges(mu) for mu in mus}
    starts = dict(zip(tables, np.cumsum([0, *map(len, tables.values())]).tolist()))
    row = [(starts[mu], len(tables[mu])) for mu in (mus * rows if len(mus) == 1 else mus)]
    return tables, np.concatenate([*tables.values()]), np.array(row, np.int64).reshape(-1)


@functools.lru_cache(maxsize=16)
def _whole(shape) -> tuple[slice, ...]:
    """The whole padded ``shape`` as a region: one object per shape, as a slot keeps it."""
    return tuple(slice(0, n) for n in shape)


def _tables(period, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``_joined`` for a period (scalar, or a ``ParamsStack``'s per-member array), joined
    again once ``_poisson_edges`` no longer holds a table it was joined from."""
    mus = tuple(period.reshape(-1).tolist()) if isinstance(period, np.ndarray) else (
        float(period),)
    tables, edges, row = _joined(mus, rows)
    if any(_poisson_edges(mu) is not table for mu, table in tables.items()):
        _joined.cache_clear()
        tables, edges, row = _joined(mus, rows)
    return edges, row


def _band(field, at, u, period, lead) -> None:
    """The timers the C search left in a threshold's band, at flat indices ``at`` (member
    stride ``lead``) of ``field``: SciPy's formula, as ``_poisson_draw`` recomputes them."""
    if isinstance(period, np.ndarray):
        period = period.reshape(-1)[at // lead]
    field.reshape(-1)[at] = np.maximum(1, _poisson_reference(u, period).astype(np.int64))


class Tier:
    """Each method takes its numpy reference's arguments and leaves its bits."""

    def __init__(self, path: str):
        self._libs = ctypes.PyDLL(path), ctypes.CDLL(path)  # a call holds / drops the GIL
        self._fns = {name: tuple(getattr(self._libs[max(drop, name in _YIELDS)], name)
                                 for drop in (0, 1)) for name in _NARGS}
        for fn in [fn for fns in self._fns.values() for fn in fns]:
            fn.restype, fn.argtypes = None, (ctypes.c_void_p,) * _NARGS[fn.__name__]

    def hash_keys(self, prefix, keys, member=None) -> np.ndarray:
        """:func:`repro.rng.philox.hash_keys`."""
        if (k := np.ascontiguousarray(keys)).dtype not in _WORDS:  # int64 keys: the same words
            k = np.ascontiguousarray(_as_u64(keys))
        if member is not None:
            member = np.ascontiguousarray(member, np.int64).reshape(k.shape)
        out, (counts, base) = np.empty(k.shape, np.uint64), buffer(3)
        counts[0], counts[1] = len(_checked(prefix, np.uint64, prefix.shape[:1])), k.size
        self._fns["hash_keys"][k.size >= _DROP_GIL_FROM](
            _address(prefix), 0 if member is None else _address(member), _address(k),
            _address(out), base)
        if counts[2]:
            raise IndexError(f"member index outside 0..{len(prefix) - 1}")
        return out.reshape(np.shape(keys))

    @staticmethod
    def _keyed(block, rng, *streams):
        """The spatial gids, ``streams``' member ``(seed, stream)`` folds in turn, and last the
        step's slot: C folds the step into them."""
        folds = np.concatenate([rng.stream_folds(stream) for stream in streams])
        return (_checked(block.gid_spatial, np.int64, block.shape[-block.spec.ndim:]),
                _checked(folds, np.uint64, (len(streams) * members(block),)),
                np.zeros(1, np.int64))

    def epithelial(self, params, rng, step, block, region):
        """``epithelial_update`` less its Poisson draws: returns the flat indices of the newly
        infected and of the incubating -> expressing cells, whose timers the caller draws."""
        return bound(block, "epithelial", self._fns, ("epi_state", "epi_timer", "virions"), 1, (
            rng,), lambda: self._keyed(block, rng, Stream.INFECTION), found=2).run(
            region, (params.infectivity,), step)

    def production(self, params, block, region, step) -> None:
        rates = (params.virion_production_at(step), params.chemokine_production)
        bound(block, "production", self._fns, ("epi_state", "virions", "chemokine"), 2).run(
            region, rates)

    def _scratch(self, name, block, rates, sv, sc):
        """``diffuse`` or ``commit``: the block's concentrations, ``rates`` rate vectors, then
        ``sv`` and ``sc``, the scratch pair, checked against them."""
        def rest():
            for src, dst in ((block.virions, sv), (block.chemokine, sc)):
                if np.may_share_memory(src, _checked(dst, np.float64, block.shape)):
                    raise ValueError("diffusion requires distinct src/dst buffers")
            return sv, sc
        return bound(block, name, self._fns, ("virions", "chemokine"), rates, (sv, sc), rest)

    def diffuse(self, params, block, region, sv, sc) -> None:
        k = 2 * block.spec.ndim
        self._scratch("diffuse", block, 2, sv, sc).run(region, (
            params.virion_diffusion / k, params.chemokine_diffusion / k), margin=1)

    def commit(self, params, block, regions, sv, sc, step) -> None:
        self._scratch("commit", block, 3, sv, sc).run(list(regions), (
            kept_fraction(params.virion_clearance_at(step)),
            kept_fraction(params.chemokine_decay), params.min_chemokine))

    def _agents(self, name, block, intents, fields, rates, names, rng=None, found=0):
        """An agent pass: ``fields``, ``rates`` rate vectors, ``intents``' fields ``names`` and
        the flat bind stencil; then, given ``rng``, the in-domain mask and the streams' folds."""
        def rest():
            dtypes, ndim = kernels.IntentArrays.FIELD_DTYPES, block.spec.ndim
            keyed = () if rng is None else (_checked(
                block.in_domain_spatial, np.bool_, block.shape[-ndim:]), *self._keyed(
                block, rng, Stream.TCELL_BID, Stream.TCELL_BIND_SELECT, Stream.TCELL_DIRECTION))
            return (*[_checked(getattr(intents, n), dtypes[n], block.shape) for n in names],
                    _checked(kernels._flat_layout(block.shape, ndim)[2], np.int64,
                             (3 ** ndim,)), *keyed)
        return bound(block, name, self._fns, fields, rates, (intents, rng), rest, found)

    def tcell_intents(self, rng, step, block, intents, region) -> None:
        self._agents("tcell_intents", block, intents, ("tcell", "tcell_bound_time", "epi_state"),
                     0, kernels.IntentArrays.FIELD_DTYPES, rng).run(region, (), step, 1)

    def compute_moves(self, block, intents, region) -> "kernels.MoveSet":
        moved_out, arriving, life = self._agents("compute_moves", block, intents, (
            "tcell_tissue_time",), 0, ("move_dir", "bid_self", "move_bid"), found=3).run(
            region, margin=1)
        return kernels.MoveSet(region, moved_out, arriving, life.astype(np.int32))

    def resolve_binds(self, params, block, intents, region) -> np.ndarray:
        """``resolve_binds`` less its Poisson draws: the bound cells' flat indices."""
        return self._agents("resolve_binds", block, intents, ("epi_state", "tcell_bound_time"),
                            1, ("bind_dir", "bid_self", "bind_bid"), found=1).run(
            region, (params.tcell_binding_period,), margin=1)[0]

    def extravasate(self, params, attempts, block, region, counted):
        """``apply_extravasation`` over the schedule ``attempts`` (``kernels.Attempts``), drawn
        in the pass: the entrants, a count or (batched) one per member of ``region``.  The
        per-member parameters and the lifespan tables are bound with ``params``."""
        ndim, rng = block.spec.ndim, attempts.rng

        def rest():
            pad, n = [(0, 1)] * (3 - ndim), members(block)
            box = _EVERYWHERE if counted is None else pad + [
                s.indices(m)[:2] for s, m in zip(counted, block.shape[-ndim:])]
            where = [*[1] * (3 - ndim), *block.spec.shape, *[0] * (3 - ndim), *block.origin,
                     *(lo for lo, _ in box), *(hi for _, hi in box), params.num_voxels]
            rates = [np.ascontiguousarray(np.broadcast_to(np.reshape(v, -1), (n,)), np.float64)
                     for v in (params.extravasate_fraction, params.min_chemokine)]
            return (*rates, np.concatenate([rng.stream_folds(s) for s in _ATTEMPT_STREAMS]),
                    np.array(where, np.int64), *_tables(params.tcell_tissue_period, n),
                    np.zeros(n, np.int64), np.zeros(1, np.int64))
        slot = bound(block, "extravasate", self._fns, (
            "tcell", "tcell_tissue_time", "tcell_bound_time", "chemokine"), 1, (
            rng, params, counted), rest, found=2)
        at, u = slot.run(region, (attempts.pool,), attempts.step)
        if len(at):
            _band(block.tcell_tissue_time, at, u.view(np.float64), params.tcell_tissue_period,
                  block.epi_state.size // members(block))
        entered = slot.arrays[-2]
        return int(entered[0]) if block.epi_state.ndim == ndim else entered[region[0]].copy()

    def retime(self, rng, stream, step, block, at, period) -> None:
        """``kernels._retime``: ``at``, the cells' ``int64`` flat indices.  The block's
        addresses and each stream's folds are kept in its bindings."""
        if (slots := block._native) is None:
            slots = block._native = {}
        bound_to = slots.get("retime")
        if bound_to is None or bound_to[0] is not rng:
            gid = _checked(block.gid_spatial, np.int64, block.shape[-block.spec.ndim:])
            bound_to = slots["retime"] = (rng, {}, _address(gid), _address(_checked(
                block.epi_timer, np.int32, block.shape)), block.epi_state.size // members(block))
        _, folds, gid, timer, lead = bound_to
        if (fold := folds.get(stream)) is None:  # the array is kept alive with its address
            fold = folds[stream] = (f := rng.stream_folds(stream), _address(f))
        at, n = np.ascontiguousarray(at, np.int64), len(at)
        edges, table = _tables(period, members(block))
        out, base = buffer(4 + 2 * n)
        out[0], out[1], out[2] = n, lead, step
        self._fns["retime"][n >= _DROP_GIL_FROM](
            fold[1], gid, _address(at), _address(edges), _address(table), timer, base + 32,
            base + 8 * (4 + n), base)
        if nb := int(out[3]):
            _band(block.epi_timer, out[4:4 + nb].copy(),
                  out[4 + n:4 + n + nb].view(np.float64).copy(), period, lead)

    def tcell_age(self, block, region) -> tuple[slice, ...] | None:
        slot = bound(block, "tcell_age", self._fns, ("tcell", "tcell_tissue_time",
                     "tcell_bound_time"), rest=lambda: (np.empty(6, np.int64),))
        (box := slot.arrays[-1])[:] = EMPTY_BOX
        slot.run(region)
        return box_slices(box, block.spec.ndim)

    def region_counts(self, block, region) -> np.ndarray:
        slot = bound(block, "region_counts", self._fns, ("epi_state", "tcell"), rest=lambda: (
            np.zeros(_lead(block) + (N_COUNTS,), dtype=np.int64),))
        slot.run(region)  # the C zeroes the region's members' rows first
        out = slot.arrays[-1]
        return out[region[0]].copy() if out.ndim > 1 else out.copy()

    def float_totals(self, block, region, k) -> np.ndarray:
        """:func:`repro.core.stats.float_totals` of fields zero outside ``region``, in numpy's
        chunks of ``k`` outer slices (the layout's probed ``_chunk_rows``)."""
        slot = bound(block, "float_totals", self._fns, ("virions", "chemokine"), rest=lambda: (
            np.zeros(1, np.int64), np.zeros(_lead(block) + (2,))))
        slot.arrays[-2][0] = k
        slot.run(region, margin=1)
        return slot.arrays[-1].copy()

    def mirror(self, block, faces) -> None:
        """``kernels.mirror_fields`` on the faces of the bit mask ``faces``."""
        slot = bound(block, "mirror", self._fns, ("virions", "chemokine"), rest=lambda: (
            np.array([0, block.ghost], np.int64),))
        slot.arrays[-1][0] = faces
        slot.run(_whole(block.shape))

    def activity(self, block, regions, min_chemokine, raw, box) -> None:
        """``block._activity`` into ``raw`` over each region; ``box`` widened to their Trues."""
        bound(block, "activity", self._fns, ("epi_state", "virions", "chemokine", "tcell"), 1, (
            raw, box), lambda: (_checked(raw, np.bool_, block.shape),
                                _checked(box, np.int64, (6,)))).run(list(regions), (min_chemokine,))

    def sweep_window(self, block, window, raw, tiles, mask, found) -> None:
        """The window pass (``tiles``: ``int64[4]``, see ``_native.c``): ``raw``, left as scratch,
        into ``mask[window]``; ``found``: each member's Trues, then the box bounding them."""
        bound(block, "sweep_window", self._fns, key=(raw, tiles, mask, found), rest=lambda: (
            _checked(raw, np.bool_, block.shape), _checked(tiles, np.int64, (4,)),
            _checked(mask, np.bool_, block.shape),
            _checked(found, np.int64, (members(block) + 6,)))).run(window, margin=1)


def _cache_dir() -> Path:
    """The per-user directory the libraries are kept in, created ``0700``."""
    path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "repro", "native")
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        path = Path(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
        path.mkdir(mode=0o700, exist_ok=True)
    return path


def _private(path: Path) -> Path:
    """``path`` if it is ours and nobody else may write it: it is ``dlopen``\\ ed."""
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path}: not uid {os.getuid()}'s, or group/world-writable")
    return path


def _probe_agrees(tier: Tier) -> bool:
    """Known answers against the numpy bodies: fixed hash words, a 2-D and a 3-D diffuse cell
    (seeded so that fused multiply-adds give other bits), a commit below, at and above the floor."""
    keys = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    prefix = np.array([0x243F6A8885A308D3], dtype=np.uint64)
    ok = np.array_equal(tier.hash_keys(prefix, keys), _fold_keys(prefix[0], keys))
    for ndim in (2, 3):
        src = np.random.default_rng(2 * ndim).random((1,) * (4 - ndim) + (3,) * ndim)
        want, got = np.zeros_like(src), np.zeros_like(src)
        region = (slice(0, 1),) * (4 - ndim) + (slice(1, 2),) * ndim
        diffuse_region(src, want, region, 0.3, spatial_ndim=ndim)
        g = [*src.shape, *(s.start for s in region), *(s.stop for s in region), ndim]
        rk = np.array([0.3 / (2 * ndim)])
        tier._fns["diffuse"][0](*map(_address, (np.array(g, np.int64), src, src, rk, rk, got, got)))
        ok = ok and np.array_equal(got, want)
    keep, floor, at = np.array([0.98]), np.array([1e-5]), 1e-5 / 0.98
    scratch, got = np.nextafter(at, [0.0, at, 1.0]), np.ones(3)
    want = np.where(scratch * keep < floor, 0.0, scratch * keep)
    g = np.array([1, 1, 1, 3, 0, 0, 0, 0, 1, 1, 1, 3, 2], dtype=np.int64)
    args = (g, got.copy(), got, keep, keep, floor, scratch, scratch)
    tier._fns["commit"][0](*map(_address, args))
    return bool(ok) and np.array_equal(got, want)


def _build(compiler: str | None, path: Path) -> float:
    """Compile to a temp name beside ``path``, move it there; the seconds."""
    if compiler is None:
        raise RuntimeError("no C compiler (cc / gcc) on PATH")
    start = perf_counter()
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", str(tmp), str(SOURCE)],
                              capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {done.stderr.strip()[-500:]}")
        tmp.chmod(0o700)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return perf_counter() - start


def _resolve() -> tuple[Tier | None, dict]:
    """Build (unless the cache holds this source's library), load, probe."""
    info = {"enabled": False, "path": None, "build_seconds": 0.0, "reason": None,
            "compiler": shutil.which("cc") or shutil.which("gcc")}
    try:
        if os.environ.get("REPRO_NATIVE") == "0":
            raise RuntimeError("REPRO_NATIVE=0")
        named = f"{FLAGS} {os.uname().machine}".encode() + SOURCE.read_bytes()
        name = f"repro-native-{hashlib.sha256(named).hexdigest()[:16]}.so"
        info["path"] = str(path := _private(_cache_dir()) / name)
        if not path.exists():
            info["build_seconds"] = _build(info["compiler"], path)
        tier = Tier(str(_private(path)))
        if not _probe_agrees(tier):
            raise RuntimeError(f"{path} disagrees with the numpy bodies")
    except Exception as err:  # whatever went wrong, the numpy path remains
        info["reason"] = f"{type(err).__name__}: {err}"
        return None, info
    info["enabled"] = True
    return tier, info


def tier() -> Tier | None:
    """The process's compiled tier, or None; resolved at the first call."""
    global _resolved
    if _resolved is None:  # no lock once resolved: nothing to inherit held across a fork
        with _lock:
            _resolved = _resolved or _resolve()
    return _resolved[0]


def status() -> dict:
    """``enabled``, ``path``, ``build_seconds``, ``reason``, ``compiler``."""
    tier()
    return dict(_resolved[1])


if __name__ == "__main__":
    print("\n".join(f"{k}: {v}" for k, v in {**status(), "entry_points": [*_NARGS]}.items()))
    sys.exit(0 if status()["enabled"] or not status()["compiler"] else 1)
