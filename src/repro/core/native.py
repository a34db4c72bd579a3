"""The compiled tier: ``_native.c`` built by the C compiler on the box at the first native
call (never at import), cached per user, loaded with ``ctypes``, reached only through
``xp.native`` (DESIGN.md §4 "The compiled tier").  No compiler, a cache someone else may
write, a failed build or probe, and ``REPRO_NATIVE=0`` all end in ``None`` with a reason in
:func:`status` (which ``python -m repro.core.native`` prints), never in an exception: the
numpy bodies are then the only path.  :class:`Tier` is the one place that marshals."""

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
from repro.core.stats import N_COUNTS, _lead
from repro.diffusion.stencil import diffuse_region, kept_fraction
from repro.rng.philox import _as_u64, _fold_keys
from repro.rng.streams import Stream

SOURCE = Path(__file__).with_name("_native.c")
#: Adds and multiplies round, and int32 wraps, where numpy's do (DESIGN.md §4).
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11", "-ffp-contract=off", "-fno-fast-math", "-fwrapv")
#: Every function in ``_native.c`` returns void and takes this many pointers.
_NARGS = {"hash_keys": 5, "epithelial": 10, "production": 6, "diffuse": 7,
          "commit": 8, "tcell_age": 4, "region_counts": 4, "tcell_intents": 13,
          "compute_moves": 10, "resolve_binds": 10, "activity": 8, "sweep_window": 5}
_lock, _resolved = threading.Lock(), None  # tier()'s once-per-process result
#: A call drops the GIL from this many voxels or keys, no sooner (DESIGN.md §4: serve_mix).
_DROP_GIL_FROM = 1 << 14


def _address(a: np.ndarray) -> int:
    """Where ``a`` starts: ``.ctypes.data`` is 4x slower than the buffer protocol,
    which refuses read-only and empty arrays."""
    if a.size and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _call(fn, *args):
    """``fn`` with every ndarray passed by address; ``args`` keeps them alive."""
    return fn(*[_address(a) if isinstance(a, np.ndarray) else a for a in args])


def _checked(arr, dtype, shape):
    if arr.shape != shape or arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(f"need C-contiguous {np.dtype(dtype)}{shape}, got {arr.dtype}{arr.shape}")
    return arr


@functools.lru_cache(maxsize=256)  # a gate region lasts a sweep period, eight calls a step
def _geometry(shape, ndim: int, bounds, margin: int):
    """``int64[13]`` — ``shape`` as ``(B, Z, Y, X)``, the region's bounds in it (``bounds``: each
    slice's start, stop, step), ``ndim`` — and the region's volume; ``margin``: how far beyond
    the region the kernel reads in space."""
    dims = [(n, *slice(*b).indices(n)) for b, n in zip(bounds, shape, strict=True)]
    if any(step != 1 for *_, step in dims) or any(
        lo < hi and (lo < margin or hi > n - margin) for n, lo, hi, _ in dims[-ndim:]
    ):
        raise ValueError(f"region {bounds}: strided, or within {margin} of the edge")
    dims = (dims[:-ndim] or [(1, 0, 1)]) + [(1, 0, 1)] * (3 - ndim) + dims[-ndim:]
    g = np.array([d[i] for i in range(3) for d in dims] + [ndim], dtype=np.int64)
    return g, int(np.maximum(g[8:12] - g[4:8], 0).prod())


class Tier:
    """Each method takes its numpy reference's arguments and leaves its bits."""

    def __init__(self, path: str):
        self._libs = ctypes.PyDLL(path), ctypes.CDLL(path)  # a call holds / drops the GIL
        for fn in [getattr(lib, name) for lib in self._libs for name in _NARGS]:
            fn.restype, fn.argtypes = None, (ctypes.c_void_p,) * _NARGS[fn.__name__]
        self._local = threading.local()  # a thread's buffer for the found vectors, kept

    def _run(self, name, block, region, fields, params=(), *rest, margin=0, found=0):
        """A C pass over ``region`` or each of a list: geometry, fields, params as ``float64[B]``,
        ``rest``, then ``found`` int64 vectors sized by the region and their lengths: those, cut."""
        dtypes, batch = block.FIELD_DTYPES, (_lead(block) or (1,))[0]
        args = [*[_checked(getattr(block, f), dtypes[f], block.shape) for f in fields],
                *[np.full(batch, np.reshape(p, -1), np.float64) for p in params], *rest]
        for region in region if isinstance(region, list) else (region,):
            bounds = tuple((s.start, s.stop, s.step) for s in region)
            g, volume = _geometry(block.shape, block.spec.ndim, bounds, margin)
            if found * volume > len(getattr(self._local, "out", ())):  # unzeroed (DESIGN.md §4)
                self._local.out = np.empty(found * block.epi_state.size, np.int64)
            out = self._local.out[:found * volume].reshape(found, volume) if found else ()
            n = np.zeros(found, np.int64)
            _call(getattr(self._libs[volume >= _DROP_GIL_FROM], name), g, *args, *out, *[n][:found])
        return [o[:k].copy() for o, k in zip(out, n)]

    def hash_keys(self, prefix, keys, member=None) -> np.ndarray:
        """:func:`repro.rng.philox.hash_keys`."""
        k = np.ascontiguousarray(_as_u64(keys))
        out = np.empty(k.shape, dtype=np.uint64)
        member = None if member is None else np.ascontiguousarray(member, np.int64).reshape(k.shape)
        counts = np.array([len(_checked(prefix, np.uint64, (len(prefix),))), k.size, 0], np.int64)
        _call(self._libs[k.size >= _DROP_GIL_FROM].hash_keys, prefix, member, k, out, counts)
        if counts[2]:
            raise IndexError(f"member index outside 0..{len(prefix) - 1}")
        return out.reshape(np.shape(keys))

    def _keyed(self, block, rng, step, *streams):
        """The spatial gids, and each of ``streams``' member prefixes in turn."""
        prefix = np.concatenate([rng.prefixes(stream, step) for stream in streams])
        return (_checked(block.gid_spatial, np.int64, block.shape[-block.spec.ndim:]),
                _checked(prefix, np.uint64, (len(streams) * (_lead(block) or (1,))[0],)))

    def epithelial(self, params, rng, step, block, region):
        """``epithelial_update`` less its Poisson draws: returns the flat indices of the newly
        infected and of the incubating -> expressing cells, whose timers the caller draws."""
        return self._run("epithelial", block, region, ("epi_state", "epi_timer", "virions"), (
            params.infectivity,), *self._keyed(block, rng, step, Stream.INFECTION), found=2)

    def production(self, params, block, region, step) -> None:
        rates = (params.virion_production_at(step), params.chemokine_production)
        self._run("production", block, region, ("epi_state", "virions", "chemokine"), rates)

    def diffuse(self, params, block, region, sv, sc) -> None:
        k = 2 * block.spec.ndim
        rates = (params.virion_diffusion / k, params.chemokine_diffusion / k)
        for src, dst in ((block.virions, sv), (block.chemokine, sc)):
            if np.may_share_memory(src, _checked(dst, np.float64, block.shape)):
                raise ValueError("diffusion requires distinct src/dst buffers")
        self._run("diffuse", block, region, ("virions", "chemokine"), rates, sv, sc, margin=1)

    def commit(self, params, block, regions, sv, sc, step) -> None:
        scratch = [_checked(s, np.float64, block.shape) for s in (sv, sc)]
        rates = (kept_fraction(params.virion_clearance_at(step)),
                 kept_fraction(params.chemokine_decay), params.min_chemokine)
        self._run("commit", block, list(regions), ("virions", "chemokine"), rates, *scratch)

    def _agents(self, name, block, intents, region, fields, params, names, *rest, **kw):
        """An agent pass: ``intents``' fields ``names`` and the flat bind stencil, then ``rest``."""
        boff = kernels._flat_layout(block.shape, block.spec.ndim, block.xp)[2]
        dtypes = kernels.IntentArrays.FIELD_DTYPES
        mine = [_checked(getattr(intents, n), dtypes[n], block.shape) for n in names]
        return self._run(name, block, region, fields, params, *mine, boff, *rest, margin=1, **kw)

    def tcell_intents(self, rng, step, block, intents, region) -> None:
        inside = _checked(block.in_domain_spatial, np.bool_, block.shape[-block.spec.ndim:])
        keyed = self._keyed(block, rng, step, Stream.TCELL_BID, Stream.TCELL_BIND_SELECT,
                            Stream.TCELL_DIRECTION)
        self._agents("tcell_intents", block, intents, region, ("tcell", "tcell_bound_time",
                     "epi_state"), (), kernels.IntentArrays.FIELD_DTYPES, *keyed, inside)

    def compute_moves(self, block, intents, region) -> kernels.MoveSet:
        moved_out, arriving, life = self._agents("compute_moves", block, intents, region, (
            "tcell_tissue_time",), (), ("move_dir", "bid_self", "move_bid"), found=3)
        return kernels.MoveSet(region, moved_out, arriving, life.astype(np.int32))

    def resolve_binds(self, params, block, intents, region) -> np.ndarray:
        """``resolve_binds`` less its Poisson draws: the bound cells' flat indices."""
        return self._agents("resolve_binds", block, intents, region, ("epi_state",
                            "tcell_bound_time"), (params.tcell_binding_period,),
                            ("bind_dir", "bid_self", "bind_bid"), found=1)[0]

    def tcell_age(self, block, region) -> None:
        self._run("tcell_age", block, region, ("tcell", "tcell_tissue_time", "tcell_bound_time"))

    def region_counts(self, block, region) -> np.ndarray:
        out = np.zeros(_lead(block) + (N_COUNTS,), dtype=np.int64)
        self._run("region_counts", block, region, ("epi_state", "tcell"), (), out)
        return out[region[0]] if _lead(block) else out

    def activity(self, block, regions, min_chemokine, raw, box) -> None:
        """``block._activity`` into ``raw`` over each region; ``box`` widened to their Trues."""
        self._run("activity", block, list(regions), ("epi_state", "virions", "chemokine", "tcell"),
                  (min_chemokine,), _checked(raw, bool, block.shape), _checked(box, np.int64, (6,)))

    def sweep_window(self, block, window, raw, tiles, mask, found) -> None:
        """The window pass (``tiles``: ``int64[4]``, see ``_native.c``): ``raw``, left as scratch,
        into ``mask[window]``; ``found``: each member's Trues, then the box bounding them."""
        raw, mask = (_checked(a, np.bool_, block.shape) for a in (raw, mask))
        self._run("sweep_window", block, window, (), (), raw, _checked(tiles, np.int64, (4,)), mask,
                  _checked(found, np.int64, ((_lead(block) or (1,))[0] + 6,)), margin=1)


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
        _call(tier._libs[0].diffuse, np.array(g, dtype=np.int64), src, src, rk, rk, got, got)
        ok = ok and np.array_equal(got, want)
    keep, floor, at = np.array([0.98]), np.array([1e-5]), 1e-5 / 0.98
    scratch, got = np.nextafter(at, [0.0, at, 1.0]), np.ones(3)
    want = np.where(scratch * keep < floor, 0.0, scratch * keep)
    g = np.array([1, 1, 1, 3, 0, 0, 0, 0, 1, 1, 1, 3, 2], dtype=np.int64)
    _call(tier._libs[0].commit, g, got.copy(), got, keep, keep, floor, scratch, scratch)
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
