"""Neither tier of the per-voxel kernels may vanish silently.

Where a C compiler is installed the compiled tier must come up (a broken
build fails here, not as a quietly halved throughput), ``REPRO_NATIVE=0``
must really run the numpy bodies and give the golden traces, and every way
the loader can miss — a damaged cache file, a cache directory someone else
may write, a probe that disagrees — must end in the numpy path with a
reason in ``status()``, never in an exception out of a kernel.
"""

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

from repro.core import kernels, native
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.engine.engine import StepEngine
from repro.engine.sequential import SequentialBackend
from repro.grid.spec import GridSpec
from repro.obs.registry import MetricsRegistry
from repro.rng.philox import NATIVE_FROM, counter_hash
from repro.rng.streams import VoxelRNG
from repro.testing import repo_root, subprocess_env

COMPILER = shutil.which("cc") or shutil.which("gcc")
SWITCHED_OFF = os.environ.get("REPRO_NATIVE") == "0"
needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no cc / gcc on PATH")

GOLDEN_UNDER_NUMPY = """
import json
from repro.core import native
from repro.core.model import SequentialSimCov
from repro.engine.ensemble import EnsembleSimCov
from tests.golden.test_golden_traces import TRACES, assert_exact, load_trace, make_params

for name in TRACES:
    config, golden = load_trace(name)
    params, seed, steps = make_params(config), config["seed"], config["steps"]
    solo = SequentialSimCov(params, seed=seed)
    solo.run(steps)
    assert_exact(solo.series, golden, f"{name}/sequential")
    batch = EnsembleSimCov(params, seeds=[seed, seed + 1])
    batch.run(steps)
    assert_exact(batch.member_series[0], golden, f"{name}/ensemble member 0")
print(json.dumps(native.status()))
"""


def run_python(*args, **env):
    return subprocess.run(
        [sys.executable, *args], env=subprocess_env({**os.environ, **env}),
        cwd=repo_root(), capture_output=True, text=True, timeout=300,
    )


def small_world():
    params = SimCovParams.fast_test(dim=(6, 6), num_infections=1)
    spec = GridSpec(params.dim)
    block = VoxelBlock(spec, spec.domain)
    block.virions[block.interior] = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    return params, block


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader as a new process finds it, over an empty private cache;
    the session's own tier comes back afterwards."""
    monkeypatch.setattr(native, "_resolved", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return tmp_path / "repro" / "native"


def built_by_another_process(cache_home) -> str:
    """Path of a library a child built into ``cache_home``: this process
    has not mapped it, so the test may damage the file."""
    done = run_python("-m", "repro.core.native", XDG_CACHE_HOME=str(cache_home),
                      REPRO_NATIVE="1")
    assert done.returncode == 0, done
    (name,) = os.listdir(cache_home / "repro" / "native")
    return str(cache_home / "repro" / "native" / name)


def assert_numpy_path_with_reason(fragment: str):
    status = native.status()
    assert not status["enabled"] and fragment in status["reason"], status
    assert native.tier() is None
    # ... and the kernels run all the same.
    params, block = small_world()
    scratch = np.zeros_like(block.virions), np.zeros_like(block.chemokine)
    kernels.mirror_fields(block)
    kernels.concentration_update(params, block, block.interior, *scratch)
    assert scratch[0][block.interior].sum() > 0


# -- the tier is there --------------------------------------------------------------

@needs_compiler
def test_the_tier_is_on_wherever_there_is_a_compiler():
    status = native.status()
    if SWITCHED_OFF:
        assert not status["enabled"] and status["reason"].endswith("REPRO_NATIVE=0")
    else:
        assert status["enabled"] and status["reason"] is None, status
        assert native.tier() is not None
        assert os.path.exists(status["path"]) and status["compiler"] == COMPILER


@needs_compiler
def test_a_cold_cache_is_built_once_and_then_hit(fresh_loader, monkeypatch):
    first = native.status()
    assert first["enabled"] and first["build_seconds"] > 0, first
    assert os.listdir(fresh_loader) == [os.path.basename(first["path"])]
    assert os.stat(first["path"]).st_mode & 0o777 == 0o700
    assert os.stat(fresh_loader).st_mode & 0o777 == 0o700
    monkeypatch.setattr(native, "_resolved", None)
    again = native.status()
    assert again["enabled"] and again["build_seconds"] == 0.0
    assert again["path"] == first["path"]


@needs_compiler
def test_two_processes_on_an_empty_cache_both_get_a_library(tmp_path):
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.core.native"],
            env=subprocess_env({**os.environ, "XDG_CACHE_HOME": str(tmp_path),
                                "REPRO_NATIVE": "1"}),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (out, err)
        assert "enabled: True" in out
    left = os.listdir(tmp_path / "repro" / "native")
    assert len(left) == 1 and left[0].endswith(".so"), left


# -- the kill-switch ----------------------------------------------------------------

def test_switched_off_reproduces_the_golden_traces():
    done = run_python("-c", GOLDEN_UNDER_NUMPY, REPRO_NATIVE="0")
    assert done.returncode == 0, done.stderr
    status = json.loads(done.stdout.strip().splitlines()[-1])
    assert status["enabled"] is False and status["reason"].endswith("REPRO_NATIVE=0")
    assert status["build_seconds"] == 0.0


@needs_compiler
def test_module_entry_point_reports_and_exits_by_the_tier(tmp_path):
    on = run_python("-m", "repro.core.native", XDG_CACHE_HOME=str(tmp_path), REPRO_NATIVE="1")
    assert on.returncode == 0 and "enabled: True" in on.stdout, on
    for key in ("path:", "build_seconds:", "reason:", "compiler:"):
        assert key in on.stdout
    off = run_python("-m", "repro.core.native", REPRO_NATIVE="0")
    assert off.returncode == 1 and "REPRO_NATIVE=0" in off.stdout, off


# -- every miss ends in the numpy path ---------------------------------------------

@needs_compiler
def test_truncated_cache_file(fresh_loader, tmp_path):
    path = built_by_another_process(tmp_path)
    with open(path, "r+b") as f:
        f.truncate(100)
    assert_numpy_path_with_reason(os.path.basename(path))


def test_group_writable_cache_directory(fresh_loader):
    fresh_loader.mkdir(parents=True)
    fresh_loader.chmod(0o770)
    assert_numpy_path_with_reason("group/world-writable")
    assert os.listdir(fresh_loader) == []


@needs_compiler
def test_group_writable_cache_file(fresh_loader, tmp_path):
    os.chmod(built_by_another_process(tmp_path), 0o720)
    assert_numpy_path_with_reason("group/world-writable")


@needs_compiler
def test_failed_probe(fresh_loader, monkeypatch):
    monkeypatch.setattr(native, "_probe_agrees", lambda tier: False)
    assert_numpy_path_with_reason("disagrees with the numpy bodies")


def test_no_compiler(fresh_loader, monkeypatch):
    monkeypatch.setenv("PATH", str(fresh_loader.parent))
    assert_numpy_path_with_reason("no C compiler")


@needs_compiler
def test_failed_build(fresh_loader, monkeypatch, tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    assert_numpy_path_with_reason("build failed")
    assert os.listdir(fresh_loader) == []  # no temp file left behind


def test_uncreatable_cache_falls_back_to_the_temp_directory(fresh_loader, monkeypatch, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    fallback = tmp_path / "tmp"
    fallback.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(native.tempfile, "tempdir", str(fallback))
    assert native._cache_dir() == fallback / f"repro-native-{os.getuid()}"
    assert os.stat(native._cache_dir()).st_mode & 0o777 == 0o700


# -- what C is handed is checked first ----------------------------------------------

@pytest.fixture
def compiled():
    if (tier := native.tier()) is None:
        pytest.skip(f"no compiled tier: {native.status()['reason']}")
    return tier


def test_regions_and_buffers_are_validated_before_any_pointer_is_passed(compiled):
    params, block = small_world()
    good = np.zeros_like(block.virions), np.zeros_like(block.chemokine)
    whole = tuple(slice(0, n) for n in block.shape)
    with pytest.raises(ValueError, match="of the edge"):  # would read outside the array
        kernels.concentration_update(params, block, whole, *good)
    with pytest.raises(ValueError, match="strided"):
        kernels.tcell_age(block, (slice(1, 7, 2), slice(1, 7)))
    with pytest.raises(ValueError):  # one slice too few
        kernels.tcell_age(block, block.interior[:1])
    with pytest.raises(ValueError, match="distinct"):
        kernels.concentration_update(params, block, block.interior, block.virions, good[1])
    for bad in (good[0].astype(np.float32), np.zeros((9, 9)), np.zeros((8, 16))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.concentration_update(params, block, block.interior, bad, good[1])
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.concentration_commit(params, block, [block.interior], good[0], bad)
    block.epi_timer = block.epi_timer.astype(np.int64)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.epithelial_update(params, VoxelRNG(3), 0, block, block.interior)


def test_addresses_of_arrays_the_buffer_protocol_refuses(compiled, tier):
    """Read-only and empty arrays take the slow way to the same address,
    and hash to the same words on both tiers."""
    frozen = np.arange(2 * NATIVE_FROM)
    frozen.flags.writeable = False
    empty = np.empty((2, 0), dtype=np.int64)
    for arr in (np.zeros((3, 4)), frozen, np.empty(0), empty):
        assert native._address(arr) == arr.ctypes.data
    want = counter_hash(np.full(frozen.shape, 5), 1, 2, frozen)  # array seeds: the numpy path
    assert np.array_equal(counter_hash(5, 1, 2, frozen), want)
    prefix = np.array([7], dtype=np.uint64)
    assert compiled.hash_keys(prefix, empty).shape == (2, 0)
    assert compiled.hash_keys(prefix, empty, member=empty).shape == (2, 0)


def test_small_calls_hold_the_gil_and_large_ones_drop_it(compiled, monkeypatch):
    held, dropped = compiled._libs
    assert isinstance(held, ctypes.PyDLL) and not isinstance(dropped, ctypes.PyDLL)
    used = []

    class Spy:
        def __init__(self, fn, tag):
            self.fn, self.tag = fn, tag

        def __call__(self, *args):
            used.append(self.tag)
            return self.fn(*args)

        def __getattr__(self, name):
            return getattr(self.fn, name)

    # The entry points a block binds (and the hash calls) are the spies.
    monkeypatch.setattr(compiled, "_fns", {
        name: (Spy(held_fn, "held"), Spy(dropped_fn, "dropped"))
        for name, (held_fn, dropped_fn) in compiled._fns.items()
    })
    for dim, want in (((127, 128), "held"), ((128, 128), "dropped")):
        spec = GridSpec(dim)
        block = VoxelBlock(spec, spec.domain)
        kernels.tcell_age(block, block.interior)
        counter_hash(1, 2, 3, np.arange(block.owned.size))
        assert used == [want, want], (dim, used)
        used.clear()
    assert 128 * 128 == native._DROP_GIL_FROM


# -- observability --------------------------------------------------------------------

def test_engine_reports_the_tier_at_its_first_step_not_before(monkeypatch):
    monkeypatch.setattr(native, "_resolved", None)
    registry = MetricsRegistry()
    params = SimCovParams.fast_test(dim=(8, 8), num_infections=1, num_steps=2)
    engine = StepEngine(SequentialBackend(params, seed=1), registry=registry)
    # Construction draws (seeding) stay below the hash's NATIVE_FROM: building
    # and loading the tier is the first step's business, not set-up's.
    assert native._resolved is None

    def gauges():
        snap = registry.snapshot()
        return tuple(
            snap[name]["series"][0]["value"] if snap[name]["series"] else None
            for name in ("simcov_native_tier", "simcov_native_build_seconds")
        )

    assert gauges() in ((None, None), (0.0, 0.0))
    engine.step()
    status = native.status()
    assert gauges() == (float(status["enabled"]), status["build_seconds"])


NUMPY_PINNED_FIRST_STEP = """
import pytest
from repro.core import native
from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.testing import use_tier

params = SimCovParams.fast_test(dim=(8, 8), num_infections=1, num_steps=2)
with pytest.MonkeyPatch.context() as mp:
    use_tier("numpy", mp)
    sim = SequentialSimCov(params, seed=1)
    assert native._resolved is None
    sim.run(2)
print(sorted(native.status()))
"""


def test_a_numpy_pinned_step_may_be_the_first_tier_use():
    """The engine's first step reads ``native.status()``: with ``tier``
    patched to None before the tier was ever resolved in the process,
    ``status`` resolves it itself rather than indexing nothing."""
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PINNED_FIRST_STEP],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "enabled" in done.stdout


# -- the binding: built once per block, rebuilt when the block moves ------------------

def digest(sim) -> str:
    """Every statistic of every step, then every field of the final state."""
    from repro.io.checkpoint import snapshot_state

    h = hashlib.sha256(np.array([astuple(s) for s in sim.series], dtype=np.float64).tobytes())
    for name, arr in sorted(snapshot_state(sim)["arrays"].items()):
        h.update(name.encode() + np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def small_2d(dim=(16, 16), seed=11, steps=30):
    """A serve-sized run (``small_2d``: 2 FOI), not yet stepped."""
    from repro.core.model import SequentialSimCov

    params = SimCovParams.fast_test(dim=dim, num_infections=2, num_steps=steps)
    return SequentialSimCov(params, seed=seed)


def test_a_region_list_joins_the_found_vectors_in_region_order(compiled):
    """A call over a list of regions returns every region's found vectors,
    not only the last one's: those of the whole region, split in two."""
    params = SimCovParams.fast_test(dim=(8, 8), num_infections=1)
    spec = GridSpec(params.dim)
    whole = VoxelBlock(spec, spec.domain)
    whole.virions[whole.interior] = 1.0  # every healthy cell is exposed
    whole.epi_state[2:8:2, 1:9] = EpiState.INCUBATING  # and expressing next, in both halves
    whole.epi_timer[2:8:2, 1:9] = 1
    split = VoxelBlock.from_arrays(spec, spec.domain, {
        name: getattr(whole, name).copy() for name in VoxelBlock.FIELD_DTYPES
    }, fresh=False)
    top, bottom = (slice(1, 5), slice(1, 9)), (slice(5, 9), slice(1, 9))
    want = compiled.epithelial(params, VoxelRNG(4), 3, whole, whole.interior)
    got = compiled.epithelial(params, VoxelRNG(4), 3, split, [top, bottom])
    assert all(len(w) and (w < 5 * 10).any() and (w >= 5 * 10).any() for w in want)
    for w, g in zip(want, got, strict=True):
        assert np.array_equal(w, g)
    assert all(np.array_equal(getattr(whole, n), getattr(split, n)) for n in VoxelBlock.FIELD_DTYPES)


@pytest.mark.parametrize("replace", ["a field", "the storage"])
def test_a_block_whose_field_moved_is_read_where_it_now_is(replace):
    """After a block's first native call its binding points at its fields;
    a field replaced afterwards (or a block built on new storage) must be
    the one the next call reads and writes — on either tier."""
    params, block = small_world()
    block.epi_state[block.interior] = EpiState.EXPRESSING
    kernels.production_update(params, block, block.interior, step=0)  # binds
    old = block.virions
    if replace == "a field":
        block.virions = np.zeros_like(old)
    else:
        arrays = {name: getattr(block, name).copy() for name in VoxelBlock.FIELD_DTYPES}
        arrays["virions"][...] = 0.0
        block = VoxelBlock.from_arrays(block.spec, block.owned, arrays, fresh=False)
    kept = old.copy()
    kernels.production_update(params, block, block.interior, step=0)
    assert np.array_equal(old, kept)  # the old storage is left alone ...
    want = np.minimum(1.0, params.virion_production_at(0))
    assert (block.virions[block.interior] == want).all()  # ... and the new one written


@pytest.mark.parametrize("dim", [(16, 16), (128, 128)], ids=["gil-held", "gil-dropped"])
def test_two_sims_stepped_at_once_are_each_their_solo_run(dim):
    """Serve's two worker slots: two sims stepped in two threads at the same
    time, each bitwise its solo run — below 2^14 voxels every call holds the
    GIL, from there on every whole-region call drops it."""
    steps = 30 if dim == (16, 16) else 12
    solo = []
    for seed in (11, 12):
        sim = small_2d(dim, seed, steps)
        sim.run(steps)
        solo.append(digest(sim))
    sims = [small_2d(dim, seed, steps) for seed in (11, 12)]
    start = threading.Barrier(2)

    def run(sim):
        start.wait()
        for _ in range(steps):
            sim.step()

    threads = [threading.Thread(target=run, args=(sim,)) for sim in sims]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [digest(sim) for sim in sims] == solo


def test_a_snapshot_restored_into_a_stepped_sim_steps_on_bitwise():
    """A restore writes into the bound fields in place: the binding stays
    right, and the resumed run is the uninterrupted one."""
    from repro.io.checkpoint import restore_state, snapshot_state

    straight = small_2d(steps=40)
    straight.run(40)
    sim = small_2d(steps=40)
    sim.run(15)
    snapshot = snapshot_state(sim)
    sim.run(12)  # stepped on past the snapshot, every entry point bound
    restore_state(sim, snapshot)
    sim.series.truncate(15)  # as a rollback does: the replayed steps re-append
    sim.run(25)
    assert digest(sim) == digest(straight)
