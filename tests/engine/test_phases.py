"""The two schedules that run, checked once here.

A schedule is an ordered tuple of phase names, each run as its backend's
``phase_<name>``, and a name with no handler counts as a skip: a misspelt
name would be skipped on every step and nothing would raise.  So these
tests check what a schedule validator would, of the two schedules there
are: the single block's (solo and ensemble) and the dist rank's (which
its coordinator runs too).
"""

from repro.core.params import SimCovParams
from repro.dist.backend import DistBackend
from repro.dist.worker import RankBackend, dist_schedule
from repro.engine import EnsembleBackend, Phase, SequentialBackend

KERNEL_PHASES = (
    "age_extravasate", "intents", "resolve", "epithelial", "diffuse", "reduce",
)


def names(schedule) -> tuple[str, ...]:
    return tuple(phase.name for phase in schedule)


def schedules() -> dict:
    """Each backend class that runs a whole step, with its schedule (the
    ensemble's is the single block's method: ``test_ensemble.py``'s
    ``TestOneImplementation``)."""
    params = SimCovParams.fast_test(dim=(8, 8), num_infections=1, num_steps=1)
    single = SequentialBackend(params, seed=1).schedule()
    return {SequentialBackend: single, EnsembleBackend: single, RankBackend: dist_schedule()}


def handled(cls, schedule) -> set[str]:
    return {name for name in names(schedule) if callable(getattr(cls, f"phase_{name}", None))}


class TestPhaseConstruction:
    def test_a_phase_is_its_name(self):
        """What the engine and a traced run read of a phase is its name."""
        assert Phase("reduce").name == "reduce"
        assert Phase._fields == ("name",)
        for schedule in schedules().values():
            assert isinstance(schedule, tuple)
            assert all(type(phase) is Phase for phase in schedule)


class TestValidateSchedule:
    def test_minimal_schedule_valid(self):
        found = {cls.__name__: names(s) for cls, s in schedules().items()}
        assert found == {
            "SequentialBackend": KERNEL_PHASES + ("tile_sweep",),
            "EnsembleBackend": KERNEL_PHASES + ("tile_sweep",),
            "RankBackend": ("open_exchange",) + KERNEL_PHASES,
        }

    def test_unknown_phase(self):
        """Every name a backend schedules is one it has a body for."""
        for cls, schedule in schedules().items():
            assert handled(cls, schedule) == set(names(schedule)), cls.__name__

    def test_kind_mismatch(self):
        """The exchange is the ranks' alone: of the rank's schedule the
        coordinator runs only ``reduce``, and skips the pull and the kernel
        phases, which its ranks run behind the same names."""
        assert handled(DistBackend, dist_schedule()) == {"reduce"}
        assert not hasattr(SequentialBackend, "phase_open_exchange")

    def test_duplicate_phase(self):
        """A phase is one row of the metrics table, keyed by its name."""
        for schedule in schedules().values():
            assert len(set(names(schedule))) == len(schedule)

    def test_missing_required_phase(self):
        for schedule in schedules().values():
            assert set(KERNEL_PHASES) <= set(names(schedule))

    def test_out_of_canonical_order(self):
        """Both schedules run the kernel phases in one order: the rank's
        pull comes before them, the single block's sweep after."""
        for schedule in schedules().values():
            kernel_order = [n for n in names(schedule) if n in KERNEL_PHASES]
            assert tuple(kernel_order) == KERNEL_PHASES
