"""The two §3.3 statistics reductions, as counted work.

SIMCoV-GPU's unoptimized prototype accumulates each statistic with one
atomic per element on a single address; the fast-reduction prototype runs
a shared-memory tree per thread block and issues one atomic per block.
"""

import pytest

from repro.perf.work import reduction_work


class TestAtomicReduce:
    def test_value_and_maximal_conflicts(self):
        work = reduction_work(1000, tree=False)
        assert work.atomic_ops == 1000
        assert work.atomic_conflicts == 999  # every op hits one address
        assert work.reduce_tree_elems == 0


class TestTreeReduce:
    def test_block_accounting(self):
        work = reduction_work(1000, tree=True, block_size=256)
        assert work.reduce_tree_elems == 1000
        assert work.atomic_ops == 4  # one per block: ceil(1000/256)
        assert work.atomic_conflicts == 3

    def test_far_fewer_atomics_than_atomic_reduce(self):
        """The §3.3 claim in counter form."""
        tree = reduction_work(100_000, tree=True)
        atomic = reduction_work(100_000, tree=False)
        assert tree.atomic_ops < atomic.atomic_ops / 100

    def test_empty_input(self):
        for tree in (False, True):
            work = reduction_work(0, tree=tree)
            assert (work.atomic_ops, work.atomic_conflicts) == (0, 0)
            assert work.reduce_tree_elems == 0

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            reduction_work(10, tree=True, block_size=100)
