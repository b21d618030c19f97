"""Tests for the reference replay loop's cluster ledger and placement.

:mod:`oracles.cluster` and :mod:`oracles.placement` back the per-job
oracle the simulator's parity suite compares against, so their
accounting is pinned here on its own.
"""

import numpy as np
import pytest

from oracles.cluster import ClusterState, VCState
from oracles.placement import can_place, consolidate_place
from repro.traces import ClusterSpec, VCSpec


@pytest.fixture
def vc():
    return VCState("vcA", node_ids=np.arange(4), gpus_per_node=8)


@pytest.fixture
def spec():
    return ClusterSpec(
        name="T",
        gpus_per_node=8,
        vcs=(
            VCSpec("vcA", num_nodes=4, gpus_per_node=8),
            VCSpec("vcB", num_nodes=2, gpus_per_node=8),
        ),
    )


class TestVCState:
    def test_initial(self, vc):
        assert vc.total_gpus == 32
        assert vc.free_gpus == 32
        assert vc.busy_gpus == 0

    def test_take_release_roundtrip(self, vc):
        alloc = vc.take(np.array([0, 1]), np.array([8, 4]))
        assert vc.free_gpus == 20
        assert alloc.total_gpus == 12
        vc.release(alloc)
        assert vc.free_gpus == 32

    def test_overallocation_raises(self, vc):
        vc.take(np.array([0]), np.array([8]))
        with pytest.raises(RuntimeError, match="over-allocation"):
            vc.take(np.array([0]), np.array([1]))

    def test_double_free_raises(self, vc):
        alloc = vc.take(np.array([0]), np.array([4]))
        vc.release(alloc)
        with pytest.raises(RuntimeError, match="double free"):
            vc.release(alloc)


class TestClusterState:
    def test_global_node_index_space(self, spec):
        state = ClusterState(spec)
        a = state.vc("vcA")
        b = state.vc("vcB")
        assert set(a.node_ids) & set(b.node_ids) == set()
        assert state.num_nodes == 6
        assert state.total_gpus == 48

    def test_unknown_vc(self, spec):
        with pytest.raises(KeyError):
            ClusterState(spec).vc("nope")

    def test_utilization(self, spec):
        state = ClusterState(spec)
        assert state.utilization() == 0.0
        state.vc("vcA").take(np.array([0]), np.array([8]))
        assert state.utilization() == pytest.approx(8 / 48)


class TestConsolidatePlacement:
    def test_small_job_best_fit(self, vc):
        vc.take(np.array([0]), np.array([6]))  # node 0 has 2 free
        placed = consolidate_place(vc, 2)
        nodes, gpus = placed
        assert nodes.tolist() == [0]  # best fit picks the tightest node
        assert gpus.tolist() == [2]

    def test_whole_node_job(self, vc):
        placed = consolidate_place(vc, 8)
        nodes, gpus = placed
        assert len(nodes) == 1 and gpus.tolist() == [8]

    def test_multi_node_job(self, vc):
        placed = consolidate_place(vc, 24)
        nodes, gpus = placed
        assert len(nodes) == 3
        assert gpus.sum() == 24

    def test_multi_node_with_remainder(self, vc):
        placed = consolidate_place(vc, 12)
        nodes, gpus = placed
        assert sorted(gpus.tolist()) == [4, 8]

    def test_requires_fully_free_nodes(self, vc):
        """A 16-GPU job needs two nodes with 8 idle GPUs (§4.2.2)."""
        for i in range(4):
            vc.take(np.array([i]), np.array([1]))  # 7 free everywhere
        assert consolidate_place(vc, 16) is None
        assert can_place(vc, 7)

    def test_fragmentation_blocks(self, vc):
        vc.take(np.array([0, 1, 2, 3]), np.array([4, 4, 4, 4]))
        # 16 free GPUs total but no node has more than 4 free.
        assert consolidate_place(vc, 8) is None
        assert consolidate_place(vc, 4) is not None

    def test_zero_gpus_invalid(self, vc):
        with pytest.raises(ValueError):
            consolidate_place(vc, 0)

    def test_remainder_excludes_full_nodes(self, vc):
        """The remainder may not land on a node already used fully."""
        placed = consolidate_place(vc, 9)
        nodes, gpus = placed
        assert len(set(nodes.tolist())) == len(nodes)
        assert sorted(gpus.tolist()) == [1, 8]

    def test_conservation_property(self, vc):
        """Allocating then releasing any feasible series is lossless."""
        rng = np.random.default_rng(0)
        allocations = []
        for _ in range(50):
            g = int(rng.integers(1, 20))
            placed = consolidate_place(vc, g)
            if placed is not None:
                allocations.append(vc.take(*placed))
            elif allocations:
                vc.release(allocations.pop(rng.integers(len(allocations))))
        for a in allocations:
            vc.release(a)
        assert vc.free_gpus == vc.total_gpus
