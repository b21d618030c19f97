"""Runtime cluster state: per-VC node-level GPU accounting.

The object ledger of the per-job reference replay loop
(:mod:`oracles.sim`); the array-backed simulator keeps the same
counters in flat per-VC lists (:mod:`repro.sim.fast`).

Helios VCs are hard partitions — nodes belong to exactly one VC and jobs
never cross VCs (§2.1) — so each :class:`VCState` owns a disjoint slice
of globally-indexed nodes.  GPU allocation is exclusive (no sharing) and
gang-scheduled: a job acquires all its GPUs at once or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.cluster import ClusterSpec

__all__ = ["Allocation", "VCState", "ClusterState"]


@dataclass(frozen=True)
class Allocation:
    """GPUs held by one job: parallel arrays of node ids and GPU counts."""

    vc: str
    node_ids: np.ndarray  # global node indices
    gpus: np.ndarray      # GPUs taken on each node

    @property
    def total_gpus(self) -> int:
        return int(self.gpus.sum())

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


class VCState:
    """Free-GPU ledger for one VC's nodes.

    Besides the per-node ``free`` array, the state maintains incremental
    *free-level counters*: ``level_counts[l]`` is the number of nodes
    with exactly ``l`` free GPUs.  They turn the placement admission
    check ("are there ``k`` fully-idle nodes plus a best-fit node for
    the remainder?") into an O(gpus_per_node) counter lookup instead of
    an O(nodes) scan per attempt — the common case in a head-of-line
    event loop is a *failed* attempt, which now never touches ``free``.
    ``free_gpus`` is likewise an O(1) maintained total.
    """

    def __init__(self, name: str, node_ids: np.ndarray, gpus_per_node: int) -> None:
        self.name = name
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.gpus_per_node = gpus_per_node
        self.free = np.full(len(node_ids), gpus_per_node, dtype=np.int64)
        #: level_counts[l] == number of nodes with exactly l free GPUs
        self.level_counts = [0] * gpus_per_node + [len(node_ids)]
        self._free_gpus = len(node_ids) * gpus_per_node

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def free_gpus(self) -> int:
        return self._free_gpus

    @property
    def busy_gpus(self) -> int:
        return self.total_gpus - self.free_gpus

    def take(self, local_nodes: np.ndarray, gpus: np.ndarray) -> Allocation:
        """Claim GPUs on (distinct) local node indices; returns the
        allocation."""
        gpus = np.asarray(gpus, dtype=np.int64)
        if np.any(self.free[local_nodes] < gpus):
            raise RuntimeError(f"over-allocation in VC {self.name}")
        free = self.free
        counts = self.level_counts
        for i, g in zip(np.asarray(local_nodes).tolist(), gpus.tolist()):
            f = int(free[i])
            counts[f] -= 1
            counts[f - g] += 1
            free[i] = f - g
            self._free_gpus -= g
        return Allocation(
            vc=self.name,
            node_ids=self.node_ids[local_nodes].copy(),
            gpus=gpus.copy(),
        )

    def release(self, alloc: Allocation) -> None:
        """Return an allocation's GPUs to the free pool.

        GPUs released onto a *failed* node update its encoded free level
        only — the node stays blacklisted, its capacity out of the pool,
        until :meth:`restore_node` brings it back.
        """
        # Map global node ids back to local indices (VC nodes are few).
        local = np.searchsorted(self.node_ids, alloc.node_ids)
        if np.any(self.node_ids[local] != alloc.node_ids):
            raise RuntimeError("allocation does not belong to this VC")
        free = self.free
        counts = self.level_counts
        gpn = self.gpus_per_node
        for i, g in zip(local.tolist(), alloc.gpus.tolist()):
            f = int(free[i])
            if f < 0:
                # Down node: -1 - true_free encoding; just track the level.
                if (-1 - f) + g > gpn:
                    raise RuntimeError(f"double free in VC {self.name}")
                free[i] = f - g  # -1 - (true_free + g)
                continue
            if f + g > gpn:
                raise RuntimeError(f"double free in VC {self.name}")
            counts[f] -= 1
            counts[f + g] += 1
            free[i] = f + g
            self._free_gpus += g

    def fail_node(self, local: int) -> None:
        """Blacklist a node: no new placements; running jobs keep their
        GPUs and drain to completion.

        The node's free level is encoded as ``-1 - true_free`` so the
        placement scans (which match exact non-negative levels) can
        never pick it, and its free GPUs leave the counters/pool.
        """
        f = int(self.free[local])
        if f < 0:
            raise RuntimeError(
                f"node {int(self.node_ids[local])} in VC {self.name} is already down"
            )
        self.level_counts[f] -= 1
        self._free_gpus -= f
        self.free[local] = -1 - f

    def restore_node(self, local: int) -> None:
        """Bring a failed node back: its (possibly drained-into) free
        GPUs rejoin the counters and the pool."""
        encoded = int(self.free[local])
        if encoded >= 0:
            raise RuntimeError(
                f"node {int(self.node_ids[local])} in VC {self.name} is already up"
            )
        f = -1 - encoded
        self.level_counts[f] += 1
        self._free_gpus += f
        self.free[local] = f


class ClusterState:
    """All VC states of one cluster, with a global node index space."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.vcs: dict[str, VCState] = {}
        next_node = 0
        for vc in spec.vcs:
            ids = np.arange(next_node, next_node + vc.num_nodes)
            self.vcs[vc.name] = VCState(vc.name, ids, vc.gpus_per_node)
            next_node += vc.num_nodes
        self.num_nodes = next_node

    def vc(self, name: str) -> VCState:
        try:
            return self.vcs[name]
        except KeyError:
            raise KeyError(f"unknown VC {name!r}") from None

    @property
    def total_gpus(self) -> int:
        return sum(vc.total_gpus for vc in self.vcs.values())

    @property
    def busy_gpus(self) -> int:
        return sum(vc.busy_gpus for vc in self.vcs.values())

    def utilization(self) -> float:
        """Instantaneous cluster utilization = busy GPUs / total GPUs."""
        total = self.total_gpus
        return self.busy_gpus / total if total else 0.0
