"""Trace-driven discrete-event simulator.

Replays a job trace through a cluster under a scheduling policy,
following the paper's workflow: arrival → VC queue → gang-scheduled
placement → run to the recorded duration (completion/cancel/failure all
consume their logged runtime).  Preemption is supported only for the
SRTF oracle baseline; Helios itself does not preempt (§2.1).

Event loop invariants:

* every VC has an independent priority queue (VCQueue, §2.1) keyed by
  ``(priority, arrival_seq)`` — lower priority value runs first;
* scheduling is head-of-line: if the best-priority job does not fit,
  the VC waits (no backfill — the paper evaluates prediction alone);
* finishes are processed before arrivals at the same instant so freed
  resources are visible immediately.

The engine is the array-backed core in :mod:`repro.sim.fast`:
struct-of-arrays job state, integer-interned VCs, counter-gated O(1)
admission, a finish-only event heap, and preallocated telemetry
buffers.  Its correctness oracle, the original per-job object loop,
lives next to the tests (``tests/oracles/sim.py``); the parity suite
asserts byte-identical :class:`ReplayResult` payloads on all Helios
clusters plus Philly, preemptive SRTF included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..frame import Table
from ..obs import collect as obs
from ..traces.cluster import ClusterSpec
from .fast import replay_fast

__all__ = ["ReplayResult", "Simulator", "normalize_node_events"]


def normalize_node_events(spec: ClusterSpec, node_events) -> list[tuple[float, int, int, int]]:
    """Validate and order node down/up events against ``spec``.

    ``node_events`` is a Table-like with columns ``time`` / ``node``
    (global node id: the VCs' nodes numbered consecutively in spec
    order) / ``up`` (0 = down, 1 = up).  Returns ``(time, vc_index,
    local_node, up)`` tuples in stable time order.  The engine and its
    test-side oracle consume this one normalized form, so an invalid
    schedule (unknown node, non-finite time, broken per-node down/up
    alternation) raises the *identical* error in both — the property
    the parity fuzz asserts.
    """
    if node_events is None or len(node_events) == 0:
        return []
    times = np.asarray(node_events["time"], dtype=float)
    nodes = np.asarray(node_events["node"], dtype=np.int64)
    ups = np.asarray(node_events["up"], dtype=np.int64)
    if not (len(times) == len(nodes) == len(ups)):
        raise ValueError("node_events time/node/up columns must align")
    if not np.all(np.isfinite(times)):
        raise ValueError("node_events times must be finite")
    num_nodes = sum(vc.num_nodes for vc in spec.vcs)
    out_of_range = (nodes < 0) | (nodes >= num_nodes)
    if np.any(out_of_range):
        bad = int(nodes[int(np.argmax(out_of_range))])
        raise ValueError(
            f"node_events references node {bad} outside [0, {num_nodes})"
        )
    if np.any((ups != 0) & (ups != 1)):
        raise ValueError("node_events 'up' column must be 0 (down) or 1 (up)")
    bounds = np.cumsum([0] + [vc.num_nodes for vc in spec.vcs])
    is_up = np.ones(num_nodes, dtype=bool)
    out: list[tuple[float, int, int, int]] = []
    for i in np.argsort(times, kind="stable").tolist():
        node = int(nodes[i])
        up = int(ups[i])
        if up and is_up[node]:
            raise ValueError(
                f"node_events: node {node} comes up at t={times[i]:g} "
                "but is not down"
            )
        if not up and not is_up[node]:
            raise ValueError(
                f"node_events: node {node} goes down at t={times[i]:g} "
                "but is already down"
            )
        is_up[node] = bool(up)
        vck = int(np.searchsorted(bounds, node, side="right") - 1)
        out.append((float(times[i]), vck, node - int(bounds[vck]), up))
    return out


@dataclass
class ReplayResult:
    """Outcome of a replay: per-job timing plus node-interval telemetry."""

    trace: Table
    start_times: np.ndarray
    end_times: np.ndarray
    queue_delays: np.ndarray
    preemptions: np.ndarray
    #: (node, start, end, gpus): one row per executed allocation segment.
    node_intervals: Table
    num_nodes: int
    total_gpus: int

    def replayed_trace(self) -> Table:
        """The input trace with start/end/queue-delay columns attached."""
        return (
            self.trace.with_column("start_time", self.start_times)
            .with_column("end_time", self.end_times)
            .with_column("queue_delay", self.queue_delays)
        )

    @property
    def jct(self) -> np.ndarray:
        """Job completion time = queueing + execution (§4.2)."""
        return self.end_times - self.trace["submit_time"]

    def restrict(self, mask: np.ndarray) -> "ReplayResult":
        """Per-job view restricted to ``mask`` rows of the trace.

        Cluster-level telemetry (``node_intervals``, node/GPU totals) is
        kept whole: it describes everything that ran, including jobs
        outside the window — exactly what a serving stream wants when it
        replays a sub-window of jobs against the *full* cluster state
        (see :meth:`repro.serve.stream.EventStream.from_replay`).
        """
        mask = np.asarray(mask)
        return replace(
            self,
            trace=self.trace.filter(mask) if mask.dtype == bool
            else self.trace.take(mask),
            start_times=self.start_times[mask],
            end_times=self.end_times[mask],
            queue_delays=self.queue_delays[mask],
            preemptions=self.preemptions[mask],
        )


class Simulator:
    """Discrete-event replay of one cluster's GPU jobs.

    Parameters
    ----------
    spec:
        Cluster topology (nodes per VC, GPUs per node).
    scheduler:
        Policy object from :mod:`repro.sched` providing ``priorities()``
        (one value per job, lower runs first) and a ``preemptive`` flag.
    collect_node_intervals:
        Record per-node busy segments (needed by telemetry/CES).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        scheduler,
        collect_node_intervals: bool = True,
    ) -> None:
        self.spec = spec
        self.scheduler = scheduler
        self.collect_node_intervals = collect_node_intervals

    # ------------------------------------------------------------------
    def run(self, trace: Table, node_events=None) -> ReplayResult:
        """Replay ``trace`` (GPU jobs only; CPU rows are rejected).

        ``node_events`` (a time/node/up table, see
        :func:`normalize_node_events`) injects node failures: a down
        node is blacklisted for new placements while its running jobs
        drain to completion; an up event returns its capacity and
        re-drains the VC queue.
        """
        if not obs.is_enabled():
            return self._run(trace, node_events)
        t0 = time.perf_counter()
        t0_wall = obs.wall_now()
        result = self._run(trace, node_events)
        self._publish_obs(node_events, result, time.perf_counter() - t0)
        obs.record_span(
            "sim.replay", t0_wall, obs.wall_now(),
            cluster=self.spec.name, jobs=len(trace),
        )
        return result

    def _publish_obs(self, node_events, result: ReplayResult,
                     wall: float) -> None:
        """Per-replay engine metrics: throughput, queueing, node churn."""
        n = len(result.trace)
        n_node = 0 if node_events is None else len(node_events)
        sim_events = 2 * n + n_node  # one arrival + one finish per job
        obs.counter_add("sim.jobs", n)
        obs.counter_add("sim.events", sim_events)
        obs.counter_add("sim.preemptions", int(result.preemptions.sum()))
        if n_node:
            ups = np.asarray(node_events["up"], dtype=np.int64)
            obs.counter_add("sim.node_up", int((ups == 1).sum()))
            obs.counter_add("sim.node_down", int((ups == 0).sum()))
        if wall > 0:
            obs.gauge_set("sim.events_per_s", round(sim_events / wall, 1))
        # Queueing delays reach days, not milliseconds: span 1 ms – 1e6 s.
        obs.histogram("sim.queue_delay_s", lo=1e-3, decades=9).record_many(
            result.queue_delays
        )
        if n:
            # Queue depth sampled at each submit: +1 at submit, -1 at
            # start, cumulative-summed in time order (submits before
            # starts at ties, so a job counts itself and never yields a
            # transiently negative depth).
            submits = np.asarray(result.trace["submit_time"], dtype=float)
            times = np.concatenate([submits, result.start_times])
            delta = np.concatenate(
                [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)]
            )
            order = np.lexsort((-delta, times))
            depth = np.cumsum(delta[order])
            at_submit = np.empty(2 * n, dtype=np.int64)
            at_submit[order] = np.arange(2 * n)
            obs.histogram("sim.queue_depth", lo=1.0, decades=6).record_many(
                depth[at_submit[:n]]
            )

    def _run(self, trace: Table, node_events=None) -> ReplayResult:
        priorities, preemptive, events = self._prepare(trace, node_events)
        start, end, preempt, itable, num_nodes, total_gpus = replay_fast(
            self.spec, trace, priorities, preemptive,
            self.collect_node_intervals, node_events=events,
        )
        return self._result(
            trace,
            np.array(start),
            np.array(end),
            np.array(preempt, dtype=np.int64),
            itable,
            num_nodes,
            total_gpus,
        )

    def _prepare(self, trace: Table, node_events=None):
        """Validate a replay's inputs; returns ``(priorities, preemptive,
        normalized node events)``."""
        if len(trace) and int(trace["gpu_num"].min()) < 1:
            raise ValueError("simulator replays GPU jobs; filter CPU jobs out first")
        self._check_capacity(trace)
        events = normalize_node_events(self.spec, node_events)
        priorities = np.asarray(self.scheduler.priorities(trace), dtype=float)
        if priorities.shape != (len(trace),):
            raise ValueError("scheduler.priorities must return one value per job")
        return priorities, getattr(self.scheduler, "preemptive", False), events

    # ------------------------------------------------------------------
    def _check_capacity(self, trace: Table) -> None:
        if not len(trace):
            return
        caps = {vc.name: vc.num_gpus for vc in self.spec.vcs}
        # One grouped-max pass instead of a boolean-mask scan per VC.
        uniq, inverse = np.unique(trace["vc"], return_inverse=True)
        biggest = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(biggest, inverse, trace["gpu_num"].astype(np.int64))
        for name, demand in zip(uniq.tolist(), biggest.tolist()):
            if name not in caps:
                raise ValueError(f"trace references unknown VC {name!r}")
            if demand > caps[name]:
                raise ValueError(
                    f"job demands {demand} GPUs but VC {name} has {caps[name]}"
                )

    def _result(
        self, trace, start, end, preemptions, node_intervals, num_nodes, total_gpus
    ) -> ReplayResult:
        n = len(trace)
        submit = trace["submit_time"].astype(float) if n else np.empty(0)
        if n and (np.any(start < 0) or np.any(~np.isfinite(end))):
            raise RuntimeError("some jobs never ran: trace exceeds cluster capacity")
        return ReplayResult(
            trace=trace,
            start_times=start,
            end_times=end,
            queue_delays=start - submit,
            preemptions=preemptions,
            node_intervals=node_intervals,
            num_nodes=num_nodes,
            total_gpus=total_gpus,
        )
