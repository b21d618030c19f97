"""Per-job object replay loop: the oracle for the array-backed simulator.

This is the event loop :class:`repro.sim.Simulator` ran as its
``mode="reference"`` before the array-backed core in
:mod:`repro.sim.fast` became its only engine: one :class:`SimJob`
record per job, one event heap holding arrivals, finishes and node
events, per-VC priority queues, and placement through
:func:`oracles.placement.consolidate_place` on a
:class:`oracles.cluster.ClusterState` ledger.  :func:`run` validates
its inputs with the simulator's own checks and packages the result
with the simulator's own :class:`~repro.sim.ReplayResult` builder, so
both paths accept and reject the same inputs and the parity suite can
compare payloads byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from oracles.cluster import Allocation, ClusterState
from oracles.placement import consolidate_place
from repro.frame import Table
from repro.sim import ReplayResult, Simulator

#: same-instant processing order: finishes free resources first, node
#: health changes next, arrivals see the settled state.
_FINISH = 0
_NODE_EVENT = 1
_ARRIVAL = 2


@dataclass
class SimJob:
    """Mutable per-job simulation record."""

    __slots__ = (
        "idx", "vc", "gpu_num", "submit", "duration", "remaining",
        "priority", "start", "end", "run_started", "alloc", "epoch",
        "preemptions",
    )

    idx: int
    vc: str
    gpu_num: int
    submit: float
    duration: float
    remaining: float
    priority: float
    start: float
    end: float
    run_started: float
    alloc: Allocation | None
    epoch: int
    preemptions: int


def run(sim: Simulator, trace: Table, node_events=None) -> ReplayResult:
    """``sim.run(trace, node_events)`` by the per-job reference loop."""
    priorities, preemptive, node_events = sim._prepare(trace, node_events)
    state = ClusterState(sim.spec)
    jobs = _build_jobs(trace, priorities)
    n = len(jobs)
    node_events = node_events or []

    heap: list[tuple[float, int, int, int, int]] = [
        (j.submit, _ARRIVAL, i, j.idx, 0) for i, j in enumerate(jobs)
    ]
    # Node events ride the same heap; the idx slot indexes node_events.
    heap.extend(
        (t, _NODE_EVENT, i, i, 0) for i, (t, _, _, _) in enumerate(node_events)
    )
    heapq.heapify(heap)
    seq = n

    queues: dict[str, list[tuple[float, int, int]]] = {
        vc.name: [] for vc in sim.spec.vcs
    }
    running: dict[str, dict[int, SimJob]] = {vc.name: {} for vc in sim.spec.vcs}
    intervals: list[tuple[np.ndarray, float, float, np.ndarray]] = []
    collect = sim.collect_node_intervals

    def start_job(job: SimJob, now: float) -> None:
        nonlocal seq
        placed = consolidate_place(state.vc(job.vc), job.gpu_num)
        assert placed is not None
        nodes, gpus = placed
        job.alloc = state.vc(job.vc).take(nodes, gpus)
        if job.start < 0:
            job.start = now
        job.run_started = now
        job.end = now + job.remaining
        job.epoch += 1
        running[job.vc][job.idx] = job
        heapq.heappush(heap, (job.end, _FINISH, seq, job.idx, job.epoch))
        seq += 1

    def release_job(job: SimJob, now: float) -> None:
        """Free the job's GPUs and log the executed segment."""
        alloc = job.alloc
        assert alloc is not None
        state.vc(job.vc).release(alloc)
        if collect and now > job.run_started:
            intervals.append((alloc.node_ids, job.run_started, now, alloc.gpus))
        del running[job.vc][job.idx]
        job.alloc = None

    def try_preempt(job: SimJob, now: float) -> bool:
        """SRTF: evict longest-remaining running jobs to fit ``job``."""
        vc_state = state.vc(job.vc)
        victims = sorted(
            (v for v in running[job.vc].values() if (v.end - now) > job.remaining),
            key=lambda v: v.end - now,
            reverse=True,
        )
        needed = job.gpu_num - vc_state.free_gpus
        freed = 0
        chosen: list[SimJob] = []
        for v in victims:
            if freed >= needed:
                break
            chosen.append(v)
            freed += v.alloc.total_gpus if v.alloc else 0
        if freed < needed:
            return False
        nonlocal qseq
        for v in chosen:
            v.remaining = max(v.end - now, 0.0)
            v.epoch += 1  # invalidate the in-flight finish event
            release_job(v, now)
            v.preemptions += 1
            heapq.heappush(queues[job.vc], (v.remaining, qseq, v.idx))
            qseq += 1
        return True

    def drain_vc(vc_name: str, now: float) -> None:
        """Head-of-line scheduling for one VC queue."""
        q = queues[vc_name]
        vc_state = state.vc(vc_name)
        while q:
            _, _, jidx = q[0]
            job = jobs[jidx]
            if consolidate_place(vc_state, job.gpu_num) is None:
                if not (preemptive and try_preempt(job, now)):
                    break
                if consolidate_place(vc_state, job.gpu_num) is None:
                    break  # fragmentation: freed GPUs not consolidatable
            heapq.heappop(q)
            start_job(job, now)

    qseq = 0
    while heap:
        now, kind, _, jidx, epoch = heapq.heappop(heap)
        if kind == _NODE_EVENT:
            _, vck, local, up = node_events[jidx]
            vc_name = sim.spec.vcs[vck].name
            if up:
                state.vc(vc_name).restore_node(local)
                drain_vc(vc_name, now)
            else:
                state.vc(vc_name).fail_node(local)
            continue
        job = jobs[jidx]
        if kind == _FINISH:
            if epoch != job.epoch or job.alloc is None:
                continue  # stale event from a preempted run
            job.remaining = 0.0
            release_job(job, now)
            drain_vc(job.vc, now)
        else:  # arrival
            heapq.heappush(queues[job.vc], (job.priority, qseq, jidx))
            qseq += 1
            drain_vc(job.vc, now)

    if intervals:
        node_ids = np.concatenate([iv[0] for iv in intervals])
        starts = np.concatenate([np.full(len(iv[0]), iv[1]) for iv in intervals])
        ends = np.concatenate([np.full(len(iv[0]), iv[2]) for iv in intervals])
        gpus = np.concatenate([iv[3] for iv in intervals])
    else:
        node_ids = np.empty(0, dtype=np.int64)
        starts = ends = np.empty(0)
        gpus = np.empty(0, dtype=np.int64)
    return sim._result(
        trace,
        np.array([j.start for j in jobs]),
        np.array([j.end for j in jobs]),
        np.array([j.preemptions for j in jobs], dtype=np.int64),
        Table({"node": node_ids, "start": starts, "end": ends, "gpus": gpus}),
        state.num_nodes,
        state.total_gpus,
    )


def _build_jobs(trace: Table, priorities: np.ndarray) -> list[SimJob]:
    submit = trace["submit_time"].astype(float)
    duration = trace["duration"].astype(float)
    gpus = trace["gpu_num"].astype(int)
    vcs = trace["vc"]
    return [
        SimJob(
            idx=i, vc=str(vcs[i]), gpu_num=int(gpus[i]), submit=float(submit[i]),
            duration=float(duration[i]), remaining=float(duration[i]),
            priority=float(priorities[i]), start=-1.0, end=np.nan,
            run_started=np.nan, alloc=None, epoch=0, preemptions=0,
        )
        for i in range(len(trace))
    ]
