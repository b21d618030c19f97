"""Property-based tests for the simulator (hypothesis-driven).

These hammer the event loop with random workloads and check the physical
invariants that must hold for *any* trace and *any* policy:

* conservation: every job runs exactly its duration (non-preemptive);
* causality: no job starts before submission;
* exclusivity: per-node GPU usage never exceeds capacity;
* work conservation within a VC: the head job never waits while a
  feasible placement exists (checked via a reference re-execution).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Table
from repro.sched import FIFOScheduler, SJFScheduler, SRTFScheduler
from repro.sim import Simulator
from repro.traces import ClusterSpec, VCSpec

from oracles import sim as sim_oracle


def _spec(nodes: int, gpn: int = 8) -> ClusterSpec:
    return ClusterSpec(
        name="P",
        gpus_per_node=gpn,
        vcs=(VCSpec("vc0", num_nodes=nodes, gpus_per_node=gpn),),
    )


def _trace(jobs) -> Table:
    n = len(jobs)
    return Table(
        {
            "job_id": np.array([f"j{i}" for i in range(n)]),
            "cluster": np.full(n, "P"),
            "vc": np.full(n, "vc0"),
            "user": np.full(n, "u"),
            "name": np.array([f"n{i}" for i in range(n)]),
            "gpu_num": np.array([g for _, g, _ in jobs], dtype=np.int64),
            "cpu_num": np.ones(n, dtype=np.int64),
            "node_num": np.array([max(1, -(-g // 8)) for _, g, _ in jobs], dtype=np.int64),
            "submit_time": np.array([s for s, _, _ in jobs], dtype=np.int64),
            "duration": np.array([float(d) for _, _, d in jobs]),
            "status": np.full(n, "completed"),
        }
    )


job_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),   # submit
        st.sampled_from([1, 2, 4, 8, 16]),          # gpus
        st.integers(min_value=1, max_value=300),    # duration
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists)
def test_nonpreemptive_service_conservation(jobs):
    """end - start == duration for every job under FIFO and SJF."""
    trace = _trace(jobs)
    for sched in (FIFOScheduler(), SJFScheduler()):
        res = Simulator(_spec(nodes=3), sched).run(trace)
        np.testing.assert_allclose(
            res.end_times - res.start_times, trace["duration"], atol=1e-9
        )
        assert np.all(res.start_times >= trace["submit_time"])


@settings(max_examples=40, deadline=None)
@given(jobs=job_lists)
def test_srtf_total_service_preserved(jobs):
    """With preemption, executed segment time still sums to gpu time."""
    trace = _trace(jobs)
    res = Simulator(_spec(nodes=3), SRTFScheduler()).run(trace)
    iv = res.node_intervals
    seg = ((iv["end"] - iv["start"]) * iv["gpus"]).sum()
    expect = (trace["duration"] * trace["gpu_num"]).sum()
    assert seg == pytest.approx(expect, rel=1e-9)
    # JCT >= duration always (can only be delayed, never shortened)
    assert np.all(res.jct >= trace["duration"] - 1e-9)


@settings(max_examples=40, deadline=None)
@given(jobs=job_lists, seed=st.integers(min_value=0, max_value=99))
def test_capacity_never_exceeded(jobs, seed):
    """Sweep per-node usage over all recorded segments."""
    trace = _trace(jobs)
    spec = _spec(nodes=2)
    res = Simulator(spec, SJFScheduler()).run(trace)
    iv = res.node_intervals
    for node in np.unique(iv["node"]):
        mask = iv["node"] == node
        events = sorted(
            [(s, g) for s, g in zip(iv["start"][mask], iv["gpus"][mask])]
            + [(e, -g) for e, g in zip(iv["end"][mask], iv["gpus"][mask])]
        )
        level = 0
        for _, delta in events:
            level += delta
            assert level <= spec.gpus_per_node


@settings(max_examples=30, deadline=None)
@given(jobs=job_lists)
def test_fifo_starts_monotone_when_single_server_class(jobs):
    """With identical 8-GPU jobs on one node, FIFO starts are ordered by
    submission (a strict no-overtaking property)."""
    jobs = [(s, 8, d) for s, _, d in jobs]
    trace = _trace(jobs)
    res = Simulator(_spec(nodes=1), FIFOScheduler()).run(trace)
    order = np.argsort(trace["submit_time"], kind="stable")
    starts = res.start_times[order]
    assert np.all(np.diff(starts) >= -1e-9)


@settings(max_examples=30, deadline=None)
@given(jobs=job_lists)
def test_makespan_bounds(jobs):
    """Makespan is at least the critical path and at most serialized work."""
    trace = _trace(jobs)
    res = Simulator(_spec(nodes=2), FIFOScheduler()).run(trace)
    makespan = res.end_times.max()
    lower = max(s + d for s, _, d in jobs)
    upper = max(s for s, _, _ in jobs) + sum(d for _, _, d in jobs)
    assert lower - 1e-9 <= makespan <= upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(jobs=job_lists)
def test_fast_engine_matches_reference(jobs):
    """Property form of the parity contract: for any workload and any
    policy, the array-backed engine's ReplayResult is byte-identical to
    the reference loop's (see tests/test_sim_parity.py for the seeded
    cluster-scale suite)."""
    trace = _trace(jobs)
    for sched in (FIFOScheduler(), SJFScheduler(), SRTFScheduler()):
        sim = Simulator(_spec(nodes=2), sched)
        ref = sim_oracle.run(sim, trace)
        fast = sim.run(trace)
        assert fast.start_times.tobytes() == ref.start_times.tobytes()
        assert fast.end_times.tobytes() == ref.end_times.tobytes()
        assert fast.preemptions.tobytes() == ref.preemptions.tobytes()
        for col in ("node", "start", "end", "gpus"):
            assert (
                fast.node_intervals[col].tobytes()
                == ref.node_intervals[col].tobytes()
            )


@settings(max_examples=25, deadline=None)
@given(jobs=job_lists)
def test_sjf_average_jct_not_worse_than_fifo_much(jobs):
    """SJF's average JCT should essentially never lose badly to FIFO on a
    single-VC workload (it can lose slightly via packing artifacts)."""
    trace = _trace(jobs)
    fifo = Simulator(_spec(nodes=2), FIFOScheduler()).run(trace)
    sjf = Simulator(_spec(nodes=2), SJFScheduler()).run(trace)
    assert sjf.jct.mean() <= fifo.jct.mean() * 1.5 + 10.0
