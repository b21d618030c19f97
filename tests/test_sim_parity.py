"""Simulator parity suite: the array-backed engine vs the per-job oracle.

The array-backed engine must produce **byte-identical**
:class:`~repro.sim.engine.ReplayResult` payloads — per-job timings,
queue delays, preemption counts, and node-interval telemetry — on any
trace and policy.  Two layers:

* seeded fuzz over randomized small traces (mixed VCs, bursty
  same-timestamp arrival bursts, preemption on and off);
* the real scenario: the evaluation-month replay of all four Helios
  clusters plus a Philly window, FIFO and the preemptive SRTF baseline.

The oracle is the reference loop in ``tests/oracles/sim.py``.
"""

import numpy as np
import pytest

from repro.frame import Table
from repro.sched import FIFOScheduler, SJFScheduler, SRTFScheduler
from repro.sim import Simulator, normalize_node_events

from helpers import make_spec, make_trace
from oracles import sim as sim_oracle


def assert_replays_identical(fast, ref):
    """Byte-level equality of every ReplayResult payload field."""
    assert fast.start_times.dtype == ref.start_times.dtype
    assert fast.start_times.tobytes() == ref.start_times.tobytes()
    assert fast.end_times.tobytes() == ref.end_times.tobytes()
    assert fast.queue_delays.tobytes() == ref.queue_delays.tobytes()
    assert fast.preemptions.dtype == ref.preemptions.dtype
    assert fast.preemptions.tobytes() == ref.preemptions.tobytes()
    for col in ("node", "start", "end", "gpus"):
        a, b = fast.node_intervals[col], ref.node_intervals[col]
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert fast.num_nodes == ref.num_nodes
    assert fast.total_gpus == ref.total_gpus


def _random_trace(rng, n_vcs):
    """Small random workload with heavy same-timestamp collisions."""
    n = int(rng.integers(1, 90))
    step = int(rng.integers(1, 50))
    rows = [
        (
            int(rng.integers(0, 25)) * step,  # few distinct instants: bursts
            int(rng.choice([1, 2, 3, 4, 7, 8, 9, 16])),
            float(rng.integers(1, 250)),
            f"vc{int(rng.integers(0, n_vcs))}",
        )
        for _ in range(n)
    ]
    return make_trace(rows)


class TestFuzzParity:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_traces_all_policies(self, seed):
        rng = np.random.default_rng(seed)
        n_vcs = int(rng.integers(1, 4))
        spec = make_spec(nodes=int(rng.integers(1, 5)), vcs=n_vcs)
        trace = _random_trace(rng, n_vcs)
        for sched in (FIFOScheduler(), SJFScheduler(), SRTFScheduler()):
            try:
                ref = sim_oracle.run(Simulator(spec, sched), trace)
            except (ValueError, RuntimeError) as exc:
                # infeasible workload: the fast path must reject it with
                # the identical error
                with pytest.raises(type(exc)) as excinfo:
                    Simulator(spec, sched).run(trace)
                assert str(excinfo.value) == str(exc)
                continue
            fast = Simulator(spec, sched).run(trace)
            assert_replays_identical(fast, ref)

    def test_no_telemetry_mode(self):
        trace = _random_trace(np.random.default_rng(99), 2)
        spec = make_spec(nodes=3, vcs=2)
        srtf = Simulator(spec, SRTFScheduler(), collect_node_intervals=False)
        for res in (srtf.run(trace), sim_oracle.run(srtf, trace)):
            assert len(res.node_intervals) == 0
            assert res.node_intervals["node"].dtype == np.int64
        sjf = Simulator(spec, SJFScheduler(), collect_node_intervals=False)
        assert_replays_identical(sjf.run(trace), sim_oracle.run(sjf, trace))

    def test_empty_trace(self):
        spec = make_spec()
        fast = Simulator(spec, FIFOScheduler()).run(make_trace([]))
        ref = sim_oracle.run(Simulator(spec, FIFOScheduler()), make_trace([]))
        assert_replays_identical(fast, ref)


def _node_events_table(rows):
    """rows: list of (time, node, up)."""
    return Table(
        {
            "time": np.array([r[0] for r in rows], dtype=float),
            "node": np.array([r[1] for r in rows], dtype=np.int64),
            "up": np.array([r[2] for r in rows], dtype=np.int64),
        }
    )


def _random_node_events(rng, num_nodes, horizon):
    """Valid per-node down/up alternations with integer-time collisions."""
    rows = []
    for node in range(num_nodes):
        if rng.random() < 0.4:
            continue
        t = 0.0
        for _ in range(int(rng.integers(1, 3))):
            t += float(rng.integers(0, max(2, horizon // 3)))
            rows.append((t, node, 0))
            t += float(rng.integers(1, max(2, horizon // 3)))
            rows.append((t, node, 1))
    return _node_events_table(rows)


class TestNodeEventParity:
    """Node failures: blacklisted placements, drained jobs, byte parity."""

    @pytest.mark.parametrize("seed", range(15))
    def test_fuzz_with_node_failures(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_vcs = int(rng.integers(1, 3))
        nodes = int(rng.integers(2, 5))
        spec = make_spec(nodes=nodes, vcs=n_vcs)
        trace = _random_trace(rng, n_vcs)
        events = _random_node_events(rng, nodes * n_vcs, 1000)
        for sched in (FIFOScheduler(), SJFScheduler(), SRTFScheduler()):
            try:
                ref = sim_oracle.run(
                    Simulator(spec, sched), trace, node_events=events
                )
            except (ValueError, RuntimeError) as exc:
                with pytest.raises(type(exc)) as excinfo:
                    Simulator(spec, sched).run(trace, node_events=events)
                assert str(excinfo.value) == str(exc)
                continue
            fast = Simulator(spec, sched).run(trace, node_events=events)
            assert_replays_identical(fast, ref)

    def test_directed_drain_and_blacklist(self):
        # Node 0 goes down at t=10 while an 8-GPU job drains on it; a
        # 16-GPU job arriving at t=20 must wait for the restore at t=100.
        spec = make_spec(nodes=2, gpn=8)
        trace = make_trace([(0, 8, 50), (20, 16, 30)])
        events = _node_events_table([(10, 0, 0), (100, 0, 1)])
        ref = sim_oracle.run(
            Simulator(spec, FIFOScheduler()), trace, node_events=events
        )
        fast = Simulator(spec, FIFOScheduler()).run(trace, node_events=events)
        assert_replays_identical(fast, ref)
        assert ref.start_times.tolist() == [0.0, 100.0]
        assert ref.end_times.tolist() == [50.0, 130.0]

    def test_no_events_table_matches_none(self):
        spec = make_spec(nodes=2)
        trace = make_trace([(0, 4, 30), (5, 8, 20)])
        plain = Simulator(spec, FIFOScheduler()).run(trace)
        empty = Simulator(spec, FIFOScheduler()).run(
            trace, node_events=_node_events_table([])
        )
        assert_replays_identical(plain, empty)

    def test_synthesized_events_round_trip(self):
        from repro.traces.synth import synthesize_node_events

        spec = make_spec(nodes=3, vcs=2)
        trace = _random_trace(np.random.default_rng(7), 2)
        events = synthesize_node_events(6, 5000.0, seed=11,
                                        burst_rate_per_day=40.0)
        assert len(events)
        ref = sim_oracle.run(
            Simulator(spec, FIFOScheduler()), trace, node_events=events
        )
        fast = Simulator(spec, FIFOScheduler()).run(trace, node_events=events)
        assert_replays_identical(fast, ref)

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([(5, 0, 0), (3, 0, 0)], "already down"),
            ([(5, 0, 1)], "is not down"),
            ([(5, 99, 0)], "outside"),
            ([(float("nan"), 0, 0)], "finite"),
            ([(5, 0, 2)], "must be 0"),
        ],
    )
    def test_invalid_sequences_identical_errors(self, rows, match):
        spec = make_spec(nodes=2)
        trace = make_trace([(0, 4, 30)])
        events = _node_events_table(rows)
        with pytest.raises(ValueError, match=match) as ref_exc:
            sim_oracle.run(
                Simulator(spec, FIFOScheduler()), trace, node_events=events
            )
        with pytest.raises(ValueError) as fast_exc:
            Simulator(spec, FIFOScheduler()).run(trace, node_events=events)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_normalize_orders_and_maps_vcs(self):
        spec = make_spec(nodes=2, vcs=2)  # nodes 0-1 vc0, 2-3 vc1
        events = _node_events_table([(30, 2, 0), (10, 0, 0), (40, 2, 1), (20, 0, 1)])
        norm = normalize_node_events(spec, events)
        assert norm == [
            (10.0, 0, 0, 0), (20.0, 0, 0, 1), (30.0, 1, 0, 0), (40.0, 1, 0, 1),
        ]


@pytest.mark.parametrize("sched_cls", [FIFOScheduler, SRTFScheduler])
class TestClusterParity:
    """The paper's replay protocol: evaluation month, real topologies."""

    @pytest.mark.parametrize(
        "cluster", ["Venus", "Earth", "Saturn", "Uranus"]
    )
    def test_helios_evaluation_month(self, cluster, sched_cls):
        from repro.experiments import common
        from repro.traces import slice_period

        gpu = common.cluster_gpu_trace(cluster)
        sept = slice_period(
            gpu,
            common.EVAL_MONTH * common.MONTH_SECONDS,
            (common.EVAL_MONTH + 1) * common.MONTH_SECONDS,
        )
        spec = common.cluster_spec(cluster)
        ref = sim_oracle.run(Simulator(spec, sched_cls()), sept)
        fast = Simulator(spec, sched_cls()).run(sept)
        assert_replays_identical(fast, ref)

    def test_philly_window(self, sched_cls):
        from repro.experiments import common
        from repro.traces import SECONDS_PER_DAY, slice_period

        trace = slice_period(common.philly_trace(), 0, 20 * SECONDS_PER_DAY)
        spec = common.philly_generator().spec
        ref = sim_oracle.run(Simulator(spec, sched_cls()), trace)
        fast = Simulator(spec, sched_cls()).run(trace)
        assert_replays_identical(fast, ref)


class TestModeKnob:
    def test_restrict_slices_jobs_keeps_telemetry(self):
        trace = make_trace([(0, 8, 100), (10, 4, 50), (20, 2, 25)])
        res = Simulator(make_spec(nodes=2), FIFOScheduler()).run(trace)
        sub = res.restrict(np.array([1, 2]))
        assert len(sub.trace) == 2
        assert sub.start_times.tolist() == res.start_times[1:].tolist()
        assert sub.queue_delays.tolist() == res.queue_delays[1:].tolist()
        # cluster telemetry stays whole: it describes everything that ran
        assert len(sub.node_intervals) == len(res.node_intervals)
        assert sub.num_nodes == res.num_nodes

    def test_restrict_boolean_mask(self):
        trace = make_trace([(0, 8, 100), (10, 4, 50)])
        res = Simulator(make_spec(), FIFOScheduler()).run(trace)
        sub = res.restrict(np.array([False, True]))
        assert len(sub.trace) == 1
        assert sub.end_times.tolist() == [res.end_times[1]]
