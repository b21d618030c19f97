"""Tests for the discrete-event replay engine."""

import numpy as np
import pytest

from repro.sched import FIFOScheduler, SJFScheduler, SRTFScheduler
from repro.sim import Simulator

from helpers import make_spec, make_trace
from oracles import sim as sim_oracle


class TestBasics:
    def test_single_job(self):
        res = Simulator(make_spec(), FIFOScheduler()).run(make_trace([(0, 8, 100)]))
        assert res.start_times.tolist() == [0.0]
        assert res.end_times.tolist() == [100.0]
        assert res.queue_delays.tolist() == [0.0]

    def test_empty_trace(self):
        res = Simulator(make_spec(), FIFOScheduler()).run(make_trace([]))
        assert len(res.start_times) == 0

    def test_cpu_jobs_rejected(self):
        with pytest.raises(ValueError, match="GPU jobs"):
            Simulator(make_spec(), FIFOScheduler()).run(make_trace([(0, 0, 10)]))

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            Simulator(make_spec(nodes=1), FIFOScheduler()).run(make_trace([(0, 9, 10)]))

    def test_unknown_vc_rejected(self):
        with pytest.raises(ValueError, match="unknown VC"):
            Simulator(make_spec(), FIFOScheduler()).run(
                make_trace([(0, 1, 10, "vcX")])
            )

    def test_parallel_jobs_no_queueing(self):
        # 2 nodes x 8 GPUs: two 8-GPU jobs run concurrently.
        res = Simulator(make_spec(), FIFOScheduler()).run(
            make_trace([(0, 8, 100), (0, 8, 100)])
        )
        assert res.queue_delays.tolist() == [0.0, 0.0]

    def test_queueing_when_full(self):
        res = Simulator(make_spec(nodes=1), FIFOScheduler()).run(
            make_trace([(0, 8, 100), (10, 8, 50)])
        )
        assert res.start_times.tolist() == [0.0, 100.0]
        assert res.queue_delays.tolist() == [0.0, 90.0]

    def test_replayed_trace_roundtrip(self):
        res = Simulator(make_spec(), FIFOScheduler()).run(make_trace([(5, 4, 20)]))
        rt = res.replayed_trace()
        assert rt["start_time"][0] == 5.0
        assert rt["end_time"][0] == 25.0
        from repro.traces import validate_trace

        validate_trace(rt, replayed=True)


#: the simulator and its per-job reference loop run the full policy
#: matrix — same semantics contract
ENGINES = ("fast", "reference")


def _replay(engine, spec, scheduler, trace):
    sim = Simulator(spec, scheduler)
    return sim.run(trace) if engine == "fast" else sim_oracle.run(sim, trace)


@pytest.mark.parametrize("engine", ENGINES)
class TestPolicies:
    def test_fifo_order(self, engine):
        # One node; three jobs contend: FIFO runs in submit order.
        res = _replay(
            engine, make_spec(nodes=1), FIFOScheduler(),
            make_trace([(0, 8, 100), (1, 8, 10), (2, 8, 1)]),
        )
        assert res.start_times.tolist() == [0.0, 100.0, 110.0]

    def test_sjf_reorders(self, engine):
        res = _replay(
            engine, make_spec(nodes=1), SJFScheduler(),
            make_trace([(0, 8, 100), (1, 8, 10), (2, 8, 1)]),
        )
        # After the head job, the 1s job jumps the 10s job.
        assert res.start_times.tolist() == [0.0, 101.0, 100.0]

    def test_sjf_no_preemption(self, engine):
        res = _replay(
            engine, make_spec(nodes=1), SJFScheduler(),
            make_trace([(0, 8, 1000), (1, 8, 1)]),
        )
        assert res.start_times[1] == 1000.0  # waits despite being shorter
        assert res.preemptions.sum() == 0

    def test_srtf_preempts(self, engine):
        res = _replay(
            engine, make_spec(nodes=1), SRTFScheduler(),
            make_trace([(0, 8, 1000), (10, 8, 10)]),
        )
        # Short job preempts the long one at t=10 and runs immediately.
        assert res.start_times[1] == 10.0
        assert res.preemptions[0] == 1
        # The long job resumes and finishes with its full service time:
        # 10s executed + 990s remaining after resume at t=20.
        assert res.end_times[0] == pytest.approx(1010.0)

    def test_srtf_does_not_preempt_shorter(self, engine):
        res = _replay(
            engine, make_spec(nodes=1), SRTFScheduler(),
            make_trace([(0, 8, 10), (1, 8, 1000)]),
        )
        assert res.start_times[0] == 0.0
        assert res.preemptions.sum() == 0
        assert res.start_times[1] == 10.0

    def test_head_of_line_blocking_no_backfill(self, engine):
        """A big job at the head blocks later small jobs (no backfill)."""
        res = _replay(
            engine, make_spec(nodes=2), FIFOScheduler(),
            make_trace([(0, 8, 100), (1, 16, 50), (2, 1, 5)]),
        )
        # 16-GPU job waits for both nodes; the 1-GPU job waits behind it
        # even though a node is free.
        assert res.start_times[1] == 100.0
        assert res.start_times[2] == 150.0

    def test_vcs_are_independent(self, engine):
        res = _replay(
            engine, make_spec(nodes=1, vcs=2), FIFOScheduler(),
            make_trace([(0, 8, 100, "vc0"), (1, 8, 50, "vc1"), (2, 8, 10, "vc0")]),
        )
        # vc1's job is unaffected by vc0's backlog.
        assert res.start_times[1] == 1.0
        assert res.start_times[2] == 100.0

    def test_same_timestamp_burst_admitted_in_priority_event_order(self, engine):
        """A burst of same-instant arrivals is admitted per event order:
        an earlier-submitted job that fits starts even if a later
        same-instant arrival has better priority."""
        res = _replay(
            engine, make_spec(nodes=1), SJFScheduler(),
            make_trace([(0, 8, 100), (0, 8, 1), (0, 8, 10)]),
        )
        # job 0 is admitted on arrival (cluster idle); the rest queue and
        # run shortest-first.
        assert res.start_times.tolist() == [0.0, 100.0, 101.0]


class TestTelemetryIntervals:
    def test_node_intervals_cover_gpu_time(self):
        trace = make_trace([(0, 8, 100), (0, 4, 50), (60, 12, 40)])
        res = Simulator(make_spec(nodes=4), FIFOScheduler()).run(trace)
        iv = res.node_intervals
        seg_time = ((iv["end"] - iv["start"]) * iv["gpus"]).sum()
        assert seg_time == pytest.approx((trace["duration"] * trace["gpu_num"]).sum())

    def test_srtf_intervals_exclude_queue_gaps(self):
        trace = make_trace([(0, 8, 1000), (10, 8, 10)])
        res = Simulator(make_spec(nodes=1), SRTFScheduler()).run(trace)
        iv = res.node_intervals
        seg_time = ((iv["end"] - iv["start"]) * iv["gpus"]).sum()
        assert seg_time == pytest.approx(1010 * 8)

    def test_determinism(self):
        trace = make_trace([(i, 1 + (i % 8), 10 + i) for i in range(100)])
        r1 = Simulator(make_spec(nodes=4), SJFScheduler()).run(trace)
        r2 = Simulator(make_spec(nodes=4), SJFScheduler()).run(trace)
        np.testing.assert_array_equal(r1.start_times, r2.start_times)


class TestInvariantsOnSynthetic:
    def test_no_capacity_violation_over_time(self):
        """Property: at every instant, per-VC busy GPUs <= capacity."""
        rng = np.random.default_rng(0)
        rows = [
            (int(rng.integers(0, 1000)), int(2 ** rng.integers(0, 4)), float(rng.integers(1, 200)))
            for _ in range(200)
        ]
        spec = make_spec(nodes=3)
        res = Simulator(spec, SJFScheduler()).run(make_trace(rows))
        iv = res.node_intervals
        # per-node GPU usage never exceeds gpus_per_node
        for node in np.unique(iv["node"]):
            mask = iv["node"] == node
            events = []
            for s, e, g in zip(iv["start"][mask], iv["end"][mask], iv["gpus"][mask]):
                events.append((s, g))
                events.append((e, -g))
            events.sort()
            level = 0
            for _, delta in events:
                level += delta
                assert level <= spec.gpus_per_node

    def test_jct_equals_queue_plus_service_nonpreemptive(self):
        rng = np.random.default_rng(1)
        rows = [
            (int(rng.integers(0, 500)), int(2 ** rng.integers(0, 3)), float(rng.integers(1, 100)))
            for _ in range(100)
        ]
        trace = make_trace(rows)
        res = Simulator(make_spec(nodes=2), FIFOScheduler()).run(trace)
        np.testing.assert_allclose(
            res.jct, res.queue_delays + trace["duration"], atol=1e-9
        )
