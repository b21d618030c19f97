"""Simulator-core benchmarks: fast vs reference replay throughput.

``BENCH {json}`` lines (grep the suite output for ``BENCH``):

* ``sim_replay`` — a synthetic ~50k-job multi-VC trace replayed under
  FIFO and the preemptive SRTF baseline through the simulator and the
  per-job reference loop (``tests/oracles/sim.py``); reports
  events/s each and the speedup.  The acceptance floor is a **3x**
  fast-vs-reference throughput ratio (the array-backed core typically
  lands 5-10x), asserted per policy, with byte-parity re-checked on the
  same run.
* ``sim_table3`` — end-to-end wall time of the heaviest replay-driven
  exhibit (``table3``: September replays of all four Helios clusters
  plus Philly under three policies) — the fast core's effect on the
  ``run all`` critical path.
"""

import json
import time

import numpy as np
import pytest

from repro.frame import Table
from repro.sched import FIFOScheduler, SRTFScheduler
from repro.sim import Simulator
from repro.traces import ClusterSpec, VCSpec

from oracles import sim as sim_oracle

_N_JOBS = 50_000
_N_VCS = 4
_NODES_PER_VC = 12
_GPN = 8


def _bench_line(payload: dict, capsys) -> None:
    with capsys.disabled():
        print()
        print("BENCH " + json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec(
        name="B",
        gpus_per_node=_GPN,
        vcs=tuple(
            VCSpec(f"vc{i}", num_nodes=_NODES_PER_VC, gpus_per_node=_GPN)
            for i in range(_N_VCS)
        ),
    )


@pytest.fixture(scope="module")
def trace():
    """~50k jobs over ~30 synthetic days: bursty arrivals (many
    same-timestamp collisions), mixed demands, VC skew — enough load to
    keep the queues deep and the placement path hot."""
    rng = np.random.default_rng(11)
    n = _N_JOBS
    submit = np.sort(rng.integers(0, 30 * 86_400 // 60, n) * 60).astype(np.int64)
    gpus = rng.choice([1, 1, 1, 2, 2, 4, 8, 16], n)
    duration = np.round(rng.lognormal(7.2, 1.4, n), 1)
    return Table(
        {
            "job_id": np.array([f"j{i}" for i in range(n)]),
            "cluster": np.full(n, "B"),
            "vc": np.array(
                [f"vc{v}" for v in rng.choice(_N_VCS, n, p=[0.4, 0.3, 0.2, 0.1])]
            ),
            "user": np.array([f"u{u}" for u in rng.integers(0, 30, n)]),
            "name": np.array([f"job_{m}" for m in rng.integers(0, 50, n)]),
            "gpu_num": gpus.astype(np.int64),
            "cpu_num": (gpus * 5).astype(np.int64),
            "node_num": np.maximum(1, -(-gpus // _GPN)).astype(np.int64),
            "submit_time": submit,
            "duration": duration,
            "status": np.full(n, "completed"),
        }
    )


@pytest.mark.parametrize("sched_cls", [FIFOScheduler, SRTFScheduler])
def test_replay_throughput_floor(spec, trace, sched_cls, capsys):
    """Fast engine >= 3x the reference on the same synthetic workload."""
    t0 = time.perf_counter()
    ref = sim_oracle.run(Simulator(spec, sched_cls()), trace)
    ref_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = Simulator(spec, sched_cls()).run(trace)
    fast_wall = time.perf_counter() - t0

    # replays process one arrival + one finish per job (plus preemption
    # re-runs); count events from the telemetry-backed outcome
    events = 2 * len(trace) + 2 * int(fast.preemptions.sum())
    speedup = ref_wall / fast_wall
    _bench_line(
        {
            "bench": "sim_replay",
            "policy": sched_cls.name,
            "jobs": len(trace),
            "events": events,
            "ref_wall_s": round(ref_wall, 3),
            "fast_wall_s": round(fast_wall, 3),
            "ref_events_per_s": round(events / ref_wall, 1),
            "fast_events_per_s": round(events / fast_wall, 1),
            "speedup": round(speedup, 2),
        },
        capsys,
    )
    # same run doubles as a cluster-scale parity check
    assert fast.start_times.tobytes() == ref.start_times.tobytes()
    assert fast.end_times.tobytes() == ref.end_times.tobytes()
    assert fast.preemptions.tobytes() == ref.preemptions.tobytes()
    for col in ("node", "start", "end", "gpus"):
        assert (
            fast.node_intervals[col].tobytes() == ref.node_intervals[col].tobytes()
        )
    assert speedup >= 3.0, (
        f"fast engine only {speedup:.2f}x the reference "
        f"({events / fast_wall:.0f} vs {events / ref_wall:.0f} ev/s); "
        "the acceptance floor is 3x"
    )


@pytest.mark.slow
def test_table3_end_to_end(capsys):
    """Wall time of the heaviest replay-funnel exhibit, fast engine."""
    from repro.experiments import run_experiment

    t0 = time.perf_counter()
    payload = run_experiment("table3")
    wall = time.perf_counter() - t0
    _bench_line(
        {"bench": "sim_table3", "wall_s": round(wall, 2)},
        capsys,
    )
    with capsys.disabled():
        print(payload.get("text", "(no text)"))
    assert "text" in payload
