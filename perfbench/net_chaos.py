"""``net_chaos``: the serve-net recovery path under a fixed fault plan.

Drive-mode serving through :class:`~repro.serve.FrontDoor` (what
:func:`~repro.serve.serve_clusters_net` runs) for Venus and Earth with
checkpoints every 50 batches, 2 workers, queue bound 16, and the
``serve_frontdoor`` exhibit's fault plan: Venus's worker is SIGKILLed at
batch 130 and ``link:w0`` is partitioned from frame 60.  This is the
only workload that takes checkpoints, respawns, reroutes and resumes.

Every seed serves the same number of jobs per shard (:data:`MAX_JOBS`);
the per-shard caps are why the front door is built here rather than
through ``serve_clusters_net``, which takes one cap for all shards.

Set-up is the trace warm-up plus the direct (in-process, checkpointing
at the same cadence) reference run the recovered reports must equal.
Per-batch latency runs from a batch's first send by the router to its
ack, observed after every router step, so batches caught by a fault
carry their recovery time.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

from .harness import Pass, children_cpu_seconds, cpu_seconds, median, percentile
from .tracing import traced

SHARDS = ("Venus", "Earth")
HISTORY_DAYS = 14
STREAM_DAYS = 3.0
#: jobs served per shard, whatever the seed
MAX_JOBS = {"Venus": 290, "Earth": 1_200}
CHECKPOINT_EVERY = 50
KILL_BATCH = 130
PARTITION_AT = 60
#: set-ups per pass; the median is reported
SETUPS = 3
#: passes per run
PASSES = 1


def _config():
    from repro.experiments.serving import smoke_serve_config

    return smoke_serve_config()


def _plan():
    from repro.framework import FaultPlan, FaultSpec

    return FaultPlan(seed=13, faults=(
        FaultSpec(key="Venus", kind="crash", at=KILL_BATCH),
        FaultSpec(key="link:w0", kind="partition", at=PARTITION_AT,
                  span=100_000),
    ))


def _net():
    from repro.serve import NetConfig

    return NetConfig(
        workers=2, queue_bound=16, rpc_deadline_s=1.5,
        resume_deadline_s=600.0, max_retries=2,
        backoff_base_s=0.01, backoff_cap_s=0.05,
    )


def _tasks():
    from repro.serve import ShardTask

    return [
        ShardTask(cluster=c, config=_config(), history_days=HISTORY_DAYS,
                  stream_days=STREAM_DAYS, max_jobs=MAX_JOBS[c],
                  checkpoint_every=CHECKPOINT_EVERY)
        for c in SHARDS
    ]


def _surface_digest(reports) -> str:
    from repro.serve import parity_surface

    return hashlib.sha256(parity_surface(reports)).hexdigest()


def record() -> dict:
    """Reference digest of the fault-free direct run (``run_shard``)."""
    from repro.serve import run_shard

    return {"parity_surface": _surface_digest([run_shard(t) for t in _tasks()])}


def _setup():
    """Trace warm-up plus the direct reference run, checkpointing at the
    chaos run's cadence; returns (seconds, reports)."""
    from repro.experiments import common
    from repro.serve import build_shard

    common.clear_scenario_caches()
    t0 = time.perf_counter()
    for cluster in SHARDS:
        common.cluster_gpu_trace(cluster)
    reports = []
    for task in _tasks():
        server, stream = build_shard(task)
        reports.append(server.run(
            stream, checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_sink=lambda ckpt: None,
        ))
    return time.perf_counter() - t0, reports


@contextlib.contextmanager
def _ack_latencies(out: list[float]):
    """Record first-send-to-ack seconds of every batch the router moves,
    by reading its routes' cursors after each ``Router.step``."""
    from repro.serve.net import Router

    step = Router.step
    first_sent: dict[tuple[str, int], float] = {}
    seen: dict[str, list[int]] = {}

    def observed(router):
        busy = step(router)
        now = time.perf_counter()
        for key, route in router.routes.items():
            sent_hi, acked_hi = seen.setdefault(key, [0, 0])
            for bi in range(sent_hi, route.next_send):
                first_sent[key, bi] = now
            for bi in range(acked_hi, route.acked):
                out.append(now - first_sent.pop((key, bi), now))
            seen[key] = [max(sent_hi, route.next_send), max(acked_hi, route.acked)]
        return busy

    Router.step = observed
    try:
        yield
    finally:
        Router.step = step


def run_pass(ref: dict | None, spans_dir=None, setups: int = SETUPS) -> Pass:
    with traced(spans_dir):
        return _run_pass(ref, setups)


def _run_pass(ref: dict | None, setups: int) -> Pass:
    from repro.serve import FrontDoor

    setup_s = []
    for _ in range(setups):
        seconds, direct = _setup()
        setup_s.append(seconds)

    latencies: list[float] = []
    cpu0, kids0 = cpu_seconds(), children_cpu_seconds()
    t0 = time.perf_counter()
    with _ack_latencies(latencies):
        reports, stats = FrontDoor(_tasks(), net=_net(), fault_plan=_plan()).run()
    wall = time.perf_counter() - t0
    router_cpu = cpu_seconds() - cpu0
    worker_cpu = children_cpu_seconds() - kids0

    result = Pass(setup_s=median(setup_s), wall_s=wall,
                  cpu_s=router_cpu + worker_cpu, attempted=len(latencies))
    digest = _surface_digest(reports)
    expected = (ref or {}).get("parity_surface")
    result.check("parity vs direct run", digest == _surface_digest(direct),
                 "merged parity_surface of the recovered run")
    result.check("parity vs reference", digest == expected,
                 f"sha256 {digest[:16]} vs {(expected or 'missing')[:16]}")
    result.check("faults fired", stats.respawns >= 1 and stats.reroutes >= 1,
                 f"respawns {stats.respawns}, reroutes {stats.reroutes}")
    result.named = {
        "net_chaos_s": (wall, "s"),
        "net_chaos_cpu_s": (router_cpu + worker_cpu, "s"),
    }
    ack_ms = [x * 1e3 for x in latencies]
    result.layer = {
        "net.ack_p50_ms": percentile(ack_ms, 50),
        "net.ack_p99_ms": percentile(ack_ms, 99),
        "router.cpu_s": router_cpu,
        "worker.cpu_s": worker_cpu,
        "net.busy_share": (router_cpu + worker_cpu) / wall,
        "router.frames_sent": float(stats.frames_sent),
        "router.acks": float(stats.acks),
        "router.max_queue_depth": float(stats.max_queue_depth),
        "router.retries": float(stats.retries),
        "router.reroutes": float(stats.reroutes),
        "router.respawns": float(stats.respawns),
        "router.dropped_frames": float(stats.dropped_frames),
    }
    return result
