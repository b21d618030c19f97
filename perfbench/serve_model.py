"""``serve_model``: the learned-model serving path, without the network.

Default :class:`~repro.serve.ServeConfig` (λ = 0.5, so QSSF orders
queues with the GBDT duration model and CES forecasts node demand with
its GBDT forecaster) for the Venus and Earth shards.  Set-up is trace
synthesis plus :func:`~repro.serve.build_shard` (the model fits); every
micro-batch is then pushed through
:meth:`~repro.serve.ServingSession.process` directly, timing each call.

Every seed serves the same number of jobs per shard (:data:`MAX_JOBS`,
at most what the sparsest scenario in the seed pool submits in the
window) over the same two stream days, so a run's work does not swing
with the scenario's load.  That leaves ~800-950 submit batches: the
submit tail reported is p98, the highest percentile with ten samples
beyond it.
"""

from __future__ import annotations

import hashlib
import time

from .harness import Pass, cpu_seconds, median, percentile
from .tracing import traced

SHARDS = ("Venus", "Earth")
HISTORY_DAYS = 14
STREAM_DAYS = 2.0
#: jobs served per shard, whatever the seed
MAX_JOBS = {"Venus": 200, "Earth": 860}
#: set-ups per pass; the median is reported
SETUPS = 3
#: passes per run
PASSES = 1


def _tasks():
    from repro.serve import ServeConfig, ShardTask

    return [
        ShardTask(cluster=c, config=ServeConfig(), history_days=HISTORY_DAYS,
                  stream_days=STREAM_DAYS, max_jobs=MAX_JOBS[c])
        for c in SHARDS
    ]


def _digest(report) -> str:
    return hashlib.sha256(report.parity_bytes()).hexdigest()


def record() -> dict:
    """Reference digests from the batch entry point ``PredictionServer.run``."""
    from repro.serve import build_shard

    out = {}
    for task in _tasks():
        server, stream = build_shard(task)
        out[task.cluster] = _digest(server.run(stream))
    return out


def _setup():
    from repro.experiments import common
    from repro.serve import build_shard

    common.clear_scenario_caches()
    t0 = time.perf_counter()
    built = [build_shard(task) for task in _tasks()]
    return time.perf_counter() - t0, built


def run_pass(ref: dict | None, spans_dir=None, setups: int = SETUPS) -> Pass:
    with traced(spans_dir):
        return _run_pass(ref, setups)


def _run_pass(ref: dict | None, setups: int) -> Pass:
    from repro.serve import ServingSession
    from repro.serve.stream import NODE_SAMPLE, SUBMIT

    setup_s = []
    for _ in range(setups):
        seconds, built = _setup()
        setup_s.append(seconds)

    submit_s: list[float] = []
    node_s: list[float] = []
    batches = 0
    reports = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for server, stream in built:
        session = ServingSession(server, stream)
        for bi, batch in enumerate(stream.play(server.config.batch_window_s)):
            t = time.perf_counter()
            session.process(bi, batch)
            dt = time.perf_counter() - t
            if batch.kind == SUBMIT:
                submit_s.append(dt)
            elif batch.kind == NODE_SAMPLE:
                node_s.append(dt)
        batches += session.cursor
        reports.append(session.finish())
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    result = Pass(setup_s=median(setup_s), wall_s=wall, cpu_s=cpu,
                  attempted=batches)
    for report in reports:
        digest = _digest(report)
        expected = (ref or {}).get(report.cluster)
        result.check(
            f"parity {report.cluster}", digest == expected,
            f"sha256(parity_bytes) {digest[:16]} vs reference "
            f"{(expected or 'missing')[:16]}",
        )
    submit_ms = [x * 1e3 for x in submit_s]
    result.layer = {
        "serve.events_per_s": sum(r.events for r in reports) / wall,
        "serve.submit_p50_ms": percentile(submit_ms, 50),
        "serve.submit_p98_ms": percentile(submit_ms, 98),
        "serve.ces_p50_ms": percentile(node_s, 50) * 1e3,
        "framework.refits": float(sum(
            c["refits"] for r in reports for c in r.refits.values()
        )),
    }
    result.named = {
        "serve_events_per_s": (result.layer["serve.events_per_s"], "1/s"),
        "serve_submit_p50_ms": (result.layer["serve.submit_p50_ms"], "ms"),
        "serve_submit_p98_ms": (result.layer["serve.submit_p98_ms"], "ms"),
        "serve_ces_p50_ms": (result.layer["serve.ces_p50_ms"], "ms"),
    }
    return result
