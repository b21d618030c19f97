"""``frontdoor``: open-loop client traffic through the socket front door.

A listen-mode :class:`~repro.serve.FrontDoor` (2 workers,
``smoke_serve_config()``, Venus and Earth, 14-day history) runs in its
own forked process.  The generator is one thread holding one
connection per shard.  It is open loop: every batch is due at its
stream timestamp divided by :data:`SPEEDUP` (1.5 stream days in
eighteen wall seconds: ~73 batches/s offered on average and about twice
that while the capped jobs arrive, which keeps the busiest connection
under the rate at which a strict request-reply at today's ~5 ms accept
latency would queue).  Every seed streams the same number of jobs per
shard (:data:`MAX_JOBS`).  Latency runs from a
batch's due time to its ``accepted`` reply, busy retries included; a
refused or failed request counts as over any limit.

The generator also records how late it sent each request against the
moment it could have sent it (its due time, or the previous reply on
that connection, or a busy reply's retry-after).  When that lateness
rather than the front door would set the latency percentiles, the run
fails its ``generator`` check.

Rolling-only QSSF (λ = 1) keeps GBDT predict out of this workload.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import selectors
import struct
import time

from .harness import Pass, children_cpu_seconds, cpu_seconds, median, percentile
from .tracing import traced

SHARDS = ("Venus", "Earth")
HISTORY_DAYS = 14
STREAM_DAYS = 1.5
#: jobs streamed per shard, whatever the seed
MAX_JOBS = {"Venus": 140, "Earth": 600}
WORKERS = 2
#: stream seconds per wall second: 1.5 stream days in eighteen seconds
SPEEDUP = 7_200.0
#: set-ups per pass (spawn until every shard streams); median reported
SETUPS = 3
#: passes per run
PASSES = 1
#: the generator fails its check when its own lateness reaches half the
#: measured latency at the same percentile: from there on the generator,
#: not the front door, sets that percentile
MAX_LATE_SHARE = 0.5
STATUS_POLL_S = 0.005

_HEADER = struct.Struct(">I")


def _tasks():
    from repro.experiments.serving import smoke_serve_config
    from repro.serve import ShardTask

    cfg = smoke_serve_config()
    return [
        ShardTask(cluster=c, config=cfg, history_days=HISTORY_DAYS,
                  stream_days=STREAM_DAYS, max_jobs=MAX_JOBS[c])
        for c in SHARDS
    ]


def record() -> dict:
    """Reference digests from in-process runs of the same tasks
    (``run_shard``, the unit ``serve_clusters`` maps over)."""
    from repro.serve import run_shard

    return {t.cluster: hashlib.sha256(run_shard(t).parity_bytes()).hexdigest()
            for t in _tasks()}


# ----------------------------------------------------------------------
# The front door process
# ----------------------------------------------------------------------


class _PortSignal:
    """``FrontDoor.serve``'s ``ready`` hook: sends the bound port home."""

    def __init__(self, conn, front) -> None:
        self.conn = conn
        self.front = front

    def set(self) -> None:
        self.conn.send(self.front.port)


def _frontdoor_main(conn, tasks) -> None:
    from repro.serve import FrontDoor, NetConfig

    cpu0 = cpu_seconds()
    front = FrontDoor(tasks, net=NetConfig(workers=WORKERS))
    front.serve(ready=_PortSignal(conn, front))
    conn.send({
        "router_cpu_s": cpu_seconds() - cpu0,
        "worker_cpu_s": children_cpu_seconds(),
    })
    conn.close()


class _Server:
    """A front door process and the pipe that reports its port and CPU."""

    def __init__(self, tasks) -> None:
        from repro.experiments import common

        for task in tasks:  # workers inherit the traces copy-on-write
            common.cluster_gpu_trace(task.cluster)
        # fork, not spawn: the front door inherits the scenario seed, the
        # warm traces and, in a traced pass, the installed tracer
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_frontdoor_main, args=(child, tasks))
        self.proc.start()
        child.close()
        self.port = self.conn.recv()

    def finish(self) -> dict:
        cpu = self.conn.recv()
        self.proc.join(timeout=30)
        return cpu

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()


def _open_all(port: int, tasks):
    from repro.serve import FrontDoorClient

    clients = {}
    for task in tasks:
        client = FrontDoorClient("127.0.0.1", port)
        reply = client.request({"op": "open", "cluster": task.cluster})
        if reply.get("op") != "opened":
            raise RuntimeError(f"open {task.cluster}: {reply}")
        clients[task.cluster] = client
    for cluster, client in clients.items():
        while client.request({"op": "status", "cluster": cluster})["phase"] != "streaming":
            time.sleep(STATUS_POLL_S)
    return clients


def _close_all(clients) -> dict[str, dict]:
    """Close every shard, wait until each is done; final status replies."""
    for cluster, client in clients.items():
        client.request({"op": "close", "cluster": cluster})
    final = {}
    for cluster, client in clients.items():
        while True:
            reply = client.request({"op": "status", "cluster": cluster})
            if reply.get("phase") == "done":
                final[cluster] = reply
                break
            time.sleep(STATUS_POLL_S)
    return final


def _setup_only(tasks) -> float:
    """One extra set-up: spawn, wait until streaming, then shut down."""
    t0 = time.perf_counter()
    server = _Server(tasks)
    try:
        clients = _open_all(server.port, tasks)
        seconds = time.perf_counter() - t0
        _close_all(clients)
        for client in clients.values():
            client.close()
        server.finish()
    finally:
        server.kill()
    return seconds


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------


class _Conn:
    """One shard's connection, driven without blocking."""

    def __init__(self, cluster: str, client, batches, due) -> None:
        self.cluster = cluster
        self.client = client
        self.batches = batches
        self.due = due
        self.next = 0
        self.accepted = 0
        self.outstanding = False
        self.free_at = 0.0
        self.retry_at = 0.0
        self.buf = bytearray()

    def unaccepted(self) -> int:
        return len(self.batches) - self.accepted

    def ready_at(self) -> float:
        return max(self.due[self.next], self.free_at, self.retry_at)

    def send(self, pack) -> None:
        batch = self.batches[self.next]
        self.client.sock.sendall(pack({
            "op": "event", "cluster": self.cluster, "bi": self.next,
            "kind": int(batch.kind), "time": float(batch.time),
            "refs": [int(r) for r in batch.refs],
        }, fmt="json"))
        self.outstanding = True

    def replies(self, unpack):
        chunk = self.client.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("front door hung up")
        self.buf += chunk
        while len(self.buf) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self.buf)
            if len(self.buf) < _HEADER.size + length:
                break
            body = bytes(self.buf[_HEADER.size:_HEADER.size + length])
            del self.buf[:_HEADER.size + length]
            yield unpack(body)


def generate(conns: list[_Conn]) -> dict:
    """Send every batch of every connection on its schedule."""
    from repro.serve.net import pack, unpack

    # select(2) takes microsecond timeouts; epoll rounds up to whole
    # milliseconds, which alone would make every send ~0.5 ms late
    sel = selectors.SelectSelector()
    for conn in conns:
        sel.register(conn.client.sock, selectors.EVENT_READ, conn)
    latency, late = [], []
    requests = busy = refused = 0
    try:
        while any(c.next < len(c.batches) for c in conns):
            now = time.perf_counter()
            wake = None
            for conn in conns:
                if conn.outstanding or conn.next >= len(conn.batches):
                    continue
                at = conn.ready_at()
                if at <= now:
                    late.append(time.perf_counter() - at)
                    conn.send(pack)
                    requests += 1
                else:
                    wake = at if wake is None else min(wake, at)
            timeout = None if wake is None else max(wake - time.perf_counter(), 0.0)
            for key, _ in sel.select(timeout):
                conn = key.data
                for reply in conn.replies(unpack):
                    t = time.perf_counter()
                    conn.outstanding = False
                    conn.free_at = t
                    if reply.get("op") == "accepted":
                        latency.append(t - conn.due[conn.next])
                        conn.next += 1
                        conn.accepted += 1
                    elif reply.get("op") == "busy":
                        busy += 1
                        conn.retry_at = t + float(reply.get("retry_after_s", 0.0))
                    else:
                        # the shard's event order is broken from here on:
                        # abandon it; its batches count as failed
                        refused += 1
                        conn.next = len(conn.batches)
    finally:
        sel.close()
    # a batch never accepted waited at least until the generator gave up
    end = time.perf_counter()
    for conn in conns:
        latency.extend(end - d for d in conn.due[conn.accepted:])
    return {"latency": latency, "late": late, "requests": requests,
            "busy": busy, "refused": refused}


def run_pass(ref: dict | None, spans_dir=None, setups: int = SETUPS) -> Pass:
    from repro.experiments import common
    from repro.serve import build_stream

    tasks = _tasks()
    common.clear_scenario_caches()
    streams = {t.cluster: list(build_stream(t).batches(t.config.batch_window_s))
               for t in tasks}
    setup_s = [_setup_only(tasks) for _ in range(setups - 1)]

    with traced(spans_dir):
        t0 = time.perf_counter()
        server = _Server(tasks)
    try:
        clients = _open_all(server.port, tasks)
        setup_s.append(time.perf_counter() - t0)
        origin = min(b[0].time for b in streams.values())
        start = time.perf_counter() + 0.05
        conns = [
            _Conn(c, clients[c], batches,
                  [start + (b.time - origin) / SPEEDUP for b in batches])
            for c, batches in streams.items()
        ]
        gen = generate(conns)
        t_close = time.perf_counter()
        final = _close_all(clients)
        t_done = time.perf_counter()
        stats = next(iter(clients.values())).request({"op": "stats"})
        for client in clients.values():
            client.close()
        cpu = server.finish()
    finally:
        server.kill()

    n = sum(len(b) for b in streams.values())
    result = Pass(
        setup_s=median(setup_s), wall_s=t_done - start,
        cpu_s=cpu["router_cpu_s"] + cpu["worker_cpu_s"], attempted=n,
    )
    unaccepted = sum(c.unaccepted() for c in conns)
    result.check("every batch accepted", unaccepted == 0,
                 f"{unaccepted} of {n} never accepted")
    for cluster, status in final.items():
        expected = (ref or {}).get(cluster)
        result.check(
            f"parity {cluster}", status.get("parity_sha") == expected,
            f"status parity_sha {str(status.get('parity_sha'))[:16]} vs "
            f"reference {(expected or 'missing')[:16]}",
        )
    lat_ms = [x * 1e3 for x in gen["latency"]]
    late_ms = [x * 1e3 for x in gen["late"]]
    p50, p99 = percentile(lat_ms, 50), percentile(lat_ms, 99)
    late50, late99 = percentile(late_ms, 50), percentile(late_ms, 99)
    result.check(
        "generator", late50 < MAX_LATE_SHARE * p50 and late99 < MAX_LATE_SHARE * p99,
        f"send lateness p50/p99 {late50:.3f}/{late99:.3f} ms against "
        f"accept latency p50/p99 {p50:.3f}/{p99:.3f} ms",
    )
    result.named = {
        "frontdoor_accept_p50_ms": (p50, "ms"),
        "frontdoor_accept_p99_ms": (p99, "ms"),
    }
    wall = t_done - start
    result.layer = {
        "frontdoor.accept_p50_ms": p50,
        "frontdoor.accept_p99_ms": p99,
        "frontdoor.requests": float(gen["requests"]),
        "frontdoor.busy": float(gen["busy"]),
        "frontdoor.refused_share": (gen["busy"] + gen["refused"]) / gen["requests"],
        "frontdoor.drain_s": t_done - t_close,
        "frontdoor.gen_late_p99_ms": late99,
        "router.cpu_s": cpu["router_cpu_s"],
        "worker.cpu_s": cpu["worker_cpu_s"],
        "net.busy_share": result.cpu_s / wall,
        "router.frames_sent": float(stats["frames_sent"]),
        "router.acks": float(stats["acks"]),
        "router.max_queue_depth": float(stats["max_queue_depth"]),
        "router.retries": float(stats["retries"]),
        "router.reroutes": float(stats["reroutes"]),
        "router.respawns": float(stats["respawns"]),
        "router.dropped_frames": float(stats["dropped_frames"]),
    }
    return result
