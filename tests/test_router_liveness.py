"""Router liveness primitives: retry backoff, heartbeats, fault firing.

Unit-level companions of the chaos suites: the deterministic backoff
schedule the breaker ladder and the front-door client share, the
heartbeat monitor behind the router's link liveness, the breaker's
retry budget, and the shard host's planned-fault firing (no fork
needed — the real side effects are stubbed).
"""

import pytest

from repro.framework import FaultPlan, FaultSpec, TransientWorkerFault
from repro.serve import NetConfig
from repro.serve.net import worker
from repro.serve.net.router import (
    HeartbeatMonitor,
    RouteState,
    Router,
    WorkerLink,
    backoff_delay,
)


class TestBackoff:
    def test_backoff_deterministic_and_bounded(self):
        assert backoff_delay("x", 0, 0.1, 1.0) == 0.0
        d1 = backoff_delay("x", 1, 0.1, 1.0)
        d2 = backoff_delay("x", 2, 0.1, 1.0)
        # same inputs, same jitter — no wall clock involved
        assert d1 == backoff_delay("x", 1, 0.1, 1.0)
        assert d1 != backoff_delay("y", 1, 0.1, 1.0)
        assert 0.1 <= d1 <= 0.2
        assert 0.2 <= d2 <= 0.4
        assert backoff_delay("x", 30, 0.1, 1.0) == 1.0

    def test_net_config_rejects_negative_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            NetConfig(backoff_base_s=-0.1)
        with pytest.raises(ValueError, match="backoff"):
            NetConfig(backoff_cap_s=-1.0)
        with pytest.raises(ValueError, match="max_retries"):
            NetConfig(max_retries=-1)


class _Gaps:
    def __init__(self):
        self.samples = []

    def record(self, value):
        self.samples.append(value)


class TestHeartbeatMonitor:
    def test_expires_after_silence_and_records_gaps(self):
        gaps = _Gaps()
        hb = HeartbeatMonitor(0.5, hist=gaps, now=10.0)
        assert not hb.expired(10.4)
        hb.beat(10.4)
        assert not hb.expired(10.8)
        assert hb.expired(10.95)
        assert gaps.samples == [pytest.approx(0.4)]

    def test_no_timeout_never_expires(self):
        hb = HeartbeatMonitor(None, now=0.0)
        assert not hb.expired(1e9)


class _Conn:
    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


class TestRetryBudget:
    """``max_retries`` bounds *consecutive* RPC-deadline stalls: an ack
    that advances the cursor resets the count, so a long run with
    scattered slow batches never takes its link down."""

    def _router(self, monkeypatch, max_retries=2):
        router = Router([], net=NetConfig(max_retries=max_retries))
        link = WorkerLink("w0", 0, proc=None, conn=_Conn(),
                          hb=HeartbeatMonitor(None, now=0.0))
        router.links["w0"] = link
        route = RouteState(type("T", (), {"shard_id": "m"})(),
                           batches=list(range(100)), total=100)
        route.worker = "w0"
        route.phase = "streaming"
        router.routes["m"] = route
        downs = []
        monkeypatch.setattr(
            router, "_link_down",
            lambda link, now, reason: downs.append(reason),
        )
        return router, link, route, downs

    def _ack(self, router, link, bi, now):
        router._handle(link, {"op": "ack", "cluster": "m", "bi": bi}, now)

    def test_scattered_stalls_between_progress_keep_link(self, monkeypatch):
        router, link, route, downs = self._router(monkeypatch)
        now = 0.0
        for cycle in range(6):
            for _ in range(router.cfg.max_retries):
                now += 1.0
                router._route_stalled(route, now)
            assert route.retries == router.cfg.max_retries
            self._ack(router, link, bi=10 * cycle, now=now)
            assert route.acked == 10 * cycle + 1
            assert route.retries == 0
        assert downs == []
        assert router.stats.retries == 6 * router.cfg.max_retries

    def test_consecutive_stalls_take_link_down(self, monkeypatch):
        router, link, route, downs = self._router(monkeypatch)
        self._ack(router, link, bi=5, now=0.0)
        for i in range(router.cfg.max_retries):
            router._route_stalled(route, 1.0 + i)
        # A stale ack (nothing new acknowledged) is not progress.
        self._ack(router, link, bi=3, now=5.0)
        assert route.acked == 6
        assert route.retries == router.cfg.max_retries
        assert downs == []
        router._route_stalled(route, 6.0)
        assert downs == ["unresponsive"]


class TestShardHostFaults:
    def _host(self, monkeypatch, faults):
        """A session-less host carrying ``faults``, with the process
        side effects recorded instead of taken."""
        calls = []
        monkeypatch.setattr(worker.time, "sleep", lambda s: calls.append(("sleep", s)))
        monkeypatch.setattr(worker.os, "kill", lambda pid, sig: calls.append(("kill", sig)))
        host = worker.ShardHost.__new__(worker.ShardHost)
        host.task = type("T", (), {"shard_id": "m"})()
        host.attempt = 0
        host.faults = faults
        return host, calls

    def test_stacked_faults_fire_at_their_batches(self, monkeypatch):
        import signal

        plan = FaultPlan(faults=(
            FaultSpec(key="m", kind="slow_start", at=5, delay_s=0.25),
            FaultSpec(key="m", kind="crash", at=100),
            FaultSpec(key="m", kind="hang", at=7),
        ))
        host, calls = self._host(monkeypatch, plan.process_faults_for("m", 0))
        for bi in range(101):
            host.fault_at(bi)
        assert calls == [("sleep", 0.25), ("sleep", 3600.0),
                         ("kill", signal.SIGKILL)]

    def test_exception_fault_raises_transient(self, monkeypatch):
        plan = FaultPlan(faults=(FaultSpec(key="m", kind="exception", at=2),))
        host, _ = self._host(monkeypatch, plan.process_faults_for("m", 0))
        host.fault_at(1)
        with pytest.raises(TransientWorkerFault, match="'m' attempt 0"):
            host.fault_at(2)
