"""Router liveness primitives: retry backoff, heartbeats, fault firing.

Unit-level companions of the chaos suites: the deterministic backoff
schedule the breaker ladder and the front-door client share, the
heartbeat monitor behind the router's link liveness, and the shard
host's planned-fault firing (no fork needed — the real side effects
are stubbed).
"""

import pytest

from repro.framework import FaultPlan, FaultSpec, TransientWorkerFault
from repro.serve import NetConfig
from repro.serve.net import worker
from repro.serve.net.router import HeartbeatMonitor, backoff_delay


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
