"""Chaos coverage for the obs layer: spans/metrics must survive
SIGKILLed workers and checkpoint-resume without double-counting, and
metric totals must not depend on how shards are placed on workers.

The crash comparison surface is the published ``serve.*`` counters,
which the server derives from its checkpointed loop state exactly once
at the end of a completed run — the crash-recovery analogue of the
payload parity guarantee.  Live wall-clock histograms (phase timings,
heartbeat gaps) are per-attempt by construction and excluded there; in
a fault-free run their sample counts must match across topologies.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.framework import FaultPlan, FaultSpec, fork_available
from repro.serve import NetConfig, serve_clusters_net

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")

_TASK = dict(history_days=14, stream_days=1.0, max_jobs=400)

_CRASH_PLAN = FaultPlan(
    seed=7, faults=(FaultSpec(key="Venus", kind="crash", at=130),)
)


@pytest.fixture(autouse=True)
def clean_recorder():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _serve_counters(snap) -> dict:
    return {k: v for k, v in snap.counters.items() if k.startswith("serve.")}


def _routed_run(fault_plan, clusters=("Venus",), workers=1, config=None):
    reports, stats = serve_clusters_net(
        clusters, config, **_TASK, checkpoint_every=50, fault_plan=fault_plan,
        net=NetConfig(workers=workers, max_retries=2,
                      backoff_base_s=0.001, backoff_cap_s=0.01),
    )
    return reports, stats


@needs_fork
class TestCrashRecoveryObsParity:
    def test_sigkill_resume_totals_match_clean_run(self):
        """A SIGKILLed attempt's obs state dies with its worker; the
        resumed attempt republishes full totals from its checkpointed
        state — so a chaos run's serve.* counters equal a clean run's
        (replayed batches are not double-counted)."""
        obs.enable()
        (report_chaos,), stats = _routed_run(_CRASH_PLAN)
        chaos = _serve_counters(obs.snapshot())
        assert [outcome for _, _, outcome in stats.attempts] == ["crash", "ok"]
        assert chaos  # the resumed attempt did publish

        obs.reset()
        obs.enable()
        (report_clean,), _ = _routed_run(None)
        clean = _serve_counters(obs.snapshot())

        assert chaos == clean
        assert report_chaos.parity_bytes() == report_clean.parity_bytes()

    def test_supervisor_plane_saw_the_crash(self):
        """The router's counters record the crash and the respawn."""
        obs.enable()
        _routed_run(_CRASH_PLAN)
        snap = obs.snapshot()
        assert snap.counters["net.link_down.hangup"] == 1
        assert snap.counters["net.respawns"] == 1
        assert snap.counters["net.reroutes"] == 1
        # The dead attempt's serve.run span died with its worker; only
        # the resumed attempt's shard spans survive.
        assert sum(1 for s in snap.spans if s.name == "serve.run") == 1

    def test_disabled_obs_changes_nothing(self):
        """Chaos runs with obs off produce the identical report (the
        whole layer is out-of-band)."""
        (report_off,), _ = _routed_run(_CRASH_PLAN)
        assert obs.snapshot().empty
        obs.enable()
        (report_on,), _ = _routed_run(_CRASH_PLAN)
        assert report_off.parity_bytes() == report_on.parity_bytes()


@needs_fork
class TestTopologyIndependence:
    def test_totals_same_on_one_and_two_workers(self):
        """Venus+Earth on one worker (both sessions in one process,
        whose recorder drains when the first finishes) and on two must
        publish the same serve.* counters and histogram sample counts."""
        from repro.experiments.serving import smoke_serve_config

        totals = []
        for workers in (1, 2):
            obs.reset()
            obs.enable()
            _routed_run(None, clusters=("Venus", "Earth"), workers=workers,
                        config=smoke_serve_config())
            snap = obs.snapshot()
            hists = {
                name: hist.count for name, hist in snap.histograms.items()
                if name.startswith("serve.")
            }
            totals.append((_serve_counters(snap), hists))
        (counters1, hists1), (counters2, hists2) = totals
        assert counters1 == counters2
        assert hists1["serve.phase.node_sample_s"] > 0
        assert hists1 == hists2
