"""Dynamic Resource Sleep control (Algorithm 2).

The controller walks the demanded-nodes series (10-minute bins from
replay telemetry) and maintains the *active* node count:

* **JobArrivalCheck** — whenever demand exceeds the active pool, wake
  ``gap + σ`` nodes immediately (σ buffers unexpected arrivals).  Jobs
  arriving in that bin are "affected" (they wait one reboot).
* **PeriodicCheck** — every bin, park down to ``max(demand, predicted
  future demand) + σ`` when both trend guards pass: the pool active a
  window ago exceeds current demand by at least ``ξ_H``
  (RecentNodesTrend — "the reduced number of active nodes during a fixed
  past period"), and the active pool exceeds the predicted future demand
  by at least ``ξ_P`` beyond the buffer (FutureNodesTrend).  The future
  guard is what "circumvents incorrect DRS operations caused by
  prediction error" (§4.3.2): if the model predicts a rebound, nothing
  is parked.

The vanilla (reactive) DRS baseline tracks demand directly with no
prediction, incurring far more wake-ups (§4.3.3 reports 34.1/day vs
1.1–2.6/day for CES).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DRSController",
    "DRSParams",
    "DRSOutcome",
    "run_drs",
    "run_vanilla_drs",
    "run_always_on",
]


@dataclass(frozen=True)
class DRSParams:
    """Algorithm-2 knobs.

    Thresholds and buffer are in *nodes*; use :meth:`scaled` to derive
    them from the cluster size (the paper's ξ≈1 node and σ of a few
    nodes are calibrated to 130–550-node clusters — on a scaled-down
    replica the same absolute values would be far stricter).
    """

    buffer_nodes: int = 2           # σ
    recent_window_bins: int = 6     # 1 hour of 10-minute bins
    recent_threshold: float = 1.0   # ξ_H (nodes)
    future_threshold: float = 1.0   # ξ_P (nodes)
    bin_seconds: int = 600

    def __post_init__(self) -> None:
        if self.buffer_nodes < 0:
            raise ValueError("buffer_nodes must be >= 0")
        if self.recent_window_bins < 1:
            raise ValueError("recent_window_bins must be >= 1")
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")

    @classmethod
    def scaled(cls, total_nodes: int, bin_seconds: int = 600) -> "DRSParams":
        """Size-proportional knobs: σ ≈ 4% of nodes, ξ ≈ 0.6%."""
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        return cls(
            buffer_nodes=max(1, int(round(0.04 * total_nodes))),
            recent_window_bins=max(1, int(round(3_600 / bin_seconds))),
            recent_threshold=max(0.5, 0.006 * total_nodes),
            future_threshold=max(0.5, 0.006 * total_nodes),
            bin_seconds=bin_seconds,
        )


@dataclass
class DRSOutcome:
    """Result of a DRS run over an evaluation window."""

    active: np.ndarray          # active nodes per bin
    demand: np.ndarray          # demanded (running) nodes per bin
    total_nodes: int
    wake_events: int
    nodes_woken: int
    affected_jobs: int
    bins_per_day: float

    @property
    def avg_parked_nodes(self) -> float:
        """Table 5 "Average # of DRS nodes"."""
        return float(np.mean(self.total_nodes - self.active))

    @property
    def daily_wake_ups(self) -> float:
        days = len(self.active) / self.bins_per_day
        return self.wake_events / days if days > 0 else 0.0

    @property
    def avg_woken_per_wake(self) -> float:
        return self.nodes_woken / self.wake_events if self.wake_events else 0.0

    @property
    def utilization_original(self) -> float:
        """Node utilization with every node powered (demand / total)."""
        return float(np.mean(self.demand / self.total_nodes))

    @property
    def utilization_ces(self) -> float:
        """Node utilization against the active pool (demand / active)."""
        return float(np.mean(self.demand / np.maximum(self.active, 1e-9)))


def _wake_target(demand: float, sigma: int, total: int) -> float:
    """NodesWakeUp: restore the pool to ``demand + σ`` nodes (Alg 2 line 3,
    capped at the physical node count)."""
    return min(total, demand + sigma)


def _reactive_params(params: DRSParams) -> DRSParams:
    """Vanilla-DRS knobs: both trend guards disabled.

    With ``-inf`` thresholds the PeriodicCheck always parks down to the
    floor, and feeding the demand itself as the "forecast" makes that
    floor ``demand + σ`` — exactly the reactive baseline.  This is how
    :func:`run_vanilla_drs` shares the controller's wake/park arithmetic
    instead of duplicating it.
    """
    return replace(
        params,
        recent_threshold=float("-inf"),
        future_threshold=float("-inf"),
    )


class DRSController:
    """Stepwise Algorithm-2 controller: one :meth:`step` per bin.

    This is the *online* form of :func:`run_drs`: the batch function
    drives a controller bin by bin, so a serving loop stepping the same
    controller over a replayed stream produces byte-identical decisions
    to the batch replay — the parity the framework tests assert.

    State between steps is the current active pool, the trailing
    ``recent_window_bins`` of active levels (RecentNodesTrend), and the
    wake/affected counters.
    """

    def __init__(self, total_nodes: int, params: DRSParams | None = None) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        self.total_nodes = total_nodes
        self.params = params or DRSParams()
        self.cur = float(total_nodes)
        self.wake_events = 0
        self.nodes_woken = 0
        self.affected_jobs = 0
        self._active: list[float] = []
        self._demand: list[float] = []

    @property
    def steps(self) -> int:
        return len(self._active)

    def step(self, demand: float, predicted_future: float, arrivals: float = 0.0) -> float:
        """Advance one bin; returns the active pool after the decision.

        ``predicted_future`` estimates demand ``horizon`` ahead of this
        bin (FutureNodesTrend); ``arrivals`` counts jobs submitted in the
        bin, charged as affected when the bin forces a wake-up.
        """
        p = self.params
        t = len(self._active)
        cur = self.cur
        # JobArrivalCheck: demand beyond the active pool forces a wake.
        if demand > cur:
            new = _wake_target(demand, p.buffer_nodes, self.total_nodes)
            self.wake_events += 1
            self.nodes_woken += int(round(new - cur))
            self.affected_jobs += int(arrivals)
            cur = new
        # PeriodicCheck: park only when past AND future trends agree.
        else:
            past_active = (
                self._active[t - p.recent_window_bins]
                if t >= p.recent_window_bins
                else cur
            )
            recent_trend = past_active - demand
            floor = max(demand, predicted_future) + p.buffer_nodes
            future_trend = cur - floor
            if recent_trend >= p.recent_threshold and future_trend >= p.future_threshold:
                cur = min(cur, min(self.total_nodes, floor))
        self.cur = cur
        self._active.append(cur)
        self._demand.append(float(demand))
        return cur

    def outcome(self) -> DRSOutcome:
        """The window walked so far, packaged like :func:`run_drs`."""
        return DRSOutcome(
            active=np.asarray(self._active, dtype=float),
            demand=np.asarray(self._demand, dtype=float),
            total_nodes=self.total_nodes,
            wake_events=self.wake_events,
            nodes_woken=self.nodes_woken,
            affected_jobs=self.affected_jobs,
            bins_per_day=86_400.0 / self.params.bin_seconds,
        )


def run_drs(
    demand: np.ndarray,
    predicted_future: np.ndarray,
    total_nodes: int,
    params: DRSParams | None = None,
    arrivals_per_bin: np.ndarray | None = None,
) -> DRSOutcome:
    """Run predictive CES-DRS (Algorithm 2) over an evaluation window.

    Drives a :class:`DRSController` bin by bin — the batch and the
    streamed (serving-loop) evaluations share one decision code path.

    Parameters
    ----------
    demand:
        Demanded (running) nodes per bin.
    predicted_future:
        Forecast of demand ``future_window`` ahead, aligned per bin
        (``predicted_future[t]`` estimates demand at t + H).
    total_nodes:
        Physical node count.
    arrivals_per_bin:
        Job arrivals per bin; used to count affected jobs on wake-ups.
    """
    p = params or DRSParams()
    d = np.asarray(demand, dtype=float)
    fc = np.asarray(predicted_future, dtype=float)
    if d.shape != fc.shape:
        raise ValueError("demand and predicted_future must align")
    controller = DRSController(total_nodes, p)
    if arrivals_per_bin is None:
        arr = np.zeros_like(d)
    else:
        arr = np.asarray(arrivals_per_bin, dtype=float)
        if arr.shape != d.shape:
            raise ValueError("arrivals_per_bin must align with demand")
    for t in range(d.size):
        controller.step(d[t], fc[t], arr[t])
    return controller.outcome()


def run_vanilla_drs(
    demand: np.ndarray,
    total_nodes: int,
    params: DRSParams | None = None,
    arrivals_per_bin: np.ndarray | None = None,
) -> DRSOutcome:
    """Reactive DRS baseline: track demand with no future knowledge.

    Runs the same :class:`DRSController` walk as :func:`run_drs` under
    :func:`_reactive_params` (guards off, demand as its own forecast),
    so the baseline can never drift from Algorithm 2's wake/park
    arithmetic — and the batched engine in :mod:`repro.energy.fast_drs`
    accelerates it for free.
    """
    d = np.asarray(demand, dtype=float)
    return run_drs(
        d,
        d,
        total_nodes,
        _reactive_params(params or DRSParams()),
        arrivals_per_bin=arrivals_per_bin,
    )


def run_always_on(
    demand: np.ndarray, total_nodes: int, params: DRSParams | None = None
) -> DRSOutcome:
    """No-DRS baseline: every node stays powered (the "Original" row)."""
    p = params or DRSParams()
    d = np.asarray(demand, dtype=float)
    return DRSOutcome(
        active=np.full(d.size, float(total_nodes)),
        demand=d,
        total_nodes=total_nodes,
        wake_events=0,
        nodes_woken=0,
        affected_jobs=0,
        bins_per_day=86_400.0 / p.bin_seconds,
    )
