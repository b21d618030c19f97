"""Batched-DRS parity suite: the batch engine vs the stepwise oracle.

The array-backed grid engine (:mod:`repro.energy.fast_drs`) must
produce **byte-identical** :class:`~repro.energy.drs.DRSOutcome` fields
— active series, demand, wake/woken/affected counters — for every row
of any batch, mirroring ``tests/test_sim_parity.py`` for the simulator
core.  Two layers:

* seeded fuzz over randomized demand/forecast series with randomized
  parameter grids (including the reactive baseline rewrite);
* the real scenario: the σ/ξ/window sweep grid on evaluation-window
  prefixes of all four Helios clusters plus Philly, demand taken from
  actual replay telemetry.

The oracle walks each case with the stepwise controller
(``tests/oracles/drs.py``).
"""

import numpy as np
import pytest

from repro.energy import (
    DRSCase,
    DRSParams,
    run_drs,
    run_drs_batch,
    run_drs_grid,
    run_vanilla_drs,
    run_vanilla_drs_batch,
)
from repro.experiments.energy_exp import sweep_param_grid

from oracles import drs as drs_oracle


def assert_outcomes_identical(fast, ref):
    """Byte-level equality of every DRSOutcome field."""
    assert fast.active.dtype == ref.active.dtype
    assert fast.active.tobytes() == ref.active.tobytes()
    assert fast.demand.dtype == ref.demand.dtype
    assert fast.demand.tobytes() == ref.demand.tobytes()
    assert fast.total_nodes == ref.total_nodes
    assert fast.wake_events == ref.wake_events
    assert fast.nodes_woken == ref.nodes_woken
    assert fast.affected_jobs == ref.affected_jobs
    assert fast.bins_per_day == ref.bins_per_day


def _random_case(rng) -> DRSCase:
    n = int(rng.integers(1, 300))
    total = int(rng.integers(1, 150))
    demand = np.round(rng.uniform(0, 1.2 * total, n))  # may exceed total
    forecast = np.maximum(0.0, demand + rng.normal(0, 0.05 * total, n))
    params = DRSParams(
        buffer_nodes=int(rng.integers(0, 8)),
        recent_window_bins=int(rng.integers(1, 20)),
        recent_threshold=float(rng.uniform(-2, 5)),
        future_threshold=float(rng.uniform(-2, 5)),
    )
    arrivals = (
        rng.integers(0, 7, n).astype(float) if rng.random() < 0.7 else None
    )
    return DRSCase(demand, forecast, total, params, arrivals)


class TestFuzzParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        cases = [_random_case(rng) for _ in range(int(rng.integers(1, 12)))]
        fast = run_drs_batch(cases)
        ref = drs_oracle.run_drs_batch(cases)
        for f, r in zip(fast, ref):
            assert_outcomes_identical(f, r)
        # the reactive rewrite must match the public single-run baseline
        for f, c in zip(run_vanilla_drs_batch(cases), cases):
            assert_outcomes_identical(
                f,
                run_vanilla_drs(
                    c.demand, c.total_nodes, c.params, c.arrivals_per_bin
                ),
            )

    def test_grid_matches_individual_runs(self):
        rng = np.random.default_rng(99)
        n, total = 500, 90
        demand = np.round(rng.uniform(0, total, n))
        forecast = np.roll(demand, -6)
        grid = sweep_param_grid(total)
        fast = run_drs_grid(demand, forecast, total, grid)
        for params, out in zip(grid, fast):
            assert_outcomes_identical(
                out, run_drs(demand, forecast, total, params)
            )

    def test_empty_batch(self):
        assert run_drs_batch([]) == []

    def test_single_empty_series(self):
        case = DRSCase(np.empty(0), np.empty(0), 10, DRSParams())
        (fast,) = run_drs_batch([case])
        (ref,) = drs_oracle.run_drs_batch([case])
        assert_outcomes_identical(fast, ref)
        assert fast.active.size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="must align"):
            run_drs_batch([DRSCase(np.zeros(5), np.zeros(4), 10, DRSParams())])
        with pytest.raises(ValueError, match="total_nodes"):
            run_drs_batch([DRSCase(np.zeros(5), np.zeros(5), 0, DRSParams())])
        with pytest.raises(ValueError, match="arrivals_per_bin"):
            run_drs_batch(
                [DRSCase(np.zeros(5), np.zeros(5), 10, DRSParams(), np.zeros(3))]
            )

    @pytest.mark.parametrize(
        "bad",
        [
            DRSCase(np.zeros(5), np.zeros(4), 10, DRSParams()),
            DRSCase(np.zeros(5), np.zeros(5), 0, DRSParams()),
            DRSCase(np.zeros(5), np.zeros(5), 10, DRSParams(), np.zeros(3)),
            DRSCase(np.zeros(5), np.zeros(5), 10, DRSParams(), np.zeros(8)),
            # several faults at once: the first check in order wins
            DRSCase(np.zeros(5), np.zeros(5), 0, DRSParams(), np.zeros(8)),
        ],
        ids=["forecast", "total_nodes", "arrivals-short", "arrivals-long",
             "total_nodes-first"],
    )
    def test_oracle_rejects_what_the_batch_rejects(self, bad):
        # unchecked, run_drs truncates longer arrivals silently and fails
        # with IndexError mid-walk on shorter ones
        good = DRSCase(np.ones(5), np.ones(5), 10, DRSParams())
        with pytest.raises(ValueError) as fast_exc:
            run_drs_batch([good, bad])
        with pytest.raises(ValueError) as ref_exc:
            drs_oracle.run_drs_batch([good, bad])
        assert str(fast_exc.value) == str(ref_exc.value)


@pytest.mark.slow  # full-horizon replays feed the real demand series
class TestClusterParity:
    """The paper's protocol: sweep grid on real evaluation-window demand."""

    def _real_case_rows(self, demand, total_nodes, horizon=18):
        forecast = np.empty_like(demand)
        forecast[:-horizon] = demand[horizon:]
        forecast[-horizon:] = demand[-1] if demand.size else 0.0
        rng = np.random.default_rng(7)
        arrivals = rng.integers(0, 5, demand.size).astype(float)
        return [
            DRSCase(demand, forecast, total_nodes, params, arrivals)
            for params in sweep_param_grid(total_nodes)
        ]

    @pytest.mark.parametrize("cluster", ["Venus", "Earth", "Saturn", "Uranus"])
    def test_helios_eval_window_prefix(self, cluster):
        from repro.experiments import common
        from repro.sim.telemetry import running_nodes_series
        from repro.stats.timeseries import TimeGrid

        replay = common.full_replay(cluster)
        start = common.EVAL_MONTH * common.MONTH_SECONDS
        grid = TimeGrid.covering(start, start + 7 * 86_400, 600)
        demand = running_nodes_series(replay, grid)  # 1-week eval prefix
        cases = self._real_case_rows(demand, replay.num_nodes)
        for f, r in zip(
            run_drs_batch(cases), drs_oracle.run_drs_batch(cases)
        ):
            assert_outcomes_identical(f, r)

    def test_philly_eval_window_prefix(self):
        from repro.experiments import common
        from repro.sim.telemetry import running_nodes_series
        from repro.stats.timeseries import TimeGrid
        from repro.traces import SECONDS_PER_DAY

        replay = common.philly_replay("FIFO", days=common.PHILLY_DAYS)
        start = 61 * SECONDS_PER_DAY
        grid = TimeGrid.covering(start, start + 7 * SECONDS_PER_DAY, 600)
        demand = running_nodes_series(replay, grid)
        cases = self._real_case_rows(demand, replay.num_nodes)
        for f, r in zip(
            run_drs_batch(cases), drs_oracle.run_drs_batch(cases)
        ):
            assert_outcomes_identical(f, r)

    def test_mixed_cluster_batch(self):
        """Helios + Philly rows of different lengths in one batch."""
        from repro.experiments import common
        from repro.sim.telemetry import running_nodes_series
        from repro.stats.timeseries import TimeGrid

        cases = []
        for cluster, days in (("Venus", 5), ("Earth", 3)):
            replay = common.full_replay(cluster)
            start = common.EVAL_MONTH * common.MONTH_SECONDS
            grid = TimeGrid.covering(start, start + days * 86_400, 600)
            demand = running_nodes_series(replay, grid)
            cases.extend(self._real_case_rows(demand, replay.num_nodes)[:6])
        for f, r in zip(
            run_drs_batch(cases), drs_oracle.run_drs_batch(cases)
        ):
            assert_outcomes_identical(f, r)
