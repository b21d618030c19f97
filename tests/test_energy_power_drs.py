"""Tests for the power model and DRS controllers (Algorithm 2)."""

import numpy as np
import pytest

from repro.energy import (
    DRSOutcome,
    DRSParams,
    PowerModel,
    run_always_on,
    run_drs,
    run_vanilla_drs,
)


class TestPowerModel:
    def test_saved_kwh(self):
        pm = PowerModel(idle_node_watts=800, cooling_multiplier=3.0)
        # 10 nodes for 1 hour: 10 * 800W * 3 = 24 kWh
        assert pm.saved_kwh(10, 1.0) == pytest.approx(24.0)

    def test_annualized(self):
        pm = PowerModel()
        assert pm.annual_saved_kwh(1.0) == pytest.approx(0.8 * 3 * 8760)

    def test_paper_scale_annual_savings(self):
        """§4.3.3: ~80 parked nodes across 4 clusters -> >1.65M kWh/yr."""
        pm = PowerModel()
        parked_total = 5.0 + 20.5 + 20.0 + 34.0  # Table 5 row 1
        assert pm.annual_saved_kwh(parked_total) > 1.65e6

    def test_wake_overhead_positive(self):
        pm = PowerModel()
        assert pm.wake_overhead_kwh(10) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(idle_node_watts=0)
        with pytest.raises(ValueError):
            PowerModel(cooling_multiplier=0.5)
        with pytest.raises(ValueError):
            PowerModel().saved_kwh(1, -1)


class TestDRSParams:
    def test_scaled(self):
        p = DRSParams.scaled(143)
        assert p.buffer_nodes == 6
        assert p.recent_threshold == pytest.approx(0.858)
        assert p.recent_window_bins == 6

    def test_scaled_small_cluster_floors(self):
        p = DRSParams.scaled(10)
        assert p.buffer_nodes >= 1
        assert p.recent_threshold == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DRSParams(buffer_nodes=-1)
        with pytest.raises(ValueError):
            DRSParams.scaled(0)

    @pytest.mark.parametrize("bin_seconds", [0, -600])
    def test_non_positive_bin_rejected(self, bin_seconds):
        # unchecked, a zero bin runs the whole walk and then divides by
        # zero in outcome(); a negative one yields a meaningless
        # daily_wake_ups
        with pytest.raises(ValueError, match="bin_seconds"):
            DRSParams(bin_seconds=bin_seconds)
        with pytest.raises(ValueError, match="bin_seconds"):
            DRSParams.scaled(100, bin_seconds=bin_seconds)


def _sawtooth_demand(n=720, total=100):
    """Daily sawtooth: rises to ~80, falls to ~40 (144 bins/day)."""
    t = np.arange(n)
    return np.round(60 + 20 * np.sin(2 * np.pi * t / 144.0)).astype(float)


class TestRunDRS:
    def _perfect_forecast(self, demand, horizon=18):
        fc = np.empty_like(demand)
        fc[:-horizon] = demand[horizon:]
        fc[-horizon:] = demand[-1]
        return fc

    def test_parks_on_downtrends(self):
        d = _sawtooth_demand()
        out = run_drs(d, self._perfect_forecast(d), total_nodes=100,
                      params=DRSParams.scaled(100))
        assert out.avg_parked_nodes > 5.0
        assert out.utilization_ces > out.utilization_original

    def test_active_always_covers_demand_after_wake(self):
        d = _sawtooth_demand()
        out = run_drs(d, self._perfect_forecast(d), 100, DRSParams.scaled(100))
        # whenever demand exceeded the pool, the controller woke nodes
        assert np.all(out.active >= out.demand)

    def test_never_exceeds_total(self):
        d = _sawtooth_demand()
        out = run_drs(d, self._perfect_forecast(d), 100, DRSParams.scaled(100))
        assert out.active.max() <= 100

    def test_bad_forecast_more_wakes(self):
        """A constant-low forecast parks too eagerly and wakes more."""
        d = _sawtooth_demand()
        good = run_drs(d, self._perfect_forecast(d), 100, DRSParams.scaled(100))
        bad = run_drs(d, np.full_like(d, d.min()), 100, DRSParams.scaled(100))
        assert bad.wake_events >= good.wake_events

    def test_affected_jobs_counted(self):
        d = np.array([50.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 60.0])
        fc = np.full_like(d, 10.0)
        arrivals = np.full_like(d, 5.0)
        out = run_drs(d, fc, 100, DRSParams(buffer_nodes=1, recent_window_bins=1),
                      arrivals_per_bin=arrivals)
        assert out.wake_events >= 1
        assert out.affected_jobs >= 5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            run_drs(np.zeros(5), np.zeros(4), 10)

    def test_total_nodes_validation(self):
        with pytest.raises(ValueError):
            run_drs(np.zeros(5), np.zeros(5), 0)


class TestVanillaAndAlwaysOn:
    def test_vanilla_tracks_demand(self):
        d = _sawtooth_demand()
        out = run_vanilla_drs(d, 100, DRSParams.scaled(100))
        assert out.avg_parked_nodes > 10.0
        assert np.all(out.active >= out.demand)

    def test_vanilla_wakes_more_than_ces(self):
        """§4.3.3: vanilla DRS incurs far more wake-ups than CES."""
        rng = np.random.default_rng(0)
        d = _sawtooth_demand() + rng.integers(-3, 4, 720)
        fc = np.empty_like(d)
        fc[:-18] = d[18:]
        fc[-18:] = d[-1]
        params = DRSParams.scaled(100)
        ces = run_drs(d, fc, 100, params)
        vanilla = run_vanilla_drs(d, 100, params)
        assert vanilla.wake_events > ces.wake_events

    def test_always_on(self):
        d = _sawtooth_demand()
        out = run_always_on(d, 100)
        assert out.avg_parked_nodes == 0.0
        assert out.wake_events == 0
        assert out.utilization_ces == pytest.approx(out.utilization_original)


class TestOutcomeMetrics:
    def test_daily_wake_ups(self):
        out = DRSOutcome(
            active=np.full(288, 50.0),
            demand=np.full(288, 40.0),
            total_nodes=100,
            wake_events=4,
            nodes_woken=12,
            affected_jobs=2,
            bins_per_day=144.0,
        )
        assert out.daily_wake_ups == pytest.approx(2.0)
        assert out.avg_woken_per_wake == pytest.approx(3.0)
        assert out.avg_parked_nodes == pytest.approx(50.0)
        assert out.utilization_original == pytest.approx(0.4)
        assert out.utilization_ces == pytest.approx(0.8)
