"""Tests for the time-series forecasters (AR, Fourier, Holt-Winters, LSTM)."""

import numpy as np
import pytest

from repro.ml import (
    ARIMAForecaster,
    FourierForecaster,
    HoltWintersForecaster,
    LSTMForecaster,
    LSTMParams,
    compare_forecasters,
    evaluate_forecaster,
    rolling_origin_splits,
    time_split,
    train_test_split,
)
from repro.stats import smape


def _seasonal_series(n=600, period=24, noise=0.3, trend=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        10.0
        + trend * t
        + 3.0 * np.sin(2 * np.pi * t / period)
        + 1.0 * np.cos(4 * np.pi * t / period)
        + noise * rng.normal(size=n)
    )


class TestARIMA:
    def test_ar1_recovery(self):
        """AR(1) with known phi: fitted coefficient should be close."""
        rng = np.random.default_rng(0)
        phi = 0.8
        y = np.zeros(2000)
        for t in range(1, 2000):
            y[t] = phi * y[t - 1] + rng.normal(0, 0.5)
        model = ARIMAForecaster(p=1, d=0).fit(y)
        assert model.coef_[0] == pytest.approx(phi, abs=0.05)

    def test_forecast_shape_and_continuity(self):
        y = _seasonal_series()
        fc = ARIMAForecaster(p=48, d=0).fit(y).forecast(24)
        assert fc.shape == (24,)
        assert abs(fc[0] - y[-1]) < 5.0

    def test_differencing_handles_trend(self):
        t = np.arange(300, dtype=float)
        y = 5.0 + 0.5 * t  # pure linear trend
        fc = ARIMAForecaster(p=2, d=1).fit(y).forecast(10)
        expect = 5.0 + 0.5 * np.arange(300, 310)
        np.testing.assert_allclose(fc, expect, rtol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ARIMAForecaster(p=0)
        with pytest.raises(ValueError):
            ARIMAForecaster(d=-1)
        with pytest.raises(ValueError):
            ARIMAForecaster(p=10).fit(np.arange(5.0))
        with pytest.raises(RuntimeError):
            ARIMAForecaster().forecast(3)
        with pytest.raises(ValueError):
            ARIMAForecaster(p=2, d=0).fit(np.arange(50.0)).forecast(0)


class TestFourier:
    def test_seasonal_fit(self):
        y = _seasonal_series(noise=0.1)
        model = FourierForecaster(periods=(24,), harmonics=3).fit(y)
        fc = model.forecast(48)
        truth = _seasonal_series(n=648, noise=0.0)[600:]
        assert smape(truth, fc) < 10.0

    def test_captures_trend(self):
        y = _seasonal_series(trend=0.05, noise=0.1)
        fc = FourierForecaster(periods=(24,)).fit(y).forecast(24)
        assert fc.mean() > y[:24].mean()  # trend continues upward

    def test_fitted_matches_series(self):
        y = _seasonal_series(noise=0.05)
        model = FourierForecaster(periods=(24,), harmonics=4).fit(y)
        assert smape(y, model.fitted()) < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FourierForecaster(harmonics=0)
        with pytest.raises(ValueError):
            FourierForecaster(periods=(1.0,))
        with pytest.raises(ValueError):
            FourierForecaster(periods=(24,)).fit(np.arange(3.0))
        with pytest.raises(RuntimeError):
            FourierForecaster().forecast(1)


class TestHoltWinters:
    def test_seasonal_forecast(self):
        y = _seasonal_series(noise=0.1)
        model = HoltWintersForecaster(season_length=24).fit(y)
        fc = model.forecast(48)
        truth = _seasonal_series(n=648, noise=0.0)[600:]
        assert smape(truth, fc) < 15.0

    def test_season_continuity(self):
        """Forecast season phase must continue from the series end."""
        period = 12
        t = np.arange(240)
        y = np.sin(2 * np.pi * t / period)
        fc = HoltWintersForecaster(season_length=period).fit(y).forecast(period)
        truth = np.sin(2 * np.pi * np.arange(240, 240 + period) / period)
        assert smape(truth + 2.0, fc + 2.0) < 20.0

    def test_explicit_params_skip_grid(self):
        y = _seasonal_series(n=200)
        m = HoltWintersForecaster(24, alpha=0.5, beta=0.1, gamma=0.2).fit(y)
        assert m.params_ == (0.5, 0.1, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            HoltWintersForecaster(season_length=1)
        with pytest.raises(ValueError):
            HoltWintersForecaster(season_length=24).fit(np.arange(10.0))
        with pytest.raises(RuntimeError):
            HoltWintersForecaster().forecast(5)


class TestLSTM:
    def test_learns_sine(self):
        y = _seasonal_series(n=400, noise=0.05)
        params = LSTMParams(window=24, hidden=12, epochs=15, random_state=0)
        model = LSTMForecaster(params).fit(y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]
        fc = model.forecast(24)
        assert fc.shape == (24,)
        # forecast stays in a sane range (not diverging)
        assert np.all(np.abs(fc - y.mean()) < 5 * y.std())

    def test_deterministic(self):
        y = _seasonal_series(n=200)
        p = LSTMParams(window=12, hidden=8, epochs=3, random_state=7)
        f1 = LSTMForecaster(p).fit(y).forecast(5)
        f2 = LSTMForecaster(p).fit(y).forecast(5)
        np.testing.assert_allclose(f1, f2)

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMParams(window=1)
        with pytest.raises(ValueError):
            LSTMForecaster(LSTMParams(window=50)).fit(np.arange(10.0))
        with pytest.raises(RuntimeError):
            LSTMForecaster().forecast(2)


class TestModelSelection:
    def test_time_split(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        train, test = time_split(times, 3.0)
        assert train.tolist() == [True, True, False, False]
        assert test.tolist() == [False, False, True, True]

    def test_train_test_split_disjoint(self):
        tr, te = train_test_split(100, 0.2, seed=1)
        assert len(set(tr) & set(te)) == 0
        assert len(tr) + len(te) == 100

    def test_train_test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(10, 0.0)

    def test_rolling_origin(self):
        splits = list(rolling_origin_splits(100, initial=60, horizon=10))
        assert len(splits) == 4
        first_train, first_test = splits[0]
        assert first_train == slice(0, 60)
        assert first_test == slice(60, 70)
        stepped = rolling_origin_splits(100, initial=60, horizon=10, step=15)
        assert [test.start for _, test in stepped] == [60, 75, 90]

    @pytest.mark.parametrize("step", [0, -1])
    def test_rolling_origin_rejects_non_positive_step(self, step):
        # unchecked, a negative step walks the origin backwards forever
        # (and evaluate_forecaster list()s the walk)
        with pytest.raises(ValueError, match="step"):
            list(rolling_origin_splits(10, 5, 2, step))
        with pytest.raises(ValueError, match="step"):
            evaluate_forecaster(
                lambda: FourierForecaster(periods=(24,)), np.ones(10), 5, 2, step
            )

    def test_evaluate_forecaster(self):
        y = _seasonal_series(n=300, noise=0.05)
        err = evaluate_forecaster(
            lambda: FourierForecaster(periods=(24,)), y, initial=200, horizon=24
        )
        assert err < 10.0

    def test_evaluate_too_short_raises(self):
        with pytest.raises(ValueError):
            evaluate_forecaster(lambda: None, np.arange(10.0), 20, 5)

    def test_compare_forecasters_orders_models(self):
        """On a seasonal series the seasonal models beat a naive AR(1)."""
        y = _seasonal_series(n=400, noise=0.1)
        scores = compare_forecasters(
            {
                "fourier": lambda: FourierForecaster(periods=(24,)),
                "ar1": lambda: ARIMAForecaster(p=1, d=0),
            },
            y,
            initial=300,
            horizon=24,
        )
        assert scores["fourier"] < scores["ar1"]
