"""Scratch rolling-origin walk: the oracle for incremental fold walking.

:func:`repro.ml.evaluate_forecaster` advances a model fold to fold
through its ``update(new_points)`` when it has one, and re-fits a fresh
model at every origin when it does not.  :func:`scratch` hides
``update`` behind a proxy, so the same walk takes the re-fit path: the
pre-incremental evaluation, bit for bit.  It is what the package ran as
``mode="scratch"``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ml import evaluate_forecaster
from repro.stats.metrics import smape


class _FitForecastOnly:
    """A model's ``fit``/``forecast`` without its ``update``."""

    def __init__(self, model) -> None:
        self._model = model

    def fit(self, y: np.ndarray) -> "_FitForecastOnly":
        self._model.fit(y)
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        return self._model.forecast(horizon)


def scratch(make_model: Callable[[], object]) -> Callable[[], object]:
    """A model factory whose models re-fit from scratch at every fold."""
    return lambda: _FitForecastOnly(make_model())


def evaluate(
    make_model: Callable[[], object],
    series: np.ndarray,
    initial: int,
    horizon: int,
    step: int | None = None,
    metric: Callable[[np.ndarray, np.ndarray], float] = smape,
) -> float:
    """``evaluate_forecaster`` with a scratch re-fit at every origin."""
    return evaluate_forecaster(
        scratch(make_model), series, initial, horizon, step, metric
    )
