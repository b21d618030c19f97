"""Forecaster benchmarks: cold (scratch) vs warm (incremental) fold cost.

Each test prints ``BENCH {json}`` lines forming the cross-PR trajectory
(grep the suite output for ``BENCH``):

* ``forecaster_fold`` — per-model rolling-origin evaluation on a
  synthetic seasonal series, scratch re-fits (``tests/oracles/rolling.py``)
  vs the ``update()`` path,
  with the score drift between the two (the warm band the incremental
  engine promises);
* ``gbdt_fit_fast_vs_reference`` — one GBDT fit through the package's
  one-pass grower vs the per-feature reference loop
  (``tests/oracles/gbdt.py``), asserting the ≥3x floor the batched
  model-fit engine promises (the two ensembles are byte-identical, so
  the ratio is pure engine speedup);
* ``ablation_forecaster_e2e`` (slow) — the real §4.3.2 exhibit
  end-to-end, the chain that dominated ``run all`` before the
  incremental engine (PR 1 baseline: ~154 s of model fitting on the
  1-core container; warm target: ≤ 28 s).
"""

import json
import time

import numpy as np
import pytest

from oracles import gbdt as gbdt_oracle
from oracles import rolling
from repro.energy import GBDTSeriesForecaster
from repro.energy.forecaster import ForecastFeatures
from repro.ml import (
    ARIMAForecaster,
    FourierForecaster,
    GBDTParams,
    GBDTRegressor,
    HoltWintersForecaster,
    LSTMForecaster,
    LSTMParams,
    evaluate_forecaster,
)

PERIOD = 24
EVAL = dict(initial=720, horizon=PERIOD, step=2 * PERIOD)

_SMALL_FEATURES = ForecastFeatures(
    bin_seconds=3600, lags=(1, 2, 3, 24, 48), windows=(6, 24)
)

#: Bench-scale model zoo — same families as the §4.3.2 exhibit, sized so
#: the cold path stays inside the suite budget.
MODELS = {
    "GBDT": lambda: GBDTSeriesForecaster(features=_SMALL_FEATURES),
    "ARIMA": lambda: ARIMAForecaster(p=2 * PERIOD, d=0),
    "Fourier": lambda: FourierForecaster(periods=(PERIOD, 7 * PERIOD)),
    "HoltWinters": lambda: HoltWintersForecaster(season_length=PERIOD),
    "LSTM": lambda: LSTMForecaster(
        LSTMParams(window=PERIOD, hidden=12, epochs=6, update_epochs=2)
    ),
}


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(7)
    t = np.arange(960)
    return (
        30.0
        + 8.0 * np.sin(2 * np.pi * t / PERIOD)
        + 2.0 * np.sin(2 * np.pi * t / (7 * PERIOD))
        + rng.normal(0, 0.8, size=t.size)
    )


@pytest.mark.parametrize("name", list(MODELS))
def test_fold_cost_cold_vs_warm(name, series, capsys):
    factory = MODELS[name]
    t0 = time.perf_counter()
    cold_score = rolling.evaluate(factory, series, **EVAL)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_score = evaluate_forecaster(factory, series, **EVAL)
    warm_s = time.perf_counter() - t0

    # correctness guard rails alongside the timing trajectory: the warm
    # path must stay in a tight band of the scratch oracle, and the
    # exact-protocol models must match it outright.
    if name in ("ARIMA", "Fourier", "HoltWinters"):
        assert warm_score == pytest.approx(cold_score, rel=0.05)
    else:
        assert abs(warm_score - cold_score) / cold_score < 0.30
    # warm may never meaningfully cost more than scratch (absolute slack
    # covers scheduler jitter on the sub-10 ms models)
    assert warm_s <= cold_s * 1.10 + 0.05

    with capsys.disabled():
        print()
        print(
            "BENCH "
            + json.dumps(
                {
                    "bench": "forecaster_fold",
                    "model": name,
                    "cold_s": round(cold_s, 4),
                    "warm_s": round(warm_s, 4),
                    "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
                    "cold_smape": round(cold_score, 4),
                    "warm_smape": round(warm_score, 4),
                },
                sort_keys=True,
            )
        )


def test_gbdt_fit_fast_vs_reference(capsys):
    """One-pass GBDT fit vs the per-feature reference loop.

    The shape mirrors the experiment-scale QSSF/CES fits (a few hundred
    rows, ~two dozen features, depth-6 trees): per-feature numpy call
    overhead dominates the reference there, which is exactly what the
    one-``bincount``-per-statistic level pass plus frontier pruning
    removes.
    The ≥3x floor is the batched model-fit engine's acceptance bar; the
    byte-parity assert keeps the ratio honest (same trees, same floats).
    """
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 24))
    y = rng.normal(size=300)
    params = GBDTParams(
        n_estimators=60, learning_rate=0.2, max_depth=6, min_samples_leaf=30
    )

    def best_of(fit, reps=3):
        times, model = [], None
        for _ in range(reps):
            t0 = time.perf_counter()
            model = fit(params, X, y)
            times.append(time.perf_counter() - t0)
        return min(times), model

    ref_s, ref = best_of(gbdt_oracle.fit)
    fast_s, fast = best_of(lambda p, X, y: GBDTRegressor(p).fit(X, y))
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
    speedup = ref_s / fast_s
    with capsys.disabled():
        print()
        print(
            "BENCH "
            + json.dumps(
                {
                    "bench": "gbdt_fit_fast_vs_reference",
                    "reference_s": round(ref_s, 4),
                    "fast_s": round(fast_s, 4),
                    "speedup": round(speedup, 2),
                },
                sort_keys=True,
            )
        )
    assert speedup >= 3.0, f"fused fit engine below the 3x floor: {speedup:.2f}x"


@pytest.mark.slow
def test_ablation_forecaster_e2e(benchmark, capsys):
    """The §4.3.2 exhibit end-to-end through the incremental engine.

    PR 1 baseline on the 1-core container: ~154 s of model evaluation
    (GBDT ~75 s + LSTM ~75 s dominating).  The incremental engine's
    acceptance target is ≤ 28 s; the assert leaves headroom for slow CI
    hosts while still catching a regression to scratch re-fitting.
    """
    from repro.experiments import run_experiment
    from repro.experiments.common import full_replay

    full_replay("Earth")  # warm the precursor outside the clock
    payload = benchmark.pedantic(
        run_experiment, args=("ablation_forecaster",), rounds=1, iterations=1
    )
    seconds = benchmark.stats.stats.mean
    scores = payload["scores"]
    with capsys.disabled():
        print()
        print(payload.get("text", ""))
        print(
            "BENCH "
            + json.dumps(
                {
                    "bench": "ablation_forecaster_e2e",
                    "seconds": round(seconds, 2),
                    "scores": {k: round(v, 3) for k, v in sorted(scores.items())},
                },
                sort_keys=True,
            )
        )
    assert seconds < 60.0, "incremental engine regression: exhibit too slow"
    # §4.3.2 headline: GBDT is the strongest model class.
    assert scores["GBDT"] == min(scores.values()), scores