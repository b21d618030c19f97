"""Ablations on the design choices of the paper's §4 framework.

* ``exp_ablation_lambda`` — the λ blend of Algorithm 1 (rolling-only vs
  GBDT-only vs mixtures).
* ``exp_ablation_forecaster`` — §4.3.2's model comparison: GBDT vs
  ARIMA vs Fourier/Prophet vs Holt-Winters vs LSTM on the Earth
  node-demand series (rolling-origin SMAPE).
* ``exp_ablation_buffer`` — Algorithm 2's σ buffer: parked nodes vs
  wake-up churn trade-off.
* ``exp_ablation_oracle`` — QSSF with perfect GPU-time knowledge:
  how much of the gap to SJF is prediction error.
"""

from __future__ import annotations

import numpy as np

from ..analysis import render_table
from ..energy import DRSParams, GBDTSeriesForecaster, run_drs_grid
from ..frame import Table
from ..ml import (
    ARIMAForecaster,
    FourierForecaster,
    HoltWintersForecaster,
    LSTMForecaster,
    LSTMParams,
    compare_forecasters,
)
from ..sched import (
    MLEstimator,
    OracleGpuTimeScheduler,
    QSSFScheduler,
    RollingEstimator,
    compute_metrics,
)
from ..sim import Simulator, running_nodes_series
from ..stats.timeseries import TimeGrid, resample_mean
from ..traces import slice_period
from . import common
from .energy_exp import ces_forecast

__all__ = [
    "exp_ablation_lambda",
    "exp_ablation_forecaster",
    "exp_ablation_buffer",
    "exp_ablation_oracle",
]


def exp_ablation_lambda(cluster: str = "Venus") -> dict:
    """Sweep the Algorithm-1 merging coefficient λ on one cluster."""
    gpu = common.cluster_gpu_trace(cluster)
    history = gpu.filter(gpu["submit_time"] < common.EVAL_MONTH * common.MONTH_SECONDS)
    sept = slice_period(
        gpu,
        common.EVAL_MONTH * common.MONTH_SECONDS,
        (common.EVAL_MONTH + 1) * common.MONTH_SECONDS,
    )
    spec = common.cluster_spec(cluster)
    # λ only reweights the blend — both estimators are λ-independent, so
    # one fit each serves the whole sweep (replays never mutate them).
    rolling = RollingEstimator().fit(history)
    ml = MLEstimator(common.QSSF_GBDT).fit(history)
    rows = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        sched = QSSFScheduler(
            history,
            lam=lam,
            gbdt_params=common.QSSF_GBDT,
            rolling=rolling,
            ml=ml,
        )
        res = Simulator(spec, sched).run(sept)
        m = compute_metrics(f"lam={lam}", res)
        pred = sched.predicted_durations(sept)
        err = float(
            np.median(np.abs(np.log((pred + 1) / (sept["duration"] + 1))))
        )
        rows.append(
            {
                "lambda": lam,
                "avg_jct_s": m.avg_jct,
                "avg_queue_s": m.avg_queue_time,
                "median_abs_log_error": err,
            }
        )
    table = Table.from_rows(rows)
    return {"table": table, "text": render_table(table, f"Ablation — λ blend ({cluster})")}


def exp_ablation_forecaster(hour_bins: bool = True) -> dict:
    """§4.3.2: which model class forecasts node demand best (SMAPE).

    Runs through the incremental rolling-origin engine: every model is
    fitted once and advanced fold to fold via its ``update()`` method
    (ARIMA's incremental fit is bit-exact with scratch; GBDT/LSTM
    continue training on the grown window, which slightly *improves*
    them over per-fold scratch fits — consistent with the paper's
    finding that GBDT is the strongest model class here).  Independent
    models fan out over the forked pool when CPUs allow (``jobs=0`` =
    one per CPU; degrades to serial inside orchestrator workers).
    """
    replay = common.full_replay("Earth")
    grid = TimeGrid(0.0, 600.0, common.MONTHS * 30 * 144)
    series = running_nodes_series(replay, grid)
    if hour_bins:  # hourly bins keep LSTM/HW training affordable
        series = resample_mean(series, 6)
        period = 24
    else:
        period = 144
    initial = int(len(series) * 0.8)
    horizon = period  # forecast one day ahead
    scores = compare_forecasters(
        {
            "GBDT": lambda: GBDTSeriesForecaster(),
            "ARIMA": lambda: ARIMAForecaster(p=2 * period, d=0),
            "Fourier(Prophet)": lambda: FourierForecaster(periods=(period, 7 * period)),
            "HoltWinters": lambda: HoltWintersForecaster(season_length=period),
            "LSTM": lambda: LSTMForecaster(
                LSTMParams(window=period, hidden=12, epochs=10)
            ),
        },
        series + 1.0,  # avoid zero-demand SMAPE blowups
        initial=initial,
        horizon=horizon,
        step=horizon * 2,
        jobs=0,
    )
    table = Table.from_rows(
        [{"model": k, "smape_%": v} for k, v in sorted(scores.items(), key=lambda kv: kv[1])]
    )
    return {
        "scores": scores,
        "table": table,
        "text": render_table(table, "Ablation — node-demand forecaster comparison (Earth)"),
    }


def exp_ablation_buffer(cluster: str = "Earth") -> dict:
    """Sweep Algorithm 2's σ buffer (fraction of nodes).

    One batched :func:`~repro.energy.fast_drs.run_drs_grid` call over
    the cluster's cached forecast — the sweep shares the single
    forecaster fit with Table 5 and costs only the controller walks.
    """
    fc = ces_forecast(cluster)
    fracs = (0.01, 0.04, 0.08, 0.15)
    grid = []
    for frac in fracs:
        grid.append(
            DRSParams(
                buffer_nodes=max(1, int(round(frac * fc.total_nodes))),
                recent_window_bins=6,
                recent_threshold=max(0.5, 0.006 * fc.total_nodes),
                future_threshold=max(0.5, 0.006 * fc.total_nodes),
            )
        )
    outs = run_drs_grid(fc.eval_demand, fc.future_forecast, fc.total_nodes, grid)
    rows = [
        {
            "sigma_frac": frac,
            "sigma_nodes": params.buffer_nodes,
            "avg_parked": out.avg_parked_nodes,
            "daily_wake_ups": out.daily_wake_ups,
            "util_ces_%": 100 * out.utilization_ces,
        }
        for frac, params, out in zip(fracs, grid, outs)
    ]
    table = Table.from_rows(rows)
    return {"table": table, "text": render_table(table, f"Ablation — DRS buffer σ ({cluster})")}


def exp_ablation_oracle(cluster: str = "Venus") -> dict:
    """QSSF with oracle GPU time vs predicted GPU time vs FIFO."""
    sept_fifo = common.september_replay(cluster, "FIFO")
    sept_qssf = common.september_replay(cluster, "QSSF")
    gpu = common.cluster_gpu_trace(cluster)
    sept = slice_period(
        gpu,
        common.EVAL_MONTH * common.MONTH_SECONDS,
        (common.EVAL_MONTH + 1) * common.MONTH_SECONDS,
    )
    oracle = Simulator(common.cluster_spec(cluster), OracleGpuTimeScheduler()).run(sept)
    rows = [
        {"policy": name, "avg_jct_s": m.avg_jct, "avg_queue_s": m.avg_queue_time}
        for name, m in (
            ("FIFO", compute_metrics("FIFO", sept_fifo)),
            ("QSSF(predicted)", compute_metrics("QSSF", sept_qssf)),
            ("QSSF(oracle gpu-time)", compute_metrics("oracle", oracle)),
        )
    ]
    table = Table.from_rows(rows)
    return {
        "table": table,
        "text": render_table(table, f"Ablation — prediction error cost ({cluster})"),
    }
