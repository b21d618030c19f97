"""Batched-DRS benchmarks: fast grid engine vs the stepwise oracle.

``BENCH {json}`` lines (grep the suite output for ``BENCH``):

* ``drs_sweep`` — a σ/ξ/window parameter grid stepped over a synthetic
  month of demand through the batch engine and the per-case stepwise
  oracle (``tests/oracles/drs.py``); reports config×bin throughput
  each and the speedup.  The acceptance floor is a **5x** fast-vs-
  reference ratio (the struct-of-arrays walk typically lands ~10x),
  with byte-parity re-checked row by row on the same run.
* ``ces_table5`` — end-to-end wall time of the CES-funnel exhibit
  (``table5``: five clusters' forecast + control stages) — the batch
  engine's and the forecast split's effect on the ``run all`` critical
  path.
"""

import json
import time

import numpy as np
import pytest

from repro.energy import DRSCase, DRSParams, run_drs_batch

from oracles import drs as drs_oracle

_N_BINS = 4032          # four weeks of 10-minute bins
_TOTAL_NODES = 120
_SIGMAS = (1, 2, 3, 5, 8, 12)
_XIS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
_WINDOWS = (3, 6, 9, 12, 18, 24, 36, 72, 144, 288)


def _bench_line(payload: dict, capsys) -> None:
    with capsys.disabled():
        print()
        print("BENCH " + json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def sweep_cases():
    """A demanding grid: 480 configs over a bursty synthetic month."""
    rng = np.random.default_rng(5)
    t = np.arange(_N_BINS)
    demand = np.round(
        np.clip(
            60
            + 25 * np.sin(2 * np.pi * t / 144.0)
            + 10 * np.sin(2 * np.pi * t / 1008.0)
            + rng.normal(0, 4, _N_BINS),
            0,
            _TOTAL_NODES,
        )
    )
    horizon = 18
    forecast = np.empty_like(demand)
    forecast[:-horizon] = demand[horizon:]
    forecast[-horizon:] = demand[-1]
    arrivals = rng.integers(0, 6, _N_BINS).astype(float)
    return [
        DRSCase(
            demand,
            forecast,
            _TOTAL_NODES,
            DRSParams(
                buffer_nodes=sigma,
                recent_window_bins=window,
                recent_threshold=xi,
                future_threshold=xi,
            ),
            arrivals,
        )
        for sigma in _SIGMAS
        for xi in _XIS
        for window in _WINDOWS
    ]


def test_sweep_throughput_floor(sweep_cases, capsys):
    """Fast grid engine >= 5x the stepwise oracle on the same sweep."""
    t0 = time.perf_counter()
    ref = drs_oracle.run_drs_batch(sweep_cases)
    ref_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = run_drs_batch(sweep_cases)
    fast_wall = time.perf_counter() - t0

    config_bins = len(sweep_cases) * _N_BINS
    speedup = ref_wall / fast_wall
    _bench_line(
        {
            "bench": "drs_sweep",
            "configs": len(sweep_cases),
            "bins": _N_BINS,
            "config_bins": config_bins,
            "ref_wall_s": round(ref_wall, 3),
            "fast_wall_s": round(fast_wall, 3),
            "ref_config_bins_per_s": round(config_bins / ref_wall, 1),
            "fast_config_bins_per_s": round(config_bins / fast_wall, 1),
            "speedup": round(speedup, 2),
        },
        capsys,
    )
    # same run doubles as a sweep-scale parity check
    for f, r in zip(fast, ref):
        assert f.active.tobytes() == r.active.tobytes()
        assert f.wake_events == r.wake_events
        assert f.nodes_woken == r.nodes_woken
        assert f.affected_jobs == r.affected_jobs
    assert speedup >= 5.0, (
        f"fast grid engine only {speedup:.2f}x the stepwise oracle "
        f"({config_bins / fast_wall:.0f} vs {config_bins / ref_wall:.0f} "
        "config-bins/s); the acceptance floor is 5x"
    )


@pytest.mark.slow
def test_table5_end_to_end(capsys):
    """Wall time of the CES-funnel exhibit, split + batched engine."""
    from repro.experiments import run_experiment

    t0 = time.perf_counter()
    payload = run_experiment("table5")
    wall = time.perf_counter() - t0
    _bench_line(
        {"bench": "ces_table5", "wall_s": round(wall, 2)},
        capsys,
    )
    with capsys.disabled():
        print(payload.get("text", "(no text)"))
    assert "text" in payload
