"""Micro-benchmarks of the substrates (hpc-parallel guide: measure!).

These use multi-round timing (unlike the exhibit benches) so regressions
in the hot paths — histogram split search, event loop, trace synthesis,
interval rasterization — show up as timing changes.
"""

import numpy as np
import pytest

from repro.ml import Binner, GBDTParams, GBDTRegressor, levenshtein
from repro.sched import SJFScheduler
from repro.sim import Simulator
from repro.stats import TimeGrid, interval_load
from repro.traces import (
    ClusterSpec,
    HeliosTraceGenerator,
    SynthParams,
    VCSpec,
    is_gpu_job,
)
from repro.frame import Table


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20_000, 10))
    y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(0, 0.1, 20_000)
    return X, y


def test_gbdt_fit_20k(benchmark, regression_data):
    X, y = regression_data
    params = GBDTParams(n_estimators=20, max_depth=6)
    model = benchmark(lambda: GBDTRegressor(params).fit(X, y))
    assert model.staged_mse()[-1] < np.var(y)


def test_gbdt_fit_mixed_widths(benchmark):
    """The serving set-up fit shape: ~1k rows, 18 features of which half
    have at most 16 bins (calendar fields, small counts) and half up to
    257, 150 depth-6 trees.  Uniform widths (``test_gbdt_fit_20k``)
    cannot show what the ragged histogram layout saves."""
    rng = np.random.default_rng(0)
    n = 1_000
    narrow = rng.integers(0, np.arange(2, 11), size=(n, 9))
    wide = rng.normal(size=(n, 9))
    X = np.column_stack([narrow, wide]).astype(float)
    y = narrow[:, 0] + np.sin(wide[:, 0]) + rng.normal(0, 0.1, n)
    params = GBDTParams(n_estimators=150, max_depth=6, min_samples_leaf=20)
    model = benchmark(lambda: GBDTRegressor(params).fit(X, y))
    widths = model.binner_.widths
    assert (widths <= 16).sum() >= 9 and widths.max() > 200
    assert model.staged_mse()[-1] < np.var(y)


def test_gbdt_predict_20k(benchmark, regression_data):
    X, y = regression_data
    model = GBDTRegressor(GBDTParams(n_estimators=20)).fit(X, y)
    out = benchmark(model.predict, X)
    assert out.shape == (20_000,)


def test_gbdt_predict_single_row(benchmark, regression_data):
    """The QSSF/CES call shape: a full-size ensemble scoring one row per
    call, so per-call overhead dominates."""
    X, y = regression_data
    model = GBDTRegressor(GBDTParams(n_estimators=200, max_depth=6)).fit(
        X[:2_000], y[:2_000]
    )
    out = benchmark(model.predict, X[2_000:2_001])
    assert out.shape == (1,)


def test_binner_transform(benchmark, regression_data):
    X, _ = regression_data
    binner = Binner(max_bins=256).fit(X)
    out = benchmark(binner.transform, X)
    assert out.shape == X.shape


def test_trace_generation_one_month(benchmark):
    def gen():
        g = HeliosTraceGenerator(SynthParams(months=1, scale=0.05, seed=1))
        return g.generate_cluster("Venus")

    trace = benchmark(gen)
    assert len(trace) > 100


def test_simulator_throughput(benchmark):
    spec = ClusterSpec(
        name="B", gpus_per_node=8,
        vcs=(VCSpec("vc0", num_nodes=8, gpus_per_node=8),),
    )
    rng = np.random.default_rng(0)
    n = 20_000
    trace = Table(
        {
            "job_id": np.char.add("j", np.arange(n).astype("U8")),
            "cluster": np.full(n, "B"),
            "vc": np.full(n, "vc0"),
            "user": np.full(n, "u"),
            "name": np.full(n, "x"),
            "gpu_num": 2 ** rng.integers(0, 4, n),
            "cpu_num": np.ones(n, dtype=np.int64),
            "node_num": np.ones(n, dtype=np.int64),
            "submit_time": np.sort(rng.integers(0, 30 * 86_400, n)),
            "duration": rng.lognormal(5.0, 1.5, n),
            "status": np.full(n, "completed"),
        }
    )
    result = benchmark(lambda: Simulator(spec, SJFScheduler(), collect_node_intervals=False).run(trace))
    assert len(result.start_times) == n


def test_interval_load_rasterization(benchmark):
    rng = np.random.default_rng(0)
    n = 200_000
    starts = rng.uniform(0, 1e6, n)
    ends = starts + rng.uniform(1, 1e4, n)
    weights = rng.integers(1, 9, n).astype(float)
    grid = TimeGrid(0.0, 600.0, 2000)
    out = benchmark(interval_load, grid, starts, ends, weights)
    assert out.shape == (2000,)


def test_levenshtein_throughput(benchmark):
    rng = np.random.default_rng(0)
    alphabet = list("abcdefghij_")
    names = ["".join(rng.choice(alphabet, 20)) for _ in range(200)]

    def run():
        total = 0
        for a, b in zip(names[:-1], names[1:]):
            total += levenshtein(a, b)
        return total

    total = benchmark(run)
    assert total > 0
