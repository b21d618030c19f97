"""Tests of the benchmark itself (not of the package it measures).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, tracing  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402


# -- percentile helper ---------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(999), 99)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(19), 50)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(39), 75)


def test_percentile_with_enough_samples():
    assert harness.percentile(range(1000), 99) == pytest.approx(989.01)
    assert harness.percentile(range(20), 50) == pytest.approx(9.5)
    assert harness.percentile(range(40), 75) == pytest.approx(29.25)


# -- tracing: self times add up to the span total ------------------------


def leaf(x):
    time.sleep(0.002)
    return x


def middle(x):
    time.sleep(0.001)
    return leaf(x) + leaf(x)


def outer(x):
    return middle(x) + leaf(x)


def reentrant(n):
    return n if n == 0 else reentrant(n - 1)


_CALLS = tuple(
    (__name__, "", fn, f"t.{fn}", layer, None)
    for fn, layer in (("leaf", "ml"), ("middle", "sched"), ("outer", "serve"),
                      ("reentrant", "sim"))
)


def test_self_times_add_up_to_span_total(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.install(_CALLS)
    try:
        mod = sys.modules[__name__]
        mod.outer(1)
        mod.middle(2)
        mod.reentrant(5)
    finally:
        tracer.uninstall()
    tracer.dump()
    summary = tracing.summarize(tracing.load_spans(tmp_path))
    by_name = summary["by_name"]
    assert by_name["t.leaf"]["calls"] == 5
    assert by_name["t.reentrant"]["calls"] == 1  # re-entry folds into one span
    assert sum(summary["layer_self_s"].values()) == pytest.approx(
        summary["root_s"], rel=1e-9)
    # the outer span's self time excludes its timed children
    assert by_name["t.outer"]["self_s"] < 0.2 * by_name["t.outer"]["s"]
    assert not hasattr(sys.modules[__name__].leaf, "__wrapped__")


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in PER_LAYER]
    end_to_end = harness.Pass(setup_s=1.0, wall_s=1.0, cpu_s=1.0,
                              attempted=1).end_to_end()
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- a wrong reference digest fails the run -------------------------------


def test_wrong_reference_digest_fails_the_run(tmp_path, capsys):
    seed = harness.SEED_POOL[0]
    refs = harness.load_references()
    entry = refs[str(seed)]
    entry["frontdoor"] = dict(entry["frontdoor"], Earth="0" * 64)
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))

    code = run.main(["--workload", "frontdoor", "--seed", str(seed),
                     "--seconds", "0", "--references", str(path)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("check parity Earth: FAILED" in line for line in lines)
    assert any("check parity Venus: ok" in line for line in lines)
