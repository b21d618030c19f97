"""Per-layer metrics of a traced run.

:data:`PER_LAYER` is the full list (the ``per_layer`` section of
``BENCHMARK.json`` is generated from it).  Every traced run reports all
of them; a layer a workload does not exercise reads 0.  Span-derived
figures, and the counters, CPU splits and latency percentiles the
workload measures itself, all come from the traced pass; the tracing
overhead compares its CPU with the untraced run's.
"""

from __future__ import annotations

from pathlib import Path

from .harness import Pass
from .tracing import LAYERS, load_spans, summarize

#: (metric, unit, better)
PER_LAYER = (
    ("traces.synth_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.run_calls", "count", "lower"),
    ("sim.jobs_per_s", "1/s", "higher"),
    ("sched.fit_s", "s", "lower"),
    ("sched.estimate_s", "s", "lower"),
    ("sched.estimate_calls", "count", "lower"),
    ("ml.gbdt_fit_s", "s", "lower"),
    ("ml.gbdt_fit_calls", "count", "lower"),
    ("ml.forecaster_fit_s", "s", "lower"),
    ("ml.gbdt_predict_s", "s", "lower"),
    ("ml.gbdt_predict_calls", "count", "lower"),
    ("ml.gbdt_predict_rows", "count", "lower"),
    ("energy.forecast_fit_s", "s", "lower"),
    ("energy.drs_batch_s", "s", "lower"),
    ("energy.forecast_predict_s", "s", "lower"),
    ("energy.forecast_predict_calls", "count", "lower"),
    ("energy.forecast_extend_s", "s", "lower"),
    ("energy.drs_step_s", "s", "lower"),
    ("experiments.precursor_s", "s", "lower"),
    ("experiments.cache_store_s", "s", "lower"),
    ("experiments.cache_bytes", "bytes", "lower"),
    ("experiments.pool_busy_share", "ratio", "higher"),
    ("framework.decide_s", "s", "lower"),
    ("framework.decide_calls", "count", "lower"),
    ("framework.observe_s", "s", "lower"),
    ("framework.refits", "count", "lower"),
    ("serve.events_per_s", "1/s", "higher"),
    ("serve.submit_p50_ms", "ms", "lower"),
    ("serve.submit_p98_ms", "ms", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.finish_s", "s", "lower"),
    ("serve.node_s", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.setup_qssf_s", "s", "lower"),
    ("serve.setup_ces_s", "s", "lower"),
    ("serve.ces_p50_ms", "ms", "lower"),
    ("serve.checkpoint_s", "s", "lower"),
    ("serve.checkpoint_calls", "count", "lower"),
    ("serve.checkpoint_bytes", "bytes", "lower"),
    ("frontdoor.accept_p50_ms", "ms", "lower"),
    ("frontdoor.accept_p99_ms", "ms", "lower"),
    ("frontdoor.requests", "count", "lower"),
    ("frontdoor.busy", "count", "lower"),
    ("frontdoor.refused_share", "ratio", "lower"),
    ("frontdoor.drain_s", "s", "lower"),
    ("frontdoor.gen_late_p99_ms", "ms", "lower"),
    ("router.cpu_s", "s", "lower"),
    ("worker.cpu_s", "s", "lower"),
    ("net.busy_share", "ratio", "higher"),
    ("net.ack_p50_ms", "ms", "lower"),
    ("net.ack_p99_ms", "ms", "lower"),
    ("router.frames_sent", "count", "lower"),
    ("router.acks", "count", "lower"),
    ("router.max_queue_depth", "count", "lower"),
    ("router.retries", "count", "lower"),
    ("router.reroutes", "count", "lower"),
    ("router.respawns", "count", "lower"),
    ("router.dropped_frames", "count", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead", "ratio", "lower"),
)

#: span name -> (seconds metric, calls metric, extra metric)
_FROM_SPANS = {
    "traces.synth": ("traces.synth_s", None, None),
    "sim.run": ("sim.run_s", "sim.run_calls", None),
    "sched.fit": ("sched.fit_s", None, None),
    "sched.estimate": ("sched.estimate_s", "sched.estimate_calls", None),
    "ml.gbdt_fit": ("ml.gbdt_fit_s", "ml.gbdt_fit_calls", None),
    "ml.forecaster_fit": ("ml.forecaster_fit_s", None, None),
    "ml.gbdt_predict": ("ml.gbdt_predict_s", "ml.gbdt_predict_calls",
                        "ml.gbdt_predict_rows"),
    "energy.forecast_fit": ("energy.forecast_fit_s", None, None),
    "energy.drs_batch": ("energy.drs_batch_s", None, None),
    "energy.forecast_predict": ("energy.forecast_predict_s",
                                "energy.forecast_predict_calls", None),
    "energy.forecast_extend": ("energy.forecast_extend_s", None, None),
    "energy.drs_step": ("energy.drs_step_s", None, None),
    "experiments.precursor": ("experiments.precursor_s", None, None),
    "experiments.cache_store": ("experiments.cache_store_s", None,
                                "experiments.cache_bytes"),
    "framework.decide": ("framework.decide_s", "framework.decide_calls", None),
    "framework.observe": ("framework.observe_s", None, None),
    "serve.submit": ("serve.submit_s", None, None),
    "serve.finish": ("serve.finish_s", None, None),
    "serve.node": ("serve.node_s", None, None),
    "serve.setup_qssf": ("serve.setup_qssf_s", None, None),
    "serve.setup_ces": ("serve.setup_ces_s", None, None),
    "serve.checkpoint": ("serve.checkpoint_s", "serve.checkpoint_calls",
                         "serve.checkpoint_bytes"),
}

_BATCH_SPANS = ("serve.submit", "serve.finish", "serve.node", "serve.node_fail")


def span_metrics(summary: dict) -> dict[str, float]:
    """The span-derived per-layer figures of one traced pass."""
    by_name = summary["by_name"]
    out: dict[str, float] = {}
    for span, (seconds, calls, extra) in _FROM_SPANS.items():
        entry = by_name.get(span, {"s": 0.0, "calls": 0, "extra": 0})
        out[seconds] = entry["s"]
        if calls:
            out[calls] = float(entry["calls"])
        if extra:
            out[extra] = float(entry["extra"])
    sim = by_name.get("sim.run")
    out["sim.jobs_per_s"] = sim["extra"] / sim["s"] if sim and sim["s"] else 0.0
    out["serve.batches"] = float(
        sum(by_name.get(s, {"calls": 0})["calls"] for s in _BATCH_SPANS)
    )
    for layer, seconds in summary["layer_self_s"].items():
        out[f"{layer}.self_s"] = seconds
    return out


def layer_metrics(spans_dir: Path, traced: Pass, untraced_cpu_s: float) -> dict:
    """Every :data:`PER_LAYER` metric for a traced run, with units."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(span_metrics(summarize(load_spans(spans_dir))))
    values.update(traced.layer)
    values["trace.overhead"] = traced.cpu_s / untraced_cpu_s - 1.0
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
