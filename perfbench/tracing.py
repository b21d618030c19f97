"""Span tracing for the benchmark's traced runs, from outside the package.

The traced run wraps the public entry points of each layer (the
:data:`CALLS` table) so every call records a span: name, layer, start,
end and the enclosing span.  Spans stay in memory and are written out
once per process when it ends — forked workers (the experiment pool,
the serve-net shard workers) dump theirs from a ``multiprocessing``
finalizer, so nothing is written while a run is being measured.

A layer's *self time* is its spans' duration minus the time covered by
their timed children; summed over layers, self times equal the total
duration of the root spans (:func:`summarize`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import multiprocessing.util as mputil
import os
import sys
import time
import types
from pathlib import Path

__all__ = ["CALLS", "LAYERS", "Tracer", "load_spans", "summarize", "traced"]

#: the repository's layers, by module name (``serve.net`` holds the
#: front door and router in one process and the workers in its children)
LAYERS = (
    "traces", "sim", "sched", "ml", "energy", "analysis", "experiments",
    "framework", "serve", "serve.net",
)


def _len_arg(i):
    """Extra = ``len`` of positional argument ``i`` (rows, jobs)."""
    def extra(args, kwargs, result):
        return len(args[i]) if len(args) > i else 0
    return extra


def _checkpoint_bytes(args, kwargs, result):
    return len(result.blob)


def _artifact_bytes(args, kwargs, result):
    return Path(result).stat().st_size


def _batch_name(args, kwargs):
    from repro.serve.stream import FINISH, NODE_FAIL, NODE_SAMPLE, SUBMIT

    kind = args[2].kind
    return {SUBMIT: "serve.submit", FINISH: "serve.finish",
            NODE_SAMPLE: "serve.node", NODE_FAIL: "serve.node_fail"}[kind]


#: (module, owner path, attribute, span name, layer, extra) — ``owner
#: path`` empty means a module-level function, which is re-bound in every
#: ``repro`` module that imported it by name.
CALLS = (
    ("repro.experiments.common", "cluster_trace", "fn", "traces.synth", "traces", None),
    ("repro.experiments.common", "philly_trace", "fn", "traces.synth", "traces", None),
    ("repro.sim", "Simulator", "run", "sim.run", "sim", _len_arg(1)),
    ("repro.sched.estimators", "MLEstimator", "fit", "sched.fit", "sched", None),
    ("repro.sched.estimators", "MLEstimator", "update", "sched.fit", "sched", None),
    ("repro.sched.estimators", "RollingEstimator", "fit", "sched.fit", "sched", None),
    ("repro.sched.estimators", "MLEstimator", "estimate_many", "sched.estimate", "sched", None),
    ("repro.ml.gbdt", "GBDTRegressor", "fit", "ml.gbdt_fit", "ml", None),
    ("repro.ml.gbdt", "GBDTRegressor", "fit_more", "ml.gbdt_fit", "ml", None),
    ("repro.ml.gbdt", "GBDTRegressor", "predict", "ml.gbdt_predict", "ml", _len_arg(1)),
    ("repro.ml.arima", "ARIMAForecaster", "fit", "ml.forecaster_fit", "ml", None),
    ("repro.ml.arima", "ARIMAForecaster", "update", "ml.forecaster_fit", "ml", None),
    ("repro.ml.ets", "HoltWintersForecaster", "fit", "ml.forecaster_fit", "ml", None),
    ("repro.ml.ets", "HoltWintersForecaster", "update", "ml.forecaster_fit", "ml", None),
    ("repro.ml.fourier", "FourierForecaster", "fit", "ml.forecaster_fit", "ml", None),
    ("repro.ml.fourier", "FourierForecaster", "update", "ml.forecaster_fit", "ml", None),
    ("repro.ml.lstm", "LSTMForecaster", "fit", "ml.forecaster_fit", "ml", None),
    ("repro.ml.lstm", "LSTMForecaster", "update", "ml.forecaster_fit", "ml", None),
    ("repro.energy.forecaster", "NodeDemandForecaster", "fit", "energy.forecast_fit", "energy", None),
    ("repro.energy.forecaster", "NodeDemandForecaster", "predict_at", "energy.forecast_predict", "energy", None),
    ("repro.energy.forecaster", "NodeDemandForecaster", "extend", "energy.forecast_extend", "energy", None),
    ("repro.energy.fast_drs", "", "run_drs_batch", "energy.drs_batch", "energy", None),
    ("repro.energy.fast_drs", "", "run_drs_grid", "energy.drs_batch", "energy", None),
    ("repro.energy.drs", "DRSController", "step", "energy.drs_step", "energy", None),
    ("repro.experiments.common", "", "compute_precursor", "experiments.precursor", "experiments", None),
    ("repro.experiments.cache", "ArtifactCache", "store", "experiments.cache_store", "experiments", _artifact_bytes),
    ("repro.framework.orchestrator", "ResourceOrchestrator", "decide_many", "framework.decide", "framework", None),
    ("repro.framework.engine", "ModelUpdateEngine", "observe", "framework.observe", "framework", None),
    ("repro.serve.server", "ServingSession", "process", _batch_name, "serve", None),
    ("repro.serve.server", "ServingSession", "checkpoint", "serve.checkpoint", "serve", _checkpoint_bytes),
    ("repro.serve.server", "PredictionServer", "install_qssf", "serve.setup_qssf", "serve", None),
    ("repro.serve.server", "PredictionServer", "install_ces", "serve.setup_ces", "serve", None),
    ("repro.serve.net.router", "Router", "step", "net.router_step", "serve.net", None),
    ("repro.serve.net.frontdoor", "FrontDoor", "serve", "net.frontdoor", "serve.net", None),
    ("repro.serve.net.frontdoor", "FrontDoor", "run", "net.drive", "serve.net", None),
    ("repro.serve.net.worker", "", "worker_main", "net.worker", "serve.net", None),
)


#: imported before patching, so every by-name binding of a wrapped
#: module-level function already exists when it is re-bound
_PRELOAD = ("repro.experiments.registry", "repro.serve", "repro.energy")


class Tracer:
    """In-memory span recorder that patches :data:`CALLS` while active.

    One tracer per process tree: after a fork the child starts an empty
    span list and registers a finalizer that writes its spans to
    ``out_dir`` when the process exits.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []  # [name, layer, t0, t1, parent, extra]
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._dumped = False
        self.active = False

    # -- recording ------------------------------------------------------

    def call(self, fn, name, layer, extra, args, kwargs):
        label = name(args, kwargs) if callable(name) else name
        if self._open.get(label):
            # re-entry (fit -> fit_more): the outer span already covers it
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [label, layer, time.perf_counter(), None, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        self._open[label] = self._open.get(label, 0) + 1
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            self._open[label] -= 1
        if extra is not None:
            span[5] = extra(args, kwargs, result)
        return result

    # -- patching -------------------------------------------------------

    def install(self, calls=CALLS) -> None:
        """Wrap every entry point in ``calls`` (imports the modules)."""
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        for module_name, owner_path, attr, name, layer, extra in calls:
            module = importlib.import_module(module_name)
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, name, layer, extra)
            self._patch(owner, attr, original, wrapper)
            if not owner_path:
                # a function imported by name elsewhere: re-bind it there too
                for mod in list(sys.modules.values()):
                    if (mod is not module
                            and getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is original):
                        self._patch(mod, attr, original, wrapper)
        self._wrap_exhibits()
        self.active = True
        mputil.register_after_fork(self, Tracer._after_fork)

    def _wrap_exhibits(self) -> None:
        from repro.experiments.registry import SPECS

        for spec in SPECS.values():
            wrapper = self._wrapper(spec.fn, "analysis.exhibit", "analysis", None)
            self._patch(spec, "fn", spec.fn, wrapper)

    def _wrapper(self, fn, name, layer, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(fn, name, layer, extra, args, kwargs)

        return traced

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            _set(owner, attr, original)
        self._patched.clear()
        self.active = False

    # -- processes ------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.spans = []
        self._stack = []
        self._open = {}
        self._dumped = False
        mputil.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> Path | None:
        """Write this process's spans, once; a span still open ends now."""
        if self._dumped:
            return None
        self._dumped = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        now = time.perf_counter()
        spans = [s if s[3] is not None else s[:3] + [now] + s[4:] for s in self.spans]
        path.write_text(json.dumps({"pid": os.getpid(), "spans": spans}))
        return path


@contextlib.contextmanager
def traced(spans_dir: Path | None):
    """Trace this process (and the processes it forks) while inside the
    block; a ``None`` directory leaves tracing off."""
    if spans_dir is None:
        yield
        return
    tracer = Tracer(spans_dir)
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        tracer.dump()


def _set(owner, attr, value) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # instances: frozen registry entries, memo objects
        object.__setattr__(owner, attr, value)


def load_spans(out_dir: Path) -> list[list[list]]:
    """Every process's span list found under ``out_dir``."""
    return [
        json.loads(p.read_text())["spans"]
        for p in sorted(Path(out_dir).glob("spans-*.json"))
    ]


def summarize(processes: list[list[list]]) -> dict:
    """Aggregate per-process span lists.

    Returns ``{"by_name": {name: {"s", "calls", "extra", "self_s"}},
    "layer_self_s": {layer: s}, "root_s": total root-span seconds}``.
    Self time subtracts only children in the same process: a forked
    worker's spans never overlap its parent's timeline.
    """
    by_name: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_s = 0.0
    for spans in processes:
        child_s = [0.0] * len(spans)
        for name, layer, t0, t1, parent, extra in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for i, (name, layer, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            own = dur - child_s[i]
            entry = by_name.setdefault(
                name, {"s": 0.0, "calls": 0, "extra": 0, "self_s": 0.0}
            )
            entry["s"] += dur
            entry["calls"] += 1
            entry["extra"] += extra or 0
            entry["self_s"] += own
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if parent < 0:
                root_s += dur
    return {"by_name": by_name, "layer_self_s": layer_self, "root_s": root_s}
