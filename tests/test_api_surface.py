"""API ratchet: the shipped package has one code path per kernel.

The simulator, the DRS batch engine, the LSTM fine-tune, the
rolling-origin walk and the Model Update Engine once carried a
``mode=`` switch whose only non-default use was selecting a
correctness oracle in tests.  The oracles live in ``tests/oracles``
now; these tests keep the switches from coming back.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import repro
import repro.sim
from repro.serve import ServeConfig


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # CLI entry points: importing them is harmless but
            # their argparse surface is not a Python API
        yield importlib.import_module(info.name)


def _public_callables():
    """``(qualified name, callable)`` for every public function, class
    ``__init__`` and method defined under :mod:`repro`."""
    seen = set()
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and obj not in seen:
                seen.add(obj)
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_walk_reaches_the_kernels():
    names = {name for name, _ in _public_callables()}
    for kernel in (
        "repro.sim.engine.Simulator.__init__",
        "repro.energy.fast_drs.run_drs_batch",
        "repro.ml.lstm.LSTMForecaster.__init__",
        "repro.ml.model_selection.evaluate_forecaster",
        "repro.framework.engine.ModelUpdateEngine.refit",
        "repro.serve.net.replicate.ModelUpdateHub.sync",
    ):
        assert kernel in names


def test_no_public_callable_takes_mode():
    offenders = sorted(
        name
        for name, fn in _public_callables()
        if "mode" in inspect.signature(fn).parameters
    )
    assert offenders == []


def test_serve_config_has_no_refit_overrides():
    fields = {f.name for f in dataclasses.fields(ServeConfig)}
    assert fields.isdisjoint({"refit_mode", "qssf_refit_mode"})


def test_sim_exports_pinned():
    assert sorted(repro.sim.__all__) == [
        "ReplayResult",
        "Simulator",
        "busy_gpus_series",
        "node_busy_intervals",
        "normalize_node_events",
        "running_nodes_series",
        "utilization_series",
    ]
