"""Benchmark entry point: one workload per run, result as the last stdout line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload serve_model --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # headline table
    python3 perfbench/run.py --workload frontdoor --trace 1   # per-layer metrics
    python3 perfbench/run.py --record --seed 31 --references r31.json

A run makes whole passes of its workload, each on the next scenario
seed (:func:`perfbench.harness.scenario_seeds`), until it has made the
workload's ``PASSES`` and ``--seconds`` have passed; it reports the mean
over passes.  ``--trace 0`` measures with tracing off and reports the
end-to-end metrics.  ``--trace 1`` makes an untraced and then a traced
pass on one scenario and reports the per-layer metrics, each layer's
self time and the tracing overhead (traced over untraced CPU).  Every pass
checks its outputs against the references recorded for its scenario;
a failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402

#: the workloads ``BENCHMARK.json`` lists, whose end-to-end metrics carry bounds
WORKLOADS = ("reproduce", "serve_model", "frontdoor")
#: runnable by name, reported the same way, but not gated: see README
EXTRA_WORKLOADS = ("net_chaos",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=harness.SEED_POOL[0])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep making passes until this much time has "
                             "passed (after the workload's minimum)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record references for --seed (as that exact "
                             "scenario seed) and exit")
    parser.add_argument("--references", type=Path, default=harness.REFERENCES,
                        help="reference file to check against, or record "
                             "into (default: the one shipped here)")
    return parser


def _workload(name: str):
    return importlib.import_module(f"perfbench.{name}")


def _print_pass(name: str, scenario: int, p: harness.Pass) -> None:
    for check, ok, detail in p.checks:
        print(f"[{name} s{scenario}] check {check}: {'ok' if ok else 'FAILED'} {detail}")
    for metric, (value, unit) in p.named.items():
        print(f"[{name} s{scenario}] {metric} = {value:.6g} {unit}")


def _run_pass(name: str, module, refs: dict, scenario: int, **kwargs) -> harness.Pass:
    harness.use_scenario_seed(scenario)
    p = module.run_pass(harness.reference_for(refs, scenario, name), **kwargs)
    _print_pass(name, scenario, p)
    return p


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict) -> dict:
    module = _workload(name)
    if not trace:
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < module.PASSES or time.perf_counter() < deadline:
            scenario = harness.scenario_seeds(seed, refs, len(passes) + 1)[-1]
            passes.append(_run_pass(name, module, refs, scenario))
        per_pass = [p.end_to_end() for p in passes]
        metrics = {
            key: {"value": statistics.fmean(m[key]["value"] for m in per_pass),
                  "unit": per_pass[0][key]["unit"]}
            for key in per_pass[0]
        }
    else:
        # an untraced pass right before the traced one, same scenario: the
        # overhead must not pick up the host's drift between runs
        scenario = harness.scenario_seeds(seed, refs, 1)[0]
        spans_dir = harness.WORK / "spans" / name
        shutil.rmtree(spans_dir, ignore_errors=True)
        passes = [
            _run_pass(name, module, refs, scenario, setups=1),
            _run_pass(name, module, refs, scenario, spans_dir=spans_dir, setups=1),
        ]
        metrics = layer_metrics(spans_dir, passes[1], passes[0].cpu_s)
        print(f"[{name}] spans written to {spans_dir}")
    named = {f"setup_s ({name})": (statistics.fmean(p.setup_s for p in passes), "s")}
    for key, (_, unit) in passes[-1].named.items():
        named[key] = (statistics.fmean(p.named[key][0] for p in passes), unit)
    attempted = sum(p.attempted for p in passes)
    return {
        "correct": all(p.correct for p in passes),
        "attempted": attempted,
        "failed": min(attempted, sum(p.failed for p in passes)),
        "metrics": metrics,
        "named": named,
    }


def record(seed: int, names, path: Path) -> None:
    harness.use_scenario_seed(seed)
    recorded = {name: _workload(name).record() for name in names}
    refs = harness.load_references(path)
    refs.setdefault(str(seed), {}).update(recorded)
    harness.save_references(refs, path)
    print(f"recorded {', '.join(names)} references for seed {seed} in {path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (harness.SRC / "repro").is_dir():
        print(f"error: no repro package under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    names = WORKLOADS + EXTRA_WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        record(args.seed, names, args.references)
        return 0
    harness.WORK.mkdir(exist_ok=True)
    refs = harness.load_references(args.references)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), refs)
        for name in names
    }
    if len(names) == 1:
        result = results[names[0]]
        result.pop("named")
    else:
        print("headline metrics (mean over passes):")
        for r in results.values():
            for metric, (value, unit) in r.pop("named").items():
                print(f"  {metric:28s} {value:12.4f} {unit}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
