"""``reproduce``: what a researcher runs, cold.

``python -m repro.experiments.runner table3 table5 ablation_forecaster
fig2 --jobs 2`` in a fresh process with an empty cache directory (via
``runner_child.py``, which also sets the scenario seed).  It exercises
``traces`` synthesis, ``sim`` replays, ``sched``/``ml`` fits, ``energy``
forecasts and DRS, ``analysis`` and the ``experiments`` pool and cache,
and does no serving.

Set-up is the time from spawn until the runner has imported, loaded
the registry and fingerprinted the source.  A run makes two passes, on
two scenarios: one cold reproduction varies by several percent from
scenario to scenario, and the mean of two moves less.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from .harness import WORK, Pass, children_cpu_seconds, median

EXHIBITS = ("table3", "table5", "ablation_forecaster", "fig2")
JOBS = 2
#: passes per run, each on the next pool scenario
PASSES = 2
#: set-ups per pass (the run's own plus setup-only processes); median
SETUPS = 3
CHILD = Path(__file__).resolve().parent / "runner_child.py"

#: wall-clock fields the golden-payload harness scrubs before digesting
VOLATILE_KEYS = frozenset(
    {"wall_seconds", "events_per_s", "qssf_latency", "ces_latency", "net_stats"}
)


def scrub(obj):
    """Drop volatile keys recursively (the golden harness's scrub)."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        items = [scrub(v) for v in obj]
        return tuple(items) if isinstance(obj, tuple) else items
    return obj


def payload_digest(payload: dict) -> str:
    from repro.experiments.cache import dumps_payload

    return hashlib.sha256(dumps_payload(scrub(payload))).hexdigest()


def _digests(cache_dir: Path) -> dict[str, str | None]:
    """Digest of every exhibit's artifact in ``cache_dir`` (None: missing)."""
    from repro.experiments import common
    from repro.experiments.cache import ArtifactCache, code_fingerprint

    cache = ArtifactCache(cache_dir)
    scenario = common.scenario_signature()
    fingerprint = code_fingerprint()
    out = {}
    for exp_id in EXHIBITS:
        payload = cache.load(ArtifactCache.key_for(exp_id, scenario, fingerprint))
        out[exp_id] = None if payload is None else payload_digest(payload)
    return out


def _child(args: list[str]) -> tuple[float, int]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0, proc.returncode


def _run_runner(spans_dir: Path | None) -> dict:
    from repro.experiments import common

    pass_dir = WORK / "reproduce"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    cache_dir, report, setup_out = (
        pass_dir / "cache", pass_dir / "report.json", pass_dir / "setup_s"
    )
    cpu0 = children_cpu_seconds()
    wall, code = _child([
        "run", repr(time.time()), str(common.SEED), str(setup_out),
        str(spans_dir) if spans_dir else "-",
        *EXHIBITS, "--jobs", str(JOBS), "--cache-dir", str(cache_dir),
        "-q", "--json", str(report),
    ])
    cpu = children_cpu_seconds() - cpu0
    out = {
        "wall": wall, "cpu": cpu, "code": code,
        "setup": float(setup_out.read_text()) if setup_out.exists() else None,
        "report": json.loads(report.read_text()) if report.exists() else None,
        "digests": _digests(cache_dir),
    }
    shutil.rmtree(pass_dir, ignore_errors=True)
    return out


def record() -> dict:
    return {exp_id: digest for exp_id, digest in _run_runner(None)["digests"].items()}


def run_pass(ref: dict | None, spans_dir=None, setups: int = SETUPS) -> Pass:
    setup_s = []
    for _ in range(setups - 1):
        seconds, code = _child(["setup", repr(time.time())])
        if code != 0:
            raise RuntimeError(f"runner set-up process exited {code}")
        setup_s.append(seconds)
    run = _run_runner(spans_dir)
    if run["report"] is None or run["setup"] is None:
        raise RuntimeError(f"runner process exited {run['code']} without a report")
    setup_s.append(run["setup"])

    profile = run["report"]["profile"]
    result = Pass(
        setup_s=median(setup_s), wall_s=run["wall"], cpu_s=run["cpu"],
        attempted=len(EXHIBITS),
    )
    result.check("runner exit code", run["code"] == 0, f"exit {run['code']}")
    for exp_id, digest in run["digests"].items():
        expected = (ref or {}).get(exp_id)
        result.check(
            f"payload {exp_id}", digest is not None and digest == expected,
            f"scrubbed payload sha256 {(digest or 'missing')[:16]} vs "
            f"reference {(expected or 'missing')[:16]}",
        )
    busy = sum(row["seconds"] for row in profile["exhibits"]
               if row["status"] == "computed")
    busy += sum(row["seconds"] for row in profile["precursors"]
                if row["where"] == "pool")
    result.named = {
        "reproduce_s": (run["wall"], "s"),
        "reproduce_cpu_s": (run["cpu"], "s"),
    }
    result.layer = {
        "experiments.pool_busy_share":
            busy / (run["report"]["wall_seconds"] * run["report"]["jobs"]),
    }
    return result
