"""Shared pieces of the benchmark: paths, seeds, references, statistics.

Every workload returns one :class:`Pass` per measured execution;
``run.py`` turns passes into the JSON result line, and nothing in
here touches the ``repro`` package until :func:`use_scenario_seed` is
called, so importing this module is cheap and side-effect free.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for caches, span dumps and reports; git-ignored and
#: always inside the checkout
WORK = ROOT / ".perfbench"
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Scenario seeds that ``--seed`` values without references of their own
#: map onto.  The scenario generator draws each cluster's load from the
#: seed, so trace volume (and the cost of a cold reproduction) swings
#: about 1.4x across seeds; a benchmark run must carry comparable work
#: whatever its seed.  These are the ten of seeds 0-29 whose single cold
#: ``reproduce`` run was closest to the median on the reference host
#: (12.3-16.7 s over all thirty, 14.4-15.3 s over these ten, on a host
#: busy with other work at the time; alone it ran them in 11.6-13.7 s).
#: The package's own default, 42, is no member (its Philly trace is the
#: largest of 0-42 and a cold reproduction takes over twice as long);
#: its references ship all the same, so ``--seed 42`` runs as itself.
SEED_POOL = (0, 4, 6, 7, 9, 12, 13, 15, 21, 24)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to say anything."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``.

    Refuses, with :class:`InsufficientSamples`, when fewer than
    :data:`MIN_BEYOND` samples lie beyond it: with fewer, the figure is
    set by a handful of outliers and moves between identical runs.
    """
    data = sorted(values)
    n = len(data)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n * (100.0 - q) / 100.0:.1f}"
        )
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User + system CPU of this process (or of its reaped children)."""
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def children_cpu_seconds() -> float:
    return cpu_seconds(resource.RUSAGE_CHILDREN)


@dataclass
class Pass:
    """One measured execution of a workload.

    ``layer`` holds the per-layer figures the workload measured itself
    (latency percentiles, counters, CPU splits); ``named`` the headline
    figures printed by name in the human-readable table.
    """

    setup_s: float
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def end_to_end(self) -> dict[str, dict]:
        """The end-to-end metrics; every workload has all of them."""
        return {
            "setup_s": {"value": self.setup_s, "unit": "s"},
            "wall_s": {"value": self.wall_s, "unit": "s"},
            "cpu_s": {"value": self.cpu_s, "unit": "s"},
        }


# ----------------------------------------------------------------------
# Seeds and references
# ----------------------------------------------------------------------


def load_references(path: Path = REFERENCES) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def save_references(refs: dict, path: Path = REFERENCES) -> None:
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def scenario_seeds(seed: int, refs: dict, passes: int) -> list[int]:
    """The scenario seeds of a run's ``passes`` passes for ``--seed``.

    A seed with references of its own runs as itself in every pass.  Any
    other seed walks :data:`SEED_POOL` from ``seed % 10``, one scenario
    per pass, so a run's mean spans several scenarios; the pool's
    references ship with the benchmark, and a run whose outputs cannot be
    checked is not a measurement.  To measure on a fresh seed, record its
    references first (``run.py --record --seed N --references FILE``).
    """
    if str(seed) in refs:
        return [seed] * passes
    return [SEED_POOL[(seed + i) % len(SEED_POOL)] for i in range(passes)]


def use_scenario_seed(seed: int) -> None:
    """Point the shared experiment scenario at ``seed``.

    Must run before any trace is generated: the scenario's memoized
    generators read ``common.SEED`` on first use.
    """
    from repro.experiments import common

    common.clear_scenario_caches()
    common.SEED = seed


def reference_for(refs: dict, seed: int, workload: str) -> dict | None:
    return refs.get(str(seed), {}).get(workload)
