"""The ``reproduce`` workload's fresh process: the experiment runner CLI.

Usage::

    python3 perfbench/runner_child.py setup SPAWN_TIME
    python3 perfbench/runner_child.py run SPAWN_TIME SEED SETUP_OUT SPANS_DIR|- RUNNER_ARGS...

``setup`` only imports the runner, loads the registry and computes the
source fingerprint (the work every cold runner does before its first
exhibit).  ``run`` does the same, writes its set-up seconds (since
``SPAWN_TIME``, the parent's ``time.time()`` at spawn) to ``SETUP_OUT``,
points the scenario at ``SEED`` and hands ``RUNNER_ARGS`` to
``python -m repro.experiments.runner``'s ``main``.  With a spans
directory the run is traced.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _ready(spawn_time: float) -> float:
    from repro.experiments import registry, runner  # noqa: F401
    from repro.experiments.cache import code_fingerprint

    code_fingerprint()
    return time.time() - spawn_time


def main(argv: list[str]) -> int:
    mode, spawn_time = argv[0], float(argv[1])
    setup_s = _ready(spawn_time)
    if mode == "setup":
        return 0
    seed, setup_out, spans_dir, runner_args = argv[2], argv[3], argv[4], argv[5:]
    Path(setup_out).write_text(repr(setup_s))

    from repro.experiments import common, runner

    common.SEED = int(seed)
    if spans_dir == "-":
        return runner.main(runner_args)
    from perfbench.tracing import traced

    with traced(Path(spans_dir)):
        return runner.main(runner_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
