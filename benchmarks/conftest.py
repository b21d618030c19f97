"""Benchmark-suite configuration.

Each benchmark regenerates one paper exhibit (table or figure) exactly
once per run (``pedantic`` with a single round) — these are experiment
harnesses, not micro-benchmarks; see ``test_bench_micro.py`` for the
substrate micro-benchmarks.  Exhibit text is echoed so a benchmark run
doubles as the paper-reproduction report.

``tests/`` goes on the import path so benchmarks can time the package
against the test-side oracles (``tests/oracles``).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture
def run_exhibit(benchmark, capsys):
    """Run an experiment once under the benchmark clock and print it."""

    def _run(exp_id: str):
        from repro.experiments import run_experiment

        payload = benchmark.pedantic(
            run_experiment, args=(exp_id,), rounds=1, iterations=1
        )
        with capsys.disabled():
            print()
            print(payload.get("text", f"[{exp_id}] (no text)"))
        return payload

    return _run
