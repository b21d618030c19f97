"""Per-case stepwise DRS walks: the oracle for the batched DRS engine.

This is the loop :func:`repro.energy.fast_drs.run_drs_batch` ran as its
``mode="reference"``: every case is walked on its own by
:func:`repro.energy.drs.run_drs`, which drives a
:class:`~repro.energy.drs.DRSController` bin by bin.  ``run_drs``
checks its inputs the way the batch does, so both reject the same
cases with the same error.
"""

from __future__ import annotations

from typing import Sequence

from repro.energy.drs import DRSOutcome, run_drs
from repro.energy.fast_drs import DRSCase


def run_drs_batch(cases: Sequence[DRSCase]) -> list[DRSOutcome]:
    """``run_drs_batch(cases)`` one stepwise controller walk at a time."""
    return [
        run_drs(
            c.demand,
            c.predicted_future,
            c.total_nodes,
            c.params,
            arrivals_per_bin=c.arrivals_per_bin,
        )
        for c in cases
    ]
