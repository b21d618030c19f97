"""Job placement policies.

The paper's default is *ConsolidateAllocate* (§4.2.2): pack each job onto
as few nodes as possible to minimize communication overhead.  A 16-GPU
job on 8-GPU nodes must wait for two fully-idle nodes; a 4-GPU job takes
the best-fitting partially-free node.

These are the placement rules of the per-job reference replay loop
(:mod:`oracles.sim`).  Admission is gated on the VC's maintained
free-level counters (:attr:`oracles.cluster.VCState.level_counts`):
whether a placement exists — and at which free level the best-fit
remainder lands — is an O(gpus_per_node) counter lookup, so a *failed* attempt (the common case
for a blocked head-of-line queue) never scans the per-node ``free``
array.  Only a successful placement pays the O(nodes) index scan.
"""

from __future__ import annotations

import numpy as np

from oracles.cluster import VCState

__all__ = ["consolidate_place", "best_fit_level", "can_place"]

_EMPTY = np.empty(0, dtype=np.int64)


def best_fit_level(level_counts: list[int], full: int, rem: int, gpn: int) -> int:
    """Best-fit free level for the ``rem`` remainder, or -1 if infeasible.

    ``level_counts[l]`` counts nodes with exactly ``l`` free GPUs; the
    ``full`` nodes claimed whole are excluded from level ``gpn``.
    Returns 0 when ``rem == 0`` (nothing to place).

    The fast engine's ``place()`` (:mod:`repro.sim.fast`) *inlines* this
    same level search rather than calling it — a per-attempt function
    call is precisely what its hot loop avoids.  Keep the two in
    lockstep when changing the predicate; the parity suite
    (``tests/test_sim_parity.py``) is the guard.
    """
    if rem == 0:
        return 0
    for level in range(rem, gpn):
        if level_counts[level] > 0:
            return level
    if level_counts[gpn] - full > 0:
        return gpn
    return -1


def consolidate_place(
    vc: VCState, gpu_num: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Find a consolidated placement for ``gpu_num`` GPUs in ``vc``.

    Returns ``(local_node_indices, gpus_per_chosen_node)`` or ``None`` if
    the job cannot be placed right now.  Placement rules:

    * ``gpu_num // gpus_per_node`` fully-idle nodes for the whole part;
    * the remainder goes to the partially-free node with the *least*
      free GPUs that still fits (best fit → least fragmentation).
    """
    if gpu_num <= 0:
        raise ValueError("gpu_num must be positive for placement")
    gpn = vc.gpus_per_node
    full, rem = divmod(gpu_num, gpn)
    counts = vc.level_counts

    # O(gpn) admission gate: no free-array scan on failure.
    if full > 0 and counts[gpn] < full:
        return None
    level = best_fit_level(counts, full, rem, gpn)
    if level < 0:
        return None

    free = vc.free
    full_idx = _EMPTY
    if full > 0:
        fully_free = np.flatnonzero(free == gpn)
        full_idx = fully_free[:full]

    if rem == 0:
        return full_idx, np.full(len(full_idx), gpn, dtype=np.int64)

    # Best-fit node for the remainder: the first node sitting at the
    # gate-computed level (excluding the nodes claimed whole, which is
    # only possible when the level is gpn itself).
    if level == gpn:
        best = fully_free[full] if full > 0 else int(np.argmax(free == gpn))
    else:
        best = int(np.argmax(free == level))
    nodes = np.concatenate([full_idx, [best]])
    gpus = np.concatenate([np.full(len(full_idx), gpn, dtype=np.int64), [rem]])
    return nodes, gpus


def can_place(vc: VCState, gpu_num: int) -> bool:
    """Whether a consolidated placement currently exists (no side effects)."""
    if gpu_num <= 0:
        raise ValueError("gpu_num must be positive for placement")
    full, rem = divmod(gpu_num, vc.gpus_per_node)
    counts = vc.level_counts
    if full > 0 and counts[vc.gpus_per_node] < full:
        return False
    return best_fit_level(counts, full, rem, vc.gpus_per_node) >= 0
