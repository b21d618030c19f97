"""Array-backed replay core: the engine behind :class:`repro.sim.Simulator`.

Same discrete-event semantics as the per-job reference loop kept next
to the tests (``tests/oracles/sim.py``) — byte-identical
:class:`ReplayResult` payloads, asserted by the parity suite — but
organised for throughput:

* **Struct-of-arrays job state.**  ``submit / duration / remaining /
  priority / start / end / run_started / epoch / preemptions`` live in
  flat per-field arrays (numpy at the boundary, Python scalar storage
  inside the loop) instead of one heap-allocated ``SimJob`` per job.
* **Integer-interned VCs.**  Jobs carry a VC *index*; per-VC state is a
  list indexed by it — no string hashing per event.
* **O(1) admission gate.**  Each VC maintains free-level counters
  (how many nodes sit at each free-GPU level), so a failed placement
  attempt — the common case for a blocked head-of-line queue — is a
  counter lookup.  Only a successful placement scans for node indices.
* **Finish-only event heap + presorted arrivals.**  Arrivals are known
  upfront; they are merged from a sorted array, so the heap holds only
  in-flight finish events (half the pushes, much smaller heap).
* **Batched same-timestamp admission.**  A burst of same-instant
  arrivals into a blocked VC re-checks the stalled head once (O(1))
  instead of re-scanning placement per arrival; the stall memo is
  invalidated whenever the VC frees capacity.
* **Preallocated telemetry buffers.**  Node-interval segments append
  into grow-by-doubling flat arrays instead of a list of tuples that is
  re-concatenated at the end.

Keep this core and the reference loop in lockstep when touching event
semantics.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..frame import Table
from ..traces.cluster import ClusterSpec

__all__ = ["IntervalBuffer", "replay_fast"]


class IntervalBuffer:
    """Grow-by-doubling columnar store for executed node segments."""

    def __init__(self, capacity: int = 1024) -> None:
        self._node = np.empty(capacity, dtype=np.int64)
        self._start = np.empty(capacity, dtype=np.float64)
        self._end = np.empty(capacity, dtype=np.float64)
        self._gpus = np.empty(capacity, dtype=np.int64)
        self.n = 0

    def _grow(self, need: int) -> None:
        cap = len(self._node)
        while cap < need:
            cap *= 2
        for name in ("_node", "_start", "_end", "_gpus"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def append(self, node: int, start: float, end: float, gpus: int) -> None:
        i = self.n
        if i == len(self._node):
            self._grow(i + 1)
        self._node[i] = node
        self._start[i] = start
        self._end[i] = end
        self._gpus[i] = gpus
        self.n = i + 1

    def table(self) -> Table:
        n = self.n
        return Table(
            {
                "node": self._node[:n].copy(),
                "start": self._start[:n].copy(),
                "end": self._end[:n].copy(),
                "gpus": self._gpus[:n].copy(),
            }
        )


def replay_fast(
    spec: ClusterSpec,
    trace: Table,
    priorities: np.ndarray,
    preemptive: bool,
    collect: bool,
    node_events=None,
):
    """Run the fast event loop; returns the raw state the caller wraps
    into a :class:`~repro.sim.engine.ReplayResult`.

    Returns ``(start, end, preemptions, intervals_table, num_nodes,
    total_gpus)`` where the first three are Python lists in trace row
    order (the SoA state, handed back for the result arrays).

    ``node_events`` is the *normalized* output of
    :func:`repro.sim.engine.normalize_node_events` — ``(time, vc_index,
    local_node, up)`` tuples in processing order.  A down node's free
    level is encoded as ``-1 - true_free`` so the exact-level placement
    scans can never match it; its free GPUs leave the counters/pool
    until the matching up event.
    """
    n = len(trace)

    # -- SoA job state (one flat array per field, no per-job objects) --
    submit = trace["submit_time"].astype(float).tolist()
    gpu_num = trace["gpu_num"].astype(np.int64).tolist()
    remaining = trace["duration"].astype(float).tolist()
    priority = np.asarray(priorities, dtype=float).tolist()
    start = [-1.0] * n
    end = [float("nan")] * n
    run_started = [float("nan")] * n
    epoch = [0] * n
    preempt = [0] * n

    # -- integer-interned VCs + per-VC state ---------------------------
    vc_index = {vc.name: k for k, vc in enumerate(spec.vcs)}
    names = trace["vc"].tolist() if n else []
    vc_id = [vc_index[v] for v in names]

    n_vcs = len(spec.vcs)
    gpn = [vc.gpus_per_node for vc in spec.vcs]
    free: list[list[int]] = []      # per-VC free GPUs per node
    counts: list[list[int]] = []    # per-VC free-level counters
    free_gpus = [0] * n_vcs
    base = [0] * n_vcs              # global node-id offset per VC
    next_node = 0
    for k, vc in enumerate(spec.vcs):
        free.append([vc.gpus_per_node] * vc.num_nodes)
        counts.append([0] * vc.gpus_per_node + [vc.num_nodes])
        free_gpus[k] = vc.num_nodes * vc.gpus_per_node
        base[k] = next_node
        next_node += vc.num_nodes
    num_nodes = next_node
    total_gpus = sum(vc.num_nodes * vc.gpus_per_node for vc in spec.vcs)

    queues: list[list] = [[] for _ in range(n_vcs)]
    #: jidx -> (local_nodes, gpus) — insertion-ordered like the
    #: reference's running dict (victim scan order depends on it)
    running: list[dict[int, tuple[list[int], list[int]]]] = [
        {} for _ in range(n_vcs)
    ]
    #: head jidx known not to fit given the VC's current free state
    stalled = [-1] * n_vcs

    intervals = IntervalBuffer() if collect else None

    # -- event sources: presorted arrivals + finish-only heap ----------
    arrivals = np.argsort(
        trace["submit_time"].astype(float), kind="stable"
    ).tolist()
    fheap: list[tuple[float, int, int, int]] = []  # (end, seq, jidx, epoch)
    heappush = heapq.heappush
    heappop = heapq.heappop

    seq = n
    qseq = 0

    def place(k: int, need: int):
        """Counter-gated consolidated placement.

        The reference loop's ``best_fit_level`` and ``consolidate_place``
        (``tests/oracles/placement.py``) inlined, node index scans
        included — one semantics, two copies kept in lockstep by the
        parity suite (calling out per attempt is what this loop avoids).
        """
        g = gpn[k]
        full = need // g
        rem = need - full * g
        cnt = counts[k]
        if full and cnt[g] < full:
            return None
        level = 0
        if rem:
            level = -1
            for lv in range(rem, g):
                if cnt[lv] > 0:
                    level = lv
                    break
            else:
                if cnt[g] - full > 0:
                    level = g
            if level < 0:
                return None
        # Success: scan for concrete node indices (rare vs attempts).
        fr = free[k]
        nodes: list[int] = []
        if full:
            found = 0
            for i, f in enumerate(fr):
                if f == g:
                    nodes.append(i)
                    found += 1
                    if found == full:
                        break
        gpus = [g] * len(nodes)
        if rem:
            if level == g:
                skip = full
                for i, f in enumerate(fr):
                    if f == g:
                        if skip:
                            skip -= 1
                            continue
                        nodes.append(i)
                        break
            else:
                nodes.append(fr.index(level))
            gpus.append(rem)
        return nodes, gpus

    def start_job(j: int, now: float, placed) -> None:
        nonlocal seq
        k = vc_id[j]
        nodes, gpus = placed
        fr = free[k]
        cnt = counts[k]
        for i, g in zip(nodes, gpus):
            f = fr[i]
            cnt[f] -= 1
            cnt[f - g] += 1
            fr[i] = f - g
            free_gpus[k] -= g
        if start[j] < 0:
            start[j] = now
        run_started[j] = now
        e = now + remaining[j]
        end[j] = e
        ep = epoch[j] + 1
        epoch[j] = ep
        running[k][j] = (nodes, gpus)
        heappush(fheap, (e, seq, j, ep))
        seq += 1

    def release_job(j: int, now: float) -> None:
        """Free the job's GPUs and log the executed segment."""
        k = vc_id[j]
        nodes, gpus = running[k].pop(j)
        fr = free[k]
        cnt = counts[k]
        for i, g in zip(nodes, gpus):
            f = fr[i]
            if f < 0:
                # Node failed while the job ran: GPUs return to the node's
                # encoded level only, never the pool (-1-(t+g) == f-g).
                fr[i] = f - g
                continue
            cnt[f] -= 1
            cnt[f + g] += 1
            fr[i] = f + g
            free_gpus[k] += g
        stalled[k] = -1  # capacity freed: a stalled head may fit now
        rs = run_started[j]
        if intervals is not None and now > rs:
            b = base[k]
            for i, g in zip(nodes, gpus):
                intervals.append(b + i, rs, now, g)

    def try_preempt(j: int, now: float) -> bool:
        """SRTF: evict longest-remaining running jobs to fit ``j``."""
        nonlocal qseq
        k = vc_id[j]
        rem_j = remaining[j]
        victims = sorted(
            (v for v in running[k] if (end[v] - now) > rem_j),
            key=lambda v: end[v] - now,
            reverse=True,
        )
        needed = gpu_num[j] - free_gpus[k]
        freed = 0
        chosen: list[int] = []
        for v in victims:
            if freed >= needed:
                break
            chosen.append(v)
            alloc = running[k][v]
            freed += sum(alloc[1])
        if freed < needed:
            return False
        q = queues[k]
        for v in chosen:
            r = end[v] - now
            remaining[v] = r if r > 0.0 else 0.0
            epoch[v] += 1  # invalidate the in-flight finish event
            release_job(v, now)
            preempt[v] += 1
            heappush(q, (remaining[v], qseq, v))
            qseq += 1
        return True

    def drain_vc(k: int, now: float) -> None:
        """Head-of-line scheduling for one VC queue."""
        q = queues[k]
        while q:
            j = q[0][2]
            if j == stalled[k]:
                return  # same blocked head, no capacity freed since
            placed = place(k, gpu_num[j])
            if placed is None:
                if not (preemptive and try_preempt(j, now)):
                    stalled[k] = j
                    break
                placed = place(k, gpu_num[j])
                if placed is None:
                    break  # fragmentation: freed GPUs not consolidatable
            heappop(q)
            start_job(j, now, placed)

    def fail_node(k: int, i: int) -> None:
        fr = free[k]
        f = fr[i]
        counts[k][f] -= 1
        free_gpus[k] -= f
        fr[i] = -1 - f

    def restore_node(k: int, i: int, now: float) -> None:
        fr = free[k]
        f = -1 - fr[i]
        counts[k][f] += 1
        free_gpus[k] += f
        fr[i] = f
        stalled[k] = -1  # returned capacity: a stalled head may fit now
        drain_vc(k, now)

    # -- the loop: merged finish-heap / arrival-array event stream -----
    ai = 0
    if not node_events:
        # Hot path: two-way merge, no per-iteration node-event checks.
        while ai < n or fheap:
            if fheap and (ai >= n or fheap[0][0] <= submit[arrivals[ai]]):
                now, _, j, ep = heappop(fheap)
                k = vc_id[j]
                if ep != epoch[j] or j not in running[k]:
                    continue  # stale event from a preempted run
                remaining[j] = 0.0
                release_job(j, now)
                drain_vc(k, now)
            else:
                j = arrivals[ai]
                ai += 1
                now = submit[j]
                k = vc_id[j]
                heappush(queues[k], (priority[j], qseq, j))
                qseq += 1
                drain_vc(k, now)
    else:
        # Three-way merge; same-instant order matches the reference
        # heap ranks: finish < node event < arrival.
        ev = node_events
        n_ev = len(ev)
        ei = 0
        inf = float("inf")
        while ai < n or ei < n_ev or fheap:
            t_f = fheap[0][0] if fheap else inf
            t_e = ev[ei][0] if ei < n_ev else inf
            t_a = submit[arrivals[ai]] if ai < n else inf
            if t_f <= t_e and t_f <= t_a:
                now, _, j, ep = heappop(fheap)
                k = vc_id[j]
                if ep != epoch[j] or j not in running[k]:
                    continue  # stale event from a preempted run
                remaining[j] = 0.0
                release_job(j, now)
                drain_vc(k, now)
            elif t_e <= t_a:
                now, k, local, up = ev[ei]
                ei += 1
                if up:
                    restore_node(k, local, now)
                else:
                    fail_node(k, local)
            else:
                j = arrivals[ai]
                ai += 1
                now = submit[j]
                k = vc_id[j]
                heappush(queues[k], (priority[j], qseq, j))
                qseq += 1
                drain_vc(k, now)

    itable = (
        intervals.table()
        if intervals is not None
        else Table(
            {
                "node": np.empty(0, dtype=np.int64),
                "start": np.empty(0),
                "end": np.empty(0),
                "gpus": np.empty(0, dtype=np.int64),
            }
        )
    )
    return start, end, preempt, itable, num_nodes, total_gpus
