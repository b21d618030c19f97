"""Cross-host model replication: one trainer, many serving replicas.

The paper's prediction services assume *one* trained model consistently
applied across a cluster; with every serve-net shard fitting its own
copy, refit CPU multiplies by the replica count and decisions can
diverge between hosts.  This module centralizes training:

* :class:`ModelUpdateHub` — the router-side trainer.  It holds one
  fitted :class:`~repro.serve.server.PredictionServer` per cluster (the
  same deterministic ``build_shard`` the workers run) and answers
  versioned **sync requests**: a shard whose
  :class:`~repro.framework.engine.ModelUpdateEngine` runs delegated
  ships the observation delta since its previous refit; the hub replays
  the delta into its copy, performs the one real refit (same
  incremental/scratch decision the shard would have made), and returns
  a pickled model snapshot under
  :func:`~repro.ml.gbdt.keep_training_state` so continued boosting
  survives the wire.  Requests are idempotent per version — duplicates
  (retries, respawned workers re-requesting) get the cached blob, so
  the model is trained exactly once per version no matter how many
  replicas ask.

* :func:`replica_slice` — the deterministic stream partition for a
  replica group: submit batches round-robin by submit rank (each job is
  decided exactly once, by exactly one replica), finish batches
  broadcast to every replica (each must feed its rolling estimator with
  every finished job, or decisions would diverge from the merged-stream
  run), node batches to replica 0 only (the CES controller is a
  sequential stateful owner; ``CESNodeService.replicable`` is False and
  its refits stay owner-local).

Consistency argument (the byte-parity guarantee the chaos tests
assert): the hub's service copy sees exactly the events the shard's saw
— the initial history via ``build_shard``, then every delta in version
order — so the snapshot for version *v* equals the model a local refit
at *v* would have produced.  On install the shard re-feeds the events
it observed after cutting delta *v* (its engine's pending buffer) into
the incoming service, and defers serving while any version is in
flight, so no decision is ever made against a model the merged-stream
single-shard run would not have used.
"""

from __future__ import annotations

from ..runtime import ShardTask, build_shard
from ..server import PredictionServer
from ..stream import FINISH, SUBMIT

__all__ = ["ModelUpdateHub", "replica_slice"]


def replica_slice(batches: list, index: int, count: int) -> list:
    """The micro-batches replica ``index`` of ``count`` serves.

    Deterministic in the batch sequence alone: submit batches partition
    round-robin by submit rank, finish batches go to every replica,
    node-sample/node-fail batches to replica 0 (the CES owner).  Batch
    indices are re-numbered implicitly — a replica's session sees its
    own slice as a dense ``0..n`` sequence.
    """
    if count == 1:
        return list(batches)
    out = []
    rank = 0
    for batch in batches:
        if batch.kind == SUBMIT:
            take = rank % count == index
            rank += 1
        elif batch.kind == FINISH:
            take = True
        else:
            take = index == 0
        if take:
            out.append(batch)
    return out


class ModelUpdateHub:
    """Router-side central trainer: one model lineage per (cluster,
    service), versioned snapshots, idempotent sync."""

    def __init__(self) -> None:
        self._servers: dict[str, PredictionServer] = {}
        #: (cluster, service) -> {"applied": version, "blobs": {v: blob}}
        self._lineages: dict[tuple[str, str], dict] = {}
        self.refits = 0
        self.cached_hits = 0

    def ensure(self, task: ShardTask) -> PredictionServer:
        """Build (once) the hub's fitted server for a task's cluster.

        Replicas of one cluster share a lineage; ``build_shard`` is
        deterministic, so the hub's initial models are byte-identical to
        the ones each worker fits for itself.
        """
        server = self._servers.get(task.cluster)
        if server is None:
            server, _ = build_shard(task)
            self._servers[task.cluster] = server
        return server

    def sync(self, task: ShardTask, name: str, version: int,
             deltas: list, now: float) -> tuple[bytes, bool]:
        """Train (or fetch) the snapshot for one sync version.

        Returns ``(blob, fresh)`` — ``fresh`` False when the version was
        already trained and the cached blob is returned (duplicate
        request from a retry or a re-resumed worker).  A version more
        than one ahead of the lineage is a protocol bug: versions are
        cut at deterministic stream positions, so the first requester of
        version *v* is always at ``applied + 1``.
        """
        server = self.ensure(task)
        rec = self._lineages.setdefault(
            (task.cluster, name), {"applied": 0, "blobs": {}}
        )
        if version <= rec["applied"]:
            self.cached_hits += 1
            return rec["blobs"][version], False
        if version != rec["applied"] + 1:
            raise RuntimeError(
                f"sync version gap for {task.cluster}/{name}: "
                f"got v{version}, lineage at v{rec['applied']}"
            )
        engine = server.engine
        engine.ingest(name, list(deltas))
        engine.refit(name, float(now))
        blob = engine.snapshot_blob(name)
        rec["applied"] = version
        rec["blobs"][version] = blob
        self.refits += 1
        return blob, True

    def fits_performed(self, cluster: str, name: str) -> int:
        """Real model fits the hub executed for one lineage."""
        server = self._servers.get(cluster)
        return server.engine.fits_performed(name) if server else 0

    def fit_seconds(self, cluster: str, name: str) -> float:
        server = self._servers.get(cluster)
        return server.engine.fit_seconds(name) if server else 0.0
