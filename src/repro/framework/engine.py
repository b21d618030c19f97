"""Model Update Engine (§4.1): keeps prediction models fresh.

The engine buffers run-time observations and refreshes each registered
service either on a fixed cadence (simulated time) or when triggered
explicitly.  This is the component that keeps "the prediction model ...
updated with new data" while the Resource Orchestrator keeps serving
requests from the current model.

Two refresh paths exist since the incremental-evaluation protocol:

* **scratch** — ``service.fit(history_builder(all observations))``: the
  original full refit.  Always correct, kept as the fallback and as the
  correctness oracle the incremental path is tested against.
* **incremental** — ``service.apply_update(history_builder(new
  observations))``: drives the forecasters' ``update()``/``extend()``
  protocol so a long-running serving loop advances its models in O(new
  data) instead of O(all data).

Each refit takes incremental whenever the service declares
``supports_incremental`` (read at every refit) and already has a fitted
model, and scratch otherwise.  A service forces scratch refits by
declaring ``supports_incremental`` False; the QSSF degradation ladder
does exactly that (``QSSFService.refit_mode = "scratch"``).

A third path exists for multi-host serving: **delegated**.  With
``engine.delegated = True`` a due refit does not train locally — the
engine drains the pending buffer into a versioned *sync request* (the
observation delta since the previous refit) and queues it on an outbox
for the replication channel to ship to a central trainer.  The trained
model comes back as a pickled snapshot installed via
:meth:`install_snapshot`, which is version-gated (stale snapshots are
dropped, gaps rejected) and re-observes any events buffered since the
delta was cut so the installed service is byte-identical to one that
refit locally.  Sync requests stay on the outbox until their version is
installed, so a checkpoint taken mid-flight re-requests them on resume.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any

from .parallel import map_threaded
from .service import PredictionService

__all__ = ["ModelUpdateEngine", "UpdatePolicy"]


@dataclass(frozen=True)
class UpdatePolicy:
    """When to refit: every ``interval_seconds`` of simulated time, or
    after ``max_buffered`` new observations, whichever comes first."""

    interval_seconds: float = 86_400.0
    max_buffered: int = 50_000

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.max_buffered < 1:
            raise ValueError("max_buffered must be >= 1")


@dataclass
class _ServiceState:
    service: PredictionService
    history_builder: Any  # Callable[[list], Any]: observations -> fit input
    update_builder: Any  # Callable[[list], Any]: new observations -> delta
    last_refit_time: float = 0.0
    history: list = field(default_factory=list)  # every observation ever
    pending: list = field(default_factory=list)  # since the last refit
    fitted: bool = False
    refit_count: int = 0
    incremental_refits: int = 0
    #: replication version vector: ``sync_version`` counts refits whose
    #: training was delegated to a central trainer, ``installed_version``
    #: counts the snapshots installed back.  ``sync > installed`` means a
    #: model is in flight and decisions must wait.
    sync_version: int = 0
    installed_version: int = 0
    #: actual model-training work done *in this process* (the delegated
    #: path bumps ``refit_count`` bookkeeping but not these).
    fits_performed: int = 0
    fit_seconds: float = 0.0


class ModelUpdateEngine:
    """Drives periodic model refreshes for any number of services."""

    def __init__(self, policy: UpdatePolicy | None = None) -> None:
        self.policy = policy or UpdatePolicy()
        self._services: dict[str, _ServiceState] = {}
        #: when True, due refits for replicable services queue sync
        #: requests instead of training locally (multi-host replication)
        self.delegated = False
        # Outstanding sync requests, oldest first.  Entries stay here
        # until install_snapshot() consumes their version: a checkpoint
        # pickled mid-flight still carries them, so a respawned worker
        # re-requests rather than deadlocking on a lost broadcast.
        self._sync_outbox: list[dict] = []

    def register(
        self,
        service: PredictionService,
        history_builder,
        *,
        update_builder=None,
        prefitted: bool = False,
    ) -> None:
        """Attach a service; ``history_builder(observations)`` converts
        the buffered raw observations into the service's fit() input.

        ``update_builder(new_observations)`` builds the *delta* input
        the incremental path hands to ``apply_update`` — new events
        only, unlike ``history_builder`` which may fold in a base
        history for scratch refits.  Defaults to ``history_builder``
        (correct when that builder is a pure view of its argument).
        ``prefitted=True`` declares that the service arrives with a
        model already trained (e.g. on a historical trace before
        installation), which makes it eligible for the incremental path
        from its very first engine-driven refresh.
        """
        if service.service_name in self._services:
            raise ValueError(f"service {service.service_name!r} already registered")
        self._services[service.service_name] = _ServiceState(
            service=service,
            history_builder=history_builder,
            update_builder=update_builder or history_builder,
            fitted=prefitted,
        )

    @property
    def services(self) -> list[str]:
        return list(self._services)

    def swap(self, name: str, service: PredictionService, *, prefitted: bool = True) -> None:
        """Hot-swap the object behind an already-registered service name.

        Keeps the observation history, pending buffer, refit counters,
        and builders — only the model changes.  This is the degradation
        ladder's engine-side half: when a refit raises, the serving
        layer swaps in a simpler fallback service without losing the
        observations the next (cheaper) refit will train on.
        """
        state = self._state(name)
        if service.service_name != name:
            raise ValueError(
                f"cannot swap service named {service.service_name!r} into slot {name!r}"
            )
        state.service = service
        state.fitted = prefitted

    def reset_clock(self, now: float) -> None:
        """Anchor every service's refit timer at ``now``.

        A serving loop calls this with the stream's start time before
        the first event: refit cadence is measured in *simulated* time,
        and without the anchor a stream that starts mid-scenario (e.g.
        at the evaluation month) would look like one giant overdue
        interval and refit on its very first observation.
        """
        for state in self._services.values():
            state.last_refit_time = now

    def observe(self, name: str, event: Any, now: float) -> None:
        """Feed one observation; may trigger a refit."""
        state = self._state(name)
        state.service.observe(event)
        state.history.append(event)
        state.pending.append(event)
        due_time = now - state.last_refit_time >= self.policy.interval_seconds
        due_size = len(state.pending) >= self.policy.max_buffered
        if due_time or due_size:
            self.refit(name, now)

    def refit(self, name: str, now: float) -> str | None:
        """Refresh the named service on the observations gathered so far.

        Returns the path taken (``"scratch"`` / ``"incremental"``, or
        ``"delegated"`` when a central trainer fits it) or ``None`` when
        there was nothing new to consume.
        """
        state = self._state(name)
        if not state.pending:
            state.last_refit_time = now
            return None
        incremental = state.service.supports_incremental and state.fitted
        if self.delegated and getattr(state.service, "replicable", True):
            # Delegated: cut the pending buffer into a versioned delta
            # and queue it for the central trainer.  Bookkeeping counters
            # advance exactly as a local refit would (the central trainer
            # makes the same path decision), but no model work happens
            # here — the snapshot comes back via install_snapshot().
            deltas = list(state.pending)
            state.pending.clear()
            state.last_refit_time = now
            state.refit_count += 1
            if incremental:
                state.incremental_refits += 1
            state.sync_version += 1
            self._sync_outbox.append({
                "service": name,
                "version": state.sync_version,
                "deltas": deltas,
                "now": now,
            })
            return "delegated"
        # builders get copies: the pending buffer is cleared below and the
        # history keeps growing, so an identity builder must not hand the
        # service a live view of either
        t0 = time.perf_counter()
        if incremental:
            state.service.apply_update(state.update_builder(list(state.pending)))
            state.incremental_refits += 1
        else:
            state.service.fit(state.history_builder(list(state.history)))
        state.fits_performed += 1
        state.fit_seconds += time.perf_counter() - t0
        state.pending.clear()
        state.fitted = True
        state.last_refit_time = now
        state.refit_count += 1
        return "incremental" if incremental else "scratch"

    def refit_all(self, now: float, jobs: int = 1) -> list[str]:
        """Refresh every service with pending observations; returns their
        names.

        Services are independent, so with ``jobs > 1`` the refits run on
        a thread pool (threads, not processes: refits mutate the
        registered service objects in place).
        """
        due = [name for name, st in self._services.items() if st.pending]
        map_threaded(lambda name: self.refit(name, now), due, jobs)
        return due

    def refit_count(self, name: str) -> int:
        return self._state(name).refit_count

    def incremental_refit_count(self, name: str) -> int:
        """How many refits advanced the model in place (vs from scratch)."""
        return self._state(name).incremental_refits

    def pending_count(self, name: str) -> int:
        """Observations buffered since the named service's last refit."""
        return len(self._state(name).pending)

    def fits_performed(self, name: str) -> int:
        """Model fits actually executed in this process (delegated refits
        count toward ``refit_count`` but not here)."""
        return self._state(name).fits_performed

    def fit_seconds(self, name: str) -> float:
        """Wall seconds spent inside local fit/apply_update calls."""
        return self._state(name).fit_seconds

    def service(self, name: str) -> PredictionService:
        """The live service object behind a registered name."""
        return self._state(name).service

    # -- replication channel ------------------------------------------

    def sync_requests(self) -> list[dict]:
        """Outstanding sync requests, oldest first (a copy).

        Every entry is ``{service, version, deltas, now}``.  The
        caller ships them to the central trainer; entries persist until
        :meth:`install_snapshot` consumes their version, so transports
        may send a request more than once (the trainer is idempotent).
        """
        return [dict(req) for req in self._sync_outbox]

    def sync_pending(self, name: str | None = None) -> bool:
        """True while any (or the named) service has a model in flight."""
        states = [self._state(name)] if name else self._services.values()
        return any(st.sync_version > st.installed_version for st in states)

    def sync_versions(self, name: str) -> tuple[int, int]:
        """``(requested, installed)`` sync versions for a service."""
        state = self._state(name)
        return state.sync_version, state.installed_version

    def ingest(self, name: str, events: list) -> None:
        """Feed a remote shard's observation delta without refit checks.

        The central trainer's half of a sync: replays the delta through
        ``observe`` and the history/pending buffers exactly as the shard
        did, so the forced :meth:`refit` that follows trains on the same
        bytes the shard would have trained on locally.
        """
        state = self._state(name)
        for event in events:
            state.service.observe(event)
            state.history.append(event)
            state.pending.append(event)

    def install_snapshot(self, name: str, version: int, service: PredictionService) -> bool:
        """Install a centrally-trained model snapshot; version-gated.

        Stale versions (already installed) are dropped and return False.
        ``version`` must be the next expected install and must not run
        ahead of this engine's own sync requests — the snapshot for
        version *v* only makes sense once this engine has cut delta *v*,
        because events observed after the cut are re-fed to the incoming
        service here (they are exactly ``pending``) to keep it
        byte-identical with a service that refit locally.
        """
        state = self._state(name)
        if version <= state.installed_version:
            return False
        if version != state.installed_version + 1 or version > state.sync_version:
            raise ValueError(
                f"snapshot gap for {name!r}: got v{version}, "
                f"installed v{state.installed_version}, requested v{state.sync_version}"
            )
        for event in state.pending:
            service.observe(event)
        state.service = service
        state.fitted = True
        state.installed_version = version
        self._sync_outbox = [
            req for req in self._sync_outbox
            if not (req["service"] == name and req["version"] <= version)
        ]
        return True

    def skip_snapshot(self, name: str, version: int) -> None:
        """Consume a sync version without installing its model.

        The degraded-shard escape hatch: a shard that already swapped in
        a fallback service must not let a remote snapshot revert it, but
        the version vector still has to advance or the shard would block
        forever waiting for an install that will never happen.
        """
        state = self._state(name)
        if version > state.installed_version:
            state.installed_version = min(version, state.sync_version)
        self._sync_outbox = [
            req for req in self._sync_outbox
            if not (req["service"] == name and req["version"] <= version)
        ]

    def snapshot_blob(self, name: str) -> bytes:
        """Pickle the named service with full training state retained.

        Central-trainer side of a sync: GBDT-backed services swap their
        boosters into ``keep_training_state`` form while pickling so the
        shard that unpickles this blob can keep boosting incrementally.
        """
        from ..ml.gbdt import keep_training_state

        with keep_training_state():
            return pickle.dumps(
                self._state(name).service, protocol=pickle.HIGHEST_PROTOCOL
            )

    def _state(self, name: str) -> _ServiceState:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r}") from None
