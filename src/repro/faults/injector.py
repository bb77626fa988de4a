"""The fault injector: a plan interpreted against a live router.

:meth:`FaultInjector.attach` installs three small hooks on a
:class:`~repro.sharding.router.ShardRouter` — no serving code is
patched or subclassed, the seams are first-class:

* every :class:`~repro.sharding.replica.Replica` gets a ``fault_hook``
  the shard probes before serving an attempt (raises scheduled
  ``WorkerDied``/link faults, reports injected straggler latency);
* the router's :class:`~repro.distributed.network.NetworkMeter` gets an
  ``on_record`` hook that loses or corrupts scheduled wire payloads
  *after* charging them (retransmissions pay the wire twice, like real
  ones);
* the router's execution backend (when present) gets a submit-time
  ``fault_hook`` so worker deaths also fire at the
  :class:`~repro.exec.backend.ProcessPoolBackend` seam.

All scheduling is clock-driven: events fire when the router's injected
clock passes their ``at``, either at the next batch (the router pumps
the injector) or at an explicit :meth:`FaultInjector.pump`.  Under a
:class:`~repro.serving.service.SimulatedClock` the whole run — faults,
retries, backoff waits, recoveries — replays identically from the plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import (
    FaultPlanError,
    LinkDropped,
    PayloadTruncated,
    WorkerDied,
)
from repro.faults.plan import FaultEvent, FaultPlan

if TYPE_CHECKING:
    from repro.sharding.router import ShardRouter

__all__ = ["FaultInjector", "ReplicaProbe"]


class _ReplicaFaultState:
    """Mutable per-replica schedule state: kills pending, stragglers."""

    __slots__ = ("kills", "latency_windows")

    def __init__(self) -> None:
        # [at, remaining] pairs: kills arm once the clock passes `at`.
        self.kills: list[list[float]] = []
        self.latency_windows: list[tuple[float, float, float]] = []

    def take_kill(self, now: float) -> bool:
        """Consume one armed worker-kill, if any is due."""
        for pending in self.kills:
            if pending[0] <= now and pending[1] > 0:
                pending[1] -= 1
                return True
        return False

    def delay(self, now: float) -> float:
        """Injected extra latency at clock time ``now`` (stacked spikes)."""
        return sum(
            delay for at, until, delay in self.latency_windows
            if at <= now < until
        )


class ReplicaProbe:
    """The hook a :class:`~repro.sharding.replica.Replica` carries.

    ``before_serve`` raises any point fault due for this replica;
    ``latency`` reports the straggler delay to add to the attempt.
    """

    __slots__ = ("_injector", "_state")

    def __init__(
        self, injector: "FaultInjector", state: _ReplicaFaultState
    ) -> None:
        self._injector = injector
        self._state = state

    def before_serve(self, now: float) -> None:
        self._injector.pump(now)
        if self._state.take_kill(now):
            self._injector.count("kill_worker")
            raise WorkerDied("injected worker death")

    def latency(self, now: float) -> float:
        return self._state.delay(now)


class FaultInjector:
    """Fire one :class:`~repro.faults.plan.FaultPlan` against a router."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.router: "ShardRouter | None" = None
        self.injected: dict[str, int] = {}
        self._replica_states: dict[tuple[int, int], _ReplicaFaultState] = {}
        self._crashes: list[FaultEvent] = []  # not yet fired, time-sorted
        self._link_faults: dict[int, list[list[Any]]] = {}
        self._by_replica_uid: dict[int, tuple[int, int]] = {}

    # ----- wiring -------------------------------------------------------
    def attach(self, router: "ShardRouter") -> "FaultInjector":
        """Install the hooks on ``router`` and arm the schedule.

        The plan's targets are validated against the router's actual
        shard/replica layout first — a plan naming a replica that does
        not exist is a bug in the experiment, not a fault to inject.
        """
        if self.router is not None:
            raise FaultPlanError("injector is already attached to a router")
        num_shards = len(router.shards)
        min_replicas = min(len(s.replicas) for s in router.shards)
        self.plan.check_targets(num_shards, min_replicas)
        self.router = router
        self._crashes = list(self.plan.for_kind("crash"))
        for event in self.plan.events:
            if event.kind == "kill_worker":
                state = self._state_for(event.shard, event.replica)
                state.kills.append([event.at, float(event.count)])
            elif event.kind == "latency":
                state = self._state_for(event.shard, event.replica)
                state.latency_windows.append(
                    (event.at, event.until, event.delay)
                )
            elif event.kind in ("drop", "truncate"):
                self._link_faults.setdefault(event.shard, []).append(
                    [event.at, float(event.count), event.kind]
                )
        for sid, shard in enumerate(router.shards):
            for rid, replica in enumerate(shard.replicas):
                state = self._state_for(sid, rid)
                replica.fault_hook = ReplicaProbe(self, state)
                self._by_replica_uid[replica.uid] = (sid, rid)
        router.meter.on_record = self._on_record
        if router.exec_backend is not None:
            router.exec_backend.fault_hook = self._on_submit
        router.fault_injector = self
        return self

    def _state_for(self, sid: int, rid: int) -> _ReplicaFaultState:
        key = (sid, rid)
        state = self._replica_states.get(key)
        if state is None:
            state = self._replica_states[key] = _ReplicaFaultState()
        return state

    def count(self, kind: str) -> None:
        """Account one fired injection (the chaos suite asserts these
        replay identically for the same seed)."""
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # ----- clock-driven events -----------------------------------------
    def pump(self, now: float | None = None) -> None:
        """Fire every crash event the clock has passed.

        The router pumps at each batch and every replica probe pumps
        before serving, so a crash scheduled mid-stream takes its target
        out of rotation before the next answer is computed.
        """
        router = self.router
        if router is None:
            raise FaultPlanError("injector is not attached to a router")
        if now is None:
            now = float(router.clock.now())
        while self._crashes and self._crashes[0].at <= now:
            event = self._crashes.pop(0)
            if event.until > now:
                replica = router.shards[event.shard].replicas[event.replica]
                replica.mark_down(until=event.until)
                self.count("crash")
            else:
                # The clock jumped clean over the outage window: the
                # replica crashed *and* recovered in between batches.
                self.count("crash_elapsed")

    # ----- hook bodies --------------------------------------------------
    def _on_record(self, sender: str, receiver: str, num_bytes: int) -> None:
        """Wire hook: lose or corrupt scheduled payloads on shard links.

        Called after the meter charged the bytes — a lost payload still
        crossed the wire, and its retransmission is charged again.
        """
        del num_bytes
        sid = self._shard_of_link(sender, receiver)
        if sid is None:
            return
        faults = self._link_faults.get(sid)
        if not faults:
            return
        assert self.router is not None
        now = float(self.router.clock.now())
        for pending in faults:
            if pending[0] <= now and pending[1] > 0:
                pending[1] -= 1
                kind = str(pending[2])
                self.count(kind)
                if kind == "drop":
                    raise LinkDropped(
                        f"injected payload loss on link {sender}->{receiver}"
                    )
                raise PayloadTruncated(
                    "injected payload corruption on link "
                    f"{sender}->{receiver}"
                )

    @staticmethod
    def _shard_of_link(sender: str, receiver: str) -> int | None:
        for name in (receiver, sender):
            if name.startswith("shard-"):
                try:
                    return int(name.split("-", 1)[1])
                except ValueError:
                    return None
        return None

    def _on_submit(self, key: Any, method: str) -> None:
        """Execution-seam hook: scheduled worker deaths fire at submit.

        Replica keys carry the replica's ``uid``; anything else (a
        distributed runtime's machine states) is left alone.
        """
        del method
        if not (isinstance(key, tuple) and key and key[0] == "replica"):
            return
        target = self._by_replica_uid.get(int(key[1]))
        if target is None:
            return
        assert self.router is not None
        now = float(self.router.clock.now())
        state = self._state_for(*target)
        if state.take_kill(now):
            self.count("kill_worker")
            raise WorkerDied("injected worker death at submit")
