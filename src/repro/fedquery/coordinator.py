"""The untrusted coordinator: fans plans out, combines transformed partials.

The coordinator runs on the "highly powerful, highly available but
untrusted infrastructure" of the paper. Everything it touches is
already transformed by the cells' egress gates: masked field elements
(meaningless individually), net recovery masks (protect nothing), and
sealed record batches (ciphertext under a recipient key it does not
hold). Its job is purely operational — scheduling, collection,
straggler handling — and its view is recorded in
``FedQueryResult.coordinator_view`` so tests and benches can assert no
raw value ever appears there.

Liveness discipline (mirrors :class:`~repro.commons.async_aggregation.
AsyncMaskedAggregation`): a collect deadline, per-cell
:class:`~repro.faults.retry.RetryPolicy` re-asks, demotion when the
budget is exhausted, one mask-recovery round to cancel the demoted and
declined cells' edges, and three terminal outcomes — **complete**,
**partial** (demotions, but the survivors' answer is exact over the
survivors), **abandoned** (privacy floor or unrecoverable masks; no
value released). A run never hangs: :meth:`Coordinator.run` drives the
event loop to a bounded horizon and raises if the query somehow failed
to reach a terminal state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from ..commons import kernels
from ..commons.anonymize import GeneralizedRecord, k_anonymize
from ..crypto import shamir
from ..errors import CellOfflineError, ConfigurationError, ProtocolError
from ..faults.retry import RetryPolicy, schedule_retry
from ..infrastructure.network import Network
from ..sim.world import World
from . import gate
from .journal import (
    REC_DEMOTE,
    REC_DONE,
    REC_MASK,
    REC_PARTIAL,
    REC_RECOVER,
    REC_START,
    QueryJournal,
)
from .spec import (
    MSG_MASK,
    MSG_PARTIAL,
    STATUS_DECLINED,
    STATUS_FLOOR,
    STATUS_OK,
    FedQuerySpec,
    plan_message,
    recover_message,
    wire_size,
)

OUTCOME_COMPLETE = "complete"
OUTCOME_PARTIAL = "partial"
OUTCOME_ABANDONED = "abandoned"


@dataclass
class FedQueryResult:
    """Terminal state of one federated query, plus full accounting."""

    transform: str
    tag: str
    roster_size: int
    participants: int = 0  # cells whose partial made the combine
    declined: int = 0
    floored: int = 0  # refused: roster under the cell-side cohort floor
    demoted: list[str] = field(default_factory=list)
    value: float | None = None
    field_total: int | None = None  # the combined field element (numeric)
    sealed_records: list[tuple[str, str]] | None = None  # (sender, blob hex)
    plan_mix: dict[str, int] = field(default_factory=dict)
    records_examined: int = 0
    messages: int = 0
    bytes: int = 0
    reasks: int = 0
    recovery_rounds: int = 0
    outcome: str = OUTCOME_ABANDONED
    failure: str | None = None
    completed_at: int = 0
    # Every payload the untrusted side saw, verbatim.
    coordinator_view: list[Any] = field(default_factory=list)
    # Hierarchical runs only: tree shape and the ROOT's own share of
    # the wire traffic (``messages``/``bytes`` stay the whole-tree
    # totals). A flat run leaves these at zero.
    regions: int = 0
    root_messages: int = 0
    root_bytes: int = 0
    # Wall-clock seconds spent in the root's OWN code (fan-out,
    # handlers, deadlines) — excludes region and cell work, so it is
    # the honest numerator for the per-cell sub-linearity claim.
    root_wall_seconds: float = 0.0

    @property
    def partial(self) -> bool:
        return self.outcome == OUTCOME_PARTIAL

    @property
    def abandoned(self) -> bool:
        return self.outcome == OUTCOME_ABANDONED


_PENDING = "pending"
_DEMOTED = "demoted"


class _RunState:
    """Mutable per-query bookkeeping (one instance per run).

    ``children`` are the endpoints the run collects answers from: the
    roster's cells for a flat or regional coordinator, the region
    addresses for the tree root. ``cell_status`` is the per-cell view
    that settle and the result read — the child statuses themselves
    when the children are cells; the root expands its regions' reports
    into it at settle.
    """

    def __init__(self, tag: str, spec: FedQuerySpec, roster: list[str],
                 round_tag: str, neighbors: int | None,
                 children: list[str] | None = None) -> None:
        self.tag = tag
        self.spec = spec
        self.roster = roster
        self.round_tag = round_tag
        self.neighbors = neighbors
        self.children = roster if children is None else children
        self.status: dict[str, str] = dict.fromkeys(self.children, _PENDING)
        self.cell_status = self.status
        # Children still unanswered, kept by resolve() so collected()
        # costs O(1) per answer.
        self.pending = len(self.children)
        self.payloads: dict[str, Any] = {}
        self.plans: dict[str, str] = {}
        self.examined = 0
        self.attempts: dict[str, int] = dict.fromkeys(self.children, 1)
        self.reasks = 0
        self.messages = 0
        self.bytes = 0
        self.view: list[Any] = []
        self.phase = "collect"
        self.masks: dict[str, Any] = {}
        self.mask_attempts: dict[str, int] = {}
        # The children recovery waits on, fixed when recovery starts
        # (an ordered dict: O(1) membership, stable shipping order).
        self.targets: dict[str, None] = {}
        self.missing: list[str] = []
        self.recovery_rounds = 0
        # A child's report that nothing is releasable (the root's
        # regions send one when their survivors' masks are lost).
        self.failed: str | None = None
        self.started_at = 0
        self.deadline_handle = None
        self.result: FedQueryResult | None = None
        # Phases already reported to the fault plane (crash triggers
        # are per-query, once per phase).
        self.phases_seen: set[str] = set()

    def resolve(self, child: str, status: str) -> None:
        if self.status[child] == _PENDING:
            self.pending -= 1
        self.status[child] = status

    def resolved(self, child: str) -> bool:
        return self.status[child] != _PENDING

    def collected(self) -> bool:
        return self.pending == 0

    def ok_children(self) -> list[str]:
        return [child for child in self.children
                if self.status[child] == STATUS_OK]

    def ok_cells(self) -> list[str]:
        return [name for name in self.roster
                if self.cell_status[name] == STATUS_OK]


class Coordinator:
    """Runs federated queries over a roster of cell endpoints.

    This is the one collect / settle / recover machine of the package.
    The regions and the root of the coordinator tree and the standing
    coordinator subclass it and override only the hooks below that
    differ by level: what a child is sent (:meth:`_plan_for`,
    :meth:`_recover_for`), how its answers are journaled and folded in
    (:meth:`_record`, :meth:`_apply`), which survivors recovery waits
    on (:meth:`_recover_targets`), and how the answers combine.
    """

    #: Prefix of this level's query tags.
    _tag_prefix = "fq"
    #: Prefix of this level's span and event names.
    _obs_name = "fedquery"
    #: The message kinds that carry a child's answer and net mask.
    _partial_kind = MSG_PARTIAL
    _mask_kind = MSG_MASK

    def __init__(
        self,
        world: World,
        network: Network,
        *,
        address: str = "fq-coordinator",
        retry_policy: RetryPolicy | None = None,
        collect_timeout_s: int = 30,
        recovery_timeout_s: int = 30,
        neighbors: int | None = None,
        latency_ms: float = 5.0,
        bandwidth_bytes_per_s: float = 1e9,
        journal: QueryJournal | None = None,
        horizon_slack_s: int = 0,
    ) -> None:
        if collect_timeout_s < 1 or recovery_timeout_s < 1:
            raise ConfigurationError("timeouts must be at least 1 s")
        self.world = world
        self.network = network
        self.address = address
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=2.0, multiplier=2.0,
            max_delay_s=30.0, jitter=0.1,
        )
        self.collect_timeout_s = collect_timeout_s
        self.recovery_timeout_s = recovery_timeout_s
        self.neighbors = neighbors
        # The write-ahead journal survives a crash (the coordinator's
        # one piece of durable state); extra horizon slack lets tests
        # that crash/restart by hand still finish inside run()'s bound.
        self.journal = journal if journal is not None else QueryJournal()
        self.horizon_slack_s = horizon_slack_s
        self._crashed = False
        self._retry_rng = world.rng(f"fedquery.reask.{address}")
        self._sequence = 0
        self._active: dict[str, _RunState] = {}
        # tag -> terminal result: the reply channel to the querier. It
        # outlives _RunState rebuilds, so run() reads results here.
        self._results: dict[str, FedQueryResult] = {}
        network.register(
            address, self._on_message,
            latency_ms=latency_ms,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        )
        if network.fault_injector is not None:
            network.fault_injector.register_crashable(self)
        metrics = world.obs.metrics
        self._events = world.obs.events
        self._tracer = world.obs.tracer
        self._plans_metric = metrics.counter(
            "fedquery.plans", help="query plans shipped to cells")
        self._bytes_metric = metrics.counter(
            "fedquery.bytes", help="coordinator wire bytes, both directions")
        self._reasks_metric = metrics.counter(
            "fedquery.reasks", help="straggler re-asks sent")
        self._demotions_metric = metrics.counter(
            "fedquery.demotions", help="cells demoted after the retry budget")
        self._partials_metric = metrics.counter(
            "fedquery.partials", help="cell partials received",
            labelnames=("status",))
        self._queries_metric = metrics.counter(
            "fedquery.queries", help="federated queries by terminal outcome",
            labelnames=("outcome",))

    # -- public API ------------------------------------------------------------

    def run(self, spec: FedQuerySpec, roster: list[str], *,
            round_tag: str | None = None) -> FedQueryResult:
        """Execute ``spec`` across ``roster`` and drive the loop to done.

        ``roster`` is the full masking roster in a fixed order every
        cell will see; offline or unresponsive members are handled by
        the re-ask/demote/recover machinery, not by the caller.
        """
        return self._await(self._launch(spec, roster, round_tag))

    def _launch(self, spec: FedQuerySpec, roster: list[str],
                round_tag: str | None) -> str:
        """Start one query: journal it, fan it out, arm its deadline."""
        if not roster:
            raise ConfigurationError("the roster needs at least one cell")
        if len(set(roster)) != len(roster):
            raise ConfigurationError("roster names must be unique")
        self._sequence += 1
        tag = (f"{self._tag_prefix}{self._sequence}|"
               f"{spec.recipient}|{spec.purpose}")
        state = self._make_state(
            tag, spec, list(roster),
            round_tag if round_tag is not None
            else f"{spec.recipient}|{spec.purpose}",
            self.neighbors,
        )
        state.started_at = self.world.now
        self._active[tag] = state
        self.journal.append(self._start_record(state))
        shape = self._shape(state)
        with self._tracer.span(
            f"{self._obs_name}.fanout", tag=tag, transform=spec.transform,
            roster=len(roster), **shape,
        ):
            for child in state.children:
                self._ship(state, child)
        self._notify_phase(state, "fanout")
        self._events.emit(
            f"{self._obs_name}.start", tag=tag, transform=spec.transform,
            roster=len(roster), **shape,
        )
        self._arm_collect(state)
        return tag

    def _await(self, tag: str) -> FedQueryResult:
        """Drive the loop to the horizon and collect ``tag``'s result."""
        self.world.loop.run_until(self.world.now + self._horizon_s())
        # Read the reply channel, not the state object: a crash and
        # restart mid-query rebuilds _RunState from the journal, so the
        # instance created at launch may not be the one that settled.
        result = self._results.pop(tag, None)
        if result is None:
            raise ProtocolError(f"federated query {tag!r} did not settle")
        self._active.pop(tag, None)
        return result

    def _horizon_s(self) -> int:
        """A safe upper bound on one query's wall time, in sim seconds."""
        backoff = sum(self.retry_policy.worst_case_delays())
        # Two phased deadlines (collect + recovery), each followed by a
        # full retry ladder; 2x covers jitter, message latency and the
        # fault plane's injected delays with a wide margin.
        return int(
            2 * (self.collect_timeout_s + self.recovery_timeout_s
                 + 2 * backoff)
        ) + self._crash_slack_s() + 120

    def _crash_slack_s(self) -> int:
        """Extra horizon covering planned crash downtime plus a fresh
        collect/recovery episode per restart (the ladder restarts with
        the process)."""
        slack = self.horizon_slack_s
        injector = self.network.fault_injector
        if injector is not None and injector.plan.crashes:
            episode = int(
                self.collect_timeout_s + self.recovery_timeout_s
                + 2 * sum(self.retry_policy.worst_case_delays())
            )
            for spec in injector.plan.crashes:
                slack += (spec.restart_after_s or 0) + episode
        return slack

    # -- per-level hooks -------------------------------------------------------

    def _make_state(self, tag: str, spec: FedQuerySpec, roster: list[str],
                    round_tag: str, neighbors: int | None) -> _RunState:
        """A fresh run state; the root makes its regions the children."""
        return _RunState(tag, spec, roster, round_tag, neighbors)

    def _shape(self, state: _RunState) -> dict[str, Any]:
        """Extra span and event fields (the root adds its region count)."""
        return {}

    def _plan_for(self, state: _RunState, name: str) -> dict[str, Any]:
        """The plan message for one child. The tree's regions override
        this to ship an O(k) roster *window* instead of the full
        roster; the root ships a shard plan."""
        return plan_message(
            state.tag, state.spec, state.roster, self.address,
            round_tag=state.round_tag, neighbors=state.neighbors,
        )

    def _recover_for(self, state: _RunState, name: str) -> dict[str, Any]:
        """The mask-recovery request for one child."""
        return recover_message(state.tag, 1, state.missing, self.address)

    def _revive(self, state: _RunState, name: str) -> None:
        """Called before any re-ship to a child; the root respawns a
        crashed region here."""

    def _record(self, state: _RunState, kind: str, name: str,
                message: dict[str, Any] | None = None,
                size: int = 0) -> dict[str, Any]:
        """The journal record of a child's partial, mask or demotion."""
        if kind == REC_DEMOTE:
            return {"type": kind, "tag": state.tag, "cell": name}
        if kind == REC_MASK:
            return {"type": kind, "tag": state.tag, "from": name,
                    "net_mask": message["net_mask"], "size": size}
        status = message["status"]
        return {
            "type": kind, "tag": state.tag, "from": name, "status": status,
            "payload": message["payload"] if status == STATUS_OK else None,
            "plan": message.get("plan"),
            "examined": message.get("examined", 0), "size": size,
        }

    def _apply(self, state: _RunState, record: dict[str, Any]) -> None:
        """Fold one child record into the state — live, right after it
        is journaled, and on replay alike."""
        if record["type"] == REC_DEMOTE:
            state.resolve(record["cell"], _DEMOTED)
            return
        name = record["from"]
        state.messages += 1
        state.bytes += record.get("size", 0)
        if record["type"] == REC_MASK:
            state.masks[name] = record["net_mask"]
            state.view.append(record["net_mask"])
            return
        state.resolve(name, record["status"])
        if record["status"] == STATUS_OK:
            state.payloads[name] = record["payload"]
            state.plans[name] = record["plan"]
            state.examined += record.get("examined", 0)
            state.view.append(record["payload"])

    def _cell_statuses(self, state: _RunState) -> dict[str, str]:
        """Per-cell statuses at settle; the root expands its regions'."""
        return state.status

    def _recover_targets(self, state: _RunState) -> list[str]:
        """The survivors whose net masks recovery waits on, asked once
        when recovery starts. The tree's regions narrow this to
        ring-relevant survivors."""
        return state.ok_children()

    def _masked_parts(self, state: _RunState) -> list[int]:
        """The field elements whose sum is the unmasked total."""
        return [
            state.payloads[name]["masked"] for name in state.ok_children()
        ] + list(state.masks.values())

    def _sealed_parts(self, state: _RunState) -> list[tuple[str, str]]:
        """The sealed record batches of a ``records-kanon`` release."""
        return [
            (name, state.payloads[name]["blob"])
            for name in state.ok_children()
            if state.payloads[name]["blob"] is not None
        ]

    def _accounting(self, state: _RunState) -> dict[str, Any]:
        """The result's plan mix and traffic counts."""
        plan_mix: dict[str, int] = {}
        for plan in state.plans.values():
            plan_mix[plan] = plan_mix.get(plan, 0) + 1
        return {
            "plan_mix": plan_mix, "records_examined": state.examined,
            "messages": state.messages, "bytes": state.bytes,
            "reasks": state.reasks,
        }

    # -- crash and restart -----------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _notify_phase(self, state: _RunState, phase: str) -> bool:
        """Report a phase transition to the fault plane, once per query.

        Returns True when the report triggered a crash of *this*
        endpoint — the caller must drop its stale state and return.
        """
        if phase in state.phases_seen:
            return False
        state.phases_seen.add(phase)
        injector = self.network.fault_injector
        if injector is None:
            return False
        return injector.phase_reached(self.address, phase)

    def crash(self) -> None:
        """Kill the process: lose every in-memory run state, go dark.

        The journal (durable by contract) and the reply channel keep
        their contents; everything else — active states, deadlines,
        retry ladders — dies. In-flight deliveries already scheduled by
        the network die at the handler's crash guard. Other levels of a
        tree are separate processes and keep running.
        """
        if self._crashed:
            return
        self._crashed = True
        for state in self._active.values():
            if state.deadline_handle is not None:
                state.deadline_handle.cancel()
            state.phase = "crashed"  # neutralizes stale loop callbacks
        self._active.clear()
        if self.network.is_online(self.address):
            self.network.set_online(self.address, False)
        self._events.emit(
            "crash.down", address=self.address, journal=len(self.journal),
        )

    def restart(self) -> None:
        """Come back: rebuild every unfinished run from the journal and
        resume it (re-ship to unresolved children, re-arm deadlines).
        Children replay their cached answers bit-for-bit, so resumed
        re-asks are idempotent. No-op unless crashed."""
        if not self._crashed:
            return
        self._crashed = False
        if not self.network.is_online(self.address):
            self.network.set_online(self.address, True)
        self._replay_journal()

    def _replay_journal(self) -> None:
        for tag, records in self.journal.by_tag().items():
            done = next(
                (r for r in records if r["type"] == REC_DONE), None,
            )
            if done is not None:
                # Finished before (or during) the crash: republish the
                # journaled result; nothing to resume.
                if tag not in self._results:
                    self._results[tag] = self._result_from_wire(
                        done["result"]
                    )
                continue
            if records[0]["type"] != REC_START:
                continue  # mid-flight fragment of a foreign tag
            state = self._restore_state(records[0], records)
            self._active[tag] = state
            self._events.emit(
                "crash.recovered", address=self.address, tag=tag,
                records=len(records), phase=state.phase,
            )
            self._resume(state)

    def _start_record(self, state: _RunState) -> dict[str, Any]:
        return {
            "type": REC_START, "tag": state.tag,
            "spec": state.spec.to_wire(), "roster": list(state.roster),
            "round_tag": state.round_tag, "neighbors": state.neighbors,
            "sequence": self._sequence, "at": state.started_at,
        }

    def _state_from_start(self, start: dict[str, Any]) -> _RunState:
        return self._make_state(
            start["tag"], FedQuerySpec.from_wire(start["spec"]),
            list(start["roster"]), start["round_tag"], start["neighbors"],
        )

    def _restore_state(self, start: dict[str, Any],
                       records: list[dict[str, Any]]) -> _RunState:
        state = self._state_from_start(start)
        state.started_at = int(start.get("at", 0))
        self._sequence = max(self._sequence, int(start.get("sequence", 0)))
        for record in records[1:]:
            kind = record["type"]
            if kind == REC_RECOVER:
                state.phase = "recover"
                state.recovery_rounds = 1
                state.missing = list(record["missing"])
            elif kind in (REC_PARTIAL, REC_DEMOTE, REC_MASK):
                self._apply(state, record)
        if state.phase == "recover":
            # The journal holds every input settle had.
            state.cell_status = self._cell_statuses(state)
            state.targets = dict.fromkeys(self._recover_targets(state))
        return state

    def _resume(self, state: _RunState) -> None:
        if state.phase == "collect":
            if state.collected():
                self._settle(state)
                return
            for name in state.children:
                if not state.resolved(name):
                    state.attempts[name] = 1  # the ladder restarts too
                    self._revive(state, name)
                    self._ship(state, name)
            self._arm_collect(state)
            return
        self._resume_recovery(state)

    def _resume_recovery(self, state: _RunState) -> None:
        if state.failed:
            # A child reported unrecoverable masks just before the
            # crash: the abandon is already decided, finish it.
            self._finalize(state, failure=state.failed)
            return
        if len(state.masks) >= len(state.targets):
            self._masks_complete(state)
            return
        for name in state.targets:
            if name not in state.masks:
                state.mask_attempts[name] = 1
                self._revive(state, name)
                self._ship_recover(state, name)
        self._arm_recovery(state)

    def _result_from_wire(self, wire: dict[str, Any]) -> FedQueryResult:
        sealed = wire.get("sealed_records")
        if sealed is not None:
            wire = dict(wire, sealed_records=[
                (sender, blob) for sender, blob in sealed
            ])
        return FedQueryResult(**wire)

    # -- fan-out and re-asks ---------------------------------------------------

    def _ship(self, state: _RunState, name: str) -> None:
        self._plans_metric.inc()
        self._send(state, name, self._plan_for(state, name))

    def _ship_recover(self, state: _RunState, name: str) -> None:
        self._send(state, name, self._recover_for(state, name))

    def _send(self, state: _RunState, name: str,
              message: dict[str, Any]) -> None:
        """Bill one outbound message to the run and send it."""
        size = wire_size(message)
        self._bytes_metric.inc(size)
        state.messages += 1
        state.bytes += size
        try:
            self.network.send(self.address, name, message, size_bytes=size)
        except CellOfflineError:
            pass  # stays unanswered; the deadline's re-ask chain owns it

    def _clocked(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Every loop callback this coordinator schedules passes here;
        the tree root wraps them in the clock that times its own code."""
        return callback

    def _arm_collect(self, state: _RunState) -> None:
        state.deadline_handle = self.world.loop.schedule_in(
            self.collect_timeout_s,
            self._clocked(lambda: self._collect_deadline(state)),
            label=f"fq deadline {state.tag}",
        )

    def _arm_recovery(self, state: _RunState) -> None:
        self.world.loop.schedule_in(
            self.recovery_timeout_s,
            self._clocked(lambda: self._recovery_deadline(state)),
            label=f"fq recover deadline {state.tag}",
        )

    def _retry(self, attempt: int, callback: Callable[[], None],
               label: str) -> Any:
        """Schedule the next rung of a re-ask ladder (None: budget spent)."""
        return schedule_retry(
            self.world, self.retry_policy, attempt, self._clocked(callback),
            rng=self._retry_rng, label=label,
        )

    def _collect_deadline(self, state: _RunState) -> None:
        if state.phase != "collect":
            return
        for name in state.children:
            if not state.resolved(name):
                self._reask(state, name)

    def _reask(self, state: _RunState, name: str) -> None:
        if state.phase != "collect" or state.resolved(name):
            return
        handle = self._retry(
            state.attempts[name], lambda: self._reask(state, name),
            f"fq reask {name}",
        )
        if handle is None:
            self._demote(state, name)
            return
        state.attempts[name] += 1
        state.reasks += 1
        self._reasks_metric.inc()
        self._revive(state, name)
        self._ship(state, name)

    def _demote(self, state: _RunState, name: str) -> None:
        record = self._record(state, REC_DEMOTE, name)
        self.journal.append(record)
        if state.phase != "collect":
            return  # the journal hook crashed us mid-append
        self._apply(state, record)
        self._demotions_metric.inc()
        fields = dict(record, attempts=state.attempts[name])
        del fields["type"]
        self._events.emit(f"{self._obs_name}.demote", **fields)
        if state.collected():
            self._settle(state)

    # -- inbound ---------------------------------------------------------------

    def _on_message(self, sender: str, payload: Any) -> None:
        if self._crashed:
            return  # a delivery already in flight when the process died
        if not isinstance(payload, dict):
            return
        state = self._active.get(payload.get("tag"))
        if state is None:
            return
        kind = payload.get("kind")
        if kind == self._partial_kind:
            self._on_partial(state, payload)
        elif kind == self._mask_kind:
            self._on_mask(state, payload)

    def _on_partial(self, state: _RunState, message: dict[str, Any]) -> None:
        name = message["from"]
        if state.phase != "collect" or state.status.get(name) != _PENDING:
            return  # duplicate, late (post-demotion), or not a child
        if self._notify_phase(state, "collect"):
            return  # crashed mid-collect: this delivery dies unrecorded
        size = wire_size(message)
        record = self._record(state, REC_PARTIAL, name, message, size)
        self.journal.append(record)
        if state.phase != "collect":
            return  # the journal hook crashed us mid-append
        self._bytes_metric.inc(size)
        if self._partials_metric is not None:
            self._partials_metric.labels(status=message["status"]).inc()
        self._apply(state, record)
        if state.collected():
            self._settle(state)

    def _on_mask(self, state: _RunState, message: dict[str, Any]) -> None:
        name = message["from"]
        if state.phase != "recover" or name in state.masks \
                or name not in state.targets:
            return
        size = wire_size(message)
        record = self._record(state, REC_MASK, name, message, size)
        self.journal.append(record)
        if state.phase != "recover":
            return  # the journal hook crashed us mid-append
        self._bytes_metric.inc(size)
        self._apply(state, record)
        if state.failed:
            self._finalize(state, failure=state.failed)
        elif len(state.masks) == len(state.targets):
            self._masks_complete(state)

    def _masks_complete(self, state: _RunState) -> None:
        """All targets' net masks are in. Hook for the tree's regions."""
        self._finish_numeric(state)

    # -- settle: combine, recover, finish --------------------------------------

    def _settle(self, state: _RunState) -> None:
        if state.phase != "collect":
            return
        if state.deadline_handle is not None:
            state.deadline_handle.cancel()
        state.cell_status = self._cell_statuses(state)
        ok = state.ok_cells()
        if not ok:
            self._finalize(state, failure="no-participants")
            return
        if len(ok) < state.spec.min_cohort:
            self._finalize(state, failure="privacy-floor")
            return
        if state.spec.numeric:
            state.missing = [
                name for name in state.roster
                if state.cell_status[name] != STATUS_OK
            ]
            if not state.missing:
                state.phase = "recover"  # vacuous: nothing to recover
                if self._notify_phase(state, "recover"):
                    return  # restart re-settles from the journal
                self._finish_numeric(state)
                return
            self._start_recovery(state)
        else:
            self._finish_kanon(state)

    def _start_recovery(self, state: _RunState) -> None:
        state.phase = "recover"
        state.recovery_rounds = 1
        self.journal.append({
            "type": REC_RECOVER, "tag": state.tag,
            "missing": list(state.missing),
        })
        if self._notify_phase(state, "recover") \
                or state.phase != "recover":
            return  # crashed entering recovery; restart resumes it
        state.targets = dict.fromkeys(self._recover_targets(state))
        self._events.emit(
            f"{self._obs_name}.recover", tag=state.tag,
            missing=len(state.missing), survivors=len(state.targets),
        )
        if not state.targets:
            # No survivor shares a mask edge with a missing cell.
            self._masks_complete(state)
            return
        for name in state.targets:
            state.mask_attempts[name] = 1
            self._ship_recover(state, name)
        self._arm_recovery(state)

    def _recovery_deadline(self, state: _RunState) -> None:
        if state.phase != "recover" or state.result is not None:
            return
        for name in state.targets:
            if name not in state.masks:
                self._reask_mask(state, name)

    def _reask_mask(self, state: _RunState, name: str) -> None:
        if state.phase != "recover" or state.result is not None \
                or name in state.masks:
            return
        handle = self._retry(
            state.mask_attempts[name], lambda: self._reask_mask(state, name),
            f"fq mask reask {name}",
        )
        if handle is None:
            self._mask_recovery_failed(state)
            return
        state.mask_attempts[name] += 1
        state.reasks += 1
        self._reasks_metric.inc()
        self._revive(state, name)
        self._ship_recover(state, name)

    def _mask_recovery_failed(self, state: _RunState) -> None:
        """A survivor's re-ask budget ran out mid-recovery.

        A cell whose value is already in the total cannot reveal its
        masks: the edges it shares with missing cells can never be
        cancelled. Nothing releasable remains. Hook for the tree's
        regions (which report the failure upward instead).
        """
        self._finalize(state, failure="mask-recovery")

    def _finish_numeric(self, state: _RunState) -> None:
        if state.result is not None:
            return
        total = kernels.accumulate(self._masked_parts(state))
        value = shamir.decode_signed(total) / state.spec.scale
        self._finalize(state, field_total=total, value=value)

    def _finish_kanon(self, state: _RunState) -> None:
        released = sum(
            state.payloads[name]["count"] for name in state.ok_children()
        )
        if released < max(state.spec.k, state.spec.min_cohort):
            self._finalize(state, failure="privacy-floor")
            return
        self._finalize(state, sealed_records=self._sealed_parts(state))

    def _finalize(
        self,
        state: _RunState,
        *,
        failure: str | None = None,
        field_total: int | None = None,
        value: float | None = None,
        sealed_records: list[tuple[str, str]] | None = None,
    ) -> None:
        if state.result is not None:
            return
        state.phase = "done"
        counts = {STATUS_OK: 0, STATUS_DECLINED: 0, STATUS_FLOOR: 0}
        demoted = []
        for name in state.roster:
            status = state.cell_status.get(name, _DEMOTED)
            if status in counts:
                counts[status] += 1
            else:
                demoted.append(name)
        if failure is not None:
            outcome = OUTCOME_ABANDONED
        elif demoted:
            outcome = OUTCOME_PARTIAL
        else:
            outcome = OUTCOME_COMPLETE
        accounting = self._accounting(state)
        with self._tracer.span(
            f"{self._obs_name}.collect", tag=state.tag,
            transform=state.spec.transform,
        ) as span:
            span.annotate(
                outcome=outcome, participants=counts[STATUS_OK],
                demoted=len(demoted), **self._shape(state),
                reasks=accounting["reasks"],
                waited_s=self.world.now - state.started_at,
            )
        self._queries_metric.labels(outcome=outcome).inc()
        self._events.emit(
            f"{self._obs_name}.settle", tag=state.tag, outcome=outcome,
            participants=counts[STATUS_OK], demoted=len(demoted),
            failure=failure,
        )
        result = FedQueryResult(
            transform=state.spec.transform,
            tag=state.tag,
            roster_size=len(state.roster),
            participants=counts[STATUS_OK],
            declined=counts[STATUS_DECLINED],
            floored=counts[STATUS_FLOOR],
            demoted=demoted,
            value=value,
            field_total=field_total,
            sealed_records=sealed_records,
            recovery_rounds=state.recovery_rounds,
            outcome=outcome,
            failure=failure,
            completed_at=self.world.now,
            coordinator_view=state.view,
            **accounting,
        )
        # Journal the terminal record *before* publishing: a crash
        # between the two republishes from the journal on restart.
        self.journal.append({
            "type": REC_DONE, "tag": state.tag, "outcome": outcome,
            "result": dataclasses.asdict(result),
        })
        if self._crashed:
            return  # died after the durable record; restart republishes
        state.result = result
        self._results[state.tag] = result


def open_release(
    result: FedQueryResult,
    key: bytes,
    k: int,
    *,
    quasi_identifiers: list[str] | None = None,
    sensitive_attributes: list[str] | None = None,
) -> list[GeneralizedRecord]:
    """Recipient-side: open a ``records-kanon`` release and anonymize.

    The *recipient* holds the fleet's recipient key (the coordinator
    never does); it decrypts each cell's sealed batch, concatenates the
    rows in roster order, and runs the same Mondrian ``k_anonymize``
    the legacy orchestrator ran — by default auto-detecting the
    ``qi_``-prefixed quasi-identifiers exactly as the orchestrator did.
    """
    if result.sealed_records is None:
        raise ProtocolError("result carries no sealed records")
    rows: list[dict[str, Any]] = []
    for _, blob_hex in result.sealed_records:
        rows.extend(gate.open_records(key, blob_hex))
    if not rows:
        raise ProtocolError("release is empty")
    if quasi_identifiers is None:
        quasi_identifiers = sorted(
            name for name in rows[0] if name.startswith("qi_")
        )
    if sensitive_attributes is None:
        sensitive_attributes = sorted(
            name for name in rows[0] if not name.startswith("qi_")
        )
    return k_anonymize(rows, quasi_identifiers, sensitive_attributes, k)
