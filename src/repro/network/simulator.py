"""Synchronous round-based message-passing simulator.

DMW's phases are implicitly synchronized (paper step II.4: "agents cannot
continue until all shares are transmitted and commitments published"), so a
synchronous model is faithful: within a round every agent deposits outgoing
messages, then :meth:`SynchronousNetwork.deliver` moves them to the
recipients' inboxes atomically.

Two transmission primitives exist, mirroring Fig. 2:

* :meth:`send` — a private point-to-point message (solid arrows);
* :meth:`publish` — a published message (dashed arrows), delivered to every
  other agent and retained on a bulletin board; accounted as ``n - 1``
  unicasts per the proof of Theorem 11.

The simulator is deliberately *dumb*: it moves and counts messages and
applies the :class:`~repro.network.faults.FaultPlan`; all protocol logic
lives in the agents.

:meth:`SynchronousNetwork.deliver` is the only round-delivery loop in the
package.  :class:`~repro.network.asynchronous.TimeoutNetwork` configures
it with a latency model, a round timeout and a :class:`RetryPolicy`; the
:class:`~repro.network.asyncio_transport.AsyncioSocketTransport`
overrides only :meth:`SynchronousNetwork._hand_off`, where a surviving
copy goes.  Without a latency model (the plain simulator) no delay is
sampled and no copy is ever late, so the loop reduces to instantaneous
synchronous delivery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.flight import (EVENT_DELIVER, EVENT_DROP, EVENT_LATE,
                          EVENT_RECOVERY, EVENT_RETRANSMIT, EVENT_SEND,
                          NULL_FLIGHT, FlightEvent, FlightRecorder)
from ..obs.spans import NULL_RECORDER
from .faults import FaultPlan, obedient_plan
from .latency import LatencyModel
from .message import BROADCAST, Message
from .metrics import NetworkMetrics


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with multiplicative backoff.

    Attributes
    ----------
    max_attempts:
        Total transmission attempts per unicast copy, including the
        original send.  ``1`` disables retransmission entirely (the
        historical bare-timeout behaviour).
    backoff:
        Grace-window multiplier: retry attempt ``k`` (1-based) waits up
        to ``round_timeout * backoff**k`` for the re-sent copy.  Must be
        at least 1.
    """

    max_attempts: int = 1
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 1.0:
            raise ValueError("backoff multiplier must be at least 1")

    @property
    def max_retries(self) -> int:
        """Retransmission attempts beyond the original send."""
        return self.max_attempts - 1

    def grace_window(self, round_timeout: float, attempt: int) -> float:
        """Barrier extension granted to retry ``attempt`` (1-based)."""
        return round_timeout * (self.backoff ** attempt)


#: The policy with no retransmission at all (bare-timeout semantics).
NO_RETRY = RetryPolicy(max_attempts=1)


class SynchronousNetwork:
    """A synchronous network connecting ``num_agents`` participants.

    Agent ids are ``0 .. num_agents - 1``.  An optional extra participant
    (e.g. the trusted center of centralized MinWork, or DMW's payment
    infrastructure endpoint) can be registered via ``extra_participants``;
    it gets an id at the top of the range and full send/receive rights,
    but does not change the broadcast fan-out used for agent-to-agent
    publishing unless included explicitly: with the default
    ``broadcast_to_extras=False`` a published message reaches the other
    *agents* only (``n - 1`` unicasts, the Theorem 11 accounting unit);
    setting ``broadcast_to_extras=True`` opts the extra participants into
    every broadcast, and the metrics charge the actual recipient count.
    """

    def __init__(self, num_agents: int,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 0,
                 record_deliveries: bool = False,
                 broadcast_to_extras: bool = False) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        if extra_participants < 0:
            raise ValueError("extra_participants must be non-negative")
        self.num_agents = num_agents
        self.num_participants = num_agents + extra_participants
        #: Whether published messages also reach the extra participants.
        self.broadcast_to_extras = broadcast_to_extras
        self.fault_plan = fault_plan or obedient_plan()
        self.metrics = NetworkMetrics()
        self._outbox: List[Message] = []
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        #: Published history: list of delivered broadcast messages, in order.
        self.bulletin_board: List[Message] = []
        #: Every delivered unicast copy, when ``record_deliveries`` is on
        #: (used by the latency model to reconstruct a timeline).
        self.record_deliveries = record_deliveries
        self.delivery_log: List[Message] = []
        self.round_index = 0
        #: Observability hook: a :class:`~repro.obs.spans.SpanRecorder`
        #: that receives one ``network_round`` event per delivery barrier.
        #: The default null recorder keeps the hot path allocation-free
        #: (every emission is guarded by ``observer.enabled``).
        self.observer = NULL_RECORDER
        #: Flight recorder: one :class:`~repro.obs.flight.FlightEvent` per
        #: unicast copy at each lifecycle step (send/deliver/drop).  The
        #: default null recorder keeps the hot path allocation-free
        #: (every emission is guarded by ``flight.enabled``).
        self.flight: FlightRecorder = NULL_FLIGHT
        #: Barrier model.  Without a latency model no delay is sampled, no
        #: copy is ever late, and a barrier takes no simulated time;
        #: :class:`~repro.network.asynchronous.TimeoutNetwork` sets all
        #: three.
        self.latency_model: Optional[LatencyModel] = None
        self.round_timeout = 0.0
        self.retry_policy = NO_RETRY
        #: Wall clock: sum of per-round barrier durations (grace
        #: sub-rounds included).
        self.clock = 0.0
        #: Unicast copies finally dropped for arriving after the timeout
        #: (post-retry: a copy recovered by a retransmission is not late).
        self.late_messages = 0
        #: Retransmission attempts across all grace sub-rounds.
        self.retries = 0
        #: Late copies that a retransmission delivered in time.
        self.recovered = 0
        #: Per-round barrier durations (timeout + grace extensions, or
        #: the slowest on-time arrival when nothing was missing).
        self.round_durations: List[float] = []

    # -- validation -----------------------------------------------------------
    def _check_participant(self, participant: int, role: str) -> None:
        if not 0 <= participant < self.num_participants:
            raise ValueError("invalid %s id %d" % (role, participant))

    def _broadcast_recipients(self, sender: int) -> List[int]:
        """Recipients of one published message (the fan-out contract).

        Every agent other than the sender, plus — only when
        ``broadcast_to_extras`` is set — the extra participants.
        """
        limit = (self.num_participants if self.broadcast_to_extras
                 else self.num_agents)
        return [a for a in range(limit) if a != sender]

    # -- transmission primitives ------------------------------------------------
    def send(self, sender: int, recipient: int, kind: str, payload: Any,
             field_elements: int = 1) -> None:
        """Queue a private point-to-point message for the next delivery."""
        self._check_participant(sender, "sender")
        self._check_participant(recipient, "recipient")
        if sender == recipient:
            raise ValueError("agents do not message themselves")
        self._outbox.append(Message(sender=sender, recipient=recipient,
                                    kind=kind, payload=payload,
                                    field_elements=field_elements))

    def publish(self, sender: int, kind: str, payload: Any,
                field_elements: int = 1) -> None:
        """Queue a published message (broadcast) for the next delivery."""
        self._check_participant(sender, "sender")
        self._outbox.append(Message(sender=sender, recipient=BROADCAST,
                                    kind=kind, payload=payload,
                                    field_elements=field_elements))

    # -- round execution -----------------------------------------------------
    def deliver(self) -> int:
        """Deliver all queued messages; returns the number delivered.

        This is the one round barrier every network and the socket
        transport share; only :meth:`_hand_off` differs between them.

        Faults are applied per expanded unicast copy, so a broadcast from a
        crashed sender reaches nobody while a broadcast over one dropped
        link still reaches the other recipients.  Metrics count messages
        actually *sent* by live senders (a dropped or late message was
        transmitted; it just did not arrive).

        With a latency model, each surviving copy's delay is sampled
        against ``round_timeout``.  The barrier waits its **full timeout
        whenever any expected copy is missing** — late, dropped by the
        fault plan, or from a crashed sender; a receiver cannot tell those
        apart, so the wait is the same.  Only a round in which every copy
        arrives releases early, at the slowest on-time arrival.  Late
        copies (and only those — deterministic withholding by a crashed
        or faulty sender is not transient) are then re-sent in up to
        ``retry_policy.max_retries`` grace sub-rounds; copies still
        missing afterwards are declared withheld.  Without a latency
        model nothing is sampled, nothing is late, and the clock stays 0.
        """
        delivered = 0
        flight = self.flight
        latency = self.latency_model
        queued, self._outbox = self._outbox, []
        slowest_on_time = 0.0
        withheld_this_round = 0  # fault-plan drops + crashed-sender copies
        # Late copies eligible for retry, paired with the seq of their
        # original flight "send" event so retry events link back to it.
        pending: List[Tuple[Message, Optional[int]]] = []
        for message in queued:
            if message.is_broadcast:
                recipients = self._broadcast_recipients(message.sender)
            else:
                recipients = [message.recipient]
            if self.fault_plan.sender_is_crashed(message.sender,
                                                 self.round_index):
                # The receivers still expected this round's copies: a
                # crashed sender holds the barrier to its full timeout.
                withheld_this_round += len(recipients)
                continue
            stamped = message.with_round(self.round_index)
            if message.is_broadcast:
                self.bulletin_board.append(stamped)
                self.metrics.record(stamped, self.num_participants,
                                    copies=len(recipients))
            else:
                self.metrics.record(stamped, self.num_participants)
            for recipient in recipients:
                unicast = Message(sender=stamped.sender, recipient=recipient,
                                  kind=stamped.kind, payload=stamped.payload,
                                  field_elements=stamped.field_elements,
                                  round_sent=self.round_index)
                sent_seq: Optional[int] = None
                if flight.enabled:
                    # One send event per expanded unicast copy — the unit
                    # NetworkMetrics charges (Theorem 11), dropped or not.
                    sent = self._record_flight(EVENT_SEND, unicast)
                    sent_seq = sent.seq if sent is not None else None
                final = self.fault_plan.transform(unicast, self.round_index)
                if final is None:
                    withheld_this_round += 1
                    if flight.enabled:
                        self._record_flight(EVENT_DROP, unicast,
                                            link=sent_seq,
                                            detail="fault_plan")
                    continue
                if latency is not None:
                    delay = latency.sample(stamped.sender, recipient)
                    if delay > self.round_timeout:
                        pending.append((final, sent_seq))
                        if flight.enabled:
                            self._record_flight(EVENT_LATE, final,
                                                receiver=recipient,
                                                link=sent_seq,
                                                detail="missed_barrier")
                        continue
                    slowest_on_time = max(slowest_on_time, delay)
                self._hand_off(recipient, final)
                delivered += 1
                if flight.enabled:
                    self._record_flight(EVENT_DELIVER, final,
                                        receiver=recipient, link=sent_seq)
        missing = withheld_this_round + len(pending)
        duration = self.round_timeout if missing else slowest_on_time
        # Grace sub-rounds: bounded retransmission with backoff.
        retries_this_round = 0
        recovered_this_round = 0
        for attempt in range(1, self.retry_policy.max_attempts):
            if not pending or latency is None:
                break
            window = self.retry_policy.grace_window(self.round_timeout,
                                                    attempt)
            still_pending: List[Tuple[Message, Optional[int]]] = []
            slowest_recovered = 0.0
            for copy, sent_seq in pending:
                self.metrics.record_retransmission(copy)
                retries_this_round += 1
                if flight.enabled:
                    self._record_flight(EVENT_RETRANSMIT, copy,
                                        attempt=attempt, link=sent_seq)
                delay = latency.sample(copy.sender, copy.recipient)
                if delay > window:
                    still_pending.append((copy, sent_seq))
                    continue
                slowest_recovered = max(slowest_recovered, delay)
                self._hand_off(copy.recipient, copy)
                self.metrics.record_recovery()
                recovered_this_round += 1
                delivered += 1
                if flight.enabled:
                    self._record_flight(EVENT_RECOVERY, copy,
                                        attempt=attempt, link=sent_seq)
            # The grace barrier waits its full window while anything is
            # still missing; otherwise it releases at the last recovery.
            duration += window if still_pending else slowest_recovered
            pending = still_pending
        if flight.enabled:
            for copy, sent_seq in pending:
                self._record_flight(EVENT_DROP, copy, link=sent_seq,
                                    detail="late")
        self.late_messages += len(pending)
        self.retries += retries_this_round
        self.recovered += recovered_this_round
        self.round_durations.append(duration)
        self.clock += duration
        self.metrics.record_round()
        if self.observer.enabled:
            self.observer.event("network_round", round=self.round_index,
                                messages=len(queued), delivered=delivered,
                                late=len(pending),
                                withheld=withheld_this_round,
                                retries=retries_this_round,
                                recovered=recovered_this_round,
                                barrier_duration=duration)
        self.round_index += 1
        return delivered

    def _hand_off(self, recipient: int, message: Message) -> None:
        """Put one surviving copy where ``recipient`` will receive it."""
        self._inboxes[recipient].append(message)
        if self.record_deliveries:
            self.delivery_log.append(message)

    def _record_flight(self, event_type: str, message: Message,
                       receiver: Optional[int] = None, attempt: int = 0,
                       link: Optional[int] = None,
                       detail: Optional[str] = None) -> Optional[FlightEvent]:
        """One flight event for ``message`` in the current round."""
        return self.flight.record(
            event_type, round_index=self.round_index, kind=message.kind,
            sender=message.sender,
            receiver=message.recipient if receiver is None else receiver,
            field_elements=message.field_elements, attempt=attempt,
            link=link, detail=detail)

    # -- reception -------------------------------------------------------------
    def receive(self, agent: int, kind: Optional[str] = None) -> List[Message]:
        """Drain (and return) an agent's inbox, optionally filtered by kind.

        Filtered receives leave other kinds queued.
        """
        self._check_participant(agent, "agent")
        inbox = self._inboxes[agent]
        if kind is None:
            self._inboxes[agent] = []
            return inbox
        matched = [m for m in inbox if m.kind == kind]
        self._inboxes[agent] = [m for m in inbox if m.kind != kind]
        return matched

    def peek(self, agent: int) -> Tuple[Message, ...]:
        """Return an agent's queued messages without consuming them."""
        self._check_participant(agent, "agent")
        return tuple(self._inboxes[agent])

    def published(self, kind: Optional[str] = None) -> List[Message]:
        """Return the bulletin-board history, optionally filtered by kind."""
        if kind is None:
            return list(self.bulletin_board)
        return [m for m in self.bulletin_board if m.kind == kind]
