"""Asyncio socket transport: the round barrier over localhost TCP.

:class:`AsyncioSocketTransport` realizes the :class:`~repro.network
.transport.Transport` contract with real sockets: a hub accepts one TCP
connection per participant (one asyncio reader task per endpoint on both
sides of each connection), and every protocol message crosses the wire
as a length-prefixed pickle frame.  One :meth:`step` call is one
synchronization barrier:

1. every queued message is written as a ``submit`` frame on its sender's
   connection;
2. the hub collects the round's submissions and routes them in global
   submission order — the same order the in-process simulator drains its
   outbox, so fault-plan and latency RNG consumption match exactly;
3. the routed messages go through the *same* delivery loop as every
   other network — the transport is a
   :class:`~repro.network.asynchronous.TimeoutNetwork` and inherits
   :meth:`~repro.network.simulator.SynchronousNetwork.deliver` (crash
   plans, per-copy fault transforms, sampled latency against
   ``round_timeout``, :class:`~repro.network.asynchronous.RetryPolicy`
   grace sub-rounds, clock and flight events).  Only the hand-off
   differs: a surviving copy is written to the recipient's socket as a
   ``copy`` frame instead of being appended to an inbox;
4. the barrier releases when every delivered copy has been acknowledged
   (``ack`` frames); a socket-level failure to do so within a generous
   wall-clock bound raises :class:`~repro.network.transport
   .TransportError`.

The simulated clock (``clock``/``round_durations``) advances by the
shared loop's formulas, not wall time: the sockets carry the bytes, the
latency model decides the semantics.  The transport is its own
``network_view()``: as a network subclass it carries the full state
surface (``metrics``, ``round_index``, ``clock``, ``late_messages``,
``retries``, ``recovered``, ``round_durations``, ``bulletin_board``,
``observer``, ``flight``, ``broadcast_to_extras``) that checkpoints and
the observability bindings read.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from .asynchronous import RetryPolicy, TimeoutNetwork
from .faults import FaultPlan
from .latency import LatencyModel
from .message import Message
from .transport import Transport, TransportError

_HEADER = struct.Struct(">I")


def _encode_frame(frame: Tuple[Any, ...]) -> bytes:
    body = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


async def _read_frame(reader: asyncio.StreamReader
                      ) -> Optional[Tuple[Any, ...]]:
    try:
        header = await reader.readexactly(_HEADER.size)
        body = await reader.readexactly(_HEADER.unpack(header)[0])
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return pickle.loads(body)


class AsyncioSocketTransport(TimeoutNetwork, Transport):
    """Localhost TCP transport over the shared delivery loop.

    Parameters
    ----------
    num_agents, fault_plan, extra_participants:
        As for :class:`~repro.network.simulator.SynchronousNetwork`.
    latency_model:
        Per-copy delay sampler; defaults to a zero-latency model (every
        copy makes the barrier).
    round_timeout:
        Simulated barrier duration ``T`` — copies whose sampled delay
        exceeds it miss the barrier, exactly as in ``TimeoutNetwork``.
    retry_policy:
        Optional :class:`RetryPolicy`; defaults to :data:`NO_RETRY`.
    host:
        Interface to bind the hub on (loopback by default).
    """

    name = "asyncio"

    def __init__(self, num_agents: int,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 1,
                 latency_model: Optional[LatencyModel] = None,
                 round_timeout: float = 1.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 host: str = "127.0.0.1") -> None:
        super().__init__(
            num_agents,
            latency_model or LatencyModel(random.Random(0), base=0.0,
                                          jitter=0.0),
            round_timeout, fault_plan=fault_plan,
            extra_participants=extra_participants,
            retry_policy=retry_policy)
        self._submissions: List[Tuple[int, Message]] = []
        #: Copies written this round and not yet acknowledged.  Each
        #: endpoint acks every copy exactly once over its own TCP stream,
        #: so a count closes the barrier; no per-copy ids are needed.
        self._unacked = 0
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._server: Optional[asyncio.AbstractServer] = None
        self._hub_writers: Dict[int, asyncio.StreamWriter] = {}
        self._client_writers: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: List[asyncio.Task] = []
        self._frame_event = asyncio.Event()
        try:
            self._loop.run_until_complete(self._start(host))
        except BaseException:
            # A half-built transport (e.g. the hello barrier timed out)
            # must not leak its server socket, connections, reader tasks
            # or private event loop: tear down whatever _start managed
            # to create before propagating.
            self.close()
            raise

    # -- connection setup -----------------------------------------------------
    async def _start(self, host: str) -> None:
        hellos: asyncio.Queue = asyncio.Queue()

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            hello = await _read_frame(reader)
            if hello is None or hello[0] != "hello":
                writer.close()
                return
            pid = hello[1]
            self._hub_writers[pid] = writer
            await hellos.put(pid)
            self._tasks.append(
                self._loop.create_task(self._hub_reader(reader)))

        self._server = await asyncio.start_server(handle, host=host, port=0)
        port = self._server.sockets[0].getsockname()[1]
        for pid in range(self.num_participants):
            reader, writer = await asyncio.open_connection(host, port)
            self._client_writers[pid] = writer
            writer.write(_encode_frame(("hello", pid)))
            await writer.drain()
            self._tasks.append(
                self._loop.create_task(self._endpoint_reader(pid, reader)))
        connected = set()
        while len(connected) < self.num_participants:
            connected.add(await asyncio.wait_for(hellos.get(), 10.0))

    async def _hub_reader(self, reader: asyncio.StreamReader) -> None:
        """Hub side of one connection: collect submit and ack frames."""
        while True:
            frame = await _read_frame(reader)
            if frame is None:
                return
            if frame[0] == "submit":
                self._submissions.append((frame[1], frame[2]))
            elif frame[0] == "ack":
                self._unacked -= 1
            self._frame_event.set()

    async def _endpoint_reader(self, pid: int,
                               reader: asyncio.StreamReader) -> None:
        """Endpoint side of one connection: absorb copies, acknowledge."""
        while True:
            frame = await _read_frame(reader)
            if frame is None:
                return
            if frame[0] == "copy":
                self._inboxes[pid].append(frame[1])
                writer = self._client_writers[pid]
                writer.write(_encode_frame(("ack",)))
                await writer.drain()

    # -- the round barrier ----------------------------------------------------
    def step(self) -> int:
        if self._closed:
            raise TransportError("transport is closed")
        return self._loop.run_until_complete(self._step_async())

    def _wall_bound(self) -> float:
        """Real-time bound on socket progress (not the simulated clock)."""
        return max(5.0, self.round_timeout)

    async def _await_frames(self, done: Callable[[], bool],
                            round_index: int) -> None:
        """Wait until ``done()`` holds, re-checking after every frame."""
        try:
            while not done():
                self._frame_event.clear()
                await asyncio.wait_for(self._frame_event.wait(),
                                       self._wall_bound())
        except asyncio.TimeoutError:
            raise TransportError(
                "socket barrier stalled: round %d did not complete within "
                "%.1fs of wall time" % (round_index, self._wall_bound()))

    def _hand_off(self, recipient: int, message: Message) -> None:
        """Write one surviving copy to its recipient's socket."""
        self._unacked += 1
        self._hub_writers[recipient].write(_encode_frame(("copy", message)))

    async def _step_async(self) -> int:
        # ``deliver`` advances round_index before the ack barrier runs.
        round_index = self.round_index
        self._submissions = []
        self._unacked = 0
        queued, self._outbox = self._outbox, []
        for seq, message in enumerate(queued):
            self._client_writers[message.sender].write(
                _encode_frame(("submit", seq, message)))
        for writer in self._client_writers.values():
            await writer.drain()
        await self._await_frames(
            lambda: len(self._submissions) >= len(queued), round_index)
        # Route in global submission order: identical to the in-process
        # simulator's outbox drain, so RNG consumption and metrics match.
        self._outbox = [message for _, message in
                        sorted(self._submissions, key=lambda pair: pair[0])]
        delivered = self.deliver()
        # Ack barrier: every copy put on the wire must come back
        # acknowledged before the round closes.
        for writer in self._hub_writers.values():
            await writer.drain()
        await self._await_frames(lambda: self._unacked == 0, round_index)
        return delivered

    # -- lifecycle ------------------------------------------------------------
    def network_view(self) -> "AsyncioSocketTransport":
        return self

    def close(self) -> None:
        """Tear down the transport; safe to call any number of times.

        Drains every reader task and waits for every socket to finish
        closing before the private event loop is closed, so repeated
        in-process runs (the ``dmw serve`` daemon) never accumulate
        pending tasks, unclosed transports, or ``ResourceWarning``s.
        """
        if self._closed:
            return
        self._closed = True
        if not self._loop.is_closed() and not self._loop.is_running():
            self._loop.run_until_complete(self._shutdown())
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()
        self._tasks = []
        self._hub_writers = {}
        self._client_writers = {}
        self._server = None

    def __del__(self) -> None:
        # Safety net for transports dropped without close() (an aborted
        # run unwinding past its finally).  Best-effort only: if another
        # event loop is running on this thread we cannot drive ours, so
        # leave cleanup to interpreter-level finalizers.
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    async def _shutdown(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        writers = (list(self._client_writers.values())
                   + list(self._hub_writers.values()))
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
