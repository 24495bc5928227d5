"""Timeout semantics: running the synchronous protocol on slow links.

DMW is specified with implicit synchronization barriers; a deployment
realizes a barrier with a *timeout*: wait up to ``T`` for the round's
messages, treat anything later as withheld.  :class:`TimeoutNetwork` is
the synchronous simulator with exactly that configured: every unicast's
arrival time is sampled from a :class:`~repro.network.latency.LatencyModel`,
messages arriving after the round timeout are dropped (and counted), and
a wall clock advances by the per-round barrier time.  The barrier itself
is :meth:`SynchronousNetwork.deliver
<repro.network.simulator.SynchronousNetwork.deliver>`, the one delivery
loop shared by every network and the socket transport.

On top of the bare timeout, a :class:`RetryPolicy` adds bounded
retransmission with backoff: a unicast copy whose sampled delay exceeds
the barrier is re-sent in a *grace sub-round* (with an exponentially
widening window) before being declared withheld.  Every retransmission
is charged to the :class:`~repro.network.metrics.NetworkMetrics` at full
price and tallied separately (``retransmissions``/``recovered_messages``),
and the wall clock accounts each grace window exactly — retries make the
execution survivable under transient slowness without ever hiding their
cost.  The default :data:`NO_RETRY` policy reproduces the bare-timeout
behaviour bit for bit.

This closes the loop on the paper's own future work ("implementing DMW
in a simulated distributed environment") at the fidelity the protocol's
synchronous structure admits: the interesting asynchrony — a slow agent
being indistinguishable from a withholding one — is captured, and the
safety dichotomy (correct outcome or abort, never a wrong outcome) can
be tested under it (``tests/test_asynchronous.py``).
"""

from __future__ import annotations

from typing import Optional

from .faults import FaultPlan
from .latency import LatencyModel
from .simulator import NO_RETRY, RetryPolicy, SynchronousNetwork

__all__ = ["NO_RETRY", "RetryPolicy", "TimeoutNetwork"]


class TimeoutNetwork(SynchronousNetwork):
    """A synchronous network whose barriers are realized by timeouts.

    Parameters
    ----------
    num_agents, fault_plan, extra_participants:
        As for :class:`~repro.network.simulator.SynchronousNetwork`.
    latency_model:
        Per-message delay sampler.
    round_timeout:
        Barrier duration ``T``: messages with sampled delay above ``T``
        miss the base barrier (and, absent retries, are dropped as late).
    retry_policy:
        Optional :class:`RetryPolicy`; defaults to :data:`NO_RETRY`.
    """

    def __init__(self, num_agents: int, latency_model: LatencyModel,
                 round_timeout: float,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 0,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        super().__init__(num_agents, fault_plan=fault_plan,
                         extra_participants=extra_participants)
        if round_timeout <= 0:
            raise ValueError("round timeout must be positive")
        self.latency_model = latency_model
        self.round_timeout = round_timeout
        self.retry_policy = retry_policy or NO_RETRY
