"""Streaming dispatch service: the market as a live event stream.

Instead of solving rounds over a frozen population, this package runs
the labor market continuously — tasks and workers arrive through
:mod:`repro.market.arrivals` processes, events flow over an
:class:`~repro.stream.bus.EventBus`, and pluggable policies
(:mod:`repro.stream.policies`) commit assignments incrementally, from
pure arrival-instant greedy up to micro-batch windows, each one
max-weight b-matching of a ``RowwiseBenefit`` block (exact for
edge-decomposable combiners such as the linear one).
The round-based engine survives as one policy (``policy = "round"``)
whose output stays bit-identical to calling it directly.

Entry points: :class:`StreamDispatcher` programmatically, or
``python -m repro stream <spec>`` from the command line.
"""

from repro.stream.bus import EventBus
from repro.stream.dispatch import (
    DISPATCH_POLICIES,
    DispatchConfig,
    DispatchRuntime,
    StreamDispatcher,
)
from repro.stream.events import (
    StreamEvent,
    TaskPosted,
    WindowFlush,
    WorkerLogin,
)
from repro.stream.metrics import AssignmentRecord, StreamResult
from repro.stream.policies import (
    ONLINE_POLICIES,
    DispatchPolicy,
    GreedyPolicy,
    MicroBatchPolicy,
    SamplePricePolicy,
    make_policy,
)
from repro.stream.sessions import SessionLedger
from repro.stream.writer import BatchWriter

__all__ = [
    "DISPATCH_POLICIES",
    "ONLINE_POLICIES",
    "AssignmentRecord",
    "BatchWriter",
    "DispatchConfig",
    "DispatchPolicy",
    "DispatchRuntime",
    "EventBus",
    "GreedyPolicy",
    "MicroBatchPolicy",
    "SamplePricePolicy",
    "SessionLedger",
    "StreamDispatcher",
    "StreamEvent",
    "StreamResult",
    "TaskPosted",
    "WindowFlush",
    "WorkerLogin",
    "make_policy",
]
