"""Discrete-event simulation kernel.

A single :class:`Simulator` instance owns simulated time for one MITS
deployment.  Components schedule callbacks at absolute or relative
times; the kernel pops them in time order (FIFO among equal
timestamps) and runs them.  Long-running behaviours can be written as
generator :class:`Process` objects that ``yield`` delays.

The kernel is deliberately minimal — no real-time pacing, no threads —
so experiments are deterministic and fast: a full courseware download
over a simulated 155 Mb/s OC-3 link is just a few thousand events.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.accounting import Ledger
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import callsite_name
from repro.obs.tracing import Tracer

#: bucket ladder for host-side callback cost (wall-clock seconds)
_CALLBACK_BUCKETS = tuple(1e-7 * 4 ** i for i in range(10))


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.  Ordered by (time, seq) for determinism.

    The heap holds ``(time, seq, event)`` tuples so that ordering runs
    in C.  An event is only compared when two entries share ``(time,
    seq)`` (continuations from :meth:`Simulator.reschedule_at`); its
    ``(time, seq)`` equality then makes the two entries equal, so they
    keep the order they would have had as bare events.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap as a no-op)."""
        self.cancelled = True


class Simulator:
    """Event-queue simulator with deterministic tie-breaking."""

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 recorder: Optional[FlightRecorder] = None,
                 ledger: Optional[Ledger] = None,
                 profile_callbacks: bool = False) -> None:
        #: heap of (time, seq, event) entries
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_run = 0
        #: shared observability: every component attached to this
        #: simulator records into the same registry/tracer/recorder
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else \
            Tracer(clock=lambda: self._now)
        self.recorder = recorder if recorder is not None else \
            FlightRecorder(clock=lambda: self._now)
        #: per-entity accounting; disabled by default so the hot-path
        #: hooks hit the shared NULL_ACCOUNT (see obs/accounting)
        self.ledger = ledger if ledger is not None else Ledger(enabled=False)
        #: stateful endpoints (connections, players, ...) register here
        #: so the ConservationAuditor can find them without a topology
        self.entities: dict[str, list] = {}
        #: when True, each callback's wall-clock cost is histogrammed
        #: by callsite (the callback's qualified name) — costs a
        #: perf_counter pair per event, so off by default
        self.profile_callbacks = profile_callbacks
        #: a TelemetrySampler attached via its start(); schedule() wakes
        #: it from dormancy when new work arrives (see obs/timeseries)
        self._sampler: Optional[Any] = None
        #: per-cell-equivalent events credited by the *currently running*
        #: callback via charge_cells() — lets batched handlers (one event
        #: for a whole cell train) keep events_run and profiler call
        #: counts comparable with the legacy one-event-per-cell path
        self.event_extra = 0
        #: heap seq of the event currently executing — the tie-break
        #: identity batched continuations inherit via reschedule_at()
        self.current_seq: Optional[int] = None
        self._m_events = self.metrics.counter("simulator", "events_run")
        self._m_scheduled = self.metrics.counter("simulator", "events_scheduled")
        self._m_depth = self.metrics.gauge("simulator", "queue_depth")

    def register_entity(self, kind: str, obj: Any) -> None:
        """Expose *obj* (a connection, player, ...) to the auditor."""
        self.entities.setdefault(kind, []).append(obj)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_run

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at absolute simulated *time*.

        The event fires at exactly *time* — not ``now + (time - now)``,
        whose round-trip through float subtraction can land one ULP
        off.  The batched fast path relies on this: arithmetic cell
        times and event timestamps must be the same floats for the
        differential harness to see byte-identical snapshots.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})")
        return self._push(time, callback, args)

    def reschedule_at(self, time: float, seq: Optional[int],
                      callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at *time*, inheriting tie-break *seq*.

        The batched fast path re-schedules the un-final remainder of a
        cell train as a continuation event.  Among equal timestamps
        the heap breaks ties by seq, and the legacy per-cell events a
        continuation stands for were sequenced when the train was
        first scheduled — so the continuation must compete with that
        original seq, not a fresh one, or a rival train scheduled
        after it (higher seq) but due at the same instant would
        overtake cells it should queue behind.  ``seq=None`` falls
        back to a fresh sequence number.
        """
        if seq is None:
            return self.schedule_at(time, callback, *args)
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})")
        return self._push(time, callback, args, seq)

    def _push(self, time: float, callback: Callable[..., Any], args: tuple,
              seq: Optional[int] = None) -> Event:
        if seq is None:
            seq = next(self._seq)
        ev = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, ev))
        self._m_scheduled.inc()
        self._m_depth.set(len(self._queue))
        sampler = self._sampler
        if sampler is not None and sampler.dormant:
            sampler.wake()
        return ev

    def charge_cells(self, extra: int) -> None:
        """Credit *extra* per-cell-equivalent events to the running event.

        Batched handlers process a whole cell train in one callback;
        charging the equivalent legacy event count keeps ``events_run``
        (and everything derived from it: bench vectors, the perf floor,
        profiler call counts) comparable across fidelity modes.
        """
        if extra <= 0:
            return
        self._events_run += extra
        self._m_events.inc(extra)
        self.event_extra += extra

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events in order.

        Stops when the queue drains, when the next event lies beyond
        *until*, or after *max_events* events.  Returns the simulated
        time reached.  When stopping at *until*, the clock is advanced
        to exactly *until* so back-to-back ``run`` calls compose — but
        only when no runnable event remains at or before *until*: if
        the *max_events* budget stops us mid-timeline, the clock stays
        at the last executed event so a subsequent ``run`` resumes
        without ever moving time backwards.
        """
        self._drain(until, max_events)
        if until is not None and self._now < until:
            nxt = self._next_event_time()
            if nxt is None or nxt > until:
                self._now = until
        return self._now

    def step(self) -> bool:
        """Run exactly one event.  Returns False if the queue is empty."""
        return self._drain(None, 1) == 1

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        """Pop and execute events in order: the one loop behind both
        :meth:`run` and :meth:`step`.

        Cancelled entries at the head are discarded on the way.  Stops
        when the queue is empty, when the next event lies beyond
        *until*, or after *max_events* events; returns how many ran.
        """
        queue = self._queue
        count = 0
        while queue:
            time, seq, ev = queue[0]
            if ev.cancelled:
                heapq.heappop(queue)
                self._m_depth.set(len(queue))
                continue
            if until is not None and time > until:
                break
            heapq.heappop(queue)
            self._now = time
            self.current_seq = seq
            self._execute(ev)
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def _execute(self, ev: Event) -> None:
        if self.profile_callbacks:
            t0 = _time.perf_counter()
            ev.callback(*ev.args)
            cost = _time.perf_counter() - t0
            callsite = callsite_name(ev.callback)
            self.metrics.histogram(
                "simulator", "callback_seconds",
                buckets=_CALLBACK_BUCKETS, callsite=callsite).observe(cost)
        else:
            ev.callback(*ev.args)
        self._events_run += 1
        self._m_events.inc()
        self._m_depth.set(len(self._queue))

    def _next_event_time(self) -> Optional[float]:
        """Timestamp of the next runnable event (cancelled ones are
        lazily discarded), or None when the queue is effectively empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        self._m_depth.set(len(queue))
        return queue[0][0] if queue else None

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _t, _s, ev in self._queue if not ev.cancelled)

    def spawn(self, generator: Generator[float, None, None]) -> "Process":
        """Start a generator-based process; it runs its first segment now."""
        proc = Process(self, generator)
        proc._advance()
        return proc


class Process:
    """Generator-driven process.

    The generator yields the number of simulated seconds to sleep
    before its next segment runs.  Returning (StopIteration) ends the
    process.  ``kill()`` stops it between segments.
    """

    def __init__(self, sim: Simulator, generator: Generator[float, None, None]) -> None:
        self._sim = sim
        self._gen = generator
        self._alive = True
        self._pending_event: Optional[Event] = None

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Terminate the process; its pending wakeup (if any) is cancelled."""
        self._alive = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None

    def _advance(self) -> None:
        if not self._alive:
            return
        try:
            delay = next(self._gen)
        except StopIteration:
            self._alive = False
            self._pending_event = None
            return
        self._pending_event = self._sim.schedule(delay, self._advance)


def run_all(sim: Simulator, processes: Iterable[Generator[float, None, None]],
            until: Optional[float] = None) -> float:
    """Convenience: spawn all *processes* and run the simulator."""
    for gen in processes:
        sim.spawn(gen)
    return sim.run(until=until)
