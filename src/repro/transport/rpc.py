"""Request/response endpoints and media streams.

:class:`RpcServer` registers named methods; :class:`RpcClient` calls
them.  Both ride on a reliable :class:`~repro.transport.connection.Connection`,
so requests and responses survive cell loss.  Because everything runs
inside the discrete-event simulator, calls are asynchronous: the
client's :meth:`RpcClient.call` returns a :class:`PendingCall` whose
callback fires when the response arrives (or reports a timeout).

Streams model on-demand media delivery: the server pushes
``STREAM_DATA`` chunks tied to a correlation id; the client hands them
to a :class:`StreamReceiver` which reassembles ordered chunks and
signals completion on ``STREAM_END`` — the path a video object takes
from the content server to the navigator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.atm.simulator import Event, Simulator
from repro.obs.tracing import NULL_SPAN, TraceContext
from repro.transport.connection import Connection
from repro.transport.messages import Message, MessageType
from repro.transport.wire import dump_value, load_value
from repro.util.errors import NetworkError, ReproError


class RpcError(ReproError):
    """A remote method signalled failure."""

    def __init__(self, method: str, reason: str) -> None:
        super().__init__(f"{method}: {reason}")
        self.method = method
        self.reason = reason


@dataclass
class PendingCall:
    """Handle for an in-flight request."""

    method: str
    corr_id: int
    on_result: Optional[Callable[[Any], None]] = None
    on_error: Optional[Callable[[RpcError], None]] = None
    done: bool = False
    result: Any = None
    error: Optional[RpcError] = None
    #: transmissions so far (1 = first attempt) and retries still allowed
    attempts: int = 1
    retries_left: int = 0
    timeout: float = 10.0
    _body: bytes = b""
    _trace_id: int = 0
    _span_id: int = 0
    _timeout_event: Optional[Event] = None
    #: client-side span covering the request/response round trip
    _span: Any = NULL_SPAN
    #: context the caller had attached when issuing the call; completion
    #: callbacks run under it so follow-up spans parent correctly
    _ctx: Optional[TraceContext] = None

    def _complete(self, result: Any) -> None:
        if self.done:
            return
        self.done = True
        self.result = result
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        if self.on_result is not None:
            self.on_result(result)

    def _fail(self, error: RpcError) -> None:
        if self.done:
            return
        self.done = True
        self.error = error
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        if self.on_error is not None:
            self.on_error(error)


class StreamReceiver:
    """Collects STREAM_DATA chunks for one correlation id."""

    def __init__(self, on_chunk: Optional[Callable[[bytes], None]] = None,
                 on_end: Optional[Callable[["StreamReceiver"], None]] = None) -> None:
        self.chunks: List[bytes] = []
        self.finished = False
        self.on_chunk = on_chunk
        self.on_end = on_end
        self.first_chunk_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._span: Any = NULL_SPAN
        self._ctx: Optional[TraceContext] = None

    @property
    def data(self) -> bytes:
        return b"".join(self.chunks)

    def _feed(self, chunk: bytes, now: float) -> None:
        if self.first_chunk_at is None:
            self.first_chunk_at = now
        self.chunks.append(chunk)
        if self.on_chunk is not None:
            self.on_chunk(chunk)

    def _end(self, now: float) -> None:
        self.finished = True
        self.finished_at = now
        if self.on_end is not None:
            self.on_end(self)


class RpcClient:
    """Caller side.  Wire with ``RpcClient(sim, connection)``.

    With ``max_retries > 0`` a timed-out call is retried with
    exponential backoff plus seeded jitter before the failure is
    reported — the recovery half of content-server stall injection.
    Retries reuse the original correlation id, so semantics are
    at-least-once: a late response to an earlier attempt still
    completes the call (handlers should be idempotent, as MITS
    catalogue lookups are).
    """

    def __init__(self, sim: Simulator, connection: Connection, *,
                 default_timeout: float = 10.0,
                 max_retries: int = 0,
                 backoff_base: float = 0.2,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.5,
                 retry_seed: int = 7) -> None:
        self.sim = sim
        self.connection = connection
        self.default_timeout = default_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self._retry_rng = random.Random(retry_seed)
        self._corr = itertools.count(1)
        self._pending: Dict[int, PendingCall] = {}
        self._streams: Dict[int, StreamReceiver] = {}
        label = connection.name or "rpc"
        metrics = sim.metrics
        self._m_retries = metrics.counter("rpc", "retries", client=label)
        self._m_exhausted = metrics.counter("rpc", "retries_exhausted",
                                            client=label)
        connection.on_message = self._on_message

    def call(self, method: str, params: Any = None, *,
             on_result: Optional[Callable[[Any], None]] = None,
             on_error: Optional[Callable[[RpcError], None]] = None,
             timeout: Optional[float] = None,
             max_retries: Optional[int] = None) -> PendingCall:
        """Issue a request.  Completion is signalled via callbacks."""
        corr = next(self._corr)
        tracer = self.sim.tracer
        t = timeout if timeout is not None else self.default_timeout
        retries = max_retries if max_retries is not None else self.max_retries
        pending = PendingCall(method=method, corr_id=corr,
                              on_result=on_result, on_error=on_error,
                              retries_left=retries, timeout=t,
                              _ctx=tracer.current)
        pending._span = tracer.span(f"rpc.client:{method}", method=method)
        self._pending[corr] = pending
        body = dump_value({"method": method, "params": params})
        msg = Message(type=MessageType.REQUEST, corr_id=corr, body=body)
        self._stamp(msg, pending._span)
        pending._body = msg.body
        pending._trace_id = msg.trace_id
        pending._span_id = msg.span_id
        self.connection.send(msg)
        pending._timeout_event = self.sim.schedule(
            t, self._on_timeout, corr)
        return pending

    def open_stream(self, method: str, params: Any = None, *,
                    on_chunk: Optional[Callable[[bytes], None]] = None,
                    on_end: Optional[Callable[[StreamReceiver], None]] = None,
                    timeout: Optional[float] = None) -> StreamReceiver:
        """Issue a request whose response is a chunk stream."""
        corr = next(self._corr)
        tracer = self.sim.tracer
        receiver = StreamReceiver(on_chunk=on_chunk, on_end=on_end)
        receiver._ctx = tracer.current
        receiver._span = tracer.span(f"rpc.client:{method}", method=method,
                                     stream=True)
        self._streams[corr] = receiver
        body = dump_value({"method": method, "params": params})
        msg = Message(type=MessageType.REQUEST, corr_id=corr, body=body)
        self._stamp(msg, receiver._span)
        self.connection.send(msg)
        return receiver

    @staticmethod
    def _stamp(msg: Message, span: Any) -> None:
        ctx = span.context
        if ctx is not None:
            msg.trace_id = ctx.trace_id
            msg.span_id = ctx.span_id

    def _on_timeout(self, corr: int) -> None:
        pending = self._pending.get(corr)
        if pending is None or pending.done:
            self._pending.pop(corr, None)
            return
        if pending.retries_left > 0:
            pending.retries_left -= 1
            # exponential backoff with seeded jitter: attempt n waits
            # base * factor**(n-1), stretched by up to +jitter*100%
            delay = (self.backoff_base
                     * self.backoff_factor ** (pending.attempts - 1)
                     * (1.0 + self.backoff_jitter * self._retry_rng.random()))
            pending.attempts += 1
            self._note_retry(pending)
            self.sim.schedule(delay, self._resend, corr)
            pending._timeout_event = self.sim.schedule(
                delay + pending.timeout, self._on_timeout, corr)
            return
        self._pending.pop(corr, None)
        if pending.attempts > 1:
            self._m_exhausted.inc()
            self.sim.recorder.record(
                "rpc", "retries_exhausted", severity="error",
                trace_id=pending._trace_id or None,
                method=pending.method, attempts=pending.attempts)
        pending._span.set(error="timeout")
        pending._span.end()
        tracer = self.sim.tracer
        token = tracer.attach(pending._ctx)
        try:
            pending._fail(RpcError(pending.method, "timed out"))
        finally:
            tracer.detach(token)

    def _note_retry(self, pending: PendingCall) -> None:
        self._m_retries.inc()
        self.sim.recorder.record(
            "rpc", "retry", severity="warning",
            trace_id=pending._trace_id or None,
            method=pending.method, attempt=pending.attempts)

    def _resend(self, corr: int) -> None:
        pending = self._pending.get(corr)
        if pending is None or pending.done:
            return
        msg = Message(type=MessageType.REQUEST, corr_id=corr,
                      trace_id=pending._trace_id, span_id=pending._span_id,
                      body=pending._body)
        try:
            self.connection.send(msg)
        except NetworkError as exc:
            # connection torn down while backing off: fail structurally
            self._pending.pop(corr, None)
            if pending._timeout_event is not None:
                pending._timeout_event.cancel()
            pending._span.set(error=str(exc))
            pending._span.end()
            tracer = self.sim.tracer
            token = tracer.attach(pending._ctx)
            try:
                pending._fail(RpcError(pending.method, str(exc)))
            finally:
                tracer.detach(token)

    def _on_message(self, msg: Message) -> None:
        tracer = self.sim.tracer
        if msg.type is MessageType.RESPONSE:
            pending = self._pending.pop(msg.corr_id, None)
            if pending is not None:
                pending._span.end()
                token = tracer.attach(pending._ctx)
                try:
                    pending._complete(load_value(msg.body))
                finally:
                    tracer.detach(token)
        elif msg.type is MessageType.ERROR:
            pending = self._pending.pop(msg.corr_id, None)
            if pending is not None:
                reason = load_value(msg.body)
                pending._span.set(error=str(reason))
                pending._span.end()
                token = tracer.attach(pending._ctx)
                try:
                    pending._fail(RpcError(pending.method, str(reason)))
                finally:
                    tracer.detach(token)
        elif msg.type is MessageType.STREAM_DATA:
            stream = self._streams.get(msg.corr_id)
            if stream is not None:
                token = tracer.attach(stream._ctx)
                try:
                    stream._feed(msg.body, self.sim.now)
                finally:
                    tracer.detach(token)
        elif msg.type is MessageType.STREAM_END:
            stream = self._streams.pop(msg.corr_id, None)
            if stream is not None:
                stream._span.set(chunks=len(stream.chunks))
                stream._span.end()
                token = tracer.attach(stream._ctx)
                try:
                    stream._end(self.sim.now)
                finally:
                    tracer.detach(token)


#: handler signature: handler(params) -> result value, or raise RpcError
Handler = Callable[[Any], Any]
#: stream handler: handler(params) -> iterable of bytes chunks
StreamHandler = Callable[[Any], Any]


class SharedProcessor:
    """A serialising CPU shared by all of one server's RPC endpoints.

    The 1996 database site was one SUN/ULTRA: concurrent requests from
    different clients queued for the same machine.  Endpoints created
    with a shared processor dispatch through its FIFO, so response
    time grows with concurrent load — the behaviour the Fig 3.5
    scaling experiment measures.
    """

    def __init__(self, sim: Simulator, service_time: float) -> None:
        self.sim = sim
        self.service_time = service_time
        #: fault injection: multiplier on per-job service time (>1 =
        #: degraded CPU / thrashing disk)
        self.slowdown = 1.0
        self._stalled_until = 0.0
        self._queue: list = []
        self._busy = False
        self.jobs_done = 0
        self.busy_time = 0.0

    def stall(self, duration: float) -> None:
        """Freeze the processor for *duration* seconds from now.

        Queued and newly-submitted jobs wait; nothing is lost.  Models
        a content-server GC pause / failover blackout.
        """
        self._stalled_until = max(self._stalled_until,
                                  self.sim.now + duration)
        # wake up when the stall expires so queued work resumes even
        # if no new submissions arrive
        if self._queue and not self._busy:
            self._run_next()

    def set_slowdown(self, factor: float) -> None:
        """Scale every subsequent job's service time by *factor*."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = factor

    def submit(self, job: Callable[[], None]) -> None:
        self._queue.append(job)
        if not self._busy:
            self._run_next()

    def _run_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        if self.sim.now < self._stalled_until:
            # hold the queue until the stall lifts; _busy stays True so
            # concurrent submits don't double-schedule the wakeup
            self._busy = True
            self.sim.schedule(self._stalled_until - self.sim.now,
                              self._run_next)
            return
        self._busy = True
        job = self._queue.pop(0)
        service = self.service_time * self.slowdown
        self.busy_time += service
        self.sim.schedule(service, self._finish, job)

    def _finish(self, job: Callable[[], None]) -> None:
        job()
        self.jobs_done += 1
        self._run_next()


class RpcServer:
    """Callee side: dispatches named methods over one connection.

    A server typically serves many clients, each over its own
    connection; create one RpcServer per connection sharing the same
    handler registry via :meth:`clone_for`.
    """

    def __init__(self, sim: Simulator, connection: Connection, *,
                 chunk_size: int = 8192,
                 service_time: float = 0.0,
                 processor: Optional["SharedProcessor"] = None) -> None:
        self.sim = sim
        self.connection = connection
        self.chunk_size = chunk_size
        #: fixed per-request processing delay (models server CPU/disk);
        #: ignored when a shared processor serialises requests instead
        self.service_time = service_time
        self.processor = processor
        self._handlers: Dict[str, Handler] = {}
        self._stream_handlers: Dict[str, StreamHandler] = {}
        self.requests_served = 0
        connection.on_message = self._on_message

    def register(self, method: str, handler: Handler) -> None:
        self._handlers[method] = handler

    def register_stream(self, method: str, handler: StreamHandler) -> None:
        self._stream_handlers[method] = handler

    def clone_for(self, connection: Connection) -> "RpcServer":
        """A new server endpoint sharing this one's handler registry."""
        twin = RpcServer(self.sim, connection, chunk_size=self.chunk_size,
                         service_time=self.service_time,
                         processor=self.processor)
        twin._handlers = self._handlers
        twin._stream_handlers = self._stream_handlers
        return twin

    def _on_message(self, msg: Message) -> None:
        if msg.type is not MessageType.REQUEST:
            return
        # re-attach the caller's trace context on this site: the span
        # tree continues across the wire under one trace_id
        ctx = TraceContext(msg.trace_id, msg.span_id) if msg.trace_id \
            else None
        try:
            envelope = load_value(msg.body)
            method = envelope["method"]
            params = envelope.get("params")
        except Exception:
            self._send(Message(
                type=MessageType.ERROR, corr_id=msg.corr_id,
                body=dump_value("malformed request")), ctx)
            return
        if self.processor is not None:
            self.processor.submit(
                lambda: self._dispatch(method, params, msg.corr_id, ctx))
        else:
            self.sim.schedule(self.service_time, self._dispatch,
                              method, params, msg.corr_id, ctx)

    def _send(self, msg: Message, ctx: Optional[TraceContext]) -> None:
        if ctx is not None:
            msg.trace_id = ctx.trace_id
            msg.span_id = ctx.span_id
        if self.connection.closed:
            # the connection failed while the request was being
            # served: nobody is left to read the reply, and raising
            # here would unwind the simulator loop
            self.sim.recorder.record(
                "rpc", "reply_dropped", severity="warning",
                trace_id=msg.trace_id or None, conn=self.connection.name,
                corr_id=msg.corr_id, message=msg.type.name)
            return
        self.connection.send(msg)

    def _dispatch(self, method: str, params: Any, corr_id: int,
                  ctx: Optional[TraceContext] = None) -> None:
        tracer = self.sim.tracer
        token = tracer.attach(ctx)
        try:
            with tracer.span(f"rpc.server:{method}", method=method) as span:
                self._serve(method, params, corr_id,
                            span.context if span.context is not None else ctx)
        finally:
            tracer.detach(token)

    def _serve(self, method: str, params: Any, corr_id: int,
               ctx: Optional[TraceContext]) -> None:
        self.requests_served += 1
        if method in self._stream_handlers:
            try:
                chunks = self._stream_handlers[method](params)
            except Exception as exc:
                self._send(Message(
                    type=MessageType.ERROR, corr_id=corr_id,
                    body=dump_value(str(exc))), ctx)
                return
            for chunk in chunks:
                for i in range(0, len(chunk), self.chunk_size):
                    self._send(Message(
                        type=MessageType.STREAM_DATA, corr_id=corr_id,
                        body=bytes(chunk[i:i + self.chunk_size])), ctx)
            self._send(Message(type=MessageType.STREAM_END,
                               corr_id=corr_id), ctx)
            return
        handler = self._handlers.get(method)
        if handler is None:
            self._send(Message(
                type=MessageType.ERROR, corr_id=corr_id,
                body=dump_value(f"unknown method {method!r}")), ctx)
            return
        try:
            result = handler(params)
        except RpcError as exc:
            self._send(Message(
                type=MessageType.ERROR, corr_id=corr_id,
                body=dump_value(exc.reason)), ctx)
            return
        except Exception as exc:
            self._send(Message(
                type=MessageType.ERROR, corr_id=corr_id,
                body=dump_value(f"internal error: {exc}")), ctx)
            return
        self._send(Message(type=MessageType.RESPONSE, corr_id=corr_id,
                           body=dump_value(result)), ctx)
