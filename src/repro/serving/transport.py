"""Pluggable worker transports for the sharded serving cluster.

:mod:`repro.serving.protocol` defines *what* crosses the wire; this module
defines *how*.  A :class:`Transport` hands the cluster front end one
:class:`WorkerEndpoint` per shard, all speaking the same strict
request/reply protocol, so :class:`~repro.serving.cluster.ShardedEngine`
reduces to placement + fan-out/merge and never touches a pipe or socket:

* :class:`InprocTransport` -- same-process loopback.  No child processes,
  no byte encoding; commands dispatch straight into a
  :class:`WorkerServicer`.  The hermetic path for tests and 1-shard
  clusters, with exception mapping identical to the real transports;
* :class:`PipeTransport` -- one forked (or spawned) child process per
  shard, exchanging codec frames over a :func:`multiprocessing.Pipe`.
  The single-host default;
* :class:`TcpTransport` -- connects shards to ``repro serve-worker
  --listen HOST:PORT`` processes anywhere on the network, exchanging the
  same codec frames over length-prefixed TCP.  Multi-machine sharding.

Worker side, every byte transport runs the same :func:`serve_connection`
loop: the parent opens with a ``hello`` (cluster tick + shard index), the
worker builds its engine via the factory and answers with the engine
shape, then serves step/snapshot/inject/discard/stats requests until
``close`` or EOF.  Because the servicer and codec are shared, the three
transports are behaviorally interchangeable -- same results bit for bit,
same error types, same messages -- which the transport test matrix
asserts.

Worker loss surfaces as :class:`~repro.exceptions.ClusterWorkerError`
carrying the shard index: sends to a dead peer raise immediately, receives
return an error tuple the front end maps through
:func:`raise_worker_error`, and an endpoint that saw its peer die reports
``alive == False`` so the cluster can mark the shard as failed instead of
hanging.  Orderly deaths (FIN/RST, closed pipe) are seen at the next
send/recv; silent TCP peer loss relies on ``SO_KEEPALIVE``, detected at
the OS's probe cadence.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import time
from collections import deque
from typing import Callable, Sequence

import repro.exceptions as _exceptions
from repro.exceptions import ClusterError, ClusterWorkerError, ValidationError
from repro.serving.protocol import (
    BufferPool,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.serving.state import RegistrySnapshot

__all__ = [
    "Transport",
    "WorkerEndpoint",
    "InprocTransport",
    "PipeTransport",
    "TcpTransport",
    "WorkerServicer",
    "serve_connection",
    "serve_worker",
    "launch_local_workers",
    "stop_local_workers",
    "resolve_transport",
    "parse_address",
    "raise_worker_error",
]


def raise_worker_error(shard: int, name: str, message: str):
    """Re-raise a worker-reported error as its original exception type.

    Library exceptions and builtins round-trip by name (so a worker's
    ``ValidationError`` or a monitor factory's ``RuntimeError`` surface
    exactly as the single-process engine would raise them); transport
    deaths map to :class:`ClusterWorkerError` with the shard attached;
    anything else degrades to :class:`ClusterError`.
    """
    import builtins

    exc_type = getattr(_exceptions, name, None) or getattr(builtins, name, None)
    if exc_type is ClusterWorkerError:
        raise ClusterWorkerError(f"[shard {shard}] {message}", shard=shard)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        raise exc_type(f"[shard {shard}] {message}")
    raise ClusterError(f"shard {shard} failed with {name}: {message}")


# ---------------------------------------------------------------------------
# Worker-side command servicer (shared by every transport)
# ---------------------------------------------------------------------------

class WorkerServicer:
    """Executes decoded worker commands against one shard's engine.

    The single implementation of worker semantics: the in-proc endpoint
    calls :meth:`handle` directly, pipe and TCP workers call it from
    :func:`serve_connection`.  Raises on failure; the caller maps the
    exception into an error reply.

    A step request's columns go straight into
    :meth:`~repro.serving.engine.StreamingEngine.step_columns`, which
    re-validates them and returns the reply's result columns: the worker
    builds no frame, result or verdict objects.

    With a metrics registry attached (``serve-worker --metrics-port``)
    every command is counted by name, errors separately, plus stepped
    frames, live stream/tick gauges, and a per-phase latency histogram
    fed by :meth:`note_request`.  Families are get-or-create, so the
    per-connection servicers of one worker process share series in the
    one registry.  Without a registry (the default, and always the
    in-cluster path) dispatch is exactly the bare call -- metrics can
    never perturb the parent-side serving loop.

    With a :class:`~repro.serving.observability.tracing.TickTracer`
    attached the servicer keeps its own per-request traces: every
    ``handle`` runs inside a span, and a request that raises aborts its
    tick so the failed request's spans never leak into (and poison) the
    next request's trace.
    """

    def __init__(self, engine, metrics=None, tracer=None) -> None:
        self.engine = engine
        self.metrics = metrics
        self.tracer = tracer
        if metrics is not None:
            self._requests = metrics.counter(
                "repro_worker_requests_total",
                "Commands serviced, by command name.",
                labels=("command",),
            )
            self._errors = metrics.counter(
                "repro_worker_errors_total",
                "Commands that raised, by command name.",
                labels=("command",),
            )
            self._frames = metrics.counter(
                "repro_worker_frames_total",
                "Frames stepped by this worker.",
            )
            self._streams = metrics.gauge(
                "repro_worker_streams",
                "Streams currently registered on this worker.",
            )
            self._tick_gauge = metrics.gauge(
                "repro_worker_tick", "This worker's engine tick."
            )
            self._phase_seconds = metrics.histogram(
                "repro_worker_phase_seconds",
                "Per-request worker time by phase "
                "(recv/decode/step/encode/send).",
                labels=("phase",),
            )

    def engine_shape(self) -> dict:
        """The hello payload: input shape plus a config fingerprint.

        The shape fields drive parent-side input validation; the config
        fields let the cluster reject a worker whose engine was built
        with different flags (TCP workers configure themselves, so a
        mismatched ``--threshold``/``--ttl`` would otherwise silently
        break the equivalence guarantee).
        """
        engine = self.engine
        monitor_config = None
        if engine.registry.monitor_factory is not None:
            probe = engine.registry.monitor_factory()
            monitor_config = {
                "threshold": probe.threshold,
                "reentry_threshold": probe.reentry_threshold,
                "risk_budget": probe.risk_budget,
            }
        return {
            "n_stateless": len(engine.layout.stateless_names),
            "has_scope_model": engine.scope_model is not None,
            "max_buffer_length": engine.registry.max_buffer_length,
            "idle_ttl": engine.registry.idle_ttl,
            "monitor": monitor_config,
        }

    def handle(self, command: str, payload):
        tracer = self.tracer
        if tracer is None:
            return self._count(command, payload)
        try:
            with tracer.span("handle", command=command):
                return self._count(command, payload)
        except Exception:
            # abort_tick semantics: the failed request's spans (the
            # "handle" span above included -- it records on exception)
            # must not linger in open_spans and pollute the trace the
            # *next* request closes.
            tracer.abort_tick()
            raise

    def _count(self, command: str, payload):
        if self.metrics is None:
            return self._handle(command, payload)
        self._requests.labels(command=command).inc()
        if command == "step" and payload is not None:
            self._frames.inc(len(payload["ids"]))
        try:
            result = self._handle(command, payload)
        except Exception:
            self._errors.labels(command=command).inc()
            raise
        self._streams.set(len(self.engine.registry))
        self._tick_gauge.set(self.engine.tick)
        return result

    def note_request(
        self, trace, t_recv0, t_recv1, t_decoded, t_stepped,
        prev_encode=0.0, prev_send=0.0,
    ):
        """Book one served request's phase timings; returns the telemetry
        dict to piggyback on the reply (``None`` when unsampled).

        Timestamps are this worker's own clock (``time.perf_counter``),
        taken by :func:`serve_connection` around recv/decode/handle.
        ``prev_encode``/``prev_send`` are the encode+send durations of
        the *previous* reply on this connection -- a reply cannot carry
        the cost of encoding itself, so those two phases ride one
        request late (and are absent from the very first reply).
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.record("recv", t_recv1 - t_recv0, start=t_recv0)
            tracer.record("decode", t_decoded - t_recv1, start=t_recv1)
            tracer.record("step", t_stepped - t_decoded, start=t_decoded)
            if prev_encode:
                tracer.record("encode", prev_encode)
            if prev_send:
                tracer.record("send", prev_send)
            tick = trace.get("tick") if isinstance(trace, dict) else None
            tracer.end_tick(int(tick) if tick is not None else self.engine.tick)
        if self.metrics is not None:
            phase = self._phase_seconds
            phase.labels(phase="recv").observe(t_recv1 - t_recv0)
            phase.labels(phase="decode").observe(t_decoded - t_recv1)
            phase.labels(phase="step").observe(t_stepped - t_decoded)
            if prev_encode:
                phase.labels(phase="encode").observe(prev_encode)
            if prev_send:
                phase.labels(phase="send").observe(prev_send)
        if not isinstance(trace, dict) or not trace.get("sampled", True):
            return None
        return {
            "tick": trace.get("tick"),
            "recv": [t_recv0, t_recv1],
            "decoded": t_decoded,
            "stepped": t_stepped,
            "prev_encode": prev_encode,
            "prev_send": prev_send,
        }

    def _handle(self, command: str, payload):
        engine = self.engine
        if command == "step":
            return self._step(payload)
        if command == "snapshot":
            # A subset request captures only the named streams --
            # rebalance migration cost is O(moved state), not O(all).
            return RegistrySnapshot.capture(
                engine.registry, tick=engine.tick, stream_ids=payload
            )
        if command == "delta":
            # Streams dirty since the shard's last persisted epoch -- the
            # incremental-snapshot cost is O(touched), not O(resident).
            from repro.serving.state import DeltaSnapshot

            return DeltaSnapshot.capture(
                engine.registry, tick=engine.tick, since_tick=payload
            )
        if command == "restore":
            engine.restore(payload)
            return None
        if command == "inject":
            payload.inject_into(engine.registry)
            return None
        if command == "discard":
            for stream_id in payload:
                engine.registry.discard(stream_id)
            return None
        if command == "ids":
            return engine.registry.stream_ids
        if command == "stats":
            statistics = engine.registry.statistics
            return {
                "created": statistics.created,
                "evicted": statistics.evicted,
                "series_started": statistics.series_started,
                "n_streams": len(engine.registry),
                "tick": engine.tick,
            }
        raise ClusterError(f"unknown worker command {command!r}")

    def _step(self, payload):
        engine = self.engine
        if payload is None:  # frameless tick: time still passes on this shard
            engine.step_batch([])
            return None
        return engine.step_columns(**payload)  # ids, X, Q, new_series, scope


# ---------------------------------------------------------------------------
# Byte channels + the shared worker loop
# ---------------------------------------------------------------------------
#
# A channel moves whole frames: ``send_frame`` takes the codec's
# ``FrameSegments`` gather list, ``recv_bytes`` returns one received
# frame as a bytes-like, plus ``set_timeout`` and ``close``.

class PipeChannel:
    """Message framing over a multiprocessing ``Connection``.

    :meth:`send_frame` assembles each gather list into a reused buffer
    from ``pool`` (one copy per segment, zero allocations in steady
    state) instead of joining it into fresh bytes per frame.
    """

    def __init__(self, conn, pool: BufferPool) -> None:
        self._conn = conn
        self.pool = pool

    def send_frame(self, parts) -> None:
        """Send one :class:`~repro.serving.protocol.FrameSegments`."""
        frame = self.pool.encode_into(parts)
        try:
            # send_bytes blocks until the kernel owns the bytes, so the
            # buffer is reusable the moment it returns.
            self._conn.send_bytes(frame.view)
        finally:
            frame.release()

    def recv_bytes(self) -> bytes:
        return self._conn.recv_bytes()

    def set_timeout(self, timeout: float | None) -> None:
        """No-op: pipe peers are our own child processes."""

    def close(self) -> None:
        self._conn.close()


#: Refuse messages larger than this before allocating their buffer.  A
#: TCP listener reads the 4-byte length prefix from unauthenticated
#: peers; without a cap, 4 junk bytes could demand a 4 GiB allocation
#: before the codec's magic/version checks ever run.  1 GiB comfortably
#: covers real snapshot frames (the largest message class) while
#: bounding what a stray connection can cost.
MAX_MESSAGE_BYTES = 1 << 30


class SocketChannel:
    """Length-prefixed message framing over a TCP socket."""

    _LEN = struct.Struct(">I")

    #: Advertised send-size cap, honored by endpoints at prepare() time
    #: so over-cap payloads fail before anything is transmitted.
    max_message_bytes = MAX_MESSAGE_BYTES

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Keepalive turns a silent peer loss (network partition, powered-
        # off host -- no FIN/RST ever arrives) into a detectable socket
        # error at the OS's probe cadence, instead of an indefinite recv.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        self._sock = sock

    def send_frame(self, parts) -> None:
        """Vectored send: length prefix + every segment via ``sendmsg``,
        so array payloads go kernel-ward straight from the numpy buffers
        without ever being joined into one Python-side copy."""
        # The receive side refuses over-cap messages by dropping the
        # connection; reject here first so an oversized (but legitimate)
        # frame surfaces as a clear error instead of a phantom worker
        # death on the peer.
        if parts.nbytes > MAX_MESSAGE_BYTES:
            raise ValidationError(
                f"refusing to send {parts.nbytes}-byte message (cap "
                f"{MAX_MESSAGE_BYTES}); snapshot/restore in smaller pieces"
            )
        buffers = [self._LEN.pack(parts.nbytes)]
        buffers += [s for s in parts.segments if len(s)]
        total = parts.nbytes + self._LEN.size
        sent = self._sock.sendmsg(buffers)
        while sent < total:
            # Partial send (signal, full socket buffer): drop whole
            # buffers already gone, slice the one cut mid-way, retry.
            while buffers and sent >= len(buffers[0]):
                sent -= len(buffers[0])
                del buffers[0]
            if sent:
                buffers[0] = memoryview(buffers[0])[sent:]
            total = sum(len(b) for b in buffers)
            sent = self._sock.sendmsg(buffers)

    def recv_bytes(self) -> bytes:
        (length,) = self._LEN.unpack(self._recv_exact(self._LEN.size))
        if length > MAX_MESSAGE_BYTES:
            # EOFError (not ProtocolError) so both sides treat the
            # connection as dead without allocating the claimed buffer.
            raise EOFError(
                f"refusing {length}-byte message (cap {MAX_MESSAGE_BYTES})"
            )
        # Hand the receive buffer to the decoder as-is: decode_frame
        # wraps it in a memoryview and copies each array out, so a
        # whole-frame bytes() duplicate here would be pure waste.
        return self._recv_exact(length)

    def _recv_exact(self, n: int) -> bytearray:
        buffer = bytearray(n)
        view = memoryview(buffer)
        received = 0
        while received < n:
            chunk = self._sock.recv_into(view[received:], n - received)
            if chunk == 0:
                raise EOFError("socket closed mid-message")
            received += chunk
        return buffer

    def set_timeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


_CHANNEL_ERRORS = (EOFError, BrokenPipeError, ConnectionError, OSError)


def _handle_hello(engine_factory, payload, metrics=None, tracer=None):
    """The one implementation of the hello handshake's worker side:
    build the engine, join it at the cluster's tick, wrap it in a
    servicer.  Shared by the byte-transport loop and the in-proc
    endpoint so hello semantics can never drift between transports."""
    engine = engine_factory()
    engine._tick = int(payload["initial_tick"])
    return WorkerServicer(engine, metrics=metrics, tracer=tracer)


def _try_send_frame(channel, parts) -> bool:
    """Send a reply, tolerating a peer that already went away.

    A client may disconnect at any instant (SIGKILLed parent, dropped
    probe); its RST must end *this connection*, never the worker's serve
    loop.  Returns whether the send went through.
    """
    try:
        channel.send_frame(parts)
        return True
    except _CHANNEL_ERRORS:
        return False


def serve_connection(
    channel,
    engine_factory: Callable,
    handshake_timeout: float | None = None,
    metrics=None,
    tracer=None,
) -> str:
    """Serve one cluster connection on a byte channel until close/EOF.

    Protocol: the parent's first request must be ``hello`` (carrying the
    cluster tick the engine joins at); the engine is built fresh per
    connection, so one long-lived worker process can serve successive
    clusters with clean state each time.  ``handshake_timeout`` bounds
    the wait for that first request -- a connection that never speaks (a
    port scanner, a health probe) is dropped instead of wedging the
    worker.

    Returns how the connection ended, so :func:`serve_worker` can count
    the right thing:

    * ``"stray"`` -- no handshake ever completed (scanner, probe, or a
      peer that vanished before saying hello);
    * ``"lost"`` -- a real cluster was being served but its connection
      died without an orderly ``close`` (client crash, network loss).
      The abandoned engine state is discarded; a failover reconnect
      will restore fresh state through the protocol;
    * ``"served"`` -- the session ended with an orderly ``close`` (or
      the hello was answered with an error: the cluster asked and got
      its definitive answer).

    With ``metrics`` attached (``serve-worker --metrics-port``) the
    servicer gets its own per-connection
    :class:`~repro.serving.observability.tracing.TickTracer` and every
    request's recv/decode/step/encode/send phases are timed; a request
    whose trace context asks for sampling gets those timings piggybacked
    on its reply's ``_telemetry`` meta.  A hello carrying ``_clock``
    is answered with this worker's monotonic clock so the cluster can
    rebase the piggybacked timestamps onto its own timeline.

    A request tagged with the reserved ``_tick`` meta key gets the tag
    echoed on its reply, so a windowed parent can pair replies with the
    requests it has in flight.  Untagged requests get untagged replies,
    byte-identical to a pre-windowing worker's.
    """
    try:
        channel.set_timeout(handshake_timeout)
        command, payload, _, _ = decode_request(channel.recv_bytes())
        channel.set_timeout(None)
    except _CHANNEL_ERRORS:
        return "stray"  # peer went away (or stayed silent) pre-handshake
    except Exception as error:
        _try_send_frame(
            channel,
            encode_reply("hello", ("error", type(error).__name__, str(error))),
        )
        return "stray"
    if command != "hello":
        _try_send_frame(
            channel,
            encode_reply(
                command,
                ("error", "ClusterError", f"expected hello, got {command!r}"),
            ),
        )
        return "stray"
    if tracer is None and metrics is not None:
        from repro.serving.observability.tracing import TickTracer

        tracer = TickTracer()
    try:
        servicer = _handle_hello(
            engine_factory, payload, metrics=metrics, tracer=tracer
        )
    except Exception as error:  # surfaced by the parent's hello reply
        _try_send_frame(
            channel,
            encode_reply("hello", ("error", type(error).__name__, str(error))),
        )
        return "served"  # a real cluster asked; it got its (error) answer
    hello_telemetry = (
        {"clock": time.perf_counter()} if payload.get("_clock") else None
    )
    if not _try_send_frame(
        channel,
        encode_reply(
            "hello", ("ok", servicer.engine_shape()), telemetry=hello_telemetry
        ),
    ):
        return "lost"

    clock = time.perf_counter
    instrumented = tracer is not None or metrics is not None
    prev_encode = prev_send = 0.0
    while True:
        t_recv0 = clock()
        try:
            data = channel.recv_bytes()
        except _CHANNEL_ERRORS:  # parent went away; shut down quietly
            return "lost"
        t_recv1 = clock()
        try:
            command, payload, trace, tick = decode_request(data)
        except Exception as error:
            if not _try_send_frame(
                channel,
                encode_reply(
                    "hello",
                    ("error", "ClusterError", f"undecodable request ({error})"),
                ),
            ):
                return "lost"
            continue
        t_decoded = clock()
        if command == "close":
            _try_send_frame(channel, encode_reply("close", ("ok", None)))
            return "served"
        try:
            reply = ("ok", servicer.handle(command, payload))
        except Exception as error:
            reply = ("error", type(error).__name__, str(error))
        telemetry = None
        if reply[0] == "ok" and (trace is not None or instrumented):
            telemetry = servicer.note_request(
                trace, t_recv0, t_recv1, t_decoded, clock(),
                prev_encode, prev_send,
            )
        try:
            t_encode0 = clock()
            encoded = encode_reply(
                command, reply, telemetry=telemetry, tick=tick
            )
            t_encode1 = clock()
            sent = _try_send_frame(channel, encoded)
            prev_encode = t_encode1 - t_encode0
            prev_send = clock() - t_encode1
        except ValidationError as error:
            # The reply would not fit the wire (e.g. an over-cap
            # snapshot); report that instead of dropping the connection.
            sent = _try_send_frame(
                channel,
                encode_reply(command, ("error", "ClusterError", str(error))),
            )
        if not sent:
            return "lost"


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------

class WorkerEndpoint:
    """Parent-side handle of one shard worker (any transport).

    The protocol is strict request/reply per request, FIFO per
    connection: each :meth:`send` owes exactly one :meth:`recv`, and
    replies come back in send order (the worker serves one request at a
    time).  A windowed sender may therefore have several requests
    outstanding -- endpoints queue the per-request bookkeeping and pop
    it reply by reply.  Reply tuples are ``("ok", payload)`` or
    ``("error", name, message)``; ``alive`` turns False the moment the
    peer is observed dead or out of protocol.

    ``trace_context`` is a one-shot slot: set it before a send and that
    request carries the context in its reserved ``_trace`` meta (then
    the slot clears).  ``tick_tag`` is the same one-shot seam for the
    reserved ``_tick`` meta: the request is tagged with it, the worker
    echoes the tag, and the endpoint verifies the echo against the send
    order (``last_reply_tick`` exposes the echo after each recv).
    ``last_telemetry`` holds whatever the most recent reply piggybacked
    in ``_telemetry`` (``None`` otherwise) -- the attribute seams keep
    tracing and windowing out of every send/recv signature.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.alive = True
        self.trace_context = None
        self.tick_tag = None
        self.last_telemetry = None
        self.last_reply_tick = None

    def send(self, command: str, payload=None) -> None:
        raise NotImplementedError

    def recv(self) -> tuple:
        raise NotImplementedError

    def recv_value(self):
        reply = self.recv()
        if reply[0] != "ok":
            raise_worker_error(self.shard, reply[1], reply[2])
        return reply[1]

    def request(self, command: str, payload=None):
        self.send(command, payload)
        return self.recv_value()

    def prepare(self, command: str, payload=None):
        """Do the fallible encoding work of a send without transmitting.

        Broadcasts that must be all-or-nothing (restore) prepare every
        worker's message first, so an encode failure can never leave the
        cluster half-applied.  Returns an opaque token for
        :meth:`send_prepared`.
        """
        return (command, payload)

    def send_prepared(self, token) -> None:
        """Transmit a token from :meth:`prepare` (only transport-level
        failures remain possible)."""
        command, payload = token
        self.send(command, payload)

    def set_timeout(self, timeout: float | None) -> None:
        """Bound the next receives (handshakes); no-op by default."""

    def shutdown(self, timeout: float = 5.0) -> None:
        raise NotImplementedError


class InprocEndpoint(WorkerEndpoint):
    """Same-process loopback: commands dispatch directly, no encoding.

    ``send`` only enqueues; the command executes on ``recv``, mirroring
    the real transports' timing (the caller's send window never includes
    worker compute).  Replies travel as protocol tuples with exceptions
    degraded to ``(name, message)`` pairs, so error behavior is
    indistinguishable from the byte transports.

    Queued sends keep their one-shot ``trace_context``/``tick_tag``
    captured at send time, exactly as a byte transport encodes them into
    the outgoing frame -- a windowed sender's second request must not
    steal (or clear) the first one's context.
    """

    def __init__(self, shard: int, engine_factory: Callable) -> None:
        super().__init__(shard)
        self._engine_factory = engine_factory
        self._servicer: WorkerServicer | None = None
        self._pending: deque = deque()

    def send(self, command: str, payload=None) -> None:
        trace, self.trace_context = self.trace_context, None
        tick, self.tick_tag = self.tick_tag, None
        self._pending.append((command, payload, trace, tick))

    def recv(self) -> tuple:
        if not self._pending:
            return (
                "error",
                "ClusterError",
                "protocol violation: recv with no request in flight",
            )
        command, payload, trace, tick = self._pending.popleft()
        self.last_telemetry = None
        self.last_reply_tick = tick
        try:
            if command == "hello":
                self._servicer = _handle_hello(self._engine_factory, payload)
                return ("ok", self._servicer.engine_shape())
            if command == "close":
                return ("ok", None)
            if self._servicer is None:
                raise ClusterError("worker received a command before hello")
            if trace is not None and trace.get("sampled", True):
                # No wire, no recv/decode/encode phases -- but the same
                # telemetry shape as the byte transports, so a merged
                # timeline is structurally identical across transports.
                t0 = time.perf_counter()
                result = self._servicer.handle(command, payload)
                t1 = time.perf_counter()
                self.last_telemetry = {
                    "tick": trace.get("tick"),
                    "recv": [t0, t0],
                    "decoded": t0,
                    "stepped": t1,
                    "prev_encode": 0.0,
                    "prev_send": 0.0,
                }
                return ("ok", result)
            return ("ok", self._servicer.handle(command, payload))
        except Exception as error:
            return ("error", type(error).__name__, str(error))

    def shutdown(self, timeout: float = 5.0) -> None:
        self._servicer = None
        self.alive = False

    @property
    def engine(self):
        """The live worker engine (testing/introspection hook)."""
        return self._servicer.engine if self._servicer is not None else None


class ChannelEndpoint(WorkerEndpoint):
    """Endpoint speaking codec frames over a byte channel (pipe or TCP).

    Sends queue their ``(command, tick)`` bookkeeping FIFO, so a
    windowed sender can have several requests on the wire; each recv
    pops the oldest entry, decodes against that command, and verifies
    the worker's ``_tick`` echo against the tag the request carried
    (a mismatched echo is an out-of-protocol peer, same as a bad kind).
    """

    def __init__(self, shard: int, channel) -> None:
        super().__init__(shard)
        self._channel = channel
        self._pending: deque = deque()
        self._shut_down = False

    def send(self, command: str, payload=None) -> None:
        self.send_prepared(self.prepare(command, payload))

    def prepare(self, command: str, payload=None):
        trace, self.trace_context = self.trace_context, None
        tick, self.tick_tag = self.tick_tag, None
        parts = encode_request(command, payload, trace=trace, tick=tick)
        limit = getattr(self._channel, "max_message_bytes", None)
        if limit is not None and parts.nbytes > limit:
            raise ValidationError(
                f"{command!r} message of {parts.nbytes} bytes exceeds the "
                f"transport cap ({limit}); split the payload"
            )
        return (command, tick, parts)

    def send_prepared(self, token) -> None:
        command, tick, parts = token
        try:
            self._channel.send_frame(parts)
        except _CHANNEL_ERRORS as error:
            self.alive = False
            raise ClusterWorkerError(
                f"shard {self.shard} worker is gone ({error})", shard=self.shard
            ) from None
        self._pending.append((command, tick))

    def recv(self) -> tuple:
        command, expected_tick = (
            self._pending.popleft() if self._pending else (None, None)
        )
        self.last_telemetry = None
        self.last_reply_tick = None
        try:
            data = self._channel.recv_bytes()
        except _CHANNEL_ERRORS:
            self.alive = False
            return ("error", "ClusterWorkerError", "worker died mid-request")
        try:
            reply, self.last_telemetry, tick = decode_reply(
                data, command or ""
            )
        except Exception as error:  # out-of-protocol peer: poisoned channel
            self.alive = False
            return (
                "error",
                "ClusterWorkerError",
                f"out-of-protocol reply ({error})",
            )
        if (
            reply[0] == "ok"
            and expected_tick is not None
            and tick != expected_tick
        ):
            # The worker answered out of send order (or dropped the
            # echo): replies can no longer be paired with requests, so
            # the channel is as unusable as one speaking garbage.
            self.alive = False
            return (
                "error",
                "ClusterWorkerError",
                f"out-of-protocol reply (tick echo {tick!r} does not match "
                f"in-flight tick {expected_tick!r})",
            )
        self.last_reply_tick = tick
        return reply

    def set_timeout(self, timeout: float | None) -> None:
        self._channel.set_timeout(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        # Idempotent: the controller's context manager, ShardedEngine's
        # close(), and __del__ may all race to tear a worker down; only
        # the first call does the goodbye + close work.
        if self._shut_down:
            return
        self._shut_down = True
        if self.alive:
            try:
                # Bound the goodbye: a wedged peer must not turn close()
                # into an indefinite hang (keepalive is far too slow).
                # Channel errors too: a connection severed behind our
                # back (fault injection, network loss) must not make
                # close() raise on the goodbye it can no longer deliver.
                self._channel.set_timeout(timeout)
                self.send("close")
                self.recv()
            except (ClusterError, *_CHANNEL_ERRORS):
                pass
        self._channel.close()
        self.alive = False


class PipeEndpoint(ChannelEndpoint):
    """Channel endpoint plus the child process it talks to."""

    def __init__(self, shard: int, channel, process) -> None:
        super().__init__(shard, channel)
        self.process = process

    def shutdown(self, timeout: float = 5.0) -> None:
        super().shutdown(timeout)
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport:
    """Builds one :class:`WorkerEndpoint` per shard."""

    #: Short transport name, reported in CLI/benchmark artifacts.
    name: str = "abstract"

    #: True when payloads cross the wire codec, so stream ids must be
    #: JSON scalars; the cluster rejects exotic ids before fan-out.
    requires_wire_ids: bool = True

    #: Bound (seconds) the cluster puts on each worker's hello reply;
    #: None waits forever (in-proc and pipe workers are our own).
    handshake_timeout: float | None = None

    #: True when workers build their engines from their *own*
    #: configuration (TCP serve-worker processes) rather than from the
    #: cluster's factory; the cluster then fingerprints its local factory
    #: once and rejects workers whose engine config differs.
    workers_self_configured: bool = False

    def connect(self, shard: int, engine_factory: Callable) -> WorkerEndpoint:
        """Bring up (or reach) the worker for ``shard`` and return its
        endpoint.  The caller performs the hello handshake."""
        raise NotImplementedError

    def respawn(
        self, endpoint: WorkerEndpoint, shard: int, engine_factory: Callable
    ) -> WorkerEndpoint:
        """Replace a dead (or wedged) worker endpoint with a fresh one.

        The failover primitive: tear the old endpoint down -- reaping a
        corpse must never block its replacement, so shutdown failures
        are swallowed -- then bring up a new worker exactly as
        :meth:`connect` would.  For pipe workers that is a re-fork; for
        TCP it is a reconnect to the same ``serve-worker`` address
        (``connect`` already retries with backoff until
        ``connect_timeout``, covering a worker that a supervisor is
        still restarting).  The caller performs the hello handshake on
        the returned endpoint, as after any ``connect``.
        """
        try:
            endpoint.shutdown()
        except Exception:
            pass
        return self.connect(shard, engine_factory)

    def max_shards(self) -> int | None:
        """Upper bound on shards this transport can place (None = any)."""
        return None


class InprocTransport(Transport):
    """All shards live in the calling process.

    The hermetic path for tests and 1-shard clusters: no fork, no
    sockets, no serialization -- but byte-for-byte the same
    results and error mapping as the real transports.
    """

    name = "inproc"
    requires_wire_ids = False

    def connect(self, shard: int, engine_factory: Callable) -> WorkerEndpoint:
        return InprocEndpoint(shard, engine_factory)


def _default_mp_context(start_method: str | None):
    """The multiprocessing context shared by process-spawning helpers:
    ``fork`` when the platform has it (closures over in-memory models
    need no pickling), else ``spawn``."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _pipe_worker_main(conn, engine_factory) -> None:
    """Entry point of one pipe shard process."""
    channel = PipeChannel(conn, pool=BufferPool())
    try:
        serve_connection(channel, engine_factory)
    finally:
        conn.close()


class PipeTransport(Transport):
    """One child process per shard, codec frames over multiprocessing pipes.

    Defaults to the ``fork`` start method when the platform has it (the
    engine factory and its captured models need not be picklable); pass
    ``start_method="spawn"`` with a module-level factory elsewhere.

    Every shard's parent-side channel shares this transport's
    :class:`~repro.serving.protocol.BufferPool`, so the steady-state
    fan-out reuses a handful of send buffers across all shards and
    ``pool.stats()`` aggregates the whole cluster's codec copies.
    """

    name = "pipe"

    def __init__(self, start_method: str | None = None) -> None:
        self._context = _default_mp_context(start_method)
        self.pool = BufferPool()

    def connect(self, shard: int, engine_factory: Callable) -> WorkerEndpoint:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_pipe_worker_main,
            args=(child_conn, engine_factory),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        process.start()
        child_conn.close()
        return PipeEndpoint(
            shard, PipeChannel(parent_conn, pool=self.pool), process
        )


def parse_address(address) -> tuple:
    """Normalize ``"host:port"`` strings (or ``(host, port)`` pairs)."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    host, sep, port = str(address).strip().rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"worker address {address!r} is not of the form HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValidationError(
            f"worker address {address!r} has a non-numeric port"
        ) from None


class TcpTransport(Transport):
    """Shards served by remote ``repro serve-worker`` processes over TCP.

    Parameters
    ----------
    addresses:
        One ``"host:port"`` (or ``(host, port)``) per shard, in shard
        order.  A cluster of N shards uses the first N addresses; growing
        past the list raises.
    connect_timeout:
        Seconds to keep retrying the initial connect -- covers workers
        still warming up (building models) when the cluster starts.  The
        same bound applies to each worker's hello reply, so a worker that
        accepts but never answers (e.g. the same address listed twice
        against a sequential worker) fails the constructor instead of
        deadlocking it.
    """

    name = "tcp"
    workers_self_configured = True

    def __init__(self, addresses: Sequence, connect_timeout: float = 30.0) -> None:
        self.addresses = [parse_address(a) for a in addresses]
        if not self.addresses:
            raise ValidationError("TcpTransport needs at least one worker address")
        self.connect_timeout = connect_timeout
        self.handshake_timeout = connect_timeout

    def max_shards(self) -> int | None:
        return len(self.addresses)

    def connect(self, shard: int, engine_factory: Callable) -> WorkerEndpoint:
        if shard >= len(self.addresses):
            raise ClusterError(
                f"tcp transport has {len(self.addresses)} worker address(es); "
                f"cannot place shard {shard} (pass more worker addresses)"
            )
        host, port = self.addresses[shard]
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
                break
            except socket.gaierror as error:
                # A name that does not resolve is a configuration error,
                # not a worker warming up -- fail immediately.
                raise ClusterWorkerError(
                    f"cannot resolve worker address {host}:{port} for "
                    f"shard {shard} ({error})",
                    shard=shard,
                ) from None
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ClusterWorkerError(
                        f"cannot reach worker for shard {shard} at "
                        f"{host}:{port} within {self.connect_timeout}s ({error})",
                        shard=shard,
                    ) from None
                time.sleep(0.05)
        sock.settimeout(None)
        return ChannelEndpoint(shard, SocketChannel(sock))


def resolve_transport(transport=None, start_method: str | None = None) -> Transport:
    """Normalize a transport argument into a :class:`Transport`.

    Accepts a :class:`Transport` instance, ``None``/``"pipe"`` (the
    single-host default), ``"inproc"``, or
    ``"tcp:HOST:PORT[,HOST:PORT...]"``.  ``start_method`` applies to the
    pipe transport only.
    """
    if isinstance(transport, Transport):
        return transport
    if transport is None or transport == "pipe":
        return PipeTransport(start_method=start_method)
    if transport == "inproc":
        return InprocTransport()
    if isinstance(transport, str) and transport.startswith("tcp:"):
        return TcpTransport(transport[len("tcp:"):].split(","))
    raise ValidationError(
        f"unknown transport {transport!r}; expected 'inproc', 'pipe', "
        "'tcp:HOST:PORT,...', or a Transport instance"
    )


# ---------------------------------------------------------------------------
# Worker-side TCP server
# ---------------------------------------------------------------------------

def serve_worker(
    engine_factory: Callable,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_connections: int = 0,
    ready_callback: Callable[[int], None] | None = None,
    handshake_timeout: float = 30.0,
    metrics=None,
) -> int:
    """Run one TCP shard worker: accept cluster connections, serve each.

    Connections are served sequentially -- a cluster holds its connection
    for its whole lifetime, and each new connection gets a fresh engine
    from the factory (state arrives via the restore/inject protocol, never
    lingers).  A connection that sends no ``hello`` within
    ``handshake_timeout`` seconds (port scanners, health probes) is
    dropped without wedging the worker or counting toward the limit.
    ``port=0`` binds an ephemeral port; ``ready_callback`` receives the
    bound port before the first accept (handy under port 0).
    ``max_connections > 0`` exits after that many *orderly-closed*
    sessions (lets CI scripts ``wait`` instead of killing workers): a
    session whose client dies mid-run without a ``close`` does not
    consume the budget, so the worker is still listening when the
    cluster's failover reconnects.  Returns the number of sessions
    served to an orderly close.

    ``metrics`` (an optional
    :class:`~repro.serving.observability.metrics.MetricsRegistry`,
    typically exposed over HTTP by the ``serve-worker --metrics-port``
    CLI path) makes every servicer publish per-command counters and
    gauges, plus a connection-outcome counter here.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    connections = None
    if metrics is not None:
        connections = metrics.counter(
            "repro_worker_connections_total",
            "Cluster connections accepted, by how each ended.",
            labels=("status",),
        )
    served = 0
    try:
        listener.bind((host, port))
        listener.listen(16)
        if ready_callback is not None:
            ready_callback(listener.getsockname()[1])
        while max_connections <= 0 or served < max_connections:
            sock, _ = listener.accept()
            channel = SocketChannel(sock)
            try:
                # A misbehaving connection (crafted frames, surprise
                # disconnects) must never take the listener down with it:
                # one client's failure ends one connection, nothing more.
                status = serve_connection(
                    channel,
                    engine_factory,
                    handshake_timeout=handshake_timeout,
                    metrics=metrics,
                )
            except Exception:
                status = "served"  # conservatively count the lost slot
            finally:
                channel.close()
            if connections is not None:
                connections.labels(status=status).inc()
            if status == "served":
                served += 1
    finally:
        listener.close()
    return served


def _local_worker_main(
    engine_factory, index, port_queue, host, max_connections, handshake_timeout
) -> None:
    serve_worker(
        engine_factory,
        host,
        0,
        max_connections=max_connections,
        ready_callback=lambda port: port_queue.put((index, port)),
        handshake_timeout=handshake_timeout,
    )


def launch_local_workers(
    engine_factory: Callable,
    n_workers: int,
    *,
    host: str = "127.0.0.1",
    max_connections: int = 0,
    start_method: str | None = None,
    handshake_timeout: float = 30.0,
) -> tuple:
    """Start ``n_workers`` loopback TCP workers as child processes.

    The in-test/benchmark convenience behind the multi-machine story:
    each child runs :func:`serve_worker` on an ephemeral port, and the
    returned ``(addresses, processes)`` plug straight into
    :class:`TcpTransport`.  Uses ``fork`` by default so closures over
    in-memory models work, exactly like :class:`PipeTransport`.  Reap
    with :func:`stop_local_workers`.
    """
    context = _default_mp_context(start_method)
    port_queue = context.Queue()
    processes = []
    try:
        for index in range(n_workers):
            process = context.Process(
                target=_local_worker_main,
                args=(
                    engine_factory,
                    index,
                    port_queue,
                    host,
                    max_connections,
                    handshake_timeout,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
        # Readiness order is scheduler-dependent; report (index, port)
        # pairs so addresses[i] always belongs to processes[i].
        ports = dict(port_queue.get(timeout=30.0) for _ in processes)
        addresses = [(host, ports[index]) for index in range(n_workers)]
    except Exception:
        stop_local_workers(processes)
        raise
    return addresses, processes


def stop_local_workers(processes, timeout: float = 5.0) -> None:
    """Terminate and join workers started by :func:`launch_local_workers`."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout)
