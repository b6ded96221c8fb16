"""Flight recorder: journal a cluster's wire traffic, replay it exactly.

A production incident ("shard 2 diverged around tick 40 000") is only
debuggable if the run can be *reproduced*, and the serving stack's
determinism makes that possible at the transport seam: every byte a
cluster exchanges with its workers goes through
:class:`~repro.serving.transport.WorkerEndpoint`, so a transparent tap
there captures the complete causal record of a run -- requests in fan-out
order, replies as observed, worker deaths included.

* :class:`FlightRecorder` owns the on-disk log: a length-prefixed
  ``frames.bin`` of canonical codec frames plus a ``manifest.json``
  (transport, shard count, engine config fingerprint, record counts).
* :class:`FlightRecordingTransport` wraps any transport -- the same
  proxy seam the chaos harness uses, and the two compose:
  ``FlightRecordingTransport(ChaosTransport(...), recorder)`` records a
  fault-injected run, failover respawns included (the inherited
  ``respawn`` re-wraps replacement endpoints).
* :func:`replay_flight` re-drives a recorded log through fresh worker
  servicers -- no cluster, no processes, no timing -- and compares every
  reply **bitwise** against the recording.  Identity proves the recorded
  run is reproducible from its inputs alone; a mismatch pinpoints the
  first diverging reply by shard, command, and byte offset.

What is and is not replayed: requests that never reached a live worker
(send failed) and replies from a dying worker (transport errors, chaos
verdicts) carry no engine semantics -- the recorded run discarded them
and recovered through a fresh hello + restore, which the log also
contains -- so replay skips them and re-drives everything else.  Frames
are journaled as their *canonical re-encoding*
(:func:`~repro.serving.protocol.encode_request` /
:func:`~repro.serving.protocol.encode_reply`), which makes the log
transport-independent: an inproc run (no real wire) records the same
bytes a pipe run would, and "bitwise-identical" is well-defined for
both.
"""

from __future__ import annotations

import json
import pathlib
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.serving.transport import (
    Transport,
    WorkerEndpoint,
    _handle_hello,
    resolve_transport,
)

__all__ = [
    "FLIGHT_FORMAT",
    "FLIGHT_VERSION",
    "FlightRecord",
    "FlightRecorder",
    "FlightRecordingTransport",
    "FlightReplayReport",
    "probe_engine_shape",
    "read_flight_log",
    "replay_flight",
]

FLIGHT_FORMAT = "repro-flight"
FLIGHT_VERSION = 1

_MAGIC = b"RPFR"
_VERSION_STRUCT = struct.Struct(">H")
_RECORD_STRUCT = struct.Struct(">II")  # (header_len, data_len)

#: Request statuses: the frame reached the worker ("sent") or the send
#: itself raised ("failed" -- the worker never saw it).
#: Reply statuses: a worker-computed reply ("ok"/"error" -- both
#: deterministic engine semantics, both replayed) or a transport-level
#: verdict from a dead/poisoned peer ("transport" -- not replayable,
#: skipped).
_REQ_STATUSES = ("sent", "failed")
_REP_STATUSES = ("ok", "error", "transport")


@dataclass(frozen=True)
class FlightRecord:
    """One journaled wire frame."""

    seq: int
    shard: int
    kind: str       # "req" | "rep"
    command: str
    status: str
    data: bytes
    ts: float | None = None  # monotonic journal time; None in old logs


class FlightRecorder:
    """Owns one flight log directory; endpoints journal through it.

    Opens ``<directory>/frames.bin`` eagerly (records stream to disk as
    the run progresses; an OOM-killed run still leaves its log) and
    writes ``manifest.json`` on :meth:`close`.  Thread-safe: one lock
    serializes record writes, so a recorder could outlive a single
    cluster or be scraped concurrently.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.frames_path = self.directory / "frames.bin"
        self.manifest_path = self.directory / "manifest.json"
        self._file = open(self.frames_path, "wb")
        self._file.write(_MAGIC + _VERSION_STRUCT.pack(FLIGHT_VERSION))
        self._lock = threading.Lock()
        self._closed = False
        self._seq = 0
        self.transport_name: str | None = None
        self.engine_shape: dict | None = None
        self.n_shards = 0
        self.counts = {
            "requests": 0,
            "replies": 0,
            "undelivered": 0,
            "transport_errors": 0,
            "helloes": 0,
        }

    # -- notes from the transport/endpoints ----------------------------
    def note_transport(self, name: str) -> None:
        self.transport_name = name

    def note_shard(self, shard: int) -> None:
        self.n_shards = max(self.n_shards, shard + 1)

    def note_engine_shape(self, shape: dict) -> None:
        if self.engine_shape is None:
            self.engine_shape = shape

    # -- journaling ----------------------------------------------------
    def journal(
        self, shard: int, kind: str, command: str, status: str, data: bytes
    ) -> None:
        """Append one record; called by the recording endpoints."""
        header = json.dumps(
            {
                "seq": self._seq,
                "shard": shard,
                "kind": kind,
                "command": command,
                "status": status,
                # Monotonic journal time: lets export-trace rebuild a
                # per-shard RPC timeline from the log alone.  Additive --
                # readers ignore unknown header keys, replay compares
                # frame bytes, never headers.
                "ts": time.perf_counter(),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        with self._lock:
            if self._closed:
                raise ValidationError(
                    f"flight recorder {self.frames_path} is closed"
                )
            self._file.write(_RECORD_STRUCT.pack(len(header), len(data)))
            self._file.write(header)
            self._file.write(data)
            self._seq += 1
            if kind == "req":
                self.counts["requests"] += 1
                if status == "failed":
                    self.counts["undelivered"] += 1
            else:
                self.counts["replies"] += 1
                if status == "transport":
                    self.counts["transport_errors"] += 1
                elif command == "hello" and status == "ok":
                    self.counts["helloes"] += 1

    @property
    def records(self) -> int:
        """Records journaled so far."""
        return self._seq

    # -- lifecycle -----------------------------------------------------
    def close(self) -> pathlib.Path:
        """Flush the frame log and write the manifest (idempotent)."""
        with self._lock:
            if self._closed:
                return self.manifest_path
            self._closed = True
            self._file.close()
        manifest = {
            "format": FLIGHT_FORMAT,
            "version": FLIGHT_VERSION,
            "protocol_version": PROTOCOL_VERSION,
            "transport": self.transport_name,
            "n_shards": self.n_shards,
            "engine_shape": self.engine_shape,
            "records": self._seq,
            "counts": dict(self.counts),
        }
        self.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return self.manifest_path

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FlightRecordingEndpoint(WorkerEndpoint):
    """Transparent :class:`WorkerEndpoint` proxy journaling all traffic."""

    def __init__(self, recorder: FlightRecorder, inner: WorkerEndpoint) -> None:
        # No super().__init__: `alive` is a property here, mirroring the
        # inner endpoint instead of the plain attribute the base sets.
        self.shard = inner.shard
        self._recorder = recorder
        self._inner = inner
        # FIFO of in-flight commands: a windowed sender journals several
        # requests before the first reply, and each reply pairs with the
        # oldest one (per-connection reply order is FIFO).
        self._pending: deque = deque()

    @property
    def alive(self) -> bool:
        return self._inner.alive

    # The trace/tick seams pass straight through to the inner endpoint.
    # The journal deliberately does NOT: `prepare`/`recv` below re-encode
    # the canonical untagged frames, so trace context, tick tags, and
    # piggybacked worker telemetry never enter a flight log and replay
    # stays bitwise whether or not the recorded run was traced/windowed.
    @property
    def trace_context(self):
        return self._inner.trace_context

    @trace_context.setter
    def trace_context(self, value) -> None:
        self._inner.trace_context = value

    @property
    def tick_tag(self):
        return self._inner.tick_tag

    @tick_tag.setter
    def tick_tag(self, value) -> None:
        self._inner.tick_tag = value

    @property
    def last_telemetry(self):
        return self._inner.last_telemetry

    @property
    def last_reply_tick(self):
        return self._inner.last_reply_tick

    # -- sends ---------------------------------------------------------
    def prepare(self, command: str, payload=None):
        # Canonical encoding happens here, so an unencodable payload
        # fails at prepare time for every transport (the cluster's
        # all-or-nothing broadcasts depend on that) -- recording an
        # inproc cluster enforces the same wire discipline a pipe/TCP
        # cluster always had.
        return (
            command,
            encode_request(command, payload).join(),
            self._inner.prepare(command, payload),
        )

    def send_prepared(self, token) -> None:
        command, data, inner_token = token
        try:
            self._inner.send_prepared(inner_token)
        except Exception:
            self._recorder.journal(self.shard, "req", command, "failed", data)
            raise
        self._recorder.journal(self.shard, "req", command, "sent", data)
        self._pending.append(command)

    def send(self, command: str, payload=None) -> None:
        self.send_prepared(self.prepare(command, payload))

    # -- receives ------------------------------------------------------
    def recv(self) -> tuple:
        command = self._pending.popleft() if self._pending else ""
        reply = self._inner.recv()
        if reply[0] == "ok":
            status = "ok"
            if command == "hello":
                self._recorder.note_engine_shape(reply[1])
        elif self._inner.alive:
            # The worker computed this error (validation, a raising
            # monitor factory): deterministic engine semantics, replayed.
            status = "error"
        else:
            # The peer died or went out of protocol mid-request; the
            # recorded run discarded this reply's semantics and failed
            # over, so replay skips it.
            status = "transport"
        self._recorder.journal(
            self.shard, "rep", command, status,
            encode_reply(command, reply).join(),
        )
        return reply

    # -- passthrough ---------------------------------------------------
    def set_timeout(self, timeout: float | None) -> None:
        self._inner.set_timeout(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        # The inner endpoint's goodbye ("close" on byte transports) is
        # deliberately not journaled: it carries no engine semantics and
        # may race teardown; the log ends at the last serving frame.
        self._inner.shutdown(timeout)


class FlightRecordingTransport(Transport):
    """Wrap any transport so every endpoint journals into a recorder.

    The base :meth:`Transport.respawn` (teardown + ``connect``) is
    inherited unchanged: a respawned worker's replacement endpoint comes
    from :meth:`connect` and is therefore wrapped again, so failover
    traffic -- the fresh hello, the restore, the replayed ticks -- lands
    in the same log.
    """

    def __init__(self, inner, recorder: FlightRecorder) -> None:
        self._inner = resolve_transport(inner)
        self.recorder = recorder
        self.name = self._inner.name
        #: Always True: every payload is re-encoded into the log, so ids
        #: must be wire-safe even on transports (inproc) that would not
        #: otherwise require it.  The cluster then validates/sanitizes
        #: up front, exactly as it would on pipe/TCP.
        self.requires_wire_ids = True
        self.handshake_timeout = self._inner.handshake_timeout
        self.workers_self_configured = self._inner.workers_self_configured
        recorder.note_transport(self._inner.name)

    def connect(self, shard: int, engine_factory) -> WorkerEndpoint:
        self.recorder.note_shard(shard)
        return FlightRecordingEndpoint(
            self.recorder, self._inner.connect(shard, engine_factory)
        )

    def max_shards(self) -> int | None:
        return self._inner.max_shards()


# ---------------------------------------------------------------------------
# Reading + replay
# ---------------------------------------------------------------------------

def read_flight_log(directory) -> tuple[dict, list[FlightRecord]]:
    """Load and validate a flight log: ``(manifest, records)``."""
    directory = pathlib.Path(directory)
    manifest_path = directory / "manifest.json"
    frames_path = directory / "frames.bin"
    if not manifest_path.exists():
        raise ValidationError(
            f"{directory} has no manifest.json; not a flight log (was the "
            "recorder closed?)"
        )
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != FLIGHT_FORMAT:
        raise ValidationError(
            f"{manifest_path} format {manifest.get('format')!r} is not "
            f"{FLIGHT_FORMAT!r}"
        )
    if manifest.get("version") != FLIGHT_VERSION:
        raise ValidationError(
            f"flight log version {manifest.get('version')}; this build "
            f"reads version {FLIGHT_VERSION}"
        )
    data = frames_path.read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValidationError(f"{frames_path} does not start with {_MAGIC!r}")
    (version,) = _VERSION_STRUCT.unpack_from(data, len(_MAGIC))
    if version != FLIGHT_VERSION:
        raise ValidationError(
            f"{frames_path} is flight-frame version {version}; this build "
            f"reads version {FLIGHT_VERSION}"
        )
    records: list[FlightRecord] = []
    offset = len(_MAGIC) + _VERSION_STRUCT.size
    while offset < len(data):
        if offset + _RECORD_STRUCT.size > len(data):
            raise ValidationError(f"{frames_path}: truncated record prefix")
        header_len, data_len = _RECORD_STRUCT.unpack_from(data, offset)
        offset += _RECORD_STRUCT.size
        end = offset + header_len + data_len
        if end > len(data):
            raise ValidationError(f"{frames_path}: truncated record body")
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
        frame = bytes(data[offset + header_len:end])
        offset = end
        kind = header["kind"]
        status = header["status"]
        if kind not in ("req", "rep") or status not in (
            _REQ_STATUSES if kind == "req" else _REP_STATUSES
        ):
            raise ValidationError(
                f"{frames_path}: record {header['seq']} has invalid "
                f"kind/status {kind!r}/{status!r}"
            )
        ts = header.get("ts")
        records.append(
            FlightRecord(
                seq=int(header["seq"]),
                shard=int(header["shard"]),
                kind=kind,
                command=str(header["command"]),
                status=status,
                data=frame,
                ts=float(ts) if ts is not None else None,
            )
        )
    if manifest.get("records") != len(records):
        raise ValidationError(
            f"manifest says {manifest.get('records')} records, frames.bin "
            f"holds {len(records)}"
        )
    return manifest, records


@dataclass
class FlightReplayReport:
    """What :func:`replay_flight` did and found."""

    records: int = 0
    requests: int = 0
    replies: int = 0
    compared: int = 0       # replies recomputed and checked bitwise
    skipped: int = 0        # undelivered requests + transport-error replies
    unmatched: int = 0      # requests left without a reply (truncated run)
    helloes: int = 0        # engines built (initial handshakes + failovers)
    shards: tuple = ()
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Bitwise identity: every replayable reply matched, and there
        was at least one to check."""
        return not self.mismatches and self.compared > 0

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "requests": self.requests,
            "replies": self.replies,
            "compared": self.compared,
            "skipped": self.skipped,
            "unmatched": self.unmatched,
            "helloes": self.helloes,
            "shards": list(self.shards),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = (
            "bitwise-identical"
            if self.ok
            else f"{len(self.mismatches)} MISMATCHED repl(ies)"
        )
        return (
            f"replayed {self.compared}/{self.replies} replies over "
            f"{len(self.shards)} shard(s) ({self.helloes} engine "
            f"handshake(s), {self.skipped} transport record(s) skipped): "
            f"{verdict}"
        )


def _first_difference(a: bytes, b: bytes) -> int:
    for index, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return index
    return min(len(a), len(b))


def probe_engine_shape(engine_factory) -> dict:
    """The config fingerprint an engine factory would announce at hello
    (what a flight log's manifest records)."""
    from repro.serving.transport import WorkerServicer

    return WorkerServicer(engine_factory()).engine_shape()


def replay_flight(directory, engine_factory) -> FlightReplayReport:
    """Re-drive a flight log through fresh engines; compare bitwise.

    One :class:`~repro.serving.transport.WorkerServicer` per shard,
    rebuilt at every recorded hello exactly as the live worker was
    (initial handshakes and failover respawns alike), each request
    decoded from its canonical frame and re-executed in recorded order.
    The computed reply is re-encoded and compared byte-for-byte against
    the recorded one -- results, statistics, error messages, everything
    that crossed the wire.

    The caller must supply an ``engine_factory`` configured identically
    to the recorded run's; :func:`probe_engine_shape` against the
    manifest's ``engine_shape`` catches a mismatch up front with a clear
    message (the hello replies would also catch it, as byte mismatches).
    """
    manifest, records = read_flight_log(directory)
    report = FlightReplayReport(records=len(records))
    servicers: dict[int, object] = {}
    # Per-shard FIFO of in-flight requests: a windowed cluster journals
    # several requests before the first reply; each reply pairs with the
    # oldest outstanding one, exactly as the live connection did.
    pending: dict[int, deque] = {}
    shards = set()

    for record in records:
        shards.add(record.shard)
        if record.kind == "req":
            report.requests += 1
            if record.status == "failed":
                report.skipped += 1  # never reached a worker; no semantics
                continue
            pending.setdefault(record.shard, deque()).append(record)
            continue

        report.replies += 1
        queue = pending.get(record.shard)
        request = queue.popleft() if queue else None
        if request is None:
            raise ValidationError(
                f"flight log record {record.seq}: reply on shard "
                f"{record.shard} without a request in flight (corrupt log)"
            )
        if record.status == "transport":
            report.skipped += 1  # dead-peer verdict; nothing to recompute
            continue

        command, payload, _, _ = decode_request(request.data)
        if command != record.command:
            raise ValidationError(
                f"flight log record {record.seq}: reply command "
                f"{record.command!r} does not match request {command!r}"
            )
        if command == "hello":
            servicer = _handle_hello(engine_factory, payload)
            servicers[record.shard] = servicer
            report.helloes += 1
            computed = ("ok", servicer.engine_shape())
        elif command == "close":
            computed = ("ok", None)
        else:
            servicer = servicers.get(record.shard)
            if servicer is None:
                raise ValidationError(
                    f"flight log record {record.seq}: {command!r} on shard "
                    f"{record.shard} before any hello (corrupt log)"
                )
            try:
                computed = ("ok", servicer.handle(command, payload))
            except Exception as error:
                computed = ("error", type(error).__name__, str(error))
        encoded = encode_reply(command, computed).join()
        report.compared += 1
        if encoded != record.data:
            report.mismatches.append(
                {
                    "seq": record.seq,
                    "shard": record.shard,
                    "command": command,
                    "recorded_bytes": len(record.data),
                    "replayed_bytes": len(encoded),
                    "first_difference": _first_difference(
                        record.data, encoded
                    ),
                }
            )

    report.unmatched = sum(len(queue) for queue in pending.values())
    report.shards = tuple(sorted(shards))
    return report
