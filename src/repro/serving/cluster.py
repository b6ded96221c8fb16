"""Sharded serving: placement + fan-out/merge over pluggable transports.

PR 1's :class:`~repro.serving.engine.StreamingEngine` made a tick of N
streams one vectorized pass, but a single Python process still caps
throughput at one core.  The per-tick pass is embarrassingly parallel
across streams -- each stream's buffer, fusion prefix, taQF row, and
monitor are independent -- so this module scales it out.  It is the top
of a three-layer stack:

* :mod:`repro.serving.protocol` -- the versioned, pickle-free wire codec
  every worker message travels through (length-prefixed JSON headers +
  raw numpy buffers);
* :mod:`repro.serving.transport` -- worker endpoints: in-proc loopback,
  forked pipe workers, or TCP connections to ``repro serve-worker``
  processes on other machines;
* this module -- :func:`stable_stream_hash` / :class:`HashRing`
  consistent-hash placement, and :class:`ShardedEngine`, the cluster
  front end: a tick's frames fan out to their shards as numpy columns,
  the workers step them concurrently and reply in columns, and one
  assembler plus a scatter merges the replies back in input order.
  Because every stream lives on exactly one shard and each shard runs
  the same columnar core as ``step_batch``, the merged results are
  bitwise-identical to a single
  :class:`StreamingEngine` fed the same frames, on every transport.

Fan-out is *overlapped*: each shard's payload is encoded and sent before
the next shard's is built, so shard k computes while the parent encodes
shard k+1 -- the parent's serialization cost hides behind worker compute
instead of serializing the tick (:meth:`ShardedEngine.fanout_stats`
reports the overlap).  Placement is memoized per stream id, so steady-
state ticks do one dict lookup per frame instead of one blake2b digest.

Consistency notes.  Ticks are cluster-wide: every worker's engine ticks on
every ``step_batch`` (shards without frames tick on an empty batch), so
idle-TTL eviction fires on the same tick it would in the single-process
engine.  Input validation the parent can do (duplicate ids, malformed
model-input rows) rejects the whole tick with no state change anywhere;
failures that a worker detects mid-tick (e.g. a failing monitor factory)
reject that shard's tick only -- the affected tick is atomic per shard,
not across shards -- so after a raising clustered tick the recommended
recovery is :meth:`ShardedEngine.restore` from the latest snapshot.  A
worker that dies mid-run surfaces as
:class:`~repro.exceptions.ClusterWorkerError` naming the shard; the dead
shard lands in :attr:`ShardedEngine.dead_shards`, surviving shards stay
in protocol, and further serving calls fail fast until the shard is
revived (:meth:`ShardedEngine.revive_shard` respawns/reconnects the
worker through the transport -- the control plane's
:class:`~repro.serving.failover.FailoverPolicy` drives this
automatically, with snapshot restore + journal replay) or the cluster is
closed and a snapshot restored into a fresh one.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ClusterError, ClusterWorkerError, ValidationError
from repro.serving.engine import (
    StreamFrame,
    StreamingEngine,
    StreamStepResult,
    results_from_columns,
    validate_tick_frames,
)
from repro.serving.protocol import require_wire_id, sanitize_wire_scope
from repro.serving.registry import RegistryStatistics
from repro.serving.state import DeltaSnapshot, RegistrySnapshot
from repro.serving.transport import (
    Transport,
    WorkerEndpoint,
    raise_worker_error,
    resolve_transport,
)

__all__ = [
    "stable_stream_hash",
    "HashRing",
    "ShardedEngine",
]


_NULL_SPAN = nullcontext()


def _null_span(name, **meta):
    """Span stand-in when no tracer is attached.

    The tracer seam is duck-typed (anything with ``.span(name, **meta)``
    returning a context manager) so this module never imports the
    observability package; a cluster without a tracer pays one shared
    no-op context manager per phase and nothing else.
    """
    return _NULL_SPAN


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------

def _encode_for_hash(stream_id) -> bytes:
    """Canonical byte encoding of a stream id, stable across processes.

    Type-tagged so ``1``, ``1.0``, ``True``, and ``"1"`` hash apart.
    Unknown types fall back to ``repr`` -- deterministic within one
    process tree (all placement happens in the parent), but such ids
    should be avoided for snapshots and wire transports, which require
    JSON scalars anyway.
    """
    if isinstance(stream_id, bool):  # before int: bool is an int subtype
        return b"b:1" if stream_id else b"b:0"
    if isinstance(stream_id, str):
        return b"s:" + stream_id.encode("utf-8")
    if isinstance(stream_id, int):
        return b"i:" + str(stream_id).encode("ascii")
    if isinstance(stream_id, float):
        return b"f:" + struct.pack(">d", stream_id)
    if isinstance(stream_id, bytes):
        return b"y:" + stream_id
    if stream_id is None:
        return b"n:"
    if isinstance(stream_id, tuple):
        return b"t:" + b"|".join(_encode_for_hash(item) for item in stream_id)
    return b"r:" + repr(stream_id).encode("utf-8", "backslashreplace")


def stable_stream_hash(stream_id) -> int:
    """64-bit placement hash of a stream id.

    Unlike builtin ``hash`` this is independent of ``PYTHONHASHSEED``, so
    a restarted cluster restoring a snapshot recomputes the identical
    shard placement.
    """
    digest = hashlib.blake2b(_encode_for_hash(stream_id), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping stream ids to shard indices.

    Each shard owns ``replicas`` virtual nodes on a 64-bit ring; a stream
    belongs to the first virtual node at or after its own hash.  Changing
    the shard count only moves the streams whose arc gains a new owner:
    ~1/N of them on grow, exactly the retired shard's share on shrink.

    Parameters
    ----------
    n_shards:
        Number of shards (>= 1).
    replicas:
        Virtual nodes per shard; more replicas mean a smoother split.
    """

    def __init__(self, n_shards: int, replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = n_shards
        self.replicas = replicas
        points = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append(
                    (stable_stream_hash(f"shard:{shard}:vnode:{replica}"), shard)
                )
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_for_hash(self, stream_hash: int) -> int:
        """The shard owning a precomputed :func:`stable_stream_hash`."""
        position = bisect.bisect_right(self._hashes, stream_hash)
        if position == len(self._hashes):  # wrap around the ring
            position = 0
        return self._owners[position]

    def shard_for(self, stream_id) -> int:
        """The shard index owning this stream id."""
        return self.shard_for_hash(stable_stream_hash(stream_id))


# ---------------------------------------------------------------------------
# The cluster front end
# ---------------------------------------------------------------------------

#: Safety valve for the placement memo: ids seen since the last clear.
#: Far above any realistic live-stream count; on overflow the memo is
#: dropped wholesale (it is a pure cache -- correctness is unaffected).
_PLACEMENT_CACHE_LIMIT = 1 << 20


class ShardedEngine:
    """Multi-worker serving cluster with the single-engine interface.

    Every topology, 1-shard in-proc included, runs one tick path: the
    parent validates and stacks the frames once, each worker runs
    :meth:`~repro.serving.engine.StreamingEngine.step_columns` on its
    columns, and :func:`~repro.serving.engine.results_from_columns`
    builds the results from the replies, scattered into input order.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one fresh, fully configured
        :class:`StreamingEngine`; called once per shard (inside the
        worker process for pipe, in-process for inproc).  TCP workers
        build their own engines from their ``serve-worker`` flags, but
        the factory is still required and must be configured identically:
        the cluster probes it once for a config fingerprint and rejects
        remote workers that differ.  All shards must be configured
        identically (same models, window cap, monitor factory, TTL) --
        the equivalence guarantee is with one engine built by this same
        factory.
    n_shards:
        Number of shard workers (>= 1).
    replicas:
        Virtual nodes per shard on the placement ring.
    start_method:
        Multiprocessing start method for the default pipe transport;
        ``fork`` when the platform has it (no factory pickling), else
        ``spawn``.  Ignored for an explicit ``transport``.
    transport:
        A :class:`~repro.serving.transport.Transport` instance, or one of
        ``"pipe"`` (default), ``"inproc"``, ``"tcp:HOST:PORT,..."``.
    inflight_window:
        Maximum cluster ticks in flight at once (>= 1).  Every tick runs
        the one split-phase path: :meth:`submit_batch` fans it out and
        :meth:`collect_batch` merges it, strictly in submission order;
        :meth:`step_batch` is the two back to back.  At 1 (the default)
        a tick is collected before the next is submitted.  Above 1 a
        caller may pipeline -- fan tick t+1 out while tick t's replies
        are still streaming back -- and results stay bitwise-identical
        because every shard serves its requests FIFO.  Step requests are
        always tick-tagged on the wire and the echo is verified, so
        replies can never pair with the wrong tick.

    Use as a context manager (or call :meth:`close`) to reap the workers.
    """

    def __init__(
        self,
        engine_factory: Callable[[], StreamingEngine],
        n_shards: int,
        replicas: int = 64,
        start_method: str | None = None,
        transport: Transport | str | None = None,
        inflight_window: int = 1,
    ) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if inflight_window < 1:
            raise ValidationError(
                f"inflight_window must be >= 1, got {inflight_window}"
            )
        self.engine_factory = engine_factory
        self.replicas = replicas
        self.inflight_window = inflight_window
        self.transport = resolve_transport(transport, start_method=start_method)
        limit = self.transport.max_shards()
        if limit is not None and n_shards > limit:
            raise ValidationError(
                f"transport {self.transport.name!r} can place at most {limit} "
                f"shard(s), got n_shards={n_shards}"
            )
        self._ring = HashRing(n_shards, replicas)
        self._hash_cache: dict = {}
        self._shard_cache: dict = {}
        self._tick = 0
        self._base_statistics = {"created": 0, "evicted": 0, "series_started": 0}
        self._closed = False
        self._dead_shards: set[int] = set()
        self._fanout_ticks = 0
        self._fanout_encode_seconds = 0.0
        self._fanout_overlap_seconds = 0.0
        #: Submitted-but-uncollected ticks, oldest first; each entry is
        #: one :meth:`submit_batch`'s bookkeeping.  Depth lives here (not
        #: on endpoints) so proxy transports (chaos, flight recording)
        #: need no introspection surface.
        self._inflight: deque = deque()
        self._inflight_max_depth = 0
        #: The in-flight record of the last failed tick, holding its
        #: surviving shards' ok replies, when it was the only tick in
        #: flight (see :meth:`salvage_step`); ``None`` = nothing to
        #: salvage.
        self._salvage: dict | None = None
        #: Optional tick tracer (duck-typed; see :func:`_null_span`).
        #: The :class:`~repro.serving.controller.ServingController`
        #: attaches its own here so fan-out / await / merge spans land
        #: in the same per-tick trace as the control plane's.
        #: A tracer also turns on trace-context propagation: each step
        #: request carries a sampled trace context and workers piggyback
        #: their recv/decode/step timings on the reply.
        self.tracer = None
        #: Per-shard clock offsets from the hello handshake (NTP-style
        #: midpoint estimate): ``{shard: {"offset", "uncertainty"}}``,
        #: mapping worker ``perf_counter`` values onto this process's.
        self._clock_offsets: dict[int, dict] = {}
        #: Cumulative worker-reported phase seconds per shard (from
        #: piggybacked reply telemetry; only grows on traced ticks).
        self._worker_phase_seconds: dict[int, dict] = {}
        #: The most recent traced tick's per-shard RPC envelopes and
        #: piggybacked telemetry, for timeline assembly.
        self._last_rpc: dict | None = None
        self._engine_shape: dict | None = None
        self._workers: list[WorkerEndpoint] = []
        try:
            if self.transport.workers_self_configured:
                # TCP workers build engines from their own flags; probe
                # the cluster's factory once so a worker started with
                # different flags is rejected at the hello handshake
                # instead of silently serving non-equivalent results.
                from repro.serving.transport import WorkerServicer

                self._engine_shape = WorkerServicer(
                    engine_factory()
                ).engine_shape()
            for shard in range(n_shards):
                self._workers.append(self._spawn_worker(shard))
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, shard: int) -> WorkerEndpoint:
        return self._handshake(self.transport.connect(shard, self.engine_factory))

    def _handshake(self, endpoint: WorkerEndpoint) -> WorkerEndpoint:
        shard = endpoint.shard
        try:
            # Hello handshake: joins the worker at the cluster tick,
            # re-raises factory failures, and reports the engine shape +
            # config fingerprint.  Bounded by the transport's handshake
            # timeout so a silent TCP peer fails fast, not forever.
            # ``_clock`` asks the worker to return its monotonic clock;
            # with our timestamps around the round trip that yields an
            # NTP-style offset estimate (accurate to +/- RTT/2) used to
            # rebase piggybacked worker timings onto this timeline.
            endpoint.set_timeout(self.transport.handshake_timeout)
            t_request = time.perf_counter()
            shape = endpoint.request(
                "hello",
                {"initial_tick": self._tick, "shard": shard, "_clock": True},
            )
            t_reply = time.perf_counter()
            endpoint.set_timeout(None)
            hello_telemetry = getattr(endpoint, "last_telemetry", None)
            offset, uncertainty = 0.0, 0.0
            if hello_telemetry and "clock" in hello_telemetry:
                from repro.serving.observability.distributed import (
                    estimate_clock_offset,
                )

                offset, uncertainty = estimate_clock_offset(
                    t_request, t_reply, hello_telemetry["clock"]
                )
            self._clock_offsets[shard] = {
                "offset": offset, "uncertainty": uncertainty,
            }
            # Every worker must run an identically configured engine.
            # For self-configuring (TCP) workers the reference is the
            # cluster's own factory fingerprint; otherwise shard 0's --
            # a mismatched flag must fail here, not silently break the
            # equivalence guarantee.
            if self._engine_shape is None:
                self._engine_shape = shape
            elif shape != self._engine_shape:
                raise ClusterError(
                    f"shard {shard} worker reports engine configuration "
                    f"{shape}, but the cluster expects "
                    f"{self._engine_shape}; all workers must be started "
                    "with engine flags identical to the cluster's"
                )
        except Exception:
            endpoint.shutdown()
            raise
        return endpoint

    def close(self) -> None:
        """Shut down every worker endpoint (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            # Settle any open window so the byte transports' goodbye
            # handshake finds its channels in protocol.
            self.abort_window()
        except Exception:
            pass
        for worker in self._workers:
            worker.shutdown()
        self._workers = []

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort reaping
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise ClusterError("this ShardedEngine has been closed")

    def _require_healthy(self) -> None:
        self._require_open()
        if self._dead_shards:
            dead = sorted(self._dead_shards)
            raise ClusterWorkerError(
                f"shard(s) {dead} have died; revive_shard() them (and "
                "restore the latest snapshot) or close this cluster and "
                "restore into a fresh one",
                shard=dead[0],
            )

    def _note_dead(self, shard: int | None) -> None:
        if shard is not None:
            self._dead_shards.add(shard)

    def _require_drained(self) -> None:
        """Control-plane operations (snapshot, restore, rebalance, stats)
        interleave whole request/replies on the worker channels, so they
        must not run while step replies are still owed -- the caller
        collects (or aborts) the window first."""
        if self._inflight:
            raise ClusterError(
                f"{len(self._inflight)} tick(s) still in flight; "
                "collect_batch() or abort_window() before control-plane "
                "operations"
            )

    def abort_window(self) -> int:
        """Drain and discard every in-flight tick's replies.

        The failover primitive: after a worker death mid-window the
        submitted ticks can no longer complete in order, so their
        pending replies are read off every channel (keeping surviving
        workers in protocol -- an unread reply would poison the next
        request) and dropped.  Workers observed dead while draining land
        in :attr:`dead_shards`.  Returns the number of ticks aborted;
        the caller re-submits them after recovery (they were never
        counted as completed cluster ticks).
        """
        aborted = len(self._inflight)
        while self._inflight:
            record = self._inflight.popleft()
            for shard in record.get("pending", ()):
                worker = self._workers[shard]
                reply = worker.recv()
                if reply[0] != "ok" and not worker.alive:
                    self._note_dead(shard)
        return aborted

    def revive_shard(
        self,
        shard: int,
        snapshot: RegistrySnapshot | None = None,
        statistics: dict | None = None,
    ) -> None:
        """Respawn/reconnect the worker for ``shard``, clearing it from
        :attr:`dead_shards`.

        The transport tears down the dead endpoint (reaping a killed pipe
        child, terminating a wedged one, closing a poisoned socket) and
        brings up a replacement -- a re-forked process for pipe, a
        reconnect to the same ``serve-worker`` address for TCP -- which
        then completes the usual hello handshake at the cluster's current
        tick.  The fresh worker starts with an *empty* registry.

        Two ways to refill it:

        * pass ``snapshot`` (a cluster-wide snapshot): only the streams
          the current ring places on this shard are restored into the
          fresh worker, at ``snapshot.tick``.  The caller must then
          replay that shard forward to the cluster tick before serving
          resumes -- the contract the control plane's journal replay
          implements;
        * leave it ``None`` and restore the whole cluster afterwards
          (the controller's full-recovery fallback): simplest, and keeps
          the cluster-wide statistics exact, since per-worker lifecycle
          counters died with the old worker.

        ``statistics``, when given with ``snapshot``, seeds the revived
        worker's lifecycle counters (the dead worker's counters as of
        the checkpoint) so shard-local recovery keeps cluster-wide
        statistics exact without touching the surviving shards.

        Raises if the replacement cannot be reached (e.g. the TCP worker
        is still down past the transport's connect timeout); the shard
        then stays in :attr:`dead_shards` and the call can be retried.
        """
        self._require_open()
        self._require_drained()
        if not 0 <= shard < len(self._workers):
            raise ValidationError(
                f"shard {shard} is not a current worker "
                f"(cluster has {len(self._workers)})"
            )
        endpoint = self.transport.respawn(
            self._workers[shard], shard, self.engine_factory
        )
        self._workers[shard] = self._handshake(endpoint)
        self._dead_shards.discard(shard)
        if snapshot is not None:
            self._workers[shard].request(
                "restore",
                RegistrySnapshot(
                    tick=snapshot.tick,
                    max_buffer_length=snapshot.max_buffer_length,
                    idle_ttl=snapshot.idle_ttl,
                    # Without explicit counters they live in the base.
                    statistics=dict(statistics) if statistics else {},
                    streams=[
                        stream
                        for stream in snapshot.streams
                        if self.shard_for(stream.stream_id) == shard
                    ],
                ),
            )

    def replay_shard(self, shard: int, batches) -> int:
        """Re-step one revived shard through journaled ticks, alone.

        The O(dead-shard) recovery primitive: after
        :meth:`revive_shard` restored the shard's checkpoint, each
        journaled batch is filtered to the frames this shard owns and
        resent to it through the fan-out's own payload builder -- the
        payloads it originally received, tagged with the ticks they
        replay (frameless batches become empty ticks so TTL clocks
        advance exactly).  Surviving shards are never touched.  Returns
        the number of ticks replayed.
        """
        self._require_open()
        self._require_drained()
        if not 0 <= shard < len(self._workers):
            raise ValidationError(
                f"shard {shard} is not a current worker "
                f"(cluster has {len(self._workers)})"
            )
        worker = self._workers[shard]
        batches = list(batches)
        tick = self._tick - len(batches)
        for frames in batches:
            tick += 1
            plan = self._plan(
                [f for f in frames if self.shard_for(f.stream_id) == shard]
            )
            worker.tick_tag = tick
            worker.request("step", self._payload(plan, shard))
        return len(batches)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Number of completed cluster ticks."""
        return self._tick

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    @property
    def transport_name(self) -> str:
        """The active transport's short name ("inproc"/"pipe"/"tcp")."""
        return self.transport.name

    @property
    def dead_shards(self) -> list[int]:
        """Shards observed dead or out of protocol (excluded from serving)."""
        return sorted(self._dead_shards)

    @property
    def inflight_depth(self) -> int:
        """Submitted-but-uncollected ticks currently in the window."""
        return len(self._inflight)

    @property
    def n_streams(self) -> int:
        """Streams currently tracked across all shards."""
        return sum(s["n_streams"] for s in self._worker_stats())

    def _hash_for(self, stream_id) -> int:
        stream_hash = self._hash_cache.get(stream_id)
        if stream_hash is None:
            if len(self._hash_cache) >= _PLACEMENT_CACHE_LIMIT:
                self._hash_cache.clear()
                self._shard_cache.clear()
            stream_hash = self._hash_cache[stream_id] = stable_stream_hash(stream_id)
        return stream_hash

    def shard_for(self, stream_id) -> int:
        """The shard currently responsible for a stream id (memoized).

        The blake2b digest of each id is computed once and cached, so
        steady-state fan-out costs one dict lookup per frame; a ring
        change (rebalance) remaps the cached digests without re-hashing.
        """
        shard = self._shard_cache.get(stream_id)
        if shard is None:
            shard = self._ring.shard_for_hash(self._hash_for(stream_id))
            self._shard_cache[stream_id] = shard
        return shard

    def fanout_stats(self) -> dict:
        """Cumulative fan-out timing since construction.

        ``encode_seconds`` is the parent *CPU* time
        (``time.process_time``) spent building + encoding + handing off
        shard payloads.  CPU rather than wall clock on purpose: the send
        syscall wakes the worker, and on an oversubscribed host the
        scheduler can run the worker's whole step inside the parent's
        wall-clock window -- worker compute masquerading as
        serialization cost.  ``overlap_seconds`` is the part of that CPU
        spent after the first shard's payload was already in flight
        (every later shard's build + send) -- the serialization cost
        hidden behind worker compute rather than serializing the tick.
        ``ticks`` counts non-empty fan-outs.

        ``worker_phase_seconds`` breaks each shard's time down from the
        *worker's* side -- cumulative recv/decode/step/encode/send
        seconds harvested from the telemetry piggybacked on traced step
        replies (encode/send ride one request late, so a shard's final
        reply's encode+send are not included).  The key is present only
        once telemetry has actually been collected (a tracer attached
        and at least one traced tick) -- an untraced run omits it rather
        than reporting a misleading empty breakdown.  This is the direct
        before/after metric for codec work: parent-side
        ``encode_seconds`` vs worker-side decode.

        ``pool`` mirrors the transport's send-side
        :class:`~repro.serving.protocol.BufferPool` counters (hits,
        misses, bytes_copied) for transports that pool their frame
        buffers (pipe); transports without a pool omit the key.

        ``inflight`` describes the tick window: the configured ``window``
        bound, current ``depth`` (submitted-but-uncollected ticks), the
        high-water ``max_depth`` ever reached (1 once any tick ran at
        window 1), and
        ``oldest_age_seconds`` -- how long (monotonic wall clock) the
        oldest in-flight tick has been waiting, the send/recv queue-age
        signal the controller's backpressure reads.

        The controller copies these engine-owned counters into its
        registry after each tick (as deltas), the only counts it copies;
        a scrape agrees with this dict as of the last collected tick.
        """
        oldest = self._inflight[0]["submitted_at"] if self._inflight else None
        stats = {
            "ticks": self._fanout_ticks,
            "encode_seconds": self._fanout_encode_seconds,
            "overlap_seconds": self._fanout_overlap_seconds,
            "inflight": {
                "window": self.inflight_window,
                "depth": len(self._inflight),
                "max_depth": self._inflight_max_depth,
                "oldest_age_seconds": (
                    time.monotonic() - oldest if oldest is not None else 0.0
                ),
            },
        }
        if self._worker_phase_seconds:
            stats["worker_phase_seconds"] = {
                shard: dict(phases)
                for shard, phases in sorted(self._worker_phase_seconds.items())
            }
        pool = getattr(self.transport, "pool", None)
        if pool is not None:
            stats["pool"] = pool.stats()
        return stats

    @property
    def clock_offsets(self) -> dict:
        """Per-shard hello clock offsets: ``{shard: {"offset",
        "uncertainty"}}`` in seconds, mapping each worker's monotonic
        clock onto this process's (inproc shards are exactly 0)."""
        return {shard: dict(entry) for shard, entry in self._clock_offsets.items()}

    @property
    def last_rpc(self) -> dict | None:
        """The most recent traced tick's per-shard RPC capture:
        ``{"tick": N, "shards": {shard: {"send", "sent", "done",
        "telemetry"}}}`` -- timeline assembly's worker-side input.
        ``None`` until a tick runs with a tracer attached."""
        return self._last_rpc

    def _harvest_worker_phases(self, rpc: dict) -> None:
        """Fold one traced tick's piggybacked worker timings into the
        cumulative per-shard phase totals (``fanout_stats``)."""
        for shard, record in rpc.items():
            telemetry = record.get("telemetry")
            if not telemetry:
                continue
            try:
                t_recv0, t_recv1 = telemetry["recv"]
                decode = float(telemetry["decoded"]) - float(t_recv1)
                step = float(telemetry["stepped"]) - float(telemetry["decoded"])
                recv = float(t_recv1) - float(t_recv0)
            except (KeyError, TypeError, ValueError):
                continue  # old or foreign worker: no (usable) telemetry
            phases = self._worker_phase_seconds.setdefault(
                shard,
                {"recv": 0.0, "decode": 0.0, "step": 0.0,
                 "encode": 0.0, "send": 0.0},
            )
            phases["recv"] += recv
            phases["decode"] += decode
            phases["step"] += step
            phases["encode"] += float(telemetry.get("prev_encode", 0.0))
            phases["send"] += float(telemetry.get("prev_send", 0.0))

    def _send_all(self, pairs) -> None:
        """Broadcast to many workers, all-or-nothing on encoding.

        Every message is *prepared* (encoded, size-checked) before any is
        transmitted, so an unencodable payload rejects the whole
        broadcast with no state change anywhere -- a restore can never be
        half-applied.  A transport failure mid-transmit drains the
        replies of the workers already messaged so their channels stay in
        protocol (without this, the next command would read a stale
        reply)."""
        prepared = [
            (worker, worker.prepare(command, payload))
            for worker, command, payload in pairs
        ]
        sent = []
        try:
            for worker, token in prepared:
                worker.send_prepared(token)
                sent.append(worker)
        except ClusterWorkerError as error:
            for worker in sent:
                worker.recv()
            self._note_dead(error.shard)
            raise

    def _request_all(self, pairs) -> list:
        """Broadcast, then drain every reply before raising the first error."""
        self._send_all(pairs)
        replies = [(worker, worker.recv()) for worker, _, _ in pairs]
        failure = None
        values = []
        for worker, reply in replies:
            if reply[0] != "ok":
                if not worker.alive:
                    self._note_dead(worker.shard)
                if failure is None:
                    failure = (worker.shard, reply[1], reply[2])
            else:
                values.append(reply[1])
        if failure is not None:
            raise_worker_error(*failure)
        return values

    def _worker_stats(self) -> list[dict]:
        self._require_healthy()
        self._require_drained()
        return self._request_all(
            [(worker, "stats", None) for worker in self._workers]
        )

    def statistics(self) -> RegistryStatistics:
        """Cluster-wide lifecycle counters (restored base + all shards)."""
        totals = dict(self._base_statistics)
        for stats in self._worker_stats():
            totals["created"] += stats["created"]
            totals["evicted"] += stats["evicted"]
            totals["series_started"] += stats["series_started"]
        return RegistryStatistics(**totals)

    # ------------------------------------------------------------------
    # Serving: one fan-out, one completion
    # ------------------------------------------------------------------
    def step_batch(self, frames: Sequence[StreamFrame]) -> list[StreamStepResult]:
        """One cluster tick; same contract and results as the single engine.

        Window 1 of the pipeline: :meth:`submit_batch` fans the tick out
        (shards without frames tick on an empty batch so TTL clocks stay
        cluster-wide) and :meth:`collect_batch` merges the replies back
        in input order -- the same code, spans and tick-tagged wire
        frames as a windowed run.  Requires a drained window, since it
        returns *this* tick's results.  Every topology takes this one
        path, a 1-shard in-proc cluster included: worker errors surface
        with the ``[shard N]`` diagnostic prefix.
        """
        self._require_drained()
        self.submit_batch(frames)
        return self.collect_batch()

    def submit_batch(self, frames: Sequence[StreamFrame]) -> int:
        """Fan one tick out without waiting for its replies.

        Validation, placement, payload build, and the overlapped
        per-shard sends all happen now; the replies stay on the wire
        until :meth:`collect_batch`.  Up to :attr:`inflight_window`
        ticks may be outstanding; submitting past the bound raises
        (the window is the backpressure boundary, not a buffer).

        Every step request is tick-tagged (reserved ``_tick`` meta) and
        workers echo the tag, so replies provably pair with the tick
        they answer even with several in flight.  Returns the submitted
        tick's number.  Validation failures raise before anything is
        sent -- the window is unchanged.  A worker death mid-fan-out
        drains this tick's partial sends (earlier in-flight ticks stay
        owed; recover via :meth:`abort_window`) and raises.
        """
        self._require_healthy()
        self._salvage = None
        if len(self._inflight) >= self.inflight_window:
            raise ClusterError(
                f"in-flight window is full ({self.inflight_window} "
                "tick(s)); collect_batch() before submitting more"
            )
        frames = list(frames)
        tick = self._tick + len(self._inflight) + 1
        submitted_at = time.monotonic()
        record = self._fanout(frames, tick)
        record["submitted_at"] = submitted_at
        self._inflight.append(record)
        if len(self._inflight) > self._inflight_max_depth:
            self._inflight_max_depth = len(self._inflight)
        return tick

    def collect_batch(self) -> list[StreamStepResult]:
        """Wait for the *oldest* in-flight tick and merge its results.

        Blocks until every shard's reply for the oldest submitted tick
        is in (``await_window`` spans per shard -- the genuine pipeline
        stall time), verifies each reply's tick echo, merges in input
        order (``merge_ready`` span), and completes the cluster tick.
        Ticks always complete in submission order regardless of which
        shard finishes first.

        A worker failure raises after this tick's replies are fully
        drained.  If no later tick is in flight, the surviving shards'
        ok replies are kept for :meth:`salvage_step`; otherwise the
        later ticks remain owed and the caller settles them with
        :meth:`abort_window` before recovery.
        """
        self._require_open()
        if not self._inflight:
            raise ClusterError("collect_batch() with no tick in flight")
        return self._complete(self._inflight.popleft())

    def _plan(self, frames: list[StreamFrame]) -> dict:
        """Validate, place and stack one tick's frames (no I/O).

        Parent-side validation is the single engine's whole-tick atomic
        reject, byte-identical by construction (shared helper): every
        input error checkable without the models rejects here with no
        state change on any shard.  Only failures a worker detects
        mid-tick -- a raising monitor factory, a broken taQIM -- remain
        atomic per shard rather than per cluster.
        """
        X, Q = validate_tick_frames(
            frames,
            n_stateless=self._engine_shape["n_stateless"],
            has_scope_model=self._engine_shape["has_scope_model"],
        )
        ids = [frame.stream_id for frame in frames]
        scope = [frame.scope_factors for frame in frames]
        if self.transport.requires_wire_ids:
            # Payloads that cannot cross the codec (exotic ids, non-JSON
            # scope values) must not half-execute a tick either.
            # Numpy-scalar scope values are unwrapped to exact Python
            # equivalents.
            for stream_id in ids:
                require_wire_id(stream_id)
            scope = list(map(sanitize_wire_scope, scope, ids))
        per_shard: list[list[int]] = [[] for _ in self._workers]
        for index, stream_id in enumerate(ids):
            per_shard[self.shard_for(stream_id)].append(index)
        return {
            "ids": ids,
            "X": X,
            "Q": Q,
            "new_series": np.fromiter(
                (frame.new_series for frame in frames), bool, len(frames)
            ),
            "scope": scope,
            "per_shard": per_shard,
        }

    @staticmethod
    def _payload(plan: dict, shard: int) -> dict | None:
        """One shard's stacked-numpy step payload (None: frameless tick).

        Fancy-indexes the tick-wide matrices (one C-level gather per
        array, bitwise-identical to stacking the shard's rows alone).
        """
        indices = plan["per_shard"][shard]
        if not indices:
            return None
        scope = [plan["scope"][i] for i in indices]
        idx = np.asarray(indices, dtype=np.intp)
        return {
            "ids": [plan["ids"][i] for i in indices],
            "X": plan["X"][idx],
            "Q": plan["Q"][idx],
            "new_series": plan["new_series"][idx],
            "scope": scope if any(s is not None for s in scope) else None,
        }

    def _fanout(self, frames: list[StreamFrame], tick: int) -> dict:
        """Validate, place, stack and send one tick; return its in-flight
        record (the plan, the shards still owing a reply)."""
        tracer = self.tracer
        span = tracer.span if tracer is not None else _null_span
        with span("fanout", frames=len(frames), shards=self.n_shards):
            plan = self._plan(frames)
            per_shard = plan["per_shard"]
            # Busy shards first, so shard k is computing while the
            # parent encodes shard k+1; frameless shards get their
            # (trivial) empty tick last.
            order = [s for s, indices in enumerate(per_shard) if indices]
            order += [s for s, indices in enumerate(per_shard) if not indices]
            record = {
                "tick": tick,
                "plan": plan,
                "pending": order,
                "replies": {},
                "rpc": {} if tracer is not None else None,
            }
            self._send_step(record)
            if frames:
                self._fanout_ticks += 1
        return record

    def _send_step(self, record: dict) -> None:
        """Overlapped sends of ``record["pending"]``'s step requests.

        Each shard's payload is encoded and on the wire before the next
        one is built.  Send cost is metered in parent *CPU* time: on an
        oversubscribed host the send syscall wakes the worker and the
        scheduler may run the worker's whole step inside the parent's
        wall-clock window, which is worker compute, not serialization.
        """
        tick = record["tick"]
        rpc = record["rpc"]
        sent = []
        try:
            for shard in record["pending"]:
                worker = self._workers[shard]
                p_start = time.process_time()
                payload = self._payload(record["plan"], shard)
                worker.tick_tag = tick
                if rpc is not None:
                    # Sampled tick: the request carries a trace context
                    # (workers piggyback phase timings on the reply) and
                    # send..recv-done brackets the shard's RPC envelope
                    # on the wall clock (timelines need wall time).
                    worker.trace_context = {
                        "tick": tick,
                        "shard": shard,
                        "parent": "await_window",
                        "sampled": True,
                    }
                    rpc[shard] = {"send": time.perf_counter()}
                worker.send("step", payload)
                if rpc is not None:
                    rpc[shard]["sent"] = time.perf_counter()
                shard_seconds = time.process_time() - p_start
                self._fanout_encode_seconds += shard_seconds
                if sent:
                    # Build + send work done while at least one shard
                    # was already computing its payload.
                    self._fanout_overlap_seconds += shard_seconds
                sent.append(shard)
        except Exception as error:
            # Drain this tick's partial sends so the channels stay in
            # protocol; earlier in-flight ticks keep their owed replies
            # (abort_window settles them).  An ok reply read here is this
            # tick's only when nothing older is in flight -- the salvage
            # resend -- and then that shard has completed the tick.
            for shard in sent:
                reply = self._workers[shard].recv()
                if reply[0] == "ok":
                    record["replies"][shard] = reply[1]
                elif not self._workers[shard].alive:
                    self._note_dead(shard)
            if isinstance(error, ClusterWorkerError):
                self._note_dead(error.shard)
            raise

    def _complete(self, record: dict) -> list[StreamStepResult]:
        """Receive a fanned-out tick's owed replies, then merge them."""
        tracer = self.tracer
        span = tracer.span if tracer is not None else _null_span
        tick = record["tick"]
        rpc = record["rpc"]
        received = {}
        mismatch = None
        for shard in record["pending"]:
            worker = self._workers[shard]
            with span("await_window", shard=shard, tick=tick):
                received[shard] = reply = worker.recv()
            if rpc is not None and shard in rpc:
                rpc[shard]["done"] = time.perf_counter()
                rpc[shard]["telemetry"] = getattr(
                    worker, "last_telemetry", None
                )
            echo = getattr(worker, "last_reply_tick", None)
            if reply[0] == "ok" and echo is not None and echo != tick:
                mismatch = mismatch or (shard, echo)
        if rpc is not None:
            self._last_rpc = {"tick": tick, "shards": rpc}
            self._harvest_worker_phases(rpc)
        if mismatch is not None:
            # Belt over the endpoints' suspenders: a reply acknowledged
            # for the wrong tick means pairing is broken cluster-wide.
            shard, echo = mismatch
            self._note_dead(shard)
            raise ClusterError(
                f"shard {shard} answered tick {echo}, expected {tick}; "
                "reply pairing is broken"
            )
        # Failures report the lowest-numbered failing shard.
        failure = None
        for shard in sorted(received):
            reply = received[shard]
            if reply[0] == "ok":
                record["replies"][shard] = reply[1]
                continue
            if not self._workers[shard].alive:
                self._note_dead(shard)
            if failure is None:
                failure = (shard, reply[1], reply[2])
        if failure is not None:
            if not self._inflight:
                # Partial-tick salvage: every shard that answered ok has
                # completed this tick and nothing later has reached it,
                # so the control plane can revive + replay just the
                # failed shard(s) and finish the tick via salvage_step()
                # instead of restoring the whole cluster.
                self._salvage = record
            raise_worker_error(*failure)

        plan = record["plan"]
        with span("merge_ready", tick=tick, frames=len(plan["ids"])):
            results = self._merge_shard_results(plan, record["replies"])
        self._tick += 1
        return results

    # ------------------------------------------------------------------
    # Partial-tick salvage (O(dead-shard) recovery)
    # ------------------------------------------------------------------
    @property
    def salvage_pending(self) -> bool:
        """True when the last failed tick -- the only one in flight --
        kept its survivors' replies and can complete via
        :meth:`salvage_step`."""
        return self._salvage is not None

    def salvage_step(self) -> list[StreamStepResult]:
        """Complete the last failed tick shard-locally.

        The failed :meth:`collect_batch` kept every surviving shard's ok
        reply in the tick's in-flight record; after the dead shard is
        revived (:meth:`revive_shard` with its checkpoint) and replayed
        to the cluster tick (:meth:`replay_shard`), this resends the
        tick's payload -- same bytes, same tick tag -- to just the
        shard(s) that never answered ok, merges the fresh replies with
        the kept ones in input order, and completes the cluster tick.
        If a resent shard fails again the record stays kept (minus any
        shard that answered ok meanwhile), so the caller can revive and
        try once more, or fall back to whole-cluster restore + replay.
        """
        self._require_healthy()
        self._require_drained()
        record = self._salvage
        if record is None:
            raise ClusterError("no partially-completed tick to salvage")
        self._salvage = None
        record["pending"] = [
            shard
            for shard in record["pending"]
            if shard not in record["replies"]
        ]
        if record["rpc"] is not None:
            record["rpc"] = {}
        try:
            self._send_step(record)
        except ClusterWorkerError:
            self._salvage = record
            raise
        return self._complete(record)

    @staticmethod
    def _merge_shard_results(plan: dict, replies: dict) -> list[StreamStepResult]:
        """Assemble each shard's reply columns with the engine's one
        assembler, then scatter the results back into input order."""
        ids = plan["ids"]
        results: list = [None] * len(ids)
        for shard, indices in enumerate(plan["per_shard"]):
            if indices:
                shard_ids = [ids[i] for i in indices]
                for i, result in zip(
                    indices, results_from_columns(shard_ids, replies[shard])
                ):
                    results[i] = result
        return results

    # ------------------------------------------------------------------
    # Snapshot / restore / rebalance
    # ------------------------------------------------------------------
    def snapshot(self) -> RegistrySnapshot:
        """One cluster-wide snapshot: all shards' streams, merged."""
        merged, _ = self.snapshot_shards()
        return merged

    def snapshot_shards(
        self,
    ) -> tuple[RegistrySnapshot, dict[int, RegistrySnapshot]]:
        """One fan-out yielding the merged snapshot AND each shard's part.

        The parts are the control plane's per-shard recovery
        checkpoints: reviving one dead shard restores only its part
        (plus its journal slice, :meth:`replay_shard`) instead of the
        whole cluster.  Each part keeps its worker-local lifecycle
        counters so a revived shard's statistics resume exactly.
        """
        parts, merged = self._snapshot_parts("snapshot", None)
        return RegistrySnapshot(**merged), dict(enumerate(parts))

    def snapshot_delta(self, since_tick: int) -> DeltaSnapshot:
        """Cluster-wide incremental snapshot: streams dirty since a tick.

        Each shard exports only the streams it touched after
        ``since_tick`` plus its live membership; the merged delta, fed
        to :func:`~repro.serving.state.compose_snapshot` over a base
        captured at ``since_tick``, reproduces :meth:`snapshot` at the
        current tick bitwise (same shard-order stream layout, same
        absolute statistics).
        """
        parts, merged = self._snapshot_parts("delta", int(since_tick))
        return DeltaSnapshot(
            base_tick=int(since_tick),
            live_ids=[
                stream_id for part in parts for stream_id in part.live_ids
            ],
            **merged,
        )

    def _snapshot_parts(self, command: str, argument) -> tuple[list, dict]:
        """One tick-checked snapshot part per shard, plus the merged
        fields both snapshot kinds share: streams in shard order and
        lifecycle statistics summed over the cluster base."""
        self._require_healthy()
        self._require_drained()
        parts = self._request_all(
            [(worker, command, argument) for worker in self._workers]
        )
        statistics = dict(self._base_statistics)
        for worker, part in zip(self._workers, parts):
            if part.tick != self._tick:
                raise ClusterError(
                    f"shard {worker.shard} is at tick {part.tick}, cluster at "
                    f"{self._tick}; state diverged (restore from a snapshot)"
                )
            for key in statistics:
                statistics[key] += part.statistics.get(key, 0)
        return parts, {
            "tick": self._tick,
            "max_buffer_length": parts[0].max_buffer_length,
            "idle_ttl": parts[0].idle_ttl,
            "statistics": statistics,
            "streams": [stream for part in parts for stream in part.streams],
        }

    def split_snapshot(
        self, snapshot: RegistrySnapshot
    ) -> list[RegistrySnapshot]:
        """One part per shard by this cluster's ring, from a snapshot of
        any topology; lifecycle counters live in the cluster base, so
        the parts carry none."""
        split: list[list] = [[] for _ in self._workers]
        for stream in snapshot.streams:
            split[self.shard_for(stream.stream_id)].append(stream)
        return [
            RegistrySnapshot(
                tick=snapshot.tick,
                max_buffer_length=snapshot.max_buffer_length,
                idle_ttl=snapshot.idle_ttl,
                statistics={},
                streams=streams,
            )
            for streams in split
        ]

    def restore(self, snapshot: RegistrySnapshot) -> None:
        """Load a snapshot, splitting the streams across the shards.

        Works with snapshots taken from any topology or transport -- a
        single :class:`StreamingEngine`, a pipe cluster restoring into a
        TCP cluster, any shard count -- because the wire format is shared
        and placement is recomputed from the stable hash ring at restore
        time.
        """
        self._require_healthy()
        self._require_drained()
        self._salvage = None  # the tick it belonged to is superseded
        self._request_all(
            [
                (worker, "restore", part)
                for worker, part in zip(
                    self._workers, self.split_snapshot(snapshot)
                )
            ]
        )
        self._tick = snapshot.tick
        self._base_statistics = {
            "created": int(snapshot.statistics.get("created", 0)),
            "evicted": int(snapshot.statistics.get("evicted", 0)),
            "series_started": int(snapshot.statistics.get("series_started", 0)),
        }

    def rebalance(self, n_shards: int) -> dict:
        """Grow or shrink the cluster to ``n_shards`` workers, live.

        Consistent hashing keeps the churn minimal: only streams whose
        ring arc changes owner migrate, carrying their full serving state
        (buffer, step counter, monitor budget, TTL clock) via per-stream
        snapshots.  Returns a summary ``{"moved": ..., "from": ...,
        "to": ...}``.
        """
        self._require_healthy()
        self._require_drained()
        self._salvage = None  # placement is about to change under it
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        limit = self.transport.max_shards()
        if limit is not None and n_shards > limit:
            raise ValidationError(
                f"transport {self.transport.name!r} can place at most {limit} "
                f"shard(s), got n_shards={n_shards}"
            )
        old_n = len(self._workers)
        if n_shards == old_n and self._ring.n_shards == n_shards:
            # Worker count AND ring already match.  (After a rebalance
            # that failed mid-flight and was recovered, the worker list
            # may match the target while the ring still doesn't -- the
            # retry must then run the migration, not early-return.)
            return {"moved": 0, "from": old_n, "to": n_shards}
        new_ring = HashRing(n_shards, self.replicas)
        for shard in range(old_n, n_shards):  # grow first: targets must exist
            self._workers.append(self._spawn_worker(shard))

        template: RegistrySnapshot | None = None
        arrivals: list[list] = [[] for _ in range(max(n_shards, old_n))]
        moved = 0
        for shard in range(old_n):
            worker = self._workers[shard]
            ids = worker.request("ids")
            if shard < n_shards:
                moving = [
                    i
                    for i in ids
                    if new_ring.shard_for_hash(self._hash_for(i)) != shard
                ]
            else:  # retiring shard: drain everything
                moving = ids
            if not moving:
                continue
            part = worker.request("snapshot", moving)
            worker.request("discard", moving)
            template = template or part
            moved += len(part.streams)
            for stream in part.streams:
                arrivals[
                    new_ring.shard_for_hash(self._hash_for(stream.stream_id))
                ].append(stream)

        for shard, streams in enumerate(arrivals[:n_shards]):
            if streams:
                self._workers[shard].request(
                    "inject",
                    RegistrySnapshot(
                        tick=self._tick,
                        max_buffer_length=template.max_buffer_length,
                        idle_ttl=template.idle_ttl,
                        statistics={},
                        streams=streams,
                    ),
                )

        for worker in self._workers[n_shards:]:  # shrink last: already drained
            stats = worker.request("stats")  # counters outlive the worker
            for key in self._base_statistics:
                self._base_statistics[key] += stats[key]
            worker.shutdown()
        del self._workers[n_shards:]
        # A dead-shard record pointing past the new worker list refers to
        # a worker that no longer exists; keeping it would wedge
        # _require_healthy on a shard nobody can revive.
        self._dead_shards = {s for s in self._dead_shards if s < n_shards}
        self._ring = new_ring
        # Remap the placement memo from the cached digests -- no re-hash.
        self._shard_cache = {
            stream_id: new_ring.shard_for_hash(stream_hash)
            for stream_id, stream_hash in self._hash_cache.items()
        }
        return {"moved": moved, "from": old_n, "to": n_shards}
