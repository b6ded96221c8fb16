"""Non-blocking, incremental durability for serving snapshots.

Every periodic snapshot takes one path: the controller captures a
consistent copy on the tick, hands it to the one :class:`SnapshotWriter`
thread, and that thread commits it to the one :class:`SnapshotStore`.
:mod:`repro.serving.state` supplies the atomic, digested file writes
underneath.

* :class:`SnapshotWriter` -- a single background thread with a bounded
  queue.  The tick path pays only the *capture* (the already-detached
  array copies a snapshot is made of); serialization and disk I/O happen
  off-thread.  A full queue drops the newest job loudly (``dropped`` --
  the controller surfaces it as ``snapshots_dropped`` /
  ``repro_snapshot_dropped_total``) instead of blocking the tick, a job
  that raises is counted (``errors``), and :meth:`SnapshotWriter.close`
  drains everything queued, so no accepted snapshot is lost silently.
  The controller's ``"sync"`` mode merely waits for each write to land
  (and re-raises its error); ``"bg"`` does not.

* :class:`SnapshotStore` -- the on-disk layout: full ``base_NNNNNN``
  snapshots plus ``delta_NNNNNN`` chains
  (:class:`~repro.serving.state.DeltaSnapshot`), committed through an
  atomically-replaced ``manifest.json`` that names the live chain with a
  content digest per component.  ``load`` verifies every digest, then
  composes base + deltas back into one
  :class:`~repro.serving.state.RegistrySnapshot`
  (:func:`~repro.serving.state.compose_snapshot`) -- bitwise what a full
  snapshot at the same tick would hold.  Superseded generations are
  optionally garbage-collected after each new base (``retain``).

* :func:`load_snapshot` -- one loader for both layouts: a store
  directory (or its ``manifest.json``) composes the chain; a legacy
  ``tick_NNNNNN`` stem, as :meth:`RegistrySnapshot.save
  <repro.serving.state.RegistrySnapshot.save>` writes it, loads the
  classic pair.

Single-writer by construction: only the writer thread ever mutates a
store, so the store needs no locking -- the writer's bounded queue *is*
the serialization point.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import queue
import threading
import time

from repro.exceptions import ValidationError
from repro.serving.state import (
    DeltaSnapshot,
    RegistrySnapshot,
    compose_snapshot,
)

__all__ = [
    "SnapshotWriter",
    "SnapshotStore",
    "load_snapshot",
    "MANIFEST_NAME",
]

#: The store's commit record, atomically replaced on every commit.
MANIFEST_NAME = "manifest.json"

_MANIFEST_FORMAT = "repro-snapshot-manifest"
_MANIFEST_VERSION = 1


class SnapshotWriter:
    """One daemon thread draining a bounded queue of snapshot writes.

    ``submit`` never blocks: a full queue refuses the job (returns
    ``False``, counts it in ``dropped``) so a slow disk back-pressures
    into *skipped snapshots*, never into tick latency.  Jobs that raise
    are counted (``errors`` / ``last_error``) and do not kill the
    thread.  Per-write wall times accumulate for the controller's
    ``repro_snapshot_write_seconds`` histogram
    (:meth:`drain_timings`).
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: queue.Queue = queue.Queue(capacity)
        self._lock = threading.Lock()
        self._written = 0
        self._dropped = 0
        self._errors = 0
        self._timings: list[float] = []
        self.last_error: tuple[str, Exception] | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-snapshot-writer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                label, write = job
                started = time.perf_counter()
                try:
                    write()
                except Exception as error:
                    with self._lock:
                        self._errors += 1
                        self.last_error = (label, error)
                else:
                    seconds = time.perf_counter() - started
                    with self._lock:
                        self._written += 1
                        self._timings.append(seconds)
                        # Bounded even when nobody drains (metrics off).
                        if len(self._timings) > 256:
                            del self._timings[0]
            finally:
                self._queue.task_done()

    def submit(self, label: str, write) -> bool:
        """Enqueue one write job; ``False`` = queue full, job dropped."""
        if self._closed:
            raise ValidationError("snapshot writer is closed")
        try:
            self._queue.put_nowait((label, write))
        except queue.Full:
            with self._lock:
                self._dropped += 1
            return False
        return True

    def drain(self) -> None:
        """Block until every accepted job has been executed."""
        self._queue.join()

    def close(self) -> None:
        """Drain the queue, then stop the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)  # blocks only until the drain frees a slot
        self._thread.join()

    @property
    def queue_depth(self) -> int:
        """Writes accepted but not yet on disk (approximate)."""
        return self._queue.qsize()

    def stats(self) -> dict:
        with self._lock:
            return {
                "written": self._written,
                "dropped": self._dropped,
                "errors": self._errors,
                "queue_depth": self.queue_depth,
            }

    def drain_timings(self) -> list[float]:
        """Pop the per-write durations accumulated since the last call."""
        with self._lock:
            timings, self._timings = self._timings, []
        return timings


class SnapshotStore:
    """Base + delta snapshot chains behind an atomic manifest.

    Layout (all inside ``directory``)::

        manifest.json            <- the commit record (atomic replace)
        base_000008.{json,npz}   <- newest full snapshot
        delta_000010.{json,npz}  <- dirty-since-8 streams
        delta_000012.{json,npz}  <- dirty-since-10 streams

    The manifest names the live chain; each entry carries a blake2b
    digest of its sidecar bytes (which themselves commit to the arrays'
    digest), so ``load`` refuses any component that does not match what
    the manifest was written against.  Commit order makes crashes safe:
    component files land (atomically) *before* the manifest that names
    them, so the on-disk manifest always describes a complete,
    restorable chain -- a crash mid-commit merely loses the newest
    generation, never corrupts the previous one.

    ``retain`` bounds the superseded generations kept on disk after a
    compaction (a new base supersedes the previous base + deltas):
    ``0`` keeps everything, ``N`` unlinks all but the newest ``N``
    superseded generations.
    """

    def __init__(self, directory, retain: int = 0) -> None:
        if retain < 0:
            raise ValidationError(f"retain must be >= 0, got {retain}")
        self.directory = pathlib.Path(directory)
        self.retain = retain
        self._manifest: dict | None = None
        self._history: list[dict] = []  # superseded generations, oldest first

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def base_stem(self, tick: int) -> pathlib.Path:
        return self.directory / f"base_{tick:06d}"

    def delta_stem(self, tick: int) -> pathlib.Path:
        return self.directory / f"delta_{tick:06d}"

    def commit_base(self, snapshot: RegistrySnapshot) -> pathlib.Path:
        """Write a full snapshot and point the manifest at it (alone)."""
        stem = self.base_stem(snapshot.tick)
        json_path, _ = snapshot.save(stem)
        previous = self._manifest
        self._commit(
            {
                "format": _MANIFEST_FORMAT,
                "version": _MANIFEST_VERSION,
                "tick": snapshot.tick,
                "base": self._entry(stem, snapshot.tick, json_path),
                "deltas": [],
            }
        )
        if previous is not None:
            self._history.append(previous)
            self._gc()
        return stem

    def commit_delta(self, delta: DeltaSnapshot) -> pathlib.Path:
        """Append one delta to the live chain.

        The delta must chain from the manifest's tick: one that was
        captured against a write which never committed (a failed or
        refused earlier write) is refused, and the manifest keeps naming
        the last restorable chain.
        """
        if self._manifest is None:
            raise ValidationError(
                "cannot commit a delta before any base snapshot"
            )
        if delta.base_tick != self._manifest["tick"]:
            raise ValidationError(
                f"delta at tick {delta.tick} chains from tick "
                f"{delta.base_tick}, but the manifest is at tick "
                f"{self._manifest['tick']}; commit a base instead"
            )
        stem = self.delta_stem(delta.tick)
        json_path, _ = delta.save(stem)
        entry = self._entry(stem, delta.tick, json_path)
        entry["base_tick"] = delta.base_tick
        self._commit(
            {
                **self._manifest,
                "tick": delta.tick,
                "deltas": [*self._manifest["deltas"], entry],
            }
        )
        return stem

    @staticmethod
    def _entry(stem: pathlib.Path, tick: int, json_path: pathlib.Path) -> dict:
        return {
            "stem": stem.name,
            "tick": int(tick),
            "sidecar_digest": _digest(json_path.read_bytes()),
        }

    def _commit(self, manifest: dict) -> None:
        """Write ``manifest`` atomically, then adopt it: a failed write
        leaves both the on-disk and the in-memory manifest as they were."""
        from repro.serving.state import _atomic_write

        payload = json.dumps(manifest, indent=2).encode()
        _atomic_write(
            self.directory / MANIFEST_NAME, lambda fh: fh.write(payload)
        )
        self._manifest = manifest

    def _gc(self) -> None:
        if not self.retain:
            return
        while len(self._history) > self.retain:
            old = self._history.pop(0)
            for entry in [old["base"], *old["deltas"]]:
                for suffix in (".json", ".npz"):
                    path = self.directory / (entry["stem"] + suffix)
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, directory) -> RegistrySnapshot:
        """Compose the manifest's live chain back into a full snapshot."""
        directory = pathlib.Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise ValidationError(
                f"snapshot manifest {manifest_path} not found"
            ) from None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _MANIFEST_FORMAT
        ):
            raise ValidationError(
                f"{manifest_path} is not a {_MANIFEST_FORMAT} manifest"
            )
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ValidationError(
                f"manifest {manifest_path} has version "
                f"{manifest.get('version')}; this build reads version "
                f"{_MANIFEST_VERSION}"
            )
        cls._check_entry(directory, manifest["base"], manifest_path)
        base = RegistrySnapshot.load(directory / manifest["base"]["stem"])
        deltas = []
        for entry in manifest.get("deltas", []):
            cls._check_entry(directory, entry, manifest_path)
            deltas.append(DeltaSnapshot.load(directory / entry["stem"]))
        return compose_snapshot(base, deltas)

    @staticmethod
    def _check_entry(directory, entry: dict, manifest_path) -> None:
        sidecar = directory / (entry["stem"] + ".json")
        try:
            payload = sidecar.read_bytes()
        except FileNotFoundError:
            raise ValidationError(
                f"manifest {manifest_path} names {sidecar}, which is missing"
            ) from None
        actual = _digest(payload)
        if actual != entry.get("sidecar_digest"):
            raise ValidationError(
                f"{sidecar} does not match manifest {manifest_path}: "
                f"sidecar digest {actual} != recorded "
                f"{entry.get('sidecar_digest')}"
            )


def _digest(payload: bytes) -> str:
    """The manifest's per-component digest of a sidecar's bytes."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def load_snapshot(path) -> RegistrySnapshot:
    """Load a snapshot from either on-disk layout.

    * a :class:`SnapshotStore` directory (or its ``manifest.json``)
      composes the manifest's base + delta chain;
    * anything else is treated as a legacy ``<stem>.json``/``.npz`` pair.
    """
    path = pathlib.Path(path)
    if path.name == MANIFEST_NAME:
        return SnapshotStore.load(path.parent)
    if path.is_dir():
        return SnapshotStore.load(path)
    return RegistrySnapshot.load(path)
