"""Tests for the cluster wire codec.

The codec is the contract every transport shares: frames must round-trip
bitwise (numpy payloads never touch JSON), malformed or version-skewed
frames must fail loudly as :class:`ProtocolError`, and every worker
command's payload must survive encode/decode unchanged -- including whole
registry snapshots, whose wire framing backs cross-transport restore.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ValidationError
from repro.serving import RegistrySnapshot, StreamingEngine, StreamFrame
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    BufferPool,
    decode_frame,
    decode_reply,
    decode_request,
    encode_frame,
    encode_reply,
    encode_request,
    require_wire_id,
)


def _reference_frame(kind, meta, arrays):
    """The documented frame layout, built independently of the codec:
    prefix, compact JSON header, then each array's C-order bytes."""
    contiguous = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    header = json.dumps(
        {
            "kind": kind,
            "meta": meta,
            "arrays": [
                {"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                for name, a in contiguous.items()
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return (
        b"RPWC"
        + struct.pack(">HI", PROTOCOL_VERSION, len(header))
        + header
        + b"".join(a.tobytes() for a in contiguous.values())
    )


class TestFrameLayer:
    def test_roundtrip_meta_and_arrays(self):
        arrays = {
            "X": np.arange(12, dtype=float).reshape(3, 4) * np.pi,
            "labels": np.array([1, -5, 2**40], dtype=np.int64),
            "flags": np.array([True, False, True]),
            "empty": np.empty(0, dtype=float),
        }
        meta = {"ids": ["a", 1, 2.5, None, True], "nested": {"k": [1, 2]}}
        frame = decode_frame(encode_frame("req:step", meta, arrays).join())
        assert frame.kind == "req:step"
        assert frame.meta == meta
        assert set(frame.arrays) == set(arrays)
        for name, array in arrays.items():
            decoded = frame.arrays[name]
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            # Bitwise, not approximate: raw buffer bytes round-trip.
            assert decoded.tobytes() == np.ascontiguousarray(array).tobytes()

    def test_decoded_arrays_own_their_memory(self):
        data = bytearray(encode_frame("k", {}, {"a": np.array([1.0, 2.0])}).join())
        frame = decode_frame(data)
        copy = frame.arrays["a"].copy()
        data[-16:] = b"\x00" * 16  # scribble over the receive buffer
        assert np.array_equal(frame.arrays["a"], copy)
        frame.arrays["a"][0] = 9.0  # writable, not a frozen view

    def test_noncontiguous_input_is_encoded_correctly(self):
        base = np.arange(24, dtype=np.int64).reshape(4, 6)
        frame = decode_frame(encode_frame("k", {}, {"a": base[:, ::2]}).join())
        assert np.array_equal(frame.arrays["a"], base[:, ::2])

    def test_bad_magic_and_truncation(self):
        good = encode_frame("k", {"x": 1}, {"a": np.ones(3)}).join()
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"NOPE" + good[4:])
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(good[:3])
        with pytest.raises(ProtocolError, match="cut short"):
            decode_frame(good[:-8])
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frame(good + b"junk")

    def test_version_mismatch_fails_loudly(self):
        good = bytearray(encode_frame("k", {}).join())
        struct.pack_into(">H", good, 4, PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError, match="protocol version"):
            decode_frame(bytes(good))

    def test_undecodable_header(self):
        header = b"not json"
        raw = b"RPWC" + struct.pack(">HI", PROTOCOL_VERSION, len(header)) + header
        with pytest.raises(ProtocolError, match="header"):
            decode_frame(raw)

    def test_malformed_manifest_shapes_rejected(self):
        # A hostile peer must not be able to rewind the read offset with
        # negative dims or smuggle non-int shapes past the decoder.
        def frame_with_shape(shape):
            header = json.dumps(
                {
                    "kind": "k",
                    "meta": {},
                    "arrays": [{"name": "a", "dtype": "<f8", "shape": shape}],
                }
            ).encode("utf-8")
            return (
                b"RPWC"
                + struct.pack(">HI", PROTOCOL_VERSION, len(header))
                + header
            )

        for shape in (["x"], [-1], [1, -8], 3, [2.5], [True]):
            with pytest.raises(ProtocolError, match="non-negative ints"):
                decode_frame(frame_with_shape(shape))
        # Huge dims must not wrap to a small/negative product (int64
        # overflow) -- they are simply larger than the payload.
        for shape in ([2**32, 2**32], [2**63, 2]):
            with pytest.raises(ProtocolError, match="cut short"):
                decode_frame(frame_with_shape(shape))

    def test_one_encoder_and_one_decoder_per_layer(self):
        from repro.serving import protocol

        codec = {
            name
            for name in protocol.__all__
            if name.startswith(("encode_", "decode_"))
        }
        assert codec == {
            f"{direction}_{layer}"
            for direction in ("encode", "decode")
            for layer in ("frame", "request", "reply")
        }

    def test_non_json_meta_rejected_at_encode(self):
        with pytest.raises(ValidationError, match="wire-serializable"):
            encode_frame("k", {"id": object()})


def _random_arrays(rng):
    """A randomized arrays dict mixing dtypes, orders, and emptiness."""
    dtypes = [
        np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_,
        np.dtype(">i4"), np.dtype("<f8"),
    ]
    arrays = {}
    for index in range(rng.integers(0, 5)):
        dtype = dtypes[rng.integers(0, len(dtypes))]
        ndim = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(0, 5)) for _ in range(ndim))
        array = (rng.random(shape) * 100).astype(dtype)
        kind = rng.integers(0, 3)
        if kind == 1 and array.ndim >= 2 and array.shape[-1] > 1:
            array = array[..., ::2]  # non-contiguous view
        elif kind == 2 and array.ndim >= 2:
            array = np.asfortranarray(array)
        arrays[f"a{index}"] = array
    return arrays


class TestPooledCodec:
    """The zero-copy gather-list encoder and its buffer pool."""

    def test_parts_join_matches_legacy_bytes(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            arrays = _random_arrays(rng)
            meta = {"ids": list(range(int(rng.integers(0, 4))))}
            legacy = _reference_frame("req:step", meta, arrays)
            parts = encode_frame("req:step", meta, arrays)
            assert parts.join() == legacy
            assert parts.nbytes == len(legacy)

    def test_pooled_assembly_matches_legacy_bytes(self):
        rng = np.random.default_rng(82)
        pool = BufferPool()
        for _ in range(50):
            arrays = _random_arrays(rng)
            legacy = _reference_frame("k", {"n": 1}, arrays)
            frame = pool.encode_into(encode_frame("k", {"n": 1}, arrays))
            assert bytes(frame.view) == legacy
            frame.release()
        # Steady state recycles: far more hits than allocations.
        assert pool.hits + pool.misses == 50
        assert pool.hits > pool.misses

    def test_request_and_reply_parts_match_joined_codecs(self):
        payload = {
            "ids": ["a", "b"],
            "X": np.arange(8, dtype=float).reshape(2, 4),
            "Q": np.ones((2, 3)),
            "new_series": np.array([True, False]),
            "scope": None,
        }
        # Command meta first, then the reserved keys, then the arrays.
        arrays = {k: payload[k] for k in ("X", "Q", "new_series")}
        assert encode_request(
            "step", payload, trace={"tick": 3}, tick=3
        ).join() == _reference_frame(
            "req:step",
            {"ids": ["a", "b"], "scope": None, "_trace": {"tick": 3}, "_tick": 3},
            arrays,
        )
        reply = ("ok", {"fused": np.arange(4.0)})
        assert encode_reply(
            "step", reply, telemetry={"t": 1}
        ).join() == _reference_frame(
            "ok:step", {"empty": False, "_telemetry": {"t": 1}}, reply[1]
        )
        error = ("error", "ValueError", "boom")
        assert encode_reply("step", error, tick=3).join() == _reference_frame(
            "err", {"name": "ValueError", "message": "boom"}, {}
        )

    def test_wire_bytes_match_pinned_digests(self):
        # One encoder per layer, but the bytes on the wire never change:
        # these digests pin request and reply frames across refactors
        # (a change here needs a PROTOCOL_VERSION bump).
        payload = {
            "ids": ["a", 7, 2.5],
            "X": np.arange(12, dtype=float).reshape(3, 4) / 7,
            "Q": np.arange(6, dtype=np.float32).reshape(3, 2)[:, ::-1],
            "new_series": np.array([True, False, True]),
            "scope": [None, {"lat": 1.5}, {"fog": True}],
        }
        results = {
            "fused": np.linspace(0, 1, 3),
            "outcome": np.array([1, 0, 2], dtype=np.int64),
            "empty": np.empty((0, 2)),
        }
        frames = {
            "req_step": encode_request(
                "step", payload, trace={"tick": 3, "sampled": True}, tick=3
            ),
            "req_step_empty": encode_request("step", None, tick=4),
            "req_hello": encode_request(
                "hello", {"initial_tick": 5, "shard": 1, "_clock": True}
            ),
            "req_delta": encode_request("delta", 9),
            "req_discard": encode_request("discard", ["a", 7]),
            "req_snapshot": encode_request("snapshot", None),
            "rep_step": encode_reply(
                "step",
                ("ok", results),
                telemetry={"tick": 3, "recv": [1.0, 2.0]},
                tick=3,
            ),
            "rep_stats": encode_reply("stats", ("ok", {"created": 3, "tick": 4})),
            "rep_ids": encode_reply("ids", ("ok", ["a", 7])),
            "rep_error": encode_reply(
                "step", ("error", "ValidationError", "boom"), tick=3
            ),
        }
        digests = {
            name: hashlib.sha256(parts.join()).hexdigest()
            for name, parts in frames.items()
        }
        assert digests == {
        "req_step": "59e3e040960045eb71f88721a65ef5097861c022de42022064db7f098f4cce30",
        "req_step_empty": "369921a533b82c6c5e23f5fe8170dc266d77452d27b5df7c424dc924cc6277e2",
        "req_hello": "85dcdce968617056768cba875d1d1d74f437f411fbd28b73f83de3dbe3b49bad",
        "req_delta": "e703a2a5df8da4b43eb571c4c564fb1feaf235fe5fe0cc3e53a75e51e67f8168",
        "req_discard": "a60a4fb143f0eeb7ff49a5681a4f95cc3d4331a7a52a9d568b61d3d10ff71cc0",
        "req_snapshot": "f2d3fd3719246f9a05a0e5a1e86b8d8a4ee0ec098f8183c144c6a8a9d50deb63",
        "rep_step": "b52b4b4a9b2e21460a5344ec28e5f26795ff8359f66ebb4b07a0d9644662a683",
        "rep_stats": "b84f80f13f0b61c66a464442cc12c8807176459568903de0e7351cd96c0ccc85",
        "rep_ids": "0e01c026ce6cd819bf3febdd1ab9e1396469c462f90105ab590d37d2a73dde7e",
        "rep_error": "9f7a3fa06fc310b8fa488640e7656eb017196c7121dc484e48434d5a455caf85",
        }

    def test_pooled_roundtrip_mixed_dtypes_and_empties(self):
        pool = BufferPool()
        arrays = {
            "f": np.linspace(0, 1, 7, dtype=np.float32),
            "big_endian": np.arange(5, dtype=">i4"),
            "empty": np.empty((0, 3), dtype=np.int16),
            "scalarish": np.float64(2.5),
            "strided": np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2],
            "bools": np.array([[True], [False]]),
        }
        frame = pool.encode_into(encode_frame("k", {"m": 1}, arrays))
        decoded = decode_frame(frame.view)
        frame.release()
        for name, array in arrays.items():
            expected = np.ascontiguousarray(array)
            assert decoded.arrays[name].dtype == expected.dtype
            assert decoded.arrays[name].shape == expected.shape
            assert decoded.arrays[name].tobytes() == expected.tobytes()

    def test_truncated_and_tampered_pooled_frames_fail_loudly(self):
        pool = BufferPool()
        parts = encode_frame("k", {"x": 1}, {"a": np.ones(5)})
        frame = pool.encode_into(parts)
        good = bytes(frame.view)
        frame.release()
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(good[:5])
        with pytest.raises(ProtocolError, match="cut short"):
            decode_frame(good[:-4])
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"XXXX" + good[4:])
        tampered = bytearray(good)
        tampered[4] ^= 0xFF  # version word
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(tampered))
        header_garbage = bytearray(good)
        header_garbage[12] ^= 0xFF  # inside the JSON header
        with pytest.raises(ProtocolError):
            decode_frame(bytes(header_garbage))

    def test_pool_reuse_never_aliases_live_decoded_arrays(self):
        pool = BufferPool()
        first = pool.encode_into(
            encode_frame("k", {}, {"a": np.full(64, 7.0)})
        )
        decoded = decode_frame(first.view)
        kept = decoded.arrays["a"]
        first.release()
        # The released buffer is recycled and overwritten by the next
        # frame of the same size class...
        second = pool.encode_into(
            encode_frame("k", {}, {"a": np.zeros(64)})
        )
        assert pool.hits == 1
        # ...but decoded arrays own their memory, so the live view of
        # the first frame is unaffected.
        assert np.array_equal(kept, np.full(64, 7.0))
        second.release()

    def test_released_frame_is_inert(self):
        pool = BufferPool()
        frame = pool.encode_into(encode_frame("k", {"x": 1}, {}))
        frame.release()
        frame.release()  # idempotent
        assert pool.stats()["hits"] == 0

    def test_pool_size_classes_and_counters(self):
        pool = BufferPool(max_buffers_per_class=2)
        small = pool.acquire(100)
        assert len(small) == BufferPool.MIN_BUFFER_BYTES
        big = pool.acquire(BufferPool.MIN_BUFFER_BYTES + 1)
        assert len(big) == 2 * BufferPool.MIN_BUFFER_BYTES
        pool._release(small)
        assert pool.acquire(50) is small
        assert pool.stats() == {"hits": 1, "misses": 2, "bytes_copied": 0}

    def test_segments_pin_backing_arrays(self):
        # The gather list borrows array memory; _keepalive must hold the
        # contiguous copies alive even when the caller drops its refs.
        parts = encode_frame(
            "k", {}, {"a": np.arange(6.0).reshape(2, 3)[:, ::2]}
        )
        legacy = _reference_frame(
            "k", {}, {"a": np.arange(6.0).reshape(2, 3)[:, ::2]}
        )
        import gc

        gc.collect()
        assert parts.join() == legacy


class TestWireIds:
    def test_scalars_pass_and_objects_fail(self):
        for stream_id in ("car-1", 7, 2.5, True, None):
            require_wire_id(stream_id)
        with pytest.raises(ValidationError, match="wire-serializable"):
            require_wire_id(("tuple", "id"))

    def test_step_request_rejects_exotic_ids(self):
        payload = {
            "ids": [("a", 1)],
            "X": np.ones((1, 2)),
            "Q": np.ones((1, 1)),
            "new_series": np.array([False]),
            "scope": None,
        }
        with pytest.raises(ValidationError, match="wire-serializable"):
            encode_request("step", payload)


class TestRequestReplyVocabulary:
    def test_step_request_roundtrip(self):
        payload = {
            "ids": ["a", "b", 3],
            "X": np.random.default_rng(0).normal(size=(3, 5)),
            "Q": np.random.default_rng(1).random((3, 2)),
            "new_series": np.array([True, False, True]),
            "scope": [{"lat": 1.25}, None, {"lat": -3.5}],
        }
        command, decoded, _, _ = decode_request(
            encode_request("step", payload).join()
        )
        assert command == "step"
        assert decoded["ids"] == payload["ids"]
        assert decoded["scope"] == payload["scope"]
        assert decoded["X"].tobytes() == payload["X"].tobytes()
        assert decoded["Q"].tobytes() == payload["Q"].tobytes()
        assert decoded["new_series"].tolist() == [True, False, True]

    def test_frameless_step_roundtrip(self):
        command, decoded, _, _ = decode_request(
            encode_request("step", None).join()
        )
        assert command == "step"
        assert decoded is None
        reply, _, _ = decode_reply(encode_reply("step", ("ok", None)).join(), "step")
        assert reply == ("ok", None)

    def test_step_reply_roundtrip_bitwise(self):
        encoded = {
            "fused": np.array([3, 1], dtype=np.int64),
            "fused_u": np.array([0.1, 0.9999999999999999]),
            "isolated": np.array([3, 2], dtype=np.int64),
            "isolated_u": np.array([0.25, 0.5]),
            "timestep": np.array([0, 7], dtype=np.int64),
            "scope_u": np.array([0.0, 1.0]),
            "v_mask": np.array([True, False]),
            "v_accepted": np.array([True, False]),
            "v_u": np.array([0.1, 0.0]),
            "v_threshold": np.array([0.35, 0.0]),
            "v_hysteresis": np.array([False, False]),
        }
        (status, decoded), _, _ = decode_reply(
            encode_reply("step", ("ok", encoded)).join(), "step"
        )
        assert status == "ok"
        assert set(decoded) == set(encoded)
        for key in encoded:
            assert decoded[key].tobytes() == encoded[key].tobytes()

    def test_simple_commands_roundtrip(self):
        for command, payload in [
            ("hello", {"initial_tick": 5, "shard": 2}),
            ("snapshot", ["a", "b"]),
            ("snapshot", None),
            ("discard", ["a", 2, None]),
            ("ids", None),
            ("stats", None),
            ("close", None),
        ]:
            assert decode_request(encode_request(command, payload).join()) == (
                command,
                payload,
                None,
                None,
            )
        stats = {"created": 3, "evicted": 1, "series_started": 2,
                 "n_streams": 2, "tick": 9}
        assert decode_reply(encode_reply("stats", ("ok", stats)).join(), "stats") == (
            ("ok", stats),
            None,
            None,
        )
        assert decode_reply(encode_reply("ids", ("ok", ["x", 1])).join(), "ids") == (
            ("ok", ["x", 1]),
            None,
            None,
        )

    def test_error_reply_is_command_independent(self):
        data = encode_reply("step", ("error", "ValidationError", "boom")).join()
        for command in ("step", "snapshot", "stats"):
            assert decode_reply(data, command) == (
                ("error", "ValidationError", "boom"),
                None,
                None,
            )

    def test_mismatched_reply_kind_rejected(self):
        data = encode_reply("stats", ("ok", {"tick": 1})).join()
        with pytest.raises(ProtocolError, match="does not match"):
            decode_reply(data, "step")

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            encode_request("format-disk", None)


class TestSnapshotWireFraming:
    def make_snapshot(self, synthetic_stack, series_maker):
        from repro.core.monitor import UncertaintyMonitor

        ddm, stateless, ta_qim, layout, fusion = synthetic_stack
        engine = StreamingEngine(
            ddm=ddm,
            stateless_qim=stateless,
            timeseries_qim=ta_qim,
            layout=layout,
            information_fusion=fusion,
            max_buffer_length=4,
            monitor_factory=lambda: UncertaintyMonitor(threshold=0.35),
            idle_ttl=5,
        )
        series = series_maker(np.random.default_rng(5), n_series=6, length=5)
        for t in range(5):
            engine.step_batch(
                [
                    StreamFrame(f"s{i}", series[i][0][t], series[i][1][t])
                    for i in range(6)
                ]
            )
        return engine.snapshot()

    def test_to_wire_from_wire_roundtrip(self, synthetic_stack, series_maker):
        snapshot = self.make_snapshot(synthetic_stack, series_maker)
        rebuilt = RegistrySnapshot.from_wire(*snapshot.to_wire())
        assert rebuilt.tick == snapshot.tick
        assert rebuilt.max_buffer_length == snapshot.max_buffer_length
        assert rebuilt.idle_ttl == snapshot.idle_ttl
        assert rebuilt.statistics == snapshot.statistics
        assert len(rebuilt.streams) == len(snapshot.streams)
        for got, expected in zip(rebuilt.streams, snapshot.streams):
            assert got.stream_id == expected.stream_id
            assert got.step_count == expected.step_count
            assert got.last_tick == expected.last_tick
            assert got.monitor == expected.monitor
            assert got.outcomes.tobytes() == expected.outcomes.tobytes()
            assert got.uncertainties.tobytes() == expected.uncertainties.tobytes()

    def test_snapshot_travels_through_reply_codec(
        self, synthetic_stack, series_maker
    ):
        snapshot = self.make_snapshot(synthetic_stack, series_maker)
        (status, rebuilt), _, _ = decode_reply(
            encode_reply("snapshot", ("ok", snapshot)).join(), "snapshot"
        )
        assert status == "ok"
        assert rebuilt.n_streams == snapshot.n_streams
        assert [s.stream_id for s in rebuilt.streams] == [
            s.stream_id for s in snapshot.streams
        ]

    def test_from_wire_validates_version_and_lengths(
        self, synthetic_stack, series_maker
    ):
        snapshot = self.make_snapshot(synthetic_stack, series_maker)
        meta, arrays = snapshot.to_wire()
        bad_meta = dict(meta, version=meta["version"] + 1)
        with pytest.raises(ValidationError, match="format version"):
            RegistrySnapshot.from_wire(bad_meta, arrays)
        bad_arrays = dict(arrays, lengths=arrays["lengths"][:-1])
        with pytest.raises(ValidationError, match="buffer lengths"):
            RegistrySnapshot.from_wire(meta, bad_arrays)
        with pytest.raises(ValidationError, match="snapshot"):
            RegistrySnapshot.from_wire({"format": "something-else"}, arrays)
