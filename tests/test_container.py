"""Wire format tests: exact bytes, strict validation, fuzzing."""

from __future__ import annotations

import random
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpim.container import (
    CompressedArtifact,
    ImagePayload,
    RawPayload,
    _decode_varints,
    _encode_varints,
    deserialize,
    read_varint,
    serialize,
    write_varint,
)
from rpim.errors import (
    CorruptContainerError,
    MalformedGrammarError,
    OutputTooLargeError,
    RpimError,
    UnrecognizedContainerError,
)
from rpim.image import LinearizationMode, linearize, PixelBuffer
from rpim.repair import Grammar, Rule, compress, expand

from conftest import BOMB


VARINT_EDGES = [0, 127, 128, 2**32 - 1, 2**63, 2**64 - 1]


def varint(value: int) -> bytes:
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def sequential_deserialize(data: bytes) -> CompressedArtifact:
    """The varint-by-varint reader the array decoder replaced, kept as the
    reference for which containers are accepted and which error class the
    first fault raises."""
    if len(data) < 5 or data[:4] != b"RPIM":
        raise UnrecognizedContainerError("bad magic")
    if data[4] != 1:
        raise UnrecognizedContainerError("version")
    if len(data) < 6:
        raise CorruptContainerError("kind")
    pos = 6
    if data[5] == 1:
        if len(data) < pos + 10:
            raise CorruptContainerError("image header")
        width, height, channels, mode_byte = struct.unpack_from("<IIBB", data, pos)
        pos += 10
        if width == 0 or height == 0 or channels not in (1, 3):
            raise CorruptContainerError("geometry")
        try:
            mode = LinearizationMode(mode_byte)
        except ValueError:
            raise CorruptContainerError("mode") from None
        payload = ImagePayload(width, height, channels, mode)
        declared = payload.sample_count
    elif data[5] == 0:
        declared, pos = read_varint(data, pos)
        payload = RawPayload(declared)
    else:
        raise CorruptContainerError("kind")
    rule_count, pos = read_varint(data, pos, limit=2**32 - 256)
    rules = []
    lengths = []
    for ordinal in range(rule_count):
        left, pos = read_varint(data, pos, limit=2**32)
        right, pos = read_varint(data, pos, limit=2**32)
        if left >= 256 + ordinal or right >= 256 + ordinal:
            raise MalformedGrammarError("prefix")
        rules.append(Rule(left, right))
        lengths.append(min(declared + 1, sum(
            lengths[s - 256] if s >= 256 else 1 for s in (left, right))))
    seq_len, pos = read_varint(data, pos)
    sequence = []
    total = 0
    for _ in range(seq_len):
        sym, pos = read_varint(data, pos, limit=2**32)
        if sym >= 256 + rule_count:
            raise MalformedGrammarError("undefined")
        sequence.append(sym)
        total += lengths[sym - 256] if sym >= 256 else 1
    if pos != len(data):
        raise CorruptContainerError("trailing")
    if total != declared:
        raise CorruptContainerError("length")
    return CompressedArtifact(payload, Grammar(rules), sequence)


def outcome(decoder, blob: bytes, **kwargs):
    try:
        return decoder(blob, **kwargs)
    except RpimError as exc:
        return type(exc)


class TestVarint:
    def test_single_byte_values(self):
        assert varint(0) == b"\x00"
        assert varint(127) == b"\x7f"

    def test_multi_byte(self):
        assert varint(128) == b"\x80\x01"
        assert varint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint(-1)

    def test_truncated(self):
        with pytest.raises(CorruptContainerError):
            read_varint(b"\x80", 0)

    def test_non_minimal_rejected(self):
        # 0x80 0x00 decodes to 0 but wastes a byte; the format forbids it
        with pytest.raises(CorruptContainerError):
            read_varint(b"\x80\x00", 0)

    def test_limit_enforced(self):
        with pytest.raises(CorruptContainerError):
            read_varint(varint(300), 0, limit=255)

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        encoded = varint(value)
        decoded, pos = read_varint(encoded, 0)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.lists(st.sampled_from(VARINT_EDGES) | st.integers(0, 2**64 - 1),
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_array_codec_matches_one_at_a_time(self, values):
        encoded = b"".join(varint(v) for v in values)
        assert _encode_varints(np.array(values, dtype=np.uint64)) == encoded
        sequential = []
        ends = []
        pos = 0
        while pos < len(encoded):
            value, pos = read_varint(encoded, pos)
            sequential.append(value)
            ends.append(pos - 1)
        decoded, decoded_ends, valid = _decode_varints(
            np.frombuffer(encoded, dtype=np.uint8))
        assert decoded.tolist() == sequential == values
        assert decoded_ends.tolist() == ends
        assert valid.all()

    @given(st.lists(st.sampled_from([0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF])
                    | st.integers(0, 255), max_size=48).map(bytes))
    @example(b"\xff" * 9 + b"\x01")  # 2**64 - 1, the largest valid
    @example(b"\x80" * 9 + b"\x02")  # 2**64, which wraps to 0 in 64 bits
    @example(b"\x80" * 10 + b"\x01")  # 11 bytes
    @settings(max_examples=300, deadline=None)
    def test_array_decoder_judges_like_read_varint(self, blob):
        # every complete varint: valid exactly when read_varint accepts it,
        # with the same value; bytes after the last one are left alone
        values, ends, valid = _decode_varints(np.frombuffer(blob, dtype=np.uint8))
        start = 0
        for value, end, ok in zip(values.tolist(), ends.tolist(), valid.tolist()):
            try:
                expected = read_varint(blob[:end + 1], start)
            except CorruptContainerError:
                expected = None
            assert ok == (expected is not None), blob[start:end + 1]
            if ok:
                assert expected == (value, end + 1)
            start = end + 1
        assert all(b & 0x80 for b in blob[start:])


EMPTY_RAW = CompressedArtifact(RawPayload(0), Grammar(), [])


class TestSerialize:
    def test_empty_raw_exact_bytes(self):
        assert serialize(EMPTY_RAW) == \
            bytes([0x52, 0x50, 0x49, 0x4D, 0x01, 0x00, 0x00, 0x00, 0x00])

    def test_raw_round_trip(self):
        data = b"abracadabra" * 20
        grammar, final = compress(data)
        artifact = CompressedArtifact(RawPayload(len(data)), grammar, final)
        back = deserialize(serialize(artifact))
        assert back == artifact
        assert bytes(expand(back.grammar, back.sequence)) == data

    def test_image_round_trip(self):
        buf = PixelBuffer(5, 4, 3, bytes(range(60)))
        mode = LinearizationMode.CHANNEL_SPLIT_ZIGZAG
        grammar, final = compress(linearize(buf, mode))
        artifact = CompressedArtifact(
            ImagePayload(5, 4, 3, mode), grammar, final)
        assert deserialize(serialize(artifact)) == artifact

    def test_image_header_layout(self):
        artifact = CompressedArtifact(
            ImagePayload(3, 2, 1, LinearizationMode.ZIGZAG),
            Grammar(), [0] * 6)
        blob = serialize(artifact)
        assert blob[:6] == b"RPIM\x01\x01"
        assert blob[6:10] == (3).to_bytes(4, "little")
        assert blob[10:14] == (2).to_bytes(4, "little")
        assert blob[14] == 1  # channels
        assert blob[15] == 1  # mode byte: zigzag


class TestDeserialize:
    def test_bad_magic(self):
        with pytest.raises(UnrecognizedContainerError):
            deserialize(b"XXXX\x01\x00\x00\x00\x00")

    def test_bad_version(self):
        with pytest.raises(UnrecognizedContainerError):
            deserialize(b"RPIM\x02\x00\x00\x00\x00")

    def test_bad_kind(self):
        with pytest.raises(CorruptContainerError):
            deserialize(b"RPIM\x01\x07\x00\x00\x00")

    def test_bad_mode_byte(self):
        blob = bytearray(serialize(CompressedArtifact(
            ImagePayload(1, 1, 3, LinearizationMode.ROW_MAJOR),
            Grammar(), [0, 0, 0])))
        blob[15] = 9
        with pytest.raises(CorruptContainerError):
            deserialize(bytes(blob))

    def test_empty_input(self):
        with pytest.raises(UnrecognizedContainerError):
            deserialize(b"")

    def test_every_truncation_is_typed(self):
        data = b"banana band annals"
        grammar, final = compress(data)
        blob = serialize(
            CompressedArtifact(RawPayload(len(data)), grammar, final))
        for cut in range(len(blob)):
            with pytest.raises(RpimError):
                deserialize(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CorruptContainerError):
            deserialize(serialize(EMPTY_RAW) + b"\x00")

    def test_forward_rule_reference_rejected(self):
        # rule 0 may only reference terminals; encode R256 -> (256, 0)
        blob = b"RPIM\x01\x00\x00" + b"\x01" + \
            varint(256) + varint(0) + b"\x00"
        with pytest.raises(MalformedGrammarError):
            deserialize(blob)

    def test_undefined_sequence_symbol_rejected(self):
        blob = b"RPIM\x01\x00\x01" + b"\x00" + b"\x01" + varint(256)
        with pytest.raises(MalformedGrammarError):
            deserialize(blob)

    def test_expanded_length_mismatch_rejected(self):
        # header claims 5 original bytes but the sequence expands to 2
        blob = b"RPIM\x01\x00" + varint(5) + b"\x00" + \
            b"\x02" + varint(7) + varint(7)
        with pytest.raises(CorruptContainerError):
            deserialize(blob)

    def test_fuzz_mutations_never_crash(self):
        rng = random.Random(0xC0FFEE)
        data = bytes(rng.randrange(256) for _ in range(400))
        grammar, final = compress(data)
        base = serialize(
            CompressedArtifact(RawPayload(len(data)), grammar, final))
        for _ in range(2000):
            blob = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            if rng.random() < 0.3:
                blob = blob[:rng.randrange(len(blob))]
            try:
                deserialize(bytes(blob))
            except (UnrecognizedContainerError, CorruptContainerError,
                    MalformedGrammarError):
                pass


# one valid container, RawPayload(4) -> "abab": rule 256 = (97, 98), then
# the sequence [256, 256]; each fault below changes exactly one thing
def _abab(length=4, rule=(97, 98), seq=(256, 256), tail=b""):
    return (b"RPIM\x01\x00" + varint(length) + varint(1)
            + b"".join(map(varint, rule)) + varint(len(seq))
            + b"".join(map(varint, seq)) + tail)


SINGLE_FAULTS = {
    "truncated": (_abab()[:-1], CorruptContainerError),
    "non_minimal": (_abab().replace(b"\x61\x62", b"\xe1\x00\x62"),
                    CorruptContainerError),
    "overflow_11_bytes": (_abab(seq=(256,))[:-2] + b"\x80" * 10 + b"\x01",
                          CorruptContainerError),
    "out_of_range_symbol": (_abab(seq=(256, 2**32)), CorruptContainerError),
    "ten_byte_past_2_64": (b"RPIM\x01\x00" + varint(0) + varint(0)
                           + b"\x80" * 9 + b"\x02", CorruptContainerError),
    "forward_rule_reference": (_abab(rule=(256, 98)), MalformedGrammarError),
    # the right side is read, and rejected, before the prefix check runs
    "forward_reference_then_bad_side": (
        _abab(rule=(256, 98)).replace(b"\x62", b"\xe2\x00"),
        CorruptContainerError),
    "undefined_symbol": (_abab(seq=(256, 257)), MalformedGrammarError),
    "trailing_bytes": (_abab(tail=b"\x00"), CorruptContainerError),
    "length_mismatch": (_abab(length=5), CorruptContainerError),
    "forged_sequence_length": (b"RPIM\x01\x00" + varint(8) + varint(0)
                               + varint(2**60) + bytes(8),
                               CorruptContainerError),
}


def test_single_fault_base_is_valid():
    assert deserialize(_abab()) == sequential_deserialize(_abab()) == \
        CompressedArtifact(RawPayload(4), Grammar([Rule(97, 98)]), [256, 256])


@pytest.mark.parametrize("name", SINGLE_FAULTS)
def test_single_fault_raises_same_class(name):
    blob, expected = SINGLE_FAULTS[name]
    assert outcome(sequential_deserialize, blob) is expected
    with pytest.raises(expected) as caught:
        deserialize(blob)
    assert type(caught.value) is expected


def test_faults_rank_like_a_sequential_reader():
    # mutants of containers with 50+ rules, many with several faults:
    # the array decoder accepts the same set and raises the class of the
    # fault a sequential reader meets first
    rng = random.Random(0x5E0)
    data = bytes(rng.choice(b"abcdefgh") for _ in range(600))
    bases = [serialize(CompressedArtifact(RawPayload(len(data)), *compress(data))),
             serialize(CompressedArtifact(
                 ImagePayload(20, 10, 3, LinearizationMode.ZIGZAG),
                 *compress(data)))]
    assert len(compress(data)[0]) > 50
    seen = set()
    for i in range(3000):
        blob = bytearray(bases[i % 2])
        for _ in range(rng.randint(1, 3)):
            blob[rng.randrange(6, len(blob))] = rng.choice(
                [0x00, 0x80, 0xFF, rng.randrange(256)])
        if rng.random() < 0.3:
            blob = blob[:rng.randrange(len(blob))]
        expected = outcome(sequential_deserialize, bytes(blob))
        assert outcome(deserialize, bytes(blob), max_output=1 << 70) == expected
        seen.add(expected if isinstance(expected, type) else "accepted")
    assert {CorruptContainerError, MalformedGrammarError} <= seen


def test_decompression_bomb_rejected_before_the_body():
    assert len(BOMB) == 174
    start = time.perf_counter()
    with pytest.raises(OutputTooLargeError):
        deserialize(BOMB)
    assert time.perf_counter() - start < 0.5
    assert deserialize(BOMB, max_output=1 << 40).expanded_length == 1 << 40
    with pytest.raises(OutputTooLargeError):
        deserialize(BOMB, max_output=(1 << 40) - 1)


@given(st.binary(max_size=600), st.booleans())
@settings(max_examples=100, deadline=None)
def test_serialize_deserialize_identity(data, as_image):
    if as_image:
        width = max(1, len(data))
        buf = PixelBuffer(width, 1, 1, data or b"\x00")
        stream = linearize(buf, LinearizationMode.ROW_MAJOR)
        grammar, final = compress(stream)
        payload = ImagePayload(width, 1, 1, LinearizationMode.ROW_MAJOR)
    else:
        grammar, final = compress(data)
        payload = RawPayload(len(data))
    artifact = CompressedArtifact(payload, grammar, final)
    assert deserialize(serialize(artifact)) == artifact
