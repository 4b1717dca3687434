"""Wire format tests: exact bytes, strict validation, fuzzing."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpim import _kernel
from rpim.cli import main
from rpim.container import (
    CompressedArtifact,
    ImagePayload,
    RawPayload,
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
from rpim.image import (
    LinearizationMode,
    PixelBuffer,
    delinearize,
    encode_bmp,
    linearize,
)
from rpim.repair import Grammar, Rule, compress, expand

from conftest import BOMB


VARINT_EDGES = [0, 127, 128, 2**32 - 1, 2**63, 2**64 - 1]


def varint(value: int) -> bytes:
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def sequential_deserialize(data: bytes) -> CompressedArtifact:
    """A varint-by-varint reader written apart from rpim's, the reference
    for which containers are accepted and which error class the first
    fault raises."""
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


def c_read_varint(blob: bytes, start: int):
    """read_varint through rpim_decode_body: blob[start:], which holds at
    most one varint, as the sequence length of a body with no rules, the
    field that takes any 64-bit value.  Returns (value, next position),
    or the message of the CorruptContainerError the decoder's status
    stands for."""
    body = np.frombuffer(b"\x00" + blob[start:], dtype=np.uint8)
    out = np.empty(body.size, np.int64)
    lengths = np.empty(256 + body.size // 2, np.uint64)
    info = np.zeros(5, np.int64)
    status = _kernel.load().rpim_decode_body(body, body.size, out, out.size,
                                             2**64 - 1, lengths, info)
    if status == 0 or status == _kernel.TRUNCATED and info[2] > 1:
        # read; it is the whole body, or its count of symbols is missing
        return int(info.view(np.uint64)[1]), start + int(info[2]) - 1
    assert info[2] == 1, (status, info)
    return str(_kernel.fault(status, start))


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
        # the C encoder takes int64 values, so the symbols of a body get
        # those below 2**63; the decoder reads every value back through
        # the sequence length, which takes all 64 bits
        symbols = [v for v in values if v < 2**63]
        body = varint(0) + varint(len(symbols)) + b"".join(map(varint, symbols))
        no_rules = np.zeros((0, 2), np.int64)
        assert _kernel.encode_body(b"RPIM", no_rules,
                                   np.array(symbols, np.int64)) == b"RPIM" + body
        encoded = b"".join(varint(v) for v in values)
        pos = 0
        for value in values:
            expected = read_varint(encoded, pos)
            assert expected[0] == value
            assert c_read_varint(encoded[:expected[1]], pos) == expected
            pos = expected[1]

    @given(st.lists(st.sampled_from([0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF])
                    | st.integers(0, 255), max_size=48).map(bytes))
    @example(b"\xff" * 9 + b"\x01")  # 2**64 - 1, the largest valid
    @example(b"\x80" * 9 + b"\x02")  # 2**64, which wraps to 0 in 64 bits
    @example(b"\x80" * 10 + b"\x01")  # 11 bytes
    @settings(max_examples=300, deadline=None)
    def test_array_decoder_judges_like_read_varint(self, blob):
        # every complete varint, and an unfinished tail: the C decoder
        # accepts it exactly when read_varint does, with the same value
        # and width, and otherwise words the fault the same way
        ends = [i + 1 for i, b in enumerate(blob) if b < 0x80]
        if not ends or ends[-1] < len(blob):
            ends.append(len(blob))
        start = 0
        for end in ends:
            try:
                expected = read_varint(blob[:end], start)
            except CorruptContainerError as exc:
                expected = str(exc)
            assert c_read_varint(blob[:end], start) == expected, blob[start:end]
            start = end


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
        # both hand over read-only arrays, so the artifact copies neither
        assert artifact.sequence is final
        assert back.sequence.base is back.grammar.left.base is not None

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

    @pytest.mark.parametrize("sequence, error", [
        ([97.9], ValueError),
        ([[97, 98]], ValueError),
        ([2**70], MalformedGrammarError),
        (np.array([2**63], np.uint64), MalformedGrammarError)])
    def test_sequence_checked_like_expand(self, sequence, error):
        """The sequence is refused when built, as expand refuses it: no
        float is truncated, no shape flattened, no value wrapped."""
        with pytest.raises(error):
            CompressedArtifact(RawPayload(1), Grammar(), sequence)

    def test_fields_cannot_be_reassigned(self):
        """A built artifact stays as it was checked, so serialize never
        truncates a float assigned afterwards, nor writes a value the
        caller stored into the sequence it passed."""
        sequence = np.array([97])
        artifact = CompressedArtifact(RawPayload(1), Grammar(), sequence)
        for field, value in [("sequence", [97.9]), ("grammar", None),
                             ("payload", RawPayload(2))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(artifact, field, value)
        sequence[0] = 98
        with pytest.raises(ValueError, match="read-only"):
            artifact.sequence[0] = 98
        assert serialize(artifact) == b"RPIM\x01\x00\x01\x00\x01a"

    @pytest.mark.parametrize("payload, grammar", [
        (None, Grammar()), (1, Grammar()), (RawPayload, Grammar()),
        (RawPayload(1), None), (RawPayload(1), [(97, 98)])])
    def test_payload_and_grammar_kinds_checked(self, payload, grammar):
        with pytest.raises(ValueError):
            CompressedArtifact(payload, grammar, [97])

    @pytest.mark.parametrize("payload", [
        ImagePayload(0, 1, 3, LinearizationMode.ZIGZAG),
        ImagePayload(1, 0, 3, LinearizationMode.ZIGZAG),
        ImagePayload(2**32, 1, 3, LinearizationMode.ZIGZAG),
        ImagePayload(-1, 1, 3, LinearizationMode.ZIGZAG),
        ImagePayload(2.0, 1, 3, LinearizationMode.ZIGZAG),
        ImagePayload(1, 1, 2, LinearizationMode.ZIGZAG),
        ImagePayload(1, 1, 300, LinearizationMode.ZIGZAG),
        ImagePayload(1, 1, 3.0, LinearizationMode.ZIGZAG),
        ImagePayload(1, 1, 3, 7),
        ImagePayload(2**32 - 1, 2**32 - 1, 3, LinearizationMode.ZIGZAG),
        ImagePayload(np.uint32(2**32 - 1), np.uint32(2**32 - 1), 3,
                     LinearizationMode.ZIGZAG),
        RawPayload(2**64), RawPayload(-1), RawPayload(1.5)],
        ids=["width 0", "height 0", "width 2**32", "width -1", "float width",
             "2 channels", "300 channels", "float channels", "mode 7",
             "2**64 samples", "uint32 sides", "raw 2**64", "raw -1",
             "raw float"])
    def test_headers_deserialize_refuses_are_refused(self, payload):
        """serialize writes no header deserialize refuses, and raises
        no struct.error: the artifact refuses such a payload when built."""
        with pytest.raises(ValueError):
            CompressedArtifact(payload, Grammar(), [])


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
        with pytest.raises(CorruptContainerError,
                           match="^2 trailing bytes after sequence$"):
            deserialize(serialize(EMPTY_RAW) + b"\x00\x00")
        # a body fault's offset counts from the container's first byte
        with pytest.raises(CorruptContainerError,
                           match="^truncated varint at offset 8$"):
            deserialize(serialize(EMPTY_RAW)[:-1])

    def test_forward_rule_reference_rejected(self):
        # rule 0 may only reference terminals; encode R256 -> (256, 0)
        blob = b"RPIM\x01\x00\x00" + b"\x01" + \
            varint(256) + varint(0) + b"\x00"
        with pytest.raises(MalformedGrammarError):
            deserialize(blob)

    def test_forward_reference_worded_as_expand_words_it(self):
        grammar = Grammar([(256, 97)])
        blob = serialize(CompressedArtifact(RawPayload(2), grammar, [256]))
        with pytest.raises(MalformedGrammarError) as by_deserialize:
            deserialize(blob)
        with pytest.raises(MalformedGrammarError) as by_expand:
            expand(grammar, [256])
        assert str(by_deserialize.value) == str(by_expand.value) \
            == "rule 0 references symbol outside [0, 256)"

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
    # the C decoder accepts what a sequential reader accepts and raises
    # the class of the fault that reader meets first
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
        got = outcome(deserialize, bytes(blob), max_output=1 << 70)
        assert got == expected
        seen.add(expected if isinstance(expected, type) else "accepted")
    assert {CorruptContainerError, MalformedGrammarError} <= seen


def test_forged_counts_allocate_by_the_data():
    """Bodies declaring 2**60 symbols, or the most rules allowed, in a few
    bytes are refused with allocations sized by the data."""
    blobs = [SINGLE_FAULTS["forged_sequence_length"][0],
             b"RPIM\x01\x00" + varint(8) + varint(2**32 - 257) + b"ab"]
    for blob in blobs:
        tracemalloc.start()
        try:
            with pytest.raises(CorruptContainerError):
                deserialize(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (blob, peak)


def test_decompression_bomb_rejected_before_the_body():
    assert len(BOMB) == 174
    start = time.perf_counter()
    with pytest.raises(OutputTooLargeError):
        deserialize(BOMB)
    assert time.perf_counter() - start < 0.5
    assert deserialize(BOMB, max_output=1 << 40).expanded_length == 1 << 40
    with pytest.raises(OutputTooLargeError):
        deserialize(BOMB, max_output=(1 << 40) - 1)


def doubling_chain(count):
    """count rules: rule 0 is (97, 97) and rule k + 1 doubles rule k, so
    rule k stands for 2**(k + 1) bytes."""
    return Grammar([Rule(97, 97)]
                   + [Rule(256 + k, 256 + k) for k in range(count - 1)])


# 1 + 2 + ... + 2**63 = 2**64 - 1: (declared, sequence, accepted) over
# the 63-rule chain, whose rules are 256..318
DECLARED_EXACTNESS = {
    "2**64-1": (2**64 - 1, [97, *range(256, 319)], True),
    "2**63": (2**63, [318], True),
    "2**64-2": (2**64 - 2, [97, *range(256, 319)], False),
    # the sum falls short of the declared length
    "2**64-1 over 2**63": (2**64 - 1, [318], False),
    # rule 318 alone is past the declared length
    "2**63-1": (2**63 - 1, [318], False),
    "2**63+1": (2**63 + 1, [318, 97], True),
    "0": (0, [], True),
    "0 over a byte": (0, [97], False),
}


@pytest.mark.parametrize("engine", ["c"])
@pytest.mark.parametrize("case", DECLARED_EXACTNESS)
def test_declared_length_check_is_exact(case, engine):
    """The expanded-length check in the C engine's measure routine, which
    the decoder calls, compares exact lengths up to 2**64 - 1."""
    declared, sequence, accepted = DECLARED_EXACTNESS[case]
    blob = serialize(CompressedArtifact(
        RawPayload(declared), doubling_chain(63), sequence))
    if accepted:
        assert deserialize(blob, max_output=math.inf).expanded_length == declared
    else:
        with pytest.raises(CorruptContainerError) as caught:
            deserialize(blob, max_output=math.inf)
        assert type(caught.value) is CorruptContainerError


def test_declared_length_past_64_bits():
    """An image header can declare more than 2**64 - 1 samples, which
    compress never writes: it is rejected as corrupt even when the grammar
    expands to exactly that many, and on the default limit it is too
    large first."""
    width = height = 2**32 - 1
    declared = width * height * 3
    assert declared >= 2**64
    bits = [b for b in range(declared.bit_length()) if declared >> b & 1]
    sequence = [97 if b == 0 else 255 + b for b in reversed(bits)]
    chain = doubling_chain(declared.bit_length() - 1)
    assert bits[0] == 0
    # serialize refuses such a header, so one written by hand goes before
    # the body of a raw container, whose header is 7 bytes when it
    # declares 0
    header = b"RPIM\x01\x01" + struct.pack("<IIBB", width, height, 3,
                                            LinearizationMode.ROW_MAJOR)
    exact, short = (header + serialize(CompressedArtifact(
        RawPayload(0), chain, seq))[7:] for seq in (sequence, sequence[:-1]))
    for blob in (exact, short):
        with pytest.raises(CorruptContainerError) as caught:
            deserialize(blob, max_output=math.inf)
        assert type(caught.value) is CorruptContainerError
        with pytest.raises(OutputTooLargeError):
            deserialize(blob)


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
    blob = serialize(artifact)
    assert deserialize(blob) == artifact
    # the C encoder writes one minimal varint per value, in order
    header = serialize(CompressedArtifact(payload, Grammar(), []))[:-2]
    values = [len(grammar), *itertools.chain(*grammar.rules), len(final),
              *final.tolist()]
    assert blob == header + b"".join(map(varint, values))


# v1 containers written before the image layer held its bytes in their
# own order, and the sha256 of what `rpim decompress` wrote for each:
# a 13x7 RGB image, odd-width, with one padding byte per BMP row, by
# `rpim compress --mode` in each order; an 11x5 one-channel image
# payload in zigzag order, which comes out as grey BMP pixels; and 343
# bytes by `rpim compress --raw`
PINNED = {
    "rgb-13x7-row.rpim":
        "339bc570148024250787d5315fb7b8209fe39926d04fa1ef6aac5eadf819d8d2",
    "rgb-13x7-zigzag.rpim":
        "339bc570148024250787d5315fb7b8209fe39926d04fa1ef6aac5eadf819d8d2",
    "rgb-13x7-split-row.rpim":
        "339bc570148024250787d5315fb7b8209fe39926d04fa1ef6aac5eadf819d8d2",
    "rgb-13x7-split-zigzag.rpim":
        "339bc570148024250787d5315fb7b8209fe39926d04fa1ef6aac5eadf819d8d2",
    "gray-11x5-zigzag.rpim":
        "ef68a5b5c30371c8f67d804d511b7144ae54f7751e1d7fc19e290cc1e6e6e106",
    "raw-343.rpim":
        "587b42ca5a9ccecb3204623d43e466c75876a5e0e4ddbe5fa4c86ed7cd2c3fed",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_v1_containers_decompress_unchanged(name, tmp_path):
    """Each pinned container decompresses, through the CLI and through
    the API, to the very bytes it did when it was written."""
    path = Path(__file__).parent / "data" / "v1" / name
    out = tmp_path / "out"
    assert main(["decompress", str(path), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[name]
    artifact = deserialize(path.read_bytes())
    data = expand(artifact.grammar, artifact.sequence)
    payload = artifact.payload
    if not isinstance(payload, RawPayload):
        data = encode_bmp(delinearize(data, payload.mode, payload.width,
                                      payload.height, payload.channels))
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


# sha256 over the containers of the corpus runs, every bench-corpus image
# in every mode, in the corpus_runs fixture's order.  A grammar, a final
# sequence or a container layout that moves changes it, so it is re-pinned
# only with a deliberate change to one of them
CORPUS_CONTAINERS_SHA256 = \
    "8c87c77aa78cd47079f164ecc5166b9ddfe0f9290ea93241f449eb3b74159d09"


def test_corpus_containers_unchanged(corpus_runs):
    """The 20 corpus containers are byte for byte those pinned."""
    assert len(corpus_runs) == 20
    digest = hashlib.sha256(b"".join(run.blob for run in corpus_runs))
    assert digest.hexdigest() == CORPUS_CONTAINERS_SHA256
