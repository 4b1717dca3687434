"""Binary container for compressed payloads (.rpim files).

Layout, all integers little-endian:

    "RPIM"  magic
    0x01    version
    kind    0x00 raw byte stream / 0x01 image
    kind == image: width u32, height u32, channels u8, mode u8
    kind == raw:   original_length varint
    rule count varint, then per rule: left varint, right varint
    sequence length varint, then one varint per symbol

Varints are unsigned LEB128 and must be minimally encoded; the
deserializer rejects anything else so that serialize and deserialize are
exact inverses on the accepted domain.

The fixed header is read field by field; the rest is encoded and decoded
as whole numpy arrays, and validated by array comparisons.  That accepts
exactly what a varint-by-varint reader accepts, raises the error class of
the first fault such a reader would meet, and decodes only the varints
present, so a forged count cannot make it allocate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptContainerError,
    MalformedGrammarError,
    OutputTooLargeError,
    UnrecognizedContainerError,
)
from .image import LinearizationMode
from .repair import NONTERMINAL_BASE, Grammar, expanded_length

MAGIC = b"RPIM"
VERSION = 1

_KIND_RAW = 0
_KIND_IMAGE = 1

# Symbols live in a 32-bit value space; length fields get the full 64 bits.
_SYMBOL_LIMIT = 1 << 32
_LENGTH_LIMIT = 1 << 64

# deserialize's default cap on the declared expanded length: 1 GiB
MAX_OUTPUT = 1 << 30


@dataclass(frozen=True)
class RawPayload:
    """Opaque byte-stream payload: only the expanded length is recorded."""

    original_length: int


@dataclass(frozen=True)
class ImagePayload:
    """Image payload: geometry plus the linearization used on the samples."""

    width: int
    height: int
    channels: int
    mode: LinearizationMode

    @property
    def sample_count(self) -> int:
        return self.width * self.height * self.channels


@dataclass(eq=False)
class CompressedArtifact:
    """A payload header, a grammar and its final sequence, held as an
    int64 array."""

    payload: RawPayload | ImagePayload
    grammar: Grammar
    sequence: np.ndarray

    def __post_init__(self) -> None:
        self.sequence = np.asarray(self.sequence, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedArtifact):
            return NotImplemented
        return (self.payload == other.payload and self.grammar == other.grammar
                and np.array_equal(self.sequence, other.sequence))

    @property
    def expanded_length(self) -> int:
        if isinstance(self.payload, RawPayload):
            return self.payload.original_length
        return self.payload.sample_count


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, pos: int, limit: int = _LENGTH_LIMIT) -> tuple[int, int]:
    """Decode one varint at pos, returning (value, next position)."""
    value = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise CorruptContainerError(f"truncated varint at offset {start}")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # forbid non-minimal encodings such as 0x80 0x00
            if byte == 0 and pos - start > 1:
                raise CorruptContainerError(f"non-minimal varint at offset {start}")
            break
        shift += 7
        if shift >= 64:
            raise CorruptContainerError(f"varint overflow at offset {start}")
    if value >= limit:
        raise CorruptContainerError(f"varint out of range at offset {start}")
    return value, pos


def _encode_varints(values: np.ndarray) -> bytes:
    """Concatenated minimal varints of a uint64 array, as write_varint
    would emit them one at a time."""
    widths = np.ones(values.size, dtype=np.int64)
    for k in range(1, 10):
        wider = values >= np.uint64(1 << (7 * k))
        if not wider.any():
            break
        widths += wider
    starts = np.cumsum(widths) - widths
    out = np.empty(int(widths.sum()), dtype=np.uint8)
    # byte k of every varint at least k + 1 bytes wide, in one assignment
    for k in range(int(widths.max(initial=0))):
        has = np.flatnonzero(widths > k) if k else slice(None)
        group = (values[has] >> np.uint64(7 * k)).astype(np.uint8) & 0x7F
        group[widths[has] > k + 1] |= 0x80
        out[starts[has] + k] = group
    return out.tobytes()


def _decode_varints(body: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every complete varint in a uint8 array, as (values, ends, valid):
    the uint64 values, the offset of each one's last byte, and whether
    read_varint would accept it (minimal, at most 10 bytes, below 2**64).
    """
    ends = np.flatnonzero(body < 0x80)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    values = np.zeros(ends.size, dtype=np.uint64)
    # shift-or byte k of every varint at least k + 1 bytes wide; varints
    # over 10 bytes are invalid, so their later bytes are not needed
    for k in range(min(int(widths.max(initial=0)), 10)):
        has = np.flatnonzero(widths > k) if k else slice(None)
        group = (body[starts[has] + k] & 0x7F).astype(np.uint64)
        values[has] |= group << np.uint64(7 * k)
    last = body[ends]
    valid = (((last != 0) | (widths == 1))
             & ((widths < 10) | ((widths == 10) & (last == 1))))
    return values, ends, valid


def serialize(artifact: CompressedArtifact) -> bytes:
    out = bytearray(MAGIC)
    out.append(VERSION)
    payload = artifact.payload
    if isinstance(payload, ImagePayload):
        out.append(_KIND_IMAGE)
        out += struct.pack(
            "<IIBB", payload.width, payload.height, payload.channels, int(payload.mode)
        )
    else:
        out.append(_KIND_RAW)
        write_varint(out, payload.original_length)
    grammar = artifact.grammar
    sequence = np.asarray(artifact.sequence, dtype=np.int64)
    seq_at = 2 * len(grammar) + 1
    body = np.empty(seq_at + 1 + sequence.size, np.int64)
    body[0] = len(grammar)
    body[1:seq_at:2] = grammar.left
    body[2:seq_at:2] = grammar.right
    body[seq_at] = sequence.size
    body[seq_at + 1:] = sequence
    if body.min() < 0:
        raise ValueError("varints are unsigned")
    out += _encode_varints(body.view(np.uint64))
    return bytes(out)


def deserialize(data: bytes, max_output: float = MAX_OUTPUT) -> CompressedArtifact:
    """Parse and fully validate a container.

    Raises UnrecognizedContainerError for foreign data, CorruptContainerError
    for structural damage, MalformedGrammarError for bad rule topology, and
    OutputTooLargeError, before decoding the body, when the payload header
    declares more than max_output expanded bytes (math.inf: no limit).
    """
    if len(data) < 5 or data[:4] != MAGIC:
        raise UnrecognizedContainerError("bad magic: not an RPIM container")
    if data[4] != VERSION:
        raise UnrecognizedContainerError(f"unsupported version {data[4]}")
    if len(data) < 6:
        raise CorruptContainerError("container ends before kind byte")
    kind = data[5]
    pos = 6

    payload: RawPayload | ImagePayload
    if kind == _KIND_IMAGE:
        if len(data) < pos + 10:
            raise CorruptContainerError("truncated image header")
        width, height, channels, mode_byte = struct.unpack_from("<IIBB", data, pos)
        pos += 10
        if width == 0 or height == 0:
            raise CorruptContainerError("image dimensions must be positive")
        if channels not in (1, 3):
            raise CorruptContainerError(f"unsupported channel count {channels}")
        try:
            mode = LinearizationMode(mode_byte)
        except ValueError:
            raise CorruptContainerError(f"unknown linearization mode {mode_byte}") from None
        payload = ImagePayload(width, height, channels, mode)
        declared = payload.sample_count
    elif kind == _KIND_RAW:
        declared, pos = read_varint(data, pos)
        payload = RawPayload(declared)
    else:
        raise CorruptContainerError(f"unknown payload kind {kind}")
    if declared > max_output:
        raise OutputTooLargeError(
            f"container expands to {declared} bytes, over the limit of {max_output}")

    # body: rule count, 2 * rule count rule sides, sequence length, symbols
    body = np.frombuffer(data, dtype=np.uint8, offset=pos)
    values, ends, valid = _decode_varints(body)
    present = values.size
    rule_count = int(values[0]) if present else 0
    seq_at = 2 * rule_count + 1
    wanted = seq_at + 1 + (int(values[seq_at]) if seq_at < present else 0)
    values = values[:wanted]
    checked = values.size

    # per-field limits: rule count, rule sides and symbols; the sequence
    # length is any 64-bit value
    corrupt = ~valid[:checked] | (values >= _SYMBOL_LIMIT)
    corrupt[:1] = ~valid[:1] | (rule_count >= _SYMBOL_LIMIT - NONTERMINAL_BASE)
    corrupt[seq_at:seq_at + 1] = ~valid[seq_at:seq_at + 1]
    malformed = np.zeros(checked, dtype=bool)
    sides = values[1:seq_at]
    pairs = sides[:sides.size & ~1].reshape(-1, 2)
    # rule k's prefix check happens once its right side (index 2k + 2) is read
    malformed[2:2 + pairs.size:2] = (
        pairs.max(axis=1) >= NONTERMINAL_BASE + np.arange(len(pairs)))
    malformed[seq_at + 1:] = values[seq_at + 1:] >= NONTERMINAL_BASE + rule_count

    # raise for the fault a sequential reader would meet first: faults in
    # stream order, and a bad varint before the grammar check that reads it
    faults = [2 * int(i) for i in np.flatnonzero(corrupt)[:1]]
    faults += [2 * int(i) + 1 for i in np.flatnonzero(malformed)[:1]]
    if wanted > present:
        faults.append(2 * present)
    if faults:
        at, grammar_fault = divmod(min(faults), 2)
        if not grammar_fault:
            offset = pos + (int(ends[at - 1]) + 1 if at else 0)
            raise CorruptContainerError(
                f"truncated, non-minimal or out-of-range varint at offset {offset}")
        if at < seq_at:
            raise MalformedGrammarError(
                f"rule {at // 2 - 1} references symbol outside its prefix")
        raise MalformedGrammarError(f"sequence symbol {values[at]} is undefined")
    trailing = body.size - int(ends[wanted - 1]) - 1
    if trailing:
        raise CorruptContainerError(f"{trailing} trailing bytes after sequence")

    # every rule side and symbol is now below 2**32, so int64 holds it
    grammar = Grammar.from_arrays(pairs[:, 0].astype(np.int64),
                                  pairs[:, 1].astype(np.int64))
    symbols = values[seq_at + 1:].astype(np.int64)
    if expanded_length(grammar, symbols, declared) != declared:
        raise CorruptContainerError("expanded length does not match payload header")
    return CompressedArtifact(payload, grammar, symbols)
