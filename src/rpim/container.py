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

The fixed header is read field by field.  The body (rule count, rule
sides, sequence length, symbols) is read and checked varint by varint in
one sequential pass, so the first fault met is the one reported.  Then
the routine that measures expand's output gives the expanded length the
header must match.  The body is written in one pass too.  Both passes
run in the C engine; read_varint and write_varint handle the varint
header field.  The decoder sizes nothing by a declared count: it stores
at most one value per body byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import (
    CorruptContainerError,
    OutputTooLargeError,
    UnrecognizedContainerError,
)
from .image import LinearizationMode
from .repair import Grammar, _readonly, _sequence

MAGIC = b"RPIM"
VERSION = 1

_KIND_RAW = 0
_KIND_IMAGE = 1

# length fields get the full 64 bits
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


@dataclass(eq=False, frozen=True)
class CompressedArtifact:
    """A payload header, a grammar and its final sequence, held as a
    read-only int64 array, copied unless nobody can write through it.
    The fields are checked when it is built and cannot be reassigned: a
    payload that is neither RawPayload nor ImagePayload, or a grammar
    that is not a Grammar, raises ValueError, and the sequence is
    refused as expand refuses it."""

    payload: RawPayload | ImagePayload
    grammar: Grammar
    sequence: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.payload, (RawPayload, ImagePayload)):
            raise ValueError("payload must be a RawPayload or an ImagePayload")
        if not isinstance(self.grammar, Grammar):
            raise ValueError("grammar must be a Grammar")
        object.__setattr__(self, "sequence",
                           _readonly(_sequence(self.sequence)))

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
            raise _kernel.fault(_kernel.TRUNCATED, start)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # forbid non-minimal encodings such as 0x80 0x00
            if byte == 0 and pos - start > 1:
                raise _kernel.fault(_kernel.NON_MINIMAL, start)
            break
        shift += 7
        if shift >= 64:
            raise _kernel.fault(_kernel.OVERFLOW, start)
    if value >= limit:
        raise _kernel.fault(_kernel.OUT_OF_RANGE, start)
    return value, pos


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
    return _kernel.encode_body(bytes(out), artifact.grammar._rules,
                               artifact.sequence)


def deserialize(data: bytes, max_output: float = MAX_OUTPUT) -> CompressedArtifact:
    """Parse and fully validate a container.

    Raises UnrecognizedContainerError for foreign data, CorruptContainerError
    for structural damage or an image header of 2**64 samples or more,
    MalformedGrammarError for bad rule topology, and
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
    if declared >= _LENGTH_LIMIT:
        # width * height * channels can pass 64 bits; compress takes at
        # most 2**31 - 1 symbols, so no such container is ever written
        raise CorruptContainerError(f"image header declares {declared} samples, "
                                    f"past 64 bits")

    rules, symbols, length = _kernel.decode_body(data, pos, declared)
    if length != declared:
        raise CorruptContainerError("expanded length does not match payload header")
    return CompressedArtifact(payload, Grammar(rules), symbols)
