"""Loader for the C engine: compression, expansion, the container body
codec and the pixel layout.

The C source next to this module (_kernel.c) is built with the system C
compiler on first use and loaded through ctypes.  The shared library is
cached per user under $XDG_CACHE_HOME/rpim (else ~/.cache/rpim), keyed
by a hash of the source, the build flags and the platform, so a changed
source never loads a stale build.  A build is written under a temporary
name and moved into place with os.replace, so concurrent processes never
load a half-written library.

The engine is required.  When no compiler is found or the build fails,
load() returns None and every entry point below raises
EngineUnavailableError, whose message names the failure.

A grammar crosses into C as one C-contiguous int64 array of shape
(n, 2), rule k in row k.  fault words every fault the engine reports.

Arrays reach the engine as plain pointers.  Bytes a caller hands in,
the input to compress or a container to decode, are bound with an
ndpointer, which checks their dtype and layout.  Every buffer allocated
here, and every array Grammar or _sequence has already checked, goes as
its bare address, with no check per call; layout checks its own two
arrays, since either may be the one it writes.  Each decompressed
output, expand's, encode_bmp's and linearize's, is a bytes object from
output() that the engine fills in place: it is written once and never
copied.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.ctypeslib import ndpointer

from .errors import (
    CorruptContainerError,
    EngineUnavailableError,
    MalformedGrammarError,
)

COMPILER = "cc"
# -falign-functions=64 starts every function on a cache line, so that an
# edit to one function does not move the others within their lines
CFLAGS = ("-O2", "-shared", "-fPIC", "-falign-functions=64")
SOURCE = Path(__file__).with_name("_kernel.c")

# the engine's statuses for a failed allocation and for a length past the
# caller's limit; its other status, RPIM_EBOUND, is a capacity bound the
# kernel refused to exceed or a broken invariant (a pair count above its
# queue entry's, or born above the count being taken)
_ENOMEM = 1
_ELIMIT = 3
# rpim_decode_body's faults, each the first a sequential reader meets;
# rpim_expand reports BAD_RULE and UNDEFINED too
(TRUNCATED, NON_MINIMAL, OVERFLOW, OUT_OF_RANGE, BAD_RULE, UNDEFINED,
 TRAILING) = range(4, 11)
_VARINT_FAULTS = {
    TRUNCATED: "truncated varint",
    NON_MINIMAL: "non-minimal varint",
    OVERFLOW: "varint overflow",
    OUT_OF_RANGE: "varint out of range",
}

NONTERMINAL_BASE = 256
# the kernel's slot indices and symbols are int32
MAX_SYMBOLS = 2**31 - 1

# the one binding left to ndpointer: bytes a caller hands in, read only
_uint8_input = ndpointer(np.uint8, flags="C_CONTIGUOUS")

# per-process load outcome: the library, or the reason it is unavailable
_lib: ctypes.CDLL | None = None
_error: str | None = None


def _build() -> Path:
    """Path of the cached library, compiling it first if it is missing."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(CFLAGS).encode(),
         sysconfig.get_platform().encode()])).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    target = Path(cache) / "rpim" / f"kernel-{key}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run([COMPILER, *CFLAGS, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load() -> ctypes.CDLL | None:
    """The compiled library, built on first use; None if it cannot be."""
    global _lib, _error
    if _lib is None and _error is None:
        try:
            lib = ctypes.CDLL(str(_build()))
        except subprocess.CalledProcessError as exc:
            _error = f"{COMPILER} failed: {exc.stderr.strip()}"
        except OSError as exc:
            _error = str(exc)
        else:
            ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
            lib.rpim_compress.argtypes = [_uint8_input, i64, i64, ptr, ptr]
            lib.rpim_compress.restype = ctypes.c_int
            lib.rpim_expand.argtypes = [ptr, i64, ptr, i64, u64, ptr, ptr,
                                        ptr]
            lib.rpim_expand.restype = ctypes.c_int
            lib.rpim_release.argtypes = []
            lib.rpim_release.restype = None
            lib.rpim_decode_body.argtypes = [_uint8_input, i64, i64, ptr, i64,
                                             u64, ptr]
            lib.rpim_decode_body.restype = ctypes.c_int
            lib.rpim_encode_body.argtypes = [ptr, i64, ptr, i64, ptr, i64,
                                             ptr]
            lib.rpim_encode_body.restype = ctypes.c_int
            lib.rpim_layout.argtypes = [ptr, i64, i64, i64, i64, ptr, i64,
                                        i64]
            lib.rpim_layout.restype = ctypes.c_int
            _lib = lib
    return _lib


def available() -> bool:
    return load() is not None


def _loaded() -> ctypes.CDLL:
    lib = load()
    if lib is None:
        raise EngineUnavailableError(f"the C engine is unavailable: {_error}")
    return lib


def fault(status: int, where: int = 0, value: int = 0) -> Exception:
    """The exception for a fault the engine reports by status, with
    where and value as it reports them: CorruptContainerError for a
    varint fault at byte offset where or value bytes trailing the
    sequence, MalformedGrammarError for rule where referencing a symbol
    outside its prefix or a symbol of value value undefined, MemoryError
    for a failed allocation, and RuntimeError for any other status, a
    bound the engine refused to pass or an invariant it found broken."""
    if status == _ENOMEM:
        return MemoryError("C engine could not allocate memory")
    if status in _VARINT_FAULTS:
        return CorruptContainerError(
            f"{_VARINT_FAULTS[status]} at offset {where}")
    if status == TRAILING:
        return CorruptContainerError(
            f"{value} trailing bytes after sequence")
    if status == BAD_RULE:
        return MalformedGrammarError(
            f"rule {where} references symbol outside "
            f"[0, {NONTERMINAL_BASE + where})")
    if status == UNDEFINED:
        return MalformedGrammarError(f"sequence symbol {value} is undefined")
    return RuntimeError(f"C engine refused a bound (status {status})")


# CPython allows writing into a bytes object's buffer only "if the object
# was just created using PyBytes_FromStringAndSize(NULL, size)".  output
# is the one place that creates such an object: it writes the head, the
# engine writes every other byte before the object is returned, and the
# object is never handed to C again.  Private prototypes, so that the
# argtypes of ctypes.pythonapi's shared functions stay as they are.
_new_bytes = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p,
                               ctypes.c_ssize_t)(
    ("PyBytes_FromStringAndSize", ctypes.pythonapi))
_bytes_buffer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object)(
    ("PyBytes_AsString", ctypes.pythonapi))


class Output(NamedTuple):
    """A new bytes object, data, for the engine to fill: address and size
    are those of the part of its buffer after its head, left to fill."""

    data: bytes
    address: int
    size: int


def output(size: int, head: bytes = b"") -> Output:
    """A new bytes object of size bytes, head its first len(head), the
    rest for the engine to write.  Raises MemoryError, never
    OverflowError, when no such object can be allocated."""
    try:
        data = _new_bytes(None, size)
    except OverflowError:
        raise MemoryError(f"no bytes object holds {size} bytes") from None
    address = _bytes_buffer(data)
    if head:
        ctypes.memmove(address, head, len(head))
    return Output(data, address + len(head), size - len(head))


def compress_array(symbols: np.ndarray, min_frequency: int):
    """Run the kernel over a uint8 terminal array until no pair reaches
    min_frequency; returns (rules, final), int32 arrays, rule k being the
    pair rules[k] of the (n, 2) rules.

    The input is passed as it is and never mutated; the kernel copies it
    into its int32 working array, the one array allocated here, of one
    value per input symbol.  The kernel leaves the final sequence at its
    front and the rule sides right after it, so rules and final are views
    of that array.  Raises ValueError for more than MAX_SYMBOLS symbols,
    before anything is allocated, EngineUnavailableError when the library
    cannot be built, and, through fault, MemoryError when the kernel's
    allocations fail and RuntimeError when it refuses a capacity bound or
    finds one of its invariants broken: a pair count above its queue
    entry's, or a pair born above the count being taken.
    """
    n = symbols.size
    if n > MAX_SYMBOLS:
        raise ValueError(f"the C engine takes at most {MAX_SYMBOLS} "
                         f"symbols, got {n}")
    lib = _loaded()
    data = np.ascontiguousarray(symbols)
    threshold = min(min_frequency, n + 1)
    sym = np.empty(n, np.int32)
    sizes = (ctypes.c_int64 * 2)()
    status = lib.rpim_compress(data, n, threshold, sym.ctypes.data, sizes)
    if status != 0:
        raise fault(status)
    nrules, length = sizes
    return (sym[length:length + 2 * nrules].reshape(nrules, 2),
            sym[:length])


def release() -> None:
    """Free the slot block the kernel keeps between compress calls, 12
    bytes per symbol of the largest input whose block reached 32 MiB; the
    next such call allocates it again."""
    lib = load()
    if lib is not None:
        lib.rpim_release()


def expand(rules: np.ndarray, symbols: np.ndarray) -> bytes:
    """The expansion, as bytes, of int64 symbols under the grammar of
    int64 (n, 2) rules, both C-contiguous, as Grammar and _sequence
    leave them.

    A first engine call checks the grammar and measures the expansion
    in a work table allocated here; a second writes it into a fresh
    bytes object of exactly that length, which is returned.  The second
    checks everything it reads again, since a caller's symbols may
    change between the two.  Raises MemoryError, before allocating,
    when the expansion is too large for a bytes object, or when it
    cannot be allocated; through fault, MalformedGrammarError naming
    the first rule that references a symbol outside its prefix or the
    first undefined symbol, and RuntimeError should the second call
    meet a symbol or length the first did not measure;
    EngineUnavailableError when the library cannot be built.
    """
    lib = _loaded()
    nrules = len(rules)
    # a length and a source per symbol, and the stack's nrules + 1 entries
    table = np.empty(2 * (NONTERMINAL_BASE + nrules) + nrules + 1,
                     np.uint64)
    at_table = table.ctypes.data
    grammar = (rules.ctypes.data, nrules, symbols.ctypes.data, symbols.size)
    info = (ctypes.c_int64 * 2)()
    status = lib.rpim_expand(*grammar, sys.maxsize, at_table, None, info)
    if status == _ELIMIT:
        raise MemoryError(f"expansion exceeds {sys.maxsize} bytes")
    if status != 0:
        raise fault(status, info[0], info[1])
    out = output(info[0])
    status = lib.rpim_expand(*grammar, out.size, at_table, out.address,
                             info)
    if status != 0:
        raise fault(status)
    return out.data


def decode_body(data, start: int, limit: int):
    """Decode and check the container body at data[start:], then measure
    its expanded length up to limit, which is below 2**64; data is bytes,
    a bytearray or a memoryview, read where it lies.

    Returns (rules, symbols, length): the (n, 2) rules and the symbols,
    int64 read-only views of one buffer of one value per body byte, and
    the expanded length, or None when it exceeds limit.  Raises, through
    fault, the first fault a varint-by-varint reader meets, a varint
    fault at its offset in data, and MemoryError when the engine cannot
    allocate the length table it measures in; EngineUnavailableError
    when the library cannot be built.
    """
    lib = _loaded()
    container = np.frombuffer(data, np.uint8)
    # every varint takes a byte, so a valid body fits in one value a byte
    out = np.empty(container.size - start, np.int64)
    info = (ctypes.c_uint64 * 5)()
    status = lib.rpim_decode_body(container, container.size, start,
                                  out.ctypes.data, out.size, limit, info)
    nrules, nseq, where, value, length = info
    if status not in (0, _ELIMIT):
        raise fault(status, where, value)
    out.flags.writeable = False
    return (out[:2 * nrules].reshape(nrules, 2),
            out[2 * nrules:2 * nrules + nseq],
            None if status == _ELIMIT else length)


def encode_body(prefix: bytes, rules: np.ndarray,
                symbols: np.ndarray) -> bytes:
    """prefix followed by the container body of int64 (n, 2) rules and
    int64 symbols, both C-contiguous, as Grammar and _sequence leave
    them, each value a minimal varint.

    Raises ValueError for a negative value, EngineUnavailableError when
    the library cannot be built.
    """
    lib = _loaded()
    count = 2 * len(rules) + symbols.size + 2
    # a non-negative int64 takes at most 9 varint bytes
    out = np.empty(len(prefix) + 9 * count, np.uint8)
    out[:len(prefix)] = np.frombuffer(prefix, np.uint8)
    written = ctypes.c_int64()
    status = lib.rpim_encode_body(rules.ctypes.data, len(rules),
                                  symbols.ctypes.data, symbols.size,
                                  out.ctypes.data + len(prefix),
                                  out.size - len(prefix),
                                  ctypes.byref(written))
    if status != 0:
        raise ValueError("varints are unsigned")
    return out[:len(prefix) + written.value].tobytes()


# layout's flags: the direction, and the grid's row order and pixel form
TO_GRID, BOTTOM_UP, BGR = 1, 2, 4


def layout(stream, mode: int, width: int, height: int, channels: int,
           grid, pitch: int, flags: int) -> None:
    """Move the samples of a width x height x channels image between
    stream, in linearization order mode, and grid, height rows of pitch
    bytes, in one pass: into grid under TO_GRID, else into stream.
    Under BOTTOM_UP the image's first row is the grid's last; under BGR
    a grid pixel is three bytes in reversed channel order, a single
    channel's sample in all three; towards the grid, the bytes past each
    row's pixels are zeroed.

    The source is a C-contiguous uint8 array; the destination is one
    that is writeable too, or an Output of exactly its size, which the
    pass fills.  Raises ValueError, before the engine is called, for any
    other destination or an array too small for the geometry, and when
    the engine refuses the geometry; EngineUnavailableError when the
    library cannot be built.
    """
    lib = _loaded()
    into_grid = bool(flags & TO_GRID)
    at_stream = _address(stream, width * height * channels, not into_grid)
    at_grid = _address(grid, pitch * height, into_grid)
    if (at_stream is None or at_grid is None
            or lib.rpim_layout(at_stream, width, height, channels, mode,
                               at_grid, pitch, flags) != 0):
        raise ValueError(f"no {width}x{height}x{channels} layout in mode "
                         f"{mode} with pitch {pitch} and flags {flags}")


def _address(buffer, size: int, destination: bool) -> int | None:
    """Where layout may read size bytes of buffer, or write them when it
    is the destination: the start of an Output of exactly size bytes to
    fill, or of a C-contiguous uint8 array of at least size, writeable
    when written; None for anything else."""
    if isinstance(buffer, Output):
        return buffer.address if destination and buffer.size == size \
            else None
    if (buffer.dtype != np.uint8 or not buffer.flags.c_contiguous
            or buffer.size < size
            or destination and not buffer.flags.writeable):
        return None
    return buffer.ctypes.data
