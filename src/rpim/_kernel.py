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

_uint8_input = ndpointer(np.uint8, flags="C_CONTIGUOUS")
_int64_input = ndpointer(np.int64, flags="C_CONTIGUOUS")
_rules_input = ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")
_uint8_array = ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))
_int32_array = ndpointer(np.int32, flags=("C_CONTIGUOUS", "WRITEABLE"))
_int64_array = ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))

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
            lib.rpim_compress.argtypes = [
                _uint8_input, ctypes.c_int64, ctypes.c_int64, _int32_array,
                _int64_array]
            lib.rpim_compress.restype = ctypes.c_int
            lib.rpim_expand.argtypes = [
                _rules_input, ctypes.c_int64, _int64_input, ctypes.c_int64,
                ctypes.c_uint64, ctypes.POINTER(ctypes.c_void_p),
                ctypes.POINTER(ctypes.c_int64)]
            lib.rpim_expand.restype = ctypes.c_int
            lib.rpim_free.argtypes = [ctypes.c_void_p]
            lib.rpim_free.restype = None
            lib.rpim_release.argtypes = []
            lib.rpim_release.restype = None
            lib.rpim_decode_body.argtypes = [
                _uint8_input, ctypes.c_int64, _int64_array, ctypes.c_int64,
                ctypes.c_uint64, _int64_array]
            lib.rpim_decode_body.restype = ctypes.c_int
            lib.rpim_encode_body.argtypes = [
                _rules_input, ctypes.c_int64, _int64_input, ctypes.c_int64,
                _uint8_array, ctypes.c_int64, _int64_array]
            lib.rpim_encode_body.restype = ctypes.c_int
            lib.rpim_layout.argtypes = [
                _uint8_input, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64, _uint8_input, ctypes.c_int64, ctypes.c_int64]
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
    sizes = np.zeros(2, np.int64)
    status = lib.rpim_compress(data, n, threshold, sym, sizes)
    if status != 0:
        raise fault(status)
    nrules, length = sizes.tolist()
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
    int64 (n, 2) rules.

    Raises MemoryError when the expansion exceeds sys.maxsize bytes, the
    most a bytes object holds; through fault, MalformedGrammarError
    naming the first rule that references a symbol outside its prefix or
    the first undefined symbol, and MemoryError when the engine cannot
    allocate; EngineUnavailableError when the library cannot be built.
    """
    lib = _loaded()
    out = ctypes.c_void_p()
    info = (ctypes.c_int64 * 2)()
    status = lib.rpim_expand(rules, len(rules), symbols, symbols.size,
                             sys.maxsize, ctypes.byref(out), info)
    try:
        if status == 0:
            return ctypes.string_at(out, info[0])
    finally:
        lib.rpim_free(out)
    if status == _ELIMIT:
        raise MemoryError(f"expansion exceeds {sys.maxsize} bytes")
    raise fault(status, info[0], info[1])


def decode_body(data: bytes, pos: int, limit: int):
    """Decode and check the container body at data[pos:], then measure
    its expanded length up to limit, which is below 2**64.

    Returns (rules, symbols, length): the (n, 2) rules and the symbols,
    int64 read-only views of one buffer of one value per body byte, and
    the expanded length, or None when it exceeds limit.  Raises, through
    fault, the first fault a varint-by-varint reader meets, a varint
    fault at its offset in data, and MemoryError when the engine cannot
    allocate the length table it measures in; EngineUnavailableError
    when the library cannot be built.
    """
    lib = _loaded()
    body = np.frombuffer(data, np.uint8, offset=pos)
    # every varint takes a byte, so a valid body fits in body.size values
    out = np.empty(body.size, np.int64)
    info = np.zeros(5, np.int64)
    status = lib.rpim_decode_body(body, body.size, out, out.size, limit, info)
    nrules, nseq, where, value, _ = info.tolist()
    if status in _VARINT_FAULTS:
        where += pos
    if status not in (0, _ELIMIT):
        raise fault(status, where, value)
    length = None if status == _ELIMIT else int(info.view(np.uint64)[4])
    out.flags.writeable = False
    return (out[:2 * nrules].reshape(nrules, 2),
            out[2 * nrules:2 * nrules + nseq], length)


def encode_body(prefix: bytes, rules: np.ndarray,
                symbols: np.ndarray) -> bytes:
    """prefix followed by the container body of int64 (n, 2) rules and
    int64 symbols, each value a minimal varint.

    Raises ValueError for a negative value, EngineUnavailableError when
    the library cannot be built.
    """
    lib = _loaded()
    count = 2 * len(rules) + symbols.size + 2
    # a non-negative int64 takes at most 9 varint bytes
    out = np.empty(len(prefix) + 9 * count, np.uint8)
    out[:len(prefix)] = np.frombuffer(prefix, np.uint8)
    written = np.zeros(1, np.int64)
    status = lib.rpim_encode_body(rules, len(rules), symbols, symbols.size,
                                  out[len(prefix):], out.size - len(prefix),
                                  written)
    if status != 0:
        raise ValueError("varints are unsigned")
    return out[:len(prefix) + int(written[0])].tobytes()


# layout's flags: the direction, and the grid's row order and pixel form
TO_GRID, BOTTOM_UP, BGR = 1, 2, 4


def layout(stream: np.ndarray, mode: int, width: int, height: int,
           channels: int, grid: np.ndarray, pitch: int, flags: int) -> None:
    """Move the samples of a width x height x channels image between
    stream, a uint8 array in linearization order mode, and grid, a uint8
    array of height rows of pitch bytes, in one pass: into grid under
    TO_GRID, else into stream.  Under BOTTOM_UP the image's first row is
    the grid's last; under BGR a grid pixel is three bytes in reversed
    channel order, a single channel's sample in all three; towards the
    grid, the bytes past each row's pixels are zeroed.

    Raises ValueError when either array is too small for the geometry,
    before the engine is called; EngineUnavailableError when the library
    cannot be built.
    """
    lib = _loaded()
    if (stream.size < width * height * channels
            or grid.size < pitch * height
            or lib.rpim_layout(stream, width, height, channels, mode, grid,
                               pitch, flags) != 0):
        raise ValueError(f"no {width}x{height}x{channels} layout in mode "
                         f"{mode} with pitch {pitch} and flags {flags}")
