"""Loader for the C engine: compression, expansion and the container
body codec.

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
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from .errors import EngineUnavailableError

COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_kernel.c")

# rpim_compress status for a failed allocation; any other nonzero
# status is a capacity bound the kernel refused to exceed, except
# rpim_expanded_length's for a length past its limit
_ENOMEM = 1
_ELIMIT = 3
# rpim_decode_body's faults, each the first a sequential reader meets
(TRUNCATED, NON_MINIMAL, OVERFLOW, OUT_OF_RANGE, BAD_RULE, UNDEFINED,
 TRAILING) = range(4, 11)

# the kernel's slot indices and symbols are int32
MAX_SYMBOLS = 2**31 - 1

_uint8_input = ndpointer(np.uint8, flags="C_CONTIGUOUS")
_int64_input = ndpointer(np.int64, flags="C_CONTIGUOUS")
_uint8_array = ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))
_int32_array = ndpointer(np.int32, flags=("C_CONTIGUOUS", "WRITEABLE"))
_int64_array = ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))
_uint64_array = ndpointer(np.uint64, flags=("C_CONTIGUOUS", "WRITEABLE"))

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
                _uint8_input, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                _int32_array, _int32_array, _int32_array, ctypes.c_int64,
                _int64_array]
            lib.rpim_compress.restype = ctypes.c_int
            lib.rpim_expanded_length.argtypes = [
                _int64_input, _int64_input, ctypes.c_int64, _int64_input,
                ctypes.c_int64, ctypes.c_uint64, _uint64_array,
                _uint64_array]
            lib.rpim_expanded_length.restype = ctypes.c_int
            lib.rpim_expand.argtypes = [
                _int64_input, _int64_input, ctypes.c_int64, _int64_input,
                ctypes.c_int64, _uint8_array, ctypes.c_int64, _int64_array,
                _int64_array, ctypes.c_int64]
            lib.rpim_expand.restype = ctypes.c_int
            lib.rpim_decode_body.argtypes = [
                _uint8_input, ctypes.c_int64, _int64_array, ctypes.c_int64,
                ctypes.c_uint64, _uint64_array, _int64_array]
            lib.rpim_decode_body.restype = ctypes.c_int
            lib.rpim_encode_body.argtypes = [
                _int64_input, _int64_input, ctypes.c_int64, _int64_input,
                ctypes.c_int64, _uint8_array, ctypes.c_int64, _int64_array]
            lib.rpim_encode_body.restype = ctypes.c_int
            _lib = lib
    return _lib


def available() -> bool:
    return load() is not None


def _loaded() -> ctypes.CDLL:
    lib = load()
    if lib is None:
        raise EngineUnavailableError(f"the C engine is unavailable: {_error}")
    return lib


def compress_array(symbols: np.ndarray, min_frequency: int,
                   max_rules: int | None):
    """Run the kernel over a uint8 terminal array; returns (left, right,
    final) as int32 arrays.

    The input is passed as it is and never mutated; the kernel copies it
    into its int32 working array.  Raises ValueError for more than
    MAX_SYMBOLS symbols, before anything is allocated,
    EngineUnavailableError when the library cannot be built, MemoryError
    when the kernel's allocations fail.
    """
    n = symbols.size
    if n > MAX_SYMBOLS:
        raise ValueError(f"the C engine takes at most {MAX_SYMBOLS} "
                         f"symbols, got {n}")
    lib = _loaded()
    data = np.ascontiguousarray(symbols)
    # each rule removes at least two symbols, so n // 2 rules always fit
    rule_cap = n // 2 + 2
    # clamping to what n symbols can reach keeps both within int64
    limit = -1 if max_rules is None else min(max_rules, rule_cap)
    threshold = min(min_frequency, n + 1)
    sym = np.empty(n, np.int32)
    rule_left = np.empty(rule_cap, np.int32)
    rule_right = np.empty(rule_cap, np.int32)
    sizes = np.zeros(2, np.int64)
    status = lib.rpim_compress(data, n, threshold, limit, sym,
                               rule_left, rule_right, rule_cap, sizes)
    if status == _ENOMEM:
        raise MemoryError(f"C engine could not allocate for {n} symbols")
    if status != 0:
        raise RuntimeError(f"C engine exceeded a capacity bound "
                           f"(status {status}) on {n} symbols")
    nrules, length = sizes.tolist()
    return rule_left[:nrules], rule_right[:nrules], sym[:length]


def expanded_length(left: np.ndarray, right: np.ndarray, symbols: np.ndarray,
                    limit: int) -> int | None:
    """The exact expanded length of symbols under the grammar of int64
    rule sides left and right, or None when it exceeds limit, which is
    below 2**64.

    Raises ValueError when a rule side or a symbol references a symbol
    it may not, EngineUnavailableError when the library cannot be built.
    """
    lib = _loaded()
    lengths = np.empty(left.size, np.uint64)
    total = np.zeros(1, np.uint64)
    status = lib.rpim_expanded_length(left, right, left.size, symbols,
                                      symbols.size, limit, lengths, total)
    if status == _ELIMIT:
        return None
    if status != 0:
        raise ValueError("grammar references an undefined symbol")
    return int(total[0])


def expand(left: np.ndarray, right: np.ndarray, symbols: np.ndarray,
           length: int) -> bytes:
    """The bytes symbols expand to under the grammar of int64 rule sides
    left and right, which must be length bytes.

    Raises ValueError when the grammar references an undefined symbol
    or the expansion is not length bytes, EngineUnavailableError when
    the library cannot be built.
    """
    lib = _loaded()
    out = np.empty(length, np.uint8)
    span = np.empty(2 * left.size, np.int64)
    # a path from a sequence symbol down to a terminal passes at most
    # every rule once, and each rule on it holds two stack entries
    stack = np.empty(2 * left.size + 1, np.int64)
    status = lib.rpim_expand(left, right, left.size, symbols, symbols.size,
                             out, length, span, stack, stack.size)
    if status != 0:
        raise ValueError(f"grammar does not expand to {length} bytes "
                         f"(status {status})")
    return out.tobytes()


def decode_body(body: np.ndarray, limit: int):
    """Decode and check a container body held in a uint8 array, summing
    its expanded length up to limit, which is below 2**64.

    Returns (0, (left, right, symbols, length)) with three int64 arrays,
    views of one buffer of body.size elements, and the expanded length,
    or None when it exceeds limit; or (status, (where, value)) for the
    first fault a varint-by-varint reader meets: a varint fault at byte
    offset where, rule where referencing a symbol outside its prefix,
    symbol number where, of value value, undefined, or trailing bytes
    from offset where.  Raises EngineUnavailableError when the library
    cannot be built.
    """
    lib = _loaded()
    data = np.ascontiguousarray(body)
    # every varint takes a byte, so a valid body fits in body.size values
    # and holds at most body.size // 2 rules
    out = np.empty(data.size, np.int64)
    lengths = np.empty(data.size // 2, np.uint64)
    info = np.zeros(5, np.int64)
    status = lib.rpim_decode_body(data, data.size, out, out.size, limit,
                                  lengths, info)
    nrules, nseq, where, value, _ = info.tolist()
    if status not in (0, _ELIMIT):
        return status, (where, value)
    length = None if status == _ELIMIT else int(info.view(np.uint64)[4])
    return 0, (out[:nrules], out[nrules:2 * nrules],
               out[2 * nrules:2 * nrules + nseq], length)


def encode_body(prefix: bytes, left: np.ndarray, right: np.ndarray,
                symbols: np.ndarray) -> bytes:
    """prefix followed by the container body of int64 rule sides left and
    right and int64 symbols, each value a minimal varint.

    Raises ValueError for a negative value, EngineUnavailableError when
    the library cannot be built.
    """
    lib = _loaded()
    count = 2 * left.size + symbols.size + 2
    # a non-negative int64 takes at most 9 varint bytes
    out = np.empty(len(prefix) + 9 * count, np.uint8)
    out[:len(prefix)] = np.frombuffer(prefix, np.uint8)
    written = np.zeros(1, np.int64)
    status = lib.rpim_encode_body(left, right, left.size, symbols,
                                  symbols.size, out[len(prefix):],
                                  out.size - len(prefix), written)
    if status != 0:
        raise ValueError("varints are unsigned")
    return out[:len(prefix) + int(written[0])].tobytes()
