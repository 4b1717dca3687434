"""Loader for the compiled twin of the compressor hot path.

The C source next to this module (_kernel.c) is built with the system C
compiler on first use and loaded through ctypes.  The shared library is
cached per user under $XDG_CACHE_HOME/rpim (else ~/.cache/rpim), keyed
by a hash of the source, the build flags and the platform, so a changed
source never loads a stale build.  A build is written under a temporary
name and moved into place with os.replace, so concurrent processes never
load a half-written library.

When no compiler is found or the build fails, load() returns None and
warns once per process; compress then runs reference_compress, the
pure-Python engine, which emits the same grammars.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_kernel.c")

# rpim_compress status for a failed allocation; any other nonzero
# status is a capacity bound the kernel refused to exceed
_ENOMEM = 1

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
                _int64_array, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                _int64_array, _int64_array, ctypes.c_int64, _int64_array]
            lib.rpim_compress.restype = ctypes.c_int
            _lib = lib
        if _error is not None:
            warnings.warn(f"C engine unavailable, compression falls back to "
                          f"the pure-Python engine: {_error}", RuntimeWarning,
                          stacklevel=2)
    return _lib


def available() -> bool:
    return load() is not None


def compress_array(symbols: np.ndarray, min_frequency: int,
                   max_rules: int | None):
    """Run the kernel over a terminal array; returns (left, right, final).

    The input is copied, never mutated.  Raises RuntimeError when the
    library cannot be built, MemoryError when the kernel's allocations
    fail.
    """
    lib = load()
    if lib is None:
        raise RuntimeError(f"the C engine is unavailable: {_error}")
    sym = np.array(symbols, dtype=np.int64, order="C")
    n = sym.size
    # each rule removes at least two symbols, so n // 2 rules always fit
    rule_cap = n // 2 + 2
    # clamping to what n symbols can reach keeps both within int64
    limit = -1 if max_rules is None else min(max_rules, rule_cap)
    threshold = min(min_frequency, n + 1)
    rule_left = np.empty(rule_cap, np.int64)
    rule_right = np.empty(rule_cap, np.int64)
    sizes = np.zeros(2, np.int64)
    status = lib.rpim_compress(sym, n, threshold, limit,
                               rule_left, rule_right, rule_cap, sizes)
    if status == _ENOMEM:
        raise MemoryError(f"C engine could not allocate for {n} symbols")
    if status != 0:
        raise RuntimeError(f"C engine exceeded a capacity bound "
                           f"(status {status}) on {n} symbols")
    nrules, length = sizes.tolist()
    return rule_left[:nrules], rule_right[:nrules], sym[:length]
