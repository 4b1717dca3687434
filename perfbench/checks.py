"""Output checks, computed with numpy and independently of rpim.

Each check returns None when the output is correct and a one-line reason
when it is not.  They run outside the timed regions; an operation whose
output fails any of them counts as failed.
"""

from __future__ import annotations

import numpy as np

TERMINALS = 256


def round_trip(restored: bytes, original: bytes) -> str | None:
    """The decompressed file or stream equals the generated input."""
    if restored == original:
        return None
    if len(restored) != len(original):
        return f"restored {len(restored)} bytes, input has {len(original)}"
    a = np.frombuffer(restored, np.uint8)
    b = np.frombuffer(original, np.uint8)
    return f"restored bytes differ first at offset {int(np.argmax(a != b))}"


def rules_reference_earlier(rules: np.ndarray) -> str | None:
    """Rule k (symbol 256 + k) uses only terminals and symbols below 256 + k.

    rules is an (r, 2) integer array of (left, right).
    """
    if rules.size == 0:
        return None
    bound = TERMINALS + np.arange(len(rules))
    bad = (rules < 0).any(axis=1) | (rules >= bound[:, None]).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        return f"rule {k} {tuple(rules[k].tolist())} references symbol >= {TERMINALS + k}"
    return None


def no_repeated_pair(final: np.ndarray) -> str | None:
    """No adjacent pair occurs twice, counted greedily without overlap.

    Occurrences of a pair of two different symbols never overlap, so each
    position counts.  A run of L equal symbols holds L // 2 occurrences
    of its self-pair, summed over all runs of that symbol.
    """
    f = np.asarray(final, np.int64)
    if f.size < 2:
        return None
    left, right = f[:-1], f[1:]
    differ = left != right
    base = int(f.max()) + 1
    codes, counts = np.unique(left[differ] * base + right[differ],
                              return_counts=True)
    if counts.size and counts.max() > 1:
        pair = divmod(int(codes[np.argmax(counts)]), base)
        return f"pair {pair} occurs {int(counts.max())} times"
    starts = np.flatnonzero(np.r_[True, differ])
    held = np.diff(np.r_[starts, f.size]) // 2
    symbols, index = np.unique(f[starts], return_inverse=True)
    totals = np.bincount(index, weights=held)
    if totals.max() > 1:
        sym = int(symbols[np.argmax(totals)])
        return f"pair ({sym}, {sym}) occurs {int(totals.max())} times"
    return None


def length_bound(final_length: int, terminals: int, rules: int) -> str | None:
    """Every rule replaces at least two occurrences: len(final) <= n - 2r."""
    if final_length <= terminals - 2 * rules:
        return None
    return (f"final sequence has {final_length} symbols, more than "
            f"{terminals} - 2 * {rules}")


def self_test() -> None:
    """Each check accepts a correct output and rejects a corrupted one."""
    data = bytes(range(200)) * 3
    flipped = bytearray(data)
    flipped[417] ^= 0x01
    good_rules = np.array([[97, 98], [256, 99], [257, 257]])
    cases = [
        (round_trip(data, data), True),
        (round_trip(bytes(flipped), data), False),
        (round_trip(data[:-1], data), False),
        (rules_reference_earlier(good_rules), True),
        (rules_reference_earlier(np.array([[97, 98], [256, 258]])), False),
        (rules_reference_earlier(np.array([[256, 97]])), False),
        (rules_reference_earlier(np.array([[97, -1]])), False),
        (no_repeated_pair(np.array([1, 2, 3, 2, 1, 5, 5, 5, 7])), True),
        (no_repeated_pair(np.array([1, 2, 3, 1, 2])), False),
        (no_repeated_pair(np.array([4, 5, 5, 5, 5])), False),
        (no_repeated_pair(np.array([7, 7, 8, 7, 7])), False),
        (no_repeated_pair(np.array([9, 300, 9, 300])), False),
        (length_bound(90, 100, 5), True),
        (length_bound(91, 100, 5), False),
    ]
    for k, (reason, expect_ok) in enumerate(cases):
        if (reason is None) != expect_ok:
            raise AssertionError(f"check self-test case {k}: got {reason!r}")
