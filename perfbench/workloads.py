"""Seeded inputs for the three benchmark workloads.

Every input is a function of the workload name and the seed alone.  The
make-up and the sizes are fixed; the seed only changes the content
(colours, tile patterns, noise, words), so two seeds give
inputs of the same size and the same statistics.

Images are written here as canonical 24-bit BMP files (BITMAPINFOHEADER,
BI_RGB, bottom-up rows padded to four bytes, 72 dpi), without calling
rpim, so that the round trip can be checked byte for byte against a file
that rpim did not produce.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MODES = ("row", "zigzag", "split-row", "split-zigzag")

STRUCTURED_SIZE = 1024
ENTROPY_SIZE = 512
TILE_SIZE = 32

# raw-streams: every kind gets the same 80 lengths, log-spaced over 1-64 KiB
STREAM_LENGTHS = tuple(int(round(1024 * 64 ** (i / 79))) for i in range(80))
STREAM_KINDS = ("text", "log", "random")


@dataclass(frozen=True)
class Item:
    """One operation's input: a BMP compressed in one mode, or a raw stream."""

    name: str
    data: bytes          # the file or stream handed to rpim
    mode: str | None     # linearization label; None for a raw stream
    terminals: int       # length of the symbol stream rpim compresses


def bmp_bytes(rgb: np.ndarray) -> bytes:
    """A canonical 24-bit BMP of an (height, width, 3) uint8 RGB array."""
    height, width, _ = rgb.shape
    row = (3 * width + 3) & ~3
    size = row * height
    header = struct.pack("<2sIHHIIiiHHIIiiII", b"BM", 54 + size, 0, 0, 54, 40,
                         width, height, 1, 24, 0, size, 2835, 2835, 0, 0)
    raster = np.zeros((height, row), np.uint8)
    raster[:, :3 * width] = rgb[::-1, :, ::-1].reshape(height, 3 * width)
    return header + raster.tobytes()


# --- images-structured: 1024x1024, low entropy -----------------------------

def _solid(rng, n):
    return np.broadcast_to(rng.integers(0, 256, 3, dtype=np.uint8),
                           (n, n, 3)).copy()


def _tiles(rng, n):
    tile = rng.integers(0, 256, (TILE_SIZE, TILE_SIZE, 3), dtype=np.uint8)
    return np.tile(tile, (n // TILE_SIZE, n // TILE_SIZE, 1))


def _shapes(rng, n):
    # one flat-colour disc or rectangle per cell of a 4x4 grid.  The layout
    # is fixed and the seed picks the six colours, distinct in every
    # channel: with seeded positions or colliding channel values, the
    # compressed size of this image varied by 3-6% between seeds
    palette = np.stack([rng.choice(256, 6, replace=False) for _ in range(3)],
                       axis=1).astype(np.uint8)
    img = np.broadcast_to(palette[0], (n, n, 3)).copy()
    cell = n // 4
    yy, xx = np.ogrid[0:cell, 0:cell]
    for k in range(16):
        size = cell // 4 + (k * cell // 32) % (cell // 4)
        x0, y0 = (k * 37) % (cell - size), (k * 61) % (cell - size)
        view = img[k // 4 * cell:(k // 4 + 1) * cell,
                   k % 4 * cell:(k % 4 + 1) * cell]
        colour = palette[1 + k % 5]
        if k % 2:
            r = size // 2
            view[(xx - x0 - r) ** 2 + (yy - y0 - r) ** 2 <= r * r] = colour
        else:
            view[y0:y0 + size, x0:x0 + size * 3 // 4] = colour
    return img


# --- images-entropy: 512x512, high entropy ---------------------------------

def _noise(rng, n):
    return rng.integers(0, 256, (n, n, 3), dtype=np.uint8)


def _gradient(rng, n):
    # a 24-bit ramp whose low byte advances every pixel, from a seeded start
    start = int(rng.integers(0, 1 << 24))
    value = (start + np.arange(n * n, dtype=np.int64) * 63) & 0xFFFFFF
    out = np.empty((n * n, 3), np.uint8)
    out[:, 0] = value >> 16
    out[:, 1] = (value >> 8) & 0xFF
    out[:, 2] = value & 0xFF
    return out.reshape(n, n, 3)


def _photo(rng, n):
    # a smooth field (bilinear upsampling of a coarse 9x9 grid) plus noise
    coarse = rng.uniform(0, 255, (9, 9, 3))
    pos = np.linspace(0, 8, n)
    lo = np.minimum(pos.astype(np.int64), 7)
    frac = (pos - lo)[:, None]
    rows = coarse[lo] * (1 - frac[:, :, None]) + coarse[lo + 1] * frac[:, :, None]
    field = (rows[:, lo] * (1 - frac[None, :, :])
             + rows[:, lo + 1] * frac[None, :, :])
    noisy = field + rng.normal(0, 6, field.shape)
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


# --- raw-streams: opaque byte streams of 1-64 KiB --------------------------

def _vocabulary(rng, size=2000):
    # word lengths are fixed by rank; the seed picks the letters
    letters = np.frombuffer(b"etaoinshrdlcumwfgypbvkjxqz", np.uint8)
    weights = 1.0 / np.arange(1, 27)
    lengths = 2 + np.arange(size) * 7 % 9
    return [bytes(rng.choice(letters, int(k), p=weights / weights.sum()))
            for k in lengths]


# word k of the vocabulary is drawn with probability proportional to 1/(k+1)
_WORD_WEIGHTS = 1.0 / np.arange(1, 2001)
_WORD_WEIGHTS /= _WORD_WEIGHTS.sum()


def _text(rng, length, vocab):
    # Zipf-distributed words, with sentence punctuation and line breaks
    ranks = rng.choice(len(vocab), length // 3 + 8, p=_WORD_WEIGHTS)
    seps = rng.choice([b" ", b" ", b" ", b" ", b", ", b". ", b".\n"],
                      ranks.size)
    out = b"".join(vocab[r] + s for r, s in zip(ranks.tolist(), seps.tolist()))
    while len(out) < length:
        out += out
    return out[:length]


def _log(rng, length):
    levels = (b"INFO", b"INFO", b"INFO", b"DEBUG", b"WARN", b"ERROR")
    paths = (b"/api/v1/items", b"/api/v1/users", b"/health", b"/static/app.js",
             b"/api/v2/search")
    lines = []
    size = 0
    clock = int(rng.integers(0, 86_400_000))
    while size < length:
        clock += int(rng.integers(0, 2000))
        secs, ms = divmod(clock, 1000)
        line = b"2026-03-%02d %02d:%02d:%02d.%03d %-5s worker-%d %s status=%d " \
               b"bytes=%d latency_ms=%d\n" % (
                   1 + secs // 86400 % 28, secs // 3600 % 24, secs // 60 % 60,
                   secs % 60, ms, levels[int(rng.integers(0, 6))],
                   int(rng.integers(0, 16)), paths[int(rng.integers(0, 5))],
                   (200, 200, 200, 304, 404, 500)[int(rng.integers(0, 6))],
                   int(rng.integers(0, 100_000)), int(rng.integers(1, 900)))
        lines.append(line)
        size += len(line)
    return b"".join(lines)[:length]


# --- workloads -------------------------------------------------------------

def _image_items(makers, n, seed):
    rng = np.random.default_rng(seed)
    items = []
    for name, make in makers:
        data = bmp_bytes(make(rng, n))
        for mode in MODES:
            items.append(Item(f"{name}/{mode}", data, mode, 3 * n * n))
    return items


def structured(seed: int) -> list[Item]:
    return _image_items((("solid", _solid), ("tiles", _tiles),
                         ("shapes", _shapes)), STRUCTURED_SIZE, seed)


def entropy(seed: int) -> list[Item]:
    return _image_items((("noise", _noise), ("gradient", _gradient),
                         ("photo", _photo)), ENTROPY_SIZE, seed)


def raw_streams(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng)
    items = []
    for kind in STREAM_KINDS:
        for length in STREAM_LENGTHS:
            if kind == "text":
                data = _text(rng, length, vocab)
            elif kind == "log":
                data = _log(rng, length)
            else:
                data = rng.bytes(length)
            items.append(Item(f"{kind}/{length}", data, None, length))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


WORKLOADS = {
    "images-structured": structured,
    "images-entropy": entropy,
    "raw-streams": raw_streams,
}
