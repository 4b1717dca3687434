"""Synthetic image corpus and compression ratio benchmarking.

The corpus spans the redundancy spectrum: a solid color (degenerate),
a repeating random tile (exact long-range structure), two-tone shapes
(long same-color runs), a 24-bit ramp (smooth but never repeating), and
uniform noise (incompressible).  Generation is seeded, by DEFAULT_SEED
unless a caller passes another, so the corpus and every ratio derived
from it are reproducible; on the default zigzag rows the ratios order
solid < tiles < mono < gradient <= noise, and a violation of that
ordering flags a compressor regression.

A row records sizes and their ratio only; perfbench/ is what times
rpim.  Every row is round-trip verified before it is recorded: the
serialized container is deserialized, expanded, and compared byte for
byte against the input.  A mismatch raises RoundTripMismatchError and no
row is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import (
    CompressedArtifact,
    ImagePayload,
    RawPayload,
    deserialize,
    serialize,
)
from .errors import (
    CorruptBmpError,
    NotABmpError,
    RoundTripMismatchError,
    UnsupportedBmpError,
)
from .image import (
    LinearizationMode,
    PixelBuffer,
    decode_bmp,
    delinearize,
    encode_bmp,
    linearize,
)
from .repair import compress, expand

DEFAULT_SEED = 73901
CORPUS_SIZE = 512
TILE_SIZE = 16

CORPUS_NAMES = ("solid", "tiles", "gradient", "mono", "noise")


def _solid(rng: np.random.Generator, n: int) -> np.ndarray:
    color = rng.integers(0, 256, 3, dtype=np.uint8)
    return np.broadcast_to(color, (n, n, 3)).copy()


def _tiles(rng: np.random.Generator, n: int) -> np.ndarray:
    tile = rng.integers(0, 256, (TILE_SIZE, TILE_SIZE, 3), dtype=np.uint8)
    reps = n // TILE_SIZE
    return np.tile(tile, (reps, reps, 1))


def _gradient(rng: np.random.Generator, n: int) -> np.ndarray:
    # horizontal ramp over the full 24-bit range; the low bits advance
    # every pixel and carry across rows, so no two rows repeat and the
    # image sits between the shape corpus and noise in compressibility
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
    value = idx * ((1 << 24) - 1) // (n * n - 1)
    out = np.empty((n, n, 3), dtype=np.uint8)
    out[..., 0] = (value >> 16) & 0xFF
    out[..., 1] = (value >> 8) & 0xFF
    out[..., 2] = value & 0xFF
    return out


def _mono(rng: np.random.Generator, n: int) -> np.ndarray:
    # two-tone: black shapes on a white canvas
    canvas = np.full((n, n), 255, dtype=np.uint8)
    yy, xx = np.mgrid[0:n, 0:n]
    for _ in range(10):
        cx, cy = rng.integers(0, n, 2)
        radius = int(rng.integers(n // 16, n // 4))
        canvas[(xx - cx) ** 2 + (yy - cy) ** 2 <= radius * radius] = 0
    for _ in range(6):
        x0, y0 = rng.integers(0, n - 8, 2)
        w, h = rng.integers(8, n // 3, 2)
        canvas[y0:y0 + h, x0:x0 + w] = 0
    return np.repeat(canvas[:, :, np.newaxis], 3, axis=2)


def _noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 256, (n, n, 3), dtype=np.uint8)


_BUILDERS = {
    "solid": _solid,
    "tiles": _tiles,
    "gradient": _gradient,
    "mono": _mono,
    "noise": _noise,
}


def generate_corpus(output_dir, seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the five corpus BMPs into output_dir; returns their paths.

    The same seed always produces byte-identical files.  Images are
    drawn from one generator in a fixed order, so the whole corpus is a
    function of the seed alone; DEFAULT_SEED gives the corpus that
    rpim bench --generate writes.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for name in CORPUS_NAMES:
        pixels = _BUILDERS[name](rng, CORPUS_SIZE)
        buf = PixelBuffer(CORPUS_SIZE, CORPUS_SIZE, 3, pixels.tobytes())
        path = out / f"{name}.bmp"
        path.write_bytes(encode_bmp(buf))
        paths.append(path)
    return paths


@dataclass(frozen=True)
class BenchRow:
    """One measured compression run."""

    name: str
    kind: str  # "bmp" or "opaque-stream"
    mode: str  # linearization label, or "n/a" for opaque streams
    size_in: int
    size_out: int
    ratio: float


def _bench_image(name: str, file_size: int, buf: PixelBuffer,
                 mode: LinearizationMode) -> BenchRow:
    grammar, seq = compress(linearize(buf, mode))
    payload = ImagePayload(buf.width, buf.height, buf.channels, mode)
    blob = serialize(CompressedArtifact(payload, grammar, seq))
    back = deserialize(blob)
    rebuilt = delinearize(expand(back.grammar, back.sequence), mode,
                          buf.width, buf.height, buf.channels)
    if rebuilt.samples != buf.samples:
        raise RoundTripMismatchError(
            f"{name} [{mode.label}]: decompressed pixels differ from input")
    return BenchRow(name, "bmp", mode.label, file_size, len(blob),
                    len(blob) / file_size)


def _bench_raw(name: str, data: bytes) -> BenchRow:
    grammar, seq = compress(data)
    blob = serialize(
        CompressedArtifact(RawPayload(len(data)), grammar, seq))
    back = deserialize(blob)
    if expand(back.grammar, back.sequence) != data:
        raise RoundTripMismatchError(
            f"{name} [raw]: decompressed bytes differ from input")
    return BenchRow(name, "opaque-stream", "n/a", len(data), len(blob),
                    len(blob) / len(data))


def run_bench(inputs) -> list[BenchRow]:
    """Measure the compressed size of every input, compressed with
    compress's default min_frequency.

    BMP inputs get one row per linearization mode over their pixel data;
    every input additionally gets a whole-file opaque-stream row.  Each
    row is round-trip verified first; a mismatch aborts the run.
    """
    rows: list[BenchRow] = []
    for item in inputs:
        path = Path(item)
        data = path.read_bytes()
        if not data:
            raise ValueError(f"{path}: empty input")
        name = path.stem
        try:
            buf = decode_bmp(data)
        except (NotABmpError, UnsupportedBmpError, CorruptBmpError):
            buf = None
        if buf is not None:
            for mode in LinearizationMode:
                rows.append(_bench_image(name, len(data), buf, mode))
        rows.append(_bench_raw(name, data))
    return rows


def emit_report(rows, format: str = "table") -> str:
    """Render rows sorted by (name, mode) as an aligned table or CSV."""
    ordered = sorted(rows, key=lambda r: (r.name, r.mode))
    cells = [["name", "kind", "mode", "size_in", "size_out", "ratio"]]
    for r in ordered:
        cells.append([r.name, r.kind, r.mode, str(r.size_in),
                      str(r.size_out), f"{r.ratio:.4f}"])
    if format == "csv":
        return "\n".join(",".join(row) for row in cells)
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(cells[0]))]
    lines = []
    for row in cells:
        padded = [row[0].ljust(widths[0])]
        padded += [row[col].rjust(widths[col]) for col in range(1, len(row))]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)
