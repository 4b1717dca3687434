"""BMP decoding/encoding and pixel-stream linearization.

Only the plain 24-bit uncompressed flavour (BITMAPINFOHEADER, BI_RGB) is
supported; everything else is rejected loudly rather than half-decoded.
Linearization turns a pixel buffer into the one-dimensional byte sequence
the compressor consumes, in one of four invertible orders.  linearize,
delinearize and encode_bmp each write every output byte once, into one
array whose single tobytes() is the result.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    CorruptBmpError,
    InvalidDimensionsError,
    InvalidGeometryError,
    NotABmpError,
    UnsupportedBmpError,
)

_HEADER_SIZE = 54
_PPM_72DPI = 2835


class LinearizationMode(IntEnum):
    """Traversal order used to flatten pixels; the value is the wire byte."""

    ROW_MAJOR = 0
    ZIGZAG = 1
    CHANNEL_SPLIT_ROW_MAJOR = 2
    CHANNEL_SPLIT_ZIGZAG = 3

    @property
    def label(self) -> str:
        return _MODE_LABELS[self]


_MODE_LABELS = {
    LinearizationMode.ROW_MAJOR: "row",
    LinearizationMode.ZIGZAG: "zigzag",
    LinearizationMode.CHANNEL_SPLIT_ROW_MAJOR: "split-row",
    LinearizationMode.CHANNEL_SPLIT_ZIGZAG: "split-zigzag",
}

MODE_BY_LABEL = {mode.label: mode for mode in LinearizationMode}


@dataclass(frozen=True)
class PixelBuffer:
    """Decoded image: top-down rows, channel-interleaved samples."""

    width: int
    height: int
    channels: int
    samples: bytes

    def validate(self) -> None:
        _check_geometry(self.width, self.height, self.channels)
        expected = self.width * self.height * self.channels
        if len(self.samples) != expected:
            raise InvalidDimensionsError(
                f"expected {expected} samples, have {len(self.samples)}"
            )

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.samples, np.uint8).reshape(
            self.height, self.width, self.channels
        )


def _check_geometry(width: int, height: int, channels: int) -> None:
    if width < 1 or height < 1:
        raise InvalidDimensionsError(f"image extent {width}x{height} is empty")
    if channels not in (1, 3):
        raise InvalidDimensionsError(f"unsupported channel count {channels}")


def _row_size(width: int) -> int:
    # rows are padded to a 4-byte boundary
    return (3 * width + 3) & ~3


def decode_bmp(data: bytes) -> PixelBuffer:
    if len(data) < 2 or data[:2] != b"BM":
        raise NotABmpError("missing BM signature")
    if len(data) < _HEADER_SIZE:
        raise CorruptBmpError("file ends inside the header")

    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    info_size = struct.unpack_from("<I", data, 14)[0]
    if info_size != 40:
        raise UnsupportedBmpError(f"info header size {info_size}, need BITMAPINFOHEADER")
    width, height = struct.unpack_from("<ii", data, 18)
    bpp = struct.unpack_from("<H", data, 28)[0]
    compression = struct.unpack_from("<I", data, 30)[0]
    if bpp != 24:
        raise UnsupportedBmpError(f"{bpp} bits per pixel, only 24 supported")
    if compression != 0:
        raise UnsupportedBmpError(f"compression type {compression}, only BI_RGB supported")
    if width <= 0 or height == 0:
        raise CorruptBmpError(f"bad image extent {width}x{height}")

    top_down = height < 0
    height = abs(height)
    row = _row_size(width)
    if pixel_offset < _HEADER_SIZE or pixel_offset > len(data):
        raise CorruptBmpError(f"pixel data offset {pixel_offset} out of range")
    if pixel_offset + row * height > len(data):
        raise CorruptBmpError("truncated pixel data")

    raster = np.frombuffer(data, np.uint8, count=row * height, offset=pixel_offset)
    bgr = raster.reshape(height, row)[:, : 3 * width].reshape(height, width, 3)
    if not top_down:
        bgr = bgr[::-1]
    # one plane copy per channel is faster than reversing a length-3 axis
    rgb = np.empty((height, width, 3), np.uint8)
    for c in range(3):
        rgb[:, :, c] = bgr[:, :, 2 - c]
    return PixelBuffer(width, height, 3, rgb.tobytes())


def encode_bmp(buf: PixelBuffer) -> bytes:
    buf.validate()
    arr = buf.as_array()
    row = _row_size(buf.width)
    image_size = row * buf.height
    out = np.empty(_HEADER_SIZE + image_size, np.uint8)
    out[:_HEADER_SIZE] = np.frombuffer(struct.pack(
        "<2sIHHIIiiHHIIiiII",
        b"BM",
        _HEADER_SIZE + image_size,
        0,
        0,
        _HEADER_SIZE,
        40,
        buf.width,
        buf.height,
        1,
        24,
        0,
        image_size,
        _PPM_72DPI,
        _PPM_72DPI,
        0,
        0,
    ), np.uint8)
    # rows bottom-up, BGR pixels: zero the padding columns only, then one
    # plane copy per channel, and a single channel copied to all three
    raster = out[_HEADER_SIZE:].reshape(buf.height, row)
    raster[:, 3 * buf.width:] = 0
    bgr = raster[::-1, : 3 * buf.width].reshape(buf.height, buf.width, 3)
    for c in range(3):
        bgr[:, :, c] = arr[:, :, 2 - c if buf.channels == 3 else 0]
    return out.tobytes()


def _layout(mode: LinearizationMode, height: int, width: int, channels: int):
    """The stream shape of a mode other than ROW_MAJOR, and the (stream
    index, pixel index) pairs whose copies move every byte once between
    that stream and the (height, width, channels) pixels."""
    if mode == LinearizationMode.ZIGZAG:
        # odd rows per channel: whole reversed pixels copy 3 bytes per loop
        return (height, width, channels), [(np.s_[0::2], np.s_[0::2])] + [
            (np.s_[1::2, :, c], np.s_[1::2, ::-1, c]) for c in range(channels)]
    if mode == LinearizationMode.CHANNEL_SPLIT_ROW_MAJOR:
        copies = [(np.s_[c], np.s_[:, :, c]) for c in range(channels)]
    else:
        copies = [pair for c in range(channels) for pair in (
            (np.s_[c, 0::2], np.s_[0::2, :, c]),
            (np.s_[c, 1::2], np.s_[1::2, ::-1, c]))]
    return (channels, height, width), copies


def linearize(buf: PixelBuffer, mode: LinearizationMode) -> bytes:
    """Flatten a pixel buffer into the byte sequence fed to the compressor."""
    buf.validate()
    if mode == LinearizationMode.ROW_MAJOR:
        return buf.samples
    shape, copies = _layout(mode, buf.height, buf.width, buf.channels)
    pixels = buf.as_array()
    out = np.empty(shape, np.uint8)
    for stream_at, pixel_at in copies:
        out[stream_at] = pixels[pixel_at]
    return out.tobytes()


def delinearize(
    seq: bytes, mode: LinearizationMode, width: int, height: int, channels: int
) -> PixelBuffer:
    """Exact inverse of linearize for the given geometry.

    The geometry is checked first (InvalidDimensionsError), then the
    length (InvalidGeometryError), and only then is the output allocated.
    """
    _check_geometry(width, height, channels)
    data = bytes(seq)
    expected = width * height * channels
    if len(data) != expected:
        raise InvalidGeometryError(
            f"sequence length {len(data)} does not fill {width}x{height}x{channels}"
        )
    if mode == LinearizationMode.ROW_MAJOR:
        return PixelBuffer(width, height, channels, data)
    shape, copies = _layout(mode, height, width, channels)
    stream = np.frombuffer(data, np.uint8).reshape(shape)
    out = np.empty((height, width, channels), np.uint8)
    for stream_at, pixel_at in copies:
        out[pixel_at] = stream[stream_at]
    return PixelBuffer(width, height, channels, out.tobytes())
