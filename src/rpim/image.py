"""BMP decoding/encoding and pixel-stream linearization.

Only the plain 24-bit uncompressed flavour (BITMAPINFOHEADER, BI_RGB) is
supported; everything else is rejected loudly rather than half-decoded.
Linearization turns a pixel buffer into the one-dimensional byte sequence
the compressor consumes, in one of four invertible orders.

One mapping moves pixels between orders: the engine's pixel layout
(_kernel.layout), which moves every sample between a stream in any
order and a pixel grid, such as a BMP raster or the row-major samples,
in one pass.  A PixelBuffer holds its bytes in the order they came in,
so delinearize only checks and wraps its stream, decode_bmp its file,
and encode_bmp and linearize each make one pass from whichever order a
buffer holds into one array whose single tobytes() is the result.  The
row-major samples are built only when asked for.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from . import _kernel
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


class _Raster(NamedTuple):
    """Where a BMP pixel array sits in its file: from offset, rows of
    pitch bytes, and its layout flags, BGR pixels and the row order."""

    offset: int
    pitch: int
    flags: int


class PixelBuffer:
    """An image of width x height pixels, each of channels samples: one
    grey level, or red, green and blue.

    samples is the row-major sample bytes, rows top-down, a pixel's
    samples together, and as_array() its (height, width, channels)
    view; equality and the hash are theirs.  A buffer holds its bytes in
    the order they came in, and that order: samples for a buffer built
    here, the stream in its LinearizationMode for one from delinearize,
    the BMP file and where its raster sits for one from decode_bmp.  A
    buffer in another order builds samples on first use, and keeps them;
    linearize and encode_bmp map its bytes straight to their own order
    with one pass of the engine's pixel layout.  A buffer and what it
    holds never change.
    """

    __slots__ = ("width", "height", "channels", "_held", "_order",
                 "_samples")

    def __init__(self, width: int, height: int, channels: int,
                 samples: bytes):
        # bytes are kept as they are, a bytearray or memoryview is copied
        self._hold(width, height, channels, bytes(samples),
                   LinearizationMode.ROW_MAJOR)

    @classmethod
    def _wrap(cls, width: int, height: int, channels: int, held: bytes,
              order: LinearizationMode | _Raster) -> PixelBuffer:
        buf = cls.__new__(cls)
        buf._hold(width, height, channels, held, order)
        return buf

    def _hold(self, *values) -> None:
        for name, value in zip(self.__slots__, (*values, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PixelBuffer is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"PixelBuffer is immutable: cannot delete {name}")

    @property
    def samples(self) -> bytes:
        if self._order == LinearizationMode.ROW_MAJOR:
            return self._held
        if self._samples is None:
            object.__setattr__(self, "_samples",
                               self._stream(LinearizationMode.ROW_MAJOR))
        return self._samples

    def _stream(self, mode: LinearizationMode) -> bytes:
        """The held bytes as a stream in linearization order mode."""
        order = self._order
        if order == mode:
            return self._held
        w, h, c = self.width, self.height, self.channels
        out = np.empty(w * h * c, np.uint8)
        if isinstance(order, _Raster):
            raster = np.frombuffer(self._held, np.uint8,
                                   count=order.pitch * h, offset=order.offset)
            _kernel.layout(out, mode, w, h, c, raster, order.pitch,
                           order.flags)
        elif mode == LinearizationMode.ROW_MAJOR:
            # the samples are a grid of pitch w * c too
            _kernel.layout(np.frombuffer(self._held, np.uint8), order,
                           w, h, c, out, w * c, _kernel.TO_GRID)
        else:
            _kernel.layout(out, mode, w, h, c,
                           np.frombuffer(self.samples, np.uint8), w * c, 0)
        return out.tobytes()

    def _any_stream(self) -> tuple[bytes, LinearizationMode]:
        """The held bytes as a stream in some order, and that order."""
        if isinstance(self._order, _Raster):
            return self.samples, LinearizationMode.ROW_MAJOR
        return self._held, self._order

    def validate(self) -> None:
        _check_geometry(self.width, self.height, self.channels)
        expected = self.width * self.height * self.channels
        # decode_bmp checked its raster's extent against the file
        if not isinstance(self._order, _Raster) and \
                len(self._held) != expected:
            raise InvalidDimensionsError(
                f"expected {expected} samples, have {len(self._held)}"
            )

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.samples, np.uint8).reshape(
            self.height, self.width, self.channels
        )

    def __eq__(self, other):
        if not isinstance(other, PixelBuffer):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.width, self.height, self.channels, self.samples

    def __repr__(self):
        return (f"PixelBuffer(width={self.width}, height={self.height}, "
                f"channels={self.channels}, samples={self.samples!r})")


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

    # a bytearray or memoryview is copied, so the buffer never changes
    flags = _kernel.BGR | (0 if top_down else _kernel.BOTTOM_UP)
    return PixelBuffer._wrap(width, height, 3, bytes(data),
                             _Raster(pixel_offset, row, flags))


def encode_bmp(buf: PixelBuffer) -> bytes:
    buf.validate()
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
    stream, mode = buf._any_stream()
    _kernel.layout(np.frombuffer(stream, np.uint8), mode, buf.width,
                   buf.height, buf.channels, out[_HEADER_SIZE:], row,
                   _kernel.TO_GRID | _kernel.BOTTOM_UP | _kernel.BGR)
    return out.tobytes()


def linearize(buf: PixelBuffer, mode: LinearizationMode) -> bytes:
    """Flatten a pixel buffer into the byte sequence fed to the compressor."""
    buf.validate()
    return buf._stream(LinearizationMode(mode))


def delinearize(
    seq: bytes, mode: LinearizationMode, width: int, height: int, channels: int
) -> PixelBuffer:
    """Exact inverse of linearize for the given geometry.

    The geometry is checked first (InvalidDimensionsError), then the
    length (InvalidGeometryError).  The buffer then holds the stream
    itself: bytes are not copied, a bytearray or memoryview is, once.
    """
    _check_geometry(width, height, channels)
    data = bytes(seq)
    expected = width * height * channels
    if len(data) != expected:
        raise InvalidGeometryError(
            f"sequence length {len(data)} does not fill {width}x{height}x{channels}"
        )
    return PixelBuffer._wrap(width, height, channels, data,
                             LinearizationMode(mode))
