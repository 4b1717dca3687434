"""BMP codec and linearization tests."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpim.errors import (
    CorruptBmpError,
    InvalidDimensionsError,
    InvalidGeometryError,
    NotABmpError,
    UnsupportedBmpError,
)
from rpim.image import (
    MODE_BY_LABEL,
    LinearizationMode,
    PixelBuffer,
    decode_bmp,
    delinearize,
    encode_bmp,
    linearize,
)

WHITE_1X1 = PixelBuffer(1, 1, 3, b"\xff\xff\xff")


class TestBmpCodec:
    def test_one_pixel_file_is_58_bytes(self):
        # 14 file header + 40 info header + one row padded to 4 bytes
        assert len(encode_bmp(WHITE_1X1)) == 58

    def test_one_pixel_round_trip(self):
        assert decode_bmp(encode_bmp(WHITE_1X1)) == WHITE_1X1

    def test_two_by_two_round_trip(self):
        buf = PixelBuffer(2, 2, 3, bytes(range(12)))
        assert decode_bmp(encode_bmp(buf)) == buf

    def test_reencode_is_byte_identical(self):
        buf = PixelBuffer(3, 2, 3, bytes(range(18)))
        blob = encode_bmp(buf)
        assert encode_bmp(decode_bmp(blob)) == blob

    def test_grayscale_expands_to_three_channels(self):
        buf = PixelBuffer(2, 1, 1, bytes([10, 200]))
        out = decode_bmp(encode_bmp(buf))
        assert out.channels == 3
        assert out.samples == bytes([10, 10, 10, 200, 200, 200])

    def test_bad_magic(self):
        with pytest.raises(NotABmpError):
            decode_bmp(b"PNthis is not a bitmap at all, honestly")

    def test_truncated_header(self):
        # magic alone is present, the rest of the header is missing
        with pytest.raises(CorruptBmpError):
            decode_bmp(b"BM")

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            PixelBuffer(0, 5, 3, b"").validate()
        with pytest.raises(InvalidDimensionsError):
            encode_bmp(PixelBuffer(0, 5, 3, b""))

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            PixelBuffer(2, 2, 3, b"\x00" * 11).validate()

    def test_unsupported_bit_depth(self):
        blob = bytearray(encode_bmp(WHITE_1X1))
        struct.pack_into("<H", blob, 28, 8)  # bits-per-pixel field
        with pytest.raises(UnsupportedBmpError):
            decode_bmp(bytes(blob))

    def test_unsupported_compression(self):
        blob = bytearray(encode_bmp(WHITE_1X1))
        struct.pack_into("<I", blob, 30, 1)  # compression field: RLE8
        with pytest.raises(UnsupportedBmpError):
            decode_bmp(bytes(blob))

    def test_truncated_pixels(self):
        blob = encode_bmp(PixelBuffer(2, 2, 3, bytes(range(12))))
        with pytest.raises(CorruptBmpError):
            decode_bmp(blob[:-3])

    def test_bottom_up_row_order(self):
        # top row red, bottom row blue; the file stores bottom first
        buf = PixelBuffer(1, 2, 3, bytes([255, 0, 0, 0, 0, 255]))
        blob = encode_bmp(buf)
        # pixel array starts at offset 54; rows are BGR
        assert blob[54:57] == bytes([255, 0, 0])  # blue row first
        assert blob[58:61] == bytes([0, 0, 255])  # red row last
        assert decode_bmp(blob) == buf


def reference_bmp(buf, top_down=False):
    """The BMP file for buf, written pixel by pixel with struct alone;
    its rows run bottom-up, or top-down with a negative height."""
    w, h, c = buf.width, buf.height, buf.channels
    row = (3 * w + 3) // 4 * 4
    out = bytearray(struct.pack("<2sIHHI", b"BM", 54 + row * h, 0, 0, 54))
    out += struct.pack("<IiiHHIIiiII", 40, w, -h if top_down else h, 1, 24,
                       0, row * h, 2835, 2835, 0, 0)
    for y in range(h) if top_down else reversed(range(h)):
        for x in range(w):
            pixel = buf.samples[(y * w + x) * c:(y * w + x + 1) * c]
            r, g, b = pixel if c == 3 else pixel * 3
            out += struct.pack("<BBB", b, g, r)
        out += bytes(row - 3 * w)
    return bytes(out)


def test_encode_bmp_matches_struct_writer_with_zero_padding():
    rng = random.Random(11)
    for w in range(1, 9):  # 3 * w covers all four padding residues
        for h in range(1, 4):
            for c in (1, 3):
                buf = PixelBuffer(w, h, c, rng.randbytes(w * h * c))
                blob = encode_bmp(buf)
                assert blob == reference_bmp(buf), (w, h, c)
                row = (3 * w + 3) // 4 * 4
                for y in range(h):
                    start = 54 + y * row
                    assert blob[start + 3 * w:start + row] == \
                        bytes(row - 3 * w), (w, h, c, y)



def test_composed_paths_match_struct_writer():
    """The decompress path, delinearize then encode_bmp, writes the
    struct writer's file from a stream in every order, and the compress
    path, decode_bmp then linearize, gives back the stream from a
    bottom-up or a top-down file."""
    rng = random.Random(12)
    for mode in LinearizationMode:
        for w in range(1, 9):
            for h in range(1, 4):
                for c in (1, 3):
                    buf = PixelBuffer(w, h, c, rng.randbytes(w * h * c))
                    stream = linearize(buf, mode)
                    blob = reference_bmp(buf)
                    assert encode_bmp(delinearize(stream, mode, w, h, c)) \
                        == blob, (mode, w, h, c)
                    if c == 3:
                        for top_down in (False, True):
                            decoded = decode_bmp(reference_bmp(buf, top_down))
                            assert linearize(decoded, mode) == stream, \
                                (mode, w, h, top_down)
                            assert encode_bmp(decoded) == blob


@pytest.mark.parametrize("w,h,c", [(1, 1, 1), (5, 3, 3), (4, 2, 1),
                                   (7, 4, 3)])
def test_buffers_of_every_origin_agree(w, h, c):
    """A buffer built from its samples, one from delinearize in each
    mode and, for 3 channels, one from decode_bmp, all of the same
    pixels, agree in every way a caller can see."""
    samples = random.Random(w * h + c).randbytes(w * h * c)
    direct = PixelBuffer(w, h, c, samples)
    others = [delinearize(linearize(direct, mode), mode, w, h, c)
              for mode in LinearizationMode]
    if c == 3:
        others.append(decode_bmp(reference_bmp(direct)))
    for buf in others:
        assert buf == direct and direct == buf
        assert hash(buf) == hash(direct)
        assert buf.samples == direct.samples
        assert (buf.as_array() == direct.as_array()).all()
        assert buf.as_array().shape == (h, w, c)
    assert len({direct, *others}) == 1
    changed = PixelBuffer(w, h, c, bytes(b ^ 1 for b in direct.samples))
    assert all(buf != changed for buf in others)


def test_buffers_keep_no_view_of_mutable_input():
    direct = PixelBuffer(3, 2, 3, bytes(range(18)))
    samples = bytearray(range(18))
    built = PixelBuffer(3, 2, 3, samples)
    samples[:] = bytes(18)
    assert built == direct and hash(built) == hash(direct)
    blob = bytearray(reference_bmp(direct))
    from_file = decode_bmp(blob)
    blob[54:] = bytes(len(blob) - 54)
    assert from_file == direct
    for mode in LinearizationMode:
        stream = bytearray(linearize(direct, mode))
        for seq in (stream, memoryview(stream)):
            buf = delinearize(seq, mode, 3, 2, 3)
            stream[:] = bytes(18)
            assert buf == direct, mode
            stream[:] = linearize(direct, mode)


def test_image_paths_never_build_row_major_samples():
    """encode_bmp writes a delinearized buffer's raster straight from its
    stream, and linearize a decoded buffer's stream straight from its
    raster: neither builds the buffer's row-major samples.  delinearize
    wraps a bytes stream without copying it."""
    rng = random.Random(13)
    for c in (1, 3):
        buf = PixelBuffer(5, 3, c, rng.randbytes(15 * c))
        for mode in LinearizationMode:
            stream = linearize(buf, mode)
            wrapped = delinearize(stream, mode, 5, 3, c)
            assert wrapped._held is stream
            assert encode_bmp(wrapped) == reference_bmp(buf)
            assert wrapped._samples is None, (mode, c)
    decoded = decode_bmp(reference_bmp(buf))
    for mode in LinearizationMode:
        assert linearize(decoded, mode) == linearize(buf, mode)
        assert decoded._samples is None, mode


class TestLinearize:
    def test_row_major_is_identity(self):
        buf = PixelBuffer(3, 2, 1, bytes([1, 2, 3, 4, 5, 6]))
        assert linearize(buf, LinearizationMode.ROW_MAJOR) == buf.samples

    def test_zigzag_reverses_odd_rows(self):
        buf = PixelBuffer(3, 2, 1, bytes([1, 2, 3, 4, 5, 6]))
        assert linearize(buf, LinearizationMode.ZIGZAG) == \
            bytes([1, 2, 3, 6, 5, 4])

    def test_zigzag_keeps_pixels_interleaved(self):
        buf = PixelBuffer(2, 2, 3, bytes(range(12)))
        assert linearize(buf, LinearizationMode.ZIGZAG) == \
            bytes([0, 1, 2, 3, 4, 5, 9, 10, 11, 6, 7, 8])

    def test_channel_split_concatenates_planes(self):
        buf = PixelBuffer(1, 2, 3, bytes([1, 2, 3, 4, 5, 6]))
        assert linearize(buf, LinearizationMode.CHANNEL_SPLIT_ROW_MAJOR) == \
            bytes([1, 4, 2, 5, 3, 6])

    def test_channel_split_zigzag(self):
        buf = PixelBuffer(2, 2, 3, bytes(range(12)))
        # odd row flipped first, then planes split
        assert linearize(buf, LinearizationMode.CHANNEL_SPLIT_ZIGZAG) == \
            bytes([0, 3, 9, 6, 1, 4, 10, 7, 2, 5, 11, 8])

    def test_zigzag_inverse_example(self):
        buf = delinearize(bytes([1, 2, 3, 6, 5, 4]),
                          LinearizationMode.ZIGZAG, 3, 2, 1)
        assert buf.samples == bytes([1, 2, 3, 4, 5, 6])

    def test_length_mismatch_rejected(self):
        for mode in LinearizationMode:
            with pytest.raises(InvalidGeometryError):
                delinearize(b"\x00" * 5, mode, 2, 2, 1)

    def test_mode_labels(self):
        assert sorted(MODE_BY_LABEL) == \
            ["row", "split-row", "split-zigzag", "zigzag"]
        for label, mode in MODE_BY_LABEL.items():
            assert mode.label == label


def stream_index(mode, w, h, c, y, x, k):
    """Where linearize puts sample k of pixel (x, y)."""
    zigzag = mode in (LinearizationMode.ZIGZAG,
                      LinearizationMode.CHANNEL_SPLIT_ZIGZAG)
    col = w - 1 - x if zigzag and y % 2 else x
    if mode in (LinearizationMode.CHANNEL_SPLIT_ROW_MAJOR,
                LinearizationMode.CHANNEL_SPLIT_ZIGZAG):
        return k * h * w + y * w + col
    return (y * w + col) * c + k


@pytest.mark.parametrize("w,h,c", [(7, 1, 3), (5, 1, 1), (4, 5, 3),
                                   (3, 3, 1), (6, 7, 3)])
def test_delinearize_matches_per_index_inverse(w, h, c):
    stream = random.Random(w * 100 + h * 10 + c).randbytes(w * h * c)
    for mode in LinearizationMode:
        expected = bytearray(w * h * c)
        for y in range(h):
            for x in range(w):
                for k in range(c):
                    expected[(y * w + x) * c + k] = \
                        stream[stream_index(mode, w, h, c, y, x, k)]
        want = PixelBuffer(w, h, c, bytes(expected))
        assert delinearize(stream, mode, w, h, c) == want, mode
        assert delinearize(bytearray(stream), mode, w, h, c) == want, mode
        assert linearize(want, mode) == stream, mode


@pytest.mark.parametrize("w,h,c", [(1, 2, 2), (-1, -1, 3), (0, 5, 3)])
def test_delinearize_checks_geometry_in_every_mode(w, h, c):
    # the first stream has the length w * h * c, so only the geometry
    # check can reject it; the second misfits as well
    for mode in LinearizationMode:
        for stream in (bytes(max(w * h * c, 0)), b"\x00" * 7):
            with pytest.raises(InvalidDimensionsError):
                delinearize(stream, mode, w, h, c)


def pixel_buffers(max_dim=64):
    def build(w, h, c, seed):
        samples = random.Random(seed).randbytes(w * h * c)
        return PixelBuffer(w, h, c, samples)
    return st.builds(build, st.integers(1, max_dim),
                     st.integers(1, max_dim), st.sampled_from([1, 3]),
                     st.integers(0, 2**32))


@given(pixel_buffers(max_dim=16), st.sampled_from(list(LinearizationMode)))
@settings(max_examples=200, deadline=None)
def test_delinearize_inverts_linearize(buf, mode):
    stream = linearize(buf, mode)
    assert delinearize(stream, mode, buf.width, buf.height,
                       buf.channels) == buf


@given(pixel_buffers(max_dim=16), st.sampled_from(list(LinearizationMode)))
@settings(max_examples=100, deadline=None)
def test_linearize_is_a_permutation(buf, mode):
    stream = linearize(buf, mode)
    assert len(stream) == len(buf.samples)
    assert sorted(stream) == sorted(buf.samples)


@given(pixel_buffers(max_dim=16))
@settings(max_examples=100, deadline=None)
def test_codec_identity_on_buffers(buf):
    out = decode_bmp(encode_bmp(buf))
    if buf.channels == 3:
        assert out == buf
    else:
        assert out.samples[::3] == buf.samples
