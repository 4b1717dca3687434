"""Command line behavior: exit codes, output formats, round trips."""

from __future__ import annotations

import random
import re

import pytest

from rpim import cli
from rpim.bench import CORPUS_NAMES
from rpim.cli import main
from rpim.container import CompressedArtifact, RawPayload, serialize
from rpim.image import PixelBuffer, decode_bmp, encode_bmp
from rpim.repair import compress

from conftest import BOMB, break_compiler


@pytest.fixture()
def small_bmp(tmp_path):
    rng = random.Random(11)
    samples = bytes(rng.randrange(8) for _ in range(24 * 16 * 3))
    path = tmp_path / "small.bmp"
    path.write_bytes(encode_bmp(PixelBuffer(24, 16, 3, samples)))
    return path


STATS_RE = re.compile(r"^in=\d+ out=\d+ ratio=(\d+\.\d{4}|inf) rules=\d+$")


class TestCompress:
    def test_bmp_round_trip_default_mode(self, small_bmp, tmp_path, capsys):
        packed = tmp_path / "small.rpim"
        restored = tmp_path / "restored.bmp"
        assert main(["compress", str(small_bmp), str(packed)]) == 0
        stats = capsys.readouterr().err.strip()
        assert STATS_RE.match(stats), stats
        assert int(stats.split()[0].split("=")[1]) == \
            small_bmp.stat().st_size
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == small_bmp.read_bytes()

    @pytest.mark.parametrize("mode", ["row", "zigzag", "split-row",
                                      "split-zigzag"])
    def test_every_mode_round_trips(self, small_bmp, tmp_path, mode):
        packed = tmp_path / "m.rpim"
        restored = tmp_path / "m.bmp"
        assert main(["compress", str(small_bmp), str(packed),
                     "--mode", mode]) == 0
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert decode_bmp(restored.read_bytes()) == \
            decode_bmp(small_bmp.read_bytes())

    def test_raw_round_trip(self, tmp_path):
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"some opaque stream " * 37)
        packed = tmp_path / "data.rpim"
        restored = tmp_path / "restored.bin"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == blob.read_bytes()

    def test_non_bmp_without_raw_hints_and_fails(self, tmp_path, capsys):
        path = tmp_path / "photo.jpg"
        path.write_bytes(b"\xff\xd8\xff\xe0 jpeg-ish bytes")
        assert main(["compress", str(path), str(tmp_path / "x.rpim")]) == 2
        err = capsys.readouterr().err
        assert "convert to 24-bit uncompressed BMP" in err

    def test_min_freq_too_low_is_usage_error(self, small_bmp, tmp_path):
        assert main(["compress", str(small_bmp), str(tmp_path / "x"),
                     "--min-freq", "1"]) == 1

    def test_min_freq_is_checked_before_the_input(self, tmp_path, capsys):
        # the mistake is in the command line, so it wins over bad input
        path = tmp_path / "notabmp.bin"
        path.write_bytes(b"not a bitmap")
        out = tmp_path / "out.rpim"
        assert main(["compress", str(path), str(out), "--min-freq", "1"]) == 1
        assert "--min-freq" in capsys.readouterr().err
        assert not out.exists()

    def test_min_freq_reaches_the_engine(self, tmp_path):
        data = b"abracadabra"
        blob = tmp_path / "data.bin"
        blob.write_bytes(data)
        packed = tmp_path / "data.rpim"
        assert main(["compress", str(blob), str(packed), "--raw",
                     "--min-freq", "3"]) == 0
        by_count = {count: serialize(CompressedArtifact(
            RawPayload(len(data)), *compress(data, count)))
            for count in (2, 3)}
        assert by_count[2] != by_count[3]
        assert packed.read_bytes() == by_count[3]

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["compress", str(tmp_path / "absent.bmp"),
                     str(tmp_path / "x.rpim")]) == 3

    def test_unknown_flag(self, small_bmp, tmp_path):
        assert main(["compress", str(small_bmp), str(tmp_path / "x"),
                     "--turbo"]) == 1

    def test_unknown_mode(self, small_bmp, tmp_path):
        assert main(["compress", str(small_bmp), str(tmp_path / "x"),
                     "--mode", "diagonal"]) == 1


class TestDecompress:
    def test_corrupt_container(self, tmp_path, capsys):
        bad = tmp_path / "bad.rpim"
        bad.write_bytes(b"RPIM\x01\x00garbage")
        assert main(["decompress", str(bad), str(tmp_path / "out")]) == 2

    def test_not_a_container(self, tmp_path):
        bad = tmp_path / "bad.rpim"
        bad.write_bytes(b"ZIP!")
        assert main(["decompress", str(bad), str(tmp_path / "out")]) == 2

    def test_truncated_container(self, small_bmp, tmp_path):
        packed = tmp_path / "ok.rpim"
        assert main(["compress", str(small_bmp), str(packed)]) == 0
        packed.write_bytes(packed.read_bytes()[:-4])
        assert main(["decompress", str(packed), str(tmp_path / "out")]) == 2


    def test_corrupt_container_leaves_output_alone(self, tmp_path):
        bad = tmp_path / "bad.rpim"
        bad.write_bytes(b"RPIM\x01\x00garbage")
        absent = tmp_path / "absent.bin"
        assert main(["decompress", str(bad), str(absent)]) == 2
        existing = tmp_path / "existing.bin"
        existing.write_bytes(b"keep me")
        assert main(["decompress", str(bad), str(existing)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["bad.rpim", "existing.bin"]
        assert existing.read_bytes() == b"keep me"

    def test_decompression_bomb_exits_2(self, tmp_path):
        bomb = tmp_path / "bomb.rpim"
        bomb.write_bytes(BOMB)
        out = tmp_path / "out"
        assert main(["decompress", str(bomb), str(out)]) == 2
        assert not out.exists()

    def test_max_output_limit(self, tmp_path):
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"0123456789" * 10)
        packed = tmp_path / "data.rpim"
        out = tmp_path / "out.bin"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        assert main(["decompress", str(packed), str(out),
                     "--max-output", "99"]) == 2
        assert not out.exists()
        assert main(["decompress", str(packed), str(out),
                     "--max-output", "100"]) == 0
        assert out.read_bytes() == blob.read_bytes()

    def test_negative_max_output_is_a_usage_error(self, tmp_path, capsys):
        # the mistake is in the command line, not in the container
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"0123456789" * 10)
        packed = tmp_path / "data.rpim"
        out = tmp_path / "out.bin"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        capsys.readouterr()
        assert main(["decompress", str(packed), str(out),
                     "--max-output", "-5"]) == 1
        assert "--max-output" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch,
                                                  command):
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"abcabcabc" * 9)
        packed = tmp_path / "data.rpim"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        source = blob if command == "compress" else packed
        out = tmp_path / "out"
        out.write_bytes(b"previous")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", refuse)
        args = [command, str(source), str(out)] + \
            (["--raw"] if command == "compress" else [])
        assert main(args) == 3
        assert out.read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["data.bin", "data.rpim", "out"]

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_no_compiler_exits_4(self, tmp_path, monkeypatch, capsys,
                                 command):
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"abcabcabc" * 9)
        packed = tmp_path / "data.rpim"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        source = blob if command == "compress" else packed
        out = tmp_path / "out"
        capsys.readouterr()

        break_compiler(monkeypatch, tmp_path)
        args = [command, str(source), str(out)] + \
            (["--raw"] if command == "compress" else [])
        assert main(args) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rpim: "), lines
        assert "missing-cc" in lines[0]
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cache", "data.bin", "data.rpim"]

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    def test_failed_allocation_exits_2(self, tmp_path, monkeypatch, capsys,
                                       command):
        # such as rpim_expand's malloc for BOMB under --max-output 2**41;
        # the failure is stood in for, since where memory is overcommitted
        # a real 1 TiB allocation would succeed and fill it
        blob = tmp_path / "data.bin"
        blob.write_bytes(b"abcabcabc" * 9)
        packed = tmp_path / "data.rpim"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        source = blob if command == "compress" else packed
        out = tmp_path / "out"
        capsys.readouterr()

        def refuse(*args):
            raise MemoryError("C engine could not allocate memory")

        monkeypatch.setattr(cli, "compress" if command == "compress"
                            else "expand", refuse)
        args = [command, str(source), str(out)] + \
            (["--raw"] if command == "compress" else [])
        assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["rpim: C engine could not allocate memory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["data.bin", "data.rpim"]


class TestInspect:
    def test_empty_raw_exact_line(self, tmp_path, capsys):
        blob = tmp_path / "empty.bin"
        blob.write_bytes(b"")
        packed = tmp_path / "empty.rpim"
        assert main(["compress", str(blob), str(packed), "--raw"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(packed)]) == 0
        assert capsys.readouterr().out.strip() == \
            "kind=raw rules=0 seq=0 expanded=0"

    def test_image_line_reports_geometry(self, small_bmp, tmp_path, capsys):
        packed = tmp_path / "img.rpim"
        assert main(["compress", str(small_bmp), str(packed),
                     "--mode", "split-row"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(packed)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("kind=image width=24 height=16 channels=3 "
                              "mode=split-row rules=")
        assert out.endswith("expanded=1152")  # 24*16*3

    def test_non_container(self, small_bmp):
        assert main(["inspect", str(small_bmp)]) == 2

    def test_no_output_limit(self, tmp_path, capsys):
        # inspect expands nothing, so a well-formed 2**40-byte container
        # is reported, not refused
        bomb = tmp_path / "big.rpim"
        bomb.write_bytes(BOMB)
        assert main(["inspect", str(bomb)]) == 0
        assert capsys.readouterr().out.strip() == \
            f"kind=raw rules=40 seq=1 expanded={1 << 40}"


class TestBench:
    def test_missing_dir_is_io_error(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "nowhere")]) == 3

    def test_csv_over_prebuilt_dir(self, small_bmp, tmp_path, capsys):
        # one small image in the corpus dir keeps this fast; the real
        # five-image corpus is exercised by the acceptance tests
        lines_expected = 1 + 4 + 1  # header + four modes + stream row
        assert main(["bench", str(small_bmp.parent),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,kind,mode,size_in,size_out,ratio"
        assert len(lines) == lines_expected
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_generate_writes_the_default_corpus(self, corpus_dir, tmp_path,
                                                monkeypatch):
        # the corpus_dir fixture holds the DEFAULT_SEED corpus; nothing
        # is compressed here
        benched = []
        monkeypatch.setattr(cli, "run_bench",
                            lambda inputs: benched.extend(inputs) or [])
        out = tmp_path / "corpus"
        assert main(["bench", str(out), "--generate"]) == 0
        assert [path.name for path in benched] \
            == sorted(f"{name}.bmp" for name in CORPUS_NAMES)
        for path in benched:
            assert path.read_bytes() == (corpus_dir / path.name).read_bytes()


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "compress" in capsys.readouterr().out
