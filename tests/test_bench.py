"""Benchmark harness tests: corpus determinism, measurement, reporting."""

from __future__ import annotations

import random

import pytest

import rpim.bench as bench
from rpim.bench import (
    BenchRow,
    CORPUS_NAMES,
    DEFAULT_SEED,
    emit_report,
    generate_corpus,
    run_bench,
)
from rpim.errors import RoundTripMismatchError
from rpim.image import PixelBuffer, encode_bmp


class TestGenerateCorpus:
    def test_five_files_at_canonical_size(self, corpus_dir):
        files = sorted(p.name for p in corpus_dir.glob("*.bmp"))
        assert files == sorted(f"{n}.bmp" for n in CORPUS_NAMES)
        for path in corpus_dir.glob("*.bmp"):
            # 54 header bytes + 512 rows of 512*3 (already 4-aligned)
            assert path.stat().st_size == 786486

    def test_regeneration_is_byte_identical(self, corpus_dir, tmp_path):
        again = generate_corpus(tmp_path, DEFAULT_SEED)
        for path in again:
            assert path.read_bytes() == (corpus_dir / path.name).read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a = generate_corpus(tmp_path / "a", seed=1)
        b = generate_corpus(tmp_path / "b", seed=2)
        noise_a = next(p for p in a if p.stem == "noise")
        noise_b = next(p for p in b if p.stem == "noise")
        assert noise_a.read_bytes() != noise_b.read_bytes()

    def test_solid_and_noise_differ(self, corpus_dir):
        solid = (corpus_dir / "solid.bmp").read_bytes()
        noise = (corpus_dir / "noise.bmp").read_bytes()
        assert solid[54:57] != noise[54:57]


@pytest.fixture()
def tiny_bmp(tmp_path):
    rng = random.Random(7)
    samples = bytes(rng.randrange(4) for _ in range(16 * 16 * 3))
    path = tmp_path / "tiny.bmp"
    path.write_bytes(encode_bmp(PixelBuffer(16, 16, 3, samples)))
    return path


class TestRunBench:
    def test_rows_per_input(self, tiny_bmp):
        rows = run_bench([tiny_bmp])
        assert len(rows) == 5  # four modes plus the opaque-stream row
        modes = {r.mode for r in rows}
        assert modes == {"row", "zigzag", "split-row", "split-zigzag", "n/a"}
        for row in rows:
            assert row.name == "tiny"
            assert row.size_in == tiny_bmp.stat().st_size
            assert row.kind == ("opaque-stream" if row.mode == "n/a"
                                else "bmp")
            assert row.ratio == pytest.approx(row.size_out / row.size_in)

    def test_non_bmp_gets_only_stream_row(self, tmp_path):
        path = tmp_path / "blob.bmp"
        path.write_bytes(b"not a bitmap " * 30)
        rows = run_bench([path])
        assert len(rows) == 1
        assert rows[0].kind == "opaque-stream"
        assert rows[0].mode == "n/a"

    def test_empty_input_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            run_bench([path])

    def test_round_trip_mismatch_is_fatal(self, tiny_bmp, monkeypatch):
        # sabotage expansion: a corruption bug must abort, not report
        monkeypatch.setattr(bench, "expand",
                            lambda grammar, seq: [0] * (16 * 16 * 3))
        with pytest.raises(RoundTripMismatchError):
            run_bench([tiny_bmp])


def _row(name, mode, n=1000, out=500):
    kind = "bmp" if mode != "n/a" else "opaque-stream"
    return BenchRow(name, kind, mode, n, out, out / n)


class TestEmitReport:
    def test_empty_rows_header_only(self):
        assert emit_report([], "csv") == \
            "name,kind,mode,size_in,size_out,ratio"
        assert emit_report([], "table").split() == \
            ["name", "kind", "mode", "size_in", "size_out", "ratio"]

    def test_single_row_csv(self):
        text = emit_report([_row("a", "zigzag")], "csv")
        lines = text.split("\n")
        assert len(lines) == 2
        assert lines[1] == "a,bmp,zigzag,1000,500,0.5000"

    def test_rows_sorted_regardless_of_insertion_order(self):
        rows = [_row("b", "row"), _row("a", "zigzag"), _row("a", "n/a"),
                _row("b", "n/a"), _row("a", "row")]
        random.Random(3).shuffle(rows)
        text = emit_report(rows, "csv")
        keys = [tuple(line.split(",")[:3:2])
                for line in text.split("\n")[1:]]
        assert keys == sorted(keys)

    def test_table_aligns_columns(self):
        text = emit_report([_row("longname", "split-zigzag"),
                            _row("x", "row")], "table")
        lines = text.split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("name")
        # every data line parses into exactly 6 fields
        for line in lines[1:]:
            assert len(line.split()) == 6

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")
