"""The public surface: the names `import rpim` exports, and the demos that
use them."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

import rpim

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

PUBLIC = {
    # compression
    "compress", "expand", "Grammar", "Rule",
    "NONTERMINAL_BASE",
    # container
    "CompressedArtifact", "ImagePayload", "RawPayload", "serialize",
    "deserialize",
    # image codec and linearization
    "PixelBuffer", "LinearizationMode", "MODE_BY_LABEL", "decode_bmp",
    "encode_bmp", "linearize", "delinearize",
    # errors
    "RpimError", "CorruptBmpError", "CorruptContainerError",
    "InvalidDimensionsError", "InvalidGeometryError", "MalformedGrammarError",
    "NotABmpError", "OutputTooLargeError", "RoundTripMismatchError",
    "UnrecognizedContainerError", "UnsupportedBmpError",
    "EngineUnavailableError",
    "__version__",
}


def test_public_names_are_pinned():
    assert set(rpim.__all__) == PUBLIC
    assert len(rpim.__all__) == len(PUBLIC), "duplicate name in __all__"
    for name in rpim.__all__:
        assert hasattr(rpim, name), name


def test_demos_exist():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
