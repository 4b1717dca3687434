"""Command line interface.

Four subcommands: compress, decompress, inspect, bench.  Exit codes are
stable so scripts can branch on them: 0 success, 1 usage error, 2 bad or
unsupported input data, 3 filesystem error, 4 the C engine could not be
built or loaded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bench import emit_report, generate_corpus, run_bench
from .container import (
    MAX_OUTPUT,
    CompressedArtifact,
    ImagePayload,
    RawPayload,
    deserialize,
    serialize,
)
from .errors import (
    EngineUnavailableError,
    NotABmpError,
    RpimError,
    UnsupportedBmpError,
)
from .image import (
    MODE_BY_LABEL,
    decode_bmp,
    delinearize,
    encode_bmp,
    linearize,
)
from .repair import compress, expand

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_ENGINE = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _byte_limit(text: str) -> int:
    """--max-output's value: an integer of 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer of 0 or more, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="rpim",
                     description="grammar-based image compressor")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("compress", help="compress a BMP or raw byte stream")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--mode", choices=sorted(MODE_BY_LABEL),
                   default="zigzag",
                   help="pixel linearization order (default: zigzag)")
    p.add_argument("--raw", action="store_true",
                   help="treat the input as an opaque byte stream")
    p.add_argument("--min-freq", type=int, default=2, metavar="N",
                   help="minimum pair frequency worth a rule (default: 2)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="restore a compressed container")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--max-output", type=_byte_limit, default=MAX_OUTPUT,
                   metavar="BYTES",
                   help="refuse containers that expand to more than BYTES "
                        f"(default: {MAX_OUTPUT}, 1 GiB)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("inspect", help="print container metadata")
    p.add_argument("input", type=Path)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", help="run the benchmark corpus")
    p.add_argument("corpus_dir", type=Path)
    p.add_argument("--generate", action="store_true",
                   help="write the synthetic corpus into corpus_dir first")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=_cmd_bench)

    return parser


def _cmd_compress(args) -> int:
    data = args.input.read_bytes()
    if args.raw:
        payload = RawPayload(len(data))
        stream = data
    else:
        try:
            buf = decode_bmp(data)
        except (NotABmpError, UnsupportedBmpError) as exc:
            print(f"rpim: {args.input}: {exc}; convert to 24-bit "
                  "uncompressed BMP or pass --raw", file=sys.stderr)
            return EXIT_DATA
        mode = MODE_BY_LABEL[args.mode]
        payload = ImagePayload(buf.width, buf.height, buf.channels, mode)
        stream = linearize(buf, mode)
    grammar, seq = compress(stream, args.min_freq)
    blob = serialize(CompressedArtifact(payload, grammar, seq))
    _write_atomic(args.output, blob)
    ratio = len(blob) / len(data) if data else float("inf")
    print(f"in={len(data)} out={len(blob)} ratio={ratio:.4f} "
          f"rules={len(grammar)}", file=sys.stderr)
    return EXIT_OK


def _cmd_decompress(args) -> int:
    artifact = deserialize(args.input.read_bytes(), args.max_output)
    data = expand(artifact.grammar, artifact.sequence)
    payload = artifact.payload
    if isinstance(payload, RawPayload):
        out = data
    else:
        buf = delinearize(data, payload.mode, payload.width,
                          payload.height, payload.channels)
        out = encode_bmp(buf)
    _write_atomic(args.output, out)
    return EXIT_OK


def _write_atomic(path: Path, data: bytes) -> None:
    """Write data to path so that path holds either what it held before or
    all of data: write a temporary file beside it, then rename it over."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    handle = open(temporary, "xb")
    try:
        with handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _cmd_inspect(args) -> int:
    # inspect expands nothing, so no output limit applies
    artifact = deserialize(args.input.read_bytes(), max_output=math.inf)
    rules = len(artifact.grammar)
    seq = len(artifact.sequence)
    expanded = artifact.expanded_length
    payload = artifact.payload
    if isinstance(payload, RawPayload):
        print(f"kind=raw rules={rules} seq={seq} expanded={expanded}")
    else:
        print(f"kind=image width={payload.width} height={payload.height} "
              f"channels={payload.channels} mode={payload.mode.label} "
              f"rules={rules} seq={seq} expanded={expanded}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.generate:
        generate_corpus(args.corpus_dir)
    if not args.corpus_dir.is_dir():
        print(f"rpim: {args.corpus_dir}: not a directory (use --generate "
              "to create the corpus)", file=sys.stderr)
        return EXIT_IO
    inputs = sorted(args.corpus_dir.glob("*.bmp"))
    rows = run_bench(inputs)
    print(emit_report(rows, args.format))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help exits 0, errors exit 1
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except ValueError:
        return _report(EXIT_USAGE)
    except RpimError:
        return _report(EXIT_DATA)
    except OSError:
        return _report(EXIT_IO)
    except EngineUnavailableError:
        return _report(EXIT_ENGINE)


def _report(code: int) -> int:
    exc = sys.exc_info()[1]
    print(f"rpim: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
