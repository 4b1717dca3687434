"""One sha256 over every container of seed 1 of the three perfbench
workloads, to show that a change leaves the containers byte-identical.

    python tools/container_digest.py

It walks images-structured, images-entropy and raw-streams, in that
order and in item order, as perfbench/workloads.py makes them (imported,
never changed).  Each item goes through the CLI's compress steps with
the public API: a BMP through decode_bmp and linearize in the item's
mode, a raw stream as it is, then compress with its default
min_frequency and serialize.  Every container, in order, is fed into
one sha256, and the line printed is the number of containers and the
hex digest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rpim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORDER = ("images-structured", "images-entropy", "raw-streams")
SEED = 1


def container(item) -> bytes:
    """The .rpim container `rpim compress` writes for item."""
    if item.mode is None:
        payload, stream = rpim.RawPayload(len(item.data)), item.data
    else:
        buf = rpim.decode_bmp(item.data)
        mode = rpim.MODE_BY_LABEL[item.mode]
        payload = rpim.ImagePayload(buf.width, buf.height, buf.channels,
                                    mode)
        stream = rpim.linearize(buf, mode)
    grammar, final = rpim.compress(stream)
    return rpim.serialize(rpim.CompressedArtifact(payload, grammar, final))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for name in ORDER:
        for item in WORKLOADS[name](SEED):
            digest.update(container(item))
            count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
