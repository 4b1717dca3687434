"""Grammar-based lossless image compression.

Re-Pair pair replacement applied to BMP pixel streams (or opaque byte
streams), with invertible linearization orders and a self-contained
container format.
"""

from .container import (
    CompressedArtifact,
    ImagePayload,
    RawPayload,
    deserialize,
    serialize,
)
from .errors import (
    CorruptBmpError,
    CorruptContainerError,
    EngineUnavailableError,
    InvalidDimensionsError,
    InvalidGeometryError,
    MalformedGrammarError,
    NotABmpError,
    OutputTooLargeError,
    RoundTripMismatchError,
    RpimError,
    UnrecognizedContainerError,
    UnsupportedBmpError,
)
from .image import (
    LinearizationMode,
    MODE_BY_LABEL,
    PixelBuffer,
    decode_bmp,
    delinearize,
    encode_bmp,
    linearize,
)
from .repair import (
    NONTERMINAL_BASE,
    Grammar,
    Rule,
    compress,
    expand,
)

__version__ = "0.1.0"

__all__ = [
    "CompressedArtifact",
    "CorruptBmpError",
    "CorruptContainerError",
    "EngineUnavailableError",
    "Grammar",
    "ImagePayload",
    "InvalidDimensionsError",
    "InvalidGeometryError",
    "LinearizationMode",
    "MODE_BY_LABEL",
    "MalformedGrammarError",
    "NONTERMINAL_BASE",
    "NotABmpError",
    "OutputTooLargeError",
    "PixelBuffer",
    "RawPayload",
    "RoundTripMismatchError",
    "RpimError",
    "Rule",
    "UnrecognizedContainerError",
    "UnsupportedBmpError",
    "compress",
    "decode_bmp",
    "delinearize",
    "deserialize",
    "encode_bmp",
    "expand",
    "linearize",
    "serialize",
    "__version__",
]
