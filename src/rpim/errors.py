"""Exception taxonomy shared across the package.

Every data-dependent failure raises a subclass of RpimError so callers can
distinguish "your input is bad" from genuine bugs or I/O trouble (plain
OSError is left alone).  EngineUnavailableError is not about the input:
the C engine that does the work could not be built or loaded.
"""


class RpimError(Exception):
    """Base class for all errors raised on invalid input data."""


class NotABmpError(RpimError):
    """The byte stream does not start like a BMP file at all."""


class UnsupportedBmpError(RpimError):
    """A real BMP, but not the 24-bit uncompressed flavour we handle."""


class CorruptBmpError(RpimError):
    """A BMP whose header fields and payload do not add up."""


class InvalidDimensionsError(RpimError):
    """Pixel buffer geometry is unusable (zero extent, bad channel count...)."""


class InvalidGeometryError(RpimError):
    """A sample sequence does not match the geometry it claims to fill."""


class UnrecognizedContainerError(RpimError):
    """Missing magic or unknown version: not one of our containers."""


class CorruptContainerError(RpimError):
    """Recognized container whose body is truncated or inconsistent."""


class OutputTooLargeError(CorruptContainerError):
    """A container that declares more expanded bytes than the caller allows."""


class MalformedGrammarError(RpimError):
    """Grammar violates structural rules: dangling or non-topological refs."""


class RoundTripMismatchError(RpimError):
    """Decompressed output differs from the original input.

    Raised by the bench harness before a result row would be recorded; it
    always indicates a bug, never a property of the input.
    """


class EngineUnavailableError(RuntimeError):
    """The C engine could not be built or loaded; the message names why."""
