"""Error codes and the exception used to carry them between layers.

Every public entry point of the library reports failures through an
integral :class:`ErrorCode`; ``OK`` is exactly zero.  Internal modules
raise :class:`TappError` and the API layer converts it back to a code.
"""

from __future__ import annotations

from enum import IntEnum


class ErrorCode(IntEnum):
    """Integral status codes returned by every library entry point.

    Values 1 and 2 are deliberately unused so that CLI exit codes can
    reserve them for numeric mismatch and usage errors respectively.
    """

    OK = 0
    ERR_PARSE = 3
    ERR_EXTENT_MISMATCH = 4
    ERR_OUTPUT_MISMATCH = 5
    ERR_ALIASING = 6
    ERR_UNSUPPORTED = 7
    ERR_DTYPE_MISMATCH = 8
    ERR_OUT_OF_BOUNDS = 9
    ERR_INVALID_HANDLE = 10
    ERR_KEY_NOT_FOUND = 11
    ERR_INTERNAL = 12


_MESSAGES = {
    ErrorCode.OK: "success",
    ErrorCode.ERR_PARSE: "malformed operation expression",
    ErrorCode.ERR_EXTENT_MISMATCH: "extents disagree for one label or shape",
    ErrorCode.ERR_OUTPUT_MISMATCH: "output tensor does not match its update operand",
    ErrorCode.ERR_ALIASING: "aliasing detected among output element addresses",
    ErrorCode.ERR_UNSUPPORTED: "operation outside the supported contraction classes",
    ErrorCode.ERR_DTYPE_MISMATCH: "incompatible element datatypes",
    ErrorCode.ERR_OUT_OF_BOUNDS: "addressable element outside the backing buffer",
    ErrorCode.ERR_INVALID_HANDLE: "invalid, destroyed, or foreign object handle",
    ErrorCode.ERR_KEY_NOT_FOUND: "no value stored under the requested key",
    ErrorCode.ERR_INTERNAL: "internal failure, such as running out of memory",
}


def error_string(code: int) -> str:
    """Plain-text description of ``code``; total over all values."""
    try:
        return _MESSAGES[ErrorCode(code)]
    except (TypeError, ValueError):
        return f"unknown error code {code}"


class TappError(Exception):
    """Internal failure carrying the :class:`ErrorCode` to report."""

    def __init__(self, code: ErrorCode, message: str | None = None):
        super().__init__(message or error_string(code))
        self.code = code
