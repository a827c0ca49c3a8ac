"""Foundational value types: datatypes, descriptors, views.

Tensors are described by a logical shape (``extents``), a physical
strided layout (``strides``, in element units, possibly negative or
zero) and an element datatype.  The memory location of element
``(i_1, ..., i_n)`` is ``base + sum(i_k * s_k)``.  A tensor with zero
modes is a scalar occupying exactly the element at ``base``.  Alpha and
beta are plain Python numbers; the engine's bind stage coerces them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ErrorCode, TappError

__all__ = [
    "DType",
    "TensorDesc",
    "TensorView",
    "column_major_strides",
    "dtype_promote",
    "reach",
    "validate_view",
]


class DType(Enum):
    """Element datatype: real or complex, 32- or 64-bit component width.

    ``is_complex``, ``width`` and ``np_dtype`` are plain member attributes,
    as execution reads them on every call."""

    R32 = "r32", False, 32, np.float32
    R64 = "r64", False, 64, np.float64
    C32 = "c32", True, 32, np.complex64
    C64 = "c64", True, 64, np.complex128

    # Members are singletons, so their identity is their value: a C-level
    # hash, where Enum's hashes the member's name in a Python call.
    __hash__ = object.__hash__

    def __new__(cls, name: str, is_complex: bool, width: int, np_type: type):
        member = object.__new__(cls)
        member._value_ = name
        member.is_complex = is_complex
        member.width = width
        member.np_dtype = np.dtype(np_type)
        return member

    @classmethod
    def from_name(cls, name: str) -> "DType":
        try:
            return cls(name.lower())
        except ValueError:
            raise TappError(
                ErrorCode.ERR_PARSE, f"unknown dtype name {name!r}"
            ) from None


def dtype_promote(a: DType, b: DType) -> DType:
    """Widths promote to the maximum; complexness is contagious."""
    if a is b:
        return a
    if a.is_complex or b.is_complex:
        return DType.C64 if max(a.width, b.width) == 64 else DType.C32
    return DType.R64 if max(a.width, b.width) == 64 else DType.R32


# Finite values of at least this magnitude round to infinity in float32
# (to nearest, ties to even), where numpy's cast would warn.
_F32_OVERFLOW = (2 - 2.0**-24) * 2.0**127


def _to_f32(x: float) -> float:
    if abs(x) >= _F32_OVERFLOW:
        return math.copysign(math.inf, x)
    return float(np.float32(x))


def round_to(value: float | complex, dtype: DType) -> float | complex:
    """Round ``value`` to ``dtype``'s precision, dropping an imaginary
    part when the target is real; beyond float32's range a 32-bit part
    becomes an infinity, without numpy's overflow warning."""
    if not dtype.is_complex:
        if isinstance(value, complex):
            value = value.real
        return float(value) if dtype.width == 64 else _to_f32(value)
    if dtype.width == 64:
        return complex(value)
    if abs(value) < _F32_OVERFLOW:  # both parts
        return complex(np.complex64(value))
    value = complex(value)
    return complex(_to_f32(value.real), _to_f32(value.imag))


def integral(value) -> int | None:
    """``value`` as a Python int if it is integral (2.0 is; 2.5 and "2"
    are not), else None."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


def integers(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` as Python ints; a value that is not integral is an error.
    Ints, bools and numpy integers convert in one C loop; any other value
    sends all of them through :func:`integral`."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # a value without __index__, such as 2.0, or not a sequence
        pass
    try:
        ints = tuple(integral(v) for v in values)
    except TypeError:  # not a sequence
        ints = (None,)
    if None in ints:
        raise TappError(ErrorCode.ERR_EXTENT_MISMATCH, f"{what} must be integers")
    return ints


_INT64_MAX = (1 << 63) - 1


def column_major_strides(extents: Sequence[int]) -> tuple[int, ...]:
    """Dense column-major strides ``s_k = prod(e_l for l < k)``; an extent
    below 1, which no descriptor accepts, counts as 1."""
    strides, acc = [], 1
    for e in extents:
        strides.append(acc)
        acc *= max(e, 1)
    return tuple(strides)


def reach(extents: Sequence[int], strides: Sequence[int]) -> tuple[int, int]:
    """Inclusive (lowest, highest) of ``sum(i_k * s_k)`` over all indices."""
    lo = hi = 0
    for e, s in zip(extents, strides):
        span = s * (e - 1)
        if span < 0:
            lo += span
        else:
            hi += span
    return lo, hi


@dataclass(frozen=True, init=False)
class TensorDesc:
    """Logical shape, strided physical layout and dtype of one operand.

    Descriptors compare, hash and pickle by value.  A dtype that is not a
    :class:`DType` is ERR_DTYPE_MISMATCH."""

    extents: tuple[int, ...]
    strides: tuple[int, ...]
    dtype: DType

    def __init__(self, extents: Sequence[int], strides: Sequence[int], dtype: DType):
        if not isinstance(dtype, DType):
            raise TappError(ErrorCode.ERR_DTYPE_MISMATCH, "dtype must be a DType")
        extents, strides = integers(extents, "extents"), integers(strides, "strides")
        if len(extents) != len(strides):
            raise TappError(
                ErrorCode.ERR_EXTENT_MISMATCH,
                "extent and stride lists differ in length",
            )
        if extents and min(extents) < 1:
            raise TappError(ErrorCode.ERR_EXTENT_MISMATCH, "extents must be >= 1")
        lo, hi = reach(extents, strides)
        if max(math.prod(extents), (hi - lo + 1) * dtype.np_dtype.itemsize) > _INT64_MAX:
            raise TappError(ErrorCode.ERR_OUT_OF_BOUNDS, "size or reach exceeds int64")
        # One write of every attribute, where the generated __init__ of a
        # frozen dataclass makes one object.__setattr__ call each; _reach
        # is read by every view check.
        vars(self).update(extents=extents, strides=strides, dtype=dtype, _reach=(lo, hi))

    @property
    def nmodes(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return math.prod(self.extents)

    @classmethod
    def column_major(cls, extents: Sequence[int], dtype: DType) -> "TensorDesc":
        """Dense layout with ``s_k = prod(e_l for l < k)``."""
        extents = integers(extents, "extents")
        return cls(extents, column_major_strides(extents), dtype)


class TensorView:
    """A descriptor bound to flat element storage at an element offset.

    The view checks its inputs, in this order: a buffer that is not a
    numpy array is ERR_DTYPE_MISMATCH, a base that is not integral
    (``"0"``, None, 2.5) ERR_OUT_OF_BOUNDS (2.0 and ``np.int64(2)`` bind
    as 2), a buffer that is not 1-D ERR_EXTENT_MISMATCH.  Execution checks
    the buffer's dtype and span against the plan.  The view grants no
    synchronization over the buffer.  Views compare by identity.  A plain
    class with slots, as every execute call binds several: a frozen
    dataclass takes several times longer to build.
    """

    __slots__ = ("desc", "buffer", "base")

    def __init__(self, desc: TensorDesc, buffer: np.ndarray, base: int = 0):
        if not isinstance(buffer, np.ndarray):
            raise TappError(
                ErrorCode.ERR_DTYPE_MISMATCH,
                "tensor data must be a numpy array or an (array, base) pair",
            )
        if type(base) is not int:
            base = integral(base)
            if base is None:
                raise TappError(ErrorCode.ERR_OUT_OF_BOUNDS, "base offset must be an integer")
        if buffer.ndim != 1:
            raise TappError(
                ErrorCode.ERR_EXTENT_MISMATCH, "tensor storage must be a flat 1-D buffer"
            )
        self.desc = desc
        self.buffer = buffer
        self.base = base

    def __repr__(self) -> str:
        return f"TensorView(desc={self.desc!r}, buffer={self.buffer!r}, base={self.base!r})"


# Read through their class, enum members cost about 0.15 us each in
# Python 3.11 (its metaclass defines __getattr__); every execute call
# checks four views.
_OK, _OUT_OF_BOUNDS = ErrorCode.OK, ErrorCode.ERR_OUT_OF_BOUNDS


def validate_view(view: TensorView) -> ErrorCode:
    """Check that every addressable offset lies inside the buffer."""
    lo, hi = view.desc._reach
    base = view.base
    if base + lo < 0 or base + hi >= len(view.buffer):
        return _OUT_OF_BOUNDS
    return _OK
