"""Public object layer: handles, executors, descriptors, execution.

Every entry point is named ``tapp_<verb>_<object>`` and reports status
through the integral :class:`ErrorCode` contract (``OK`` is zero).
Creation calls return the created object on success and an ErrorCode on
failure; pure-action calls return an ErrorCode.  All objects carry a
key-value store reachable through :func:`tapp_vkv_set` /
:func:`tapp_vkv_get`, and objects are only valid together with the
handle that created them.

Each handle keeps the plans of its last 64 distinct layouts in a
``functools.lru_cache``, least recently used dropped first: a descriptor
created for a layout (the operation kind, the label lists, the tensor
descriptors and the compute dtype) already planned under the same handle
shares that plan, which is immutable.  Each handle also keeps its last
256 distinct validated tensor descriptors, by dtype, extents and strides
as given: a tensor info created for an equal layout is a new
:class:`TensorInfo` that shares the descriptor, which is immutable too,
so a repeated create skips its validation.  A create that fails is never
cached, so it fails again with the same code; destroying the handle frees
its plans and descriptors.  A create that fails on a live handle leaves
its reason in the handle's ``detail``.

Execution is synchronous; the executor argument selects no resources in
this single-backend implementation but is validated and recorded in the
status record.
"""

from __future__ import annotations

import functools
import threading
from typing import Sequence

from . import engine
from .core import DType, TensorDesc, TensorView, integral
from .engine import StatusRecord
from .errors import ErrorCode, TappError, error_string
from .labels import LabelSpec

__all__ = [
    "Handle",
    "Executor",
    "TensorInfo",
    "OperationDescriptor",
    "VKVStore",
    "StatusRecord",
    "ErrorCode",
    "tapp_create_handle",
    "tapp_destroy_handle",
    "tapp_get_default_executor",
    "tapp_create_tensor_info",
    "tapp_create_contraction",
    "tapp_create_binary_op",
    "tapp_create_unary_op",
    "tapp_execute_product",
    "tapp_execute_binary",
    "tapp_execute_unary",
    "tapp_create_vkv",
    "tapp_vkv_set",
    "tapp_vkv_get",
    "tapp_error_string",
]

def _key(key) -> int:
    """``key`` as a Python int (2.0 and np.int64(2) are 2); a key that is
    not a non-negative integer names no value: ERR_KEY_NOT_FOUND."""
    as_int = integral(key)
    if as_int is None or as_int < 0:
        raise TappError(ErrorCode.ERR_KEY_NOT_FOUND, "keys are non-negative integers")
    return as_int


class VKVStore:
    """Mapping from non-negative integer keys to opaque byte strings."""

    def __init__(self):
        self._values: dict[int, bytes] = {}
        self._lock = threading.Lock()

    def set(self, key: int, value: bytes) -> None:
        """Store a copy of a bytes-like ``value``; any other value, such
        as an int (which ``bytes`` would read as a length), is
        ERR_DTYPE_MISMATCH before anything is allocated."""
        key = _key(key)
        try:
            value = bytes(memoryview(value))
        except (TypeError, ValueError, BufferError):
            raise TappError(ErrorCode.ERR_DTYPE_MISMATCH, "value must be bytes-like") from None
        with self._lock:
            self._values[key] = value

    def get(self, key: int) -> bytes:
        key = _key(key)
        with self._lock:
            try:
                return self._values[key]
            except KeyError:
                raise TappError(ErrorCode.ERR_KEY_NOT_FOUND) from None


# The most plans a handle keeps for reuse.  A plan takes memory in the
# number of modes, not of elements.
_PLAN_CACHE_SIZE = 64

# The most tensor descriptors a handle keeps for reuse: the four of each
# plan it keeps.  A descriptor takes memory in the number of modes.
_DESC_CACHE_SIZE = 4 * _PLAN_CACHE_SIZE


def _desc(dtype: DType, extents: tuple, strides: tuple | None) -> TensorDesc:
    """The validated descriptor of a layout, made from its cache key alone:
    dense column-major where ``strides`` is None.  ``TensorDesc`` is looked
    up at each call, where tests patch it."""
    if strides is None:
        return TensorDesc.column_major(extents, dtype)
    return TensorDesc(extents, strides, dtype)


def _plan(kind: str, labels: tuple, descs: tuple, compute_dtype):
    """The plan of a ``kind`` operation, made from its cache key alone.
    The planners are looked up on ``engine`` at each call, where tests and
    the benchmark's tracer patch them."""
    if kind == "contraction":
        la, lb, lc, ld = labels
        return engine.make_plan(LabelSpec.of(la, lb, ld, lc), *descs, compute_dtype)
    planner = engine.make_binary_plan if kind == "binary" else engine.make_unary_plan
    return planner(*(x for pair in zip(labels, descs) for x in pair))


class Handle:
    """Root object owning all other library objects.

    ``detail`` is the reason for the code of the handle's most recent
    failed create: the library's message, or the code's string for a
    failure the call finds itself (a foreign tensor info, a wrong
    ``nmodes``, a dtype that is not a DType).  A successful create leaves
    it as it was.  Like ``errno``, it is one value per handle: across
    threads, the last failure written wins.
    """

    def __init__(self):
        self.vkv = VKVStore()
        self.detail = ""
        self._alive = True
        self._default_executor = Executor(self)
        self._plans = functools.lru_cache(_PLAN_CACHE_SIZE)(_plan)
        self._descs = functools.lru_cache(_DESC_CACHE_SIZE)(_desc)

    @property
    def alive(self) -> bool:
        return self._alive

    def _destroy(self) -> None:
        self._alive = False
        self._plans.cache_clear()
        self._descs.cache_clear()


class Executor:
    """An execution resource; the reference backend runs serially."""

    def __init__(self, handle: Handle):
        self.handle = handle
        self.vkv = VKVStore()


class TensorInfo:
    """A tensor descriptor owned by a handle."""

    def __init__(self, handle: Handle, desc: TensorDesc):
        self.handle = handle
        self.desc = desc
        self.vkv = VKVStore()


class OperationDescriptor:
    """An immutable, reusable planned operation owned by a handle."""

    def __init__(self, handle: Handle, kind: str, plan):
        self.handle = handle
        self.kind = kind
        self.plan = plan
        self.vkv = VKVStore()


def _internal(err: Exception) -> ErrorCode:
    """ERR_INTERNAL for an exception that is not a TappError, logged with
    its traceback under the ``tapp`` logger."""
    import logging  # only on this path: importing it costs milliseconds

    logging.getLogger("tapp").error("tapp call failed", exc_info=err)
    return ErrorCode.ERR_INTERNAL


def tapp_create_handle() -> Handle:
    return Handle()


def tapp_destroy_handle(handle) -> ErrorCode:
    """Invalidate ``handle``; all objects created under it become invalid."""
    if not isinstance(handle, Handle) or not handle.alive:
        return ErrorCode.ERR_INVALID_HANDLE
    handle._destroy()
    return ErrorCode.OK


def _live_handle(handle) -> bool:
    return isinstance(handle, Handle) and handle._alive  # the flag: the property is a call more


def _failed(handle: Handle, code: ErrorCode, reason: str = "") -> ErrorCode:
    """``code``, after keeping ``reason``, by default the code's string,
    as the live ``handle``'s ``detail``."""
    handle.detail = reason or error_string(code)
    return code


def tapp_get_default_executor(handle) -> Executor | ErrorCode:
    """The constant executor of ``handle``, usable without setup."""
    if not _live_handle(handle):
        return ErrorCode.ERR_INVALID_HANDLE
    return handle._default_executor


def tapp_create_tensor_info(
    handle,
    dtype: DType,
    nmodes: int,
    extents: Sequence[int],
    strides: Sequence[int] | None = None,
) -> TensorInfo | ErrorCode:
    """Describe a tensor's shape, layout and dtype.

    ``strides`` defaults to the dense column-major layout; negative and
    zero strides are accepted.  The handle's descriptor of an equal layout
    is shared, made on a miss; a key that cannot be hashed (an extent that
    is a 0-d array) is built without the cache.
    """
    if not _live_handle(handle):
        return ErrorCode.ERR_INVALID_HANDLE
    if not isinstance(dtype, DType):
        return _failed(handle, ErrorCode.ERR_DTYPE_MISMATCH)
    try:
        if nmodes != len(extents):
            return _failed(handle, ErrorCode.ERR_EXTENT_MISMATCH)
        if strides is not None and nmodes != len(strides):
            return _failed(
                handle, ErrorCode.ERR_EXTENT_MISMATCH, "extent and stride lists differ in length"
            )
        key = dtype, tuple(extents), None if strides is None else tuple(strides)
        try:
            desc = handle._descs(*key)
        except TypeError:  # an unhashable key part, or one raised in validation
            desc = _desc(*key)
    except TypeError:  # extents or strides that are not sequences
        return _failed(handle, ErrorCode.ERR_EXTENT_MISMATCH)
    except TappError as err:
        return _failed(handle, err.code, str(err))
    except Exception as err:  # such as MemoryError: a code all the same
        return _failed(handle, _internal(err))
    return TensorInfo(handle, desc)


def _owned(handle: Handle, *infos) -> bool:
    return all(isinstance(i, TensorInfo) and i.handle is handle for i in infos)


def _label_tuples(*labels) -> tuple[tuple, ...]:
    """Each label string or sequence as a tuple; anything else is ERR_PARSE."""
    try:
        return tuple(map(tuple, labels))
    except TypeError:
        raise TappError(ErrorCode.ERR_PARSE, "labels must be sequences") from None


def _create(
    handle, infos, kind: str, labels, compute_dtype=None
) -> OperationDescriptor | ErrorCode:
    """Check ``handle`` and ``infos``, then wrap the plan the handle holds
    for the same kind, labels, descriptors and ``compute_dtype``, made on a
    miss; a key that cannot be hashed (a label that is a list) is planned
    without the cache.  A TappError becomes its code, any other exception
    ERR_INTERNAL; a live handle keeps the reason of either."""
    if not _live_handle(handle):
        return ErrorCode.ERR_INVALID_HANDLE
    if not _owned(handle, *infos):
        return _failed(handle, ErrorCode.ERR_INVALID_HANDLE)
    try:
        key = kind, _label_tuples(*labels), tuple([i.desc for i in infos]), compute_dtype
        try:
            plan = handle._plans(*key)
        except TypeError:  # an unhashable key part, or one raised in planning
            plan = _plan(*key)
        return OperationDescriptor(handle, kind, plan)
    except TappError as err:
        return _failed(handle, err.code, str(err))
    except Exception as err:  # such as MemoryError: a code all the same
        return _failed(handle, _internal(err))


def tapp_create_contraction(
    handle,
    info_a,
    labels_a: Sequence[str] | str,
    info_b,
    labels_b: Sequence[str] | str,
    info_c,
    labels_c: Sequence[str] | str,
    info_d,
    labels_d: Sequence[str] | str,
    compute_dtype: DType | None = None,
) -> OperationDescriptor | ErrorCode:
    """Plan ``D := alpha*A B + beta*C`` over the given descriptors."""
    return _create(
        handle, (info_a, info_b, info_c, info_d), "contraction",
        (labels_a, labels_b, labels_c, labels_d), compute_dtype,
    )


def tapp_create_binary_op(
    handle,
    info_a,
    labels_a: Sequence[str] | str,
    info_b,
    labels_b: Sequence[str] | str,
    info_c,
    labels_c: Sequence[str] | str,
) -> OperationDescriptor | ErrorCode:
    """Plan ``C := alpha*A + beta*B``."""
    return _create(
        handle, (info_a, info_b, info_c), "binary", (labels_a, labels_b, labels_c)
    )


def tapp_create_unary_op(
    handle,
    info_a,
    labels_a: Sequence[str] | str,
    info_b,
    labels_b: Sequence[str] | str,
) -> OperationDescriptor | ErrorCode:
    """Plan ``B := alpha*A`` (permutation, diagonal, reduction)."""
    return _create(handle, (info_a, info_b), "unary", (labels_a, labels_b))


def _as_view(desc: TensorDesc, data) -> TensorView:
    """Bind a descriptor to a flat numpy array or an ``(array, base)`` pair;
    the view checks both."""
    buffer, base = data if isinstance(data, tuple) and len(data) == 2 else (data, 0)
    return TensorView(desc, buffer, base)


def _execute(op, executor, kind: str, status_out, run) -> ErrorCode:
    """Check ``op``, ``executor`` and ``status_out`` (None or a
    StatusRecord), run ``run(op.plan)`` and report its status; a
    ``TappError`` from binding or running becomes its code, with its
    message as the status's ``detail``, any other exception ERR_INTERNAL."""
    if (
        not isinstance(op, OperationDescriptor)
        or not op.handle._alive  # the flag itself: the property is one call more
        or op.kind != kind
        or not isinstance(executor, Executor)
        or executor.handle is not op.handle
        or not (status_out is None or isinstance(status_out, StatusRecord))
    ):
        return ErrorCode.ERR_INVALID_HANDLE
    try:
        status = run(op.plan)
    except TappError as err:
        status = StatusRecord(error=err.code, detail=str(err))
    except Exception as err:  # such as MemoryError: a code all the same
        status = StatusRecord(error=_internal(err))
    if status_out is not None:
        status.executor = executor
        vars(status_out).update(vars(status))
    return status.error


def tapp_execute_product(
    op,
    executor,
    alpha,
    data_a,
    data_b,
    beta,
    data_c,
    data_d,
    status_out: StatusRecord | None = None,
) -> ErrorCode:
    """Run a planned contraction on concrete buffers.

    Each ``data_*`` is a flat numpy array, optionally wrapped as
    ``(array, base_offset)``.  ``status_out``, when given, receives the
    execution metadata; passing None suppresses it.  Any other value than
    a StatusRecord or None is ERR_INVALID_HANDLE, with nothing run.
    """
    return _execute(
        op, executor, "contraction", status_out,
        lambda plan: engine.contract(
            plan, alpha, _as_view(plan.desc_a, data_a), _as_view(plan.desc_b, data_b),
            beta, _as_view(plan.desc_c, data_c), _as_view(plan.desc_d, data_d),
        ),
    )


def tapp_execute_binary(
    op,
    executor,
    alpha,
    data_a,
    beta,
    data_b,
    data_c,
    status_out: StatusRecord | None = None,
) -> ErrorCode:
    # The unit operand holds A's slot; A, B, C sit in B's, C's, D's.
    return _execute(
        op, executor, "binary", status_out,
        lambda plan: engine.run_binary(
            plan, alpha, _as_view(plan.desc_b, data_a),
            beta, _as_view(plan.desc_c, data_b), _as_view(plan.desc_d, data_c),
        ),
    )


def tapp_execute_unary(
    op,
    executor,
    alpha,
    data_a,
    data_b,
    status_out: StatusRecord | None = None,
) -> ErrorCode:
    # The unit operand holds A's slot; A and B sit in B's and D's.
    return _execute(
        op, executor, "unary", status_out,
        lambda plan: engine.run_unary(
            plan, alpha, _as_view(plan.desc_b, data_a), _as_view(plan.desc_d, data_b)
        ),
    )


def tapp_create_vkv() -> VKVStore:
    """A bare key-value store; the one object needing no handle."""
    return VKVStore()


def _store_of(obj) -> VKVStore | None:
    if isinstance(obj, VKVStore):
        return obj
    vkv = getattr(obj, "vkv", None)
    return vkv if isinstance(vkv, VKVStore) else None


def tapp_vkv_set(obj, key: int, value: bytes) -> ErrorCode:
    store = _store_of(obj)
    if store is None:
        return ErrorCode.ERR_INVALID_HANDLE
    try:
        store.set(key, value)
    except TappError as err:
        return err.code
    return ErrorCode.OK


def tapp_vkv_get(obj, key: int) -> bytes | ErrorCode:
    store = _store_of(obj)
    if store is None:
        return ErrorCode.ERR_INVALID_HANDLE
    try:
        return store.get(key)
    except TappError as err:
        return err.code


def tapp_error_string(code: int) -> str:
    """Plain-text description for any integer status code."""
    return error_string(code)
