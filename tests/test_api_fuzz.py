"""Hypothesis fuzz of the ``tapp_*`` argument space.

Every call must return an object or an ``ErrorCode`` and never raise (nor
fail with ERR_INTERNAL, the code of an unexpected exception), and an
execution that fails must leave D's buffer bitwise untouched.  Each
example draws a valid op of one of the three kinds, with random dtypes,
strides (negative and zero ones included), repeated labels, scalars
(NaN, infinities, complex), in-place updates and strided buffers, and
then at most one fault: a dtype that is not a ``DType``; extents or
strides that are negative, zero, non-integral or not sequences; a wrong
mode count; malformed or output-only labels; a compute dtype that is
not one; a scalar that is not a number; buffer data of the wrong dtype,
length or form (not an array, a 2-D array, an ``(array, base)`` pair of
the wrong arity or with a bad base); or a D that overlaps A.  The
examples are derived from the test's name (``derandomize``), so every
run sees the same ones.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tapp import (
    DType,
    ErrorCode,
    tapp_create_binary_op,
    tapp_create_contraction,
    tapp_create_handle,
    tapp_create_tensor_info,
    tapp_create_unary_op,
    tapp_destroy_handle,
    tapp_error_string,
    tapp_execute_binary,
    tapp_execute_product,
    tapp_execute_unary,
    tapp_get_default_executor,
    tapp_vkv_get,
    tapp_vkv_set,
)
from tapp.api import OperationDescriptor, TensorInfo
from tapp.core import reach

FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JUNK = st.sampled_from([None, "x", "2", 2.5, -1, 0, float("nan"), 3 + 1j, (), [None], object()])
FAULTS = [
    "dtype", "extents", "strides", "nmodes", "labels", "output-only", "compute",
    "scalar", "data dtype", "data length", "data form", "overlap",
]
NUMBERS = st.one_of(
    st.floats(), st.sampled_from([0.0, 1.0, -0.0]), st.complex_numbers(max_magnitude=1e3)
)


def _labels(draw, kind):
    """Valid label lists of one op: A's and B's with repeats (diagonals),
    the output's from theirs (a binary op's may hold labels A lacks)."""
    some = st.lists(st.sampled_from("ijk"), max_size=3).map("".join)
    la, lb = draw(some), draw(some)
    pool = {"product": la + lb, "binary": "ijk", "unary": la}[kind]
    out = "".join(draw(st.permutations(sorted(set(pool))))[: draw(st.integers(0, 3))])
    return {"product": [la, lb, out, out], "binary": [la, out, out], "unary": [la, out]}[kind]


def _info(draw, handle, extents, fault):
    """A descriptor over ``extents``, or, with ``fault``, a bad argument of
    its create call."""
    n = len(extents)
    strides = draw(st.none() | st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    args = [draw(st.sampled_from(list(DType))), n, extents, strides]
    if fault == "dtype":
        args[0] = draw(JUNK | st.sampled_from(["r64", np.float64]))
    elif fault == "nmodes":
        args[1] = draw(JUNK | st.integers(-1, 4))
    elif fault in ("extents", "strides"):
        bad = st.lists(st.integers(-1, 3) | JUNK, max_size=3) | JUNK
        args[2 if fault == "extents" else 3] = draw(bad)
    info = tapp_create_tensor_info(handle, *args)
    assert isinstance(info, (TensorInfo, ErrorCode)) and info is not ErrorCode.ERR_INTERNAL
    return info


def _data(draw, info, fault, shared):
    """``(buffer, data)`` for ``info``: a padded flat array, maybe every
    other element of another, given as is or as ``(array, base)``; with
    ``fault``, of the wrong dtype, too short, malformed, or ``shared``."""
    desc = info.desc if isinstance(info, TensorInfo) else None
    lo, hi = reach(desc.extents, desc.strides) if desc is not None else (0, 1)
    dtype = desc.dtype.np_dtype if desc is not None else np.float64
    if fault == "data dtype":
        dtype = draw(st.sampled_from([np.float32, np.complex64, np.int64]))
    pad = draw(st.integers(0, 2))
    length = pad + hi - lo + 1 + (-1 if fault == "data length" else draw(st.integers(0, 1)))
    step = draw(st.sampled_from([1, 2]))
    buffer = (np.arange(1, step * length + 1) / 7.0).astype(dtype)[::step]
    if fault == "overlap":
        buffer = shared
    base = pad - lo
    if fault == "data form":
        malformed = [(buffer, base, 0), (buffer, draw(JUNK)), buffer.tolist(), buffer[None]]
        return buffer, draw(st.sampled_from(malformed))
    return buffer, (buffer, base) if base or draw(st.booleans()) else buffer


@st.composite
def scenario(draw):
    handle = tapp_create_handle()
    executor = tapp_get_default_executor(handle)
    kind = draw(st.sampled_from(["product", "binary", "unary"]))
    fault = draw(st.sampled_from(FAULTS + [None] * 8))
    where = draw(st.integers(0, {"product": 3, "binary": 2, "unary": 1}[kind]))

    def at(k, *names):
        """The fault of tensor ``k``, if it is one of ``names``."""
        return fault if k == where and fault in names else None

    labels = _labels(draw, kind)
    extent_of = {l: draw(st.integers(1, 3)) for l in "ijk"}
    if fault == "output-only":
        labels[-1] += "k" if kind != "product" else "x"
        extent_of["x"] = 2
    elif fault == "labels":
        labels[where] = draw(st.sampled_from(["$", "ab", [1], None, 3]))
    infos = []
    for k, lbl in enumerate(labels):
        extents = [extent_of.get(l, 1) for l in lbl] if isinstance(lbl, str) else [1]
        infos.append(_info(draw, handle, extents, at(k, "dtype", "nmodes", "extents", "strides")))
    # In place: the update operand (C, or the binary op's B) takes the
    # output's descriptor and data.
    in_place = kind != "unary" and draw(st.booleans())
    if in_place:
        infos[-2] = infos[-1]
    args = [x for pair in zip(infos, labels) for x in pair]
    if kind == "product":
        compute = draw(JUNK) if fault == "compute" else draw(st.none() | st.just(DType.C64))
        op = tapp_create_contraction(handle, *args, compute)
    else:
        op = (tapp_create_binary_op if kind == "binary" else tapp_create_unary_op)(handle, *args)
    assert isinstance(op, (OperationDescriptor, ErrorCode)) and op is not ErrorCode.ERR_INTERNAL

    data = []
    for k, info in enumerate(infos):
        fault_k = at(k, "data dtype", "data length", "data form")
        if fault == "overlap" and k == len(infos) - 1:
            fault_k = fault  # D lies in A's buffer
        data.append(_data(draw, info, fault_k, data[0][0] if data else None))
    if in_place:
        data[-2] = data[-1]
    alpha, beta = draw(NUMBERS), draw(NUMBERS)
    if fault == "scalar":
        alpha = draw(JUNK)
    return handle, executor, kind, op, [x for _, x in data], data[-1][0], alpha, beta


@FUZZ
@given(scenario())
def test_api_calls_return_codes_and_failures_leave_d_untouched(case):
    handle, executor, kind, op, data, d, alpha, beta = case
    before = d.tobytes()
    if kind == "product":
        code = tapp_execute_product(op, executor, alpha, data[0], data[1], beta, *data[2:])
    elif kind == "binary":
        code = tapp_execute_binary(op, executor, alpha, data[0], beta, *data[1:])
    else:
        code = tapp_execute_unary(op, executor, alpha, *data)
    assert isinstance(code, ErrorCode) and code is not ErrorCode.ERR_INTERNAL
    if code is not ErrorCode.OK:
        assert d.tobytes() == before
    assert tapp_destroy_handle(handle) is ErrorCode.OK


VALUES = st.one_of(
    st.integers(-3, 64), st.binary(max_size=4), st.text(max_size=2),
    st.floats(), st.none(), st.lists(st.integers(-1, 300), max_size=2),
)


@FUZZ
@given(key=VALUES, value=VALUES, code=VALUES)
def test_vkv_and_error_string_never_raise(key, value, code):
    handle = tapp_create_handle()
    status = tapp_vkv_set(handle, key, value)
    assert status in (ErrorCode.OK, ErrorCode.ERR_KEY_NOT_FOUND, ErrorCode.ERR_DTYPE_MISMATCH)
    got = tapp_vkv_get(handle, key)
    if status is ErrorCode.OK:
        assert got == bytes(value)
    else:
        assert got is ErrorCode.ERR_KEY_NOT_FOUND
    assert isinstance(tapp_error_string(code), str)
    tapp_destroy_handle(handle)
