import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import tapp
from tapp import (
    DType,
    StatusRecord,
    tapp_create_binary_op,
    tapp_create_contraction,
    tapp_create_handle,
    tapp_create_tensor_info,
    tapp_create_unary_op,
    tapp_create_vkv,
    tapp_destroy_handle,
    tapp_error_string,
    tapp_execute_binary,
    tapp_execute_product,
    tapp_execute_unary,
    tapp_get_default_executor,
    tapp_vkv_get,
    tapp_vkv_set,
)
from tapp.errors import ErrorCode


@pytest.fixture
def handle():
    h = tapp_create_handle()
    yield h
    tapp_destroy_handle(h)


def test_handle_lifecycle():
    h = tapp_create_handle()
    assert h.alive
    assert tapp_destroy_handle(h) is ErrorCode.OK
    assert not h.alive
    assert tapp_destroy_handle(h) is ErrorCode.ERR_INVALID_HANDLE


def test_handles_are_distinct():
    h1, h2 = tapp_create_handle(), tapp_create_handle()
    assert h1 is not h2
    tapp_destroy_handle(h1)
    tapp_destroy_handle(h2)


def test_default_executor_is_stable(handle):
    ex1 = tapp_get_default_executor(handle)
    ex2 = tapp_get_default_executor(handle)
    assert ex1 is ex2
    assert tapp_get_default_executor(object()) is ErrorCode.ERR_INVALID_HANDLE


def test_tensor_info_validation(handle):
    scalar = tapp_create_tensor_info(handle, DType.R64, 0, (), ())
    assert not isinstance(scalar, ErrorCode)
    assert scalar.desc.nmodes == 0
    info = tapp_create_tensor_info(handle, DType.R32, 2, (2, 3), (-1, 2))
    assert info.desc.strides == (-1, 2)
    assert (
        tapp_create_tensor_info(handle, DType.R64, 2, (2, 0), (1, 2))
        is ErrorCode.ERR_EXTENT_MISMATCH
    )
    assert (
        tapp_create_tensor_info(handle, DType.R64, 1, (2, 3), None)
        is ErrorCode.ERR_EXTENT_MISMATCH
    )


def _matmul_setup(handle):
    mk = lambda: tapp_create_tensor_info(handle, DType.R64, 2, (2, 2), (2, 1))
    infos = [mk() for _ in range(4)]
    op = tapp_create_contraction(
        handle, infos[0], "ij", infos[1], "jk", infos[2], "ik", infos[3], "ik"
    )
    return op


def test_execute_matmul(handle):
    op = _matmul_setup(handle)
    ex = tapp_get_default_executor(handle)
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([5.0, 6.0, 7.0, 8.0])
    c = np.zeros(4)
    d = np.zeros(4)
    status = StatusRecord()
    code = tapp_execute_product(op, ex, 1.0, a, b, 0.0, c, d, status_out=status)
    assert code is ErrorCode.OK
    assert d.tolist() == [19.0, 22.0, 43.0, 50.0]
    assert status.elements_written == 4
    assert status.multiply_adds == 8
    assert status.executor is ex
    # Status output is optional.
    d2 = np.zeros(4)
    assert tapp_execute_product(op, ex, 1.0, a, b, 0.0, c, d2) is ErrorCode.OK
    assert d2.tolist() == d.tolist()


def test_descriptor_reuse_across_data_sets(handle):
    import random

    rng = random.Random(17)
    op = _matmul_setup(handle)
    ex = tapp_get_default_executor(handle)
    for _ in range(3):
        a = np.array([rng.uniform(-1, 1) for _ in range(4)])
        b = np.array([rng.uniform(-1, 1) for _ in range(4)])
        d_reused = np.zeros(4)
        assert (
            tapp_execute_product(op, ex, 1.0, a, b, 0.0, np.zeros(4), d_reused)
            is ErrorCode.OK
        )
        fresh = _matmul_setup(handle)
        d_fresh = np.zeros(4)
        assert (
            tapp_execute_product(fresh, ex, 1.0, a, b, 0.0, np.zeros(4), d_fresh)
            is ErrorCode.OK
        )
        assert d_reused.tolist() == d_fresh.tolist()


def test_cross_handle_objects_are_rejected(handle):
    other = tapp_create_handle()
    mine = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    foreign = tapp_create_tensor_info(other, DType.R64, 1, (2,), (1,))
    op = tapp_create_contraction(
        handle, mine, "i", foreign, "i", mine, "i", mine, "i"
    )
    assert op is ErrorCode.ERR_INVALID_HANDLE
    # Executor of a different handle is also rejected.
    good = tapp_create_contraction(handle, mine, "i", mine, "i", mine, "i", mine, "i")
    code = tapp_execute_product(
        good,
        tapp_get_default_executor(other),
        1.0,
        np.zeros(2),
        np.zeros(2),
        0.0,
        np.zeros(2),
        np.zeros(2),
    )
    assert code is ErrorCode.ERR_INVALID_HANDLE
    tapp_destroy_handle(other)


def test_output_only_label_is_rejected(handle):
    i1 = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    i3 = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2), (1, 2))
    op = tapp_create_contraction(handle, i1, "i", i1, "i", i3, "ie", i3, "ie")
    assert op is ErrorCode.ERR_UNSUPPORTED


@pytest.mark.parametrize("bad", ["$", ("ab",), (1,)])
def test_binary_and_unary_ops_reject_invalid_labels(handle, bad):
    # The contraction's label rule: one ASCII letter or digit per mode.
    i1 = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    assert tapp_create_binary_op(handle, i1, bad, i1, bad, i1, bad) is ErrorCode.ERR_PARSE
    assert tapp_create_binary_op(handle, i1, bad, i1, "i", i1, "i") is ErrorCode.ERR_PARSE
    assert tapp_create_unary_op(handle, i1, bad, i1, bad) is ErrorCode.ERR_PARSE
    assert tapp_create_unary_op(handle, i1, "i", i1, bad) is ErrorCode.ERR_PARSE
    assert tapp_create_contraction(handle, i1, bad, i1, "i", i1, "i", i1, "i") is (
        ErrorCode.ERR_PARSE
    )


def test_destroyed_handle_invalidates_everything(handle):
    op = _matmul_setup(handle)
    ex = tapp_get_default_executor(handle)
    tapp_destroy_handle(handle)
    code = tapp_execute_product(
        op, ex, 1.0, np.zeros(4), np.zeros(4), 0.0, np.zeros(4), np.zeros(4)
    )
    assert code is ErrorCode.ERR_INVALID_HANDLE
    assert (
        tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
        is ErrorCode.ERR_INVALID_HANDLE
    )


def test_execute_reports_engine_errors_in_status(handle):
    op = _matmul_setup(handle)
    ex = tapp_get_default_executor(handle)
    status = StatusRecord()
    code = tapp_execute_product(
        op, ex, 1.0, np.zeros(4), np.zeros(4), 0.0, np.zeros(4),
        np.zeros(3),  # too short for the output view
        status_out=status,
    )
    assert code is ErrorCode.ERR_OUT_OF_BOUNDS
    assert status.error is ErrorCode.ERR_OUT_OF_BOUNDS
    assert status.detail == "D: view escapes its buffer"
    # a later success clears the reason
    code = tapp_execute_product(
        op, ex, 1.0, np.zeros(4), np.zeros(4), 0.0, np.zeros(4), np.zeros(4),
        status_out=status,
    )
    assert code is ErrorCode.OK and status.detail == ""


def test_binary_and_unary_errors_name_the_callers_operands(handle):
    # The engine runs both with the operands in other slots than the
    # caller's; a status's detail names each operand as the caller does.
    ex = tapp_get_default_executor(handle)
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (4,))
    m, v = (tapp_create_tensor_info(handle, DType.R64, n, (2,) * n) for n in (2, 1))
    binary = tapp_create_binary_op(handle, iv, "i", iv, "i", iv, "i")
    unary = tapp_create_unary_op(handle, iv, "i", iv, "i")
    reduce = tapp_create_unary_op(handle, m, "ij", v, "i")  # A's and B's layouts differ
    ok, short, shared = np.zeros(4), np.zeros(3), np.zeros(6)
    cases = [
        (binary, (1.0, (shared, 0), 0.5, ok, (shared, 2)), "C overlaps operand A"),
        (binary, (1.0, ok, 0.5, (shared, 0), (shared, 2)), "C overlaps operand B"),
        (binary, (1.0, short, 0.5, ok, ok.copy()), "A: view escapes its buffer"),
        (binary, (1.0, ok, 0.5, short, ok.copy()), "B: view escapes its buffer"),
        (binary, (1.0, ok, 0.5, ok.copy(), short), "C: view escapes its buffer"),
        (unary, (1.0, (shared, 0), (shared, 2)), "B overlaps operand A"),
        (unary, (1.0, short, ok), "A: view escapes its buffer"),
        (unary, (1.0, ok, short), "B: view escapes its buffer"),
        (reduce, (1.0, ok, np.zeros(1)), "B: view escapes its buffer"),
    ]
    for op, args, detail in cases:
        status = StatusRecord()
        run = tapp_execute_binary if op is binary else tapp_execute_unary
        code = run(op, ex, *args, status_out=status)
        assert code is status.error and status.detail == detail, (detail, status)


class _Slotted:
    __slots__ = ("error",)


@pytest.mark.parametrize(
    "status_out", [object(), 5, "x", _Slotted(), {}], ids=["object", "int", "str", "slots", "dict"]
)
def test_a_status_out_that_is_no_status_record_runs_nothing(handle, status_out):
    info = tapp_create_tensor_info(handle, DType.R64, 1, (2,))
    ex = tapp_get_default_executor(handle)
    ones = np.ones(2)
    runs = {
        "product": lambda d, s: tapp_execute_product(
            tapp_create_contraction(handle, info, "i", info, "i", info, "i", info, "i"),
            ex, 1.0, ones, ones, 0.0, ones, d, status_out=s),
        "binary": lambda d, s: tapp_execute_binary(
            tapp_create_binary_op(handle, info, "i", info, "i", info, "i"),
            ex, 1.0, ones, 1.0, ones, d, status_out=s),
        "unary": lambda d, s: tapp_execute_unary(
            tapp_create_unary_op(handle, info, "i", info, "i"), ex, 1.0, ones, d, status_out=s),
    }
    for name, run in runs.items():
        d = np.full(2, 7.0)
        assert run(d, status_out) is ErrorCode.ERR_INVALID_HANDLE, name
        assert d.tolist() == [7.0, 7.0], name
        status = StatusRecord()
        assert run(d, status) is ErrorCode.OK and status.executor is ex, name
        assert d.tolist() != [7.0, 7.0], name


def test_execute_binary_and_unary(handle):
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    ex = tapp_get_default_executor(handle)
    add = tapp_create_binary_op(handle, iv, "i", iv, "i", iv, "i")
    out = np.zeros(2)
    code = tapp_execute_binary(
        add, ex, 1.0, np.array([1.0, 2.0]), 1.0, np.array([3.0, 4.0]), out
    )
    assert code is ErrorCode.OK
    assert out.tolist() == [4.0, 6.0]

    mat = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2), (2, 1))
    tr = tapp_create_unary_op(handle, mat, "ij", mat, "ji")
    out2 = np.zeros(4)
    code = tapp_execute_unary(tr, ex, 1.0, np.array([1.0, 2.0, 3.0, 4.0]), out2)
    assert code is ErrorCode.OK
    # out2[j,i] = a[i,j] with row-major storage on both sides
    assert out2.tolist() == [1.0, 3.0, 2.0, 4.0]


def test_binary_scaling_with_alpha_one_copies(handle):
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (3,), (1,))
    ex = tapp_get_default_executor(handle)
    op = tapp_create_unary_op(handle, iv, "i", iv, "i")
    out = np.zeros(3)
    src = np.array([4.0, 5.0, 6.0])
    assert tapp_execute_unary(op, ex, 1.0, src, out) is ErrorCode.OK
    assert out.tolist() == src.tolist()


def test_vkv_round_trip_on_every_object_type(handle):
    ex = tapp_get_default_executor(handle)
    info = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    op = tapp_create_unary_op(handle, info, "i", info, "i")
    bare = tapp_create_vkv()
    for obj in (handle, ex, info, op, bare):
        assert tapp_vkv_set(obj, 7, b"\xde\xad") is ErrorCode.OK
        assert tapp_vkv_get(obj, 7) == b"\xde\xad"
        assert tapp_vkv_get(obj, 8) is ErrorCode.ERR_KEY_NOT_FOUND
        assert tapp_vkv_set(obj, 7, b"beef") is ErrorCode.OK
        assert tapp_vkv_get(obj, 7) == b"beef"
    assert tapp_vkv_set(object(), 1, b"x") is ErrorCode.ERR_INVALID_HANDLE
    assert tapp_vkv_get(object(), 1) is ErrorCode.ERR_INVALID_HANDLE


@pytest.mark.parametrize("key", ["x", None, 1.5, -1, float("nan"), float("inf"), "1", [1]])
def test_vkv_keys_that_are_not_non_negative_integers_are_not_found(handle, key):
    assert tapp_vkv_set(handle, key, b"") is ErrorCode.ERR_KEY_NOT_FOUND
    assert tapp_vkv_get(handle, key) is ErrorCode.ERR_KEY_NOT_FOUND
    assert tapp_vkv_get(handle, 1) is ErrorCode.ERR_KEY_NOT_FOUND  # 1.5 stored nothing


def test_vkv_integral_keys_and_bytes_like_values(handle):
    assert tapp_vkv_set(handle, 2.0, bytearray(b"ab")) is ErrorCode.OK
    assert tapp_vkv_get(handle, np.int64(2)) == b"ab"
    for value in ("str", None, -1, [300], 1.5, 10**18, [1, 2]):
        assert tapp_vkv_set(handle, 2, value) is ErrorCode.ERR_DTYPE_MISMATCH
    assert tapp_vkv_get(handle, 2) == b"ab"


def test_error_string_is_total():
    assert tapp_error_string(ErrorCode.OK) == "success"
    assert "alias" in tapp_error_string(ErrorCode.ERR_ALIASING)
    for code in ErrorCode:
        assert tapp_error_string(code)
    assert "unknown" in tapp_error_string(9999)
    for code in ("x", None, 2.5, [], 1 + 2j):
        assert tapp_error_string(code).startswith("unknown error code")


def test_r32_product_with_alpha_beyond_float32_range(handle):
    # alpha rounds to +inf in the r32 compute dtype, without numpy's
    # overflow warning (the test configuration turns warnings into errors).
    info = tapp_create_tensor_info(handle, DType.R32, 1, (2,), (1,))
    op = tapp_create_contraction(handle, info, "i", info, "i", info, "i", info, "i")
    a = np.array([1.0, 2.0], np.float32)
    d = np.zeros(2, np.float32)
    code = tapp_execute_product(
        op, tapp_get_default_executor(handle), 1e39, a, a, 0.0, d, d
    )
    assert code is ErrorCode.OK
    assert d.tolist() == [np.inf, np.inf]


def test_base_offsets_through_the_api(handle):
    info = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (-1,))
    dense = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    op = tapp_create_contraction(handle, info, "i", dense, "i", dense, "i", dense, "i")
    ex = tapp_get_default_executor(handle)
    d = np.zeros(2)
    code = tapp_execute_product(
        op, ex, 1.0, (np.array([1.0, 2.0]), 1), np.array([10.0, 20.0]),
        0.0, np.zeros(2), d,
    )
    assert code is ErrorCode.OK
    # A read backwards from base 1: [2, 1]
    assert d.tolist() == [20.0, 20.0]


def test_malformed_array_base_pairs_return_codes(handle):
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    ex = tapp_get_default_executor(handle)
    product = tapp_create_contraction(handle, iv, "i", iv, "i", iv, "i", iv, "i")
    add = tapp_create_binary_op(handle, iv, "i", iv, "i", iv, "i")
    neg = tapp_create_unary_op(handle, iv, "i", iv, "i")
    a, ones = np.arange(6.0), np.ones(2)
    calls = (
        lambda data, out, st: tapp_execute_product(
            product, ex, 1.0, data, ones, 0.0, ones, out, st
        ),
        lambda data, out, st: tapp_execute_binary(add, ex, 1.0, data, 0.0, ones, out, st),
        lambda data, out, st: tapp_execute_unary(neg, ex, 1.0, data, out, st),
    )
    cases = (
        ((a, "x"), ErrorCode.ERR_OUT_OF_BOUNDS),
        ((a, None), ErrorCode.ERR_OUT_OF_BOUNDS),
        ((a, 2.5), ErrorCode.ERR_OUT_OF_BOUNDS),  # not truncated to base 2
        ((a, 1, 2), ErrorCode.ERR_DTYPE_MISMATCH),
        ((a,), ErrorCode.ERR_DTYPE_MISMATCH),
        ([1.0, 2.0], ErrorCode.ERR_DTYPE_MISMATCH),
    )
    for call in calls:
        for data, expected in cases:
            out, status = np.full(2, 7.0), StatusRecord()
            assert call(data, out, status) is expected, (data, expected)
            assert status.error is expected
            assert out.tolist() == [7.0, 7.0]
        for base in (2.0, np.int64(2)):  # integral bases bind as 2
            out = np.zeros(2)
            assert call((a, base), out, None) is ErrorCode.OK
            assert out.tolist() == [2.0, 3.0]


def test_the_functional_surface_gives_the_apis_codes_for_bad_buffers(handle):
    # The view checks its own buffer and base, so each functional call
    # fails with the code the API returns for the same data.
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    add = tapp_create_binary_op(handle, iv, "i", iv, "i", iv, "i")
    ex = tapp_get_default_executor(handle)
    desc = iv.desc
    plan = tapp.make_plan(tapp.LabelSpec.of("i", "i", "i", "i"), desc, desc, desc, desc)
    a, ones = np.arange(6.0), tapp.TensorView(desc, np.ones(2))
    calls = {
        "contract": lambda x, out: tapp.contract(plan, 1.0, x, ones, 0.0, ones, out),
        "binary_op": lambda x, out: tapp.binary_op(1.0, x, "i", 0.0, ones, "i", out, "i"),
        "unary_op": lambda x, out: tapp.unary_op(1.0, x, "i", out, "i"),
        "densify": lambda x, out: tapp.densify(x, "i"),
    }
    for buffer, base in (
        (a.tolist(), 0), (a.reshape(3, 2), 0), (a, "0"), (a, None), (a, 2.5)
    ):
        data = (buffer, base)
        expected = tapp_execute_binary(add, ex, 1.0, data, 0.0, np.ones(2), np.zeros(2))
        assert expected is not ErrorCode.OK
        for name, call in calls.items():
            with pytest.raises(tapp.TappError) as err:
                call(tapp.TensorView(desc, buffer, base), tapp.TensorView(desc, np.zeros(2)))
            assert err.value.code is expected, (name, buffer, base)
    for base in (2.0, np.int64(2)):  # integral bases bind as 2
        assert type(tapp.TensorView(desc, a, base).base) is int
        for name, call in calls.items():
            out = tapp.TensorView(desc, np.zeros(2))
            got = call(tapp.TensorView(desc, a, base), out)
            values = got[0].elements if name == "densify" else out.buffer.tolist()
            assert list(values) == [2.0, 3.0], name


def test_execute_boundary_failures_return_codes_and_leave_d_untouched(handle):
    op = _matmul_setup(handle)
    ex = tapp_get_default_executor(handle)
    ones, zeros = np.ones(4), np.zeros(4)
    d = np.full(4, 7.0)

    def product(a=ones, out=d):
        status = StatusRecord()
        code = tapp_execute_product(op, ex, 1.0, a, ones, 0.0, zeros, out, status)
        assert status.error is code
        return code

    read_only = np.full(4, 7.0)
    read_only.flags.writeable = False
    assert product(out=read_only) is ErrorCode.ERR_OUT_OF_BOUNDS
    flat_2d = np.full((2, 2), 7.0)
    assert product(out=flat_2d) is ErrorCode.ERR_EXTENT_MISMATCH
    assert product(a=np.ones((2, 2))) is ErrorCode.ERR_EXTENT_MISMATCH
    assert d.tolist() == read_only.tolist() == [7.0] * 4
    assert flat_2d.tolist() == [[7.0, 7.0], [7.0, 7.0]]


@pytest.mark.parametrize("kind", ["product", "binary", "unary"])
@pytest.mark.parametrize("dtype", [DType.R64, DType.C64])
def test_scalars_follow_one_rule(handle, dtype, kind):
    # A numbers.Number is a scalar, and acts as the equal Python number; a
    # complex one with a zero imaginary part is real.  Anything else, and
    # a nonzero imaginary part where all operands are real, is
    # ERR_DTYPE_MISMATCH with D untouched.
    ex = tapp_get_default_executor(handle)
    m = tapp_create_tensor_info(handle, dtype, 2, (2, 2))
    x = np.arange(1, 5) / 7
    a, b, c = (
        (y + 1j * y[::-1] if dtype.is_complex else y).astype(dtype.np_dtype)
        for y in (x, x[::-1], x * 3)
    )
    if kind == "product":
        op = tapp_create_contraction(handle, m, "ij", m, "jk", m, "ik", m, "ik")
        call = lambda al, be, d, st: tapp_execute_product(op, ex, al, a, b, be, c, d, st)
    elif kind == "binary":
        op = tapp_create_binary_op(handle, m, "ij", m, "ji", m, "ji")
        call = lambda al, be, d, st: tapp_execute_binary(op, ex, al, a, be, b, d, st)
    else:
        op = tapp_create_unary_op(handle, m, "ij", m, "ji")
        call = lambda al, be, d, st: tapp_execute_unary(op, ex, al, a, d, st)

    def run(alpha, beta=0.5):
        d, status = np.full(4, 7.0, dtype.np_dtype), StatusRecord()
        code = call(alpha, beta, d, status)
        assert status.error is code
        return code, d.tobytes()

    untouched = np.full(4, 7.0, dtype.np_dtype).tobytes()
    z = complex(0.75, 0.5) if dtype.is_complex else 0.75  # np.complex64 holds it exactly
    equal = [  # a scalar, and the Python number it acts as
        (2, 2.0), (True, 1.0), (1.5 + 0j, 1.5), (complex(z), z), (np.float32(1.5), 1.5),
        (np.float64(1.5), 1.5), (np.int64(2), 2.0), (np.complex64(z), z), (np.complex128(z), z),
    ]
    bad = ["1.5", "x", None, [1.0], np.array(2.0), np.bool_(True), 10**400]
    if not dtype.is_complex:
        bad += [1 + 2j, np.complex64(1 + 2j), np.complex128(1 + 2j)]
    for scalar, number in equal:
        assert run(scalar) == run(number) and run(number)[0] is ErrorCode.OK, scalar
        if kind != "unary":
            assert run(1.5, scalar) == run(1.5, number), scalar
    for scalar in bad:
        assert run(scalar) == (ErrorCode.ERR_DTYPE_MISMATCH, untouched), scalar
        if kind != "unary":
            assert run(1.5, scalar) == (ErrorCode.ERR_DTYPE_MISMATCH, untouched), scalar


def _bind_faults(slots):
    """The faults *bind* checks, in its order, each as (slots it sets, the
    data it passes there, the code it returns); the last slot is the
    output."""
    out = slots[-1]
    faults = []
    for slot in slots:
        faults += [
            ({slot}, {slot: np.full(4, 7.0, np.float32)}, ErrorCode.ERR_DTYPE_MISMATCH),
            ({slot}, {slot: np.full(3, 7.0)}, ErrorCode.ERR_OUT_OF_BOUNDS),  # short
            ({slot}, {slot: (np.full(4, 7.0), -1)}, ErrorCode.ERR_OUT_OF_BOUNDS),
        ]
    read_only = np.full(4, 7.0)
    read_only.flags.writeable = False
    faults.append(({out}, {out: read_only}, ErrorCode.ERR_OUT_OF_BOUNDS))
    for slot in slots[:-1]:  # the output overlaps an input
        shared = np.full(6, 7.0)
        faults.append(({slot, out}, {slot: (shared, 0), out: (shared, 2)}, ErrorCode.ERR_ALIASING))
    return faults


@pytest.mark.parametrize("kind", ["product", "binary", "unary"])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_bind_faults_return_the_first_code_in_check_order(handle, kind, beta):
    # Every fault alone, and every pair of faults in different slots: the
    # code is the one bind checks first, and the output stays untouched.
    ex = tapp_get_default_executor(handle)
    iv = tapp_create_tensor_info(handle, DType.R64, 1, (4,), (1,))
    if kind == "product":
        op, slots = _matmul_setup(handle), "ABCD"
        run = lambda x: tapp_execute_product(op, ex, 1.5, x["A"], x["B"], beta, x["C"], x["D"])
    elif kind == "binary":
        op, slots = tapp_create_binary_op(handle, iv, "i", iv, "i", iv, "i"), "ABC"
        run = lambda x: tapp_execute_binary(op, ex, 1.5, x["A"], beta, x["B"], x["C"])
    else:
        op, slots = tapp_create_unary_op(handle, iv, "i", iv, "i"), "AB"
        run = lambda x: tapp_execute_unary(op, ex, 1.5, x["A"], x["B"])
    faults = _bind_faults(slots)
    cases = [(f,) for f in faults] + [
        (f, g) for i, f in enumerate(faults) for g in faults[i + 1 :] if not f[0] & g[0]
    ]
    for case in cases:
        data = {slot: np.full(4, 7.0) for slot in slots}
        for _, values, _ in case:
            data.update(values)
        out = data[slots[-1]]
        assert run(data) is case[0][2], [sorted(f[0]) for f in case]
        assert ((out[0] if isinstance(out, tuple) else out) == 7.0).all()
    assert len(cases) > len(faults)


def _tapp_calls(run) -> int:
    """The calls of Python functions defined in tapp's own files that one
    ``run()`` makes, which must return OK."""
    root = os.path.dirname(tapp.__file__)
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(profile)
    try:
        code = run()
    finally:
        sys.setprofile(None)
    assert code is ErrorCode.OK
    return calls


@pytest.mark.parametrize(
    "dtype, alpha, beta, limits",
    [
        (DType.R64, 1.5, 0.5, {"product": 29, "binary": 24, "unary": 20}),
        (DType.C64, 1.5 - 0.5j, 0.5 + 0.25j, {"product": 34, "binary": 28, "unary": 22}),
    ],
)
def test_planned_tiny_executes_make_few_python_calls(handle, dtype, alpha, beta, limits):
    # The fixed cost of an execute, as a count that does not depend on
    # the machine: each planned op of four elements makes at most this
    # many calls into tapp.
    ex = tapp_get_default_executor(handle)
    m = tapp_create_tensor_info(handle, dtype, 2, (2, 2))
    v = tapp_create_tensor_info(handle, dtype, 1, (4,))
    product = tapp_create_contraction(handle, m, "ij", m, "jk", m, "ik", m, "ik")
    add = tapp_create_binary_op(handle, m, "ij", m, "ji", m, "ji")
    scale = tapp_create_unary_op(handle, v, "i", v, "i")
    a, b, c, d = (np.ones(4, dtype.np_dtype) for _ in range(4))
    runs = {
        "product": lambda: tapp_execute_product(product, ex, alpha, a, b, beta, c, d),
        "binary": lambda: tapp_execute_binary(add, ex, alpha, a, beta, b, d),
        "unary": lambda: tapp_execute_unary(scale, ex, alpha, a, d),
    }
    for kind, run in runs.items():
        run()  # anything done once per process is done
        assert _tapp_calls(run) <= limits[kind], kind


def test_a_cold_create_makes_few_python_calls():
    # The fixed cost of creating a new operation, as a count that does not
    # depend on the machine: a handle, four infos (the last equal to the
    # third, so the handle's descriptor is shared), a 2x3x2 plan and the
    # handle's destruction make at most this many calls into tapp.
    def run():
        handle = tapp_create_handle()
        a, b, c, d = (
            tapp_create_tensor_info(handle, DType.R64, 2, shape)
            for shape in ((2, 3), (3, 2), (2, 2), (2, 2))
        )
        op = tapp_create_contraction(handle, a, "ij", b, "jk", c, "ik", d, "ik")
        assert isinstance(op, tapp.OperationDescriptor)
        return tapp_destroy_handle(handle)

    run()  # anything done once per process is done
    assert _tapp_calls(run) <= 88


@pytest.mark.parametrize("labels, extents", [("ij->ji", (2, 2)), ("ijk->ki", (2, 3, 2))])
def test_a_tiny_unary_checks_each_view_once_and_probes_nothing(
    handle, monkeypatch, labels, extents
):
    # The operand also fills C's unread slot, where it is not checked
    # again; A and the output own their data, so nothing is probed.
    la, lout = labels.split("->")
    shape = [extents[la.index(l)] for l in lout]
    info_a = tapp_create_tensor_info(handle, DType.R64, len(extents), extents)
    info_out = tapp_create_tensor_info(handle, DType.R64, len(shape), shape)
    op = tapp_create_unary_op(handle, info_a, la, info_out, lout)
    ex = tapp_get_default_executor(handle)
    a, out = np.arange(1.0, 1 + np.prod(extents)), np.zeros(np.prod(shape))
    checks, probes = [], []
    check, probe = tapp.engine.validate_view, np.may_share_memory
    monkeypatch.setattr(tapp.engine, "validate_view", lambda v: checks.append(v) or check(v))
    monkeypatch.setattr(np, "may_share_memory", lambda *args: probes.append(args) or probe(*args))
    assert tapp_execute_unary(op, ex, 2.0, a, out) is ErrorCode.OK
    assert [id(v.buffer) for v in checks] == [id(a), id(out)] and probes == []
    want = 2.0 * np.einsum(labels, a.reshape(extents, order="F"))
    assert out.tolist() == want.ravel(order="F").tolist()


def test_create_boundary_codes(handle):
    assert tapp_create_tensor_info(handle, "r64", 1, (2,), (1,)) is ErrorCode.ERR_DTYPE_MISMATCH
    for extents, strides in (((2.5,), (1,)), ((2.5,), None), ((2,), (1.5,)), (("2",), (1,))):
        code = tapp_create_tensor_info(handle, DType.R64, 1, extents, strides)
        assert code is ErrorCode.ERR_EXTENT_MISMATCH
    integral = tapp_create_tensor_info(handle, DType.R64, 1, (2.0,), (np.int64(1),))
    assert integral.desc.extents == (2,) and integral.desc.strides == (1,)
    i1 = tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,))
    assert tapp_create_contraction(handle, i1, None, i1, "i", i1, "i", i1, "i") is (
        ErrorCode.ERR_PARSE
    )
    assert tapp_create_contraction(handle, i1, "ij", i1, "i", i1, "i", i1, "i") is (
        ErrorCode.ERR_EXTENT_MISMATCH
    )
    assert tapp_create_binary_op(handle, i1, "i", i1, None, i1, "i") is ErrorCode.ERR_PARSE
    assert tapp_create_unary_op(handle, i1, 3, i1, "i") is ErrorCode.ERR_PARSE


def test_hostile_descriptor_costs_bounded_work(handle):
    # An r64 (10^9, 10^9) operand: 8e18 bytes of reach, no buffer can hold it.
    big = tapp_create_tensor_info(handle, DType.R64, 2, (10**9, 10**9))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        op = tapp_create_contraction(handle, big, "ij", big, "jk", big, "ik", big, "ik")
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and seconds < 0.5
    assert not isinstance(op, ErrorCode)
    ex = tapp_get_default_executor(handle)
    d = np.zeros(16)
    code = tapp_execute_product(op, ex, 1.0, np.ones(16), np.ones(16), 0.0, np.zeros(16), d)
    assert code is ErrorCode.ERR_OUT_OF_BOUNDS
    assert not d.any()


@pytest.mark.parametrize(
    "extents, strides",
    [
        ((2**32, 2**32), None),  # 2^64 elements
        ((2,), (2**61,)),  # reach 2^61 elements, 2^64 bytes of r64
        ((3, 2), (-(2**60), 2**60)),
    ],
)
def test_descriptor_overflowing_int64_is_rejected(handle, extents, strides):
    info = tapp_create_tensor_info(handle, DType.R64, len(extents), extents, strides)
    assert info is ErrorCode.ERR_OUT_OF_BOUNDS


@pytest.mark.parametrize("nmodes, extents, strides", [(1, None, None), (1, 5, None), (1, (2,), 3)])
def test_extents_and_strides_that_are_not_sequences_return_codes(
    handle, nmodes, extents, strides
):
    info = tapp_create_tensor_info(handle, DType.R64, nmodes, extents, strides)
    assert info is ErrorCode.ERR_EXTENT_MISMATCH


def test_unexpected_exceptions_become_codes(handle, monkeypatch):
    from tapp import api, engine

    def out_of_memory(*_args, **_kwargs):
        raise MemoryError

    info = tapp_create_tensor_info(handle, DType.R64, 1, (2,))
    ex = tapp_get_default_executor(handle)
    op = tapp_create_contraction(handle, info, "i", info, "i", info, "i", info, "i")
    unary = tapp_create_unary_op(handle, info, "i", info, "i")
    # ``handle`` holds the plans of the ops above; a fresh handle plans anew.
    fresh = tapp_create_handle()
    fi = tapp_create_tensor_info(fresh, DType.R64, 1, (2,))
    for name in ("make_plan", "make_binary_plan", "make_unary_plan", "contract"):
        monkeypatch.setattr(engine, name, out_of_memory)
    monkeypatch.setattr(api, "TensorDesc", out_of_memory)
    assert tapp_create_tensor_info(handle, DType.R64, 1, (2,), (1,)) is ErrorCode.ERR_INTERNAL
    assert (
        tapp_create_contraction(fresh, fi, "i", fi, "i", fi, "i", fi, "i")
        is ErrorCode.ERR_INTERNAL
    )
    assert tapp_create_binary_op(fresh, fi, "i", fi, "i", fi, "i") is ErrorCode.ERR_INTERNAL
    assert tapp_create_unary_op(fresh, fi, "i", fi, "i") is ErrorCode.ERR_INTERNAL
    tapp_destroy_handle(fresh)
    status = StatusRecord()
    d = np.zeros(2)
    code = tapp_execute_product(
        op, ex, 1.0, np.ones(2), np.ones(2), 0.0, np.zeros(2), d, status_out=status
    )
    assert code is ErrorCode.ERR_INTERNAL and status.error is ErrorCode.ERR_INTERNAL
    # unary runs through contract too
    assert tapp_execute_unary(unary, ex, 1.0, np.ones(2), d) is ErrorCode.ERR_INTERNAL
    assert not d.any()


def test_executes_leave_the_callers_numpy_state_as_it_was(handle, monkeypatch):
    # A 256x256 outer product runs with a small ufunc buffer, a 32^3 matmul
    # with the short-row one and a binary transpose with numpy's; an error
    # in the block loop restores the caller's state too.
    from tapp import engine

    ex = tapp_get_default_executor(handle)
    vec = tapp_create_tensor_info(handle, DType.R64, 1, (256,))
    square = tapp_create_tensor_info(handle, DType.R64, 2, (256, 256))
    cube = tapp_create_tensor_info(handle, DType.R64, 2, (32, 32))
    outer = tapp_create_contraction(handle, vec, "i", vec, "j", square, "ij", square, "ij")
    matmul = tapp_create_contraction(handle, cube, "ij", cube, "jk", cube, "ik", cube, "ik")
    add = tapp_create_binary_op(handle, square, "ij", square, "ji", square, "ji")
    assert outer.plan.long_rows and not matmul.plan.long_rows
    v, m, s = np.ones(256), np.ones(32 * 32), np.ones(256 * 256)
    runs = [
        lambda: tapp_execute_product(outer, ex, 1.5, v, v, 0.5, s, s.copy()),
        lambda: tapp_execute_product(matmul, ex, 1.5, m, m, 0.5, m, m.copy()),
        lambda: tapp_execute_binary(add, ex, 1.5, s, 0.5, s.copy(), s.copy()),
    ]
    with np.errstate(over="raise", divide="warn", invalid="ignore", under="print"):
        np.setbufsize(4096)
        state = np.getbufsize(), np.geterr()
        for run in runs:
            assert run() is ErrorCode.OK
            assert (np.getbufsize(), np.geterr()) == state
        sizes = []

        def fail(*_args):
            sizes.append(np.getbufsize())
            raise RuntimeError("sum")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_sum", fail)
            for run in runs[:2]:
                assert run() is ErrorCode.ERR_INTERNAL
                assert (np.getbufsize(), np.geterr()) == state
        assert sizes == [engine._ROW_BUFFER, engine._SHORT_ROW_BUFFER]


def test_threads_keep_their_own_numpy_state_through_overflowing_executes(handle):
    # One thread raises on overflow with a 4,096-element ufunc buffer, the
    # other runs with numpy's defaults; both run executes whose products
    # overflow at once, and a long-rows outer product sets a buffer of its
    # own for each call.  Each call ignores the overflow (inf in D) and
    # leaves its thread's state as it was.
    ex = tapp_get_default_executor(handle)
    m = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2))
    vec = tapp_create_tensor_info(handle, DType.R64, 1, (128,))
    square = tapp_create_tensor_info(handle, DType.R64, 2, (128, 128))
    matmul = tapp_create_contraction(handle, m, "ij", m, "jk", m, "ik", m, "ik")
    outer = tapp_create_contraction(handle, vec, "i", vec, "j", square, "ij", square, "ij")
    assert outer.plan.long_rows
    big_m, big_v = np.full(4, 1e300), np.full(128, 1e300)
    barrier, failures = threading.Barrier(2, timeout=10), []

    def work(raise_on_overflow: bool) -> None:
        try:
            if raise_on_overflow:
                with np.errstate(over="raise"):
                    np.setbufsize(4096)
                    run()
            else:
                run()
        except BaseException as err:  # reported by the main thread
            failures.append(err)

    def run() -> None:
        state = np.geterr(), np.getbufsize()
        d, s = np.zeros(4), np.zeros(128 * 128)
        barrier.wait()
        for _ in range(150):
            assert tapp_execute_product(matmul, ex, 1.0, big_m, big_m, 0.5, d, d) is ErrorCode.OK
            assert tapp_execute_product(outer, ex, 1.0, big_v, big_v, 0.0, s, s) is ErrorCode.OK
            assert np.isinf(d).all() and np.isinf(s).all()
            assert (np.geterr(), np.getbufsize()) == state

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(flag,)) for flag in (True, False)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- the per-handle plan cache ------------------------------------------------


def _matmul_parts():
    """The arguments of a 2x2 r64 ``ij,jk->ik`` contraction, as a list:
    descriptor parts per tensor (dtype, extents, strides), its labels and
    the compute dtype."""
    return [[(DType.R64, (2, 2), None)] * 4, ["ij", "jk", "ik", "ik"], None]


def _create_matmul(handle, parts):
    descs, labels, compute_dtype = parts
    infos = [tapp_create_tensor_info(handle, d, len(e), e, s) for d, e, s in descs]
    args = [x for pair in zip(infos, labels) for x in pair]
    return tapp_create_contraction(handle, *args, compute_dtype)


@pytest.fixture
def count_plans(monkeypatch):
    """The number of times each engine planner ran, by name, counting only
    calls from outside the planners (unary planning calls the binary
    planner, which calls ``make_plan``)."""
    from tapp import engine

    calls, depth = {}, [0]
    for name in ("make_plan", "make_binary_plan", "make_unary_plan"):
        def counted(*args, _plan=getattr(engine, name), _name=name, **kwargs):
            if not depth[0]:
                calls[_name] = calls.get(_name, 0) + 1
            depth[0] += 1
            try:
                return _plan(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(engine, name, counted)
    return calls


def test_a_repeated_create_shares_the_plan(handle, count_plans):
    ex = tapp_get_default_executor(handle)
    info = tapp_create_tensor_info(handle, DType.C64, 2, (2, 2))
    other = tapp_create_tensor_info(handle, DType.C64, 2, (2, 2))  # equal, not the same
    ops = [
        tapp_create_contraction(handle, info, "ij", info, "jk", info, "ik", info, "ik"),
        tapp_create_contraction(handle, other, "ij", other, ["j", "k"], other, "ik", other, "ik"),
    ]
    assert ops[0] is not ops[1] and ops[0].plan is ops[1].plan
    binary = [tapp_create_binary_op(handle, x, "ij", x, "ji", x, "ji") for x in (info, other)]
    unary = [tapp_create_unary_op(handle, x, "ij", x, "ji") for x in (info, other)]
    assert binary[0].plan is binary[1].plan and unary[0].plan is unary[1].plan
    assert count_plans == {"make_plan": 1, "make_binary_plan": 1, "make_unary_plan": 1}
    # descriptors sharing a plan run alike, and the shared plan is unchanged
    rng = np.random.default_rng(3)
    a, b = (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4) for _ in range(2))
    outs = [np.zeros(4, np.complex128) for _ in range(4)]
    for op, d in zip(ops, outs[:2]):
        assert tapp_execute_product(op, ex, 0.5j, a, b, 0.0, d, d) is ErrorCode.OK
    for op, d in zip(unary, outs[2:]):
        assert tapp_execute_unary(op, ex, 1.5, a, d) is ErrorCode.OK
    assert outs[0].tobytes() == outs[1].tobytes() and outs[2].tobytes() == outs[3].tobytes()
    np.testing.assert_allclose(outs[0].reshape(2, 2, order="F"), 0.5j * (
        a.reshape(2, 2, order="F") @ b.reshape(2, 2, order="F")))
    assert unary[0].plan.unit_a and binary[0].plan.unit_a and not ops[0].plan.unit_a


def _variants():
    """Each key part changed alone: (name, parts)."""
    out = []
    for k in range(4):
        for name, change in [
            ("labels", lambda d, labels: labels.__setitem__(k, labels[k][::-1])),
            ("extents", lambda d, labels: d.__setitem__(k, (d[k][0], (2, 3), None))),
            ("strides", lambda d, labels: d.__setitem__(k, (d[k][0], (2, 2), (2, 1)))),
            ("dtype", lambda d, labels: d.__setitem__(k, (DType.R32, *d[k][1:]))),
        ]:
            parts = _matmul_parts()
            change(parts[0], parts[1])
            out.append((f"{'ABCD'[k]} {name}", parts))
    parts = _matmul_parts()
    parts[2] = DType.C64
    return out + [("compute dtype", parts)]


@pytest.mark.parametrize("name, parts", _variants(), ids=[v[0] for v in _variants()])
def test_a_create_differing_in_one_key_part_plans_anew(handle, name, parts):
    base = _create_matmul(handle, _matmul_parts())
    assert base.plan is _create_matmul(handle, _matmul_parts()).plan
    got = _create_matmul(handle, parts)
    fresh = tapp_create_handle()
    want = _create_matmul(fresh, parts)  # what planning gives, with no cache
    tapp_destroy_handle(fresh)
    if isinstance(want, ErrorCode):
        assert got is want
    else:
        assert got.plan is not base.plan and got.plan == want.plan


def test_the_kind_is_a_key_part(handle):
    info = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2))
    binary = tapp_create_binary_op(handle, info, "ij", info, "ij", info, "ij")
    unary = tapp_create_unary_op(handle, info, "ij", info, "ij")
    product = tapp_create_contraction(handle, info, "ij", info, "jk", info, "ik", info, "ik")
    assert len({id(binary.plan), id(unary.plan), id(product.plan)}) == 3
    assert (binary.kind, unary.kind) == ("binary", "unary")


def test_failing_creates_are_not_cached(handle, count_plans):
    info = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2))
    aliased = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2), (0, 1))
    bad = [
        (lambda: tapp_create_contraction(handle, info, "ij", info, "jk", aliased, "ik", aliased, "ik"),
         ErrorCode.ERR_ALIASING),
        (lambda: tapp_create_unary_op(handle, info, "ij", info, "ik"), ErrorCode.ERR_UNSUPPORTED),
        # unhashable key parts skip the cache
        (lambda: tapp_create_unary_op(handle, info, [["i"], "j"], info, "ij"), ErrorCode.ERR_PARSE),
        (lambda: tapp_create_contraction(
            handle, info, "ij", info, "jk", info, "ik", info, "ik", [DType.R64]),
         ErrorCode.ERR_DTYPE_MISMATCH),
    ]
    for create, code in bad:
        assert create() is code and create() is code
    assert handle._plans.cache_info().currsize == 0
    planned = dict(count_plans)
    op = tapp_create_contraction(handle, info, "ij", info, "jk", info, "ik", info, "ik")
    assert isinstance(op, tapp.OperationDescriptor)
    assert count_plans["make_plan"] == planned["make_plan"] + 1
    assert handle._plans.cache_info().currsize == 1


def test_a_type_error_inside_planning_is_internal_and_not_cached(handle, monkeypatch, caplog):
    from tapp import engine

    def broken(*_args):
        raise TypeError("a planner fault")

    monkeypatch.setattr(engine, "make_plan", broken)
    info = tapp_create_tensor_info(handle, DType.R64, 1, (2,))
    with caplog.at_level("ERROR", logger="tapp"):
        op = tapp_create_contraction(handle, info, "i", info, "i", info, "i", info, "i")
    assert op is ErrorCode.ERR_INTERNAL
    assert [r.getMessage() for r in caplog.records] == ["tapp call failed"]
    assert handle._plans.cache_info().currsize == 0


def test_the_cache_keeps_the_64_most_recently_used_plans(handle, count_plans):
    from tapp.api import _PLAN_CACHE_SIZE

    assert _PLAN_CACHE_SIZE == 64
    out = tapp_create_tensor_info(handle, DType.R64, 0, ())

    def create(n):  # a dot product of extent n + 1, a layout of its own
        info = tapp_create_tensor_info(handle, DType.R64, 1, (n + 1,))
        return tapp_create_contraction(handle, info, "i", info, "i", out, "", out, "")

    first = [create(n) for n in range(64)]
    assert create(0).plan is first[0].plan  # now the most recently used
    create(64)  # the 65th layout: drops the least recently used, 1's
    assert handle._plans.cache_info().currsize == 64 and count_plans["make_plan"] == 65
    assert create(0).plan is first[0].plan and create(63).plan is first[63].plan
    assert create(1).plan is not first[1].plan and count_plans["make_plan"] == 66
    assert handle._plans.cache_info().currsize == 64


# -- the per-handle descriptor cache ------------------------------------------


def test_an_equal_layout_gives_a_new_info_that_shares_the_descriptor(handle):
    first = tapp_create_tensor_info(handle, DType.R64, 2, (3, 4), (1, 3))
    again = tapp_create_tensor_info(handle, DType.R64, 2, [3, 4], np.array([1, 3]))
    assert again is not first and again.desc is first.desc
    assert handle._descs.cache_info().hits == 1
    # each info keeps its own key-value store
    assert tapp_vkv_set(first, 1, b"x") is ErrorCode.OK
    assert tapp_vkv_get(again, 1) is ErrorCode.ERR_KEY_NOT_FOUND
    # another dtype, or strides left to their default, is another key
    r32 = tapp_create_tensor_info(handle, DType.R32, 2, (3, 4), (1, 3))
    dense = tapp_create_tensor_info(handle, DType.R64, 2, (3, 4))
    assert r32.desc.dtype is DType.R32 and dense.desc == first.desc
    assert dense.desc is not first.desc and handle._descs.cache_info().currsize == 3


@pytest.mark.parametrize(
    "extents", [(2.0, 3), (np.int64(2), 3), np.array([2, 3]), np.array([2.0, 3.0])]
)
def test_integral_extents_come_back_as_python_ints_on_a_hit_and_a_miss(handle, extents):
    tapp_create_tensor_info(handle, DType.R32, 2, (2, 3))
    hit = tapp_create_tensor_info(handle, DType.R32, 2, extents)
    fresh = tapp_create_handle()
    miss = tapp_create_tensor_info(fresh, DType.R32, 2, extents)
    after = tapp_create_tensor_info(fresh, DType.R32, 2, (2, 3))  # hits the miss's entry
    tapp_destroy_handle(fresh)
    assert handle._descs.cache_info().hits == 1 and after.desc is miss.desc
    for info in (hit, miss):
        assert info.desc.extents == (2, 3) and info.desc.strides == (1, 2)
        assert all(type(x) is int for x in info.desc.extents + info.desc.strides)


def test_an_unhashable_layout_is_built_without_the_cache(handle):
    # A 0-d array is integral but cannot be hashed; a list is neither.
    info = tapp_create_tensor_info(handle, DType.R64, 2, (np.array(2), 3), (1, np.array(2)))
    assert info.desc.extents == (2, 3) and info.desc.strides == (1, 2)
    assert tapp_create_tensor_info(handle, DType.R64, 2, ([2], 3)) is (
        ErrorCode.ERR_EXTENT_MISMATCH
    )
    assert handle._descs.cache_info().currsize == 0


def test_failing_tensor_infos_are_not_cached(handle):
    bad = [
        ((2, 0), (1, 2), ErrorCode.ERR_EXTENT_MISMATCH),
        ((2.5,), None, ErrorCode.ERR_EXTENT_MISMATCH),
        (("2",), (1,), ErrorCode.ERR_EXTENT_MISMATCH),
        ((2,), (2**61,), ErrorCode.ERR_OUT_OF_BOUNDS),
    ]
    for extents, strides, code in bad:
        for _ in range(2):
            assert tapp_create_tensor_info(handle, DType.R64, len(extents), extents, strides) is code
    assert handle._descs.cache_info().currsize == 0 and handle._descs.cache_info().hits == 0


def test_a_failed_create_leaves_the_librarys_reason_on_the_handle(handle):
    assert handle.detail == ""
    assert tapp_create_tensor_info(handle, DType.R64, 1, (0,)) is ErrorCode.ERR_EXTENT_MISMATCH
    assert handle.detail == "extents must be >= 1"
    two, three = (tapp_create_tensor_info(handle, DType.R64, 1, (n,)) for n in (2, 3))
    square = tapp_create_tensor_info(handle, DType.R64, 2, (2, 2))
    failures = [
        (lambda: tapp_create_contraction(handle, two, "i", three, "i", two, "i", two, "i"),
         ErrorCode.ERR_EXTENT_MISMATCH, "label 'i' has extents 2 and 3"),
        (lambda: tapp_create_binary_op(handle, two, "i", two, "j", two, "i"),
         ErrorCode.ERR_OUTPUT_MISMATCH,
         "binary output must carry B's labels, in order, with equal extents"),
        (lambda: tapp_create_unary_op(handle, square, "ij", square, "ik"),
         ErrorCode.ERR_UNSUPPORTED, "output-only label 'k' is not supported"),
    ]
    for create, code, reason in failures:
        assert create() is code and handle.detail == reason
        # a successful create leaves the reason as it was
        assert isinstance(tapp_create_unary_op(handle, two, "i", two, "i"), tapp.OperationDescriptor)
        assert handle.detail == reason


def test_a_failure_found_before_planning_replaces_the_reason(handle):
    foreign = tapp_create_handle()
    theirs = tapp_create_tensor_info(foreign, DType.R64, 1, (2,))
    tapp_destroy_handle(foreign)
    ours = tapp_create_tensor_info(handle, DType.R64, 1, (2,))
    failures = [
        (lambda: tapp_create_unary_op(handle, theirs, "i", ours, "i"),
         ErrorCode.ERR_INVALID_HANDLE),
        (lambda: tapp_create_tensor_info(handle, DType.R64, 2, (2,)),
         ErrorCode.ERR_EXTENT_MISMATCH),
        (lambda: tapp_create_tensor_info(handle, DType.R64, 1, 5), ErrorCode.ERR_EXTENT_MISMATCH),
        (lambda: tapp_create_tensor_info(handle, "r64", 1, (2,)), ErrorCode.ERR_DTYPE_MISMATCH),
    ]
    for create, code in failures:
        assert tapp_create_tensor_info(handle, DType.R64, 1, (0,)) is ErrorCode.ERR_EXTENT_MISMATCH
        assert handle.detail == "extents must be >= 1"
        assert create() is code and handle.detail == tapp_error_string(code)
    # a handle that is not live keeps no reason
    assert tapp_create_unary_op(foreign, theirs, "i", theirs, "i") is ErrorCode.ERR_INVALID_HANDLE
    assert foreign.detail == ""


def test_plans_belong_to_one_handle(count_plans):
    h1, h2 = tapp_create_handle(), tapp_create_handle()

    def create(h):
        info = tapp_create_tensor_info(h, DType.R64, 1, (3,))
        return tapp_create_unary_op(h, info, "i", info, "i")

    op1 = create(h1)
    op2 = create(h2)
    assert op1.plan is not op2.plan and op1.plan == op2.plan
    assert count_plans["make_unary_plan"] == 2
    info = tapp_create_tensor_info(h1, DType.R64, 1, (3,))
    assert tapp_destroy_handle(h1) is ErrorCode.OK
    assert h1._plans.cache_info().currsize == 0 and h1._descs.cache_info().currsize == 0
    assert tapp_create_unary_op(h1, info, "i", info, "i") is ErrorCode.ERR_INVALID_HANDLE
    assert count_plans["make_unary_plan"] == 2
    tapp_destroy_handle(h2)


def test_threads_creating_the_same_ops_at_once(handle):
    import threading

    def transpose(h, info):
        return tapp_create_binary_op(h, info, "ij", info, "ji", info, "ji").plan

    infos = [tapp_create_tensor_info(handle, DType.R64, 2, (n, n)) for n in (2, 3, 4)]
    fresh = tapp_create_handle()
    want = [transpose(fresh, tapp_create_tensor_info(fresh, i.desc.dtype, 2, i.desc.extents))
            for i in infos]
    tapp_destroy_handle(fresh)
    barrier = threading.Barrier(4)
    plans = [[] for _ in range(4)]
    errors = []

    def work(out):
        try:
            barrier.wait(timeout=10)
            for _ in range(50):
                for info in infos:
                    out.append(transpose(handle, info))
        except Exception as err:  # reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    for out in plans:
        assert len(out) == 150
        for k, plan in enumerate(out):
            assert plan == want[k % 3]
    # at most one plan per thread that missed, and one cached per layout
    for k in range(3):
        assert len({id(plan) for out in plans for plan in out[k::3]}) <= 4
    assert handle._plans.cache_info().currsize == 3
    cached = transpose(handle, infos[0])
    assert any(plan is cached for out in plans for plan in out[::3])
