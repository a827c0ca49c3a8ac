import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tapp import (
    DType,
    TappError,
    TensorDesc,
    TensorView,
    dtype_promote,
    validate_view,
)
from tapp.core import _F32_OVERFLOW, column_major_strides, reach, round_to
from tapp.errors import ErrorCode

ALL_DTYPES = list(DType)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (DType.R32, DType.R32, DType.R32),
        (DType.R32, DType.C64, DType.C64),
        (DType.R64, DType.C32, DType.C64),
        (DType.C32, DType.C32, DType.C32),
        (DType.R32, DType.R64, DType.R64),
    ],
)
def test_dtype_promote(a, b, expected):
    assert dtype_promote(a, b) is expected


def test_dtype_promote_is_a_semilattice():
    for a in ALL_DTYPES:
        assert dtype_promote(a, a) is a
        for b in ALL_DTYPES:
            assert dtype_promote(a, b) is dtype_promote(b, a)
            for c in ALL_DTYPES:
                assert dtype_promote(a, dtype_promote(b, c)) is dtype_promote(
                    dtype_promote(a, b), c
                )


def _view(extents, strides, base, length):
    desc = TensorDesc(tuple(extents), tuple(strides), DType.R64)
    return TensorView(desc, np.zeros(length), base)


@pytest.mark.parametrize(
    "extents, strides, base, length, expected",
    [
        ([2, 2], [1, 2], 0, 4, ErrorCode.OK),
        ([2], [-1], 0, 2, ErrorCode.ERR_OUT_OF_BOUNDS),
        ([2], [-1], 1, 2, ErrorCode.OK),
        ([], [], 0, 1, ErrorCode.OK),
        ([3], [1], 0, 2, ErrorCode.ERR_OUT_OF_BOUNDS),
    ],
)
def test_validate_view(extents, strides, base, length, expected):
    assert validate_view(_view(extents, strides, base, length)) is expected


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_validate_view_dense_column_major(extents):
    desc = TensorDesc.column_major(extents, DType.R64)
    size = math.prod(extents)
    assert validate_view(TensorView(desc, np.zeros(size))) is ErrorCode.OK
    if size > 1:
        short = TensorView(desc, np.zeros(size - 1))
        assert validate_view(short) is ErrorCode.ERR_OUT_OF_BOUNDS


def test_column_major_strides():
    desc = TensorDesc.column_major([2, 3, 4], DType.R32)
    assert desc.strides == (1, 2, 6)
    assert column_major_strides([2, 0, -3, 4]) == (1, 2, 2, 2)  # below 1 counts as 1
    assert column_major_strides([]) == ()


@pytest.mark.parametrize(
    "extents, strides, expected",
    [
        ((), (), (0, 0)),
        ((2, 3), (1, 2), (0, 5)),
        ((2, 3), (-1, 2), (-1, 4)),
        ((4, 1, 3), (0, -7, -5), (-10, 0)),
    ],
)
def test_reach(extents, strides, expected):
    assert reach(extents, strides) == expected


def test_round_to_beyond_float32_range():
    f32_max = float(np.finfo(np.float32).max)
    assert round_to(_F32_OVERFLOW, DType.R32) == math.inf
    assert round_to(-_F32_OVERFLOW, DType.R32) == -math.inf
    assert round_to(math.nextafter(_F32_OVERFLOW, 0.0), DType.R32) == f32_max
    assert round_to(complex(1e39, 1.0), DType.C32) == complex(math.inf, 1.0)
    assert round_to(complex(1.0, -1e39), DType.C32) == complex(1.0, -math.inf)


def test_desc_rejects_bad_shapes():
    with pytest.raises(TappError) as err:
        TensorDesc((2, 0), (1, 2), DType.R64)
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH
    with pytest.raises(TappError):
        TensorDesc((2,), (1, 2), DType.R64)


@pytest.mark.parametrize("dtype", ["r64", None, np.float64])
def test_desc_rejects_a_dtype_that_is_no_dtype(dtype):
    with pytest.raises(TappError) as err:
        TensorDesc((2,), (1,), dtype)
    assert err.value.code is ErrorCode.ERR_DTYPE_MISMATCH


def test_a_pickled_desc_matches_one_built_in_a_fresh_interpreter():
    # Descriptors hash by value: one pickled here equals, hashes like and
    # finds the dict entry of one built in another process, whose string
    # hashes (and so DType's) differ from this one's.
    desc = TensorDesc((2, 3), (3, -1), DType.C64)
    script = (
        "import pickle, sys\n"
        "from tapp import DType, TensorDesc\n"
        "theirs = pickle.loads(sys.stdin.buffer.read())\n"
        "ours = TensorDesc((2, 3), (3, -1), DType.C64)\n"
        "assert theirs == ours and hash(theirs) == hash(ours)\n"
        "assert {ours: 'plan'}[theirs] == 'plan' and theirs._reach == ours._reach\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "random"}
    subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(desc), env=env, check=True
    )


@pytest.mark.parametrize(
    "buffer, base, code",
    [
        ([[1.0], [2.0]], None, ErrorCode.ERR_DTYPE_MISMATCH),
        (np.zeros((2, 1)), 2.5, ErrorCode.ERR_OUT_OF_BOUNDS),
        (np.zeros((2, 1)), 0, ErrorCode.ERR_EXTENT_MISMATCH),
    ],
)
def test_a_view_checks_its_buffer_then_its_base_then_its_shape(buffer, base, code):
    with pytest.raises(TappError) as err:
        TensorView(TensorDesc.column_major((2,), DType.R64), buffer, base)
    assert err.value.code is code
