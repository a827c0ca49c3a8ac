import hashlib
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tapp
from tapp import (
    DenseTensor,
    DType,
    LabelGroup,
    LabelSpec,
    TappError,
    TensorDesc,
    TensorView,
    binary_op,
    contract,
    densify,
    engine,
    make_binary_plan,
    make_plan,
    make_unary_plan,
    oracle_contract,
    parse_einsum,
    unary_op,
)
from tapp.core import reach
from tapp.errors import ErrorCode


def view(extents, data=None, dtype=DType.R64, strides=None, base=0, length=None):
    if strides is None:
        desc = TensorDesc.column_major(tuple(extents), dtype)
    else:
        desc = TensorDesc(tuple(extents), tuple(strides), dtype)
    if data is None:
        hi = base + reach(desc.extents, desc.strides)[1]
        buf = np.zeros(length if length is not None else hi + 1, dtype=dtype.np_dtype)
    else:
        buf = np.array(data, dtype=dtype.np_dtype)
    return TensorView(desc, buf, base)


def run(einsum, a, b, c=None, d=None, alpha=1.0, beta=0.0, compute_dtype=None):
    spec = parse_einsum(einsum)
    if d is None:
        extent_of = {}
        for labels, v in ((spec.labels_a, a), (spec.labels_b, b)):
            for lbl, e in zip(labels, v.desc.extents):
                extent_of[lbl] = e
        d = view([extent_of[l] for l in spec.labels_d])
    if c is None:
        c = view(d.desc.extents, dtype=d.desc.dtype)
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc, compute_dtype)
    status = contract(plan, alpha, a, b, beta, c, d)
    return d, status


def test_matmul_against_identity():
    a = view([2, 2], [1, 2, 3, 4], strides=[2, 1])
    eye = view([2, 2], [1, 0, 0, 1])
    d, _ = run("ij,jk->ik", a, eye)
    assert d.buffer.tolist() == [1, 3, 2, 4]  # column-major [[1,2],[3,4]]


def test_matmul_fixture():
    a = view([2, 2], [1, 2, 3, 4], strides=[2, 1])
    b = view([2, 2], [5, 6, 7, 8], strides=[2, 1])
    d = view([2, 2], strides=[2, 1])
    d, status = run("ij,jk->ik", a, b, d=d)
    assert d.buffer.tolist() == [19, 22, 43, 50]
    assert status.elements_written == 4
    assert status.multiply_adds == 8


def test_dot_product_with_update():
    a = view([3], [1, 2, 3])
    b = view([3], [4, 5, 6])
    c = view([], [10.0])
    d, _ = run("i,i->", a, b, c=c, alpha=2.0, beta=1.0)
    assert d.buffer.tolist() == [74.0]


def test_alpha_zero_never_reads_inputs():
    a = view([2], [np.nan, np.nan])
    b = view([2], [np.nan, np.nan])
    c = view([2], [3.0, 4.0])
    d, _ = run("i,i->i", a, b, c=c, alpha=0.0, beta=1.0)
    assert d.buffer.tolist() == [3.0, 4.0]


def test_beta_zero_never_reads_c():
    a = view([2], [1.0, 2.0])
    b = view([2], [3.0, 4.0])
    c = view([2], [np.nan, np.nan])
    d, _ = run("i,i->i", a, b, c=c, alpha=1.0, beta=0.0)
    assert d.buffer.tolist() == [3.0, 8.0]


def test_plan_loop_sizes():
    spec = parse_einsum("ijk,jlk->il")
    plan = make_plan(
        spec,
        TensorDesc.column_major([2, 3, 4], DType.R64),
        TensorDesc.column_major([3, 5, 4], DType.R64),
        TensorDesc.column_major([2, 5], DType.R64),
        TensorDesc.column_major([2, 5], DType.R64),
    )
    # (R_a, R_b, K, H, F, G): column-major D swaps, so F is B's free group
    assert plan.counts == (1, 1, 12, 1, 5, 2) and plan.swap_ab
    assert plan.compute_dtype is DType.R64


@pytest.mark.parametrize("chunk", [61, 256, 1000, engine._CHUNK])
@pytest.mark.parametrize("pairs", [False, True])
def test_blocks_cover_each_output_cell_once_within_the_chunk(monkeypatch, chunk, pairs):
    # Three budgets: a block holds at most _CHUNK cells where the compute
    # dtype is complex, else _BLOCK_BYTES of float64 cells, patched here to
    # four times the chunk; a contracted step forms at most _CHUNK products
    # over (re, im) pairs, else _STEP_BYTES of float64 products, patched to
    # twice the chunk, but at least one row.
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 32 * chunk)
    monkeypatch.setattr(engine, "_STEP_BYTES", 16 * chunk)
    most = chunk if pairs else 4 * chunk
    products = chunk if pairs else 2 * chunk
    rng = random.Random(chunk)
    for _ in range(60):
        sizes = (1e7,)
        while math.prod(sizes) > 10**6:  # up to 10^6 cells, log-uniform extents
            sizes = tuple(round(10 ** rng.uniform(0, 4)) for _ in range(rng.randint(1, 4)))
        k = round(10 ** rng.uniform(0, 3))
        box = engine._box(k, sizes, pairs, not pairs)
        blocks = list(engine._blocks(sizes, box))
        cover = np.zeros(sizes, np.int32)
        for block in blocks:
            cover[block] += 1
            cells = math.prod(len(range(n)[s]) for n, s in zip(sizes, block))
            assert cells <= most and box[0] * cells <= max(products, cells)
        assert (cover == 1).all(), (k, sizes)
        assert (len(blocks) == 1) == (math.prod(sizes) <= most)
        # a step takes as many rows as the budget allows, at least one
        assert box[0] == max(1, min(k, products // math.prod(box[1:])))


@pytest.mark.parametrize("dtype", list(DType))
def test_real_matmul_sums_all_of_k_in_one_step(dtype):
    # 32x32x32: a real step forms all 32,768 products at once; a complex
    # one keeps 8,192 (re, im) products, so K splits.
    desc = TensorDesc.column_major((32, 32), dtype)
    plan = make_plan(parse_einsum("ij,jk->ik"), desc, desc, desc, desc)
    step, *box = plan.box
    if dtype.is_complex:
        assert step * math.prod(box) <= 8192 and step < 32
    else:
        assert step == 32 and plan.whole


def test_oneshot_real_outputs_run_as_one_block_and_complex_ones_keep_8192_cells():
    # 256x256 r64: 512 KiB of float64 in one block.  A complex compute
    # dtype keeps 8,192 cells a block, also where only the output is
    # complex, as its values may then be (re, im) pairs.
    spec = parse_einsum("i,j->ij")
    vec = {dt: TensorDesc.column_major((256,), dt) for dt in (DType.R64, DType.C64)}
    r64, c64 = (TensorDesc.column_major((256, 256), dt) for dt in (DType.R64, DType.C64))
    outer = make_plan(spec, vec[DType.R64], vec[DType.R64], r64, r64)
    binary = engine.make_binary_plan("ij", r64, "ji", r64, "ji", r64)
    assert outer.whole and binary.whole and outer.box == (1, 1, 256, 256)
    for dt in vec:
        plan = make_plan(spec, vec[dt], vec[dt], c64, c64)
        assert math.prod(plan.box[1:]) == 8192 and not plan.whole


def _product_plan(einsum, extents, dtype=DType.R64, row_major=False):
    spec = parse_einsum(einsum)
    descs = []
    for labels in (spec.labels_a, spec.labels_b, spec.labels_d):
        shape = tuple(extents[l] for l in labels)
        if row_major:
            strides = TensorDesc.column_major(shape[::-1], dtype).strides[::-1]
            descs.append(TensorDesc(shape, strides, dtype))
        else:
            descs.append(TensorDesc.column_major(shape, dtype))
    return make_plan(spec, *descs, descs[-1])


def test_long_rows_mark_outer_products_whose_rows_hold_128_cells():
    # Fires: both F and G above one cell, and a block's rows of >= 128.
    wide = {"i": 256, "j": 256}
    for dtype in (DType.R64, DType.C64):
        assert _product_plan("i,j->ij", wide, dtype).long_rows
    long_k = {"i": 128, "j": 16, "k": 256}
    for row_major in (False, True):  # rows of i (128) or of k (256)
        plan = _product_plan("ij,jk->ik", long_k, row_major=row_major)
        assert plan.long_rows and plan.box[-1] == (256 if row_major else 128)
    # Does not fire: rows of 32 or 64 cells, F or G of one cell, A as U.
    for dtype in DType:
        assert not _product_plan("ij,jk->ik", {"i": 32, "j": 32, "k": 32}, dtype).long_rows
    for dtype in (DType.R64, DType.C64):  # column-major D: rows of i
        assert not _product_plan("i,j->ij", {"i": 64, "j": 256}, dtype).long_rows
    assert not _product_plan("ij,jk->ik", {"i": 64, "j": 16, "k": 256}).long_rows
    assert not _product_plan("ijk,ijk->ij", {"i": 256, "j": 256, "k": 2}).long_rows
    square = TensorDesc.column_major((256, 256), DType.R64)
    assert not engine.make_binary_plan("ij", square, "ji", square, "ji", square).long_rows
    assert not make_unary_plan("ij", square, "ji", square).long_rows
    assert not engine.make_binary_plan(
        "i", TensorDesc.column_major((256,), DType.R64), "ij", square, "ij", square
    ).long_rows
    # A round of small ops: 2x3x2 products, 4x4 binary transposes, 2x2x2
    # unary `ijk->ki`s and a dot product of 4.
    for dtype in DType:
        assert not _product_plan("ij,jk->ik", {"i": 2, "j": 3, "k": 2}, dtype).long_rows
        small = TensorDesc.column_major((4, 4), dtype)
        assert not engine.make_binary_plan("ij", small, "ji", small, "ji", small).long_rows
        cube, pair = (TensorDesc.column_major(s, dtype) for s in ((2, 2, 2), (2, 2)))
        assert not make_unary_plan("ijk", cube, "ki", pair).long_rows
    assert not _product_plan("i,i->", {"i": 4}).long_rows


def test_outer_products_get_a_ufunc_buffer_by_their_rows_and_steps():
    # Short rows whose contracted step forms products of at least 16,384
    # float parts: 1,024 elements.  `steady_large`'s 32x32x32 matmuls
    # (32,768 real products a step, or 8,192 complex ones) and batched
    # `bij,bjk->bik` (32,768 products a step, rows of 16).
    cube = {"i": 32, "j": 32, "k": 32}
    for dtype in DType:
        for row_major in (False, True):
            plan = _product_plan("ij,jk->ik", cube, dtype, row_major)
            assert plan.bufsize == engine._SHORT_ROW_BUFFER == 1024
    batched = {"b": 8, "i": 16, "j": 16, "k": 16}
    assert _product_plan("bij,bjk->bik", batched).bufsize == 1024
    # Rows of at least 128 cells: 128 elements, whatever the step.
    for dtype in (DType.R64, DType.C64):
        plan = _product_plan("i,j->ij", {"i": 256, "j": 256}, dtype)
        assert plan.bufsize == engine._ROW_BUFFER == 128 and plan.box[0] == 1
    # numpy's own (0): tiny steps, steps of 4,096 products (`steady_large`'s
    # input-only reduction), batch-only plans, and binary and unary plans.
    for dtype in DType:
        assert _product_plan("ij,jk->ik", {"i": 2, "j": 3, "k": 2}, dtype).bufsize == 0
        small = TensorDesc.column_major((4, 4), dtype)
        assert engine.make_binary_plan("ij", small, "ji", small, "ji", small).bufsize == 0
        cube3, pair = (TensorDesc.column_major(s, dtype) for s in ((2, 2, 2), (2, 2)))
        assert make_unary_plan("ijk", cube3, "ki", pair).bufsize == 0
    assert _product_plan("ijr,jk->ik", {"i": 16, "j": 16, "k": 16, "r": 8}).bufsize == 0
    assert _product_plan("i,i->", {"i": 4}).bufsize == 0
    assert _product_plan("ijk,ijk->ij", {"i": 256, "j": 256, "k": 2}).bufsize == 0
    square = TensorDesc.column_major((256, 256), DType.R64)
    assert engine.make_binary_plan("ij", square, "ji", square, "ji", square).bufsize == 0
    assert make_unary_plan("ij", square, "ji", square).bufsize == 0


def _layout_fingerprint(layout) -> tuple:
    return layout.shape, layout.strides, str(layout.dtype), layout.pairs, layout.broadcast


def _plan_fingerprint(plan) -> tuple:
    """What execution reads of a plan, as plain values."""
    loads = [
        None if x is None else (
            x.slot, _layout_fingerprint(x.layout), x.shape, str(x.dtype), x.cast,
            x.reduced, x.dense, x.cut,
        )
        for x in plan.loads
    ]
    descs = [(d.extents, d.strides, d.dtype.value)
             for d in (plan.desc_a, plan.desc_b, plan.desc_c, plan.desc_d)]
    return (
        tuple(plan.spec), descs, plan.compute_dtype.value, plan.counts, plan.cells,
        plan.box, plan.swap_ab, plan.whole, plan.parted, plan.long_rows, str(plan.part),
        plan.pairs, plan.cmul, plan.unit_a, loads,
        [_layout_fingerprint(x) for x in (plan.layout_a, plan.layout_b, plan.layout_c,
                                          plan.layout_d)],
    )


def _create_fingerprint(kind, operands, compute_dtype=None) -> tuple:
    """The fingerprint of the plan that a fresh handle creates for the
    ``(dtype, extents, strides, labels)`` operands, or the create's error
    code and the handle's reason."""
    handle = tapp.tapp_create_handle()
    try:
        args = []
        for dtype, extents, strides, labels in operands:
            info = tapp.tapp_create_tensor_info(handle, dtype, len(extents), extents, strides)
            if isinstance(info, ErrorCode):
                return "info", int(info), handle.detail
            args += [info, labels]
        create = {
            "product": tapp.tapp_create_contraction,
            "binary": tapp.tapp_create_binary_op,
            "unary": tapp.tapp_create_unary_op,
        }[kind]
        op = create(handle, *args, *([compute_dtype] if compute_dtype else []))
        if isinstance(op, ErrorCode):
            return "create", int(op), handle.detail
        return _plan_fingerprint(op.plan)
    finally:
        tapp.tapp_destroy_handle(handle)


def _case_operands(case):
    return [
        (entry.dtype, entry.extents, entry.strides, labels)
        for entry, labels in zip(
            (case.a, case.b, case.c, case.d),
            (case.spec.labels_a, case.spec.labels_b, case.spec.labels_c, case.spec.labels_d),
        )
    ]


def _cm(*extents):
    return TensorDesc.column_major(extents, DType.R64).strides


# Binary and unary creates, (labels, extents, strides or None), beside the
# suite's products: shapes and faults of this file's binary and unary tests.
_OP_CREATES = [
    ("binary", ("ij", "ji", "ji"), [(4, 4)] * 3, None),
    ("binary", ("ij", "ji", "ji"), [(256, 256)] * 3, None),
    ("binary", ("i", "ij", "ij"), [(256,), (256, 256), (256, 256)], None),
    ("binary", ("ij", "ij", "ij"), [(2, 3)] * 3, [(1, 2), (3, 1), (3, 1)]),
    ("binary", ("ij", "i", "i"), [(2, 2), (2,), (2,)], [(2, 1), None, None]),
    ("binary", ("", "i", "i"), [(), (2,), (2,)], None),
    ("binary", ("i", "i", "j"), [(2,), (2,), (2,)], None),
    ("binary", ("i", "i", "j"), [(2,), (3,), (3,)], None),
    ("binary", ("i", "j", "j"), [(2,), (3,), (2,)], None),
    ("binary", ("ij", "ji", "ji"), [(4, 4), (4, 4), (4, 4)], [None, None, (1, 1)]),
    ("unary", ("ijk", "ki"), [(2, 2, 2), (2, 2)], None),
    ("unary", ("rij", "ji"), [(4, 3, 2), (2, 3)], None),
    ("unary", ("ii", "i"), [(2, 2), (2,)], [(2, 1), None]),
    ("unary", ("ri", ""), [(4, 3), ()], None),
    ("unary", ("ij", "ji"), [(2, 3), (3, 2)], [(1, 2), (1, 3)]),
    ("unary", ("i", ""), [(3,), ()], None),
    ("unary", ("i$", "i"), [(2, 3), (2,)], None),
    ("unary", ("ijk", "ij"), [(2, 3), (2, 3)], None),
    ("unary", ("ij", "ii"), [(2, 3), (2, 3)], None),
    ("unary", ("ij", "ijk"), [(2, 3), (2, 3, 2)], None),
    ("unary", ("ij", "ji"), [(2, 3), (2, 2)], None),
    ("unary", ("ij", "ij"), [(2, 3), (2, 3)], [None, (1, 1)]),
    ("unary", ("i", "ij"), [(2,), (3, 2)], None),
    ("unary", ("ij", "i"), [(2, 2), (3,)], None),
]


def _plan_fingerprints():
    from tapp.cli import CATEGORIES, generate_case, parse_case

    for category, recipe in CATEGORIES.items():
        for seed in range(10):
            doc = generate_case(category, seed)
            case = parse_case(doc)
            yield _create_fingerprint("product", _case_operands(case))
            if recipe.transform is not None:
                other = recipe.transform[1](case, random.Random(f"{seed}:{category}:perm"))
                if other is not None:
                    yield _create_fingerprint("product", _case_operands(other[0]))
    for kind, labels, shapes, strides in _OP_CREATES:
        strides = strides or [None] * len(shapes)
        operands = [
            (DType.R64, shape, _cm(*shape) if s is None else s, lbl)
            for lbl, shape, s in zip(labels, shapes, strides)
        ]
        yield _create_fingerprint(kind, operands)
        if kind != "unary" or "$" in labels[0]:
            continue
        for dtype in (DType.R32, DType.C32, DType.C64):
            yield _create_fingerprint(kind, [(dtype, *x[1:]) for x in operands])
    for dtype in (DType.R32, DType.C64):
        for compute_dtype in (*DType, "r64"):
            yield _create_fingerprint("product", [(dtype, (4,), (1,), "i")] * 4, compute_dtype)


def test_plans_are_pinned():
    # sha256 of the plan, or the create's code and reason, of every
    # category's cases at seeds 0..9 (and of their metamorphic transforms)
    # and of binary and unary creates, so that a planner change that
    # moves a block shape, a layout, a load or an error shows here, where
    # equal bits alone would not.
    digest = hashlib.sha256()
    count = 0
    for fingerprint in _plan_fingerprints():
        digest.update(repr(fingerprint).encode())
        count += 1
    assert count == 373
    assert digest.hexdigest() == (
        "9e08aaeb39d5876bef867db5029b951d79ae5a821bab044dd197dbbc088f5e40"
    )


def _plan_error(einsum, descs, **kwargs):
    with pytest.raises(TappError) as err:
        make_plan(parse_einsum(einsum), *descs, **kwargs)
    return err.value.code


def test_plan_rejects_extent_mismatch():
    code = _plan_error(
        "ij,jk->ik",
        (
            TensorDesc.column_major([2, 3], DType.R64),
            TensorDesc.column_major([4, 5], DType.R64),
            TensorDesc.column_major([2, 5], DType.R64),
            TensorDesc.column_major([2, 5], DType.R64),
        ),
    )
    assert code is ErrorCode.ERR_EXTENT_MISMATCH


def test_plan_rejects_aliased_output():
    code = _plan_error(
        "i,i->i",
        (
            TensorDesc.column_major([2], DType.R64),
            TensorDesc.column_major([2], DType.R64),
            TensorDesc.column_major([2], DType.R64),
            TensorDesc((2,), (0,), DType.R64),
        ),
    )
    assert code is ErrorCode.ERR_ALIASING


def test_plan_rejects_output_only_labels():
    code = _plan_error(
        "i,j->ijk",
        (
            TensorDesc.column_major([2], DType.R64),
            TensorDesc.column_major([2], DType.R64),
            TensorDesc.column_major([2, 2, 2], DType.R64),
            TensorDesc.column_major([2, 2, 2], DType.R64),
        ),
    )
    assert code is ErrorCode.ERR_UNSUPPORTED


def test_plan_rejects_c_label_order_mismatch():
    spec = LabelSpec.of(("i", "j"), ("j", "k"), ("i", "k"), labels_c=("k", "i"))
    with pytest.raises(TappError) as err:
        make_plan(
            spec,
            TensorDesc.column_major([2, 3], DType.R64),
            TensorDesc.column_major([3, 2], DType.R64),
            TensorDesc.column_major([2, 2], DType.R64),
            TensorDesc.column_major([2, 2], DType.R64),
        )
    assert err.value.code is ErrorCode.ERR_OUTPUT_MISMATCH


def test_plan_rejects_narrower_compute_dtype():
    descs = [TensorDesc.column_major([2], DType.R64)] * 4
    with pytest.raises(TappError) as err:
        make_plan(parse_einsum("i,i->i"), *descs, compute_dtype=DType.R32)
    assert err.value.code is ErrorCode.ERR_DTYPE_MISMATCH
    plan = make_plan(parse_einsum("i,i->i"), *descs, compute_dtype=DType.C64)
    assert plan.compute_dtype is DType.C64


@pytest.mark.parametrize("alpha", [1.5 + 0j, complex(1.5, -0.0)])
def test_contract_rejects_complex_scalar_on_real_operands(alpha):
    a = view([2], [1.0, 2.0])
    with pytest.raises(TappError) as err:
        run("i,i->i", a, a, alpha=1 + 2j)
    assert err.value.code is ErrorCode.ERR_DTYPE_MISMATCH
    # A zero imaginary part degrades gracefully to the real value.
    d, _ = run("i,i->i", a, a, alpha=alpha)
    assert d.buffer.tolist() == [1.5, 6.0]
    assert d.buffer.tobytes() == run("i,i->i", a, a, alpha=1.5)[0].buffer.tobytes()


def test_contract_rejects_wrong_buffer_dtype():
    a = view([2], [1.0, 2.0])
    bad = TensorView(a.desc, np.zeros(2, dtype=np.float32))
    plan = make_plan(parse_einsum("i,i->i"), a.desc, a.desc, a.desc, a.desc)
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, a, bad, 0.0, a, view([2]))
    assert err.value.code is ErrorCode.ERR_DTYPE_MISMATCH


@pytest.mark.parametrize(
    "desc, length",
    [
        (TensorDesc((2,), (1,), DType.R64), 1),  # escapes its buffer
        (TensorDesc((2,), (2,), DType.R64), 4),  # a layout other than the plan's
    ],
)
def test_contract_rejects_view_escaping_buffer(desc, length):
    a = view([2], [1.0, 2.0])
    bad = TensorView(desc, np.zeros(length))
    plan = make_plan(parse_einsum("i,i->i"), a.desc, a.desc, a.desc, a.desc)
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, a, a, 0.0, a, bad)
    assert err.value.code is ErrorCode.ERR_OUT_OF_BOUNDS


def test_in_place_update_is_allowed():
    a = view([2], [1.0, 2.0])
    b = view([2], [3.0, 4.0])
    cd = view([2], [10.0, 20.0])
    d, _ = run("i,i->i", a, b, c=cd, d=cd, alpha=1.0, beta=1.0)
    assert d.buffer.tolist() == [13.0, 28.0]


def test_output_overlapping_an_input_is_rejected():
    buf = np.array([1.0, 2.0, 3.0, 4.0])
    desc = TensorDesc.column_major([2], DType.R64)
    a = TensorView(desc, buf, 0)
    d = TensorView(desc, buf, 1)  # overlaps a
    plan = make_plan(parse_einsum("i,i->i"), desc, desc, desc, desc)
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, a, view([2], [1, 1]), 0.0, view([2]), d)
    assert err.value.code is ErrorCode.ERR_ALIASING


def test_overlap_is_judged_by_address_not_by_array_object():
    # Distinct ndarray objects that slice one base share memory.
    base = np.zeros(8)
    desc = TensorDesc.column_major([2], DType.R64)
    plan = make_plan(parse_einsum("i,i->i"), desc, desc, desc, desc)
    ones = view([2], [1.0, 1.0])
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, TensorView(desc, base[0:3]), ones, 0.0, view([2]),
                 TensorView(desc, base[1:4]))
    assert err.value.code is ErrorCode.ERR_ALIASING
    base[:] = [1, 2, 3, 4, 5, 6, 7, 8]
    d = TensorView(desc, base[2:4])
    contract(plan, 1.0, TensorView(desc, base[0:2]), ones, 0.0, view([2]), d)
    assert base.tolist() == [1, 2, 1, 2, 5, 6, 7, 8]
    # C in place through another array object over D's elements.
    contract(plan, 1.0, ones, ones, 1.0, TensorView(desc, base[2:4]), d)
    assert base.tolist() == [1, 2, 2, 3, 5, 6, 7, 8]


def test_overlap_on_strided_buffers_is_judged_by_byte_stride():
    big = np.arange(8.0)
    desc = TensorDesc.column_major([4], DType.R64)
    # big[::2] holds elements 0, 2, 4, 6 and big[4:8] elements 4 to 7.
    for a_buf in (big[::2], big[::-2]):
        with pytest.raises(TappError) as err:
            unary_op(1.0, TensorView(desc, a_buf), "i", TensorView(desc, big[4:8]), "i")
        assert err.value.code is ErrorCode.ERR_ALIASING
        assert big.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    # Disjoint: elements 0 and 2 against 4 and 5.
    pair = TensorDesc.column_major([2], DType.R64)
    unary_op(2.0, TensorView(pair, big[0:3:2]), "i", TensorView(pair, big[4:6]), "i")
    assert big.tolist() == [0, 1, 2, 3, 0, 4, 6, 7]
    # In place through the identical strided view: elements 0, 2, 4, 6 as 2x2.
    square = TensorDesc.column_major([2, 2], DType.R64)
    unary_op(1.0, TensorView(square, big[::2]), "ij", TensorView(square, big[::2]), "ji")
    assert big.tolist() == [0, 1, 0, 3, 2, 4, 6, 7]
    # The same elements in reverse order are not the identical view.
    with pytest.raises(TappError) as err:
        unary_op(1.0, TensorView(desc, big[::2]), "i", TensorView(desc, big[6::-2]), "i")
    assert err.value.code is ErrorCode.ERR_ALIASING


def test_partially_overlapping_c_and_d_are_rejected():
    buf = np.zeros(4)
    desc = TensorDesc.column_major([2], DType.R64)
    c = TensorView(desc, buf, 0)
    d = TensorView(desc, buf, 1)
    plan = make_plan(parse_einsum("i,i->i"), desc, desc, desc, desc)
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, view([2], [1, 1]), view([2], [1, 1]), 1.0, c, d)
    assert err.value.code is ErrorCode.ERR_ALIASING


@pytest.mark.parametrize("strides_d", [(1, 2), (2, 1)])
def test_errors_name_the_operand_as_given_whatever_the_loop_order(strides_d):
    # With D column-major A and B trade places in the loop, row-major not:
    # either way the checks see A and B as given.
    desc = TensorDesc.column_major((2, 2), DType.R64)
    desc_d = TensorDesc((2, 2), strides_d, DType.R64)
    plan = make_plan(parse_einsum("ij,jk->ik"), desc, desc, desc, desc_d)
    assert plan.swap_ab is (strides_d == (1, 2))
    good, d = view([2, 2], [1.0] * 4), TensorView(desc_d, np.zeros(4))
    cases = [
        (np.zeros(4, np.float32), ErrorCode.ERR_DTYPE_MISMATCH, "{}: buffer dtype differs"),
        (np.zeros(3), ErrorCode.ERR_OUT_OF_BOUNDS, "{}: view escapes its buffer"),
        (d.buffer, ErrorCode.ERR_ALIASING, "D overlaps operand {}"),
    ]
    for buffer, code, message in cases:
        bad = TensorView(desc, buffer)
        for a, b, name in ((bad, bad, "A"), (good, bad, "B")):
            with pytest.raises(TappError) as err:
                contract(plan, 1.0, a, b, 0.0, good, d)
            assert err.value.code is code and message.format(name) in str(err.value)
    assert d.buffer.tolist() == [0.0] * 4


def test_mixed_dtype_promotion_and_cast():
    a = view([2], [1.5, 2.5], dtype=DType.R32)
    b = view([2], [1j, 1j], dtype=DType.C64)
    spec = parse_einsum("i,i->i")
    d = view([2], dtype=DType.C64)
    c = view([2], dtype=DType.C64)
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    assert plan.compute_dtype is DType.C64
    contract(plan, 1.0, a, b, 0.0, c, d)
    assert d.buffer.tolist() == [1.5j, 2.5j]


def test_guard_bands_stay_untouched():
    pad = 3
    buf = np.full(4 + 2 * pad, 7.0)
    desc = TensorDesc.column_major([2, 2], DType.R64)
    d = TensorView(desc, buf, pad)
    a = view([2, 2], [1, 2, 3, 4])
    b = view([2, 2], [1, 0, 0, 1])
    plan = make_plan(parse_einsum("ij,jk->ik"), a.desc, b.desc, desc, desc)
    contract(plan, 1.0, a, b, 0.0, view([2, 2]), d)
    assert buf[:pad].tolist() == [7.0] * pad
    assert buf[4 + pad:].tolist() == [7.0] * pad
    assert buf[pad:4 + pad].tolist() == [1, 2, 3, 4]


def test_binary_elementwise_add():
    status_target = view([2])
    binary_op(1.0, view([2], [1, 2]), "i", 1.0, view([2], [3, 4]), "i", status_target, "i")
    assert status_target.buffer.tolist() == [4.0, 6.0]


def test_binary_reduction():
    a = view([2, 2], [1, 2, 3, 4], strides=[2, 1])  # rows are i
    out = view([2])
    binary_op(1.0, a, "ij", 0.0, view([2]), "i", out, "i")
    assert out.buffer.tolist() == [3.0, 7.0]


def test_binary_broadcast_scalar():
    out = view([2])
    binary_op(1.0, view([], [5.0]), "", 1.0, view([2], [1, 2]), "i", out, "i")
    assert out.buffer.tolist() == [6.0, 7.0]


def test_binary_rejects_label_mismatch():
    with pytest.raises(TappError) as err:
        binary_op(1.0, view([2], [1, 2]), "i", 1.0, view([2], [3, 4]), "i", view([2]), "j")
    assert err.value.code is ErrorCode.ERR_OUTPUT_MISMATCH


def test_unary_transpose():
    a = view([2, 2], [1, 2, 3, 4], strides=[2, 1])  # [[1,2],[3,4]]
    out = view([2, 2])
    unary_op(1.0, a, "ij", out, "ji")
    # out[j,i] == a[i,j]; column-major buffer order (j fastest)
    assert out.buffer.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_unary_diagonal():
    a = view([2, 2], [1, 2, 3, 4], strides=[2, 1])
    out = view([2])
    unary_op(1.0, a, "ii", out, "i")
    assert out.buffer.tolist() == [1.0, 4.0]


def test_unary_reduce_and_scale():
    out = view([])
    unary_op(2.0, view([3], [1, 2, 3]), "i", out, "")
    assert out.buffer.tolist() == [12.0]


def test_unary_rejects_output_only_label():
    with pytest.raises(TappError) as err:
        unary_op(1.0, view([2], [1, 2]), "i", view([2, 2]), "ij")
    assert err.value.code is ErrorCode.ERR_UNSUPPORTED


@pytest.mark.parametrize(
    "labels, extents, code",
    [
        # Extents are compared across A, B and C before B must match C
        # in labels and extents.
        (("i", "i", "j"), ((2,), (3,), (3,)), ErrorCode.ERR_EXTENT_MISMATCH),
        (("i", "j", "j"), ((2,), (3,), (2,)), ErrorCode.ERR_EXTENT_MISMATCH),
    ],
)
def test_binary_error_precedence(labels, extents, code):
    a, b, out = (view(e) for e in extents)
    with pytest.raises(TappError) as err:
        binary_op(1.0, a, labels[0], 1.0, b, labels[1], out, labels[2])
    assert err.value.code is code


@pytest.mark.parametrize(
    "labels, extents, code",
    [
        # Output-only labels are rejected before extents are compared.
        (("i", "ij"), ((2,), (3, 2)), ErrorCode.ERR_UNSUPPORTED),
        (("ij", "i"), ((2, 2), (3,)), ErrorCode.ERR_EXTENT_MISMATCH),
    ],
)
def test_unary_error_precedence(labels, extents, code):
    a, out = (view(e) for e in extents)
    with pytest.raises(TappError) as err:
        unary_op(1.0, a, labels[0], out, labels[1])
    assert err.value.code is code


R64_2x3 = TensorDesc((2, 3), (1, 2), DType.R64)


@pytest.mark.parametrize(
    "labels_a, desc_a, labels_out, desc_out, code",
    [
        pytest.param("i$", R64_2x3, "i", TensorDesc((2,), (1,), DType.R64),
                     ErrorCode.ERR_PARSE, id="bad-label"),
        pytest.param("ijk", R64_2x3, "ij", R64_2x3, ErrorCode.ERR_EXTENT_MISMATCH,
                     id="a-label-count"),
        pytest.param("ij", R64_2x3, "ii", R64_2x3, ErrorCode.ERR_EXTENT_MISMATCH,
                     id="repeat-extents-in-output"),
        pytest.param("ij", R64_2x3, "ijk", TensorDesc((2, 3, 2), (1, 2, 6), DType.R64),
                     ErrorCode.ERR_UNSUPPORTED, id="output-only-label"),
        pytest.param("ij", R64_2x3, "ji", TensorDesc((2, 2), (1, 2), DType.R64),
                     ErrorCode.ERR_EXTENT_MISMATCH, id="a-output-extent-conflict"),
        pytest.param("ij", R64_2x3, "ij", TensorDesc((2, 3), (1, 1), DType.R64),
                     ErrorCode.ERR_ALIASING, id="aliasing-d"),
    ],
)
def test_unary_plan_faults(labels_a, desc_a, labels_out, desc_out, code):
    with pytest.raises(TappError) as err:
        make_unary_plan(labels_a, desc_a, labels_out, desc_out)
    assert err.value.code is code


def test_unary_plan_is_a_contraction_with_a_zero_mode_unit_operand():
    out = TensorDesc((3, 2), (1, 3), DType.R64)
    plan = make_unary_plan("ij", R64_2x3, "ji", out)
    assert plan.spec == LabelSpec((), ("i", "j"), ("j", "i"), ("j", "i"))
    assert plan.desc_a == TensorDesc((), (), DType.R32)
    assert (plan.desc_b, plan.desc_c, plan.desc_d) == (R64_2x3, out, out)


# Special complex values whose parts a copy must keep bit for bit: an
# infinity next to +0.0, zeros of either sign, and NaN next to a finite part.
SPECIAL_COMPLEX = [complex(math.inf, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                   complex(math.nan, 1.0)]


@pytest.mark.parametrize("n", [2, 32])  # 32 x 32: D is stored part by part
def test_a_complex_unary_transpose_at_alpha_one_copies_every_bit(n):
    data = np.array(SPECIAL_COMPLEX * (n * n // 4), np.complex128)
    desc = TensorDesc.column_major((n, n), DType.C64)
    a, out = TensorView(desc, data), view([n, n], dtype=DType.C64)
    engine.run_unary(make_unary_plan("ij", desc, "ji", desc), 1.0, a, out)
    want = data.reshape(n, n, order="F").T.ravel(order="F")
    assert out.buffer.tobytes() == want.tobytes()


def test_a_real_infinity_becomes_a_complex_one_with_a_zero_imaginary_part():
    a = view([3], [math.inf, -math.inf, -0.0])
    out = view([3], dtype=DType.C64)
    engine.run_unary(make_unary_plan("i", a.desc, "i", out.desc), 1.0, a, out)
    want = np.array([complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(-0.0, 0.0)])
    assert out.buffer.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_a_complex_binary_keeps_every_bit_of_its_operand(beta):
    # beta * (-0.0 - 0.0j) is (-0.0, -0.0) part by part, which adds nothing
    # to any value, the zeros' signs included; the full complex product
    # (beta, +0.0) * (-0.0, -0.0) would give +0.0 parts.
    data = np.array(SPECIAL_COMPLEX, np.complex128)
    a = TensorView(TensorDesc.column_major((2, 2), DType.C64), data)
    b = view([2, 2], [complex(-0.0, -0.0)] * 4, dtype=DType.C64)
    out = view([2, 2], dtype=DType.C64)
    binary_op(1.0, a, "ij", beta, b, "ij", out, "ij")
    assert out.buffer.tobytes() == data.tobytes()


def test_binary_and_unary_executes_skip_the_sum(monkeypatch):
    def no_sum(*args):
        raise AssertionError("a binary or unary execute formed U's product")

    a = view([3, 2], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b, out = view([2, 3], [1.0] * 6), view([2, 3])
    monkeypatch.setattr(engine, "_sum", no_sum)
    binary_op(2.0, a, "ij", 0.5, b, "ji", out, "ji")
    assert out.buffer.tolist() == [2.5, 8.5, 4.5, 10.5, 6.5, 12.5]
    unary_op(2.0, a, "ij", out, "ji")
    assert out.buffer.tolist() == [2.0, 8.0, 4.0, 10.0, 6.0, 12.0]
    with pytest.raises(AssertionError, match="U's product"):
        run("ij,jk->ik", a, b)  # a product does sum


def _random_view(rng, labels, extents, dtype, negative=False):
    shape = [extents[l] for l in labels]
    data = [rng.uniform(-1, 1) for _ in range(math.prod(shape))]
    if dtype.is_complex:
        data = [complex(x, rng.uniform(-1, 1)) for x in data]
    v = view(shape, data, dtype=dtype)
    if not negative:
        return v
    # Same elements, first mode read backwards from the far end.
    strides = list(v.desc.strides)
    base = strides[0] * (shape[0] - 1)
    strides[0] = -strides[0]
    return TensorView(TensorDesc(tuple(shape), tuple(strides), dtype), v.buffer, base)


def _oracle_binary(alpha, a, labels_a, beta, b, labels_out, out_dtype):
    """``alpha*A + beta*B`` by the oracle, as ``alpha * U A + beta * B``
    with a one-element unit tensor U and output-only labels broadcast."""
    unit = DenseTensor((), (1.0,), DType.R32)
    dense_a, ua = densify(a, labels_a)
    dense_b, ub = densify(b, labels_out)
    spec = LabelSpec.of((), ua, tuple(labels_out), ub)
    return oracle_contract(spec, unit, dense_a, dense_b, alpha, beta, out_dtype)


@pytest.mark.parametrize("dtype", list(DType))
@pytest.mark.parametrize(
    "labels_a, labels_out, negative",
    [
        ("ij", "ji", False),
        ("ij", "ji", True),
        ("rij", "ji", False),  # reduction
        ("ii", "i", False),  # diagonal
        ("ri", "", False),  # full reduction
        ("i", "ij", False),  # A broadcast (binary only)
        ("", "ij", False),
    ],
)
def test_binary_and_unary_match_oracle(dtype, labels_a, labels_out, negative):
    rng = random.Random(f"{dtype}{labels_a}{labels_out}{negative}")
    extents = {"i": 3, "j": 2, "r": 4}
    alpha, beta = (0.75 + 0.5j, -1.25 - 0.25j) if dtype.is_complex else (0.75, -1.25)
    tol = 1e-4 if dtype.width == 32 else 1e-12
    shape_out = [extents[l] for l in labels_out]
    a = _random_view(rng, labels_a, extents, dtype, negative)
    b = _random_view(rng, labels_out, extents, dtype)

    outputs = []
    out = view(shape_out, dtype=dtype)
    binary_op(alpha, a, labels_a, beta, b, labels_out, out, labels_out)
    outputs.append((out, _oracle_binary(alpha, a, labels_a, beta, b, labels_out, dtype)))
    if set(labels_out) <= set(labels_a):
        out = view(shape_out, dtype=dtype)
        unary_op(alpha, a, labels_a, out, labels_out)
        outputs.append((out, _oracle_binary(alpha, a, labels_a, 0.0, b, labels_out, dtype)))

    for out, expected in outputs:
        got = densify(out, labels_out)[0].elements
        for x, y in zip(got, expected.elements):
            assert abs(x - y) / max(abs(y), 1.0) <= tol


def test_unary_in_place_on_the_identical_view():
    buf = np.array([1.0, 2.0, 3.0, 4.0])
    desc = TensorDesc.column_major([2, 2], DType.R64)
    # Two view objects over the same storage: B is A's identical view.
    unary_op(1.0, TensorView(desc, buf), "ij", TensorView(desc, buf), "ji")
    assert buf.tolist() == [1.0, 3.0, 2.0, 4.0]


def test_unary_in_place_through_distinct_array_objects():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    desc = TensorDesc.column_major([2, 2], DType.R64)
    unary_op(1.0, TensorView(desc, base[0:4]), "ij", TensorView(desc, base[:]), "ji")
    assert base.tolist() == [1.0, 3.0, 2.0, 4.0]


def test_binary_in_place_on_the_identical_view():
    buf = np.array([10.0, 20.0])
    desc = TensorDesc.column_major([2], DType.R64)
    a = view([2], [1.0, 2.0])
    binary_op(1.0, a, "i", 1.0, TensorView(desc, buf), "i", TensorView(desc, buf), "i")
    assert buf.tolist() == [11.0, 22.0]


def test_one_view_object_in_place_only_in_c_or_a_unary_operand():
    # Being C's object exempts only C's slot, and a unary op's operand: an
    # input that is also C and D overlaps D, as it does through the API,
    # where every operand is a view object of its own.
    spec = parse_einsum("i,i->i")
    x, b = view([2], [1.0, 2.0]), view([2], [3.0, 4.0])
    plan = make_plan(spec, x.desc, b.desc, x.desc, x.desc)
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, x, b, 1.0, x, x)
    assert err.value.code is ErrorCode.ERR_ALIASING
    with pytest.raises(TappError) as err:
        contract(plan, 1.0, b, x, 1.0, x, x)
    assert err.value.code is ErrorCode.ERR_ALIASING
    assert x.buffer.tolist() == [1.0, 2.0]
    contract(plan, 1.0, b, b, 1.0, x, x)
    assert x.buffer.tolist() == [10.0, 18.0]

    with pytest.raises(TappError) as err:  # A is the output, also as B's object
        binary_op(1.0, x, "i", 1.0, x, "i", x, "i")
    assert err.value.code is ErrorCode.ERR_ALIASING
    assert x.buffer.tolist() == [10.0, 18.0]
    out = view([2])
    binary_op(1.0, x, "i", 1.0, x, "i", out, "i")  # A and B one object, not D
    assert out.buffer.tolist() == [20.0, 36.0]

    square = view([2, 2], [1.0, 2.0, 3.0, 4.0])
    unary_op(2.0, square, "ij", square, "ji")
    assert square.buffer.tolist() == [2.0, 6.0, 4.0, 8.0]


@pytest.mark.parametrize("dtype", [DType.R32, DType.R64])
def test_real_copies_keep_negative_zero(dtype):
    src = view([2], [-0.0, 1.0], dtype=dtype)
    out_u, out_b = view([2], dtype=dtype), view([2], dtype=dtype)
    unary_op(1.0, src, "i", out_u, "i")
    binary_op(1.0, src, "i", 0.0, view([2], dtype=dtype), "i", out_b, "i")
    for out in (out_u, out_b):
        assert np.signbit(out.buffer).tolist() == [True, False]


def test_cell_of_negative_zero_products_stores_negative_zero():
    a = view([2], [-0.0, 1.0])
    b = view([2], [1.0, -0.0])
    d, _ = run("i,i->", a, b, d=view([]))
    assert np.signbit(d.buffer[0])


def test_repeated_executions_are_identical():
    rng = random.Random(5)
    a = view([3, 3], [rng.uniform(-1, 1) for _ in range(9)])
    b = view([3, 3], [rng.uniform(-1, 1) for _ in range(9)])
    plan = make_plan(parse_einsum("ij,jk->ik"), a.desc, b.desc, a.desc, a.desc)
    d1, d2 = view([3, 3]), view([3, 3])
    contract(plan, 1.25, a, b, 0.0, view([3, 3]), d1)
    contract(plan, 1.25, a, b, 0.0, view([3, 3]), d2)
    assert d1.buffer.tolist() == d2.buffer.tolist()


# ---------------------------------------------------------------------------
# Randomized equivalence against the brute-force evaluator.


def _random_structure(rng):
    pool = iter("abcdefgh")
    groups = {
        "batch": [next(pool) for _ in range(rng.randint(0, 1))],
        "contracted": [next(pool) for _ in range(rng.randint(0, 2))],
        "free_a": [next(pool) for _ in range(rng.randint(0, 2))],
        "free_b": [next(pool) for _ in range(rng.randint(0, 1))],
        "reduced_a": [next(pool) for _ in range(rng.randint(0, 1))],
        "reduced_b": [next(pool) for _ in range(rng.randint(0, 1))],
    }
    labels_a = groups["batch"] + groups["contracted"] + groups["free_a"] + groups["reduced_a"]
    labels_b = groups["batch"] + groups["contracted"] + groups["free_b"] + groups["reduced_b"]
    labels_d = groups["batch"] + groups["free_a"] + groups["free_b"]
    rng.shuffle(labels_a)
    rng.shuffle(labels_b)
    rng.shuffle(labels_d)
    extents = {l: rng.randint(1, 4) for v in groups.values() for l in v}
    return labels_a[:4], labels_b[:4], labels_d, extents


def _dense_random(rng, labels, extents):
    shape = [extents[l] for l in labels]
    return view(shape, [rng.uniform(-1, 1) for _ in range(math.prod(shape))])


def test_engine_matches_oracle_on_random_cases():
    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        labels_a, labels_b, labels_d, extents = _random_structure(rng)
        used = set(labels_a) | set(labels_b)
        labels_d = [l for l in labels_d if l in used]
        a = _dense_random(rng, labels_a, extents)
        b = _dense_random(rng, labels_b, extents)
        c = _dense_random(rng, labels_d, extents)
        d = view([extents[l] for l in labels_d])
        einsum = "".join(labels_a) + "," + "".join(labels_b) + "->" + "".join(labels_d)
        alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)
        plan = make_plan(parse_einsum(einsum), a.desc, b.desc, c.desc, d.desc)
        contract(plan, alpha, a, b, beta, c, d)

        dense_a, ua = densify(a, labels_a)
        dense_b, ub = densify(b, labels_b)
        dense_c, uc = densify(c, labels_d)
        expected = oracle_contract(
            LabelSpec.of(ua, ub, tuple(labels_d), uc), dense_a, dense_b, dense_c,
            alpha, beta,
        )
        for got, want in zip(d.buffer.tolist(), expected.elements):
            assert abs(got - want) / max(abs(want), 1.0) <= 1e-12
        checked += 1
    assert checked == 150


def test_linearity_in_alpha():
    rng = random.Random(7)
    a = _dense_random(rng, "ij", {"i": 3, "j": 4})
    b = _dense_random(rng, "jk", {"j": 4, "k": 2})
    c = _dense_random(rng, "ik", {"i": 3, "k": 2})
    spec = parse_einsum("ij,jk->ik")

    def apply(alpha, c_view):
        d = view([3, 2])
        plan = make_plan(spec, a.desc, b.desc, c_view.desc, d.desc)
        contract(plan, alpha, a, b, 1.0, c_view, d)
        return d

    combined = apply(0.7 + 0.6, c)
    staged = apply(0.7, apply(0.6, c))
    for x, y in zip(combined.buffer.tolist(), staged.buffer.tolist()):
        assert abs(x - y) / max(abs(y), 1.0) <= 1e-12


def test_permuting_a_modes_preserves_result_within_tolerance():
    rng = random.Random(11)
    a = _dense_random(rng, "ijp", {"i": 3, "j": 2, "p": 4})
    b = _dense_random(rng, "jp", {"j": 2, "p": 4})
    d1 = view([3])
    plan = make_plan(
        parse_einsum("ijp,jp->i"), a.desc, b.desc, d1.desc, d1.desc
    )
    contract(plan, 1.0, a, b, 0.0, view([3]), d1)

    perm = [2, 0, 1]
    a_perm = TensorView(
        TensorDesc(
            tuple(a.desc.extents[k] for k in perm),
            tuple(a.desc.strides[k] for k in perm),
            DType.R64,
        ),
        a.buffer,
    )
    d2 = view([3])
    plan2 = make_plan(
        parse_einsum("pij,jp->i"), a_perm.desc, b.desc, d2.desc, d2.desc
    )
    contract(plan2, 1.0, a_perm, b, 0.0, view([3]), d2)
    for x, y in zip(d1.buffer.tolist(), d2.buffer.tolist()):
        assert abs(x - y) / max(abs(y), 1.0) <= 1e-12


def _every_other(extents, mixed: bool) -> tuple[TensorDesc, int]:
    """A descriptor over every other element of a buffer, with strides of
    alternating sign where ``mixed``, and the base of its lowest address."""
    strides = [2 * s for s in TensorDesc.column_major(extents, DType.R64).strides]
    if mixed:
        strides = [-s if k % 2 == 0 else s for k, s in enumerate(strides)]
    desc = TensorDesc(tuple(extents), tuple(strides), DType.R64)
    return desc, -reach(desc.extents, desc.strides)[0]


@pytest.mark.parametrize("extents", [(4,), (8, 8, 8), (100, 100, 10), (50, 40, 30, 20)])
@pytest.mark.parametrize("mixed", [False, True])
def test_interleaved_views_do_not_overlap(extents, mixed):
    # Even and odd elements of one buffer share no byte, though their byte
    # intervals interleave; the overlap check, which sees one axis per
    # label, must decide that exactly.
    desc, base = _every_other(extents, mixed)
    labels = "ijkl"[: len(extents)]
    x = np.arange(2.0 * math.prod(extents))
    unary_op(1.0, TensorView(desc, x, base), labels, TensorView(desc, x, base + 1), labels)
    assert (x[1::2] == x[::2]).all() and (x[::2] == np.arange(0, x.size, 2)).all()


@pytest.mark.parametrize("extents", [(8, 8, 8), (50, 40, 30, 20)])
@pytest.mark.parametrize("mixed", [False, True])
def test_views_sharing_one_element_overlap(extents, mixed):
    desc, base = _every_other(extents, mixed)
    labels = "ijkl"[: len(extents)]
    last = 2 * (math.prod(extents) - 1)  # the highest address over the lowest
    x = np.arange(2.0 * last + 1)
    with pytest.raises(TappError) as err:
        unary_op(1.0, TensorView(desc, x, base), labels, TensorView(desc, x, base + last), labels)
    assert err.value.code is ErrorCode.ERR_ALIASING
    assert (x == np.arange(x.size)).all()


def test_overlap_too_hard_to_decide_falls_back_to_byte_intervals(monkeypatch):
    monkeypatch.setattr(engine, "_OVERLAP_WORK", 0)  # np.shares_memory gives up
    x = np.arange(8.0)
    d4 = TensorDesc.column_major([4], DType.R64)
    with pytest.raises(TappError) as err:
        unary_op(1.0, TensorView(d4, x[::2]), "i", TensorView(d4, x[1::2]), "i")
    assert err.value.code is ErrorCode.ERR_ALIASING
    assert x.tolist() == list(range(8))


@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(-6, 6)), min_size=1, max_size=5),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.sampled_from(list(DType)),
)
@settings(max_examples=300, deadline=None)
def test_folded_layouts_are_the_views_numpy_reshapes_into(modes, cuts, dtype):
    group = LabelGroup((), [e for e, _ in modes], (), (), [s for _, s in modes])
    layout = engine._layout(dtype, engine._D, group)
    # A load shape: runs of the label axes merged, with axes of 1 between.
    axes, shape = list(layout.shape[layout.pairs :]), []
    for cut in cuts:  # 0 puts an axis of 1, else the next ``cut`` axes merge
        if cut == 0:
            shape.append(1)
        elif axes:
            shape, axes = shape + [math.prod(axes[:cut])], axes[cut:]
    shape = (*layout.shape[: layout.pairs], *shape, math.prod(axes))
    folded = engine._folded(layout, shape)
    probe = np.lib.stride_tricks.as_strided(np.zeros(1, layout.dtype), layout.shape, layout.strides)
    try:
        want = probe.reshape(shape, copy=False).strides
    except ValueError:  # numpy copies
        assert folded is layout
        return
    moving = [k for k, n in enumerate(shape) if n > 1]
    assert folded.shape == shape
    assert [folded.strides[k] for k in moving] == [want[k] for k in moving]


def _probes(monkeypatch) -> list:
    """The calls of ``np.may_share_memory`` made from here on."""
    calls, probe = [], np.may_share_memory
    monkeypatch.setattr(np, "may_share_memory", lambda *args: calls.append(args) or probe(*args))
    return calls


def test_two_owning_arrays_are_not_probed_for_overlap(monkeypatch):
    # Arrays that each own their data are separate allocations, so "no
    # overlap" is exact without asking numpy.
    probes = _probes(monkeypatch)
    a, b, c = view([2], [1.0, 2.0]), view([2], [3.0, 4.0]), view([2], [5.0, 6.0])
    d, _ = run("i,i->i", a, b, c=c, d=view([2]), beta=0.5)
    assert all(x.buffer.flags.owndata for x in (a, b, c, d))
    assert d.buffer.tolist() == [5.5, 11.0] and probes == []


def _frombuffer_pair(offset_d: int) -> tuple[TensorView, TensorView]:
    """Two 2-element views over one bytearray, neither owning its data:
    one from its first element, one from element ``offset_d``."""
    raw = bytearray(np.arange(4.0).tobytes())
    desc = TensorDesc.column_major([2], DType.R64)
    x, y = (np.frombuffer(raw, np.float64, 2, 8 * k) for k in (0, offset_d))
    return TensorView(desc, x), TensorView(desc, y)


@pytest.mark.parametrize(
    "case", ["slice of A's array", "overlapping frombuffer", "A's array"]
)
def test_one_allocation_is_still_probed_and_overlap_rejected(monkeypatch, case):
    desc = TensorDesc.column_major([2], DType.R64)
    owner = np.array([1.0, 2.0, 3.0])
    if case == "slice of A's array":
        a, d = TensorView(desc, owner), TensorView(desc, owner[1:])
    elif case == "overlapping frombuffer":
        a, d = _frombuffer_pair(1)
    else:
        a, d = TensorView(desc, owner), TensorView(desc, owner, 1)
    before = d.buffer.tolist()
    probes = _probes(monkeypatch)
    with pytest.raises(TappError) as err:
        run("i,i->i", a, view([2], [1.0, 1.0]), d=d)
    assert err.value.code is ErrorCode.ERR_ALIASING
    assert len(probes) == 1 and d.buffer.tolist() == before


def test_disjoint_frombuffer_views_are_probed_and_run(monkeypatch):
    a, d = _frombuffer_pair(2)
    probes = _probes(monkeypatch)
    run("i,i->i", a, view([2], [2.0, 3.0]), d=d)
    # D does not own its data, so each of A, B and C is probed.
    assert [x for x, _ in probes][0] is a.buffer and len(probes) == 3
    assert d.buffer.tolist() == [0.0, 3.0]


def test_the_overlap_probe_checks_no_view_again(monkeypatch):
    # A over the even elements and D over the odd ones of one buffer: A is
    # probed, on a view built without checking it a second time.
    x = np.arange(8.0)
    d4 = TensorDesc.column_major([4], DType.R64)
    a, d = TensorView(d4, x[::2]), TensorView(d4, x[1::2])
    checks, check = [], engine.validate_view
    monkeypatch.setattr(engine, "validate_view", lambda v: checks.append(v) or check(v))
    probes = _probes(monkeypatch)
    run("i,i->i", a, view([4], [1.0, 2.0, 3.0, 4.0]), d=d)
    assert len(checks) == 4 and [p for p, _ in probes][0] is a.buffer
    assert x.tolist() == [0.0, 0.0, 2.0, 4.0, 4.0, 12.0, 6.0, 24.0]


def test_c_and_d_on_one_owning_array_still_run_in_place(monkeypatch):
    buf = np.array([10.0, 20.0])
    desc = TensorDesc.column_major([2], DType.R64)
    probes = _probes(monkeypatch)
    run("i,i->i", view([2], [1.0, 2.0]), view([2], [3.0, 4.0]),
        c=TensorView(desc, buf), d=TensorView(desc, buf), beta=1.0)
    assert len(probes) == 1 and buf.tolist() == [13.0, 28.0]


def test_a_unary_keeps_its_in_place_and_overlap_rules():
    square = TensorDesc.column_major([2, 2], DType.R64)
    buf = np.array([1.0, 2.0, 3.0, 4.0])
    x = TensorView(square, buf)
    unary_op(1.0, x, "ij", x, "ji")  # the output's identical view
    assert buf.tolist() == [1.0, 3.0, 2.0, 4.0]
    unary_op(2.0, TensorView(square, buf), "ij", x, "ji")  # another view object
    assert buf.tolist() == [2.0, 4.0, 6.0, 8.0]
    wide, tall = (TensorDesc.column_major(e, DType.R64) for e in ([2, 3], [3, 2]))
    for desc_a, desc_out in ((square, square), (wide, tall)):
        shared = np.arange(8.0)
        with pytest.raises(TappError) as err:  # overlapping, not identical
            unary_op(1.0, TensorView(desc_a, shared), "ij", TensorView(desc_out, shared, 2), "ji")
        assert err.value.code is ErrorCode.ERR_ALIASING
        assert str(err.value) == "B overlaps operand A"
        assert shared.tolist() == list(range(8))
        a, short = view(desc_a.extents), TensorView(desc_out, np.zeros(desc_a.size - 1))
        with pytest.raises(TappError) as err:
            unary_op(1.0, a, "ij", short, "ji")
        assert err.value.code is ErrorCode.ERR_OUT_OF_BOUNDS
        assert str(err.value) == "B: view escapes its buffer"


def test_a_unit_plans_operand_in_c_at_beta_zero_is_checked_as_b_only():
    # A direct contract call that passes one view as B and C at beta 0: C
    # is not read, so the view is checked against B's descriptor alone,
    # though C's differs.  At another beta, C is read and checked.
    a = view([2, 3], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    row_major = TensorDesc((2, 3), (3, 1), DType.R64)
    plan = make_binary_plan("ij", a.desc, "ij", row_major, "ij", row_major)
    out = TensorView(row_major, np.zeros(6))
    contract(plan, 2.0, None, a, 0.0, a, out)
    assert out.buffer.tolist() == [2.0, 6.0, 10.0, 4.0, 8.0, 12.0]
    with pytest.raises(TappError) as err:
        contract(plan, 2.0, None, a, 0.5, a, out)
    assert err.value.code is ErrorCode.ERR_OUT_OF_BOUNDS
    assert str(err.value) == "C: view layout differs from plan"


def _field(values: np.ndarray) -> np.ndarray:
    """``values`` in a structured array's field: a buffer whose byte
    stride, the element's size plus 4, is no whole number of elements."""
    records = np.zeros(values.size, [("x", values.dtype), ("k", np.int32)])
    records["x"] = values
    return records["x"]


@pytest.mark.parametrize(
    "dtype, stride", [(DType.R32, 8), (DType.R64, 12), (DType.C32, 12), (DType.C64, 20)]
)
def test_buffers_strided_by_part_of_an_element_match_contiguous_copies(dtype, stride):
    # A product and a transpose over such buffers, D's too, read and write
    # the elements they do over contiguous copies; A is read backwards
    # along i from its third element.
    rng = np.random.default_rng(stride)
    shapes = (3, 4), (4, 2), (3, 2), (3, 2), (4, 3)  # the product's A, B, C, D; B of ij->ji
    arrays = []
    for shape in shapes:
        re, im = rng.uniform(-2.0, 2.0, (2, math.prod(shape)))
        arrays.append((re + 1j * im if dtype.is_complex else re).astype(dtype.np_dtype))
    alpha, beta = (1.5 - 0.5j, 0.5 + 0.25j) if dtype.is_complex else (1.5, 0.5)
    backwards = TensorDesc((3, 4), (-1, 3), dtype)
    outputs = []
    for wrap in (np.array, _field):
        a, b, c, d, t = (
            TensorView(TensorDesc.column_major(e, dtype), wrap(x)) for e, x in zip(shapes, arrays)
        )
        assert a.buffer.strides[0] == (stride if wrap is _field else dtype.np_dtype.itemsize)
        a = TensorView(backwards, a.buffer, 2)
        run("ij,jk->ik", a, b, c, d, alpha, beta)
        unary_op(alpha, a, "ij", t, "ji")
        outputs.append([x.buffer.tobytes() for x in (a, b, c, d, t)])
    assert outputs[0] == outputs[1]


def _collides(extents, strides) -> bool:
    """Brute force: whether two multi-indices share an address."""
    seen = set()
    for idx in itertools.product(*map(range, extents)):
        address = sum(i * s for i, s in zip(idx, strides))
        if address in seen:
            return True
        seen.add(address)
    return False


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(-9, 9)), min_size=0, max_size=4
    )
)
@settings(max_examples=400, deadline=None)
def test_injectivity_proof_never_misses_a_collision(modes):
    extents = [e for e, _ in modes]
    strides = [s for _, s in modes]
    collides = _collides(extents, strides)
    if engine._injective(extents, strides, budget=0):  # the sorted-stride proof alone
        assert not collides
    assert engine._injective(extents, strides, budget=4**4) is (not collides)


@pytest.mark.parametrize(
    "extents, strides, injective",
    [((2, 3), (3, 2), True), ((3, 3), (1, 2), False)],
)
def test_layouts_the_proof_cannot_decide_are_enumerated_within_the_budget(
    monkeypatch, extents, strides, injective
):
    # i*s + j*t with neither stride above the other's span: enumerated.
    assert engine._injective(extents, strides, budget=0) is None
    size = math.prod(extents)
    assert engine._injective(extents, strides, budget=size) is injective
    assert engine._injective(extents, strides, budget=size - 1) is None
    src = TensorDesc.column_major(extents, DType.R64)
    out = TensorDesc(extents, strides, DType.R64)
    monkeypatch.setattr(engine, "_ENUMERATION_BUDGET", size)
    if injective:
        make_unary_plan("ij", src, "ij", out)
    else:
        with pytest.raises(TappError) as err:
            make_unary_plan("ij", src, "ij", out)
        assert err.value.code is ErrorCode.ERR_ALIASING
    monkeypatch.setattr(engine, "_ENUMERATION_BUDGET", size - 1)
    with pytest.raises(TappError) as err:
        make_unary_plan("ij", src, "ij", out)
    assert err.value.code is ErrorCode.ERR_UNSUPPORTED


def test_planning_does_not_grow_with_the_output():
    # A 2048 x 2048 transpose: no structure the size of the tensor.
    desc = TensorDesc.column_major([2048, 2048], DType.R32)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        make_unary_plan("ij", desc, "ji", desc)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert seconds < 0.5


@pytest.mark.parametrize("dtype", [DType.R64, DType.C64])
def test_all_62_labels_of_extent_1_run(dtype):
    # Labels of extent 1 take no view axis: numpy allows at most 64.
    labels = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    a, out = view((1,) * 62, [2.0], dtype), view((1,) * 62, [0.0], dtype)
    unary_op(1.5, a, labels, out, labels)
    assert out.buffer.tolist() == [3.0]
    a, b = view((1,) * 31, [2.0], dtype), view((1,) * 31, [4.0], dtype)
    spec = LabelSpec.of(labels[:31], labels[31:], labels)
    plan = make_plan(spec, a.desc, b.desc, out.desc, out.desc)
    contract(plan, 1.0, a, b, 0.5, out, out)
    assert out.buffer.tolist() == [9.5]


def _peak(call) -> int:
    """The traced peak memory of ``call()``, after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", ["binary, beta 0", "binary, beta 0.5", "unary", "product"])
def test_a_padded_output_takes_about_the_memory_of_a_dense_one(op):
    # D's columns 1,003 elements apart do not fold into one axis with its
    # rows; every block is still stored through D's view, so no temporary
    # as large as D (3.2 MB) is made, also where C is read.
    m, n = 1000, 400

    def execute(lead):
        d = TensorDesc((m, n), (1, lead), DType.R64)
        out = TensorView(d, np.zeros(lead * n))
        if op == "product":
            a = view([m, n, 2], np.ones(m * n * 2))
            b = view([2], [1.0, 2.0])
            plan = make_plan(parse_einsum("ijk,k->ij"), a.desc, b.desc, d, d)
            return lambda: contract(plan, 1.5, a, b, 0.0, out, out)
        a = view([m, n], np.ones(m * n))
        if op == "unary":
            plan = engine.make_unary_plan("ij", a.desc, "ij", d)
            return lambda: engine.run_unary(plan, 1.5, a, out)
        b = TensorView(d, np.ones(lead * n))
        plan = engine.make_binary_plan("ij", a.desc, "ij", d, "ij", d)
        return lambda: engine.run_binary(plan, 1.5, a, 0.5 if "0.5" in op else 0.0, b, out)

    dense, padded = _peak(execute(m)), _peak(execute(m + 3))
    assert padded <= 2 * dense, (dense, padded)


@pytest.mark.parametrize("op", ["binary, beta 0", "binary, beta 0.5", "unary"])
def test_a_padded_input_takes_about_the_memory_of_a_dense_one(op):
    # A binary or unary op's input meets only the unit operand, so it is
    # read in place, not first copied C-contiguous (3.2 MB here) where its
    # columns, 1,003 elements apart, do not fold into one axis.
    m, n = 1000, 400
    d = TensorDesc.column_major((m, n), DType.R64)

    def execute(lead):
        a = TensorView(TensorDesc((m, n), (1, lead), DType.R64), np.ones(lead * n))
        out = TensorView(d, np.zeros(m * n))
        if op == "unary":
            plan = engine.make_unary_plan("ij", a.desc, "ij", d)
            return lambda: engine.run_unary(plan, 1.5, a, out)
        b = TensorView(d, np.ones(m * n))
        plan = engine.make_binary_plan("ij", a.desc, "ij", d, "ij", d)
        return lambda: engine.run_binary(plan, 1.5, a, 0.5 if "0.5" in op else 0.0, b, out)

    dense, padded = _peak(execute(m)), _peak(execute(m + 3))
    assert padded <= 2 * dense, (dense, padded)


def test_one_plan_runs_from_several_threads_with_equal_bits():
    rng = np.random.default_rng(5)
    spec = parse_einsum("ij,jk->ik")
    desc = TensorDesc.column_major([96, 96], DType.C64)
    data = [
        (rng.uniform(-1, 1, 96 * 96) + 1j * rng.uniform(-1, 1, 96 * 96)).astype(np.complex128)
        for _ in range(3)
    ]
    a, b, c = (TensorView(desc, x) for x in data)
    plan = make_plan(spec, desc, desc, desc, desc)
    want = TensorView(desc, np.zeros(96 * 96, np.complex128))
    contract(plan, 0.5 + 0.25j, a, b, 1.5, c, want)

    outs = [np.full(96 * 96, np.nan, np.complex128) for _ in range(4)]
    errors = []

    def work(out):
        try:
            for _ in range(5):
                contract(plan, 0.5 + 0.25j, a, b, 1.5, c, TensorView(desc, out))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in outs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for out in outs:
        assert out.tobytes() == want.buffer.tobytes()
