"""Bitwise parity of ``engine.contract`` with the oracle's ordered form.

Every case runs a plan through the engine, and densifies its operands for
``oracle.ordered_contract``, which reads only the plan's label spec and
compute dtype, on equal copies of the output buffer.  Both must give equal
bits everywhere, guard elements included.  NaN is compared by position
only: its sign and payload are not part of the contract.
"""

import dataclasses
import functools
import math
import operator
import random

import numpy as np
import pytest

from tapp import (
    DType,
    TensorDesc,
    TensorView,
    contract,
    dtype_promote,
    engine,
    make_binary_plan,
    make_plan,
    make_unary_plan,
    parse_einsum,
)
from tapp.core import reach
from tapp.labels import LabelSpec
from tapp.oracle import _addresses, _diagonal_weights, densify, ordered_contract

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


def _values(rng, count, dtype, special):
    def one():
        if rng.random() < special:
            return rng.choice(SPECIALS)
        return rng.uniform(-2.0, 2.0)

    if dtype.is_complex:
        data = [complex(one(), one()) for _ in range(count)]
    else:
        data = [one() for _ in range(count)]
    return np.array(data, dtype=dtype.np_dtype)


def _layout(rng, extents, output=False, first_fastest=False):
    """Column-major strides with random mode order (the first mode first
    when ``first_fastest``), sign flips, padding of the leading dimension
    (a sub-view) and, for inputs, zero strides."""
    order = list(range(len(extents)))
    rng.shuffle(order)
    if first_fastest:
        order.remove(0)
        order.insert(0, 0)
    strides = [0] * len(extents)
    acc = 1
    for k in order:
        strides[k] = acc
        acc *= extents[k] + (rng.randint(1, 3) if rng.random() < 0.3 else 0)
    for k in range(len(extents)):
        if rng.random() < 0.3:
            strides[k] = -strides[k]
        if not output and rng.random() < 0.15:
            strides[k] = 0
    return tuple(strides)


def _view(rng, extents, dtype, special, output=False, first_fastest=False):
    desc = TensorDesc(tuple(extents), _layout(rng, extents, output, first_fastest), dtype)
    lo, hi = reach(desc.extents, desc.strides)
    pad = rng.randint(0, 2), rng.randint(0, 2)
    buffer = _values(rng, pad[0] + hi - lo + 1 + pad[1], dtype, special)
    return TensorView(desc, buffer, pad[0] - lo)


def _copy(v):
    return TensorView(v.desc, v.buffer.copy(), v.base)


def _assert_same_bits(got, want):
    if got.dtype.kind == "c":
        got, want = got.view(got.real.dtype), want.view(want.real.dtype)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _scalar(rng, cdt):
    kind = rng.random()
    if kind < 0.25:
        return 0.0
    if kind < 0.35:
        return 1.0
    if cdt.is_complex and kind < 0.7:
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return rng.uniform(-2, 2)


def _ordered(plan, alpha, a, b, beta, c, d):
    """Write into D's cells what the ordered oracle gives for the plan's
    label spec and compute dtype; D's other elements stay."""
    spec = plan.spec
    (da, ua), (db, ub), (dc, uc) = (
        densify(v, ls) for v, ls in zip((a, b, c), (spec.labels_a, spec.labels_b, spec.labels_c))
    )
    want = ordered_contract(
        LabelSpec.of(ua, ub, uc, uc), da, db, dc, alpha, beta, plan.compute_dtype, d.desc.dtype
    )
    _, weights = _diagonal_weights(spec.labels_d, d.desc.strides)
    d.buffer[_addresses(want.extents, weights, d.base)] = want.elements


def _check(plan, alpha, a, b, beta, c, d, in_place=False):
    """Run the engine and the reference on equal copies of D (C is D's
    copy too when ``in_place``); the engine must leave its inputs intact."""
    sides = []
    for _ in range(2):
        dd = _copy(d)
        sides.append((c if not in_place else dd, dd))
    inputs = (a, b) if in_place else (a, b, c)
    before = [x.buffer.tobytes() for x in inputs]
    contract(plan, alpha, a, b, beta, *sides[0])
    assert [x.buffer.tobytes() for x in inputs] == before
    _ordered(plan, alpha, a, b, beta, *sides[1])
    _assert_same_bits(sides[0][1].buffer, sides[1][1].buffer)


def _random_product(rng, einsum, extents, dtypes, special):
    spec = parse_einsum(einsum)
    labels = (spec.labels_a, spec.labels_b, spec.labels_c, spec.labels_d)
    views = [
        _view(rng, [extents[l] for l in ls], dt, special, output=(k == 3))
        for k, (ls, dt) in enumerate(zip(labels, dtypes))
    ]
    in_place = rng.random() < 0.2
    if in_place:
        views[2] = views[3]
    cdt = dtype_promote(dtype_promote(*dtypes[:2]), views[3].desc.dtype)
    cdt = dtype_promote(cdt, views[2].desc.dtype)
    if rng.random() < 0.2 and cdt is not DType.C64:
        cdt = DType.C64  # a requested compute dtype wider than the promotion
    plan = make_plan(spec, *(v.desc for v in views), compute_dtype=cdt)
    _check(plan, _scalar(rng, cdt), *views[:2], _scalar(rng, cdt), *views[2:], in_place)


CASES = [
    ("ij,jk->ik", {"i": 3, "j": 4, "k": 2}),
    ("ijr,jk->ik", {"i": 2, "j": 3, "k": 2, "r": 3}),
    ("iij,jk->ik", {"i": 3, "j": 2, "k": 2}),
    ("bij,bjk->bik", {"b": 2, "i": 2, "j": 3, "k": 2}),
    ("i,i->", {"i": 5}),
    ("ij,kr->ikj", {"i": 2, "j": 2, "k": 3, "r": 2}),
    ("ii,ij->ij", {"i": 3, "j": 2}),
    (",->", {}),
]


@pytest.mark.parametrize("einsum, extents", CASES)
@pytest.mark.parametrize("dtypes", [[dt] * 4 for dt in DType] + [list(DType)])
def test_product_matches_scalar_loop(einsum, extents, dtypes):
    rng = random.Random(f"{einsum}{dtypes}")
    for special in (0.0, 0.3):
        for _ in range(6):
            _random_product(rng, einsum, extents, dtypes, special)


def test_mixed_dtype_op_with_beta_matches_scalar_loop():
    # A float alpha or beta is a weak scalar to numpy, so a c32 operand must
    # be widened before it meets one; this op caught the narrow product.
    rng = random.Random(3)
    spec = parse_einsum("ij,jk->ik")
    dtypes = (DType.R32, DType.R64, DType.C32, DType.C64)
    for _ in range(20):
        a, b, c, d = (
            _view(rng, [3, 3], dt, 0.0, output=(k == 3)) for k, dt in enumerate(dtypes)
        )
        plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
        beta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        _check(plan, rng.uniform(0.5, 1.5), a, b, beta, c, d)


def _random_labels(rng):
    pool = iter("abcdefgh")
    groups = [[next(pool) for _ in range(rng.randint(lo, hi))]
              for lo, hi in ((0, 1), (0, 2), (0, 2), (0, 1), (0, 1), (0, 1))]
    batch, con, free_a, free_b, red_a, red_b = groups
    la = batch + con + free_a + red_a
    lb = batch + con + free_b + red_b
    ld = batch + free_a + free_b
    for labels in (la, lb, ld):
        rng.shuffle(labels)
    if la and rng.random() < 0.3:  # a repeated label: A's diagonal
        la.insert(rng.randrange(len(la) + 1), rng.choice(la))
    extents = {l: rng.randint(1, 3) for l in "abcdefgh"}
    return "".join(la) + "," + "".join(lb) + "->" + "".join(ld), extents


@pytest.mark.parametrize("chunk", [1, 5, 64, engine._CHUNK, 1 << 16])
def test_random_products_match_scalar_loop_at_every_chunk_size(monkeypatch, chunk):
    # A real block holds _BLOCK_BYTES of float64 cells, patched to the chunk.
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 8 * chunk)
    rng = random.Random(chunk)
    for _ in range(60):
        einsum, extents = _random_labels(rng)
        dtypes = [rng.choice(list(DType)) for _ in range(4)]
        _random_product(rng, einsum, extents, dtypes, rng.choice((0.0, 0.2)))


@pytest.mark.parametrize("seed", range(4))
def test_random_long_sums_over_few_cells_match_scalar_loop(seed):
    # Contracted and input-only labels of extent 2 to 12 over output labels
    # of extent 1 or 2: sums of up to 144 rows over one to eight cells a
    # row, on both sides of engine._sum_k's split, with stride-0 (broadcast)
    # inputs, complex pairs, and +-0, inf and NaN in float32 and float64.
    rng = random.Random(seed)
    for _ in range(40):
        einsum, extents = _random_labels(rng)
        out = set(einsum.split("->")[1])
        extents = {l: rng.randint(1, 2) if l in out else rng.randint(2, 12) for l in extents}
        dtypes = [rng.choice(list(DType)) for _ in range(4)]
        _random_product(rng, einsum, extents, dtypes, rng.choice((0.0, 0.3)))


@pytest.mark.parametrize(
    "einsum, extents",
    [
        # K = 48 in steps of 8 rows: plan.box is (8, 1, 64, 64), six steps
        ("ij,jk->ik", {"i": 64, "j": 48, "k": 64}),
        # more cells than one block holds
        ("i,j->ij", {"i": 300, "j": 240}),
    ],
)
def test_products_spanning_several_chunks_match_scalar_loop(einsum, extents):
    assert math.prod(extents.values()) > engine._CHUNK
    rng = random.Random(einsum)
    _random_product(rng, einsum, extents, [DType.R64] * 4, 0.0)


def test_plan_puts_the_operand_with_ds_fastest_label_innermost():
    def plan(einsum, extents, strides_d=None):
        spec = parse_einsum(einsum)
        a, b, d = (
            TensorDesc.column_major(tuple(extents[l] for l in ls), DType.R64)
            for ls in (spec.labels_a, spec.labels_b, spec.labels_d)
        )
        if strides_d is not None:
            d = TensorDesc(d.extents, strides_d, DType.R64)
        return make_plan(spec, a, b, d, d)

    # column-major D: its first label, A's, is fastest
    assert plan("ij,jk->ik", {"i": 3, "j": 4, "k": 2}).swap_ab
    assert plan("i,j->ij", {"i": 3, "j": 2}).swap_ab
    # row-major D: B's label k is fastest
    assert not plan("ij,jk->ik", {"i": 3, "j": 4, "k": 2}, (2, 1)).swap_ab
    # i has extent 1, so k is D's fastest label
    assert not plan("ij,jk->ik", {"i": 1, "j": 4, "k": 2}).swap_ab
    # a batch label stays outside
    assert not plan("bij,bjk->bik", {"b": 2, "i": 3, "j": 4, "k": 2}).swap_ab
    swapped = plan("ij,jk->ik", {"i": 3, "j": 4, "k": 2})
    assert swapped.counts[3:] == (1, 2, 3)  # (H, F, G): G is A's free group
    # A's axes keep their meaning: (K, H, F), with no R axis as A has no
    # input-only label and an axis of extent 1 for its empty H
    assert swapped.layout_a.shape == (4, 1, 3)


# Cases where D's first label is A's and fastest, so A and B trade places.
SWAP_CASES = [
    # a contracted group in different orders in A and B: A's order sums
    ("iab,bak->ik", {"i": 3, "a": 2, "b": 3, "k": 2}),
    # input-only reductions on both sides
    ("ijr,jks->ik", {"i": 3, "j": 2, "k": 2, "r": 3, "s": 2}),
    # a batch label
    ("bij,bjk->ibk", {"b": 2, "i": 3, "j": 2, "k": 2}),
    ("i,j->ij", {"i": 4, "j": 3}),
    # no free label of B: F is empty
    ("ij,j->i", {"i": 4, "j": 3}),
]
SWAP_DTYPES = [
    *([dt] * 4 for dt in DType),
    # real-by-complex mixes
    [DType.R32, DType.C64, DType.R64, DType.C32],
    [DType.C32, DType.R32, DType.R32, DType.C32],
    [DType.R64, DType.C32, DType.C64, DType.R64],
]


@pytest.mark.parametrize("einsum, extents", SWAP_CASES)
@pytest.mark.parametrize("dtypes", SWAP_DTYPES + [None])  # None: c32 compute, r32 operands
@pytest.mark.parametrize("beta", [0.0, 0.75])
@pytest.mark.parametrize("in_place", [False, True])
def test_swapped_plans_match_scalar_loop(einsum, extents, dtypes, beta, in_place):
    cdt = DType.C32 if dtypes is None else None
    dtypes = dtypes or [DType.R32] * 4
    rng = random.Random(f"{einsum}{dtypes}{beta}{in_place}")
    spec = parse_einsum(einsum)
    for special in (0.0, 0.3):
        a, b, c, d = (
            _view(rng, [extents[l] for l in ls], dt, special, output=(k == 3),
                  first_fastest=(k == 3))
            for k, (ls, dt) in enumerate(
                zip((spec.labels_a, spec.labels_b, spec.labels_c, spec.labels_d), dtypes)
            )
        )
        if in_place:
            c = d
        plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc, compute_dtype=cdt)
        assert plan.swap_ab
        alpha = _scalar(rng, plan.compute_dtype) or 1.5
        _check(plan, alpha, a, b, beta, c, d, in_place)


@pytest.mark.parametrize("dtype", list(DType))
@pytest.mark.parametrize("labels_a", ["i", ""])
def test_binary_with_unit_label_fastest_in_d_matches_scalar_loop(dtype, labels_a):
    # U, in A's place, carries j at stride 0, and j is D's fastest label.
    rng = random.Random(f"{dtype}{labels_a}")
    unit = np.ones(1, np.float32)
    for special in (0.0, 0.3):
        a = _view(rng, [4][: len(labels_a)], dtype, special)
        b = _view(rng, [4, 3], dtype, special)
        out = TensorView(TensorDesc((4, 3), (-3, 1), dtype), _values(rng, 14, dtype, special), 10)
        plan = make_binary_plan(labels_a, a.desc, "ij", b.desc, "ij", out.desc)
        assert plan.swap_ab
        _check(plan, _scalar(rng, dtype) or 1.5, TensorView(plan.desc_a, unit), a,
               _scalar(rng, dtype), b, out)


def _in_parent(rng, extents, dtype, special, parent):
    """A column-major view inside a larger buffer, with one guard element
    at each end: each dimension padded by two elements where ``parent``
    is "padded", every stride negated where it is "reversed"."""
    strides, acc = [], 1
    for e in extents:
        strides.append(-acc if parent == "reversed" else acc)
        acc *= e + 2 * (parent == "padded")
    desc = TensorDesc(tuple(extents), tuple(strides), dtype)
    lo, hi = reach(desc.extents, desc.strides)
    return TensorView(desc, _values(rng, hi - lo + 3, dtype, special), 1 - lo)


@pytest.mark.parametrize(
    "dtype, parent",
    [pytest.param(dt, None, id=str(dt)) for dt in DType]
    + [
        pytest.param(dt, parent, id=f"{dt}-{parent}")
        for dt in (DType.C32, DType.C64)
        for parent in ("padded", "reversed")
    ],
)
def test_binary_and_unary_match_scalar_loop(dtype, parent):
    rng = random.Random(str(dtype) if parent is None else f"{dtype}{parent}")
    unit = np.ones(1, np.float32)
    if parent is None:
        shapes = [("ij", "ji"), ("rij", "ji"), ("ii", "i"), ("ri", ""), ("i", "ij"), ("", "ij")]
        sizes = [{"i": 3, "j": 2, "r": 2}]
        operand = _view
    else:
        # Complex alpha and beta on blocks of fewer than _PART_BY_PART
        # cells, which *finish* multiplies as strided views of the
        # operand and of C.
        shapes = [("ij", "ji"), ("rij", "ji"), ("ii", "i")]
        sizes = [{"i": 3, "j": 2, "r": 2}, {"i": 16, "j": 15, "r": 2}]
        operand = functools.partial(_in_parent, parent=parent)
    for extents in sizes:
        for labels_a, labels_out in shapes:
            for special in (0.0, 0.3):
                a = operand(rng, [extents[l] for l in labels_a], dtype, special)
                b = operand(rng, [extents[l] for l in labels_out], dtype, special)
                out = _view(rng, [extents[l] for l in labels_out], dtype, special, output=True)
                if parent is None:
                    alpha, beta = _scalar(rng, dtype), _scalar(rng, dtype)
                else:
                    alpha, beta = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in "ab")
                plan = make_binary_plan(labels_a, a.desc, labels_out, b.desc, labels_out, out.desc)
                assert parent is None or not plan.parted
                u = TensorView(plan.desc_a, unit)
                _check(plan, alpha, u, a, beta, b, out)
                if set(labels_out) <= set(labels_a):
                    plan = make_unary_plan(labels_a, a.desc, labels_out, out.desc)
                    _check(plan, alpha, u, a, 0.0, out, out, in_place=True)


@pytest.mark.parametrize("dtype", [DType.C32, DType.C64])
def test_a_complex_scalar_multiplies_a_strided_block_as_its_contiguous_copy(dtype):
    # (re, im) planes over an interleaved buffer, as *bind* views C: every
    # other column, read backwards, of rows 1 to 6 of an 8x12 parent.
    rng = random.Random(str(dtype))
    parent = _values(rng, 96, dtype, 0.3).reshape(8, 12)[1:7, ::-2]
    part = engine._PARTS[parent.dtype]
    x = np.lib.stride_tricks.as_strided(
        parent.real, (2, *parent.shape), (part.itemsize, *parent.strides)
    )
    assert not x.flags.c_contiguous and np.array_equal(x[1], parent.imag, equal_nan=True)
    y = engine._scalar_for(complex(1.25, -0.6), dtype, "alpha")
    with np.errstate(all="ignore"):  # as in contract
        got, want = (engine._cmul(v, y, part) for v in (x, np.ascontiguousarray(x)))
    assert got.flags.c_contiguous and got.dtype == part and got.shape == x.shape
    _assert_same_bits(got, want)


# c32 products of two complex operands without an input-only reduction
# are numpy's complex128 multiply of whole elements (``plan.c128``),
# here at sizes where numpy runs its vectorized loops: the 32x32x32
# matmul column-major (A and B trade places) and row-major, the batched
# matmul of `steady_large`, and a B whose k has stride 0.
C128_CASES = [
    ("ij,jk->ik", {"i": 32, "j": 32, "k": 32}, "F", None),
    ("ij,jk->ik", {"i": 32, "j": 32, "k": 32}, "C", None),
    ("bij,bjk->bik", {"b": 8, "i": 16, "j": 16, "k": 16}, "F", None),
    ("ij,jk->ik", {"i": 32, "j": 32, "k": 32}, "F", (1, 0)),
]


def _c32_views(einsum, extents, order, strides_b, values):
    """A, B, C and D of ``einsum`` over ``extents`` in c32, column-major
    (``order`` "F") or row-major ("C"), B at ``strides_b`` where given,
    each filled by ``values(count)``."""
    spec = parse_einsum(einsum)
    views = []
    for k, ls in enumerate((spec.labels_a, spec.labels_b, spec.labels_c, spec.labels_d)):
        shape = [extents[l] for l in ls]
        desc = TensorDesc.column_major(shape, DType.C32)
        strides = desc.strides if order == "F" else desc.strides[::-1]
        if k == 1 and strides_b is not None:
            strides = strides_b
        desc = TensorDesc(tuple(shape), tuple(strides), DType.C32)
        lo, hi = reach(desc.extents, desc.strides)
        views.append(TensorView(desc, values(hi - lo + 1), -lo))
    return spec, views


@pytest.mark.parametrize("einsum, extents, order, strides_b", C128_CASES)
def test_c32_products_of_whole_complex128_elements_match_scalar_loop(
    einsum, extents, order, strides_b
):
    # Without SPECIALS, and with them at 10% (which make most cells of a
    # 32-term sum infinite or NaN), at complex and real scalars.
    rng = random.Random(f"{einsum}{order}{strides_b}")
    for special in (0.0, 0.1):
        spec, (a, b, c, d) = _c32_views(
            einsum, extents, order, strides_b, lambda n: _values(rng, n, DType.C32, special)
        )
        plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
        assert plan.c128 and plan.loads[0].dtype == np.complex128
        for alpha, beta in ((1.25 - 0.5j, 0.5 + 0.75j), (1.0, 0.0), (1.5, -0.5)):
            _check(plan, alpha, a, b, beta, c, d)


@pytest.mark.parametrize("order", ["F", "C"])
def test_c32_sums_of_negative_zero_imaginary_parts_stay_negative(order):
    # Every product is (1.0, -0.0) * (0.0, -0.0) = (+0.0, -0.0), so each
    # cell's imaginary sum is -0.0: the complex reduce starts from
    # (-0.0, -0.0), where numpy's -0.0 start would be (-0.0, +0.0) and
    # give +0.0.  No product of two complex values is (-0.0, -0.0): its
    # real part would need xr*yr = -0.0 and xi*yi = +0.0, and its
    # imaginary part xr*yi and xi*yr both -0.0, and no signs of xr, xi,
    # yr, yi give all four.
    fill = iter((complex(1.0, -0.0), complex(0.0, -0.0)))
    spec, (a, b, c, d) = _c32_views(
        "ij,jk->ik", {"i": 32, "j": 32, "k": 32}, order, None,
        lambda n: np.full(n, next(fill, 7.0), np.complex64),
    )
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    assert plan.c128 and plan.box[0] > 2  # steps of more than two rows are reduced
    _check(plan, 1.0, a, b, 0.0, c, d)
    contract(plan, 1.0, a, b, 0.0, c, d)
    parts = d.buffer.view(np.float32)
    assert not parts.any() and np.signbit(parts[1::2]).all() and not np.signbit(parts[::2]).any()


def test_numpys_complex128_multiply_of_float32_parts_is_the_unfused_formula():
    # engine._sum forms c32 products with numpy's complex128 multiply.
    # That gives the contract's (ar*br - ai*bi, ar*bi + ai*br), each part
    # rounded once, because a product of two float32 values is exact in
    # float64: a fused multiply-add, which numpy may use, then rounds the
    # same exact value once.  A numpy whose complex multiply differs on
    # these values, such as one that recovers infinities as C99 Annex G's
    # _Cmul does, fails here.  Over every pair of a grid of float32
    # parts: as two contiguous arrays of 20,736 values (numpy's SIMD
    # loops), three values at a time (their scalar tails), and broadcast
    # against each other either way.
    f32 = np.finfo(np.float32)
    grid = np.array(
        [0.0, -0.0, math.inf, -math.inf, math.nan, f32.max, -f32.max,
         f32.smallest_subnormal, -f32.smallest_subnormal, 1.0, -1.0 / 3.0, 0.1],
        np.float32,
    ).astype(np.float64)
    values = np.empty((grid.size, grid.size), np.complex128)  # all 144 complex values
    values.real, values.imag = grid[:, None], grid[None, :]
    values = values.ravel()
    x, y = np.repeat(values, values.size), np.tile(values, values.size)
    with np.errstate(all="ignore"):
        want = np.stack([x.real * y.real - x.imag * y.imag,
                         x.real * y.imag + x.imag * y.real], -1)
        runs = [
            x * y,
            np.concatenate([x[t : t + 3] * y[t : t + 3] for t in range(0, x.size, 3)]),
            (values[:, None] * values[None, :]).ravel(),
            (values[None, :] * values[:, None]).T.ravel(),
        ]
    for got in runs:
        _assert_same_bits(got.view(np.float64).reshape(-1, 2), want)


# Sums of rows of `cells` cells each on both sides of the split in
# `engine._sum_k`: one cell a row goes through np.add.accumulate, more
# through np.add.reduce.  The contracted sum has K rows of H*F*G cells
# (K = 16, 2 and 1), an input-only reduction R = 16 rows of K*H*F cells.
RULE_SIDES = [
    ("ij,jk->ik", {"i": 15, "j": 16, "k": 17}, 255),
    ("ij,jk->ik", {"i": 16, "j": 16, "k": 16}, 256),
    ("ij,jk->ik", {"i": 15, "j": 2, "k": 17}, 255),
    ("ij,jk->ik", {"i": 16, "j": 2, "k": 16}, 256),
    ("i,j->ij", {"i": 15, "j": 17}, 255),
    ("i,j->ij", {"i": 16, "j": 16}, 256),
    ("ijr,jk->ik", {"i": 8, "j": 31, "k": 2, "r": 16}, 248),
    ("ijr,jk->ik", {"i": 8, "j": 32, "k": 2, "r": 16}, 256),
    ("i,i->", {"i": 40}, 1),
    ("ij,jk->ik", {"i": 1, "j": 40, "k": 1}, 1),
    ("ij,jk->ik", {"i": 2, "j": 40, "k": 1}, 2),
    ("r,->", {"r": 40}, 1),
    ("ir,->i", {"i": 2, "r": 40}, 2),
]


@pytest.mark.parametrize("einsum, extents, cells", RULE_SIDES)
@pytest.mark.parametrize("dtype", list(DType))
def test_both_sides_of_the_shape_rule_match_scalar_loop(einsum, extents, cells, dtype):
    spec = parse_einsum(einsum)
    summed = "r" if "r" in extents else "".join(set(spec.labels_a) - set(spec.labels_d))
    rows = spec.labels_a if summed == "r" else spec.labels_d
    assert math.prod(extents[l] for l in rows if l != summed) == cells
    rng = random.Random(f"{einsum}{extents}{dtype}")
    for special in (0.0, 0.05):
        _random_product(rng, einsum, extents, [dtype] * 4, special)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sums_of_rows_run_in_row_order_on_any_strides(dtype, order):
    # On a view whose summed axis has the smallest stride, np.add.reduce
    # sums it pairwise; engine._sum_k must give the bits of a row loop.
    rng = np.random.default_rng(7)
    for rows in (2, 3, 8, 33, 100):
        for cells in (1, 2, 3):
            for axis, shape in ((0, (rows, 1, 1, cells)), (1, (2, rows, 1, 1, cells))):
                values = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-6, 6, shape)
                x = np.array(values, dtype, order=order)
                want = functools.reduce(operator.add, np.moveaxis(x, axis, 0))
                assert engine._sum_k(x.copy(order=order), axis).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "dtypes", [[DType.C32] * 4, [DType.C64] * 4, [DType.R32, DType.R64, DType.C32, DType.C64]]
)
def test_fused_complex_sum_with_beta_matches_scalar_loop(dtypes):
    rng = random.Random(str(dtypes))
    spec = parse_einsum("ij,jk->ik")
    for special in (0.0, 0.05):
        a, b, c, d = (
            _view(rng, [16, 16], dt, special, output=(k == 3)) for k, dt in enumerate(dtypes)
        )
        plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
        beta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        _check(plan, complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)), a, b, beta, c, d)
        _check(plan, 0.0, a, b, beta, c, d)


@pytest.mark.parametrize("chunk", [256, 512, 1000])
@pytest.mark.parametrize("dtype", [DType.C32, DType.C64])
def test_fused_sum_carries_across_contracted_steps(monkeypatch, chunk, dtype):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    rng = random.Random(f"{chunk}{dtype}")
    extents = {"i": 16, "j": 24, "k": 16}
    # 256-cell blocks, K = 24: complex products keep the patched budget
    box = engine._box(24, (1, 16, 16), True, False)
    blocks = engine._blocks((1, 16, 16), box)
    assert box[0] < 24 and box[0] * math.prod(box[1:]) <= chunk
    assert all(len(range(16)[g]) > 1 for *_, g in blocks)
    for special in (0.0, 0.05):
        _random_product(rng, "ij,jk->ik", extents, [dtype] * 4, special)


@pytest.mark.parametrize("dtype", list(DType))
@pytest.mark.parametrize("specials", [(0.0, -0.0), (0.0, -0.0, math.inf), SPECIALS])
def test_long_narrow_sum_matches_scalar_loop(dtype, specials):
    # 50,000 terms in one cell: accumulate, over several contracted steps
    # (2 of at most 32,768 real products, 7 of at most 8,192 complex ones).
    rng = random.Random(f"{dtype}{specials}")
    n = 50_000

    def values(count):
        data = [rng.choice(specials) if rng.random() < 0.9 else rng.uniform(-2, 2)
                for _ in range(count * (2 if dtype.is_complex else 1))]
        if dtype.is_complex:
            data = [complex(x, y) for x, y in zip(data[::2], data[1::2])]
        return np.array(data, dtype=dtype.np_dtype)

    desc = TensorDesc((n,), (1,), dtype)
    a, b = TensorView(desc, values(n)), TensorView(desc, values(n))
    scalar = TensorDesc((), (), dtype)
    c, d = TensorView(scalar, values(1)), TensorView(scalar, values(1))
    plan = make_plan(parse_einsum("i,i->"), desc, desc, scalar, scalar)
    assert math.ceil(n / plan.box[0]) >= 2
    _check(plan, 1.0, a, b, 0.5, c, d)


@pytest.mark.parametrize(
    "dtypes", [[DType.C64] * 4, [DType.C32] * 4, [DType.C32, DType.C64, DType.C32, DType.C64]]
)
def test_complex_operands_larger_than_a_block_match_scalar_loop(dtypes):
    # A is gathered through its own storage as (re, im) pairs, not copied.
    extents = {"i": 128, "j": 72, "k": 4}
    assert extents["i"] * extents["j"] > engine._CHUNK
    _random_product(random.Random(str(dtypes)), "ij,jk->ik", extents, dtypes, 0.05)


@pytest.mark.parametrize("dtype", [DType.C32, DType.C64])
def test_large_complex_unary_with_wide_and_narrow_blocks_matches_scalar_loop(dtype):
    rng = random.Random(str(dtype))
    a = _view(rng, [91, 91], dtype, 0.05)
    out = _view(rng, [91, 91], dtype, 0.05, output=True)
    plan = make_unary_plan("ij", a.desc, "ji", out.desc)
    blocks = engine._blocks(plan.cells, plan.box)
    sizes = [math.prod(len(range(n)[s]) for n, s in zip(plan.cells, b)) for b in blocks]
    assert sizes == [8190, 91]
    u = TensorView(plan.desc_a, np.ones(1, np.float32))
    _check(plan, complex(rng.uniform(0.5, 1.5), 0.25), u, a, 0.0, out, out, in_place=True)


@pytest.mark.parametrize(
    "chunk, extents, strides_d",
    [
        # G = (j, k), whose strides do not fold (k's skips i), cut at k
        (engine._CHUNK, {"i": 2, "j": 90, "k": 100}, (90, 1, 181)),
        # G = (j, k, l, m), none folding with the next, cut at k with l
        # and m one at a time
        (100, {"i": 3, "j": 4, "k": 30, "l": 5, "m": 3}, (-5, 1, 20, 20 * 31, 20 * 31 * 6)),
    ],
)
@pytest.mark.parametrize(
    "dtypes",
    [
        [DType.R64] * 4,
        [DType.C32] * 4,
        # complex compute into a real D: the imaginary part drops, and the
        # float64 parts are cast to float32
        [DType.C64, DType.C32, DType.R32, DType.R32],
    ],
)
@pytest.mark.parametrize("alpha, beta", [(1.5, 0.5), (0.0, 0.5), (1.5, 0.0)])
def test_output_groups_that_do_not_fold_are_stored_in_boxes(
    monkeypatch, chunk, extents, strides_d, dtypes, alpha, beta
):
    # A real block holds _BLOCK_BYTES of float64 cells, patched to the chunk.
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 8 * chunk)
    labels = "".join(extents)
    spec = parse_einsum(f"i,{labels[1:]}->{labels}")
    rng = random.Random(f"{extents}{dtypes[0]}")  # the same data for each scalar pair
    shape = [extents[l] for l in labels]
    a = _view(rng, shape[:1], dtypes[0], 0.05)
    b = _view(rng, shape[1:], dtypes[1], 0.05)
    c = _view(rng, shape, dtypes[2], 0.05, output=True)
    desc_d = TensorDesc(tuple(shape), strides_d, dtypes[3])
    lo, hi = reach(desc_d.extents, desc_d.strides)
    d = TensorView(desc_d, _values(rng, hi - lo + 3, dtypes[3], 0.0), 1 - lo)
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    assert not plan.swap_ab  # G holds B's labels, as the cases describe
    assert len(list(engine._blocks(plan.cells, plan.box))) > 2
    _check(plan, alpha, a, b, beta, c, d)
    plan = make_plan(spec, a.desc, b.desc, d.desc, d.desc)
    _check(plan, alpha, a, b, beta, d, d, in_place=True)


@pytest.mark.parametrize("dtype", [DType.R64, DType.C64])
@pytest.mark.parametrize("strides", [(1, 128), (128, 1)])
def test_in_place_transpose_over_several_blocks_matches_scalar_loop(
    monkeypatch, dtype, strides
):
    # Later blocks must read A as it was before the first store, also where
    # A's view needs no copy (row-major: A's labels fold, D's do not).  A
    # real block is patched to 8,192 cells, so that R64 takes two.
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 1 << 16)
    rng = random.Random(f"{dtype}{strides}")
    desc = TensorDesc((128, 128), strides, dtype)
    x = TensorView(desc, _values(rng, 128 * 128, dtype, 0.05))
    plan = make_unary_plan("ij", desc, "ji", desc)
    assert len(list(engine._blocks(plan.cells, plan.box))) > 1
    want = _copy(x)
    u = TensorView(plan.desc_a, np.ones(1, np.float32))
    _ordered(plan, 1.5, u, _copy(x), 0.0, want, want)
    engine.run_unary(plan, 1.5, x, x)
    _assert_same_bits(x.buffer, want.buffer)


@pytest.mark.parametrize("dtype", list(DType))
def test_wide_reduction_of_a_contiguous_operand_matches_scalar_loop(dtype):
    # A is viewed in place, not copied: its reduction must not sum into it.
    rng = random.Random(str(dtype))
    spec = parse_einsum("ijr,jk->ik")
    desc_a = TensorDesc((8, 32, 16), (1, 8, 256), dtype)
    a = TensorView(desc_a, _values(rng, 8 * 32 * 16, dtype, 0.05))
    b, c, d = (
        _view(rng, shape, dtype, 0.05, output=True) for shape in ([32, 2], [8, 2], [8, 2])
    )
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    load = plan.loads[plan.swap_ab]  # A's
    view = engine._bind_view(a, a.desc, load.layout, "")
    assert np.shares_memory(view.reshape(load.shape), a.buffer)
    _check(plan, 1.5, a, b, 0.5, c, d)


@pytest.mark.parametrize(
    "strides_a",
    [
        (1, 1, 7),  # i and j share addresses: they must not fold
        (4, 1, 12),  # j before i in memory
        (0, 2, 6),  # i broadcast
    ],
)
@pytest.mark.parametrize("dtype", [DType.R64, DType.C32, DType.C64])
@pytest.mark.parametrize("step", [1, 2])  # 2: A's buffer is every other element of another
def test_inputs_whose_labels_share_or_skip_addresses_match_scalar_loop(strides_a, dtype, step):
    rng = random.Random(f"{strides_a}{dtype}")
    desc_a = TensorDesc((3, 4, 2), strides_a, dtype)
    lo, hi = reach(desc_a.extents, desc_a.strides)
    a = TensorView(desc_a, _values(rng, step * (hi - lo + 1), dtype, 0.05)[::step], -lo)
    b = _view(rng, [2], dtype, 0.05)
    c, d = (_view(rng, [3, 4], dtype, 0.05, output=True) for _ in range(2))
    plan = make_plan(parse_einsum("ijk,k->ij"), a.desc, b.desc, c.desc, d.desc)
    _check(plan, 1.5, a, b, 0.5, c, d)


@pytest.mark.parametrize("special", [0.0, 0.3])
def test_complex_transpose_copied_block_by_block_matches_scalar_loop(special):
    # D is stored part by part, so B is copied C-contiguous one block at a
    # time, not whole before the first block; in place, it is copied whole.
    rng = random.Random(f"transpose{special}")
    dtype = DType.C64
    alpha = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    u = TensorView(TensorDesc((), (), DType.R32), np.ones(1, np.float32))
    a = _view(rng, [128, 128], dtype, special)
    b = _view(rng, [128, 128], dtype, special)
    out = _view(rng, [128, 128], dtype, special, output=True)
    plans = [
        make_binary_plan("ij", a.desc, "ji", b.desc, "ji", out.desc),
        make_binary_plan("ij", a.desc, "ji", out.desc, "ji", out.desc),
        make_unary_plan("ij", a.desc, "ji", out.desc),
    ]
    for plan in plans:
        assert plan.parted and len(list(engine._blocks(plan.cells, plan.box))) > 1
        view = engine._bind_view(a, a.desc, plan.layout_b, "")
        loaded = engine._load(plan, [None, view, None], False)
        assert np.shares_memory(loaded, a.buffer)  # not copied by load
    beta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    for be in (0.0, beta):
        _check(plans[0], alpha, u, a, be, b, out)
        _check(plans[1], alpha, u, a, be, out, out, in_place=True)  # C is D
    _check(plans[2], alpha, u, a, 0.0, out, out, in_place=True)
    # A is D: later blocks read A as it was before the first store
    x = _view(rng, [128, 128], dtype, special, output=True)
    plan = make_unary_plan("ij", x.desc, "ji", x.desc)
    want = _copy(x)
    _ordered(plan, alpha, u, _copy(x), 0.0, want, want)
    engine.run_unary(plan, alpha, x, x)
    _assert_same_bits(x.buffer, want.buffer)


@pytest.mark.parametrize(
    "dtype, n, blocks",
    [(DType.R32, 300, 2), (DType.R64, 300, 2), (DType.C32, 160, 4), (DType.C64, 160, 4)],
)
def test_binary_broadcast_along_ds_fastest_label_matches_scalar_loop(dtype, n, blocks):
    # j,ij->ij with a column-major D: i, which A lacks, is D's fastest
    # label, so U and A trade places (swap_ab) and A, F's operand, is cut
    # along F's axes block by block; a complex D is stored part by part.
    rng = random.Random(f"broadcast{dtype}")
    u = TensorView(TensorDesc((n,), (0,), DType.R32), np.ones(1, np.float32))
    a = TensorView(TensorDesc.column_major((n,), dtype), _values(rng, n, dtype, 0.05))
    b, out = (
        TensorView(TensorDesc.column_major((n, n), dtype), _values(rng, n * n, dtype, 0.05))
        for _ in "bd"
    )
    plan = make_binary_plan("j", a.desc, "ij", b.desc, "ij", out.desc)
    assert plan.desc_a == u.desc and plan.swap_ab and plan.parted is dtype.is_complex
    assert len(list(engine._blocks(plan.cells, plan.box))) == blocks
    alpha, beta = (1.25 - 0.5j, 0.5 + 0.75j) if dtype.is_complex else (1.25, 0.5)
    for be in (0.0, beta):
        _check(plan, alpha, u, a, be, b, out)


@pytest.mark.parametrize("block_bytes, step, blocks", [(None, 1, 1), (1 << 16, 2, 8)])
@pytest.mark.parametrize("dtype", [DType.R32, DType.R64])
def test_two_row_contracted_step_matches_scalar_loop(
    monkeypatch, dtype, block_bytes, step, blocks
):
    # oneshot_wide's ijk,ijk->ij: K = 2 summed in two one-row steps over
    # one 65,536-cell block, wider than a step's 32,768 products; with the
    # block patched to 8,192 cells, in one two-row step per block
    if block_bytes is not None:
        monkeypatch.setattr(engine, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(str(dtype))
    spec = parse_einsum("ijk,ijk->ij")
    desc_a = TensorDesc.column_major((256, 256, 2), dtype)
    desc_d = TensorDesc.column_major((256, 256), dtype)
    plan = make_plan(spec, desc_a, desc_a, desc_d, desc_d)
    assert plan.box[0] == step and len(list(engine._blocks(plan.cells, plan.box))) == blocks
    a, b = (TensorView(desc_a, _values(rng, 256 * 256 * 2, dtype, 0.2)) for _ in "ab")
    c, d = (TensorView(desc_d, _values(rng, 256 * 256, dtype, 0.2)) for _ in "cd")
    _check(plan, 1.5, a, b, 0.0, c, d)
    _check(plan, 1.5, a, b, -0.5, c, d)


# Outer products with long rows, which run with a ``_ROW_BUFFER`` buffer,
# over several blocks where the compute dtype is complex and in
# contracted steps of one to four rows; outer products with short rows
# and large steps (the 32x32x32 matmul and `steady_large`'s batched one),
# which run with a ``_SHORT_ROW_BUFFER`` buffer, over several steps where
# the compute dtype is complex; and plans with small steps (`steady_large`'s
# input-only reduction, 4,096 products a step) or no F, which keep numpy's
# own (0); the buffer each plan gets.
BUFFER_CASES = [
    ("i,j->ij", {"i": 256, "j": 256}, engine._ROW_BUFFER),
    ("ij,jk->ik", {"i": 128, "j": 16, "k": 256}, engine._ROW_BUFFER),
    ("bij,bjk->bik", {"b": 2, "i": 16, "j": 8, "k": 256}, engine._ROW_BUFFER),
    ("ij,jk->ik", {"i": 32, "j": 32, "k": 32}, engine._SHORT_ROW_BUFFER),
    ("bij,bjk->bik", {"b": 8, "i": 16, "j": 16, "k": 16}, engine._SHORT_ROW_BUFFER),
    ("ijr,jk->ik", {"i": 16, "j": 16, "k": 16, "r": 8}, 0),
    ("ijk,ijk->ij", {"i": 64, "j": 64, "k": 3}, 0),
]


@pytest.mark.parametrize("einsum, extents, bufsize", BUFFER_CASES)
@pytest.mark.parametrize("dtype", list(DType))
def test_outputs_do_not_depend_on_numpys_ufunc_buffer(einsum, extents, bufsize, dtype):
    # The plan run with its own buffer, with the caller's buffer of 16 or
    # 1 << 20 elements, and with the plan's buffer replaced by numpy's own
    # (8,192 elements by default) or by 32, all give the ordered oracle's
    # bits, at complex alpha and nonzero beta, over operands that hold
    # SPECIALS.
    rng = random.Random(f"{einsum}{dtype}")
    spec = parse_einsum(einsum)
    labels = (spec.labels_a, spec.labels_b, spec.labels_c, spec.labels_d)
    a, b, c, d = (
        _view(rng, [extents[l] for l in ls], dtype, 0.1, output=(k == 3))
        for k, ls in enumerate(labels)
    )
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    assert plan.bufsize == bufsize
    assert plan.long_rows is (bufsize == engine._ROW_BUFFER)
    alpha, beta = (1.25 - 0.5j, 0.5 + 0.75j) if dtype.is_complex else (1.25, 0.5)
    want = _copy(d)
    _ordered(plan, alpha, a, b, beta, c, want)
    default = np.getbufsize()
    runs = [(plan, None), (plan, 16), (plan, 1 << 20)]
    runs += [(dataclasses.replace(plan, bufsize=size), None) for size in (0, 32)]
    outputs = []
    for p, size in runs:
        out = _copy(d)
        with np.errstate():
            if size is not None:
                np.setbufsize(size)
            contract(p, alpha, a, b, beta, c, out)
            assert np.getbufsize() == (size or default)
        _assert_same_bits(out.buffer, want.buffer)
        outputs.append(out.buffer.tobytes())
    assert outputs[1:] == outputs[:1] * 4
