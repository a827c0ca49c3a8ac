"""Bitwise parity of ``engine.contract`` with the scalar reference loop.

Every case runs the same plan through the engine and through
``scalar_engine.scalar_contract`` on equal copies of the output buffer, and
requires equal bits everywhere, guard elements included.  NaN is compared
by position only: its sign and payload are not part of the contract.
"""

import math
import random

import numpy as np
import pytest

from scalar_engine import scalar_contract
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


def _layout(rng, extents, output=False):
    """Column-major strides with random mode order, sign flips, padding of
    the leading dimension (a sub-view) and, for inputs, zero strides."""
    order = list(range(len(extents)))
    rng.shuffle(order)
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


def _view(rng, extents, dtype, special, output=False):
    desc = TensorDesc(tuple(extents), _layout(rng, extents, output), dtype)
    lo, hi = desc.reach_bounds()
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
    scalar_contract(plan, alpha, a, b, beta, *sides[1])
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
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(60):
        einsum, extents = _random_labels(rng)
        dtypes = [rng.choice(list(DType)) for _ in range(4)]
        _random_product(rng, einsum, extents, dtypes, rng.choice((0.0, 0.2)))


@pytest.mark.parametrize(
    "einsum, extents",
    [
        # cells x K spans three steps of the contracted loop
        ("ij,jk->ik", {"i": 64, "j": 48, "k": 64}),
        # more cells than one block holds
        ("i,j->ij", {"i": 300, "j": 240}),
    ],
)
def test_products_spanning_several_chunks_match_scalar_loop(einsum, extents):
    assert math.prod(extents.values()) > engine._CHUNK
    rng = random.Random(einsum)
    _random_product(rng, einsum, extents, [DType.R64] * 4, 0.0)


@pytest.mark.parametrize("dtype", list(DType))
def test_binary_and_unary_match_scalar_loop(dtype):
    rng = random.Random(str(dtype))
    unit = np.ones(1, np.float32)
    shapes = [("ij", "ji"), ("rij", "ji"), ("ii", "i"), ("ri", ""), ("i", "ij"), ("", "ij")]
    extents = {"i": 3, "j": 2, "r": 2}
    for labels_a, labels_out in shapes:
        for special in (0.0, 0.3):
            a = _view(rng, [extents[l] for l in labels_a], dtype, special)
            b = _view(rng, [extents[l] for l in labels_out], dtype, special)
            out = _view(rng, [extents[l] for l in labels_out], dtype, special, output=True)
            alpha, beta = _scalar(rng, dtype), _scalar(rng, dtype)
            plan = make_binary_plan(labels_a, a.desc, labels_out, b.desc, labels_out, out.desc)
            u = TensorView(plan.desc_a, unit)
            _check(plan, alpha, u, a, beta, b, out)
            if set(labels_out) <= set(labels_a):
                plan = make_unary_plan(labels_a, a.desc, labels_out, out.desc)
                _check(plan, alpha, u, a, 0.0, out, out, in_place=True)


# Blocks of `cells` cells a row on each side of the shape rule: the
# contracted sum (K rows of H*F*G cells, K = 16, 2 and 1) and an input-only
# reduction (R = 16 rows of K*H*F cells; a complex row holds twice as
# many, both parts).
RULE_SIDES = [
    ("ij,jk->ik", {"i": 15, "j": 16, "k": 17}, 255, False),
    ("ij,jk->ik", {"i": 16, "j": 16, "k": 16}, 256, True),
    ("ij,jk->ik", {"i": 15, "j": 2, "k": 17}, 255, False),
    ("ij,jk->ik", {"i": 16, "j": 2, "k": 16}, 256, True),
    ("i,j->ij", {"i": 15, "j": 17}, 255, False),
    ("i,j->ij", {"i": 16, "j": 16}, 256, True),
    ("ijr,jk->ik", {"i": 8, "j": 31, "k": 2, "r": 16}, 248, False),
    ("ijr,jk->ik", {"i": 8, "j": 32, "k": 2, "r": 16}, 256, True),
]


@pytest.mark.parametrize("einsum, extents, cells, wide", RULE_SIDES)
@pytest.mark.parametrize("dtype", list(DType))
def test_both_sides_of_the_shape_rule_match_scalar_loop(einsum, extents, cells, wide, dtype):
    assert engine._row_adds(cells) is wide
    rng = random.Random(f"{einsum}{extents}{dtype}")
    for special in (0.0, 0.05):
        _random_product(rng, einsum, extents, [dtype] * 4, special)


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
        assert engine._row_adds(256)
        beta = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        _check(plan, complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)), a, b, beta, c, d)
        _check(plan, 0.0, a, b, beta, c, d)


@pytest.mark.parametrize("chunk", [256, 512, 1000])
@pytest.mark.parametrize("dtype", [DType.C32, DType.C64])
def test_fused_sum_carries_across_contracted_steps(monkeypatch, chunk, dtype):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    rng = random.Random(f"{chunk}{dtype}")
    extents = {"i": 16, "j": 24, "k": 16}
    blocks = engine._Blocks(24, 1, 16, 16)  # 256-cell blocks, K = 24
    assert blocks.step < 24 and all(wide for *_, wide in blocks)
    for special in (0.0, 0.05):
        _random_product(rng, "ij,jk->ik", extents, [dtype] * 4, special)


@pytest.mark.parametrize("dtype", list(DType))
@pytest.mark.parametrize("specials", [(0.0, -0.0), (0.0, -0.0, math.inf), SPECIALS])
def test_long_narrow_sum_matches_scalar_loop(dtype, specials):
    # 50,000 terms in one cell: accumulate, over several contracted steps.
    rng = random.Random(f"{dtype}{specials}")
    n = 50_000
    assert n > engine._CHUNK and not engine._row_adds(1)

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
    assert [wide for *_, wide in plan.blocks] == [True, False]  # 8192 + 89 cells
    u = TensorView(plan.desc_a, np.ones(1, np.float32))
    _check(plan, complex(rng.uniform(0.5, 1.5), 0.25), u, a, 0.0, out, out, in_place=True)


@pytest.mark.parametrize(
    "chunk, extents, strides_d",
    [
        # G = (j, k) in two runs (j's stride pads i), cut at k
        (engine._CHUNK, {"i": 2, "j": 90, "k": 100}, (1, 3, 3 * 91)),
        # G = (j, k, l, m) in four runs, cut at k with l and m one at a time
        (100, {"i": 3, "j": 4, "k": 30, "l": 5, "m": 3}, (-1, 4, 20, 20 * 31, 20 * 31 * 6)),
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
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    labels = "".join(extents)
    spec = parse_einsum(f"i,{labels[1:]}->{labels}")
    rng = random.Random(f"{extents}{dtypes[0]}")  # the same data for each scalar pair
    shape = [extents[l] for l in labels]
    a = _view(rng, shape[:1], dtypes[0], 0.05)
    b = _view(rng, shape[1:], dtypes[1], 0.05)
    c = _view(rng, shape, dtypes[2], 0.05, output=True)
    desc_d = TensorDesc(tuple(shape), strides_d, dtypes[3])
    lo, hi = desc_d.reach_bounds()
    d = TensorView(desc_d, _values(rng, hi - lo + 3, dtypes[3], 0.0), 1 - lo)
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    assert not plan.layout_d.folds and len(list(plan.blocks)) > 2
    _check(plan, alpha, a, b, beta, c, d)
    plan = make_plan(spec, a.desc, b.desc, d.desc, d.desc)
    _check(plan, alpha, a, b, beta, d, d, in_place=True)


@pytest.mark.parametrize("dtype", [DType.R64, DType.C64])
@pytest.mark.parametrize("strides", [(1, 128), (128, 1)])
def test_in_place_transpose_over_several_blocks_matches_scalar_loop(dtype, strides):
    # Later blocks must read A as it was before the first store, also where
    # A's view needs no copy (row-major: A's labels fold, D's do not).
    rng = random.Random(f"{dtype}{strides}")
    desc = TensorDesc((128, 128), strides, dtype)
    x = TensorView(desc, _values(rng, 128 * 128, dtype, 0.05))
    plan = make_unary_plan("ij", desc, "ji", desc)
    assert len(list(plan.blocks)) > 1
    want = _copy(x)
    u = TensorView(plan.desc_a, np.ones(1, np.float32))
    scalar_contract(plan, 1.5, u, _copy(x), 0.0, want, want)
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
    assert plan.layout_a.folds and engine._row_adds(8 * 32)
    _check(plan, 1.5, a, b, 0.5, c, d)


@pytest.mark.parametrize(
    "strides_a",
    [
        (1, 1, 7),  # i and j share addresses: they must not fold
        (4, 1, 12),  # j before i in memory
        (0, 2, 6),  # i broadcast
    ],
)
@pytest.mark.parametrize("dtype", [DType.R64, DType.C32])
def test_inputs_whose_labels_share_or_skip_addresses_match_scalar_loop(strides_a, dtype):
    rng = random.Random(f"{strides_a}{dtype}")
    desc_a = TensorDesc((3, 4, 2), strides_a, dtype)
    lo, hi = desc_a.reach_bounds()
    a = TensorView(desc_a, _values(rng, hi - lo + 1, dtype, 0.05), -lo)
    b = _view(rng, [2], dtype, 0.05)
    c, d = (_view(rng, [3, 4], dtype, 0.05, output=True) for _ in range(2))
    plan = make_plan(parse_einsum("ijk,k->ij"), a.desc, b.desc, c.desc, d.desc)
    _check(plan, 1.5, a, b, 0.5, c, d)
