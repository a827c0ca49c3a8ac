import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tapp import (
    DenseTensor,
    DType,
    LabelSpec,
    TappError,
    TensorDesc,
    TensorView,
    contract,
    densify,
    make_plan,
    oracle_contract,
    ordered_contract,
    parse_einsum,
)
from tapp.core import column_major_strides
from tapp.errors import ErrorCode
from tapp.oracle import _addresses, _exact_sum, _fsum


def view(extents, data, strides=None, base=0, dtype=DType.R64):
    desc = (
        TensorDesc.column_major(tuple(extents), dtype)
        if strides is None
        else TensorDesc(tuple(extents), tuple(strides), dtype)
    )
    return TensorView(desc, np.array(data, dtype=dtype.np_dtype), base)


def dense(extents, elements, dtype=DType.R64):
    return DenseTensor(tuple(extents), tuple(elements), dtype)


@pytest.mark.parametrize(
    "extents, strides, base, expected",
    [
        ([2, 2], [1, 4], 0, [0, 1, 4, 5]),
        ([3, 2], [1, 4], 2, [2, 3, 4, 6, 7, 8]),
        ([2, 3], [-1, 3], 1, [1, 0, 4, 3, 7, 6]),
        ([], [], 7, [7]),
    ],
)
def test_addresses(extents, strides, base, expected):
    assert _addresses(extents, strides, base) == expected


def _position(idx, extents) -> int:
    """Where the multi-index ``idx`` comes in ``_addresses``' walk."""
    return sum(i * w for i, w in zip(idx, column_major_strides(extents)))


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 6), min_size=n, max_size=n),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            st.integers(0, 50),
            st.randoms(use_true_random=False),
        )
    )
)
def test_addresses_are_linear_in_the_index(args):
    extents, strides, base, rnd = args
    addresses = _addresses(extents, strides, base)

    def offset(idx):
        return addresses[_position(idx, extents)] - base

    i = [rnd.randrange(e) for e in extents]
    j = [rnd.randrange(e - x) for e, x in zip(extents, i)]
    assert offset([x + y for x, y in zip(i, j)]) == offset(i) + offset(j)


@pytest.mark.parametrize(
    "idx, extents, following",
    [
        ([0, 0], [2, 3], [1, 0]),
        ([1, 0], [2, 3], [0, 1]),
        ([1, 2], [2, 3], None),
    ],
)
def test_addresses_step_the_first_index_fastest(idx, extents, following):
    # Weights 1 and 10 give every index its own address, read back as digits.
    weights = [1, 10]
    addresses = _addresses(extents, weights)
    at = addresses.index(sum(i * w for i, w in zip(idx, weights)))
    if following is None:
        assert at == len(addresses) - 1
    else:
        assert addresses[at + 1] == sum(i * w for i, w in zip(following, weights))


@given(st.lists(st.integers(0, 4), min_size=0, max_size=4))
def test_addresses_cover_every_index_once(extents):
    addresses = _addresses(extents, column_major_strides(extents))
    assert addresses == list(range(math.prod(extents)))


def test_densify_passthrough_for_dense_views():
    got, labels = densify(view([2, 2], [1, 2, 3, 4]), "ij")
    assert labels == ("i", "j")
    assert got.elements == (1, 2, 3, 4)


def test_densify_row_major_view():
    got, _ = densify(view([2, 2], [1, 2, 3, 4], strides=[2, 1]), "ij")
    assert got.elements == (1, 3, 2, 4)


def test_densify_reads_the_diagonal_for_repeated_labels():
    got, labels = densify(view([2, 2], [1, 2, 3, 4]), "ii")
    assert labels == ("i",)
    assert got.extents == (2,)
    assert got.elements == (1, 4)


@pytest.mark.parametrize(
    "extents, labels, code",
    [
        ([3], "i", ErrorCode.ERR_OUT_OF_BOUNDS),  # 3 elements from a buffer of 2
        ([2], "ij", ErrorCode.ERR_EXTENT_MISMATCH),  # two labels for one mode
        ([2, 1], "ii", ErrorCode.ERR_EXTENT_MISMATCH),  # a repeat of unequal extents
    ],
)
def test_densify_rejects_views_it_cannot_read(extents, labels, code):
    with pytest.raises(TappError) as err:
        densify(view(extents, [1.0, 2.0]), labels)
    assert err.value.code is code


def test_dense_tensor_rejects_an_element_count_unlike_its_extents():
    with pytest.raises(TappError) as err:
        DenseTensor((2,), (1.0,), DType.R64)
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH


def test_oracle_matmul():
    spec = parse_einsum("ij,jk->ik")
    a = dense([2, 2], [1, 3, 2, 4])  # [[1,2],[3,4]] column-major
    b = dense([2, 2], [5, 7, 6, 8])
    c = dense([2, 2], [0, 0, 0, 0])
    got = oracle_contract(spec, a, b, c, 1.0, 0.0)
    assert got.elements == (19, 43, 22, 50)


def test_oracle_all_ones_counts_contracted_volume():
    # Two contracted labels of extent 2 each: every output element is 4.
    spec = parse_einsum("abg,bda->dg")
    ones8 = dense([2, 2, 2], [1.0] * 8)
    c = dense([2, 2], [0.0] * 4)
    got = oracle_contract(spec, ones8, ones8, c, 1.0, 0.0)
    assert got.elements == (4.0,) * 4


def test_oracle_alpha_zero_copies_c():
    spec = parse_einsum("i,i->i")
    a = dense([2], [float("nan")] * 2)
    c = dense([2], [5.0, 6.0])
    got = oracle_contract(spec, a, a, c, 0.0, 1.0)
    assert got.elements == (5.0, 6.0)


def test_oracle_scalar_operand_scales():
    spec = parse_einsum("i,->i")
    a = dense([2], [1.0, 2.0])
    b = dense([], [3.0])
    c = dense([2], [0.0, 0.0])
    got = oracle_contract(spec, a, b, c, 1.0, 0.0)
    assert got.elements == (3.0, 6.0)


def _parts(z):
    """The real and imaginary parts of ``z`` as (sign, magnitude), NaN as
    a string, so that zeros of opposite signs differ."""
    return [("nan" if x != x else (math.copysign(1.0, x), abs(x))) for x in (z.real, z.imag)]


@pytest.mark.parametrize(
    "a, b, c, alpha, beta, want",
    [
        # a real A times a complex B: no 0 * inf next to B's infinity
        (2.0, complex(math.inf, 1.0), complex(0.0, 0.0), 1.0, 0.0, complex(math.inf, 2.0)),
        # a real alpha keeps the complex sum's infinity next to a zero part
        (complex(math.inf, 0.0), 1.0, complex(0.0, 0.0), 1.0, 0.0, complex(math.inf, 0.0)),
        # a real beta times a complex C, likewise
        (1.0, 1.0, complex(math.inf, 0.0), 0.0, 2.0, complex(math.inf, 0.0)),
        # a complex alpha times a real sum keeps the sign of -0.0 * 2
        (2.0, 1.0, complex(0.0, 0.0), complex(-0.0, -1.0), 0.0, complex(-0.0, -2.0)),
    ],
)
def test_oracle_multiplies_a_real_factor_into_each_part(a, b, c, alpha, beta, want):
    # C99 Annex G's rule; Python 3.11's ``*`` would form (x, +0.0) * (re, im)
    # and give +0.0 or NaN imaginary parts here.
    kind = lambda x: DType.C64 if isinstance(x, complex) else DType.R64
    spec = parse_einsum("i,i->")
    got = oracle_contract(
        spec, dense([1], [a], kind(a)), dense([1], [b], kind(b)), dense([], [c], DType.C64),
        alpha, beta, out_dtype=DType.C64,
    )
    assert _parts(got.elements[0]) == _parts(want)


def test_oracle_double_application_accumulates():
    import random

    rng = random.Random(3)
    spec = parse_einsum("ij,jk->ik")
    a = dense([3, 4], [rng.uniform(-1, 1) for _ in range(12)])
    b = dense([4, 2], [rng.uniform(-1, 1) for _ in range(8)])
    zero = dense([3, 2], [0.0] * 6)
    once = oracle_contract(spec, a, b, zero, 0.8, 0.0)
    twice = oracle_contract(spec, a, b, once, 0.8, 1.0)
    direct = oracle_contract(spec, a, b, zero, 1.6, 0.0)
    for x, y in zip(twice.elements, direct.elements):
        assert abs(x - y) <= 1e-12 * max(abs(y), 1.0)


def test_oracle_supports_output_only_labels():
    # Output-only label broadcasts the same product into every slice.
    spec = parse_einsum("i,i->ie")
    a = dense([2], [1.0, 2.0])
    b = dense([2], [3.0, 4.0])
    c = dense([2, 3], [float(k) for k in range(6)])
    got = oracle_contract(spec, a, b, c, 1.0, 0.5)
    base = [1 * 3.0, 2 * 4.0]
    expected = [base[i] + 0.5 * c.elements[e * 2 + i] for e in range(3) for i in range(2)]
    assert list(got.elements) == expected


EXTENT_CONFLICTS = [
    (parse_einsum("ij,jk->ik"), [2, 3]),  # j is 3 in A and 4 in B
    (parse_einsum("ij,jk->ik"), [2]),  # two labels for A's one mode
    (LabelSpec.of("ij", "jk", "ik", labels_c="ki"), [2, 4]),  # C's labels are not D's
]


def _conflicting(extents_a):
    a = dense(extents_a, [0.0] * math.prod(extents_a))
    return a, dense([4, 2], [0.0] * 8), dense([2, 2], [0.0] * 4)


@pytest.mark.parametrize("spec, extents_a", EXTENT_CONFLICTS)
def test_oracle_rejects_extent_conflicts(spec, extents_a):
    with pytest.raises(TappError) as err:
        oracle_contract(spec, *_conflicting(extents_a), 1.0, 0.0)
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH


def test_oracle_casts_to_requested_output_dtype():
    spec = parse_einsum("i,i->i")
    a = dense([1], [1.0 / 3.0])
    b = dense([1], [1.0])
    c = dense([1], [0.0])
    got = oracle_contract(spec, a, b, c, 1.0, 0.0, out_dtype=DType.R32)
    assert got.dtype is DType.R32
    assert got.elements[0] == float(np.float32(1.0 / 3.0))


@pytest.mark.parametrize(
    "terms, want",
    [
        ([1.0, 1e100, 1.0, -1e100], 2.0),  # math.fsum's own result
        ([math.inf, -math.inf], math.nan),  # math.fsum raises ValueError
        # math.fsum raises OverflowError where a partial sum overflows,
        # also where the exact sum is finite or other terms are not
        ([1e308, 1e308, -1e308], 1e308),
        ([1e308, 1e308], math.inf),
        ([-1e308, -1e308, 1.0], -math.inf),
        ([1e308, 1e308, math.inf], math.inf),
        ([1e308, 1e308, math.nan], math.nan),
        ([1e308, 1e308, math.inf, -math.inf], math.nan),
        ([1e308, 1e308, -1e308, 1e292, -1e292, 2.0], 1e308 + 2.0),
    ],
)
def test_exact_sum_gives_a_result_where_fsum_raises(terms, want):
    got = _exact_sum(terms)
    assert got == want or (math.isnan(got) and math.isnan(want))
    # complex terms sum each part alone
    got = _exact_sum([complex(t, -t) for t in terms])
    for part, w in ((got.real, want), (-got.imag, want)):
        assert part == w or (math.isnan(part) and math.isnan(w))


def test_sum_of_negative_zeros_is_negative_zero():
    # as IEEE addition gives it; math.fsum starts from +0.0
    assert math.copysign(1.0, _fsum([-0.0, -0.0])) == -1.0
    assert math.copysign(1.0, _fsum([-0.0])) == -1.0
    for terms in ([0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], []):
        assert math.copysign(1.0, _fsum(terms)) == 1.0


def test_oracle_keeps_a_negative_zero_part_as_the_engine_does():
    # r64 [2.0] times c64 [(1, -0.0)]: the product's imaginary part, -0.0,
    # is the only term of its sum
    spec = parse_einsum("i,i->")
    a, b = view([1], [2.0]), view([1], [complex(1.0, -0.0)], dtype=DType.C64)
    d = view([], [complex(7.0, 7.0)], dtype=DType.C64)
    contract(make_plan(spec, a.desc, b.desc, d.desc, d.desc), 1.0, a, b, 0.0, d, d)
    got = oracle_contract(spec, densify(a, spec.labels_a)[0], densify(b, spec.labels_b)[0],
                          dense([], [0j], DType.C64), 1.0, 0.0, out_dtype=DType.C64)
    want = complex(d.buffer[0])
    assert (got.elements[0].real, math.copysign(1.0, got.elements[0].imag)) == (2.0, -1.0)
    assert np.array([got.elements[0]]).tobytes() == np.array([want]).tobytes()


def test_oracle_sums_products_that_overflow_both_ways_to_nan():
    spec = parse_einsum("ij,jk->ik")
    a = dense([1, 2], [1e308, 1e308])
    b = dense([2, 1], [10.0, -10.0])  # products +inf and -inf
    got = oracle_contract(spec, a, b, dense([1, 1], [0.0]), 1.0, 0.0)
    assert math.isnan(got.elements[0])



# Values whose products hit every branch of _fsum: signed zeros,
# subnormals, infinities, NaN, and 1e308, whose products with values
# above 1 in magnitude overflow a partial sum.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, -1e308]


def test_real_operands_sum_each_cell_as_exact_sum_does():
    raised = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, k, n = (int(x) for x in rng.integers(1, 6, size=3))

        def draw(count):
            return [
                float(_SPECIAL[rng.integers(len(_SPECIAL))]) if rng.random() < 0.3
                else float(rng.uniform(-2, 2))
                for _ in range(count)
            ]

        a, b, c = draw(m * k), draw(k * n), draw(m * n)
        alpha, beta = 0.75, -1.5
        got = oracle_contract(
            parse_einsum("ik,kj->ij"), dense([m, k], a), dense([k, n], b), dense([m, n], c),
            alpha, beta,
        )
        # Each cell's terms in k order, summed by _exact_sum
        want = []
        for j in range(n):
            for i in range(m):
                terms = [a[i + m * p] * b[p + k * j] for p in range(k)]
                try:
                    math.fsum(terms)
                except (ValueError, OverflowError) as err:
                    raised.add(type(err))
                want.append(alpha * _exact_sum(terms) + beta * c[i + m * j])
        assert np.array(got.elements).tobytes() == np.array(want).tobytes()
    assert raised == {ValueError, OverflowError}


def _ordered(einsum, a, b, dtypes, alpha=1.0):
    """``ordered_contract`` of A and B, of one label or none each, with
    beta 0, where ``dtypes`` are A's, B's and D's, which computes."""
    spec = parse_einsum(einsum)
    da, db = (dense([len(x)] * len(ls), x, dt)
              for x, ls, dt in zip((a, b), (spec.labels_a, spec.labels_b), dtypes))
    c = dense([], [0.0], dtypes[2])
    return ordered_contract(spec, da, db, c, alpha, 0.0, dtypes[2], dtypes[2]).elements


def test_ordered_oracle_sums_in_the_contracts_order_where_the_exact_one_cancels():
    spec = parse_einsum("i,i->")
    a, b, c = dense([3], [1e17, 1.0, -1e17]), dense([3], [1.0] * 3), dense([], [0.0])
    # ((1e17 + 1) + -1e17) is 0 in float64; the exact sum is 1
    assert ordered_contract(spec, a, b, c, 1.0, 0.0, DType.R64, DType.R64).elements == (0.0,)
    assert oracle_contract(spec, a, b, c, 1.0, 0.0).elements == (1.0,)


def test_ordered_oracle_keeps_a_sum_of_negative_zeros_negative():
    (got,) = _ordered("i,i->", [-0.0, 0.0, -0.0], [1.0, -1.0, 2.0], [DType.R64] * 3)
    assert got == 0.0 and math.copysign(1.0, got) == -1.0


def test_ordered_oracle_sums_a_reduction_before_its_product():
    # In float32, (1 + 2**-24) rounds to 1, so 3 * (1 + 2**-24) is 3; the
    # products 3 and 3 * 2**-24 summed as a contracted label give the next
    # float32 above 3.
    r32 = [DType.R32] * 3
    assert _ordered("r,->", [1.0, 2.0**-24], [3.0], r32) == (3.0,)
    assert _ordered("r,r->", [1.0, 2.0**-24], [3.0, 3.0], r32) == (3.0 + 2.0**-22,)


@pytest.mark.parametrize("alpha", [1.0, complex(1.0, 0.0)])
def test_ordered_oracle_multiplies_a_real_factor_into_each_part(alpha):
    # C99 Annex G: (1e308 * 10, 1e308 * 0), where a complex (1e308, +0.0)
    # times (10, 0) and then by alpha would make the imaginary part NaN
    got = _ordered("i,i->", [1e308], [complex(10.0, 0.0)], [DType.R64, DType.C64, DType.C64],
                   alpha)
    assert got == (complex(math.inf, 0.0),)


@pytest.mark.parametrize("spec, extents_a", EXTENT_CONFLICTS)
def test_ordered_oracle_rejects_what_the_exact_one_rejects(spec, extents_a):
    with pytest.raises(TappError) as err:
        ordered_contract(spec, *_conflicting(extents_a), 1.0, 0.0, DType.R64, DType.R64)
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH
