import pickle
import random

import pytest

from tapp import (
    DType,
    LabelGroup,
    LabelSpec,
    MergedTensorLabels,
    TappError,
    TensorDesc,
    classify,
    merge_repeats,
    parse_einsum,
)
from tapp.errors import ErrorCode


def test_parse_basic():
    spec = parse_einsum("ijk,jlk->il")
    assert spec.labels_a == ("i", "j", "k")
    assert spec.labels_b == ("j", "l", "k")
    assert spec.labels_d == ("i", "l")
    assert spec.labels_c == spec.labels_d


def test_parse_all_scalars():
    spec = parse_einsum(",->")
    assert spec.labels_a == ()
    assert spec.labels_b == ()
    assert spec.labels_d == ()


def test_parse_strips_whitespace():
    assert parse_einsum(" i j , j k -> i k ") == parse_einsum("ij,jk->ik")


@pytest.mark.parametrize(
    "expr",
    ["ij,jk-il", "ij jk->ik", "a,b->c->d", "a,b,c->d", "a->b", "i;,j->k", "αβ,β->α"],
)
def test_parse_rejects_malformed(expr):
    with pytest.raises(TappError) as err:
        parse_einsum(expr)
    assert err.value.code is ErrorCode.ERR_PARSE


def test_merge_repeats_sums_strides():
    desc = TensorDesc((3, 2, 3), (1, 3, 6), DType.R64)
    merged = merge_repeats(("b", "a", "b"), desc)
    assert merged.labels == ("b", "a")
    assert merged.strides == (7, 3)
    assert merged.extents == (3, 2)


def test_merge_repeats_identity_without_repeats():
    desc = TensorDesc((2, 5), (1, 4), DType.R64)
    merged = merge_repeats(("i", "j"), desc)
    assert merged.labels == ("i", "j")
    assert merged.strides == (1, 4)
    assert merged.extents == (2, 5)


def test_merge_repeats_rejects_unequal_extents():
    desc = TensorDesc((2, 3), (1, 2), DType.R64)
    with pytest.raises(TappError) as err:
        merge_repeats(("i", "i"), desc)
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH


def _merged(labels, extents=None):
    extents = extents or [2] * len(labels)
    desc = TensorDesc.column_major(extents, DType.R64)
    return merge_repeats(tuple(labels), desc)


def _names(group):
    return set(group.labels)


def test_classify_simple_contraction():
    got = classify(_merged("abg"), _merged("bda"), _merged("dg"))
    assert _names(got.contracted) == {"a", "b"}
    assert _names(got.free_a) == {"g"}
    assert _names(got.free_b) == {"d"}
    for name in ("batch", "reduced_a", "reduced_b", "broadcast_out"):
        assert getattr(got, name).labels == ()


def test_classify_batched_contraction():
    got = classify(_merged("ab"), _merged("bda"), _merged("da"))
    assert _names(got.batch) == {"a"}
    assert _names(got.contracted) == {"b"}
    assert _names(got.free_b) == {"d"}
    assert got.free_a.labels == ()


def test_classify_after_merging_repeats():
    # A from modes (b,a,b); B from modes (b,g,d,g,a): g repeats inside B
    # and survives as an input-only label after merging.
    merged_a = merge_repeats(("b", "a", "b"), TensorDesc.column_major([2, 2, 2], DType.R64))
    merged_b = merge_repeats(
        ("b", "g", "d", "g", "a"), TensorDesc.column_major([2] * 5, DType.R64)
    )
    got = classify(merged_a, merged_b, _merged("da"))
    assert _names(got.contracted) == {"b"}
    assert _names(got.batch) == {"a"}
    assert _names(got.free_b) == {"d"}
    assert _names(got.reduced_b) == {"g"}


def test_classify_flags_output_only_labels():
    got = classify(_merged("ba"), _merged("bda"), _merged("dae"))
    assert _names(got.broadcast_out) == {"e"}


def test_classify_rejects_extent_conflicts():
    with pytest.raises(TappError) as err:
        classify(_merged("ij", [2, 3]), _merged("jk", [4, 5]), _merged("ik", [2, 5]))
    assert err.value.code is ErrorCode.ERR_EXTENT_MISMATCH


def _random_label_sets(rng):
    pool = "abcdefgh"
    a = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    b = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    d_pool = list(dict.fromkeys(a + b)) or ["z"]
    d = rng.sample(d_pool, k=rng.randint(0, min(3, len(d_pool))))
    return list(dict.fromkeys(a)), list(dict.fromkeys(b)), d


def test_classify_partitions_the_label_universe():
    rng = random.Random(1234)
    for _ in range(200):
        la, lb, ld = _random_label_sets(rng)
        got = classify(_merged(la), _merged(lb), _merged(ld))
        groups = got._asdict().values()
        union = set()
        total = 0
        for group in groups:
            union |= set(group.labels)
            total += len(group.labels)
        assert union == set(la) | set(lb) | set(ld)
        assert total == len(union)  # pairwise disjoint


def test_classify_invariant_under_mode_permutation():
    rng = random.Random(99)
    for _ in range(100):
        labels = ["i", "j", "k", "i"]
        extents = [3, 4, 5, 3]
        strides = [1, 3, 12, 60]
        order = list(range(4))
        rng.shuffle(order)
        base = merge_repeats(
            tuple(labels), TensorDesc(tuple(extents), tuple(strides), DType.R64)
        )
        permuted = merge_repeats(
            tuple(labels[k] for k in order),
            TensorDesc(
                tuple(extents[k] for k in order),
                tuple(strides[k] for k in order),
                DType.R64,
            ),
        )
        assert dict(zip(base.labels, zip(base.extents, base.strides))) == dict(
            zip(permuted.labels, zip(permuted.extents, permuted.strides))
        )
        got_base = classify(base, _merged("jm", [4, 6]), _merged("km", [5, 6]))
        got_perm = classify(permuted, _merged("jm", [4, 6]), _merged("km", [5, 6]))
        for name, group in got_base._asdict().items():
            other = got_perm._asdict()[name]
            assert set(group.labels) == set(other.labels)
            assert dict(zip(group.labels, group.strides_a)) == dict(
                zip(other.labels, other.strides_a)
            )


# The three value records, each with its fields in order.
RECORDS = [
    (LabelSpec.of("ij", "jk", "ik"), ("labels_a", "labels_b", "labels_c", "labels_d")),
    (MergedTensorLabels(("i", "j"), (2, 3), (1, 2)), ("labels", "extents", "strides")),
    (
        LabelGroup(("i", "j"), (2, 3), (1, 2), (0, 4), (3, 0)),
        ("labels", "extents", "strides_a", "strides_b", "strides_d"),
    ),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


def _rebuilt(record, fields):
    """An equal record built from copies of ``record``'s field values."""
    return type(record)(*(tuple(getattr(record, f)) for f in fields))


@pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
def test_equal_records_compare_and_hash_equal(record, fields):
    twin = _rebuilt(record, fields)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    other = type(record)(*(getattr(record, f) for f in fields[:-1]), ("x",))
    assert other != record


@pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
def test_a_record_survives_a_pickle_round_trip(record, fields):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


@pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
def test_a_record_is_immutable(record, fields):
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, ())
    assert record == _rebuilt(record, fields)


@pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
def test_a_record_repr_names_each_field_in_order(record, fields):
    items = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{type(record).__name__}({items})"


def test_record_methods():
    assert LabelSpec.of("ij", "j", "i", labels_c="") == LabelSpec(
        ("i", "j"), ("j",), (), ("i",)
    )
    merged = MergedTensorLabels(("i", "j"), (2, 3), (1, 2))
    assert [merged.stride_of(l) for l in "ijk"] == [1, 2, 0]
    assert LabelGroup(("i", "j"), (2, 3), (1, 2), (0, 4), (3, 0)).size == 6
    assert LabelGroup((), (), (), (), ()).size == 1
