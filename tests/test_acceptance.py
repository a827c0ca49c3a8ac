"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them).
"""

import cmath
import itertools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

from tapp import (
    DType,
    LabelSpec,
    TappError,
    TensorDesc,
    TensorView,
    contract,
    densify,
    make_plan,
    oracle_contract,
    parse_einsum,
    tapp_create_handle,
    tapp_create_tensor_info,
    tapp_create_contraction,
    tapp_create_unary_op,
    tapp_create_vkv,
    tapp_destroy_handle,
    tapp_error_string,
    tapp_execute_product,
    tapp_get_default_executor,
    tapp_vkv_get,
    tapp_vkv_set,
)
from tapp.cli import run_suite
from tapp.core import column_major_strides
from tapp.errors import ErrorCode
from tapp.oracle import _addresses

TOL_64 = 1e-12
TOL_32 = 1e-4


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {number} PASS: {text}")


def dense_view(rng, extents, dtype=DType.R64):
    desc = TensorDesc.column_major(tuple(extents), dtype)
    data = [rng.uniform(-1, 1) for _ in range(desc.size)]
    if dtype.is_complex:
        data = [complex(x, rng.uniform(-1, 1)) for x in data]
    return TensorView(desc, np.array(data, dtype=dtype.np_dtype))


def zeros_view(extents, dtype=DType.R64):
    desc = TensorDesc.column_major(tuple(extents), dtype)
    return TensorView(desc, np.zeros(desc.size, dtype=dtype.np_dtype))


def engine_run(einsum, a, b, c, d, alpha=1.0, beta=1.0):
    spec = parse_einsum(einsum)
    plan = make_plan(spec, a.desc, b.desc, c.desc, d.desc)
    contract(plan, alpha, a, b, beta, c, d)
    return d


def oracle_run(einsum, a, b, c, alpha=1.0, beta=1.0, out_dtype=DType.R64):
    spec = parse_einsum(einsum)
    dense_a, ua = densify(a, spec.labels_a)
    dense_b, ub = densify(b, spec.labels_b)
    dense_c, uc = densify(c, spec.labels_c)
    return oracle_contract(
        LabelSpec.of(ua, ub, spec.labels_d, uc), dense_a, dense_b, dense_c,
        alpha, beta, out_dtype=out_dtype,
    )


def max_rel_err(got_view, expected_dense):
    """The largest relative error; where either side is not finite, 0 if
    each pair of real, and of imaginary, parts is equal or both NaN, else
    inf.  A finite complex modulus beyond float's range is compared on
    quartered parts."""
    worst = 0.0
    for k, want in enumerate(expected_dense.elements):
        got = got_view.buffer[k]
        got = complex(got) if got_view.desc.dtype.is_complex else float(got)
        if cmath.isfinite(got) and cmath.isfinite(want):
            try:
                err = abs(got - want) / max(abs(want), 1.0)
            except OverflowError:
                err = abs(got / 4 - want / 4) / max(abs(want / 4), 0.25)
        else:
            g, w = complex(got), complex(want)
            parts = ((g.real, w.real), (g.imag, w.imag))
            same = all(x == y or math.isnan(x) and math.isnan(y) for x, y in parts)
            err = 0.0 if same else math.inf
        worst = max(worst, err)
    return worst


def test_criterion_1_full_conformance_suite():
    with criterion(1, "28-category suite, 100 seeded iterations, seed 42"):
        code, report = run_suite(seed=42, iterations=100)
        assert code == 0, report["failures"][:1]
        assert report["instances"] == 2800
        assert not report["failures"]
        for cat, stats in report["categories"].items():
            tol = TOL_64 if cat in ("18", "20") else TOL_32
            assert stats["failed"] == 0
            assert stats["max_rel_err"] <= tol, (cat, stats)


WORKED_EXAMPLES = {
    1: "abg,bda->dg",
    2: "ab,bda->da",
    3: "bab,bda->da",
    4: "bab,bgdga->da",
    5: "bab,bgdga->dae",
}


def test_criterion_2_worked_examples():
    with criterion(2, "worked examples for the five contraction classes"):
        rng = random.Random(20240)
        for case_no, einsum in WORKED_EXAMPLES.items():
            spec = parse_einsum(einsum)
            extents = {l: 2 for l in set("".join(spec.labels_a + spec.labels_b + spec.labels_d))}
            a = dense_view(rng, [extents[l] for l in spec.labels_a])
            b = dense_view(rng, [extents[l] for l in spec.labels_b])
            c = dense_view(rng, [extents[l] for l in spec.labels_d])
            d = zeros_view([extents[l] for l in spec.labels_d])
            if case_no == 5:
                with pytest.raises(TappError) as err:
                    make_plan(spec, a.desc, b.desc, c.desc, d.desc)
                assert err.value.code is ErrorCode.ERR_UNSUPPORTED
                # Oracle-only evaluation: each broadcast slice must equal
                # the class-4 result plus its own update contribution.
                full = oracle_run(einsum, a, b, c)
                zero_c = zeros_view([2, 2])
                inner = oracle_run(WORKED_EXAMPLES[4], a, b, zero_c, beta=0.0)
                for e in range(2):
                    for pos in range(4):
                        want = inner.elements[pos] + c.buffer[e * 4 + pos]
                        got = full.elements[e * 4 + pos]
                        assert abs(got - want) <= TOL_64 * max(abs(want), 1.0)
                continue
            d = engine_run(einsum, a, b, c, d)
            expected = oracle_run(einsum, a, b, c)
            assert max_rel_err(d, expected) <= TOL_64, (case_no, einsum)


def _ttgt_reference(spec, a, b, c, alpha, beta):
    """Independent check: reshape to matrices grouped as (free-of-A x
    contracted) and (contracted x free-of-B), triple-loop multiply,
    then scatter back through D's label order."""
    set_a, set_b = set(spec.labels_a), set(spec.labels_b)
    contracted = [l for l in spec.labels_a if l in set_b]
    free_a = [l for l in spec.labels_a if l not in set_b]
    free_b = [l for l in spec.labels_b if l not in set_a]
    ext = {}
    for labels, v in ((spec.labels_a, a), (spec.labels_b, b)):
        for l, e in zip(labels, v.desc.extents):
            ext[l] = e

    def indices(labels):
        rev = itertools.product(*[range(ext[l]) for l in reversed(labels)])
        return [dict(zip(labels, idx[::-1])) for idx in rev]

    fa_idx, fb_idx, p_idx = indices(free_a), indices(free_b), indices(contracted)

    def fetch(view, labels, valuation):
        off = view.base + sum(
            valuation[l] * s for l, s in zip(labels, view.desc.strides)
        )
        return view.buffer[off]

    result = {}
    for i, fa in enumerate(fa_idx):
        for j, fb in enumerate(fb_idx):
            total = 0.0
            for p in p_idx:
                total += fetch(a, spec.labels_a, {**fa, **p}) * fetch(
                    b, spec.labels_b, {**fb, **p}
                )
            valuation = {**fa, **fb}
            off_d = sum(
                valuation[l] * s
                for l, s in zip(spec.labels_d, TensorDesc.column_major(
                    [ext[l] for l in spec.labels_d], DType.R64).strides)
            )
            result[off_d] = alpha * total + beta * fetch(c, spec.labels_d, valuation)
    return result


def test_criterion_3_ttgt_cross_check():
    with criterion(3, "200 simple contractions against a triple-loop matrix product"):
        rng = random.Random(30303)
        for _ in range(200):
            pool = iter("abcdefgh")
            contracted = [next(pool) for _ in range(rng.randint(1, 2))]
            free_a = [next(pool) for _ in range(rng.randint(0, 2))]
            free_b = [next(pool) for _ in range(rng.randint(0, 2))]
            labels_a = contracted + free_a
            labels_b = contracted + free_b
            labels_d = free_a + free_b
            rng.shuffle(labels_a)
            rng.shuffle(labels_b)
            rng.shuffle(labels_d)
            ext = {l: rng.randint(1, 4) for l in contracted + free_a + free_b}
            a = dense_view(rng, [ext[l] for l in labels_a])
            b = dense_view(rng, [ext[l] for l in labels_b])
            c = dense_view(rng, [ext[l] for l in labels_d])
            d = zeros_view([ext[l] for l in labels_d])
            alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)
            einsum = "".join(labels_a) + "," + "".join(labels_b) + "->" + "".join(labels_d)
            engine_run(einsum, a, b, c, d, alpha, beta)
            expected = _ttgt_reference(parse_einsum(einsum), a, b, c, alpha, beta)
            for off, want in expected.items():
                got = float(d.buffer[off])
                assert abs(got - want) <= TOL_64 * max(abs(want), 1.0)


def test_criterion_4_stride_merge_invariance():
    with criterion(4, "repeated labels match their merged-stride form bitwise"):
        rng = random.Random(40404)
        for _ in range(100):
            ext_i, ext_j, ext_k = (rng.randint(2, 4) for _ in range(3))
            # A carries label i twice: modes (i, j, i).
            a_desc = TensorDesc.column_major([ext_i, ext_j, ext_i], DType.R64)
            a_buf = np.array([rng.uniform(-1, 1) for _ in range(a_desc.size)])
            b = dense_view(rng, [ext_j, ext_k])
            c = dense_view(rng, [ext_i, ext_k])
            alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)

            d1 = zeros_view([ext_i, ext_k])
            engine_run(
                "iji,jk->ik",
                TensorView(a_desc, a_buf), b, c, d1, alpha, beta,
            )
            merged_desc = TensorDesc(
                (ext_i, ext_j),
                (a_desc.strides[0] + a_desc.strides[2], a_desc.strides[1]),
                DType.R64,
            )
            d2 = zeros_view([ext_i, ext_k])
            engine_run(
                "ij,jk->ik", TensorView(merged_desc, a_buf), b, c, d2, alpha, beta
            )
            assert np.array_equal(d1.buffer, d2.buffer)


def test_criterion_5_batched_slices_decompose():
    with criterion(5, "batched contractions equal their per-slice runs bitwise"):
        rng = random.Random(50505)
        for _ in range(100):
            ext = {l: rng.randint(1, 3) for l in "hpuv"}
            labels = {
                "a": ["h", "p", "u"],
                "b": ["p", "h", "v"],
                "d": ["u", "h", "v"],
            }
            for key in labels:
                rng.shuffle(labels[key])
            views = {
                "a": dense_view(rng, [ext[l] for l in labels["a"]]),
                "b": dense_view(rng, [ext[l] for l in labels["b"]]),
                "c": dense_view(rng, [ext[l] for l in labels["d"]]),
            }
            alpha, beta = rng.uniform(-1, 1), rng.uniform(-1, 1)
            einsum = (
                "".join(labels["a"]) + "," + "".join(labels["b"]) + "->" + "".join(labels["d"])
            )
            d_full = zeros_view([ext[l] for l in labels["d"]])
            engine_run(einsum, views["a"], views["b"], views["c"], d_full, alpha, beta)

            d_sliced = zeros_view([ext[l] for l in labels["d"]])
            slice_source = {"a": views["a"], "b": views["b"], "c": views["c"], "d": d_sliced}
            slice_labels = {"c": labels["d"], "d": labels["d"], **{k: labels[k] for k in "ab"}}
            for h in range(ext["h"]):
                sliced = {}
                for name, view in slice_source.items():
                    lbls = slice_labels[name]
                    keep = [k for k, l in enumerate(lbls) if l != "h"]
                    drop = [k for k, l in enumerate(lbls) if l == "h"]
                    desc = TensorDesc(
                        tuple(view.desc.extents[k] for k in keep),
                        tuple(view.desc.strides[k] for k in keep),
                        view.desc.dtype,
                    )
                    base = view.base + sum(h * view.desc.strides[k] for k in drop)
                    sliced[name] = TensorView(desc, view.buffer, base)
                sub_einsum = (
                    "".join(l for l in labels["a"] if l != "h")
                    + ","
                    + "".join(l for l in labels["b"] if l != "h")
                    + "->"
                    + "".join(l for l in labels["d"] if l != "h")
                )
                plan = make_plan(
                    parse_einsum(sub_einsum),
                    sliced["a"].desc, sliced["b"].desc, sliced["c"].desc, sliced["d"].desc,
                )
                contract(plan, alpha, sliced["a"], sliced["b"], beta, sliced["c"], sliced["d"])
            assert np.array_equal(d_full.buffer, d_sliced.buffer)


def test_criterion_6_error_contract():
    with criterion(6, "distinct documented error codes for the four contract violations"):
        r64 = DType.R64
        spec = parse_einsum("ij,jk->ik")
        d_a = TensorDesc.column_major([2, 3], r64)
        d_b_bad = TensorDesc.column_major([4, 2], r64)
        d_out = TensorDesc.column_major([2, 2], r64)
        with pytest.raises(TappError) as err:
            make_plan(spec, d_a, d_b_bad, d_out, d_out)
        extent_code = err.value.code

        d_c_bad = TensorDesc.column_major([2, 3], r64)
        d_b = TensorDesc.column_major([3, 2], r64)
        with pytest.raises(TappError) as err:
            make_plan(spec, d_a, d_b, d_c_bad, d_out)
        output_code = err.value.code

        d_aliased = TensorDesc((2, 2), (1, 0), r64)
        with pytest.raises(TappError) as err:
            make_plan(spec, d_a, d_b, d_out, d_aliased)
        aliasing_code = err.value.code

        spec5 = parse_einsum("ij,jk->ike")
        d_out3 = TensorDesc.column_major([2, 2, 2], r64)
        with pytest.raises(TappError) as err:
            make_plan(spec5, d_a, d_b, d_out3, d_out3)
        unsupported_code = err.value.code

        got = [extent_code, output_code, aliasing_code, unsupported_code]
        assert got == [
            ErrorCode.ERR_EXTENT_MISMATCH,
            ErrorCode.ERR_OUTPUT_MISMATCH,
            ErrorCode.ERR_ALIASING,
            ErrorCode.ERR_UNSUPPORTED,
        ]
        assert len(set(got)) == 4


def test_criterion_7_degenerate_semantics():
    with criterion(7, "zero-scalar short-circuits and edge layouts match the oracle"):
        nan = float("nan")
        a = TensorView(TensorDesc.column_major([2], DType.R64), np.array([nan, nan]))
        b = TensorView(TensorDesc.column_major([2], DType.R64), np.array([nan, nan]))
        c = TensorView(TensorDesc.column_major([2], DType.R64), np.array([1.0, 2.0]))
        d = zeros_view([2])
        engine_run("i,i->i", a, b, c, d, alpha=0.0, beta=1.0)
        assert d.buffer.tolist() == [1.0, 2.0]

        clean_a = TensorView(a.desc, np.array([1.0, 2.0]))
        clean_b = TensorView(b.desc, np.array([3.0, 4.0]))
        nan_c = TensorView(c.desc, np.array([nan, nan]))
        d2 = zeros_view([2])
        engine_run("i,i->i", clean_a, clean_b, nan_c, d2, alpha=1.0, beta=0.0)
        assert d2.buffer.tolist() == [3.0, 8.0]

        code, report = run_suite(seed=7, iterations=20, categories=list(range(8, 22)))
        assert code == 0, report["failures"][:1]
        assert report["instances"] == 14 * 20


def test_criterion_8_odometer_and_offset_properties():
    # On the oracle's address walk, on which densify, the oracle's sum and
    # the CLI's injectivity check of D run.
    with criterion(8, "full index coverage and offset linearity over 1000 shapes"):
        rng = random.Random(80808)
        for _ in range(1000):
            nmodes = rng.randint(0, 5)
            extents = [rng.randint(1, 4) for _ in range(nmodes)]
            dense = column_major_strides(extents)
            # Each multi-index comes once, the first fastest.
            assert _addresses(extents, dense) == list(range(math.prod(extents)))

            strides = [rng.randint(-10, 10) for _ in range(nmodes)]
            base = rng.randint(0, 100)
            addresses = _addresses(extents, strides, base)

            def offset(idx):
                return addresses[sum(i * s for i, s in zip(idx, dense))] - base

            i = [rng.randrange(e) for e in extents]
            j = [rng.randrange(e - x) for e, x in zip(extents, i)]  # i + j in range
            assert offset([x + y for x, y in zip(i, j)]) == offset(i) + offset(j)


def test_criterion_9_api_layer_properties():
    with criterion(9, "descriptor reuse, key-value stores, total error strings"):
        rng = random.Random(90909)
        handle = tapp_create_handle()
        ex = tapp_get_default_executor(handle)
        info = tapp_create_tensor_info(handle, DType.R64, 2, (3, 3), (1, 3))
        reused = tapp_create_contraction(
            handle, info, "ij", info, "jk", info, "ik", info, "ik"
        )
        for _ in range(3):
            a = np.array([rng.uniform(-1, 1) for _ in range(9)])
            b = np.array([rng.uniform(-1, 1) for _ in range(9)])
            d_reused, d_fresh = np.zeros(9), np.zeros(9)
            assert (
                tapp_execute_product(reused, ex, 1.0, a, b, 0.0, np.zeros(9), d_reused)
                is ErrorCode.OK
            )
            fresh = tapp_create_contraction(
                handle, info, "ij", info, "jk", info, "ik", info, "ik"
            )
            assert (
                tapp_execute_product(fresh, ex, 1.0, a, b, 0.0, np.zeros(9), d_fresh)
                is ErrorCode.OK
            )
            assert d_reused.tolist() == d_fresh.tolist()

        unary = tapp_create_unary_op(handle, info, "ij", info, "ji")
        for obj in (handle, ex, info, reused, unary, tapp_create_vkv()):
            assert tapp_vkv_set(obj, 3, b"\x01\x02") is ErrorCode.OK
            assert tapp_vkv_get(obj, 3) == b"\x01\x02"
            assert tapp_vkv_get(obj, 4) is ErrorCode.ERR_KEY_NOT_FOUND

        for code in list(ErrorCode) + [137, -5, 9999]:
            assert tapp_error_string(code)
        tapp_destroy_handle(handle)
