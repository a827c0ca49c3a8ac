"""Strided contraction engine.

Executes the ternary update ``D := alpha * A B + beta * C`` over
general strided views.  The binary (``C := alpha*A + beta*B``) and
unary (``B := alpha*A``) operations run as the same contraction: the
operand takes B's place, and a read-only one-element r32 unit operand U
takes A's place, with stride zero along every output label the operand
lacks.  The binary update takes C's place; unary runs with
``beta = 0``.  ``1 * x == x`` exactly for real x, so this changes no
real bits; for complex x CPython forms the full product ``(1+0j) * x``,
which can flip the sign of a zero component, or give NaN (``0 * inf``)
next to an infinite one.

A validated, immutable plan (see :func:`make_plan`) is built once per
operation shape.  Execution first sums the input-only reductions once
per read position, then walks four nested index loops -- batch,
free-of-A, free-of-B outside, contracted inside -- in
reverse-lexicographic (first label fastest) order.  Offsets for each
loop level are precomputed per tensor, so a loop body only adds deltas
to running base offsets.

Arithmetic happens in the plan's compute dtype (each operation result
is rounded to that precision) and each output element is cast to D's
dtype exactly once, after accumulation.  Following BLAS convention,
``beta == 0`` means C is never read and ``alpha == 0`` means A and B
are never read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    DType,
    ScalarValue,
    TensorDesc,
    TensorView,
    compute_rounder,
    dtype_promote,
    round_to,
    validate_view,
)
from .errors import ErrorCode, TappError
from .labels import ClassifiedLabels, LabelSpec, classify, merge_repeats

__all__ = [
    "StatusRecord",
    "ContractionPlan",
    "make_plan",
    "contract",
    "make_binary_plan",
    "binary_op",
    "run_binary",
    "make_unary_plan",
    "unary_op",
    "run_unary",
]


@dataclass
class StatusRecord:
    """Execution metadata.

    ``multiply_adds`` counts products of (possibly pre-reduced) input
    values accumulated into outputs; it is exact for the loops actually
    executed, i.e. zero when ``alpha == 0``.  A binary or unary op counts
    one product (with the unit operand) per written element.
    """

    seconds_elapsed: float = 0.0
    elements_written: int = 0
    multiply_adds: int = 0
    error: ErrorCode = ErrorCode.OK
    executor: object | None = None


def _offsets(extents: Sequence[int], strides: Sequence[int]) -> tuple[int, ...]:
    """``sum(i_k * s_k)`` for every multi-index, first index fastest,
    built one mode at a time.  No modes yield the single offset 0."""
    offsets = (0,)
    for e, s in zip(extents, strides):
        offsets = tuple(o + i * s for i in range(e) for o in offsets)
    return offsets


@dataclass(frozen=True)
class ContractionPlan:
    """Immutable preprocessed form of one ternary contraction."""

    spec: LabelSpec
    desc_a: TensorDesc
    desc_b: TensorDesc
    desc_c: TensorDesc
    desc_d: TensorDesc
    classified: ClassifiedLabels
    compute_dtype: DType
    # Offset deltas per loop level, one row per multi-index; the first
    # row of every table is the all-zero multi-index.
    table_batch: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    table_free_a: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    table_free_b: tuple[tuple[int, int, int, int], ...] = field(repr=False)
    table_contracted: tuple[tuple[int, int], ...] = field(repr=False)
    table_reduced_a: tuple[int, ...] = field(repr=False)
    table_reduced_b: tuple[int, ...] = field(repr=False)

    @property
    def size_batch(self) -> int:
        return self.classified.batch.size

    @property
    def size_free_a(self) -> int:
        return self.classified.free_a.size

    @property
    def size_free_b(self) -> int:
        return self.classified.free_b.size

    @property
    def size_contracted(self) -> int:
        return self.classified.contracted.size


def _resolve_compute_dtype(requested: DType | None, *operands: DType) -> DType:
    promoted = reduce(dtype_promote, operands)
    if requested is None:
        return promoted
    if dtype_promote(requested, promoted) is not requested:
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH,
            "compute dtype narrower than the operand promotion",
        )
    return requested


def make_plan(
    spec: LabelSpec,
    desc_a: TensorDesc,
    desc_b: TensorDesc,
    desc_c: TensorDesc,
    desc_d: TensorDesc,
    compute_dtype: DType | None = None,
) -> ContractionPlan:
    """Validate and preprocess one contraction; raises TappError.

    Checks run in a fixed order: label counts, per-tensor repeated-label
    merging, cross-tensor extent consistency, C-matches-D, rejection of
    output-only labels, output address injectivity.
    """
    merged_a = merge_repeats(spec.labels_a, desc_a)
    merged_b = merge_repeats(spec.labels_b, desc_b)
    merged_d = merge_repeats(spec.labels_d, desc_d)
    classified = classify(merged_a, merged_b, merged_d)

    if spec.labels_c != spec.labels_d or desc_c.extents != desc_d.extents:
        raise TappError(
            ErrorCode.ERR_OUTPUT_MISMATCH,
            "C must carry D's labels, in order, with equal extents",
        )
    merged_c = merge_repeats(spec.labels_c, desc_c)

    if classified.broadcast_out.labels:
        raise TappError(
            ErrorCode.ERR_UNSUPPORTED,
            f"output-only labels {classified.broadcast_out.labels} are not supported",
        )
    out_offsets = _offsets(merged_d.extents, merged_d.strides)
    if len(set(out_offsets)) != len(out_offsets):
        raise TappError(
            ErrorCode.ERR_ALIASING, "two output element indices map to one address"
        )

    cdt = _resolve_compute_dtype(
        compute_dtype, desc_a.dtype, desc_b.dtype, desc_c.dtype, desc_d.dtype
    )

    def d_side_table(group):
        strides_c = tuple(merged_c.stride_of(l) for l in group.labels)
        vectors = (group.strides_a, group.strides_b, strides_c, group.strides_d)
        columns = {sv: _offsets(group.extents, sv) for sv in vectors}  # C is often D
        return tuple(zip(*(columns[sv] for sv in vectors)))

    con, red_a, red_b = classified.contracted, classified.reduced_a, classified.reduced_b
    return ContractionPlan(
        spec=spec,
        desc_a=desc_a,
        desc_b=desc_b,
        desc_c=desc_c,
        desc_d=desc_d,
        classified=classified,
        compute_dtype=cdt,
        table_batch=d_side_table(classified.batch),
        table_free_a=d_side_table(classified.free_a),
        table_free_b=d_side_table(classified.free_b),
        table_contracted=tuple(
            zip(_offsets(con.extents, con.strides_a), _offsets(con.extents, con.strides_b))
        ),
        table_reduced_a=_offsets(red_a.extents, red_a.strides_a),
        table_reduced_b=_offsets(red_b.extents, red_b.strides_b),
    )


def _byte_range(view: TensorView) -> tuple[int, int]:
    lo, hi = view.desc.reach_bounds(view.base)
    start = view.buffer.__array_interface__["data"][0]
    item = view.buffer.itemsize
    return start + lo * item, start + hi * item


def _check_view(view: TensorView, desc: TensorDesc, name: str) -> None:
    if view.desc.dtype is not desc.dtype or view.buffer.dtype != desc.dtype.np_dtype:
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH, f"{name}: buffer dtype differs from plan"
        )
    if view.desc.extents != desc.extents or view.desc.strides != desc.strides:
        raise TappError(
            ErrorCode.ERR_OUT_OF_BOUNDS, f"{name}: view layout differs from plan"
        )
    code = validate_view(view)
    if code is not ErrorCode.OK:
        raise TappError(code, f"{name}: view escapes its buffer")


def _scalar_for(value, compute_dtype: DType, name: str) -> float | complex:
    sv = ScalarValue.of(value)
    if sv.im != 0.0 and not compute_dtype.is_complex:
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH,
            f"{name} has a nonzero imaginary part but all operands are real",
        )
    return round_to(sv.value, compute_dtype)


def _reduced(plan: ContractionPlan, view: TensorView, k: int, rnd):
    """The buffer of operand A (``k == 0``) or B (``k == 1``) as a list;
    with input-only labels, a map from each read position to its
    reduction, summed once in table order."""
    buf = view.buffer.tolist()
    offsets = (plan.table_reduced_a, plan.table_reduced_b)[k]
    if len(offsets) == 1:
        return buf
    free = (plan.table_free_a, plan.table_free_b)[k]
    reduced = {}
    for h in plan.table_batch:
        for f in free:
            for c in plan.table_contracted:
                p = view.base + h[k] + f[k] + c[k]
                if p not in reduced:
                    v = buf[p]
                    for m in offsets[1:]:
                        v = rnd(v + buf[p + m])
                    reduced[p] = v
    return reduced


def contract(
    plan: ContractionPlan,
    alpha: ScalarValue | int | float | complex,
    a: TensorView,
    b: TensorView,
    beta: ScalarValue | int | float | complex,
    c: TensorView,
    d: TensorView,
) -> StatusRecord:
    """Run the planned contraction over concrete views.

    C and D may be the identical view (in-place update); any other
    overlap between D and an operand, detected by comparing byte
    intervals, is rejected.
    """
    t0 = time.perf_counter()
    al = _scalar_for(alpha, plan.compute_dtype, "alpha")
    be = _scalar_for(beta, plan.compute_dtype, "beta")

    _check_view(a, plan.desc_a, "A")
    _check_view(b, plan.desc_b, "B")
    _check_view(c, plan.desc_c, "C")
    _check_view(d, plan.desc_d, "D")
    lo, hi = _byte_range(d)
    for view, name in ((a, "A"), (b, "B"), (c, "C")):
        r = _byte_range(view)
        if r[0] <= hi and lo <= r[1]:
            if view is c and r == (lo, hi) and c.desc == d.desc:
                continue
            raise TappError(
                ErrorCode.ERR_ALIASING, f"output storage overlaps operand {name}"
            )

    rnd = compute_rounder(plan.compute_dtype)
    t_batch = plan.table_batch
    t_fa = plan.table_free_a
    t_fb = plan.table_free_b
    t_p_rest = plan.table_contracted[1:]
    base_a, base_b, base_c, base_d = a.base, b.base, c.base, d.base

    read_ab = al != 0
    read_c = be != 0
    if read_ab:
        abuf = _reduced(plan, a, 0, rnd)
        bbuf = _reduced(plan, b, 1, rnd)
    cbuf = c.buffer.tolist() if read_c else None
    dbuf = d.buffer
    drop_imag = plan.compute_dtype.is_complex and not plan.desc_d.dtype.is_complex

    for h_a, h_b, h_c, h_d in t_batch:
        ha = base_a + h_a
        hb = base_b + h_b
        hc = base_c + h_c
        hd = base_d + h_d
        for f_a, _, f_c, f_d in t_fa:
            ia = ha + f_a
            ic = hc + f_c
            idx_d = hd + f_d
            for _, g_b, g_c, g_d in t_fb:
                if read_ab:
                    jb = hb + g_b
                    acc = rnd(abuf[ia] * bbuf[jb])
                    for k_a, k_b in t_p_rest:
                        acc = rnd(acc + rnd(abuf[ia + k_a] * bbuf[jb + k_b]))
                    v = rnd(al * acc)
                else:
                    v = 0.0
                if read_c:
                    v = rnd(v + rnd(be * cbuf[ic + g_c]))
                dbuf[idx_d + g_d] = v.real if drop_imag else v

    writes = len(t_batch) * len(t_fa) * len(t_fb)
    return StatusRecord(
        seconds_elapsed=time.perf_counter() - t0,
        elements_written=writes,
        multiply_adds=writes * len(plan.table_contracted) if read_ab else 0,
    )


_UNIT = np.ones(1, dtype=np.float32)
_UNIT.flags.writeable = False


def make_binary_plan(
    labels_a: Sequence[str],
    desc_a: TensorDesc,
    labels_b: Sequence[str],
    desc_b: TensorDesc,
    labels_out: Sequence[str],
    desc_out: TensorDesc,
) -> ContractionPlan:
    """Plan ``C := alpha*A + beta*B`` (B's labels name C); extents are
    checked across A, B and C before B must match C."""
    labels_a = tuple(labels_a)
    labels_b = tuple(labels_b)
    labels_out = tuple(labels_out)
    merged_a = merge_repeats(labels_a, desc_a)
    merged_b = merge_repeats(labels_b, desc_b)
    classify(merged_a, merged_b, merge_repeats(labels_out, desc_out))
    if labels_b != labels_out or desc_b.extents != desc_out.extents:
        raise TappError(
            ErrorCode.ERR_OUTPUT_MISMATCH,
            "binary output must carry B's labels, in order, with equal extents",
        )
    # The unit operand U carries, at stride zero, each output label A lacks.
    lacking = [k for k, l in enumerate(labels_out) if l not in labels_a]
    desc_u = TensorDesc(
        tuple(desc_out.extents[k] for k in lacking), (0,) * len(lacking), DType.R32
    )
    labels_u = tuple(labels_out[k] for k in lacking)
    spec = LabelSpec(labels_u, labels_a, labels_out, labels_out)
    return make_plan(spec, desc_u, desc_a, desc_b, desc_out)


def run_binary(
    plan: ContractionPlan,
    alpha: ScalarValue | int | float | complex,
    a: TensorView,
    beta: ScalarValue | int | float | complex,
    b: TensorView,
    out: TensorView,
) -> StatusRecord:
    """Execute a binary plan; B may be the output's identical view."""
    return contract(plan, alpha, TensorView(plan.desc_a, _UNIT), a, beta, b, out)


def binary_op(
    alpha,
    a: TensorView,
    labels_a: Sequence[str],
    beta,
    b: TensorView,
    labels_b: Sequence[str],
    out: TensorView,
    labels_out: Sequence[str],
) -> StatusRecord:
    """One-shot ``C := alpha*A + beta*B``; see :func:`make_binary_plan`."""
    plan = make_binary_plan(labels_a, a.desc, labels_b, b.desc, labels_out, out.desc)
    return run_binary(plan, alpha, a, beta, b, out)


def make_unary_plan(
    labels_a: Sequence[str],
    desc_a: TensorDesc,
    labels_out: Sequence[str],
    desc_out: TensorDesc,
) -> ContractionPlan:
    """Plan ``B := alpha*A`` with permutation, diagonal access (repeated
    labels in A) and reduction (labels dropped in B) as the binary op
    ``B := alpha*A + 0*B``; output-only labels are rejected first."""
    labels_a = tuple(labels_a)
    labels_out = tuple(labels_out)
    merged_a = merge_repeats(labels_a, desc_a)
    for lbl in merge_repeats(labels_out, desc_out).labels:
        if lbl not in merged_a.labels:
            raise TappError(
                ErrorCode.ERR_UNSUPPORTED,
                f"output-only label {lbl!r} is not supported",
            )
    return make_binary_plan(labels_a, desc_a, labels_out, desc_out, labels_out, desc_out)


def run_unary(
    plan: ContractionPlan,
    alpha: ScalarValue | int | float | complex,
    a: TensorView,
    out: TensorView,
) -> StatusRecord:
    """Execute a unary plan.  A may be the output's identical view (in
    place); it then fills C's unread slot as well, which exempts it from
    the overlap check as an in-place C is exempt."""
    c = a if a.desc == out.desc and _byte_range(a) == _byte_range(out) else out
    return contract(plan, alpha, TensorView(plan.desc_a, _UNIT), a, 0.0, c, out)


def unary_op(
    alpha,
    a: TensorView,
    labels_a: Sequence[str],
    out: TensorView,
    labels_out: Sequence[str],
) -> StatusRecord:
    """One-shot ``B := alpha*A``; see :func:`make_unary_plan`."""
    plan = make_unary_plan(labels_a, a.desc, labels_out, out.desc)
    return run_unary(plan, alpha, a, out)
