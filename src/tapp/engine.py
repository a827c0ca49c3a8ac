"""Strided contraction engine.

Executes the ternary update ``D := alpha * A B + beta * C`` over
general strided views.  The binary (``C := alpha*A + beta*B``) and
unary (``B := alpha*A``) operations run as the same contraction: the
operand takes B's place, and a read-only one-element r32 unit operand U
takes A's place, with stride zero along every output label the operand
lacks.  The binary update takes C's place; unary runs with
``beta = 0``.  ``1 * x == x`` exactly for real x, so this changes no
real bits; for complex x the product is the full complex product
``(1+0j) * x``, which can flip the sign of a zero component, or give NaN
(``0 * inf``) next to an infinite one.

A validated, immutable plan (see :func:`make_plan`) is built once per
operation shape.  It holds window-relative int64 gather indices, built by
broadcasting per-label offsets: A's of shape ``(R_a, K, H, F)``, B's of
shape ``(R_b, K, H, G)``, C's and D's of shape ``(H, F, G)``, where R is
the operand's input-only reduction, K the contracted labels, H the batch
labels, and F and G the free labels of A and of B.  Within each group
the first label varies fastest.

Execution gathers each operand from its reachable window
``buffer[base+lo : base+hi+1]``, never the whole buffer, and sums A's and
B's input-only reductions in index order.  It then walks the output cells
in blocks of at most ``_CHUNK`` cells, forming at most ``_CHUNK`` products
``A[k, h, f] * B[k, h, g]`` at once and summing them over k from left to
right, ``((p0 + p1) + p2) + ...``.  Every cell thus keeps the summation
order of a scalar loop that runs batch, free-of-A and free-of-B outside
and the contracted labels inside.  Then come ``alpha * acc``,
``+ beta * C`` and one cast on store into D's window.

A sum of rows (K products, or R reduced values, per cell) runs one of two
ways, chosen by one rule on its shape, :func:`_row_adds`: wide rows, of a
few hundred cells or more, are added in place one row at a time
(``acc += p[k]``, one numpy call per row); narrow ones, such as a long dot
product into one cell, go through ``np.add.accumulate`` (one inner loop
per cell).  On wide blocks a complex product is fused into the sum: its
re and then its im part are formed in reused float64 buffers and
row-summed straight away, so the block never holds all K complex products
at once, and ``alpha`` and ``beta`` scale in those buffers too.  Both ways
add the same values in the same order, so they give the same bits.

Arithmetic happens in the plan's compute dtype, each operation rounded to
it, and the bits are those of the same scalar loop in Python numbers
(NaN signs aside):

* Real compute dtypes use native float32 or float64 operations.  A
  float32 sum or product equals the float64 one rounded to float32.
* Complex compute dtypes keep real and imaginary parts in a first axis
  of two and multiply as CPython 3.11 does (``re = ar*br - ai*bi``,
  ``im = ar*bi + ai*br``); numpy's complex multiply differs in the last
  bits.  A real value that meets a complex one is promoted to
  ``(x, +0.0)``; real-by-real products, and their sum, stay real until
  the sum is rounded to complex with imaginary part ``+0.0`` (what a sum
  of ``+0.0`` parts gives).
* c32 products are formed in float64, each part rounded to float32 once,
  and then summed in float32.

Following BLAS convention, ``beta == 0`` means C is never read and
``alpha == 0`` means A and B are never read.
"""

from __future__ import annotations

import math
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
    dtype_promote,
    round_to,
    validate_view,
)
from .errors import ErrorCode, TappError
from .labels import ClassifiedLabels, LabelSpec, check_labels, classify, merge_repeats

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

# The most cells in a block, and products formed at once.  A block's
# float64 temporaries then take at most 64 KB each (complex pairs 128 KB):
# they stay in cache, and malloc serves them from its heap instead of
# mapping fresh, page-faulting memory on every call.
_CHUNK = 1 << 13


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


def _gather_index(desc: TensorDesc, *groups) -> np.ndarray:
    """``sum(i_k * s_k)`` over the labels of ``desc`` relative to its lowest
    reachable element, one axis per ``(extents, strides)`` group, the first
    label of a group fastest; read-only, since plans are shared."""
    axes = [
        np.arange(e, dtype=np.int64) * s
        for extents, strides in groups
        for e, s in reversed(tuple(zip(extents, strides)))
    ]
    index = reduce(np.add.outer, axes, np.array(-desc.reach_bounds()[0], np.int64))
    index = index.reshape([math.prod(extents) for extents, _ in groups])
    index.flags.writeable = False
    return index


def _row_adds(rows: int, cells: int) -> bool:
    """The shape rule: a block of ``rows`` rows of ``cells`` cells each is
    wide, summed by in-place row adds (and complex products fused into the
    sum), rather than by ``np.add.accumulate`` on stacked products.

    A row add is one numpy call, about a microsecond, over all cells, where
    accumulate runs one strided inner loop per cell at about 4-5 ns a sum:
    row adds win from about 256 cells a row.  The wide path also pays a
    fixed cost per block, about 4096 cells' worth of work, which few rows
    do not earn back."""
    return cells >= max(256, 4096 // rows)


def _blocks(k: int, h: int, f: int, g: int):
    """The (H, F, G) output cells as blocks of at most ``_CHUNK`` cells, G
    filled first, each with whether the shape rule calls it wide, and the
    contracted step that keeps a block's products within ``_CHUNK``."""
    bg = min(g, _CHUNK)
    bf = min(f, max(1, _CHUNK // bg))
    bh = min(h, max(1, _CHUNK // (bg * bf)))
    blocks = tuple(
        (
            slice(i, i + bh),
            slice(j, j + bf),
            slice(l, l + bg),
            _row_adds(k, min(bh, h - i) * min(bf, f - j) * min(bg, g - l)),
        )
        for i in range(0, h, bh)
        for j in range(0, f, bf)
        for l in range(0, g, bg)
    )
    return blocks, min(k, max(1, _CHUNK // (bh * bf * bg)))


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
    # Window-relative gather indices (see the module docstring): A is
    # (R_a, K, H, F), B is (R_b, K, H, G), C and D are (H, F, G).
    index_a: np.ndarray = field(repr=False, compare=False)
    index_b: np.ndarray = field(repr=False, compare=False)
    index_c: np.ndarray = field(repr=False, compare=False)
    index_d: np.ndarray = field(repr=False, compare=False)
    # Output-cell blocks as (H, F, G) slices and whether each is wide, and
    # the contracted step.
    blocks: tuple[tuple[slice, slice, slice, bool], ...] = field(
        repr=False, compare=False
    )
    step: int = field(repr=False, compare=False)

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
    cells = (classified.batch, classified.free_a, classified.free_b)
    index_d = _gather_index(desc_d, *((g.extents, g.strides_d) for g in cells))
    addresses = np.sort(index_d, axis=None)
    if (addresses[1:] == addresses[:-1]).any():
        raise TappError(
            ErrorCode.ERR_ALIASING, "two output element indices map to one address"
        )

    cdt = _resolve_compute_dtype(
        compute_dtype, desc_a.dtype, desc_b.dtype, desc_c.dtype, desc_d.dtype
    )

    if desc_c.strides == desc_d.strides:  # C is often D
        index_c = index_d
    else:
        index_c = _gather_index(
            desc_c,
            *((g.extents, tuple(map(merged_c.stride_of, g.labels))) for g in cells),
        )
    con, batch = classified.contracted, classified.batch
    red_a, free_a = classified.reduced_a, classified.free_a
    red_b, free_b = classified.reduced_b, classified.free_b
    blocks, step = _blocks(con.size, batch.size, free_a.size, free_b.size)
    return ContractionPlan(
        spec=spec,
        desc_a=desc_a,
        desc_b=desc_b,
        desc_c=desc_c,
        desc_d=desc_d,
        classified=classified,
        compute_dtype=cdt,
        index_a=_gather_index(
            desc_a, *((g.extents, g.strides_a) for g in (red_a, con, batch, free_a))
        ),
        index_b=_gather_index(
            desc_b, *((g.extents, g.strides_b) for g in (red_b, con, batch, free_b))
        ),
        index_c=index_c,
        index_d=index_d,
        blocks=blocks,
        step=step,
    )


def _byte_range(view: TensorView) -> tuple[int, int]:
    """The first and last byte of memory that ``view`` can reach; the
    buffer's byte stride may exceed its item size, or be negative."""
    lo, hi = view.desc.reach_bounds(view.base)
    start = view.buffer.__array_interface__["data"][0]
    step = view.buffer.strides[0]
    first, last = sorted((start + lo * step, start + hi * step))
    return first, last + view.buffer.itemsize - 1


def _same_elements(x: TensorView, y: TensorView) -> bool:
    """Whether ``x`` and ``y`` address the same memory for every element."""
    return (
        x.desc == y.desc
        and x.buffer.strides == y.buffer.strides
        and _byte_range(x) == _byte_range(y)
    )


def _check_view(view: TensorView, desc: TensorDesc, name: str) -> None:
    own = view.desc is desc  # as the API binds buffers to a plan's descriptors
    if view.buffer.dtype != desc.dtype.np_dtype or (
        not own and view.desc.dtype is not desc.dtype
    ):
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH, f"{name}: buffer dtype differs from plan"
        )
    if not own and (
        view.desc.extents != desc.extents or view.desc.strides != desc.strides
    ):
        raise TappError(
            ErrorCode.ERR_OUT_OF_BOUNDS, f"{name}: view layout differs from plan"
        )
    code = validate_view(view)
    if code is not ErrorCode.OK:
        raise TappError(code, f"{name}: view escapes its buffer")


def _scalar_for(value, compute_dtype: DType, name: str) -> float | complex:
    """``ScalarValue.of(value).value`` rounded to the compute dtype, without
    building the ScalarValue."""
    if isinstance(value, ScalarValue):
        value = value.value
    elif not isinstance(value, complex):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            raise TappError(
                ErrorCode.ERR_DTYPE_MISMATCH, f"{name} is not a number"
            ) from None
    elif value.imag == 0.0:
        value = value.real
    if not compute_dtype.is_complex and isinstance(value, complex) and value.imag != 0:
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH,
            f"{name} has a nonzero imaginary part but all operands are real",
        )
    return round_to(value, compute_dtype)


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


def _window(view: TensorView) -> np.ndarray:
    """The reachable elements of ``view``, as a view of its buffer."""
    lo, hi = view.desc.reach_bounds(view.base)
    return view.buffer[lo : hi + 1]


def _gather(view: TensorView, index: np.ndarray, part: np.dtype):
    """The elements of ``view`` at ``index`` with ``part`` precision, and
    whether they are complex; complex ones get a first axis ``(re, im)``."""
    x = _window(view)[index]
    if x.dtype.kind != "c":
        return (x if x.dtype == part else x.astype(part)), False
    if x.size > _CHUNK:
        # x's own storage as the (re, im) pairs: a large array is not
        # copied, though numpy calls on the strided parts cost a little more.
        pairs = x.view(x.real.dtype).reshape(*x.shape, 2)
        parts = pairs.transpose(x.ndim, *range(x.ndim))
        return (parts if parts.dtype == part else parts.astype(part)), True
    parts = np.empty((2, *x.shape), part)
    parts[0], parts[1] = x.real, x.imag
    return parts, True


def _promoted(x: np.ndarray) -> np.ndarray:
    """Real values as Python promotes a float to complex: ``(x, +0.0)``."""
    parts = np.zeros((2, *x.shape), x.dtype)
    parts[0] = x
    return parts


def _add_rows(rows, acc: np.ndarray) -> np.ndarray:
    """``acc += row`` for each row in order."""
    for row in rows:
        np.add(acc, row, out=acc)
    return acc


def _sum_k(x: np.ndarray, acc: np.ndarray | None = None, wide: bool | None = None):
    """``acc + x[0] + x[1] + ...`` (without ``acc``, from ``x[0]``) along
    the fourth axis from the end (K, or R before a reduction), left to
    right: by in-place row adds when ``wide`` (by default, when the shape
    rule calls x's own rows wide), else by accumulate.  The sum is formed
    in ``x``'s storage, so ``x`` must be a temporary."""
    rows = x.shape[-4]
    if acc is None and rows == 1:
        return x[..., 0, :, :, :]
    if wide is None:
        wide = _row_adds(rows, x.size // rows)
    if wide:
        rows = x if x.ndim == 4 else x.swapaxes(0, 1)  # rows before (re, im)
        if acc is None:
            acc, rows = rows[0], rows[1:]
        return _add_rows(rows, acc)
    if acc is not None:
        x[..., 0, :, :, :] += acc
    return np.add.accumulate(x, axis=-4)[..., -1, :, :, :]


def _cmul(x: np.ndarray, y, part: np.dtype) -> np.ndarray:
    """CPython's complex product ``(xr*yr - xi*yi, xr*yi + xi*yr)`` of
    ``(re, im)`` parts, formed in float64 and rounded to ``part`` once;
    ``y`` may be a pair of Python floats."""
    if part is _F32:  # a float scalar is weak: widen the arrays first
        x = x.astype(_F64)
        y = y.astype(_F64) if isinstance(y, np.ndarray) else y
    x_yr, x_yi = x * y[0], x * y[1]  # (xr*yr, xi*yr) and (xr*yi, xi*yi)
    out = np.empty(x_yr.shape, part)
    np.subtract(x_yr[0], x_yi[1], out=out[0])
    np.add(x_yi[0], x_yr[1], out=out[1])
    return out


def _cmul_sum(x: np.ndarray, y: np.ndarray, acc, part: np.dtype, bufs) -> np.ndarray:
    """``acc + x[k]*y[k]`` over k (the fourth axis from the end), with the
    bits of :func:`_cmul` and :func:`_sum_k` but without their stacked
    temporaries: each part of the products, re and then im, is formed in
    float64 in the buffers ``u`` and ``w`` and rounded to ``part`` once
    into ``q``, which holds both parts of a row side by side; then the rows
    of ``q`` are added.  Without ``acc``, a single row is written straight
    into the new ``(2, H, F, G)`` sum."""
    if part is _F32:
        x, y = x.astype(_F64), y.astype(_F64)
    shape = np.broadcast_shapes(x.shape[1:], y.shape[1:])
    rows, size = shape[0], math.prod(shape)
    u, w = (b[:size].reshape(shape) for b in bufs[:2])
    direct = acc is None and rows == 1  # one product a cell: nothing to add
    if direct:
        acc = np.empty((2, *shape[1:]), part)
    q = acc[None] if direct else bufs[2][: 2 * size].reshape(rows, 2, *shape[1:])
    for i, (xa, yb, xc, yd, op) in enumerate(
        ((x[0], y[0], x[1], y[1], np.subtract), (x[0], y[1], x[1], y[0], np.add))
    ):
        np.multiply(xa, yb, out=u)
        np.multiply(xc, yd, out=w)
        op(u, w, out=q[:, i])
    if direct:
        return acc
    if acc is None:
        acc, q = np.add(q[0], q[1]), q[2:]
    return _add_rows(q, acc)


def _cscale(v: np.ndarray, s, bufs) -> np.ndarray:
    """:func:`_cmul` of ``(re, im)`` parts ``v`` by the pair of Python
    floats ``s``, in place, with its float64 products in the buffers."""
    u, w = (b[: v[0].size].reshape(v.shape[1:]) for b in bufs[:2])
    vr, vi = v
    np.multiply(vr, s[0], out=u, dtype=_F64)  # dtype: a float scalar is weak
    np.multiply(vi, s[1], out=w, dtype=_F64)
    np.subtract(u, w, out=u)
    np.multiply(vr, s[1], out=w, dtype=_F64)
    vr[...] = u
    np.multiply(vi, s[0], out=u, dtype=_F64)
    np.add(w, u, out=vi)
    return v


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
    if not d.buffer.flags.writeable:
        raise TappError(ErrorCode.ERR_OUT_OF_BOUNDS, "D: buffer is read-only")
    shared = [
        (view, name)
        for view, name in ((a, "A"), (b, "B"), (c, "C"))
        if np.may_share_memory(view.buffer, d.buffer)
    ]
    if shared:
        lo, hi = _byte_range(d)
        for view, name in shared:
            if view is c and (c is d or _same_elements(c, d)):
                continue  # an in-place update
            r = _byte_range(view)
            if r[0] <= hi and lo <= r[1]:
                raise TappError(
                    ErrorCode.ERR_ALIASING, f"output storage overlaps operand {name}"
                )

    read_ab = al != 0
    read_c = be != 0
    cdt = plan.compute_dtype
    part = _F32 if cdt.width == 32 else _F64
    cplx = cdt.is_complex
    dwin = _window(d)
    with np.errstate(all="ignore"):
        cmul_ab = False
        if read_ab:
            # A and B are read whole before the first store, so that an
            # operand that is D's identical view (in-place unary) is read intact.
            av, a_cplx = _gather(a, plan.index_a, part)
            bv, b_cplx = _gather(b, plan.index_b, part)
            if cplx:
                # A real reduction is complex from its first rounding on,
                # with imaginary part +0.0, and a real operand that meets a
                # complex one is promoted alike.
                cmul_ab = a_cplx or b_cplx or av.shape[-4] > 1 or bv.shape[-4] > 1
                if cmul_ab:
                    av = av if a_cplx else _promoted(av)
                    bv = bv if b_cplx else _promoted(bv)
            av, bv = _sum_k(av), _sum_k(bv)  # (K, H, F) and (K, H, G)
        if cplx:
            al, be = (al.real, al.imag), (be.real, be.imag)
        size_k, step = plan.size_contracted, plan.step
        bufs = None
        for hs, fs, gs, wide in plan.blocks:
            index = plan.index_d[hs, fs, gs]
            if wide and cplx and bufs is None:
                # Scratch (u, w, q) of _cmul_sum and _cscale, sized by the
                # first block, which is the largest.
                n = step * index.size
                bufs = np.empty(n, _F64), np.empty(n, _F64), np.empty(2 * n, part)
            v = 0.0
            if read_ab:
                acc = None
                for k in range(0, size_k, step):
                    x = av[..., k : k + step, hs, fs, None]
                    y = bv[..., k : k + step, hs, None, gs]
                    if not cmul_ab:  # real products, also when rounded to complex
                        acc = _sum_k(x * y, acc, wide)
                    elif wide:
                        acc = _cmul_sum(x, y, acc, part, bufs)
                    else:
                        acc = _sum_k(_cmul(x, y, part), acc, wide)
                if not cplx:
                    v = acc * al
                else:
                    acc = acc if cmul_ab else _promoted(acc)
                    v = _cscale(acc, al, bufs) if wide else _cmul(acc, al, part)
            if read_c:
                cv, c_cplx = _gather(c, plan.index_c[hs, fs, gs], part)
                if not cplx:
                    cv = cv * be
                else:
                    cv = cv if c_cplx else _promoted(cv)
                    cv = _cscale(cv, be, bufs) if wide else _cmul(cv, be, part)
                cv += v  # 0.0 + (re, im) == (0.0 + re, 0.0 + im)
                v = cv
            # One cast on store; a real D drops the imaginary part.
            if not cplx or isinstance(v, float):
                dwin[index] = v
            elif dwin.dtype.kind == "c":
                dwin.real[index], dwin.imag[index] = v
            else:
                dwin[index] = v[0]

    writes = plan.size_batch * plan.size_free_a * plan.size_free_b
    return StatusRecord(
        seconds_elapsed=time.perf_counter() - t0,
        elements_written=writes,
        multiply_adds=writes * plan.size_contracted if read_ab else 0,
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
    """Plan ``C := alpha*A + beta*B`` (B's labels name C); labels are
    checked first, then extents across A, B and C, then B must match C."""
    labels_a = tuple(labels_a)
    labels_b = tuple(labels_b)
    labels_out = tuple(labels_out)
    check_labels(labels_a, labels_b, labels_out)
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
    ``B := alpha*A + 0*B``; labels are checked first, then output-only
    labels are rejected."""
    labels_a = tuple(labels_a)
    labels_out = tuple(labels_out)
    check_labels(labels_a, labels_out)
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
    identical = (
        a.desc == out.desc
        and np.may_share_memory(a.buffer, out.buffer)
        and _same_elements(a, out)
    )
    c = a if identical else out
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
