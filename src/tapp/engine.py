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
operation shape, in time and memory that grow with the number of modes,
not of elements.  It records how each operand's label groups lie in its
buffer: A's as ``(R_a, K, H, F)``, B's as ``(R_b, K, H, G)``, C's and
D's as ``(H, F, G)``, where R is the operand's input-only reduction, K
the contracted labels, H the batch labels, and F and G the free labels
of A and of B, the first label of a group fastest.  A group's labels
fold into one axis where each stride is the previous one's times its
extent; otherwise the group keeps one axis per run of labels that fold.

Execution views each operand in place, as a numpy array over its buffer
with byte strides = element strides x the buffer's byte stride; complex
elements are viewed as float ``(re, im)`` pairs on a first axis.  A and
B are read whole before the first store, each as a C-contiguous copy
unless it is one already or is a stride-0 view such as U (which takes
no memory); an input whose groups do not fold is copied into the group
shape.  Input-only reductions are summed in index order.  The output
cells are then walked in blocks of at most ``_CHUNK`` cells, flat
``(H, F, G)`` index ranges with G filled first, forming at most
``_CHUNK`` products ``A[k, h, f] * B[k, h, g]`` at once and summing them
over k from left to right, ``((p0 + p1) + p2) + ...``: every cell keeps
the summation order of a scalar loop that runs batch, free-of-A and
free-of-B outside and the contracted labels inside.  Then come
``alpha * acc``, ``+ beta * C`` and one cast on store through a writable
view of D.  Where D's groups do not fold, the blocks fill one
C-contiguous array in D's group shape, as such a C is read, which is
stored through D's view after the last block; it takes as much memory
as D's elements, also when C is not read.

A sum of rows (K products, or R reduced values, per cell) runs one of two
ways, chosen by one rule on its shape, :func:`_row_adds`: wide rows, of a
few hundred cells or more, are added in place one row at a time
(``acc += p[k]``, one numpy call per row); narrow ones, such as a long dot
product into one cell, go through ``np.add.accumulate`` (one inner loop
per cell).  Both ways add the same values in the same order, so they give
the same bits.

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

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
from .labels import (
    ClassifiedLabels, LabelSpec, check_labels, classify, label_extents, merge_repeats
)

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

# The most output addresses enumerated where the sorted-stride test cannot
# decide injectivity (8 MB of int64); a larger layout is ERR_UNSUPPORTED.
_ENUMERATION_BUDGET = 1 << 20

# np.shares_memory's work bound; a harder overlap question is answered by
# the byte intervals, which reject views that interleave.
_OVERLAP_WORK = 1 << 12

_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_PARTS = {np.dtype(np.complex64): _F32, np.dtype(np.complex128): _F64}


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


def _injective(extents, strides, budget: int) -> bool | None:
    """Whether the offsets ``sum(i_k * s_k)`` of all multi-indices are
    distinct; None where deciding it would enumerate more than ``budget``.

    A stride 0 on an extent above 1 aliases.  With the modes sorted by
    |stride|, one whose |stride| exceeds the span ``sum(|s_j| * (e_j - 1))``
    of all modes below it shifts their addresses past that span with each
    of its values, so it is injective if they are: such modes are peeled
    off the top, and the modes left, if any, are enumerated."""
    modes = sorted((abs(s), e) for e, s in zip(extents, strides) if e > 1)
    if modes and modes[0][0] == 0:
        return False
    spans = list(itertools.accumulate((s * (e - 1) for s, e in modes), initial=0))
    n = len(modes)
    while n and modes[n - 1][0] > spans[n - 1]:
        n -= 1
    if n == 0:
        return True
    if math.prod(e for _, e in modes[:n]) > budget:
        return None
    offsets = np.zeros(1, np.int64)
    for s, e in modes[:n]:
        offsets = np.add.outer(np.arange(e, dtype=np.int64) * s, offsets).ravel()
    return np.unique(offsets).size == offsets.size


class _Layout(NamedTuple):
    """How one operand's label groups lie in its buffer, and the numpy view
    that shows them (complex elements as float ``(re, im)`` pairs)."""

    grouped: tuple[int, ...]  # the shape in groups, after (2,) if pairs
    shape: tuple[int, ...]  # the view's: (2,) if pairs, then runs slowest first
    strides: tuple[int, ...]  # its byte strides over contiguous elements
    steps: tuple[int, ...]  # the runs' element strides
    dtype: np.dtype  # the view's: the element's, or its part's if pairs
    pairs: bool  # complex elements
    folds: bool  # one axis per group: the view has the shape ``grouped``
    broadcast: bool  # an axis has stride 0


def _layout(dtype: DType, *groups) -> _Layout:
    """The layout of ``(extents, strides)`` groups of ``dtype`` elements:
    a group's labels join a run while each stride is the run's stride
    times its extent; labels of extent 1 have no axis."""
    runs = []  # each group's [extent, stride] runs, fastest first
    for extents, strides in groups:
        group = []
        for e, s in zip(extents, strides):
            if e == 1:
                continue
            if group and s == group[-1][0] * group[-1][1]:
                group[-1][0] *= e
            else:
                group.append([e, s])
        runs.append(group)
    flat = tuple([math.prod(extents) for extents, _ in groups])
    folds = all([len(group) <= 1 for group in runs])
    if folds:
        runs = [[[n, group[0][1] if group else 0]] for n, group in zip(flat, runs)]
    axes = [run for group in runs for run in reversed(group)]
    shape = tuple([e for e, _ in axes])
    steps = tuple([s for _, s in axes])
    element = dtype.np_dtype
    strides = tuple([s * element.itemsize for s in steps])
    broadcast = 0 in [s for e, s in axes if e > 1]
    pairs = dtype.is_complex
    if pairs:
        element = _PARTS[element]
        shape, strides, flat = (2, *shape), (element.itemsize, *strides), (2, *flat)
    return _Layout(flat, shape, strides, steps, element, pairs, folds, broadcast)


def _row_adds(cells: int) -> bool:
    """The shape rule: a block of rows of ``cells`` cells each is wide,
    summed by in-place row adds, rather than by ``np.add.accumulate`` on
    stacked products.

    A row add is one numpy call, about a microsecond, over all cells, where
    accumulate runs one strided inner loop per cell at about 4-5 ns a sum:
    row adds win from about 256 cells a row, whatever the number of rows
    (measured through :func:`contract` for 2 to 64 rows in all dtypes)."""
    return cells >= 256


def _cells(*slices: slice) -> int:
    return math.prod(s.stop - s.start for s in slices)


class _Blocks:
    """The (H, F, G) output cells in blocks of at most ``_CHUNK`` cells:
    flat index ranges cut from the three trip counts, G filled first,
    derived as they are iterated, each as its (H, F, G) slices and whether
    the shape rule calls it wide.  Only a block that is the whole output is
    kept.  ``step`` is the contracted step that keeps a block's products
    within ``_CHUNK``."""

    def __init__(self, k: int, *sizes: int):
        self.sizes, self.box = sizes, list(sizes)
        self.whole = None
        if math.prod(sizes) <= _CHUNK:
            self.whole = ((*(slice(0, n) for n in sizes), _row_adds(math.prod(sizes))),)
        else:
            for i in (2, 1, 0):  # G first
                cap = max(1, _CHUNK // math.prod(self.box[i + 1 :]))
                self.box[i] = min(sizes[i], cap)
        self.step = min(k, max(1, _CHUNK // math.prod(self.box)))

    def __iter__(self):
        if self.whole is not None:
            return iter(self.whole)
        hs, fs, gs = (
            [slice(t, min(t + b, n)) for t in range(0, n, b)]
            for n, b in zip(self.sizes, self.box)
        )
        return (
            (h, f, g, _row_adds(_cells(h, f, g)))
            for h in hs
            for f in fs
            for g in gs
        )


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
    # Each operand's label groups (see the module docstring): A's are
    # (R_a, K, H, F), B's (R_b, K, H, G), C's and D's (H, F, G).
    layout_a: _Layout = field(repr=False, compare=False)
    layout_b: _Layout = field(repr=False, compare=False)
    layout_c: _Layout = field(repr=False, compare=False)
    layout_d: _Layout = field(repr=False, compare=False)
    blocks: _Blocks = field(repr=False, compare=False)

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
    output-only labels, output address injectivity (ERR_ALIASING, or
    ERR_UNSUPPORTED where deciding it would enumerate more than
    ``_ENUMERATION_BUDGET`` addresses; see :func:`_injective`).
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

    if classified.broadcast_out.labels:
        raise TappError(
            ErrorCode.ERR_UNSUPPORTED,
            f"output-only labels {classified.broadcast_out.labels} are not supported",
        )
    injective = _injective(merged_d.extents, merged_d.strides, _ENUMERATION_BUDGET)
    if injective is None:
        raise TappError(
            ErrorCode.ERR_UNSUPPORTED,
            f"deciding D's injectivity takes over {_ENUMERATION_BUDGET} addresses",
        )
    if not injective:
        raise TappError(
            ErrorCode.ERR_ALIASING, "two output element indices map to one address"
        )

    cdt = _resolve_compute_dtype(
        compute_dtype, desc_a.dtype, desc_b.dtype, desc_c.dtype, desc_d.dtype
    )
    cl = classified
    cells = (cl.batch, cl.free_a, cl.free_b)
    layout_d = _layout(desc_d.dtype, *((g.extents, g.strides_d) for g in cells))
    layout_c = layout_d  # C is often D
    if desc_c != desc_d:
        merged_c = merge_repeats(spec.labels_c, desc_c)
        strides_c = [tuple(map(merged_c.stride_of, g.labels)) for g in cells]
        layout_c = _layout(desc_c.dtype, *zip((g.extents for g in cells), strides_c))
    a_groups = (cl.reduced_a, cl.contracted, cl.batch, cl.free_a)
    b_groups = (cl.reduced_b, cl.contracted, cl.batch, cl.free_b)
    return ContractionPlan(
        spec=spec,
        desc_a=desc_a,
        desc_b=desc_b,
        desc_c=desc_c,
        desc_d=desc_d,
        classified=classified,
        compute_dtype=cdt,
        layout_a=_layout(desc_a.dtype, *((g.extents, g.strides_a) for g in a_groups)),
        layout_b=_layout(desc_b.dtype, *((g.extents, g.strides_b) for g in b_groups)),
        layout_c=layout_c,
        layout_d=layout_d,
        blocks=_Blocks(cl.contracted.size, cl.batch.size, cl.free_a.size, cl.free_b.size),
    )


def _same_elements(x: TensorView, y: TensorView) -> bool:
    """Whether ``x`` and ``y`` address the same memory for every element:
    equal layouts from the same first byte, with equal buffer strides."""
    return (
        x.desc == y.desc
        and x.buffer.strides == y.buffer.strides
        and x.base * x.buffer.strides[0] + x.buffer.__array_interface__["data"][0]
        == y.base * y.buffer.strides[0] + y.buffer.__array_interface__["data"][0]
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


def _view(view: TensorView, layout: _Layout) -> np.ndarray:
    """The elements of ``view`` on the axes of ``layout``, as a numpy view
    of its buffer."""
    buffer = view.buffer
    step = buffer.strides[0]
    if step == buffer.itemsize:  # contiguous: this constructor is many times faster
        offset = view.base * step
        return np.ndarray(layout.shape, layout.dtype, buffer, offset, layout.strides)
    origin, strides = buffer[view.base :], [s * step for s in layout.steps]
    if layout.pairs:
        return as_strided(origin.real, layout.shape, [layout.dtype.itemsize, *strides])
    return as_strided(origin, layout.shape, strides)


def _grouped(view: TensorView, layout: _Layout) -> np.ndarray:
    """The elements of ``view`` in ``layout``'s group shape: a view of its
    buffer where the groups fold, else one strided copy."""
    x = _view(view, layout)
    return x if layout.folds else x.reshape(layout.grouped)


def _operand(view: TensorView, layout: _Layout, part: np.dtype, copy: bool):
    """The elements of A or B in ``layout``'s group shape with ``part``
    precision.  Each meets many elements of the other operand, and numpy's
    loops run several times slower over strided elements, so they are made
    C-contiguous unless they are already, or are a stride-0 view (which
    takes no memory); and copied anyway when ``copy``."""
    x = _grouped(view, layout)
    if copy or x.dtype != part or not (layout.broadcast or x.flags.c_contiguous):
        return x.astype(part, order="C")
    return x


def _promoted(x: np.ndarray) -> np.ndarray:
    """Real values as Python promotes a float to complex: ``(x, +0.0)``."""
    parts = np.zeros((2, *x.shape), x.dtype)
    parts[0] = x
    return parts


def _sum_k(x: np.ndarray, acc: np.ndarray | None = None, wide: bool | None = None):
    """``acc + x[0] + x[1] + ...`` (without ``acc``, from ``x[0]``) along
    the fourth axis from the end (K, or R before a reduction), left to
    right: by in-place row adds when ``wide`` (by default, when the shape
    rule calls x's own rows wide), else by accumulate.  ``x`` itself is
    changed only when ``acc`` is given."""
    rows = x.shape[-4]
    if acc is None and rows == 1:
        return x[..., 0, :, :, :]
    if wide is None:
        wide = _row_adds(x.size // rows)
    if wide:
        rows = x if x.ndim == 4 else x.swapaxes(0, 1)  # rows before (re, im)
        if acc is None:
            acc, rows = rows[0] + rows[1], rows[2:]
        for row in rows:
            np.add(acc, row, out=acc)
        return acc
    if acc is not None:
        x[..., 0, :, :, :] += acc
    return np.add.accumulate(x, axis=-4)[..., -1, :, :, :]


def _cmul(
    x: np.ndarray, y, part: np.dtype, out: np.ndarray | None = None
) -> np.ndarray:
    """CPython's complex product ``(xr*yr - xi*yi, xr*yi + xi*yr)`` of
    ``(re, im)`` parts, formed in float64 and rounded to ``part`` once, into
    ``out`` (which may be ``x``); ``y`` may be a pair of Python floats.  In
    float64 ``out`` defaults to the first products' array, so that no third
    temporary is made."""
    x_yr = np.multiply(x, y[0], dtype=_F64)  # (xr*yr, xi*yr); a float is weak
    x_yi = np.multiply(x, y[1], dtype=_F64)  # (xr*yi, xi*yi)
    if out is None:
        out = x_yr if part is _F64 else np.empty(x_yr.shape, part)
    np.subtract(x_yr[0], x_yi[1], out=out[0])
    np.add(x_yi[0], x_yr[1], out=out[1])
    return out


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
    overlap between D and an operand is rejected.  Overlap is decided
    exactly by ``np.shares_memory`` on the operands' views, or by byte
    intervals where that needs more than ``_OVERLAP_WORK``.
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
    layout_a, layout_b, layout_c, layout_d = (
        plan.layout_a, plan.layout_b, plan.layout_c, plan.layout_d
    )
    dv = _view(d, layout_d)
    in_place = False  # C is D's identical view
    for view, layout, name in zip((a, b, c), (layout_a, layout_b, layout_c), "ABC"):
        if not np.may_share_memory(view.buffer, d.buffer):
            continue
        if view is c and (c is d or _same_elements(c, d)):
            in_place = True
            continue
        try:
            overlap = np.shares_memory(_view(view, layout), dv, max_work=_OVERLAP_WORK)
        except np.exceptions.TooHardError:  # raised only where byte intervals overlap
            overlap = True
        if overlap:
            raise TappError(ErrorCode.ERR_ALIASING, f"D overlaps operand {name}")

    read_ab = al != 0
    read_c = be != 0
    cdt = plan.compute_dtype
    part = _F32 if cdt.width == 32 else _F64
    cplx = cdt.is_complex
    with np.errstate(all="ignore"):
        cmul_ab = False
        if read_ab:
            # A and B are read whole before the first store; an operand
            # that is also C, D's identical view (in-place unary), is copied.
            av = _operand(a, layout_a, part, in_place and a is c)
            bv = _operand(b, layout_b, part, in_place and b is c)
            if cplx:
                # A real reduction is complex from its first rounding on,
                # with imaginary part +0.0, and a real operand that meets a
                # complex one is promoted alike.
                reduced = av.shape[-4] > 1 or bv.shape[-4] > 1
                cmul_ab = layout_a.pairs or layout_b.pairs or reduced
                if cmul_ab:
                    av = av if layout_a.pairs else _promoted(av)
                    bv = bv if layout_b.pairs else _promoted(bv)
            av, bv = _sum_k(av), _sum_k(bv)  # (K, H, F) and (K, H, G)
        if read_c:
            call = _grouped(c, layout_c)
        if cplx:
            al, be = (al.real, al.imag), (be.real, be.imag)
        size_k, step, whole = plan.size_contracted, plan.blocks.step, plan.blocks.whole
        out = dv if layout_d.folds else np.empty(layout_d.grouped, layout_d.dtype)
        for hs, fs, gs, wide in plan.blocks:
            v = 0.0
            if read_ab:
                acc = None
                for k in range(0, size_k, step):
                    x = av[..., k : k + step, hs, fs, None]
                    y = bv[..., k : k + step, hs, None, gs]
                    # Real products are summed real, also when rounded to complex.
                    acc = _sum_k(_cmul(x, y, part) if cmul_ab else x * y, acc, wide)
                if not cplx:
                    v = acc * al
                else:
                    acc = acc if cmul_ab else _promoted(acc)
                    v = _cmul(acc, al, part, acc)
            if read_c:
                cv = call if whole else call[..., hs, fs, gs]
                if not cplx:
                    cv = np.multiply(cv, be, dtype=part)
                else:
                    cv = _cmul(cv if layout_c.pairs else _promoted(cv), be, part)
                cv += v  # 0.0 + (re, im) == (0.0 + re, 0.0 + im)
                v = cv
            # One cast on store; a real D drops the imaginary part.
            if cplx and not layout_d.pairs and not isinstance(v, float):
                v = v[0]
            out[..., hs, fs, gs] = v
        if out is not dv:
            dv[...] = out.reshape(dv.shape)

    writes = plan.size_batch * plan.size_free_a * plan.size_free_b
    return StatusRecord(
        seconds_elapsed=time.perf_counter() - t0,
        elements_written=writes,
        multiply_adds=writes * size_k if read_ab else 0,
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
    label_extents(merged_a, merged_b, merge_repeats(labels_out, desc_out))
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
