"""Strided contraction engine.

Executes the ternary update ``D := alpha * A B + beta * C`` over
general strided views.  The binary (``C := alpha*A + beta*B``) and
unary (``B := alpha*A``) operations are planned as the same contraction:
the operand takes B's place, and a one-element r32 unit operand U takes A's
place, with stride zero along every output label the operand lacks.  U
is not an execute argument, and A's slot of :func:`contract` is None.
The binary update takes C's place; unary runs with ``beta = 0``, its
operand also in C's unread slot, where *bind* does not check it again, so
that the one in-place rule, in :func:`_bind`, decides whether it runs in
place or is ERR_ALIASING.  Under the rule for real times complex below,
U's product is exact: ``1 * x == x`` for real x, and ``(1*xr, 1*xi)`` for
complex x.  So U is never read or loaded: such a plan
(``ContractionPlan.unit_a``) skips *sum*, and *finish* scales the loaded
operand itself, broadcast along U's labels.

A validated, immutable plan (see :func:`make_plan`) is built once per
operation shape, in time and memory that grow with the number of modes,
not of elements.  It records how each operand's label groups lie in its
buffer: A's as ``(R_a, K, H, free_a)``, B's as ``(R_b, K, H, free_b)``,
C's and D's as ``(H, F, G)``, where R is the operand's input-only
reduction (no group where it has one element), K the contracted labels
in A's order, H the batch labels, and G, the innermost cells, the free
labels of whichever operand holds D's fastest label (its smallest
|stride| of extent > 1), F the other operand's; the first label of a
group is fastest.  By default F is A's and G is B's; where D's fastest
label is one of A's free labels, A and B trade places for the loop
(``ContractionPlan.swap_ab``), so the output cells are walked, and C
read and D written, in D's memory order, as GETT and TBLIS order their
loops.  That changes no bits: every cell still sums its products over K
in A's label order, each operand's reduction in its own label order, and
a product ``x*y`` of reals, or CPython's complex
``(xr*yr - xi*yi, xr*yi + xi*yr)``, is the same with x and y exchanged,
as IEEE multiplication and addition commute.  A batch label that is D's
fastest (a column-major ``bij,bjk->bik``) keeps the default order:
putting it innermost would shorten the products' inner loops to the
batch extent, which needs its own measurement.  Each operand is viewed
with one axis per label of extent above 1, a group's slowest first, and
an axis of extent 1 for a group with none, so D's and C's views have the
same axes, the output cells.  The plan also holds the trip counts
``(R_a, R_b, K, H, F, G)``, F and G in loop order
(``ContractionPlan.counts``), the cells (``ContractionPlan.cells``), the
block shape cut from them (``ContractionPlan.box``), and whatever else
execution derives from the plan alone: the part dtype, how A and B
load in loop order (only B for a binary or unary plan), and whether one
block of one contracted step covers the whole output.  An execute call
then does only the work its buffers need.

:func:`contract` runs in four stages, each of which can be timed or
replaced alone:

* *bind* (:func:`_bind`) rounds alpha and beta, plain numbers whose one
  rule :func:`_scalar_for` states, checks each of the caller's views
  once (not U) and builds its numpy view in the same step
  (:func:`_bind_view`), checks D's writability and the overlap of D with
  A, B and C; it returns the scalars, the numpy views that execution
  reads, D's, and whether C is D's identical view, the only overlap it
  allows;
* *load* (:func:`_load`) returns A and B in loop order as
  ``(K, *H, *F, 1...)`` and ``(K, *H, 1..., *G)`` arrays, one axis per
  cell axis, summed over their input-only reductions; for a plan whose A
  is U, only B, with K dropped; two c32 operands without one load as
  whole complex128 elements (``ContractionPlan.c128``);
* *sum* (:func:`_sum`), for one block of output cells, returns each
  cell's ordered sum over K, real or as ``(re, im)`` pairs; it is the
  only loop over elements, and an output that fits one block of one
  step runs it without slicing.  A plan whose A is U skips it:
  :func:`_pass` hands on B's loaded block;
* *finish* (:func:`_finish`), for the same block, stores
  ``alpha * sum + beta * C`` into D with one cast.

Execution views each operand in place, as a numpy array over its buffer
with byte strides = element strides x the buffer's byte stride; complex
elements are viewed as float ``(re, im)`` pairs on a first axis, but for
c32 operands that load whole.  Each of A and B takes its loaded shape,
with its R and K one axis each: *bind* views it so where their labels
fold (see :func:`_folded`), else *load* reshapes it by one strided copy.
Each is then copied C-contiguous before the first store unless it is so
already or is a stride-0 view (which takes no memory).  The operand of a
binary or unary op meets only alpha, so it reads each element once: it
stays a view of its buffer unless it is cast, has an input-only
reduction or is D's identical view, which copy it whole.  Where it is
complex and D is stored part by part (see ``_PART_BY_PART``), each block
of it is copied C-contiguous in turn, so that alpha's product comes out
in D's order.  U has no buffer and is never loaded.  A block of complex
values that *finish* multiplies by a complex alpha or beta, such as
C's, or such an operand's below ``_PART_BY_PART`` cells, is copied once
C-contiguous in float64 first, as numpy runs the product's four ufuncs
several times slower over the strided parts of an interleaved buffer
(see :func:`_cmul`).  Input-only reductions are summed in index order.
The output cells are then walked in blocks, a range on each cell axis
with the last filled first: at most 65,536 cells where the compute
dtype is real, whose float64 temporaries take 512 KiB each (see
``_BLOCK_BYTES``), and ``_CHUNK`` (8,192) where it is complex, as
``(re, im)`` pairs.  A block's products ``A[k, h, f] * B[k, h, g]``
(with A and B exchanged when they trade places) are formed a contracted
step of rows at a time, each step within a budget in bytes (see
``_STEP_BYTES``): 256 KiB of float64 products where A and B are real,
all of K for a 32x32x32 matmul, and ``_CHUNK`` products where either is
complex, as ``(re, im)`` pairs whose float64 pair arrays take 128 KiB
each, or as one complex128 array of 128 KiB; a block wider than its
step's budget takes one row a step.  They are summed over k from left
to right, ``((p0 + p1) + p2) + ...``: every cell keeps the summation order of a
scalar loop that runs batch, free-of-A and free-of-B outside and the
contracted labels inside.  Then come ``alpha * acc``, ``+ beta * C``
read through C's view, and one cast on store through a writable view of
D, block by block: besides A and B, a call takes memory for one step's
products and one block's temporaries, at most 512 KiB each, whatever
D's strides.

A block's products ``A[k, f] * B[k, g]`` broadcast A along G and B along
F, so numpy cannot fold them into one inner loop: its buffered iterator
copies the operands into its ufunc buffer (8,192 elements by default) to
run the inner loop past a row.  How large that buffer is for a plan's
call is one rule, stated at ``_ROW_BUFFER``; the plan holds the size
(``ContractionPlan.bufsize``) and :func:`contract` sets it once for the
whole call.  The buffer changes no bits: products and sums are formed
element by element, and *sum* never lets numpy sum pairwise (see
:func:`_sum_k`).  :func:`contract` runs under ``np.errstate`` as a
decorator, which ignores floating-point errors for the call and, as it
leaves, also on an error, gives the calling thread its own error state
and buffer size back.

A sum of rows (K products, or R reduced values, per cell) is one numpy
call (see :func:`_sum_k`): ``np.add`` of two rows; ``np.add.reduce``
from -0.0 over a C-contiguous block of more rows and at least two cells
a row, which numpy runs row by row; else ``np.add.accumulate``, such as
for a long dot product into one cell.  All add the same values in the
same order, so they give the same bits.

Arithmetic happens in the plan's compute dtype, each operation rounded to
it, and the bits are those of the oracle's ordered form,
``oracle.ordered_contract``, which sums each cell in Python numbers (NaN
signs aside):

* Real compute dtypes use native float32 or float64 operations.  A
  float32 sum or product equals the float64 one rounded to float32.
* Complex compute dtypes keep real and imaginary parts in a first axis
  of two.  Two complex values multiply as CPython 3.11 does
  (``re = ar*br - ai*bi``, ``im = ar*bi + ai*br``); numpy's complex
  multiply differs in the last bits.
* A real x times a complex ``(re, im)`` is ``(x*re, x*im)``, never
  ``(x, +0.0)`` times ``(re, im)``: C99 Annex G's rule, which CPython
  3.14 adopted for mixed-mode arithmetic.  It applies to a real alpha or
  beta on complex values, to a real operand that meets a complex one,
  and to U.  So a real alpha or beta takes one multiply per part, and an
  infinity or a zero's sign passes through it unchanged.  Real products,
  their sum and its product with a real alpha stay real.  A real value
  becomes complex only where it is added to a complex one, as
  ``(x, +0.0)``, as Python's ``+`` does, or stored into a complex D,
  with imaginary part ``+0.0``.
* c32 products of two complex values are formed in float64, each part
  rounded to float32 once, and then summed in float32.  Where neither
  operand has an input-only reduction (which sums in float32 first),
  both load as complex128 elements, which is exact, and each product is
  numpy's complex128 multiply, rounded to complex64: a product of two
  float32 values is exact in float64 (Higham, *Accuracy and Stability of
  Numerical Algorithms*, 2.1), so ``xr*yr - xi*yi`` rounds the exact
  value once whether numpy fuses its multiply and add or not, and ±0,
  ±inf and NaN come out as the formula's
  (``test_numpys_complex128_multiply_of_float32_parts_is_the_unfused_formula``).
  c64 products stay four real multiplies and two combines: numpy's
  complex128 multiply of float64 parts may fuse, and so differs in the
  last bits.  A product with a real factor is one float32 multiply per
  part, which rounds as the float64 one rounded once.

Following BLAS convention, ``beta == 0`` means C is never read and
``alpha == 0`` means A and B are never read.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import reduce
from numbers import Number
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    DType,
    TensorDesc,
    TensorView,
    dtype_promote,
    _to_f32,
    round_to,
    validate_view,
)
from .errors import ErrorCode, TappError
from .labels import LabelGroup, LabelSpec, check_labels, classify, label_extents, merge_repeats

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

# The most cells in a block where the compute dtype is complex, which
# *finish* works on at once as (re, im) pairs, and the most products a
# contracted step over pairs forms.  A complex pair array then takes at
# most 128 KiB, at glibc's default mmap threshold.  A step of two complex
# operands forms two float64 pair arrays (see _cmul) of 128 KiB each, or
# in c32 one complex128 array and its complex64 rounding, so steps over
# pairs keep this count: at 16,384 products the c32 and c64
# 32x32x32 matmuls of `steady_large`'s mix took 192 and 132 minor page
# faults a call, and about twice the time.  Blocks keep it too: as one
# 16,384-cell block, a planned c64 128x128 transpose at complex alpha
# took 264 us against 144 us in two (medians of 200 alternated calls).
_CHUNK = 1 << 13

# The most bytes of float64 temporaries a block takes where the compute
# dtype is real: 512 KiB, 65,536 cells (float32 temporaries keep that
# count, 256 KiB).  Each block costs about 12 us of fixed Python and numpy
# set-up, so creating and running a 256x256 r64 outer product, one block,
# takes 219 us, against 338 us in eight blocks of 8,192 cells (medians of
# 300 alternated calls, 2-core x86-64 Linux).  `tools/faults.py` counts
# 0.00 minor page faults a call for that product and for the 256x256 r64
# binary `ij->ji` (1,000 calls each, glibc's default malloc settings).
_BLOCK_BYTES = 1 << 19

# The most bytes of products a contracted step of real operands forms at
# once: 256 KiB, 32,768 float64 products, so that a 32x32x32 matmul sums
# all of K in one step, not in four of 8 rows (a planned r64 call takes
# 69 us against 91 us, r32 43 us against 65 us, best of 90 timeit runs).
# float32 products keep that count, 128 KiB.  Measured with getrusage
# around each call, over 200 rounds of the 13 `steady_large` ops after 5
# warm-up rounds (Python 3.11, numpy 2.4, glibc's default malloc
# settings, 2-core x86-64 Linux): no op averages 0.05 minor page faults
# a call.
_STEP_BYTES = 1 << 18

# The fewest cells in a block for which *finish* stores a complex D's
# real and imaginary parts one after the other.  numpy stores a
# C-contiguous (re, im) block into D's interleaved view two elements at a
# time; two stores, one per part, take 15 us against 106 us for a 128x128
# c64 block, but at 4 cells 1.3 us against 0.4 us.  The complex operand
# of a binary or unary op is then copied C-contiguous a block, at most
# 128 KiB, at a time (see _pass), not whole: a 128x128 c64 one is 256 KiB.
_PART_BY_PART = 256

# numpy's ufunc buffer, in elements, for a call.  The rule: where a
# plan's blocks are outer products (F and G of more than one cell each, A
# not U),
# * rows (a block's last axis) of at least ``_ROW_BUFFER`` cells
#   (``ContractionPlan.long_rows``) get ``_ROW_BUFFER`` elements, so that
#   numpy runs each row without copying;
# * shorter rows get ``_SHORT_ROW_BUFFER`` elements where a contracted
#   step's products hold at least ``_SHORT_ROW_STEP`` float parts (16,384
#   real products, or 8,192 complex ones), so that numpy's copies of them
#   stay small;
# every other plan (tiny steps, batch-only, binary and unary plans) keeps
# numpy's own and sets nothing, as a switch costs 1-3 us.  Medians of
# 500 round-robin calls of each op, the plan's buffer against numpy's own
# in alternating order (numpy 2.4, Python 3.11, 2-core x86-64 Linux), in
# two runs: long rows, r64 256x256 `i,j->ij` 217 -> 155 and 194 -> 141
# us, c64 at complex alpha and beta 1,111 -> 892 and 1,012 -> 788 us, r64
# `ij,jk->ik` with i=128, j=16, k=256 861 -> 527 and 801 -> 477 us; short
# rows, the 32x32x32 matmuls in r64 87 -> 81 and 78 -> 70 us, c32 (one
# complex128 multiply a step) 163 -> 152 and 187 -> 181 us, c64 325 ->
# 299 and 295 -> 264 us, but r32 77 -> 83 and 65 -> 69 us.  Below the
# step rule the short-row buffer lost: `steady_large`'s `ijr,jk->ik`,
# 4,096 products a step, took 4% longer, and matmuls of 8,192 to 13,824
# real products a step 2-3% longer in r64 and 9-12% in r32 (interleaved
# planned executes).  Re-check with
# ``python tools/faults.py``, whose ``numpy_us`` column times each op
# with numpy's own buffer.
_ROW_BUFFER = 128
_SHORT_ROW_BUFFER = 1 << 10
_SHORT_ROW_STEP = 1 << 14

# The most output addresses enumerated where the sorted-stride test cannot
# decide injectivity (8 MB of int64); a larger layout is ERR_UNSUPPORTED.
_ENUMERATION_BUDGET = 1 << 20

# np.shares_memory's work bound; a harder overlap question is answered by
# the byte intervals, which reject views that interleave.
_OVERLAP_WORK = 1 << 12

_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_C64, _C128 = np.dtype(np.complex64), np.dtype(np.complex128)
_A, _B, _D = (LabelGroup._fields.index(f) for f in ("strides_a", "strides_b", "strides_d"))
_ALL = slice(None)
_PARTS = {_C64: _F32, _C128: _F64}
# The start of a reduce over complex values: numpy's -0.0 would become
# (-0.0, +0.0), and turn an imaginary sum of -0.0 terms into +0.0.
_COMPLEX_START = complex(-0.0, -0.0)


@dataclass
class StatusRecord:
    """Execution metadata.

    ``multiply_adds`` counts products of (possibly pre-reduced) input
    values accumulated into outputs; it is exact for the loops actually
    executed, i.e. zero when ``alpha == 0``.  A binary or unary op counts
    one per written element, the product with the unit operand, though
    that product is exact and no longer formed.  ``detail`` is the reason
    a failed call gives for its ``error``, empty on success.
    """

    seconds_elapsed: float = 0.0
    elements_written: int = 0
    multiply_adds: int = 0
    error: ErrorCode = ErrorCode.OK
    executor: object | None = None
    detail: str = ""


def _injective(extents, strides, budget: int) -> bool | None:
    """Whether the offsets ``sum(i_k * s_k)`` of all multi-indices are
    distinct; None where deciding it would enumerate more than ``budget``.

    A stride 0 on an extent above 1 aliases.  With the modes sorted by
    |stride|, one whose |stride| exceeds the span ``sum(|s_j| * (e_j - 1))``
    of all modes below it shifts their addresses past that span with each
    of its values, so it is injective if they are: such modes are peeled
    off the top, and the modes left, if any, are enumerated."""
    modes = []
    for e, s in zip(extents, strides):
        if e > 1:
            modes.append((abs(s), e))
    modes.sort()
    if modes and modes[0][0] == 0:
        return False
    # n: one past the last mode whose |stride| does not exceed the span below it.
    n = span = 0
    for k, (s, e) in enumerate(modes):
        if s <= span:
            n = k + 1
        span += s * (e - 1)
    if n == 0:
        return True
    if math.prod(e for _, e in modes[:n]) > budget:
        return None
    offsets = np.zeros(1, np.int64)
    for s, e in modes[:n]:
        offsets = np.add.outer(np.arange(e, dtype=np.int64) * s, offsets).ravel()
    return np.unique(offsets).size == offsets.size


class _Layout(NamedTuple):
    """How one operand's labels lie in its buffer, and the numpy view that
    shows them: one axis per label of extent above 1, each group's
    slowest first, and an axis of extent 1 for a group with none (complex
    elements as float ``(re, im)`` pairs on a first axis).  Labels of
    extent 1 take no axis, as numpy allows at most 64.  A label axis's
    byte stride is a whole number of elements."""

    shape: tuple[int, ...]  # the view's: (2,) if pairs, then the label axes
    strides: tuple[int, ...]  # its byte strides over contiguous elements
    dtype: np.dtype  # the view's: the element's, or its part's if pairs
    pairs: bool  # complex elements
    broadcast: bool  # an axis has stride 0


def _layout(dtype: DType, which: int, *groups: LabelGroup) -> _Layout:
    """The layout of ``dtype`` elements over the labels of ``groups``, at
    each group's stride field ``which``: ``_A``, ``_B`` or ``_D``."""
    element = dtype.np_dtype
    size = element.itemsize
    shape, strides, broadcast = [], [], False
    for group in groups:
        n = len(shape)
        for e, s in zip(group.extents, group[which]):
            if e > 1:  # before the group's faster labels
                shape.insert(n, e)
                strides.insert(n, s * size)
                broadcast = broadcast or s == 0
        if len(shape) == n:
            shape.append(1)
            strides.append(0)
    if dtype.is_complex:
        element = _PARTS[element]
        return _Layout((2, *shape), (element.itemsize, *strides), element, True, broadcast)
    return _Layout(tuple(shape), tuple(strides), element, False, broadcast)


def _box(k: int, cells: tuple[int, ...], pairs: bool, real: bool) -> tuple[int, ...]:
    """The block shape ``(step, *box)`` for trip count K over the output
    ``cells``: all cells where they fit one block, else a box filled from
    the last axis, of at most ``_BLOCK_BYTES`` of float64 cells where the
    compute dtype is ``real``, else of ``_CHUNK`` cells, as a block's
    values may then be (re, im) pairs; ``step`` is the contracted step
    that keeps a block's products within the step's budget, ``_CHUNK``
    where they are (re, im) ``pairs``, else ``_STEP_BYTES`` of float64,
    but at least one row."""
    most = _BLOCK_BYTES // _F64.itemsize if real else _CHUNK
    box = list(cells)
    if math.prod(cells) > most:
        for i in reversed(range(len(cells))):
            box[i] = min(cells[i], max(1, most // math.prod(box[i + 1 :])))
    products = _CHUNK if pairs else _STEP_BYTES // _F64.itemsize
    return (max(1, min(k, products // math.prod(box))), *box)


def _blocks(cells: tuple[int, ...], box: tuple[int, ...]):
    """The output ``cells`` in blocks of ``box``, each as one slice per
    axis, the whole axis where the box spans it."""
    return itertools.product(*[
        [slice(t, min(t + b, n)) for t in range(0, n, b)] if b < n else [_ALL]
        for n, b in zip(cells, box[1:])
    ])


def _folded(layout: _Layout, shape: tuple[int, ...]) -> _Layout:
    """``layout`` with the axes of ``shape``, where numpy reshapes its view
    into ``shape`` without a copy; else ``layout`` itself.  ``shape``
    merges runs of ``layout``'s axes, with axes of 1 anywhere.  A run
    merges without a copy where each of its strides is the next one's
    times that one's extent, and the merged axis takes the run's last
    stride (numpy's rule in C order); axes of 1 take stride 0."""
    axes = zip(layout.shape, layout.strides)
    strides = []
    for n in shape:
        size, stride = 1, 0
        while size < n:
            extent, inner = next(axes)
            if extent == 1:
                continue
            if size > 1 and stride != inner * extent:
                return layout
            size, stride = size * extent, inner
        if size != n:
            return layout
        strides.append(stride)
    return _Layout(shape, tuple(strides), layout.dtype, layout.pairs, layout.broadcast)


class _Load(NamedTuple):
    """How *load* reads one of A and B in loop order: from which slot, on
    which layout, in which dtype, what it does to the view, and which cell
    axes a block leaves whole."""

    slot: int  # 0 for A, 1 for B
    layout: _Layout  # bind's view: in ``shape`` where the labels fold (see _folded)
    shape: tuple[int, ...]  # (2,) if pairs, (R,) if reduced, (K,) unless A is U, cells
    dtype: np.dtype  # the loaded elements' (parts') dtype
    cast: bool  # the view's dtype is not ``dtype``
    reduced: bool  # the first group is an input-only reduction, summed away
    dense: bool  # copied C-contiguous unless it is already, or is a stride-0 view
    # The cell axes i:j, which have extent 1 here as they are the other
    # operand's: F's for G's operand, G's for F's.
    cut: tuple[int, int]


@dataclass(frozen=True)
class ContractionPlan:
    """Immutable preprocessed form of one ternary contraction.  It keeps
    the frozen dataclass's own __init__: an instance whose __dict__ is
    written whole (``vars(plan).update``) is built faster, but each of
    the reads every execute makes of it is slower (Python 3.11)."""

    spec: LabelSpec
    desc_a: TensorDesc
    desc_b: TensorDesc
    desc_c: TensorDesc
    desc_d: TensorDesc
    compute_dtype: DType
    # Each operand's view, one axis per label (see :class:`_Layout`), in
    # groups: A's (R_a, K, H, free_a), B's (R_b, K, H, free_b), C's and
    # D's (H, F, G).
    layout_a: _Layout = field(repr=False, compare=False)
    layout_b: _Layout = field(repr=False, compare=False)
    layout_c: _Layout = field(repr=False, compare=False)
    layout_d: _Layout = field(repr=False, compare=False)
    # Whether A and B trade places in the loop: False runs F = free_a
    # outside and G = free_b inside; True, where D's fastest label is one
    # of A's free labels, runs F = free_b and G = free_a.
    swap_ab: bool = field(compare=False)
    # The trip counts (R_a, R_b, K, H, F, G), F and G in loop order; the
    # output cells, D's label axes (H, F, G); and the block shape (step,
    # *box) over the cells (see :func:`_box`).
    counts: tuple[int, ...] = field(compare=False)
    cells: tuple[int, ...] = field(repr=False, compare=False)
    box: tuple[int, ...] = field(repr=False, compare=False)
    # What execution derives from the plan alone: the compute dtype's part
    # dtype, whether the sums are ``(re, im)`` pairs (an operand is
    # complex), whether the products are full complex products (both
    # are), whether those are c32 products of whole complex128 elements
    # (see :func:`_sum`), how A and B load in loop order (F's operand,
    # then G's; None for U), and whether the box is the whole output in
    # one contracted step; and whether D is complex with at least
    # ``_PART_BY_PART`` cells a block, which *finish* stores part by part
    # (and for which _pass copies a complex operand a block at a time).
    part: np.dtype = field(repr=False, compare=False)
    pairs: bool = field(repr=False, compare=False)
    cmul: bool = field(repr=False, compare=False)
    c128: bool = field(repr=False, compare=False)
    loads: tuple[_Load | None, _Load | None] = field(repr=False, compare=False)
    whole: bool = field(repr=False, compare=False)
    parted: bool = field(repr=False, compare=False)
    # The ufunc buffer, in elements, that contract sets for the call, or 0
    # for numpy's own (see ``_ROW_BUFFER``).
    bufsize: int = field(repr=False, compare=False)
    # Whether A is the unit operand U (a binary or unary plan): U is never
    # read, and execution skips *sum*.
    unit_a: bool = False

    @property
    def long_rows(self) -> bool:
        """Whether the blocks are outer products with long rows: both F
        and G have more than one cell, A is not U, and a block's rows, its
        last axis, have at least ``_ROW_BUFFER`` cells."""
        return self.bufsize == _ROW_BUFFER


# The unit operand of a binary or unary plan whose A lacks no output label.
_UNIT = TensorDesc((), (), DType.R32)


def _resolve_compute_dtype(requested: DType | None, *operands: DType) -> DType:
    promoted = reduce(dtype_promote, operands)
    if requested is None:
        return promoted
    if not isinstance(requested, DType):
        raise TappError(ErrorCode.ERR_DTYPE_MISMATCH, "compute dtype is not a DType")
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
    *,
    unit_a: bool = False,
) -> ContractionPlan:
    """Validate and preprocess one contraction; raises TappError.

    Checks run in a fixed order: label counts, per-tensor repeated-label
    merging, cross-tensor extent consistency, C-matches-D, rejection of
    output-only labels, output address injectivity (ERR_ALIASING, or
    ERR_UNSUPPORTED where deciding it would enumerate more than
    ``_ENUMERATION_BUDGET`` addresses; see :func:`_injective`).
    ``unit_a`` marks A as the unit operand U of a binary or unary plan,
    which is never loaded: B loads without its K axis (U contracts no
    label, so K is 1), and execution skips *sum*.
    """
    merged_a = merge_repeats(spec.labels_a, desc_a)
    merged_b = merge_repeats(spec.labels_b, desc_b)
    merged_d = merge_repeats(spec.labels_d, desc_d)
    cl = classify(merged_a, merged_b, merged_d)

    if spec.labels_c != spec.labels_d or desc_c.extents != desc_d.extents:
        raise TappError(
            ErrorCode.ERR_OUTPUT_MISMATCH,
            "C must carry D's labels, in order, with equal extents",
        )

    if cl.broadcast_out.labels:
        raise TappError(
            ErrorCode.ERR_UNSUPPORTED,
            f"output-only labels {cl.broadcast_out.labels} are not supported",
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
    # D's fastest label: the smallest |stride| of extent > 1 (no two are
    # equal, as D is injective).
    moving = [(abs(s), l) for l, e, s in zip(*merged_d) if e > 1]
    swap_ab = bool(moving) and min(moving)[1] in cl.free_a.labels
    batch, free_a, free_b = cl.batch, cl.free_a, cl.free_b
    outer, inner = (free_b, free_a) if swap_ab else (free_a, free_b)
    layout_d = layout_c = _layout(desc_d.dtype, _D, batch, outer, inner)  # C is often D
    if desc_c is not desc_d and desc_c != desc_d:
        stride_c = merge_repeats(spec.labels_c, desc_c).stride_of
        layout_c = _layout(desc_c.dtype, _D, *[
            g._replace(strides_d=tuple(map(stride_c, g.labels))) for g in (batch, outer, inner)
        ])
    prod = math.prod
    ra, rb, k = prod(cl.reduced_a.extents), prod(cl.reduced_b.extents), prod(cl.contracted.extents)
    counts = ra, rb, k, prod(batch.extents), prod(outer.extents), prod(inner.extents)
    # An operand's input-only reduction is a group of its own only where
    # it has more than one element.
    layout_a = _layout(desc_a.dtype, _A, *(cl.reduced_a,) * (ra > 1), cl.contracted, batch, free_a)
    layout_b = _layout(desc_b.dtype, _B, *(cl.reduced_b,) * (rb > 1), cl.contracted, batch, free_b)
    part = _F32 if cdt.width == 32 else _F64
    # The sums are (re, im) pairs where an operand is complex; a real one
    # stays real, and multiplies each part of a complex one (see _cmul).
    # Products of two complex operands are formed in float64: two c32
    # operands load as whole complex128 elements, which is exact, unless
    # a reduction sums in float32 first (widening after it adds a numpy
    # call, measured slower on tiny ops); see _sum.
    pairs = layout_a.pairs or layout_b.pairs
    cmul = layout_a.pairs and layout_b.pairs
    c128 = cmul and ra == rb == 1 and part is _F32
    dtype = _C128 if c128 else part
    # Loaded, F's operand spans the cells' H and F axes and G's their H
    # and G axes, each with extent 1 on the other's: H and F take one
    # cell axis for each label above 1, or one for none.
    cells = layout_d.shape[layout_d.pairs :]
    h = max(1, len(batch.extents) - batch.extents.count(1))
    f = h + max(1, len(outer.extents) - outer.extents.count(1))
    box = _box(k, cells, pairs, not cdt.is_complex)

    def load(slot: int, layout: _Layout, i: int, j: int) -> _Load:
        reduced = counts[slot] > 1
        if c128:  # the complex64 elements, without the pairs axis
            layout = _Layout(layout.shape[1:], layout.strides[1:], _C64, False, layout.broadcast)
        shape = (2,) * layout.pairs + (counts[slot],) * reduced + (k,) * (not unit_a)
        shape += cells[:i] + (1,) * (j - i) + cells[j:]
        # B of a plan whose A is U meets only alpha, so it reads each
        # element once and stays strided unless it is reduced (see _pass).
        dense = not unit_a or reduced
        cast = layout.dtype != dtype
        return _Load(slot, _folded(layout, shape), shape, dtype, cast, reduced, dense, (i, j))

    # The blocks are outer products where both F and G have more than one
    # cell and A is not U; see ``_ROW_BUFFER`` for their buffer.
    outer_products = not unit_a and counts[4] > 1 and counts[5] > 1
    if outer_products and box[-1] >= _ROW_BUFFER:
        bufsize = _ROW_BUFFER
    elif outer_products and math.prod(box) * (1 + pairs) >= _SHORT_ROW_STEP:
        bufsize = _SHORT_ROW_BUFFER
    else:
        bufsize = 0
    # F's operand, then G's: A's then B's, or B's then A's where they trade places.
    cuts = (f, len(cells)), (h, f)
    loads = (None if unit_a else load(0, layout_a, *cuts[swap_ab]),
             load(1, layout_b, *cuts[not swap_ab]))
    if swap_ab:
        loads = loads[::-1]
    return ContractionPlan(
        spec, desc_a, desc_b, desc_c, desc_d, cdt, layout_a, layout_b, layout_c, layout_d,
        swap_ab, counts, cells, box, part, pairs, cmul, c128, loads,
        box == (k, *cells),  # whole
        layout_d.pairs and math.prod(box[1:]) >= _PART_BY_PART,  # parted
        bufsize,
        unit_a,
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


def _scalar_for(value, compute_dtype: DType, name: str) -> float | complex:
    """``value``, alpha or beta, rounded to the compute dtype.  This is the
    library's one scalar rule:

    * a ``numbers.Number`` is a scalar: a Python int, float, complex or
      bool, or a numpy integer, floating or complex scalar;
    * a complex number whose imaginary part is zero is real;
    * a nonzero imaginary part where all operands are real is
      ERR_DTYPE_MISMATCH;
    * anything else is ERR_DTYPE_MISMATCH: ``"1.5"``, None, ``[1.0]``, a
      0-d array (and numpy's bool, which is not a ``numbers.Number``).

    A real value is a float, also for a complex compute dtype, so that it
    multiplies each part of a complex value alone (see :func:`_cmul`); a
    complex one is the pair ``(re, im)`` of its rounded parts, which is
    how *finish* reads it (it is nonzero, as its imaginary part is)."""
    if type(value) is float:
        return value if compute_dtype.width == 64 else _to_f32(value)
    # complex first: a Python complex skips the ABC's Python-level check.
    if not isinstance(value, (complex, Number)):
        raise TappError(ErrorCode.ERR_DTYPE_MISMATCH, f"{name} is not a number")
    try:
        value = complex(value)
    except (TypeError, ValueError, OverflowError):  # such as an int beyond float's range
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH, f"{name} does not convert to a complex number"
        ) from None
    if value.imag == 0.0:
        value = value.real
        return value if compute_dtype.width == 64 else _to_f32(value)
    if not compute_dtype.is_complex:
        raise TappError(
            ErrorCode.ERR_DTYPE_MISMATCH,
            f"{name} has a nonzero imaginary part but all operands are real",
        )
    value = round_to(value, compute_dtype)
    return value.real, value.imag


def _bind_view(
    view: TensorView, desc: TensorDesc, layout: _Layout | None, name: str, checked: bool = False
) -> np.ndarray | None:
    """Check ``view`` against the plan's ``desc``: its buffer's dtype, its
    layout and its reach into the buffer (:func:`validate_view`), each an
    error that names the operand ``name``.  Returns its elements on the
    axes of ``layout`` as a numpy view of its buffer, or None where
    ``layout`` is None, as for an operand that execution does not read.
    A view that this call has ``checked`` already, as the overlap probe's,
    is not checked again."""
    buffer = view.buffer
    if not checked:
        own = view.desc is desc  # as the API binds buffers to a plan's descriptors
        if buffer.dtype != desc.dtype.np_dtype or (
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
        if code:  # OK is zero
            raise TappError(code, f"{name}: view escapes its buffer")
    if layout is None:
        return None
    step = buffer.strides[0]
    if step == buffer.itemsize:  # contiguous: this constructor is many times faster
        offset = view.base * step
        return np.ndarray(layout.shape, layout.dtype, buffer, offset, layout.strides)
    # Each label axis's byte stride is a whole number of elements.
    strides = [s // buffer.itemsize * step for s in layout.strides[layout.pairs :]]
    origin = buffer[view.base :]
    if layout.pairs:
        return as_strided(origin.real, layout.shape, [layout.dtype.itemsize, *strides])
    return as_strided(origin, layout.shape, strides)


def _operand(x: np.ndarray, load: _Load, copy: bool) -> np.ndarray:
    """A or B, viewed as ``x``, in ``load``'s dtype and shape, summed over
    its input-only reduction: ``(K, *H, *F, 1...)`` or ``(K, *H, 1...,
    *G)``, without K where A is U.  *bind* views it in that shape where
    the labels of R and of K fold into one axis each; else it is reshaped
    here, by one strided copy.  A ``load.dense`` operand, one that meets
    many elements of the other, is made C-contiguous, as numpy's loops run
    several times slower over strided elements, unless it is already, or
    is a stride-0 view (which takes no memory).  Any operand is copied
    when ``copy`` or cast."""
    if x.shape != load.shape:
        x = x.reshape(load.shape)
    if copy or load.cast or load.dense and not (load.layout.broadcast or x.flags.c_contiguous):
        x = x.astype(load.dtype, order="C")
    if load.reduced:
        x = _sum_k(x, int(load.layout.pairs))
    return x


def _promoted(x: np.ndarray) -> np.ndarray:
    """Real values as Python promotes a float to complex: ``(x, +0.0)``."""
    parts = np.zeros((2, *x.shape), x.dtype)
    parts[0] = x
    return parts


def _sum_k(x: np.ndarray, axis: int, acc: np.ndarray | None = None, start=-0.0):
    """``acc + x[0] + x[1] + ...`` (without ``acc``, from ``x[0]``) along
    ``axis`` (K, or R before a reduction: 0, or 1 after a pairs axis),
    left to right, of real values or of whole complex ones (c32 products,
    see :func:`_sum`), whose parts add alone.  ``x`` itself is changed
    only when ``acc`` is given.

    One numpy call sums all rows.  Two rows are one ``np.add``, a pass
    fewer than the reduce, which first fills its output with its start.
    ``np.add.reduce`` runs the summed axis outside, in index order, on a
    C-contiguous ``x`` with at least two cells a row; on one cell, or on
    other strides, it may make the summed axis the inner loop and sum it
    pairwise, so those go through ``np.add.accumulate``, which always sums
    in index order.  The reduce starts from -0.0, the identity of IEEE
    addition: numpy's own start, +0.0, would turn a sum of -0.0 terms into
    +0.0.  Over complex values the caller passes the ``start``
    ``_COMPLEX_START``, ``(-0.0, -0.0)``."""
    lead = (_ALL,) * axis
    if acc is not None:
        x[(*lead, 0)] += acc
    if x.shape[axis] == 1:
        return x[(*lead, 0)]
    if x.shape[axis] == 2:
        return np.add(x[(*lead, 0)], x[(*lead, 1)])
    if math.prod(x.shape[axis + 1 :]) > 1 and x.flags.c_contiguous:
        return np.add.reduce(x, axis, None, None, False, start)
    return np.add.accumulate(x, axis)[(*lead, -1)]


def _cmul(x: np.ndarray, y, part: np.dtype, pairs: bool = True) -> np.ndarray:
    """``x * y`` in ``part``, where ``y`` is complex: ``(re, im)`` pairs on
    a first axis, or a pair of Python floats (a complex scalar), and ``x``
    holds pairs too where ``pairs``, else real values.

    A real x multiplies each part, ``(x*yr, x*yi)`` (C99 Annex G), one
    rounding each; so does a real y, which needs no call here:
    ``(xr*y, xi*y)`` is ``x * y``.  Two complex factors give CPython's
    complex product ``(xr*yr - xi*yi, xr*yi + xi*yr)``, formed in float64
    and rounded to ``part`` once.  Float32 parts are widened first and the
    parts are combined in the first products' array, as a ufunc that
    casts its inputs or into its output takes about twice as long.  Here
    float32 parts are c32 sums that *finish* scales, or operands that a
    reduction summed in float32; *sum* forms other c32 products of two
    complex operands as whole complex128 elements (see :func:`_sum`).

    Where ``y`` is a complex scalar, an ``x`` in float32 or not
    C-contiguous, such as a block of C's interleaved view, is copied once
    C-contiguous in float64 before the four ufuncs: over a strided view,
    numpy runs each of them through its buffered iterator, and the one copy
    took the product of a c64 2x2 block of an interleaved view from 10.9 to
    3.3 us and of a c32 32x256 block from 48.0 to 31.6 us (timeit, best of
    7).  Pairs of arrays, *sum*'s products, keep their layout, so that a
    stride-0 operand stays a view."""
    if not pairs:  # a real x times a complex scalar
        xy = np.empty((2, *x.shape), part)
        np.multiply(x, y[0], xy[0], dtype=part)
        np.multiply(x, y[1], xy[1], dtype=part)
        return xy
    if type(y) is tuple:
        if x.dtype != _F64 or not x.flags.c_contiguous:
            x = x.astype(_F64, order="C")
    else:
        if x.dtype != _F64:
            x = x.astype(_F64)
        if y.dtype != _F64:
            y = y.astype(_F64)
    x_yr, x_yi = x * y[0], x * y[1]  # (xr*yr, xi*yr), (xr*yi, xi*yi)
    re, im = x_yr[0], x_yr[1]
    np.subtract(re, x_yi[1], re)
    np.add(x_yi[0], im, im)
    return x_yr if part is _F64 else x_yr.astype(part)


def _bind(plan: ContractionPlan, alpha, a, b, beta, c, d, names: str):
    """The *bind* stage: alpha and beta rounded to the compute dtype, the
    view checks, the read-only check on D and the overlap check.  Returns
    ``al, be``, the numpy views of A and B on their loads' layouts and
    C's on its layout's axes (None where execution does not read the
    operand), D's view, and whether C is D's identical view (an in-place
    update).  Where A is the unit operand U (a binary or unary plan), A's
    slot is not the caller's: it is neither checked nor probed for
    overlap.  Nor is C, where it is B's object and beta is 0, as
    :func:`run_unary` passes it: C is then not read, and B's check of
    that object has run.  An error names the operand in each slot by that
    slot's character in ``names``, as the caller knows it.

    C may cover D's elements exactly, and so may the operand of a plan
    whose A is U where it is C's object too.  Any other overlap between D
    and an operand is ERR_ALIASING, also where the operand is C's object
    in another slot.  This is the one in-place rule of every operation.
    An operand whose buffer is another array than D's, where both own
    their data, is a separate allocation, so it overlaps nothing of D's
    and is not probed.  Any other pair is probed with
    ``np.may_share_memory``; where that finds one allocation, the overlap
    is decided exactly by ``np.shares_memory`` on the two views with one
    axis per label, or by byte intervals where that needs more than
    ``_OVERLAP_WORK``."""
    al = _scalar_for(alpha, plan.compute_dtype, "alpha")
    be = _scalar_for(beta, plan.compute_dtype, "beta")
    unit, ab, read_c = plan.unit_a, al != 0, be != 0
    skip_c = unit and c is b and not read_c
    layout_c = plan.layout_c if read_c else None
    f, g = plan.loads  # in loop order
    load_a, load_b = (g, f) if plan.swap_ab else (f, g)
    views = [
        None if unit else _bind_view(a, plan.desc_a, load_a.layout if ab else None, names[0]),
        _bind_view(b, plan.desc_b, load_b.layout if ab else None, names[1]),
        None if skip_c else _bind_view(c, plan.desc_c, layout_c, names[2]),
    ]
    dv = _bind_view(d, plan.desc_d, plan.layout_d, names[3])
    out = d.buffer
    if not out.flags.writeable:
        raise TappError(ErrorCode.ERR_OUT_OF_BOUNDS, f"{names[3]}: buffer is read-only")
    owned = out.flags.owndata
    in_place = False
    for k, view in enumerate((a, b, c)[unit : 3 - skip_c], unit):
        buffer = view.buffer
        if buffer is not out and owned and buffer.flags.owndata:  # separate allocations
            continue
        if not np.may_share_memory(buffer, out):
            continue
        if view is c and (k == 2 or unit) and (c is d or _same_elements(c, d)):
            in_place = True
            continue
        # On one axis per label, not A's or B's folded view, so that the
        # work shares_memory takes, and so its answer, stays as it was.
        layout = (plan.layout_a, plan.layout_b, plan.layout_c)[k]
        probe = _bind_view(view, view.desc, layout, "", checked=True)
        try:
            overlap = np.shares_memory(probe, dv, max_work=_OVERLAP_WORK)
        except np.exceptions.TooHardError:  # raised only where byte intervals overlap
            overlap = True
        if overlap:
            raise TappError(ErrorCode.ERR_ALIASING, f"{names[3]} overlaps operand {names[k]}")
    return al, be, views, dv, in_place


def _load(plan: ContractionPlan, views, copy: bool):
    """The *load* stage: A and B in loop order (traded where
    ``plan.swap_ab``), read whole and summed over their input-only
    reductions, as ``(K, *H, *F, 1...)`` and ``(K, *H, 1..., *G)``
    arrays, each ``(re, im)`` pairs where it is complex.  ``views`` holds
    A's and B's numpy views.  Where A is the unit operand U, U is not
    loaded: only B is, without K, and copied where ``copy`` (B is also C,
    D's identical view, as in an in-place unary), as later blocks read it
    after the first store."""
    f, g = plan.loads
    if plan.unit_a:
        return _operand(views[1], f or g, copy)
    return _operand(views[f.slot], f, False), _operand(views[g.slot], g, False)


def _cut(load: _Load, block) -> tuple:
    """The index of one ``block`` into the operand that ``load`` loads: it
    has extent 1 on the other operand's cell axes, ``load.cut``, so it is
    not cut along those."""
    i, j = load.cut
    return (*block[:i], *(_ALL,) * (j - i), *block[j:])


def _sum(plan: ContractionPlan, loaded, block):
    """The *sum* stage over one block: each cell's products
    ``A[k, h, f] * B[k, h, g]`` summed over k from left to right, in steps
    of ``plan.box[0]`` rows, from A and B as *load* returns them.  A
    ``block`` of None is the whole output in one step, which needs no
    slicing.  Returns the sums, real, or as ``(re, im)`` pairs where an
    operand is complex (``plan.pairs``).

    Where ``plan.c128``, A and B are complex128 elements with float32
    parts, and each step is numpy's complex multiply rounded to complex64,
    which is the contract's product (see the module docstring); the
    complex64 sums are handed on as a float32 ``(re, im)`` view."""
    av, bv = loaded
    if block is None:
        steps = ((av, bv),)
    else:
        step, k = plan.box[0], plan.counts[2]
        f, g = plan.loads
        a, b = _cut(f, block), _cut(g, block)
        ks = [slice(t, t + step) for t in range(0, k, step)] if step < k else [_ALL]
        steps = ((av[(..., s, *a)], bv[(..., s, *b)]) for s in ks)
    acc = None
    if plan.c128:
        for x, y in steps:
            acc = _sum_k((x * y).astype(_C64), 0, acc, _COMPLEX_START)
        # The sums' float32 (re, im) view, a first axis of two, as *finish*
        # reads them: 1.2 us a block, where a C-contiguous copy
        # (np.moveaxis and np.ascontiguousarray) takes about 5 us.
        n = acc.ndim
        return acc.view(_F32).reshape(*acc.shape, 2).transpose(n, *range(n))
    part, cmul, axis = plan.part, plan.cmul, int(plan.pairs)
    for x, y in steps:
        # A real operand broadcasts over the pairs axis of a complex one.
        acc = _sum_k(_cmul(x, y, part) if cmul else x * y, axis, acc)
    return acc


def _pass(plan: ContractionPlan, loaded, block):
    """What replaces *sum* where A is the unit operand U, whose product is
    exact: B's loaded block (``loaded``: B, without K), broadcast along
    U's labels by *finish*.  A complex B whose D is stored part by part
    (``plan.parted``) is copied C-contiguous one block at a time, unless
    *load* copied it whole, so that alpha's product comes out in D's
    order."""
    f, g = plan.loads
    x = loaded if block is None else loaded[(..., *_cut(f or g, block))]
    if plan.parted and plan.pairs and not loaded.flags.c_contiguous:
        x = np.ascontiguousarray(x)
    return x


def _finish(plan: ContractionPlan, dv, block, acc, cg, al, be):
    """The *finish* stage over one block (None: the whole output):
    ``alpha * acc + beta * C``, where ``acc`` is None if alpha is 0 and
    C's view ``cg`` is None if beta is 0, stored through D's view ``dv``
    with one cast.  A scalar is a float, or a pair of floats where it is
    complex; each product follows :func:`_cmul`.  A real value is added to
    a complex one, or stored into a complex D, as ``(x, +0.0)``; a real D
    drops the imaginary part.  A C-contiguous ``(re, im)`` block, as beta
    0 gives, goes into a ``plan.parted`` D one part at a time."""
    cells = ... if block is None else (..., *block)
    part = plan.part
    v, pairs = 0.0, False
    if acc is not None:  # acc is of dtype ``part``
        if type(al) is float:
            v, pairs = acc * al, plan.pairs
        else:
            v, pairs = _cmul(acc, al, part, plan.pairs), True
    if cg is not None:
        cv = cg[cells]
        if type(be) is float:  # a ufunc's dtype argument costs 0.5 us
            cv = cv * be if cv.dtype is part else np.multiply(cv, be, dtype=part)
        else:
            cv = _cmul(cv, be, part, plan.layout_c.pairs)
        cpairs = plan.layout_c.pairs or type(be) is tuple
        if pairs != cpairs and type(v) is not float:  # 0.0 + (re, im) needs none
            cv, v = (cv, _promoted(v)) if cpairs else (_promoted(cv), v)
        cv += v
        v, pairs = cv, pairs or cpairs
    if not plan.layout_d.pairs:
        dv[cells] = v[0] if pairs else v
    elif not pairs:
        dv[0][cells] = v
        dv[1][cells] = 0.0
    elif plan.parted and v.flags.c_contiguous:
        dv[0][cells] = v[0]
        dv[1][cells] = v[1]
    else:
        dv[cells] = v


@np.errstate(all="ignore")  # also restores the caller's buffer size
def contract(
    plan: ContractionPlan,
    alpha: int | float | complex,
    a: TensorView | None,
    b: TensorView,
    beta: int | float | complex,
    c: TensorView,
    d: TensorView,
    names: str = "ABCD",
) -> StatusRecord:
    """Run the planned contraction over concrete views, in four stages:
    :func:`_bind` checks the views and returns the scalars, the operands'
    numpy views and the in-place flag; :func:`_load` returns A and B as
    ``(K, *H, *F, 1...)`` and ``(K, *H, 1..., *G)`` arrays; then, for each
    block of output cells, :func:`_sum` returns each cell's sum over K and
    :func:`_finish` stores ``alpha * sum + beta * C`` through D's view.

    Where A is the unit operand U (a binary or unary plan), U is not an
    argument and ``a`` is not read: the binary and unary adapters pass
    None.  *sum* is skipped: :func:`_pass` hands B's loaded block
    straight to *finish*.  :func:`_bind` holds the in-place rule: C and D
    may be the identical view (in-place update), and so may a unit plan's
    operand where it is C's object too; any other overlap between D and
    an operand is rejected.  An error names the operands in the slots A,
    B, C and D as the four characters of ``names`` do.
    """
    t0 = time.perf_counter()
    al, be, views, dv, in_place = _bind(plan, alpha, a, b, beta, c, d, names)
    read_ab = al != 0
    if plan.bufsize:
        np.setbufsize(plan.bufsize)
    if read_ab:
        loaded = _load(plan, views, in_place and b is c)
    cv = views[2] if be != 0 else None
    stage = _pass if plan.unit_a else _sum
    for block in (None,) if plan.whole else _blocks(plan.cells, plan.box):
        acc = stage(plan, loaded, block) if read_ab else None
        _finish(plan, dv, block, acc, cv, al, be)
    _, _, k, h, f, g = plan.counts
    # seconds_elapsed, elements_written, multiply_adds: passed by position,
    # as keywords cost 0.2 us a call.
    return StatusRecord(time.perf_counter() - t0, h * f * g, h * f * g * k if read_ab else 0)


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
    labels_a, labels_b, labels_out = tuple(labels_a), tuple(labels_b), tuple(labels_out)
    check_labels(labels_a, labels_b, labels_out)
    label_extents(
        merge_repeats(labels_a, desc_a),
        merge_repeats(labels_b, desc_b),
        merge_repeats(labels_out, desc_out),
    )
    if labels_b != labels_out or desc_b.extents != desc_out.extents:
        raise TappError(
            ErrorCode.ERR_OUTPUT_MISMATCH,
            "binary output must carry B's labels, in order, with equal extents",
        )
    # The unit operand U carries, at stride zero, each output label A lacks.
    lacking = [k for k, l in enumerate(labels_out) if l not in labels_a]
    desc_u, labels_u = _UNIT, ()
    if lacking:
        extents = tuple([desc_out.extents[k] for k in lacking])
        desc_u = TensorDesc(extents, (0,) * len(lacking), DType.R32)
        labels_u = tuple([labels_out[k] for k in lacking])
    spec = LabelSpec(labels_u, labels_a, labels_out, labels_out)
    return make_plan(spec, desc_u, desc_a, desc_b, desc_out, unit_a=True)


def run_binary(
    plan: ContractionPlan,
    alpha: int | float | complex,
    a: TensorView,
    beta: int | float | complex,
    b: TensorView,
    out: TensorView,
) -> StatusRecord:
    """Execute a binary plan: A and B take B's and C's places, and U,
    which is never read, A's, so A's slot is None.  B may be the output's
    identical view; A may not, also where A and B are one object, whose
    A's slot then takes a view of its own."""
    if a is b:
        a = TensorView(a.desc, a.buffer, a.base)
    return contract(plan, alpha, None, a, beta, b, out, " ABC")


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
    labels in A) and reduction (labels dropped in B); labels are checked
    first, then output-only labels are rejected.  The plan is the binary
    plan of ``B := alpha*A + 0*B``: as A lacks no output label, its unit
    operand U has zero modes, so it runs ``B := alpha*U A + 0*B``."""
    labels_a, labels_out = tuple(labels_a), tuple(labels_out)
    check_labels(labels_a, labels_out)
    merge_repeats(labels_a, desc_a)
    for lbl in merge_repeats(labels_out, desc_out).labels:
        if lbl not in labels_a:
            raise TappError(
                ErrorCode.ERR_UNSUPPORTED,
                f"output-only label {lbl!r} is not supported",
            )
    return make_binary_plan(labels_a, desc_a, labels_out, desc_out, labels_out, desc_out)


def run_unary(
    plan: ContractionPlan,
    alpha: int | float | complex,
    a: TensorView,
    out: TensorView,
) -> StatusRecord:
    """Execute a unary plan: A takes B's place, and U, which is never
    read, A's, so A's slot is None.  A fills C's unread slot as well,
    where :func:`_bind` does not check it again, so that its in-place rule
    decides: A as the output's identical view runs in place, and any
    other overlap with it is ERR_ALIASING."""
    return contract(plan, alpha, None, a, 0.0, a, out, " AAB")


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
