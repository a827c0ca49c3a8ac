"""Brute-force contraction evaluators used as conformance ground truth,
in two forms.

The exact form, :func:`oracle_contract`, deliberately avoids the
engine's grouped loop structure: it walks the full Cartesian product of
label values, the first label slowest, with one address walk
(``_addresses``) per operand, collecting raw product terms per output
cell, and finally combines them with exactly rounded summation
(``math.fsum`` componentwise).  The ordered form,
:func:`ordered_contract`, sums each cell in the contract's order and
rounds each operation to the compute dtype, so it gives the engine's
bits; it is written from the contract's statement over dense operands
and label lists, not from the engine's plan.  Both support output-only
labels (each product is broadcast into every position along them) even
though the engine rejects them.  Agreement between the paths is
therefore evidence, not tautology.

Products, ``alpha * sum`` and ``beta * C`` follow C99 Annex G's rule for
a real factor, as the engine's contract does: a real x times a complex
``(re, im)`` is ``(x*re, x*im)``, not ``(x, +0.0)`` times it, which is
what Python 3.11's ``*`` forms (see :func:`_mul`).  So a real sum of
real products stays real until it is rounded to the output dtype, and an
infinity stays an infinity next to a zero part.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import (
    DType, TensorView, _to_f32, column_major_strides, dtype_promote, round_to, validate_view
)
from .errors import ErrorCode, TappError
from .labels import LabelSpec

__all__ = ["DenseTensor", "densify", "oracle_contract", "ordered_contract"]


@dataclass(frozen=True)
class DenseTensor:
    """Column-major dense materialization of one tensor."""

    extents: tuple[int, ...]
    elements: tuple[float | complex, ...]
    dtype: DType

    def __post_init__(self):
        if len(self.elements) != math.prod(self.extents):
            raise TappError(
                ErrorCode.ERR_EXTENT_MISMATCH,
                "dense element count does not match the extents",
            )


def _addresses(extents, weights, base: int = 0) -> list[int]:
    """``base + sum(i_k * w_k)`` for every multi-index, the first index
    fastest; built label by label, one add per address and label.  The
    one index walk outside the engine: ``densify`` (which reads D for the
    CLI), the oracle's sum and the CLI's injectivity check of D run on it."""
    addresses = [base]
    for e, w in zip(extents, weights):
        addresses = [p + i * w for i in range(e) for p in addresses]
    return addresses


def _diagonal_weights(labels, strides) -> tuple[tuple[str, ...], list[int]]:
    """Distinct labels with per-label address weights; a repeated label
    accumulates the strides of every mode carrying it, so stepping the
    label steps all those modes together (the semi-diagonal)."""
    uniq: list[str] = []
    weights: list[int] = []
    for lbl, s in zip(labels, strides):
        if lbl in uniq:
            weights[uniq.index(lbl)] += s
        else:
            uniq.append(lbl)
            weights.append(s)
    return tuple(uniq), weights


def densify(view: TensorView, labels) -> tuple[DenseTensor, tuple[str, ...]]:
    """Materialize a strided view into dense column-major storage.

    Repeated labels are resolved by reading only the (semi-)diagonal
    elements; the returned label list is repeat-free.
    """
    labels = tuple(labels)
    if len(labels) != view.desc.nmodes:
        raise TappError(
            ErrorCode.ERR_EXTENT_MISMATCH,
            f"{len(labels)} labels for a tensor with {view.desc.nmodes} modes",
        )
    code = validate_view(view)
    if code is not ErrorCode.OK:
        raise TappError(code)
    uniq, weights = _diagonal_weights(labels, view.desc.strides)
    extents = []
    for lbl in uniq:
        ext = view.desc.extents[labels.index(lbl)]
        for k, other in enumerate(labels):
            if other == lbl and view.desc.extents[k] != ext:
                raise TappError(
                    ErrorCode.ERR_EXTENT_MISMATCH,
                    f"label {lbl!r} repeats with unequal extents",
                )
        extents.append(ext)
    buf = view.buffer.tolist()
    elements = tuple(buf[p] for p in _addresses(extents, weights, view.base))
    return DenseTensor(tuple(extents), elements, view.desc.dtype), uniq


def _fsum(values: list[float]) -> float:
    """``math.fsum``, given a result where it raises (on +inf and -inf
    terms, or where a partial sum overflows): the IEEE sum of the terms
    that are not finite, if any, else the exact sum of the finite terms,
    rounded, or an infinity where it is beyond float's range.  A sum of
    -0.0 terms is -0.0, as IEEE addition gives it, where ``math.fsum``,
    which starts from +0.0, gives +0.0."""
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError):
        special = [v for v in values if not math.isfinite(v)]
        if special:  # +inf and -inf give NaN
            return sum(special)
        from fractions import Fraction  # only here: it imports decimal

        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    if total == 0.0 and values and all(v == 0.0 and math.copysign(1.0, v) < 0 for v in values):
        return -0.0
    return total


def _mul(x, y) -> float | complex:
    """``x * y``, where a real factor multiplies each part of a complex
    one, ``(x*yr, x*yi)`` (C99 Annex G, which CPython 3.14 adopted); two
    complex factors multiply as Python's ``*`` does."""
    if isinstance(x, complex):
        return x * y if isinstance(y, complex) else complex(x.real * y, x.imag * y)
    if isinstance(y, complex):
        return complex(x * y.real, x * y.imag)
    return x * y


def _exact_sum(values) -> float | complex:
    if any(isinstance(v, complex) for v in values):
        return complex(_fsum([v.real for v in values]), _fsum([v.imag for v in values]))
    return _fsum(values)


def _label_extents(spec: LabelSpec, a: DenseTensor, b: DenseTensor, c: DenseTensor):
    """Each label's extent, where A, B and C have one label per mode, each
    label one extent and C D's labels; else ERR_EXTENT_MISMATCH."""
    extent_of: dict[str, int] = {}
    for labels, dense, what in (
        (spec.labels_a, a, "A"),
        (spec.labels_b, b, "B"),
        (spec.labels_c, c, "C"),
    ):
        if len(labels) != len(dense.extents):
            raise TappError(
                ErrorCode.ERR_EXTENT_MISMATCH,
                f"{what}: {len(labels)} labels for {len(dense.extents)} modes",
            )
        for lbl, ext in zip(labels, dense.extents):
            if extent_of.setdefault(lbl, ext) != ext:
                raise TappError(
                    ErrorCode.ERR_EXTENT_MISMATCH,
                    f"label {lbl!r} has extents {extent_of[lbl]} and {ext}",
                )
    if spec.labels_c != spec.labels_d:
        raise TappError(
            ErrorCode.ERR_EXTENT_MISMATCH, "C and D label lists differ"
        )
    return extent_of


def oracle_contract(
    spec: LabelSpec,
    a: DenseTensor,
    b: DenseTensor,
    c: DenseTensor,
    alpha: int | float | complex,
    beta: int | float | complex,
    out_dtype: DType | None = None,
) -> DenseTensor:
    """Evaluate ``alpha * A B + beta * C`` over dense operands.

    Handles every label class, including output-only labels.  ``alpha``
    and ``beta`` are Python numbers, used as given: a complex one is
    complex even where its imaginary part is zero.  When ``alpha``
    (``beta``) is exactly zero the inputs (C) are never read.
    """
    extent_of = _label_extents(spec, a, b, c)
    out_extents = tuple(extent_of[l] for l in spec.labels_d)
    out_size = math.prod(out_extents)
    if out_dtype is None:
        out_dtype = dtype_promote(dtype_promote(a.dtype, b.dtype), c.dtype)

    # The label space, the first label slowest: _addresses steps its first
    # label fastest, so it gets them reversed.
    space = list(dict.fromkeys((*spec.labels_d, *spec.labels_a, *spec.labels_b)))[::-1]
    extents = [extent_of[l] for l in space]

    def positions(labels, dense_extents) -> list[int]:
        """A tensor's column-major element positions over the label space."""
        uniq, weights = _diagonal_weights(labels, column_major_strides(dense_extents))
        weight = dict(zip(uniq, weights))
        return _addresses(extents, [weight.get(l, 0) for l in space])

    # Real A and B give real terms, on which _exact_sum is _fsum.  Where
    # two factors are both real or both complex, _mul is Python's ``*``,
    # written inline on this hot path.
    types = {*map(type, a.elements), *map(type, b.elements)}
    cplx = any(issubclass(t, complex) for t in types)
    terms: list[list] = [[] for _ in range(out_size)]
    if alpha != 0:
        abuf, bbuf = a.elements, b.elements
        cells = zip(
            positions(spec.labels_a, a.extents),
            positions(spec.labels_b, b.extents),
            positions(spec.labels_d, out_extents),
        )
        if cplx and len(types) > 1:
            for i, j, k in cells:
                terms[k].append(_mul(abuf[i], bbuf[j]))
        else:
            for i, j, k in cells:
                terms[k].append(abuf[i] * bbuf[j])

    total = _exact_sum if cplx else _fsum
    out = []
    for i in range(out_size):
        v = 0.0
        if alpha != 0:
            s = total(terms[i])
            v = alpha * s if type(s) is type(alpha) else _mul(alpha, s)
        if beta != 0:
            x = c.elements[i]
            v = v + (beta * x if type(x) is type(beta) else _mul(beta, x))
        out.append(round_to(v, out_dtype))
    return DenseTensor(out_extents, tuple(out), out_dtype)


def ordered_contract(
    spec: LabelSpec, a: DenseTensor, b: DenseTensor, c: DenseTensor,
    alpha: int | float | complex, beta: int | float | complex,
    compute_dtype: DType, out_dtype: DType,
) -> DenseTensor:
    """Evaluate ``alpha * A B + beta * C`` over dense operands in the
    contract's order, with the contract's rounding: the bits the engine
    must give.  The result holds D over its distinct labels, the first
    fastest, as ``densify`` reads D.

    The contract, in full:

    * Arithmetic is in ``compute_dtype``, the promotion of the four
      operands' dtypes or a wider one, and alpha and beta are rounded to
      it; a complex one whose imaginary part is zero is real.
    * An input-only label of A (of B) is summed first, for each position
      of A's other labels: over A's input-only labels in A's order, the
      first label fastest, from the first element.
    * Each cell then sums the products over the contracted labels in A's
      order, the first label fastest, from the first product.
    * Each product and each add is rounded to the compute dtype's width:
      a real value stays real, a complex one complex.
    * A real factor multiplies each part of a complex one (C99 Annex G,
      see :func:`_mul`), and a real value added to a complex one is
      ``(x, +0.0)``, as CPython 3.11's ``+`` adds them.
    * Then ``alpha * acc``, and ``+ beta * C`` where beta is nonzero,
      each step rounded, and the cell is rounded to ``out_dtype``.  Where
      alpha (beta) is zero, A and B (C) are not read.

    Extents are at least 1, as a ``TensorDesc``'s are.  Output-only
    labels broadcast, as in :func:`oracle_contract`.
    """
    extent_of = _label_extents(spec, a, b, c)

    def rnd(x):
        return round_to(x, DType.C32) if type(x) is complex else _to_f32(x)

    if compute_dtype.width == 64:
        rnd = operator.pos  # +x is x: Python's numbers are float64 already

    def walk(weight, labels) -> list[int]:
        """A tensor's element positions over ``labels``, the first fastest."""
        return _addresses([extent_of[l] for l in labels], [weight.get(l, 0) for l in labels])

    out_labels = list(dict.fromkeys(spec.labels_d))
    wa, wb, wc = (dict(zip(*_diagonal_weights(ls, column_major_strides(t.extents))))
                  for ls, t in ((spec.labels_a, a), (spec.labels_b, b), (spec.labels_c, c)))

    def reduced(dense, weight, other) -> list:
        """An input's elements, where each one whose input-only labels are
        all 0 holds its sum over them."""
        elements = list(dense.elements)
        summed = [l for l in weight if l not in other and l not in out_labels]
        if summed:
            rest = walk(weight, summed)[1:]
            for p in walk(weight, [l for l in weight if l not in summed]):
                v = elements[p]
                for m in rest:
                    v = rnd(v + elements[p + m])
                elements[p] = v
        return elements

    al, be = (rnd(x.real if x.imag == 0 else x) for x in map(complex, (alpha, beta)))
    out = [0.0] * math.prod(extent_of[l] for l in out_labels)
    if al != 0:
        ea, eb = reduced(a, wa, wb), reduced(b, wb, wa)
        # Where the factors are all real or all complex, _mul is Python's *.
        mul = _mul if len({*map(type, ea), *map(type, eb)}) > 1 else operator.mul
        con = [l for l in wa if l in wb and l not in out_labels]
        rest = list(zip(walk(wa, con), walk(wb, con)))[1:]
        for n, (i, j) in enumerate(zip(walk(wa, out_labels), walk(wb, out_labels))):
            acc = rnd(mul(ea[i], eb[j]))
            for k, m in rest:
                acc = rnd(acc + rnd(mul(ea[i + k], eb[j + m])))
            out[n] = rnd(_mul(al, acc))
    if be != 0:
        out = [rnd(v + rnd(_mul(be, c.elements[k]))) for v, k in zip(out, walk(wc, out_labels))]
    extents = tuple(extent_of[l] for l in out_labels)
    return DenseTensor(extents, tuple(round_to(v, out_dtype) for v in out), out_dtype)
