"""Einsum-style label parsing and classification.

Labels are single ASCII alphanumeric characters, one per tensor mode.
Given the label lists of the two inputs A, B and the output D (the
update operand C always carries D's labels), every distinct label falls
into exactly one of seven classes:

* ``contracted``     -- in A and B but not D (summed over),
* ``free_a``         -- in A and D only,
* ``free_b``         -- in B and D only,
* ``batch``          -- in A, B and D (element-wise/batched),
* ``reduced_a``      -- only in A (summed inside A before multiplying),
* ``reduced_b``      -- only in B,
* ``broadcast_out``  -- only in D (replicated output positions).

A label repeated within one tensor addresses its (semi-)diagonal; such
a tensor is first rewritten with unique labels whose stride is the sum
of the member strides, then classified.
"""

from __future__ import annotations

import math
import string
from typing import NamedTuple, Sequence

from .core import TensorDesc
from .errors import ErrorCode, TappError

__all__ = [
    "LabelSpec",
    "check_labels",
    "MergedTensorLabels",
    "LabelGroup",
    "ClassifiedLabels",
    "parse_einsum",
    "merge_repeats",
    "label_extents",
    "classify",
]

_LABEL_CHARS = frozenset(string.ascii_letters + string.digits)


def check_labels(*segments: Sequence[str]) -> None:
    """Raise ERR_PARSE unless every label is one ASCII letter or digit."""
    for seg in segments:
        for ch in seg:
            if not isinstance(ch, str) or ch not in _LABEL_CHARS:
                raise TappError(ErrorCode.ERR_PARSE, f"invalid label {ch!r}")


class LabelSpec(NamedTuple):
    """Per-tensor label lists of one contraction.  The constructor takes
    any labels; :meth:`of` and :func:`parse_einsum` accept only single
    ASCII letters and digits (see :func:`check_labels`).

    This record and the other value records of this module,
    :class:`MergedTensorLabels`, :class:`LabelGroup` and
    :class:`ClassifiedLabels`, are NamedTuples:
    immutable, compared and hashed by value, and built at import without
    the generated methods a frozen dataclass compiles."""

    labels_a: tuple[str, ...]
    labels_b: tuple[str, ...]
    labels_c: tuple[str, ...]
    labels_d: tuple[str, ...]

    @classmethod
    def of(
        cls,
        labels_a: Sequence[str],
        labels_b: Sequence[str],
        labels_d: Sequence[str],
        labels_c: Sequence[str] | None = None,
    ) -> "LabelSpec":
        c = tuple(labels_d) if labels_c is None else tuple(labels_c)
        spec = cls(tuple(labels_a), tuple(labels_b), c, tuple(labels_d))
        check_labels(spec.labels_a, spec.labels_b, spec.labels_c, spec.labels_d)
        return spec


def parse_einsum(expr: str) -> LabelSpec:
    """Parse ``"<A labels>,<B labels>-><D labels>"`` into a LabelSpec.

    Whitespace is insignificant, empty segments denote scalar tensors,
    and C's labels are implicitly those of D.
    """
    compact = "".join(expr.split())
    head, sep, out = compact.partition("->")
    if not sep or "->" in out:
        raise TappError(ErrorCode.ERR_PARSE, f"expected one '->' in {expr!r}")
    parts = head.split(",")
    if len(parts) != 2:
        raise TappError(ErrorCode.ERR_PARSE, f"expected one ',' in {expr!r}")
    return LabelSpec.of(tuple(parts[0]), tuple(parts[1]), tuple(out))


class MergedTensorLabels(NamedTuple):
    """Repeat-free labels of one tensor with summed member strides."""

    labels: tuple[str, ...]
    extents: tuple[int, ...]
    strides: tuple[int, ...]

    def stride_of(self, label: str) -> int:
        try:
            return self.strides[self.labels.index(label)]
        except ValueError:
            return 0


def merge_repeats(labels: Sequence[str], desc: TensorDesc) -> MergedTensorLabels:
    """Collapse repeated labels: one entry per distinct label, stride
    equal to the sum of the strides of all modes carrying it."""
    if len(labels) != len(desc.extents):
        raise TappError(
            ErrorCode.ERR_EXTENT_MISMATCH,
            f"{len(labels)} labels for a tensor with {len(desc.extents)} modes",
        )
    if len(set(labels)) == len(labels):  # no repeats: the descriptor's own lists
        return MergedTensorLabels(tuple(labels), desc.extents, desc.strides)
    out_labels: list[str] = []
    out_extents: list[int] = []
    out_strides: list[int] = []
    for lbl, ext, strd in zip(labels, desc.extents, desc.strides):
        if lbl in out_labels:
            k = out_labels.index(lbl)
            if out_extents[k] != ext:
                raise TappError(
                    ErrorCode.ERR_EXTENT_MISMATCH,
                    f"label {lbl!r} repeats with extents {out_extents[k]} and {ext}",
                )
            out_strides[k] += strd
        else:
            out_labels.append(lbl)
            out_extents.append(ext)
            out_strides.append(strd)
    return MergedTensorLabels(tuple(out_labels), tuple(out_extents), tuple(out_strides))


def label_extents(*merged: MergedTensorLabels) -> dict[str, int]:
    """Each distinct label's extent; raises ERR_EXTENT_MISMATCH where two
    of the ``merged`` tensors give one label different extents."""
    extent_of: dict[str, int] = {}
    for m in merged:
        for lbl, ext in zip(m.labels, m.extents):
            if extent_of.setdefault(lbl, ext) != ext:
                raise TappError(
                    ErrorCode.ERR_EXTENT_MISMATCH,
                    f"label {lbl!r} has extents {extent_of[lbl]} and {ext}",
                )
    return extent_of


class LabelGroup(NamedTuple):
    """One label class with its extents and per-tensor stride vectors.

    Stride vectors cover (A, B, D); a tensor not carrying a label holds
    stride zero for it.  The loop size of the group is the product of
    its extents (one for the empty group).
    """

    labels: tuple[str, ...]
    extents: tuple[int, ...]
    strides_a: tuple[int, ...]
    strides_b: tuple[int, ...]
    strides_d: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.extents)


class ClassifiedLabels(NamedTuple):
    """The seven disjoint label groups of one ternary operation."""

    contracted: LabelGroup
    free_a: LabelGroup
    free_b: LabelGroup
    batch: LabelGroup
    reduced_a: LabelGroup
    reduced_b: LabelGroup
    broadcast_out: LabelGroup


_EMPTY_GROUP = LabelGroup((), (), (), (), ())

# Each class's index, 4 * (in A) + 2 * (in B) + (in D), in
# ClassifiedLabels' field order.
_CLASS_INDEX = (6, 5, 3, 7, 4, 2, 1)


def classify(
    merged_a: MergedTensorLabels,
    merged_b: MergedTensorLabels,
    merged_d: MergedTensorLabels,
) -> ClassifiedLabels:
    """Split the distinct labels of A, B, D into the seven classes.

    Inputs must be repeat-free.  Shared labels must agree on extents
    across tensors.  Group-internal label order is deterministic: groups
    drawn from D keep D's label order, ``contracted``/``reduced_a``
    follow A's order and ``reduced_b`` follows B's; that order fixes the
    loop nesting (and therefore summation order) downstream.
    """
    extent_of = label_extents(merged_a, merged_b, merged_d)
    stride_a = dict(zip(merged_a.labels, merged_a.strides))
    stride_b = dict(zip(merged_b.labels, merged_b.strides))
    stride_d = dict(zip(merged_d.labels, merged_d.strides))
    # Walking D's labels, then A's, then B's puts each class in the order
    # of the first tensor walked that holds it: D's for the classes in D,
    # A's for contracted and reduced_a, B's for reduced_b.  Each label's
    # row is (label, extent, stride in A, in B, in D), which one zip
    # turns into its group's five tuples.
    rows: list[list[tuple]] = [[], [], [], [], [], [], [], []]
    for lbl in dict.fromkeys(merged_d.labels + merged_a.labels + merged_b.labels):
        row = lbl, extent_of[lbl], stride_a.get(lbl, 0), stride_b.get(lbl, 0), stride_d.get(lbl, 0)
        rows[(lbl in stride_a) * 4 + (lbl in stride_b) * 2 + (lbl in stride_d)].append(row)
    return ClassifiedLabels(
        *[LabelGroup(*zip(*rows[k])) if rows[k] else _EMPTY_GROUP for k in _CLASS_INDEX]
    )
