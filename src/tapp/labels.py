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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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


@dataclass(frozen=True)
class LabelSpec:
    """Per-tensor label lists of one contraction.  The constructor takes
    any labels; :meth:`of` and :func:`parse_einsum` accept only single
    ASCII letters and digits (see :func:`check_labels`)."""

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


@dataclass(frozen=True)
class MergedTensorLabels:
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
    if len(labels) != desc.nmodes:
        raise TappError(
            ErrorCode.ERR_EXTENT_MISMATCH,
            f"{len(labels)} labels for a tensor with {desc.nmodes} modes",
        )
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


@dataclass(frozen=True)
class LabelGroup:
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

    @cached_property
    def size(self) -> int:
        return math.prod(self.extents)


@dataclass(frozen=True)
class ClassifiedLabels:
    """The seven disjoint label groups of one ternary operation."""

    contracted: LabelGroup
    free_a: LabelGroup
    free_b: LabelGroup
    batch: LabelGroup
    reduced_a: LabelGroup
    reduced_b: LabelGroup
    broadcast_out: LabelGroup

    def groups(self) -> dict[str, LabelGroup]:
        return {
            "contracted": self.contracted,
            "free_a": self.free_a,
            "free_b": self.free_b,
            "batch": self.batch,
            "reduced_a": self.reduced_a,
            "reduced_b": self.reduced_b,
            "broadcast_out": self.broadcast_out,
        }


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
    set_a, set_b, set_d = set(merged_a.labels), set(merged_b.labels), set(merged_d.labels)
    extent_of = label_extents(merged_a, merged_b, merged_d)

    def group(names: list[str]) -> LabelGroup:
        return LabelGroup(
            tuple(names),
            tuple(extent_of[n] for n in names),
            tuple(merged_a.stride_of(n) for n in names),
            tuple(merged_b.stride_of(n) for n in names),
            tuple(merged_d.stride_of(n) for n in names),
        )

    return ClassifiedLabels(
        contracted=group([l for l in merged_a.labels if l in set_b and l not in set_d]),
        free_a=group([l for l in merged_d.labels if l in set_a and l not in set_b]),
        free_b=group([l for l in merged_d.labels if l in set_b and l not in set_a]),
        batch=group([l for l in merged_d.labels if l in set_a and l in set_b]),
        reduced_a=group([l for l in merged_a.labels if l not in set_b and l not in set_d]),
        reduced_b=group([l for l in merged_b.labels if l not in set_a and l not in set_d]),
        broadcast_out=group(
            [l for l in merged_d.labels if l not in set_a and l not in set_b]
        ),
    )
