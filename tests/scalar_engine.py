"""The scalar element loop of ``tapp.engine.contract``, kept as the bitwise
reference for its vectorized path.

Every operation rounds through Python ``float``/``complex`` arithmetic to
the plan's compute precision, one output cell at a time: batch, free-of-A
and free-of-B outside, contracted inside, first label fastest.  Input-only
reductions are summed once per read position, in table order.  A real
value stays a float until it is added to a complex one (Python's ``+``
makes it ``(x, +0.0)``) or stored into a complex D; a real value times a
complex one multiplies each part (C99 Annex G, see ``_mul``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tapp import DType, TensorView
from tapp.labels import merge_repeats


def compute_rounder(dtype: DType) -> Callable[[float | complex], float | complex]:
    """Per-operation rounding for arithmetic carried out in ``dtype``,
    which keeps a float a float and a complex a complex.

    For 64-bit dtypes this changes no value: Python numbers are already
    double precision.
    """
    if dtype.width == 64:
        return lambda x: x
    return lambda x: complex(np.complex64(x)) if type(x) is complex else float(np.float32(x))


def _mul(x, y):
    """``x * y``, where a real factor multiplies each part of a complex
    one, ``(x*yr, x*yi)`` (C99 Annex G); two complex factors multiply as
    Python's ``*`` does.  Written here, not taken from the engine or the
    oracle, so that agreement with either is evidence."""
    if type(x) is complex:
        return x * y if type(y) is complex else complex(x.real * y, x.imag * y)
    if type(y) is complex:
        return complex(x * y.real, x * y.imag)
    return x * y


def _offsets(extents: Sequence[int], strides: Sequence[int]) -> tuple[int, ...]:
    """``sum(i_k * s_k)`` for every multi-index, first index fastest."""
    offsets = (0,)
    for e, s in zip(extents, strides):
        offsets = tuple(o + i * s for i in range(e) for o in offsets)
    return offsets


def _tables(plan):
    """Offset deltas per loop level: rows of (A, B, C, D) deltas for the
    batch and free groups, (A, B) for the contracted group, one column
    for each input-only reduction."""
    cl = plan.classified
    merged_c = merge_repeats(plan.spec.labels_c, plan.desc_c)

    def d_side(group):
        strides_c = tuple(merged_c.stride_of(l) for l in group.labels)
        vectors = (group.strides_a, group.strides_b, strides_c, group.strides_d)
        return tuple(zip(*(_offsets(group.extents, sv) for sv in vectors)))

    con = cl.contracted
    return (
        d_side(cl.batch),
        d_side(cl.free_a),
        d_side(cl.free_b),
        tuple(zip(_offsets(con.extents, con.strides_a), _offsets(con.extents, con.strides_b))),
        _offsets(cl.reduced_a.extents, cl.reduced_a.strides_a),
        _offsets(cl.reduced_b.extents, cl.reduced_b.strides_b),
    )


def _reduced(view, k, offsets, batch, free, contracted, rnd):
    """The buffer of operand A (``k == 0``) or B (``k == 1``) as a list;
    with input-only labels, a map from each read position to its
    reduction, summed once in table order."""
    buf = view.buffer.tolist()
    if len(offsets) == 1:
        return buf
    reduced = {}
    for h in batch:
        for f in free:
            for c in contracted:
                p = view.base + h[k] + f[k] + c[k]
                if p not in reduced:
                    v = buf[p]
                    for m in offsets[1:]:
                        v = rnd(v + buf[p + m])
                    reduced[p] = v
    return reduced


def _number(x) -> float | complex:
    """The Python number ``x`` as a float, or as a complex where its
    imaginary part is not zero."""
    x = complex(x)
    return x.real if x.imag == 0 else x


def scalar_contract(
    plan, alpha, a: TensorView, b: TensorView, beta, c: TensorView, d: TensorView
) -> None:
    """Write ``alpha * A B + beta * C`` into D cell by cell; the views must
    already satisfy ``tapp.engine.contract``'s checks."""
    cdt = plan.compute_dtype
    rnd = compute_rounder(cdt)
    al = rnd(_number(alpha))
    be = rnd(_number(beta))
    t_batch, t_fa, t_fb, t_con, t_red_a, t_red_b = _tables(plan)
    t_p_rest = t_con[1:]
    base_a, base_b, base_c, base_d = a.base, b.base, c.base, d.base

    read_ab = al != 0
    read_c = be != 0
    if read_ab:
        abuf = _reduced(a, 0, t_red_a, t_batch, t_fa, t_con, rnd)
        bbuf = _reduced(b, 1, t_red_b, t_batch, t_fb, t_con, rnd)
    cbuf = c.buffer.tolist() if read_c else None
    dbuf = d.buffer
    drop_imag = cdt.is_complex and not plan.desc_d.dtype.is_complex

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
                    acc = rnd(_mul(abuf[ia], bbuf[jb]))
                    for k_a, k_b in t_p_rest:
                        acc = rnd(acc + rnd(_mul(abuf[ia + k_a], bbuf[jb + k_b])))
                    v = rnd(_mul(al, acc))
                else:
                    v = 0.0
                if read_c:
                    v = rnd(v + rnd(_mul(be, cbuf[ic + g_c])))
                dbuf[idx_d + g_d] = v.real if drop_imag else v
