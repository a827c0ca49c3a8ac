"""Conformance and execution command-line tool.

Subcommands:

* ``run <case.json>``    -- execute one contraction case, print D and
  the execution status as JSON, exit with the ErrorCode integer.
* ``gen <category>``     -- emit a reproducible random case exercising
  one conformance category.
* ``check <case.json>``  -- run the engine and the brute-force oracle
  on one case and compare them elementwise.
* ``suite``              -- generate and check seeded instances of every
  category and emit a summary report; each category's result and wall
  time go to stderr, one line each.

``CATEGORIES`` defines each category in one record: its title, how its
cases are generated, the error code both paths must return, if any, and
the metamorphic check, if any, that a passing case must pass as well.

A case file is a JSON object: ``einsum`` (``"<A>,<B>-><D>"``; C
implicitly carries D's labels), scalars ``alpha``/``beta`` (number or
``[re, im]`` pair), tensor entries ``a``, ``b``, optional ``c``
(default zero) with ``dtype``/``extents``/optional ``strides`` (default
column-major)/optional ``base``/``data`` (flat buffer content, complex
elements as ``[re, im]``), and ``d`` with the same layout fields but no
data.  Unknown keys are ignored.

Every subcommand prints strict JSON: a non-finite float is the string
``"NaN"``, ``"Infinity"`` or ``"-Infinity"``.

Exit codes: 0 success, ErrorCode integers for library errors, 1 for a
numeric mismatch, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain

import numpy as np

from .api import (
    StatusRecord,
    tapp_create_contraction,
    tapp_create_handle,
    tapp_create_tensor_info,
    tapp_destroy_handle,
    tapp_execute_product,
    tapp_get_default_executor,
)
from .core import (
    DType, TensorDesc, TensorView, column_major_strides, dtype_promote, integers, reach,
)
from .errors import ErrorCode, TappError
from .labels import LabelSpec, parse_einsum
from .oracle import (
    DenseTensor, _addresses, _diagonal_weights, densify, oracle_contract, ordered_contract,
)

__all__ = [
    "load_case",
    "execute_case",
    "oracle_case",
    "check_case",
    "generate_case",
    "CATEGORIES",
    "run_suite",
    "main",
]

TOLERANCE_64 = 1e-12
TOLERANCE_32 = 1e-4

# Work budgets for generated cases: product of all distinct label
# extents, and of the summed-over (contracted plus input-only) ones.
# They keep suite runtimes and floating-point error well inside the
# comparison tolerances.
TOTAL_EXTENT_BUDGET = 2500
REDUCE_EXTENT_BUDGET = 128

# The most D addresses the case contract enumerates to decide injectivity.
ENUMERATION_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# Case parsing


def _is_number(raw) -> bool:
    """Whether ``raw`` is a JSON number: an int or a float, not ``true`` or
    ``false`` (a bool is an int)."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _parse_number(raw, what: str, pair_ok: bool = True) -> float | complex:
    """A JSON number as a float, or (where ``pair_ok``) a ``[re, im]``
    pair of numbers as a complex.  An integer beyond float's range is
    ERR_PARSE, as a boolean is."""
    try:
        if _is_number(raw):
            return float(raw)
        if (
            pair_ok
            and isinstance(raw, (list, tuple))
            and len(raw) == 2
            and all(_is_number(x) for x in raw)
        ):
            return complex(raw[0], raw[1])
    except OverflowError:
        raise TappError(ErrorCode.ERR_PARSE, f"{what} beyond float's range") from None
    raise TappError(ErrorCode.ERR_PARSE, f"bad {what} {raw!r}")


def _parse_integers(raw, what: str) -> tuple[int, ...]:
    """``core.integers`` of a JSON value, where ``true`` and ``false`` are
    no integers."""
    if isinstance(raw, list) and any(isinstance(v, bool) for v in raw):
        raise TappError(ErrorCode.ERR_PARSE, f"{what} must be integers")
    return integers(raw, what)


def _emit_element(value, dtype: DType):
    if dtype.is_complex:
        v = complex(value)
        return [v.real, v.imag]
    return float(value)


def _parse_data(raw_data: list, dtype: DType) -> np.ndarray:
    """A tensor's ``data`` as a ``dtype`` array.  Data that are all floats
    (for a complex dtype, all ``[re, im]`` lists of two floats) take one
    ``np.array`` call; any other data go element by element through
    ``_parse_number``, which gives their error codes.  A part beyond
    float32's range becomes an infinity, without numpy's overflow warning,
    as in ``core.round_to``."""
    with np.errstate(over="ignore"):
        if not dtype.is_complex:
            if set(map(type, raw_data)) <= {float}:
                return np.array(raw_data, dtype.np_dtype)
        elif (
            set(map(type, raw_data)) <= {list}
            and set(map(len, raw_data)) <= {2}
            and set(map(type, chain.from_iterable(raw_data))) <= {float}
        ):
            pairs = np.array(raw_data, np.float64).reshape(-1, 2)
            return pairs.view(np.complex128)[:, 0].astype(dtype.np_dtype)
        return np.array(
            [_parse_number(v, "element", dtype.is_complex) for v in raw_data], dtype.np_dtype
        )


@dataclass(frozen=True)
class _TensorEntry:
    dtype: DType
    extents: tuple[int, ...]
    strides: tuple[int, ...]
    base: int
    data: np.ndarray | None  # read-only; None for D


def _parse_tensor(raw, name: str, want_data: bool) -> _TensorEntry:
    if not isinstance(raw, dict):
        raise TappError(ErrorCode.ERR_PARSE, f"tensor {name!r} must be an object")
    try:
        dtype_name = raw["dtype"]
        extents = _parse_integers(raw["extents"], "extents")
    except (KeyError, TappError):
        raise TappError(ErrorCode.ERR_PARSE, f"tensor {name!r}: bad dtype/extents") from None
    dtype = DType.from_name(dtype_name)
    strides = raw.get("strides")
    if strides is None:
        strides = column_major_strides(extents)
    else:
        try:
            strides = _parse_integers(strides, "strides")
        except TappError:
            raise TappError(ErrorCode.ERR_PARSE, f"tensor {name!r}: bad strides") from None
    base = raw.get("base", 0)
    if isinstance(base, bool) or not isinstance(base, int) or base < 0:
        raise TappError(ErrorCode.ERR_PARSE, f"tensor {name!r}: bad base")
    data = None
    if want_data:
        raw_data = raw.get("data")
        if not isinstance(raw_data, list):
            raise TappError(ErrorCode.ERR_PARSE, f"tensor {name!r}: missing data")
        data = _parse_data(raw_data, dtype)
        data.flags.writeable = False
    return _TensorEntry(dtype, extents, strides, base, data)


@dataclass(frozen=True)
class Case:
    """Parsed case file.  Both conformance paths read its input buffers,
    which are read-only; a document without ``c`` gets zeros in D's
    dense layout."""

    spec: LabelSpec
    alpha: float | complex  # complex only with a nonzero imaginary part
    beta: float | complex
    a: _TensorEntry
    b: _TensorEntry
    c: _TensorEntry
    d: _TensorEntry


def parse_case(doc) -> Case:
    if not isinstance(doc, dict):
        raise TappError(ErrorCode.ERR_PARSE, "case document must be an object")
    try:
        spec = parse_einsum(doc["einsum"])
        # A pair with a zero imaginary part is the real scalar.
        alpha, beta = (_parse_number(doc[k], "scalar") for k in ("alpha", "beta"))
        alpha, beta = (x.real if x.imag == 0 else x for x in (alpha, beta))
        a = _parse_tensor(doc["a"], "a", want_data=True)
        b = _parse_tensor(doc["b"], "b", want_data=True)
        c = _parse_tensor(doc["c"], "c", want_data=True) if "c" in doc else None
        d = _parse_tensor(doc["d"], "d", want_data=False)
    except KeyError as missing:
        raise TappError(ErrorCode.ERR_PARSE, f"missing case field {missing}") from None
    except (TypeError, AttributeError):  # such as a number for a string
        raise TappError(ErrorCode.ERR_PARSE, "malformed case document") from None
    if c is None:
        strides = column_major_strides(d.extents)
        span = _span(d.extents, strides)
        # Zeros only where a descriptor can hold D's size: otherwise C's
        # descriptor is rejected first on both paths, and C's buffer is
        # never read.
        fits = max(math.prod(d.extents), span * d.dtype.np_dtype.itemsize) < 1 << 63
        zeros = np.zeros(span if fits else 0, d.dtype.np_dtype)
        zeros.flags.writeable = False
        c = _TensorEntry(d.dtype, d.extents, strides, 0, zeros)
    return Case(spec, alpha, beta, a, b, c, d)


def load_case(path: str) -> Case:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: bad JSON or UTF-8, huge integers
        raise TappError(ErrorCode.ERR_PARSE, f"cannot load {path}: {err}") from None
    return parse_case(doc)


def _span(extents, strides, base=0) -> int:
    """One past the highest element address a view reaches from ``base``."""
    return base + 1 + reach(extents, strides)[1]


def _view(entry: _TensorEntry, buffer: np.ndarray | None = None) -> TensorView:
    """``entry``'s view of ``buffer``, by default of its own data."""
    desc = TensorDesc(entry.extents, entry.strides, entry.dtype)
    return TensorView(desc, entry.data if buffer is None else buffer, entry.base)


# ---------------------------------------------------------------------------
# Engine path


@dataclass
class EngineRun:
    code: ErrorCode
    d_buffer: np.ndarray | None = None
    status: StatusRecord | None = None
    detail: str = ""  # why the run failed, where the library says so


def execute_case(case: Case) -> EngineRun:
    """Run a case through the full handle/descriptor/execute stack.  A
    failed create gives as ``detail`` the reason the handle keeps, a
    failed execute the reason in its StatusRecord."""
    handle = tapp_create_handle()
    try:
        operands = []  # info and labels of A, B, C and D in turn
        for entry, labels in (
            (case.a, case.spec.labels_a),
            (case.b, case.spec.labels_b),
            (case.c, case.spec.labels_c),
            (case.d, case.spec.labels_d),
        ):
            info = tapp_create_tensor_info(
                handle, entry.dtype, len(entry.extents), entry.extents, entry.strides
            )
            if isinstance(info, ErrorCode):
                return EngineRun(info, detail=handle.detail)
            operands += [info, labels]
        op = tapp_create_contraction(handle, *operands)
        if isinstance(op, ErrorCode):
            return EngineRun(op, detail=handle.detail)
        d_buffer = np.zeros(
            _span(case.d.extents, case.d.strides, case.d.base), case.d.dtype.np_dtype
        )
        status = StatusRecord()
        code = tapp_execute_product(
            op,
            tapp_get_default_executor(handle),
            case.alpha,
            (case.a.data, case.a.base),
            (case.b.data, case.b.base),
            case.beta,
            (case.c.data, case.c.base),
            (d_buffer, case.d.base),
            status_out=status,
        )
        if code is not ErrorCode.OK:
            return EngineRun(code, status=status, detail=status.detail)
        return EngineRun(ErrorCode.OK, d_buffer=d_buffer, status=status)
    finally:
        tapp_destroy_handle(handle)


# ---------------------------------------------------------------------------
# Oracle path


def _validate_case_contract(case: Case) -> ErrorCode:
    """Re-derive the validity of a case against the operation contract,
    mirroring the engine's check order so that an invalid case yields
    the same code from both conformance paths.

    D's addresses over its distinct labels must be distinct.  A zero
    stride on an extent above 1 aliases.  With the modes of extent above
    1 sorted by |stride|, each top mode whose |stride| exceeds the span
    ``sum(|s| * (e - 1))`` of the modes below it is peeled off: it moves
    their addresses past that span with each of its values.  The modes
    left are enumerated, unless their extents multiply to more than
    ``ENUMERATION_BUDGET``, which is ERR_UNSUPPORTED."""
    tensors = (
        (case.spec.labels_a, case.a),
        (case.spec.labels_b, case.b),
        (case.spec.labels_d, case.d),
    )
    # Each descriptor, in the order the engine creates them: one stride per
    # extent, extents of at least 1, then an element count and a byte reach
    # within int64.
    operands = (case.a, case.b, case.c, case.d)
    reaches = []
    for entry in operands:
        if len(entry.strides) != len(entry.extents):
            return ErrorCode.ERR_EXTENT_MISMATCH
        if min(entry.extents, default=1) < 1:
            return ErrorCode.ERR_EXTENT_MISMATCH
        lo, hi = reach(entry.extents, entry.strides)
        span = (hi - lo + 1) * entry.dtype.np_dtype.itemsize
        if max(math.prod(entry.extents), span) >= 1 << 63:
            return ErrorCode.ERR_OUT_OF_BOUNDS
        reaches.append((lo, hi))
    # Label counts, then each label's extent, within a tensor (a repeated
    # label) and across tensors alike.
    for labels, entry in tensors:
        if len(labels) != len(entry.extents):
            return ErrorCode.ERR_EXTENT_MISMATCH
    extent_of: dict[str, int] = {}
    for labels, entry in tensors:
        for lbl, e in zip(labels, entry.extents):
            if extent_of.setdefault(lbl, e) != e:
                return ErrorCode.ERR_EXTENT_MISMATCH
    # C must mirror D (labels are shared by construction of the format).
    if case.c.extents != case.d.extents:
        return ErrorCode.ERR_OUTPUT_MISMATCH
    # Output-only labels are rejected by the engine contract.
    in_inputs = set(case.spec.labels_a) | set(case.spec.labels_b)
    if any(lbl not in in_inputs for lbl in case.spec.labels_d):
        return ErrorCode.ERR_UNSUPPORTED
    # Output addresses over D's distinct labels must be injective.
    labels = case.spec.labels_d
    uniq, weights = _diagonal_weights(labels, case.d.strides)
    extents = [case.d.extents[labels.index(l)] for l in uniq]
    modes = sorted((abs(s), e) for e, s in zip(extents, weights) if e > 1)
    if modes and modes[0][0] == 0:
        return ErrorCode.ERR_ALIASING
    while modes and modes[-1][0] > sum(s * (e - 1) for s, e in modes[:-1]):
        modes.pop()
    if math.prod(e for _, e in modes) > ENUMERATION_BUDGET:
        return ErrorCode.ERR_UNSUPPORTED
    offsets = _addresses([e for _, e in modes], [s for s, _ in modes])
    if len(set(offsets)) != len(offsets):
        return ErrorCode.ERR_ALIASING
    # Scalars must fit the arithmetic dtype.
    all_real = not any(entry.dtype.is_complex for entry in operands)
    if all_real and (isinstance(case.alpha, complex) or isinstance(case.beta, complex)):
        return ErrorCode.ERR_DTYPE_MISMATCH
    # Buffers must cover every addressable element; D's is allocated to fit.
    for entry, (lo, hi) in zip(operands, reaches):
        lo, hi = entry.base + lo, entry.base + hi
        if lo < 0 or (entry.data is not None and hi >= len(entry.data)):
            return ErrorCode.ERR_OUT_OF_BOUNDS
    return ErrorCode.OK


@dataclass
class OracleRun:
    code: ErrorCode
    dense: DenseTensor | None = None


def _dense_operands(case: Case) -> tuple:
    """The label spec over distinct labels, and A, B and C densified: the
    oracles' first four arguments."""
    (dense_a, ua), (dense_b, ub), (dense_c, uc) = (
        densify(_view(entry), labels)
        for entry, labels in zip((case.a, case.b, case.c), case.spec[:3])
    )
    return LabelSpec.of(ua, ub, uc, uc), dense_a, dense_b, dense_c  # C carries D's labels


def oracle_case(case: Case) -> OracleRun:
    """Evaluate a case with the brute-force oracle."""
    code = _validate_case_contract(case)
    if code is not ErrorCode.OK:
        return OracleRun(code)
    dense = oracle_contract(*_dense_operands(case), case.alpha, case.beta, out_dtype=case.d.dtype)
    return OracleRun(ErrorCode.OK, dense=dense)


# ---------------------------------------------------------------------------
# Comparison


def default_tolerance(case: Case) -> float:
    dtypes = [case.a.dtype, case.b.dtype, case.c.dtype, case.d.dtype]
    return TOLERANCE_32 if any(dt.width == 32 for dt in dtypes) else TOLERANCE_64


def _output(case: Case, run: EngineRun, layout: _TensorEntry | None = None) -> DenseTensor:
    """The engine's D over D's distinct labels, the first fastest (the
    oracle's dense order), read through ``layout``, by default D's own."""
    return densify(_view(layout or case.d, run.d_buffer), case.spec.labels_d)[0]


def _index(position: int, extents) -> tuple[int, ...]:
    """A dense position as an index, the first fastest."""
    return tuple(int(i) for i in np.unravel_index(position, extents, order="F"))


def _ordered_detail(case: Case, got: DenseTensor, perturb: float) -> str:
    """Whether the engine's D, ``got``, holds the bits of the contract's
    order (``oracle.ordered_contract``), each shifted by ``perturb`` as the
    exact reference is, NaN's sign and payload aside; else the index where
    it first differs."""
    compute = reduce(dtype_promote, [e.dtype for e in (case.a, case.b, case.c, case.d)])
    want = ordered_contract(*_dense_operands(case), case.alpha, case.beta, compute, case.d.dtype)
    for pos, (g, w) in enumerate(zip(got.elements, want.elements)):
        g, w = complex(g), complex(w + perturb if perturb else w)
        for x, y in ((g.real, w.real), (g.imag, w.imag)):
            if not (x == y and math.copysign(1, x) == math.copysign(1, y) or x != x and y != y):
                index = list(_index(pos, got.extents))
                return f"D's bits differ from the contract's order at index {index}"
    return "D's bits equal the contract's order"


def _max_rel_err(got, want) -> tuple[float, int | None]:
    """Largest relative error of ``got`` against ``want``, position by
    position, and the position where it occurs.  Where either side is not
    finite, a position agrees (error 0) only if each pair of real, and of
    imaginary, parts is equal or both NaN; otherwise its error is inf.
    Finite complex values whose modulus exceeds float's range are compared
    on quartered parts, which keeps the ratio but for subnormal parts."""
    max_rel, worst = 0.0, None
    for pos, (g, w) in enumerate(zip(got, want)):
        if cmath.isfinite(g) and cmath.isfinite(w):
            try:
                rel = abs(g - w) / max(abs(w), 1.0)
            except OverflowError:  # abs() of a modulus beyond float's range
                rel = abs(g / 4 - w / 4) / max(abs(w / 4), 0.25)
        else:
            g, w = complex(g), complex(w)
            parts = ((g.real, w.real), (g.imag, w.imag))
            rel = 0.0 if all(x == y or x != x and y != y for x, y in parts) else math.inf
        if rel > max_rel:
            max_rel, worst = rel, pos
    return max_rel, worst


@dataclass
class CheckResult:
    engine_code: ErrorCode
    oracle_code: ErrorCode
    max_rel_err: float = 0.0
    worst_index: tuple | None = None
    passed: bool = False
    detail: str = ""
    run: EngineRun | None = field(default=None, repr=False, compare=False)


def check_case(
    case: Case, tolerance: float | None = None, perturb: float = 0.0
) -> CheckResult:
    """Run both paths on one case and compare.

    A case on which both paths report the same nonzero code counts as
    agreement (the shared code becomes the process exit code).  A case
    that fails the tolerance fails, and its detail also says whether D
    holds the bits of the contract's summation order (see
    :func:`_ordered_detail`), as an ill-conditioned sum can: then the
    exact sum, not the engine, is what the order departs from.
    """
    run = execute_case(case)
    orun = oracle_case(case)
    if run.code is not ErrorCode.OK or orun.code is not ErrorCode.OK:
        agreed = run.code == orun.code and run.code is not ErrorCode.OK
        detail = "error codes agree" if agreed else (
            f"engine {run.code.name} vs oracle {orun.code.name}"
        )
        return CheckResult(
            run.code,
            orun.code,
            passed=agreed,
            detail=f"{detail}: {run.detail}" if run.detail else detail,
            run=run,
        )
    tol = default_tolerance(case) if tolerance is None else tolerance
    got = _output(case, run)
    max_rel, worst = _max_rel_err(got.elements, [v + perturb for v in orun.dense.elements])
    detail = f"max relative error {max_rel:.3e} (tolerance {tol:.0e})"
    if max_rel > tol:
        detail += "; " + _ordered_detail(case, got, perturb)
    return CheckResult(
        ErrorCode.OK,
        ErrorCode.OK,
        max_rel_err=max_rel,
        worst_index=None if worst is None else _index(worst, got.extents),
        passed=max_rel <= tol,
        detail=detail,
        run=run,
    )


def _exit_code(result: CheckResult) -> int:
    """0 for a clean pass; else the engine's code, else the oracle's, else 1."""
    if result.engine_code is not ErrorCode.OK:
        return int(result.engine_code)
    if result.oracle_code is not ErrorCode.OK:
        return int(result.oracle_code)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# Case generation


def _draw_extents(rng, labels, reduce_labels, uniform: int | None = None):
    """Extents per label under the total and reduce-side work budgets."""
    extent_of = {}
    total = 1
    reduce_total = 1
    order = list(labels)
    rng.shuffle(order)
    for lbl in order:
        cap = max(1, min(8, TOTAL_EXTENT_BUDGET // total))
        if lbl in reduce_labels:
            cap = max(1, min(cap, REDUCE_EXTENT_BUDGET // reduce_total))
        e = uniform if uniform is not None else rng.randint(1, cap)
        e = max(1, min(e, cap))
        extent_of[lbl] = e
        total *= e
        if lbl in reduce_labels:
            reduce_total *= e
    return extent_of


@dataclass
class _Structure:
    labels_a: list[str]
    labels_b: list[str]
    labels_d: list[str]
    extent_of: dict[str, int]


def _make_structure(
    rng,
    n_batch=0,
    n_contracted=0,
    n_free_a=0,
    n_free_b=0,
    n_reduced_a=0,
    n_reduced_b=0,
    uniform_extent: int | None = None,
    min_extent_first_free_a: int | None = None,
) -> _Structure:
    alphabet = iter("abcdefghijklmnopqrstuvwxyz")
    batch = [next(alphabet) for _ in range(n_batch)]
    contracted = [next(alphabet) for _ in range(n_contracted)]
    free_a = [next(alphabet) for _ in range(n_free_a)]
    free_b = [next(alphabet) for _ in range(n_free_b)]
    reduced_a = [next(alphabet) for _ in range(n_reduced_a)]
    reduced_b = [next(alphabet) for _ in range(n_reduced_b)]
    labels = batch + contracted + free_a + free_b + reduced_a + reduced_b
    extent_of = _draw_extents(
        rng, labels, set(contracted + reduced_a + reduced_b), uniform_extent
    )
    if min_extent_first_free_a is not None and free_a:
        extent_of[free_a[0]] = max(extent_of[free_a[0]], min_extent_first_free_a)
    labels_a = batch + contracted + free_a + reduced_a
    labels_b = batch + contracted + free_b + reduced_b
    labels_d = batch + free_a + free_b
    rng.shuffle(labels_a)
    rng.shuffle(labels_b)
    rng.shuffle(labels_d)
    return _Structure(labels_a, labels_b, labels_d, extent_of)


def _view_layout(rng, extents, signs="pos", parent="none"):
    """Strides, base and buffer length for one tensor's view.

    ``parent="same"`` embeds the view in a larger tensor of equal mode
    count; ``"fewer"`` adds extra parent modes fixed by the base offset.
    ``signs`` flips stride directions: "neg" all, "mixed" at least one
    each where possible.
    """
    n = len(extents)
    parent_extents = list(extents)
    offsets = [0] * n
    if parent == "same":
        parent_extents = [e + rng.randint(1, 2) for e in extents]
        offsets = [rng.randint(0, pe - e) for e, pe in zip(extents, parent_extents)]
    extra = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))] if parent == "fewer" else []
    col = column_major_strides(parent_extents + extra)
    if signs == "neg":
        flips = [True] * n
    elif signs == "mixed":
        flips = [rng.random() < 0.5 for _ in range(n)]
        if n >= 2:
            if all(flips):
                flips[rng.randrange(n)] = False
            elif not any(flips):
                flips[rng.randrange(n)] = True
    else:
        flips = [False] * n
    strides, base = [], 0
    for k, e in enumerate(extents):
        s = col[k]
        if flips[k]:
            strides.append(-s)
            base += (offsets[k] + e - 1) * s
        else:
            strides.append(s)
            base += offsets[k] * s
    for k, e in enumerate(extra):
        base += rng.randrange(e) * col[n + k]
    return strides, base, _span(parent_extents + extra, col)


def _random_values(rng, count, dtype: DType):
    # -1 + 2 * r() is random.Random.uniform(-1, 1)'s own formula, draw
    # for draw, without its call per value.
    r = rng.random
    if dtype.is_complex:
        return [[-1 + 2 * r(), -1 + 2 * r()] for _ in range(count)]
    return [-1 + 2 * r() for _ in range(count)]


def _tensor_doc(rng, labels, extent_of, dtype, signs="pos", parent="none", data=True):
    extents = [extent_of[l] for l in labels]
    doc = {"dtype": dtype.value, "extents": extents}
    buffer_len = math.prod(extents)
    if signs != "pos" or parent != "none":
        doc["strides"], base, buffer_len = _view_layout(rng, extents, signs, parent)
        if base:
            doc["base"] = base
    if data:
        doc["data"] = _random_values(rng, buffer_len, dtype)
    return doc


def _scalar_doc(rng, dtype: DType):
    r = rng.random
    if r() < 0.1:
        return 0.0
    if dtype.is_complex:
        return [-1 + 2 * r(), -1 + 2 * r()]
    return -1 + 2 * r()


def _einsum(labels_a, labels_b, labels_d) -> str:
    return "".join(labels_a) + "," + "".join(labels_b) + "->" + "".join(labels_d)


def _assemble(rng, structure: _Structure, dtype: DType, signs="pos", parent="none"):
    """Build a case document from a label structure.

    Layout variants apply to the inputs; C and D take the stride signs
    only, and only when the inputs are not sub-tensor views.
    """
    out_signs = signs if parent == "none" else "pos"
    labels_d, extent_of = structure.labels_d, structure.extent_of
    return {
        "einsum": _einsum(structure.labels_a, structure.labels_b, labels_d),
        "alpha": _scalar_doc(rng, dtype),
        "beta": _scalar_doc(rng, dtype),
        "a": _tensor_doc(rng, structure.labels_a, extent_of, dtype, signs, parent),
        "b": _tensor_doc(rng, structure.labels_b, extent_of, dtype, signs, parent),
        "c": _tensor_doc(rng, labels_d, extent_of, dtype, out_signs),
        "d": _tensor_doc(rng, labels_d, extent_of, dtype, out_signs, data=False),
    }


def _zero_stride(rng, st: _Structure, dtype: DType) -> dict:
    """Category 21: one mode of A or B gets stride 0."""
    doc = _assemble(rng, st, dtype)
    entry = doc[rng.choice(["a", "b"])]
    entry["strides"] = list(column_major_strides(entry["extents"]))
    entry["strides"][rng.randrange(len(entry["strides"]))] = 0
    entry["data"] = _random_values(rng, _span(entry["extents"], entry["strides"]), dtype)
    return doc


def _repeat_label(rng, st: _Structure, dtype: DType) -> dict:
    """Category 23: A or B carries one of its labels twice."""
    labels = rng.choice([st.labels_a, st.labels_b])
    repeat = rng.choice(labels)
    labels.insert(rng.randrange(len(labels) + 1), repeat)
    return _assemble(rng, st, dtype)


def _bump_extent(rng, doc: dict, name: str, mode: int, dtype: DType) -> dict:
    """Grow (at 8 shrink) one extent of a tensor and redraw it dense."""
    entry = doc[name]
    old = entry["extents"][mode]
    entry["extents"][mode] = old + 1 if old < 8 else old - 1
    entry["data"] = _random_values(rng, math.prod(entry["extents"]), dtype)
    entry.pop("strides", None)
    entry.pop("base", None)
    return doc


def _mismatch_b(rng, st: _Structure, dtype: DType) -> dict:
    """Category 26: a contracted label's extent differs between A and B."""
    doc = _assemble(rng, st, dtype)
    victim = rng.choice([l for l in st.labels_a if l in st.labels_b])
    return _bump_extent(rng, doc, "b", st.labels_b.index(victim), dtype)


def _mismatch_c(rng, st: _Structure, dtype: DType) -> dict:
    """Category 27: one extent of C differs from D's."""
    doc = _assemble(rng, st, dtype)
    return _bump_extent(rng, doc, "c", rng.randrange(len(doc["c"]["extents"])), dtype)


def _alias_d(rng, st: _Structure, dtype: DType) -> dict:
    """Category 28: a mode of D of extent 2 or more gets stride 0."""
    doc = _assemble(rng, st, dtype)
    extents = doc["d"]["extents"]
    aliased = rng.choice([k for k, e in enumerate(extents) if e >= 2])
    doc["d"]["strides"] = list(column_major_strides(extents))
    doc["d"]["strides"][aliased] = 0
    return doc


def _swap_operands(case: Case, rng=None) -> tuple[Case, _TensorEntry]:
    """Category 3's transform: A and B trade places; ``rng`` is not drawn
    from.  Returns the transformed case and the layout that reads its D in
    this case's order: D's own."""
    spec = case.spec._replace(labels_a=case.spec.labels_b, labels_b=case.spec.labels_a)
    return replace(case, spec=spec, a=case.b, b=case.a), case.d


def _permute_output(case: Case, rng: random.Random) -> tuple[Case, _TensorEntry] | None:
    """Category 4's transform: C's and D's modes are permuted, never to
    the identity, D dense from offset 0; None where D has fewer than two
    modes.  Returns the transformed case and the layout that reads its D
    in this case's order: D's extents with the inverse-permuted strides."""
    n = len(case.spec.labels_d)
    if n < 2:
        return None
    perm = list(range(n))
    while perm == list(range(n)):
        rng.shuffle(perm)

    def permuted(values) -> tuple:
        return tuple(values[k] for k in perm)

    labels_d, extents = permuted(case.spec.labels_d), permuted(case.d.extents)
    strides = column_major_strides(extents)
    inverse = sorted(range(n), key=perm.__getitem__)
    return replace(
        case,
        spec=case.spec._replace(labels_c=labels_d, labels_d=labels_d),
        c=replace(case.c, extents=permuted(case.c.extents), strides=permuted(case.c.strides)),
        d=replace(case.d, extents=extents, strides=strides, base=0),
    ), replace(case.d, strides=tuple(strides[k] for k in inverse), base=0)


@dataclass(frozen=True)
class _Recipe:
    """One conformance category: its title, how to generate its cases and
    how to judge them.

    ``counts`` are ``_make_structure`` arguments; a ``(lo, hi)`` pair is
    drawn with ``rng.randint``, in order, and a list of variants is first
    narrowed by ``rng.choice``.  ``fix`` builds the document in place of
    ``_assemble`` where a category needs more than a layout variant.
    ``expect`` is the code both paths must return.  ``transform`` is a
    metamorphic check, ``(what, apply, tolerance)``: ``apply(case, rng)``
    gives a transformed case and the layout that reads its D in the case's
    order, or None where the check does not apply, and the engine's D for
    the two must agree within ``tolerance``, where None is the case's.
    """

    title: str
    counts: dict | list
    signs: str = "pos"
    parent: str = "none"
    dtype: DType = DType.R32
    fix: Callable | None = None
    expect: ErrorCode | None = None
    transform: tuple | None = None


_BASIC = dict(n_contracted=(1, 2), n_free_a=(1, 2), n_free_b=(1, 2))
_ONE_EACH = dict(n_contracted=1, n_free_a=1, n_free_b=1)

# The conformance categories, the one definition of each.
CATEGORIES = {
    1: _Recipe("pure elementwise product", dict(n_batch=(1, 3))),
    2: _Recipe("basic contractions", _BASIC),
    3: _Recipe("commutativity under operand swap", _BASIC,
               transform=("operand swap", _swap_operands, None)),
    4: _Recipe("output label permutations", dict(n_contracted=(0, 1), n_free_a=(1, 2), n_free_b=1),
               transform=("output permutation", _permute_output, 0.0)),
    5: _Recipe("uniform extents", dict(_ONE_EACH, uniform_extent=(2, 8))),
    6: _Recipe("outer products", dict(n_free_a=(1, 2), n_free_b=(1, 2))),
    7: _Recipe("fully contracted output", dict(n_contracted=(1, 3))),
    8: _Recipe("zero-mode tensors", [  # A, B or D has no modes
        dict(n_free_b=(1, 2)),
        dict(n_free_a=(1, 2)),
        dict(n_contracted=(1, 2)),
    ]),
    9: _Recipe("one-mode tensors", [  # A, B or D has one mode
        dict(n_contracted=1, n_free_b=(1, 2)),
        dict(n_contracted=1, n_free_a=(1, 2)),
        dict(n_contracted=(0, 1), n_free_a=1),
    ]),
    10: _Recipe("sub-tensor views, same mode count", _ONE_EACH, parent="same"),
    11: _Recipe("sub-tensor views, fewer modes", _ONE_EACH, parent="fewer"),
    12: _Recipe("negative strides", _ONE_EACH, signs="neg"),
    13: _Recipe("negative-stride sub-tensors, same mode count", _ONE_EACH, signs="neg",
                parent="same"),
    14: _Recipe("negative-stride sub-tensors, fewer modes", _ONE_EACH, signs="neg",
                parent="fewer"),
    15: _Recipe("mixed-sign strides", _ONE_EACH, signs="mixed"),
    16: _Recipe("mixed-sign sub-tensors, same mode count", _ONE_EACH, signs="mixed",
                parent="same"),
    17: _Recipe("mixed-sign sub-tensors, fewer modes", _ONE_EACH, signs="mixed",
                parent="fewer"),
    18: _Recipe("double precision", _BASIC, dtype=DType.R64),
    19: _Recipe("single-precision complex", _BASIC, dtype=DType.C32),
    20: _Recipe("double-precision complex", _BASIC, dtype=DType.C64),
    21: _Recipe("zero stride in an input", _BASIC, fix=_zero_stride),
    22: _Recipe("input-only labels (reductions)",
                dict(n_contracted=(0, 1), n_free_a=(0, 1), n_free_b=(0, 1),
                     n_reduced_a=(1, 2), n_reduced_b=(0, 1))),
    23: _Recipe("repeated labels", dict(n_contracted=1, n_free_a=1, n_free_b=(0, 1)),
                fix=_repeat_label),
    24: _Recipe("elementwise product with free labels",
                dict(n_batch=(1, 2), n_free_a=(1, 2), n_free_b=(0, 1))),
    25: _Recipe("elementwise product with contracted labels",
                dict(n_batch=(1, 2), n_contracted=(1, 2))),
    26: _Recipe("error: extent mismatch", _BASIC, fix=_mismatch_b,
                expect=ErrorCode.ERR_EXTENT_MISMATCH),
    27: _Recipe("error: C does not match D",
                dict(n_contracted=(1, 2), n_free_a=1, n_free_b=(0, 1)),
                fix=_mismatch_c, expect=ErrorCode.ERR_OUTPUT_MISMATCH),
    28: _Recipe("error: aliasing within D",
                dict(n_contracted=(0, 1), n_free_a=1, n_free_b=(0, 1), min_extent_first_free_a=2),
                fix=_alias_d, expect=ErrorCode.ERR_ALIASING),
}


def generate_case(category: int, seed) -> dict:
    """Emit one reproducible random case for a conformance category, a
    key of ``CATEGORIES``."""
    if category not in CATEGORIES:
        raise ValueError(f"no conformance category {category!r}")
    rng = random.Random(f"{seed}:{category}")
    recipe = CATEGORIES[category]
    counts = recipe.counts
    if isinstance(counts, list):
        counts = rng.choice(counts)
    st = _make_structure(
        rng, **{k: rng.randint(*v) if isinstance(v, tuple) else v for k, v in counts.items()}
    )
    if recipe.fix is not None:
        doc = recipe.fix(rng, st, recipe.dtype)
    else:
        doc = _assemble(rng, st, recipe.dtype, recipe.signs, recipe.parent)
    doc["category"] = category
    doc["seed"] = str(seed)
    if recipe.expect is not None:
        doc["expect_error"] = int(recipe.expect)
    return doc


# ---------------------------------------------------------------------------
# Suite


def _check_instance(doc: dict, category: int, tolerance: float | None) -> CheckResult:
    recipe = CATEGORIES[category]
    case = parse_case(doc)
    result = check_case(case, tolerance)
    expected = recipe.expect
    if expected is not None:
        result.passed = result.engine_code == expected and result.oracle_code == expected
        if not result.passed:
            result.detail = (
                f"expected {expected.name}, engine {result.engine_code.name},"
                f" oracle {result.oracle_code.name}"
            )
        return result
    if not result.passed or recipe.transform is None:
        return result

    # Metamorphic check: the engine's D for the transformed case, read in
    # this case's order, must match this case's D within the tolerance.
    what, apply, tol = recipe.transform
    transformed = apply(case, random.Random(f"{doc.get('seed')}:{category}:perm"))
    if transformed is None:
        return result
    other, layout = transformed
    if tol is None:
        tol = default_tolerance(case) if tolerance is None else tolerance
    other_run = execute_case(other)
    if result.engine_code is not ErrorCode.OK or other_run.code is not ErrorCode.OK:
        result.passed = False
        result.detail = f"{what} failed to execute"
        return result
    max_rel, _ = _max_rel_err(
        _output(case, result.run).elements, _output(case, other_run, layout).elements
    )
    if max_rel > tol:
        result.passed = False
        result.detail = f"{what} diverged ({max_rel:.3e})"
    return result


def run_suite(
    seed: int,
    iterations: int,
    categories=None,
    tolerance: float | None = None,
    log=None,
) -> tuple[int, dict]:
    """Generate and check ``iterations`` instances of each category, of
    every key of ``CATEGORIES`` where ``categories`` is None; an empty
    ``categories`` runs none.

    Returns (exit_code, report).  The report is fully deterministic for
    a given (seed, iterations, categories) triple.
    """
    chosen = list(CATEGORIES if categories is None else categories)
    report = {
        "seed": seed,
        "iterations": iterations,
        "instances": 0,
        "categories": {},
        "failures": [],
    }
    exit_code = 0
    for category in chosen:
        passed = failed = 0
        max_rel = 0.0
        start = time.perf_counter()
        for i in range(iterations):
            doc = generate_case(category, f"{seed}.{i}")
            result = _check_instance(doc, category, tolerance)
            report["instances"] += 1
            max_rel = max(max_rel, result.max_rel_err)
            if result.passed:
                passed += 1
                continue
            failed += 1
            report["failures"].append(
                {
                    "category": category,
                    "instance": i,
                    "detail": result.detail,
                    "engine_code": int(result.engine_code),
                    "oracle_code": int(result.oracle_code),
                    "case": doc,
                }
            )
            if exit_code == 0:
                exit_code = _exit_code(result)
        report["categories"][str(category)] = {
            "title": CATEGORIES[category].title,
            "passed": passed,
            "failed": failed,
            "max_rel_err": max_rel,
        }
        if log is not None:
            state = "ok" if failed == 0 else "FAIL"
            ms = (time.perf_counter() - start) * 1e3
            print(
                f"category {category:2d} ({CATEGORIES[category].title}): "
                f"{passed}/{passed + failed} {state}, {ms:.1f} ms",
                file=log,
            )
    return exit_code, report


# ---------------------------------------------------------------------------
# Entry points


def _print_json(doc, indent: int | None = None) -> None:
    """Print ``doc`` as strict JSON: each non-finite float becomes the
    string "NaN", "Infinity" or "-Infinity", the name ``json`` gives it."""
    strict = json.loads(json.dumps(doc), parse_constant=str)
    print(json.dumps(strict, indent=indent, allow_nan=False))


def _cmd_run(args) -> int:
    case = load_case(args.case)
    run = execute_case(case)
    if run.code is not ErrorCode.OK:
        raise TappError(run.code, run.detail or None)
    doc = {
        "d": [_emit_element(v, case.d.dtype) for v in run.d_buffer.tolist()],
        "status": {
            "seconds_elapsed": run.status.seconds_elapsed,
            "elements_written": run.status.elements_written,
            "multiply_adds": run.status.multiply_adds,
            "error": int(run.status.error),
        },
    }
    _print_json(doc)
    return 0


def _cmd_gen(args) -> int:
    doc = generate_case(args.category, args.seed)
    _print_json(doc, indent=2)
    return 0


def _cmd_check(args) -> int:
    result = check_case(load_case(args.case), args.tolerance, args.perturb)
    _print_json(
        {
            "engine_code": int(result.engine_code),
            "oracle_code": int(result.oracle_code),
            "max_rel_err": result.max_rel_err,
            "worst_index": None if result.worst_index is None else list(result.worst_index),
            "passed": result.passed,
            "detail": result.detail,
        }
    )
    return _exit_code(result)


def _cmd_suite(args) -> int:
    categories = [args.case_filter] if args.case_filter else None
    code, report = run_suite(
        args.seed, args.iterations, categories, args.tolerance, log=sys.stderr
    )
    _print_json(report, indent=2)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tapp", description="strided tensor contraction conformance tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one case file")
    p_run.add_argument("case", help="path to a case JSON document")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a random conformance case")
    p_gen.add_argument("category", type=int, choices=CATEGORIES, metavar="CATEGORY",
                       help="a key of cli.CATEGORIES")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check", help="compare engine and oracle on a case")
    p_check.add_argument("case", help="path to a case JSON document")
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.add_argument("--perturb", type=float, default=0.0)
    p_check.set_defaults(func=_cmd_check)

    p_suite = sub.add_parser("suite", help="run the randomized conformance suite")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--iterations", type=int, default=10)
    p_suite.add_argument("--case", dest="case_filter", type=int, choices=CATEGORIES,
                         metavar="CATEGORY")
    p_suite.add_argument("--tolerance", type=float, default=None)
    p_suite.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TappError as err:  # a case that cannot be loaded, or a failed run
        _print_json({"error": int(err.code), "message": str(err)})
        return int(err.code)


if __name__ == "__main__":
    sys.exit(main())
