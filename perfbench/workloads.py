"""The benchmark's four workloads: inputs, set-up calls, timed calls, references.

Every workload is a list of calls run round-robin.  A call object offers:

* ``setup(tapp, handle, executor)`` -- the tapp calls made before the
  timed phase (timed as part of ``setup_s``);
* ``before()``     -- untimed preparation, such as poisoning the output;
* ``call(round)``  -- the timed tapp call(s); returns what ``after`` checks;
* ``after(result, round)`` -- untimed check of one call; False on failure;
* ``verify()``     -- untimed check of the first output against a reference
  that shares no code with tapp;
* ``work(round)``  -- multiply-adds of the call (see ``work_of``);
* ``digest``       -- bytes of the first output, for the run's SHA-256.

Inputs are drawn from one ``numpy.random.Generator`` seeded by ``--seed``;
shapes are fixed per workload so that timings do not depend on the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

NP_DTYPES = {
    "r32": np.float32,
    "r64": np.float64,
    "c32": np.complex64,
    "c64": np.complex128,
}
TOLERANCE_64 = 1e-12
TOLERANCE_32 = 1e-4

EXECUTE = {
    "product": "tapp_execute_product",
    "binary": "tapp_execute_binary",
    "unary": "tapp_execute_unary",
}
CREATE = {
    "product": "tapp_create_contraction",
    "binary": "tapp_create_binary_op",
    "unary": "tapp_create_unary_op",
}


def work_of(labels_and_extents, alpha) -> int:
    """Multiply-adds of one operation: the product of the extents of the
    distinct labels of its input operands (A and B of a contraction or a
    binary op, A of a unary op), i.e. the size of its einsum iteration
    space; zero when ``alpha`` is zero, since the inputs are then unread."""
    if alpha == 0:
        return 0
    extent_of = {}
    for labels, extents in labels_and_extents:
        extent_of.update(zip(labels, extents))
    return math.prod(extent_of.values())


def strided(buffer: np.ndarray, base: int, extents, strides) -> np.ndarray:
    """The logical tensor as a numpy view of ``buffer`` (no copy)."""
    item = buffer.itemsize
    return np.lib.stride_tricks.as_strided(
        buffer[base:], shape=tuple(extents), strides=[s * item for s in strides]
    )


def _column_major(extents) -> tuple[int, ...]:
    strides, acc = [], 1
    for e in extents:
        strides.append(acc)
        acc *= e
    return tuple(strides)


def _random(rng: np.random.Generator, dtype: str, count: int) -> np.ndarray:
    values = rng.uniform(-1.0, 1.0, count)
    if dtype[0] == "c":
        values = values + 1j * rng.uniform(-1.0, 1.0, count)
    return values.astype(NP_DTYPES[dtype])


def _scalar(rng: np.random.Generator, is_complex: bool, zero: bool = False):
    if zero:
        return 0.0
    re = float(rng.uniform(0.5, 1.5))
    return complex(re, float(rng.uniform(-0.5, 0.5))) if is_complex else re


class Tensor:
    """A strided view inside a flat buffer of exactly the needed length,
    plus ``pad`` elements before and after the reachable window."""

    def __init__(self, rng, dtype, extents, strides=None, pad=(0, 0)):
        self.dtype = dtype
        self.extents = tuple(extents)
        self.strides = _column_major(self.extents) if strides is None else tuple(strides)
        lo = sum(min(0, s * (e - 1)) for e, s in zip(self.extents, self.strides))
        hi = sum(max(0, s * (e - 1)) for e, s in zip(self.extents, self.strides))
        self.base = pad[0] - lo
        self.buffer = _random(rng, dtype, self.base + hi + 1 + pad[1])

    @property
    def data(self):
        return (self.buffer, self.base)

    def view(self) -> np.ndarray:
        return strided(self.buffer, self.base, self.extents, self.strides)


class Operation:
    """One contraction, binary or unary op over concrete tensors.

    ``tensors`` and ``labels`` follow the API's argument order: (A, B, C, D)
    for a contraction, (A, B, C) for a binary op, (A, B) for a unary op.
    The last tensor is the output.
    """

    def __init__(self, kind, labels, tensors, alpha, beta=0.0):
        self.kind = kind
        self.labels = tuple(labels)
        self.tensors = tuple(tensors)
        self.alpha = alpha
        self.beta = beta

    @property
    def out(self) -> Tensor:
        return self.tensors[-1]

    @property
    def work(self) -> int:
        n = 1 if self.kind == "unary" else 2
        return work_of(
            [(l, t.extents) for l, t in zip(self.labels[:n], self.tensors[:n])], self.alpha
        )

    def create(self, tapp, handle):
        """Tensor infos and the operation descriptor; an ErrorCode on failure."""
        args = []
        for labels, t in zip(self.labels, self.tensors):
            info = tapp.tapp_create_tensor_info(
                handle, tapp.DType(t.dtype), len(t.extents), t.extents, t.strides
            )
            if isinstance(info, tapp.ErrorCode):
                return info
            args += [info, labels]
        return getattr(tapp, CREATE[self.kind])(handle, *args)

    def execute_args(self, desc, executor):
        """The name of the execute function and its full argument tuple."""
        data = [t.data for t in self.tensors]
        if self.kind == "product":
            a, b, c, d = data
            args = (self.alpha, a, b, self.beta, c, d)
        elif self.kind == "binary":
            a, b, c = data
            args = (self.alpha, a, self.beta, b, c)
        else:
            args = (self.alpha, *data)
        return EXECUTE[self.kind], (desc, executor, *args)

    def execute(self, tapp, desc, executor):
        name, args = self.execute_args(desc, executor)
        return getattr(tapp, name)(*args)

    def reference(self) -> np.ndarray:
        """``alpha * einsum(inputs) [+ beta * update]`` with numpy, in 64-bit."""
        wide = np.complex128 if any(t.dtype[0] == "c" for t in self.tensors) else np.float64
        n = 2 if self.kind == "product" else 1
        ins = ",".join(self.labels[:n])
        ref = self.alpha * np.einsum(
            f"{ins}->{self.labels[-1]}", *[t.view().astype(wide) for t in self.tensors[:n]]
        )
        if self.kind != "unary" and self.beta != 0:
            update = self.tensors[2] if self.kind == "product" else self.tensors[1]
            ref = ref + self.beta * update.view().astype(wide)
        return ref

    @property
    def tolerance(self) -> float:
        if any(t.dtype in ("r32", "c32") for t in self.tensors):
            return TOLERANCE_32
        return TOLERANCE_64


class _OperationCall:
    """Shared checks of calls whose output is one operation's output view."""

    def __init__(self, op: Operation):
        self.op = op
        self.digest = None
        self._out = op.out.view()  # aliases the output buffer
        self._nan = np.nan if op.out.dtype[0] == "r" else complex(np.nan, np.nan)

    def before(self):
        self._out[...] = self._nan

    def after(self, code, _round) -> bool:
        if code != 0:
            return False
        got = self._out.tobytes()
        if self.digest is None:
            self.digest = got
            return True
        return got == self.digest

    def verify(self) -> bool:
        if self.digest is None:
            return False
        got = np.frombuffer(self.digest, dtype=self._out.dtype).reshape(self._out.shape)
        ref = self.op.reference()
        err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        return bool(np.all(err <= self.op.tolerance))

    def work(self, _round) -> int:
        return self.op.work


class PlannedCall(_OperationCall):
    """Plan once in set-up, then execute on every call."""

    def setup(self, tapp, handle, executor):
        desc = self.op.create(tapp, handle)
        if isinstance(desc, tapp.ErrorCode):
            raise RuntimeError(f"set-up of a {self.op.kind} op failed: {desc!r}")
        self._tapp = tapp
        self._name, self._args = self.op.execute_args(desc, executor)

    def call(self, _round):
        # The function is looked up on each call, so that the traced run's
        # wrapper of tapp.tapp_execute_* is the one called.
        return getattr(self._tapp, self._name)(*self._args)


class OneShotCall(_OperationCall):
    """Create tensor infos and a descriptor, execute once, drop them."""

    def setup(self, tapp, handle, executor):
        self.tapp, self.handle, self.executor = tapp, handle, executor

    def call(self, _round):
        desc = self.op.create(self.tapp, self.handle)
        if isinstance(desc, self.tapp.ErrorCode):
            return desc
        return self.op.execute(self.tapp, desc, self.executor)


class SuiteCall:
    """One generate-and-check instance of one conformance category."""

    def __init__(self, seed: int, category: int):
        self.seed, self.category = seed, category
        self.digest = None

    def setup(self, tapp, handle, executor):
        self.cli = tapp.cli

    def _suite_seed(self, round_) -> int:
        return self.seed * 100_000 + round_

    def before(self):
        pass

    def call(self, round_):
        return self.cli.run_suite(self._suite_seed(round_), 1, [self.category])

    def after(self, result, round_) -> bool:
        code, report = result
        if round_ == 0 and self.digest is None:
            self.digest = json.dumps(report, sort_keys=True).encode()
        return code == 0 and report["instances"] == 1 and not report["failures"]

    def verify(self) -> bool:
        return self.digest is not None

    def work(self, round_) -> int:
        if self.category in (26, 27, 28):  # expected-error categories
            return 0
        doc = self.cli.generate_case(self.category, f"{self._suite_seed(round_)}.0")
        head, _ = doc["einsum"].replace(" ", "").split("->")
        labels_a, labels_b = head.split(",")
        alpha = doc["alpha"]
        alpha = complex(*alpha) if isinstance(alpha, list) else alpha
        return work_of(
            [(labels_a, doc["a"]["extents"]), (labels_b, doc["b"]["extents"])], alpha
        )


class Workload:
    """The calls of one workload plus what its set-up imports and creates."""

    def __init__(self, calls, modules=("tapp",), trace_rounds=1):
        self.calls = calls
        self.modules = modules
        self.trace_rounds = trace_rounds

    def setup(self, tapp):
        handle = tapp.tapp_create_handle()
        executor = tapp.tapp_get_default_executor(handle)
        for call in self.calls:
            call.setup(tapp, handle, executor)


def _product(rng, labels, dtypes, extents, beta_zero, layouts=None):
    """A contraction: ``labels`` like "ij,jk->ik"; C and D carry D's labels."""
    head, lout = labels.split("->")
    la, lb = head.split(",")
    shapes = [tuple(extents[l] for l in ls) for ls in (la, lb, lout, lout)]
    layouts = layouts or [{}] * 4
    tensors = [Tensor(rng, dt, sh, **lay) for dt, sh, lay in zip(dtypes, shapes, layouts)]
    cplx = any(dt[0] == "c" for dt in dtypes)
    return Operation(
        "product", (la, lb, lout, lout), tensors,
        _scalar(rng, cplx), _scalar(rng, cplx, zero=beta_zero),
    )


def _binary(rng, la, lout, dtype, extents, beta_zero):
    """``C := alpha*A + beta*B`` with B and C carrying ``lout``."""
    tensors = [Tensor(rng, dtype, tuple(extents[l] for l in ls)) for ls in (la, lout, lout)]
    cplx = dtype[0] == "c"
    return Operation(
        "binary", (la, lout, lout), tensors,
        _scalar(rng, cplx), _scalar(rng, cplx, zero=beta_zero),
    )


def _unary(rng, la, lout, dtype, extents):
    tensors = [Tensor(rng, dtype, tuple(extents[l] for l in ls)) for ls in (la, lout)]
    return Operation("unary", (la, lout), tensors, _scalar(rng, dtype[0] == "c"))


def steady_large(seed: int, small: bool = False) -> Workload:
    """Plan once, then execute ops whose loops do ~10^4-10^5 multiply-adds."""
    rng = np.random.default_rng(seed)
    n, m, h = (4, 8, 2) if small else (32, 128, 16)
    sq = {"i": n, "j": n, "k": n}
    half = {"b": 8, "i": h, "j": h, "k": h, "r": 8}
    wide = {"i": m, "j": m, "r": 2}
    neg = [{"strides": (-1, -n), "pad": (n, n)}, {"strides": (-1, n), "pad": (3, 5)}, {}, {}]
    lead = n + 8  # sub-views: the top-left n x n block of a (n+8)-row parent
    sub = [{"strides": (1, lead), "pad": (2, 7)}] * 4
    ops = [
        _product(rng, "ij,jk->ik", ["r32"] * 4, sq, beta_zero=True),
        _product(rng, "ij,jk->ik", ["r64"] * 4, sq, beta_zero=True),
        _product(rng, "ij,jk->ik", ["c32"] * 4, sq, beta_zero=False),
        _product(rng, "ij,jk->ik", ["c64"] * 4, sq, beta_zero=True),
        _product(rng, "ij,jk->ik", ["r32", "r64", "c32", "c64"], sq, beta_zero=False),
        _product(rng, "bij,bjk->bik", ["r64"] * 4, half, beta_zero=True),
        _product(rng, "ijr,jk->ik", ["r64"] * 4, half, beta_zero=False),
        _product(rng, "iij,jk->ik", ["r64"] * 4, sq, beta_zero=True),
        _product(rng, "ij,jk->ik", ["r64"] * 4, sq, beta_zero=True, layouts=neg),
        _product(rng, "ij,jk->ik", ["r64"] * 4, sq, beta_zero=False, layouts=sub),
        _binary(rng, "ij", "ji", "r64", wide, beta_zero=False),
        _unary(rng, "rij", "ji", "r32", wide),
        _unary(rng, "ij", "ji", "c64", wide),
    ]
    return Workload([PlannedCall(op) for op in ops])


def steady_tiny(seed: int, small: bool = False) -> Workload:
    """Plan once, then execute ops with at most 16 output elements on
    buffers exactly as long as the view span."""
    rng = np.random.default_rng(seed)
    ops = []
    for dt, zero in (("r32", True), ("r64", False), ("c32", True), ("c64", False)):
        ops.append(_product(rng, "ij,jk->ik", [dt] * 4, {"i": 2, "j": 3, "k": 2}, zero))
        ops.append(_binary(rng, "ij", "ji", dt, {"i": 4, "j": 4}, not zero))
        ops.append(_unary(rng, "ijk", "ki", dt, {"i": 2, "j": 2, "k": 2}))
    ops.append(_product(rng, "i,i->", ["r64"] * 4, {"i": 4}, beta_zero=False))
    return Workload([PlannedCall(op) for op in ops], trace_rounds=50)


def oneshot_wide(seed: int, small: bool = False) -> Workload:
    """Each call creates infos and a descriptor, executes once, drops them."""
    rng = np.random.default_rng(seed)
    w, big = (8, 1 << 10) if small else (256, 1 << 20)
    sq = {"i": w, "j": w, "k": 2}
    tiny = {"i": 2, "j": 2, "k": 2}

    def inside_big():
        before = int(rng.integers(0, big - 8))
        return {"pad": (before, big - 4 - before)}

    ops = [
        _product(rng, "i,j->ij", ["r64"] * 4, sq, beta_zero=True),
        _product(rng, "i,j->ij", ["c64"] * 4, sq, beta_zero=False),
        _product(rng, "ijk,ijk->ij", ["r64"] * 4, sq, beta_zero=True),
        _binary(rng, "ij", "ji", "r64", sq, beta_zero=True),
        _product(rng, "ij,jk->ik", ["r64"] * 4, tiny, beta_zero=True,
                 layouts=[inside_big() for _ in range(4)]),
    ]
    return Workload([OneShotCall(op) for op in ops])


def conformance_suite(seed: int, small: bool = False) -> Workload:
    """``cli.run_suite`` one instance at a time, cycling all 28 categories."""
    calls = [SuiteCall(seed, category) for category in range(1, 29)]
    return Workload(calls, modules=("tapp", "tapp.cli"), trace_rounds=2)


WORKLOADS = {
    "steady_large": steady_large,
    "steady_tiny": steady_tiny,
    "oneshot_wide": oneshot_wide,
    "conformance_suite": conformance_suite,
}
