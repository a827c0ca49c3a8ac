"""Time a fixed mix of planned ops through tapp's public API and count the
minor page faults each call takes: r32, r64, c32 and c64 32x32x32 matmuls,
outer products with short rows (32 cells) and large contracted steps,
which run with a 1,024-element ufunc buffer (``engine._SHORT_ROW_BUFFER``),
a c64 128x128 transpose (unary ``ij->ji``) at complex alpha, two r64
256x256 ops whose output is one 512 KiB block: the outer product
``i,j->ij`` and the transpose-add (binary ``ij,ji->ji``, beta 0), two
outer products whose rows hold at least 128 cells, which run with a
128-element buffer (``engine._ROW_BUFFER``): the c64 256x256 ``i,j->ij``
at complex alpha and beta, and an r64 ``ij,jk->ik`` with i=128, j=16,
k=256, and two tiny ops, whose time is mostly the fixed cost of a call:
an r64 ``ij,jk->ik`` with i=2, j=3, k=2 at beta 0.5, and a c64 4x4
transpose-add (binary ``ij,ji->ji``) at complex alpha and beta.  The ops
run round-robin, as a benchmark client would call them; after a
warm-up, each op's line gives its median time per call in that pass
(``median_us``) and its minor faults per call, read with
``resource.getrusage`` around each call.  A fault here is a fresh page of
a temporary that the allocator took from the kernel.  Round-robin, a tiny
op's time is mostly the cache refill after the large ops, so each line
also gives the median of the op's own calls run back to back after a
warm-up of its own (``alone_us``), its fixed cost.  Each line names the
ufunc buffer the op's plan sets (``ContractionPlan.bufsize``), in
elements, or "numpy" where it keeps numpy's own; each round runs every
op whose plan sets one once more with numpy's own, the two in
alternating order, and ``numpy_us`` gives the median of those calls,
which re-checks the buffer rule at ``engine._ROW_BUFFER``.  The header
names numpy's version, as the ufunc buffer's behaviour is numpy's, and
says which median is which.  Run from the repository root::

    python tools/faults.py [--calls N] [--warmup N]
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import resource
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import tapp  # noqa: E402

_NP = {"r32": np.float32, "r64": np.float64, "c32": np.complex64, "c64": np.complex128}


def _op(handle, executor, rng, kind: str, labels: str, dtype: str, extents: dict, beta=0.0):
    """The op's name, a function that executes it once, at ``beta`` where
    the op has one, and its plan's ufunc buffer (0 for numpy's own)."""
    head, out = labels.split("->")
    names = head.split(",") + [out] * (2 if kind == "product" else 1)  # binary: A, B, C
    infos, buffers = [], []
    for ls in names:
        shape = [extents[l] for l in ls]
        infos.append(tapp.tapp_create_tensor_info(handle, tapp.DType(dtype), len(shape), shape))
        re, im = rng.uniform(-1, 1, (2, int(np.prod(shape))))
        buffers.append((re + 1j * im if dtype[0] == "c" else re).astype(_NP[dtype]))
    args = [x for pair in zip(infos, names) for x in pair]
    alpha = complex(1.25, -0.5) if dtype[0] == "c" else 1.25
    if kind == "product":
        desc = tapp.tapp_create_contraction(handle, *args)
        a, b, c, d = buffers
        run = partial(tapp.tapp_execute_product, desc, executor, alpha, a, b, beta, c, d)
    elif kind == "binary":
        desc = tapp.tapp_create_binary_op(handle, *args)
        a, b, c = buffers
        run = partial(tapp.tapp_execute_binary, desc, executor, alpha, a, beta, b, c)
    else:
        desc = tapp.tapp_create_unary_op(handle, *args)
        run = partial(tapp.tapp_execute_unary, desc, executor, alpha, *buffers)
    if isinstance(desc, tapp.ErrorCode):
        raise RuntimeError(f"planning {dtype} {labels} failed: {desc!r}")
    size = "x".join(str(extents[l]) for l in dict.fromkeys(head.replace(",", "")))
    return f"{dtype} {labels} {size}", run, desc.plan.bufsize


def _with_numpys_buffer(run):
    """``run`` on a copy of its descriptor whose plan keeps numpy's own
    ufunc buffer."""
    desc = copy.copy(run.args[0])
    desc.plan = dataclasses.replace(desc.plan, bufsize=0)
    return partial(run.func, desc, *run.args[1:])


def _call(name: str, run) -> float:
    """The seconds one ``run()`` of op ``name`` takes; it must return OK."""
    t0 = perf_counter()
    code = run()
    seconds = perf_counter() - t0
    if code != tapp.ErrorCode.OK:
        raise RuntimeError(f"{name} returned {code!r}")
    return seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=500, help="timed calls per op")
    parser.add_argument("--warmup", type=int, default=20, help="untimed calls per op first")
    args = parser.parse_args()
    handle = tapp.tapp_create_handle()
    executor = tapp.tapp_get_default_executor(handle)
    rng = np.random.default_rng(0)
    cube, square = dict(i=32, j=32, k=32), dict(i=128, j=128)
    ops = [_op(handle, executor, rng, "product", "ij,jk->ik", dt, cube)
           for dt in ("r32", "r64", "c32", "c64")]
    ops.append(_op(handle, executor, rng, "unary", "ij->ji", "c64", square))
    wide = dict(i=256, j=256)
    ops.append(_op(handle, executor, rng, "product", "i,j->ij", "r64", wide))
    ops.append(_op(handle, executor, rng, "binary", "ij,ji->ji", "r64", wide))
    ops.append(_op(handle, executor, rng, "product", "i,j->ij", "c64", wide, 0.5 + 0.75j))
    long_k = dict(i=128, j=16, k=256)
    ops.append(_op(handle, executor, rng, "product", "ij,jk->ik", "r64", long_k))
    tiny = dict(i=2, j=3, k=2)
    ops.append(_op(handle, executor, rng, "product", "ij,jk->ik", "r64", tiny, 0.5))
    ops.append(_op(handle, executor, rng, "binary", "ij,ji->ji", "c64", dict(i=4, j=4), 0.5 + 0.75j))
    # Each op's runs in a round: its plan's, then, where the plan sets a
    # buffer, numpy's own, the two in alternating order.
    variants = [[run, _with_numpys_buffer(run)] if size else [run] for _, run, size in ops]
    for _ in range(args.warmup):
        for runs in variants:
            for run in runs:
                run()
    times = [[[], []] for _ in ops]
    faults = [0] * len(ops)
    for k in range(args.calls):
        for n, ((name, _, _), runs) in enumerate(zip(ops, variants)):
            for v in sorted(range(len(runs)), reverse=k % 2 == 1):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                times[n][v].append(_call(name, runs[v]))
                if v == 0:
                    faults[n] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    alone = []
    for name, run, _ in ops:
        for _ in range(args.warmup):
            run()
        alone.append(statistics.median(_call(name, run) for _ in range(args.calls)))
    print(f"numpy {np.__version__}, Python {sys.version.split()[0]}")
    print("median_us: round-robin with the other ops; alone_us: the op's calls back to back;"
          " buffer: the ufunc buffer its plan sets, in elements;"
          " numpy_us: round-robin with numpy's own buffer")
    print(f"{'op':28s} {'median_us':>10s} {'alone_us':>10s} {'faults/call':>12s}"
          f" {'buffer':>7s} {'numpy_us':>10s}")
    for (name, _, size), (t, u), a, f in zip(ops, times, alone, faults):
        numpy_us = f" {statistics.median(u) * 1e6:10.1f}" if u else ""
        print(f"{name:28s} {statistics.median(t) * 1e6:10.1f} {a * 1e6:10.1f}"
              f" {f / args.calls:12.2f} {size or 'numpy':>7}{numpy_us}")


if __name__ == "__main__":
    main()
