#!/usr/bin/env python3
"""Benchmark of tapp: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tapp is imported from its ``src``.
The client issues the next call as soon as the previous one returns (no
think time).  With ``--trace 0`` the last line of standard output is the
end-to-end result; with ``--trace 1`` the per-layer result of a traced run
(see perfbench/README.md).  A line before it holds details that are not
metrics: sample count, output digest, versions, thread cap.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
MIN_CALLS = 100  # p90 then has at least ten samples beyond it
MAX_TIMED_SECONDS = 120.0  # keeps a run within its time limit on a slow machine
# Set-up repetitions of each of the two batches of an untraced run.
MIN_SETUP_REPS, MAX_SETUP_REPS, SETUP_SECONDS = 6, 100, 2.0
PROBE_NOMINAL_S = 1e-4  # the probe loop's time at the nominal machine speed
PROBE_EVERY_S = 0.01  # one probe per this much timed work, at least one per round
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
_PROBE_A = [float(i % 7) - 3.0 for i in range(64)]
_PROBE_B = [0.5 * (i % 5) - 1.0 for i in range(64)]


def _probe_loop() -> float:
    acc = 0.0
    for i in range(1000):
        acc = acc + _PROBE_A[i & 63] * _PROBE_B[(i * 7) & 63]
    return acc


class SpeedProbe:
    """The machine's momentary speed for interpreted code, from a fixed
    pure-Python loop timed between calls.

    On a shared machine the speed of the same code drifts by a quarter or
    more, within seconds and for minutes, far more than a useful regression
    bound.  Every interval the benchmark reports is therefore converted to
    nominal time: multiplied by the probe's nominal time over its median
    time in the samples taken right after that interval.  The loop shares
    no code with tapp, so only the machine moves it.

    The loop is interpreted code, so the conversion holds for tapp's
    interpreted paths only: work done in numpy kernels, or anything that
    slows every Python thread of the process alike, is scaled wrongly.
    The raw times are therefore reported next to the converted ones.
    """

    def __init__(self):
        self.samples = array("d")

    def sample(self, busy_seconds: float = 0.0):
        """One sample per PROBE_EVERY_S of ``busy_seconds``, at least one."""
        for _ in range(max(1, round(busy_seconds / PROBE_EVERY_S))):
            t0 = perf_counter()
            _probe_loop()
            self.samples.append(perf_counter() - t0)

    def scale(self, since: int = 0) -> float:
        """Nominal over median probe time, of the samples from ``since`` on."""
        return PROBE_NOMINAL_S / statistics.median(self.samples[since:])


def import_tapp(modules):
    """A fresh import of tapp (and ``modules``) from this checkout's src."""
    for name in [m for m in sys.modules if m == "tapp" or m.startswith("tapp.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    tapp = sys.modules["tapp"]
    if Path(tapp.__file__).resolve().parent != SRC / "tapp":
        raise ImportError(f"tapp imported from {tapp.__file__}, not from {SRC}")
    return tapp


def set_up(workload, probe: SpeedProbe, raw, nominal, min_reps=1, min_seconds=0.0):
    """Import tapp and make the workload's set-up calls ``min_reps`` times
    or more, until ``min_seconds`` have passed or MAX_SETUP_REPS were made.
    Appends the raw and nominal time of each to ``raw`` and ``nominal``;
    returns the tapp module of the last."""
    reps, spent = 0, 0.0
    while reps < min_reps or (spent < min_seconds and reps < MAX_SETUP_REPS):
        t0 = perf_counter()
        tapp = import_tapp(workload.modules)
        workload.setup(tapp)
        seconds = perf_counter() - t0
        since = len(probe.samples)
        probe.sample(seconds)
        raw.append(seconds)
        nominal.append(seconds * probe.scale(since))
        reps, spent = reps + 1, spent + seconds
        # Free the previous import now, so that peak memory does not grow
        # with the number of repetitions, which depends on machine speed.
        gc.collect()
    return tapp


class Tally:
    """Checks and counts every timed call of a run; keeps raw times and
    each round's conversion to nominal time."""

    def __init__(self, ncalls: int, probe: SpeedProbe):
        # Compact arrays, so that the run's peak memory hardly depends on
        # how many calls it made.
        self.durations = array("d")  # raw, of every call
        self.round_seconds = array("d")  # raw summed call durations per round
        self.round_scale = array("d")  # nominal over raw time, per round
        self.round_work = array("d")
        self.failed = [0] * ncalls  # per call of the round
        self.probe = probe

    def run_round(self, calls, round_, count_work: bool) -> float:
        """One call of each kind, in order; returns their summed nominal time."""
        since = len(self.probe.samples)
        durations, pending, work = [], 0.0, 0
        for i, call in enumerate(calls):
            call.before()
            t0 = perf_counter()
            result = call.call(round_)
            dt = perf_counter() - t0
            durations.append(dt)
            if not call.after(result, round_):
                self.failed[i] += 1
            if count_work:
                work += call.work(round_)
            pending += dt
            if pending >= PROBE_EVERY_S:
                self.probe.sample(pending)
                pending = 0.0
        if pending or len(self.probe.samples) == since:
            self.probe.sample(pending)
        self.durations.extend(durations)
        self.round_seconds.append(sum(durations))
        self.round_scale.append(self.probe.scale(since))
        self.round_work.append(work)
        return self.round_seconds[-1] * self.round_scale[-1]


def measure(tally, workload, seconds: float):
    start = perf_counter()
    round_ = 0
    while True:
        tally.run_round(workload.calls, round_, count_work=True)
        round_ += 1
        elapsed = perf_counter() - start
        if elapsed >= MAX_TIMED_SECONDS or (
            elapsed >= seconds and len(tally.durations) >= MIN_CALLS
        ):
            return


def measure_traced(tally, workload, seconds: float):
    """Alternate an untraced and a traced pass over the same rounds."""
    import layers

    tracer = layers.Tracer()
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for round_ in range(workload.trace_rounds):
            untraced += tally.run_round(workload.calls, round_, count_work=False)
        tracer.install()
        try:
            for round_ in range(workload.trace_rounds):
                traced += tally.run_round(workload.calls, round_, count_work=False)
        finally:
            tracer.remove()
        passes += 1
    raw = tracer.metrics(passes)
    raw["trace.overhead_ratio"] = traced / untraced
    scale = tally.probe.scale()
    per_layer = {k: v * scale if UNITS[k] == "ms" else v for k, v in raw.items()}
    return per_layer, raw, sorted(tracer.missing), passes


def end_to_end(tally, setup_s, setup_raw_s):
    """Nominal metrics (see SpeedProbe) and the same metrics from raw times.

    Throughputs are medians over rounds, which keeps a passing stall of the
    machine from moving them; latencies are quantiles over calls.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_round = len(tally.durations) // len(tally.round_seconds)

    def metrics(round_scale, setup):
        durations = [
            dt * round_scale[i // per_round] for i, dt in enumerate(tally.durations)
        ]
        round_seconds = [t * s for t, s in zip(tally.round_seconds, round_scale)]
        p50, p90 = (
            statistics.quantiles(durations, n=10, method="inclusive")[i] for i in (4, 8)
        )
        return {
            "setup_s": setup,
            "madds_per_s": statistics.median(
                w / t for w, t in zip(tally.round_work, round_seconds)
            ),
            "calls_per_s": statistics.median(per_round / t for t in round_seconds),
            "call_ms_p50": p50 * 1e3,
            "call_ms_p90": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    unscaled = [1.0] * len(tally.round_scale)
    return metrics(tally.round_scale, setup_s), metrics(unscaled, setup_raw_s)


def run(name, seed, seconds, trace, small=False, prepare=None):
    """Measure one workload; returns (result line, detail line) as dicts.

    ``prepare``, given the built workload, may alter it before set-up (the
    benchmark's tests use it to corrupt an output on purpose).
    """
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, small)
    if prepare is not None:
        prepare(workload)
    probe = SpeedProbe()
    setup_raw, setup_nominal = [], []
    batch = () if trace else (MIN_SETUP_REPS, SETUP_SECONDS)
    tapp = set_up(workload, probe, setup_raw, setup_nominal, *batch)
    tally = Tally(len(workload.calls), probe)
    if trace:
        metrics, raw, missing, passes = measure_traced(tally, workload, seconds)
    else:
        measure(tally, workload, seconds)
    for i, call in enumerate(workload.calls):
        if not call.verify():  # a wrong first output fails every call of its kind
            tally.failed[i] = len(tally.round_seconds)
    if not trace:
        # A second batch of set-ups after the timed phase: the median then
        # spans the whole run, not only its first seconds, and a passing
        # stall of the machine moves it less.
        set_up(workload, probe, setup_raw, setup_nominal, *batch)
        setup_s, setup_raw_s = map(statistics.median, (setup_nominal, setup_raw))
        (metrics, raw), missing, passes = end_to_end(tally, setup_s, setup_raw_s), [], 0
    failed = sum(tally.failed)
    digest = hashlib.sha256(b"".join(call.digest or b"" for call in workload.calls))
    result = {
        "correct": failed == 0,
        "attempted": len(tally.durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(tally.durations),
        "failed_ratio": failed / len(tally.durations),
        "outputs_sha256": digest.hexdigest(),
        "speed_scale": probe.scale(),
        "raw_metrics": raw,
        "probe_samples": len(probe.samples),
        "setup_reps": len(setup_raw),
        "trace_passes": passes,
        "missing_wrappers": missing,
        "nproc": NPROC,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "tapp": tapp.__version__,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "tapp" / "__init__.py").is_file():
        print(f"error: no tapp sources under {SRC}", file=sys.stderr)
        return 2
    # Cap numpy's BLAS pool at the cores this process may use.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
