#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --runs 10 --out perfbench/results/NAME.json

Each workload of BENCHMARK.json runs ``--runs`` times untraced, with seeds
1, 2, ..., then once traced, one process at a time, each for the
benchmark's ``run_seconds``.  For every end-to-end metric the record holds
the values, their median and their spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from BENCHMARK.json.  The same
summary of the raw, unconverted values (see ``run.SpeedProbe``) is kept
under ``raw``.  The exit code is 1 if any spread is a third of its bound or
more.  Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIMEOUT_S = 900


def one_run(workload, seed, trace):
    """(result, detail) of one benchmark process."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=True)
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(detail)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def record(workload, runs):
    untraced, details = [], []
    for seed in range(1, runs + 1):
        result, detail = one_run(workload, seed, trace=False)
        untraced.append(result)
        details.append(detail)
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    traced, traced_detail = one_run(workload, 1, trace=True)
    end_to_end = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        summary = summarize([r["metrics"][name]["value"] for r in untraced])
        raw = summarize([d["raw_metrics"][name] for d in details])
        end_to_end[name] = {"unit": metric["unit"], "bound": metric["bound"],
                            **summary, "raw": raw}
    per_layer = {
        name: {"unit": m["unit"], "value": m["value"],
               "raw": traced_detail["raw_metrics"][name]}
        for name, m in traced["metrics"].items()
    }
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": sum(r["attempted"] for r in untraced + [traced]),
        "failed": sum(r["failed"] for r in untraced + [traced]),
        "samples": [d["samples"] for d in details],
        "setup_reps": [d["setup_reps"] for d in details],
        "speed_scale": [d["speed_scale"] for d in details],
        "tapp": details[0]["tapp"],
        "nproc": details[0]["nproc"],
        "blas_threads": details[0]["blas_threads"],
        "outputs_sha256": {str(d["seed"]): d["outputs_sha256"] for d in details},
        "missing_wrappers": sorted(
            {m for d in details + [traced_detail] for m in d["missing_wrappers"]}
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    import numpy

    doc = {"python": platform.python_version(), "numpy": numpy.__version__,
           "machine": platform.machine(), "seconds": SPEC["run_seconds"],
           "runs": args.runs, "workloads": {}}
    steady = True
    for workload in [w["name"] for w in SPEC["workloads"]]:
        rec = record(workload, args.runs)
        doc["workloads"][workload] = rec
        for name, m in rec["end_to_end"].items():
            ok = m["spread"] < m["bound"] / 3
            steady &= ok
            print(f"{workload:18s} {name:12s} median {m['median']:.5g} {m['unit']:7s}"
                  f" spread {m['spread']:.3f} (raw {m['raw']['spread']:.3f})"
                  f" bound {m['bound']}{'' if ok else '  UNSTEADY'}")
        print(f"{workload:18s} failed {rec['failed']} of {rec['attempted']}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
