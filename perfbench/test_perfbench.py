"""Tests of the benchmark itself: python3 -m pytest perfbench

Workloads run at their smallest sizes (``--small``) for a fraction of a
second, so the whole file takes well under a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def bench(workload, seed=1, trace=0, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_and_detail(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(detail)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_every_metric_with_its_unit(workload, trace):
    result, detail = result_and_detail(bench(workload, trace=trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (1 if trace else run.MIN_CALLS)
    assert detail["samples"] == result["attempted"]
    assert detail["missing_wrappers"] == []
    assert set(detail["raw_metrics"]) == set(result["metrics"])
    if trace:  # every workload calls tapp_*, so the api wrappers saw calls
        assert result["metrics"]["api.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_changes_inputs_but_not_metric_names():
    runs = [result_and_detail(bench("steady_large", seed)) for seed in (1, 1, 2)]
    (r1, d1), (r1_again, d1_again), (r2, d2) = runs
    assert d1["outputs_sha256"] == d1_again["outputs_sha256"]
    assert d1["outputs_sha256"] != d2["outputs_sha256"]
    assert set(r1["metrics"]) == set(r2["metrics"])


def corrupt_call(nth):
    """Flip one output element of the first op after its ``nth`` call."""

    def prepare(workload):
        target = workload.calls[0]
        original, count = target.call, itertools.count()

        def call(round_):
            code = original(round_)
            if next(count) == nth:
                out = target.op.out.view()
                out[(0,) * out.ndim] += 1.0
            return code

        target.call = call

    return prepare


@pytest.mark.parametrize("nth", [0, 2], ids=["first_output", "repeat"])
def test_a_corrupted_output_element_fails_the_run(nth):
    result, detail = run.run("steady_tiny", 1, 0.2, trace=False, small=True,
                             prepare=corrupt_call(nth))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["failed_ratio"] > 0


def test_a_missing_wrapper_target_is_listed_not_raised(monkeypatch):
    tapp = run.import_tapp(["tapp"])
    monkeypatch.delattr(tapp.engine, "run_unary")
    tracer = layers.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.missing == {"tapp.engine.run_unary"}


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
