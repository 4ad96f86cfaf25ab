"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these minute-long smoke runs out of the repository's
default test collection.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
# operator columns one job applies: n_inner of the one seigh per job
APPLIED_COLUMNS = {"overlap-exact": 161, "overlap-sketched": 201,
                   "chance-level": 0, "dense-store": 161}


@functools.cache
def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_reported_with_its_unit(workload, trace, group):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_applied_columns_per_job_are_exact(workload):
    metrics = bench(workload, 1)["metrics"]
    assert metrics["operators.apply.columns"]["value"] == APPLIED_COLUMNS[workload]


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_fit_in_the_job(workload, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run
        import spans

        tracer = spans.Tracer()
        _, state, runner = run.set_up(workload, 5, tmp_path / "work", tracer)
        try:
            elapsed = [runner.run_job(state, seed, job) for job, seed in enumerate((7, 8))]
        finally:
            runner.workload.finish(state)
    finally:
        del sys.path[:2]
    own = tracer.self_times()
    for job, wall in enumerate(elapsed):
        in_job = [t for t, span in zip(own, tracer.spans) if span[4] == job]
        assert in_job, f"no spans recorded in job {job}"
        assert min(in_job) >= -1e-9
        assert sum(in_job) <= wall
    assert runner.failed == runner.known_defects


def test_tail_has_ten_jobs_beyond_it():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    value, percentile = run.tail([float(i) for i in range(30)])
    assert value == 19.0
    assert percentile == pytest.approx(100 * 20 / 30)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
