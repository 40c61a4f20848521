"""Smoke test of the benchmark: every workload for one second, untraced and
traced, plus the refusal to run without the sources.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

# Each workload's own end-to-end figures, printed before the result line.
REPORTED = {
    "train-small": ("train_samples_per_s", "eval_samples_per_s", "val_top1"),
    "stream-wide": ("stream_push_p50_ms", "stream_push_p99_ms", "stream_predictions_per_s"),
    "grid": ("train_samples_per_s", "eval_samples_per_s", "grid_s"),
}
REPORTED_BY_ALL = ("setup_s", "peak_rss_mb", "failed_ops_ratio")
ENV_KEYS = {"python", "numpy", "blas", "blas_threads", "nproc", "git_commit", "seed"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_workloads_are_the_reported_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(REPORTED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(REPORTED))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())

    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    report = record["report"]
    for name in REPORTED[workload] + REPORTED_BY_ALL:
        assert report[name]["unit"], name
        assert report[name]["n"] >= 1, name
    assert report["failed_ops_ratio"]["value"] == 0
    assert ENV_KEYS <= set(record["env"])
    assert record["env"]["blas_threads"] <= record["env"]["nproc"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "train-small", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
