#!/usr/bin/env python3
"""Benchmark of trn's training, streaming and pooling-grid workloads.

Run from the repository root:

    python3 bench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

Every workload is a closed loop in one process with one caller: it sets up
its inputs from ``--seed`` (generated with ``trn.data``, written to a TRNF
file and read back), then runs jobs back to back until ``--seconds`` of
timed work have passed. Output checks run after each job, outside the
timed span; a failed check or a raised error counts the job's operations
(training steps, eval samples, stream pushes) as failed and the run goes
on.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
runs half the time untraced and half traced (``bench/tracing.py``) and
reports the per-layer metrics. Earlier stdout lines print each workload's
own end-to-end figures with units and sample counts; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. A full record
with the environment goes to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from math import comb
from pathlib import Path

# One caller, so one BLAS thread: on a shared host a second thread makes
# GEMM-bound latencies spread far more than it speeds them up. The pin
# must precede the numpy import.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if not (SRC / "trn" / "__init__.py").is_file():
    sys.exit(f"bench: no trn sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from trn import data, relation, sampling, streaming, training  # noqa: E402
from tracing import LAYER_METRICS, SETUP_JOB, Tracer  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median
TRACED_SETUPS = 2  # extra set-ups in a traced run, for the data layer
HIDDEN = 64
# The configs/order-critical.cfg model and optimizer values.
PLAN = sampling.SamplingPlan(num_frames=8, subsamples=3, mode="random")
OPTIMIZER = {"batch_size": 32, "learning_rate": 0.08, "momentum": 0.9}


@dataclass
class Job:
    """One unit of timed work and what its checks found."""

    wall_s: float
    attempted: int
    failed: int = 0
    figures: dict = field(default_factory=dict)  # workload-specific timings
    outputs: object = None  # what the checks look at; None when the job raised
    ref_s: float = 0.0  # reference kernel time around the job

    @property
    def time_ratio(self) -> float:
        return self.wall_s / self.ref_s


class Reference:
    """A fixed kernel of the benchmark's own, timed before and after every job.

    The shared hosts this runs on change speed by up to 2x for tens of
    seconds at a time, which no run length averages out. Job time over the
    adjacent reference time cancels that drift, while a change to trn moves
    the job and not the reference. The kernel is a plain numpy relation
    forward with fixed random weights: per scale d, ``rows[d]`` tuples of
    width d * feature_dim through a two-layer ReLU MLP and a sum, the same
    mix of interpreter, BLAS and cache work as the workload's jobs.
    """

    def __init__(self, feature_dim: int, hidden: int, rows: dict[int, int], repeats: int):
        rng = np.random.default_rng(0)

        def normal(*shape):
            return rng.standard_normal(shape, dtype=np.float32)

        self.scales = [
            (normal(n, d * feature_dim), normal(hidden, d * feature_dim), normal(hidden, hidden))
            for d, n in rows.items()
        ]
        self.repeats = repeats

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(self.repeats):
            for x, w1, w2 in self.scales:
                hidden = np.maximum(x @ w1.T + 0.5, 0.0)
                np.maximum(hidden @ w2.T, 0.0).sum(axis=0)
        return time.perf_counter() - start


def small_reference() -> Reference:
    """Reference for the D=16, H=64 training workloads: k=3 tuples per scale."""
    return Reference(16, HIDDEN, {d: min(3, comb(8, d)) for d in range(2, 9)}, 500)


def read_back(spec, seed: int, counts: dict, workdir: Path) -> dict:
    """Generate each split, write it as TRNF and read it back, as a user
    of ``trn gen-data`` followed by ``trn train`` would."""
    splits = {}
    for name, dataset in data.generate_dataset(spec, seed, counts).items():
        path = workdir / f"{name}.trnf"
        data.write_features(path, dataset)
        splits[name] = data.read_features(path, split=name)
    return splits


def steps_per_epoch(videos: int) -> int:
    return -(-videos // OPTIMIZER["batch_size"])


def median(values) -> float:
    return float(statistics.median(values))


class TrainSmall:
    """Train a fresh model for one epoch, then evaluate it on the val split."""

    name = "train-small"
    train_videos, val_videos = 320, 160

    def __init__(self):
        self.reference = small_reference()

    def setup(self, seed: int, workdir: Path) -> None:
        splits = read_back(
            data.order_critical_spec(),
            seed,
            {"train": self.train_videos, "val": self.val_videos},
            workdir,
        )
        self.train_set, self.val_set = splits["train"], splits["val"]
        self.config = training.TrainConfig(epochs=1, seed=seed, plan=PLAN, **OPTIMIZER)
        self.steps = steps_per_epoch(self.train_videos)
        self.ops_per_job = self.steps + self.val_videos
        self.expected = None

    def run(self) -> Job:
        t0 = time.perf_counter()
        model = training.build_model(
            self.train_set.feature_dim, self.train_set.num_classes, self.config, HIDDEN
        )
        model, history = training.train(model, self.train_set, self.config)
        t1 = time.perf_counter()
        report = training.evaluate(model, self.val_set, self.config.plan)
        t2 = time.perf_counter()
        figures = {"train_s": t1 - t0, "eval_s": t2 - t1, "val_top1": report.top1}
        return Job(t2 - t0, self.ops_per_job, figures=figures, outputs=(history, report))

    def check(self, job: Job) -> None:
        history, report = job.outputs
        diverged = sum(not np.isfinite(epoch.loss) for epoch in history)
        job.failed += diverged * self.steps
        classified = int(report.confusion.sum())
        if report.num_samples != self.val_videos or classified != self.val_videos:
            job.failed += self.val_videos - min(classified, report.num_samples)
        # seeded training: every job must reach the same top-1
        if self.expected is None:
            self.expected = report.top1
        elif report.top1 != self.expected:
            job.failed += self.val_videos

    def report(self, jobs: list[Job]) -> dict:
        ok = [j for j in jobs if j.outputs is not None]
        if not ok:
            return {}
        return {
            "train_samples_per_s": (
                median(self.train_videos / j.figures["train_s"] for j in ok), "1/s", len(ok)
            ),
            "eval_samples_per_s": (
                median(self.val_videos / j.figures["eval_s"] for j in ok), "1/s", len(ok)
            ),
            "val_top1": (ok[0].figures["val_top1"], "fraction", self.val_videos),
        }


class StreamWide:
    """Replay one val video frame by frame through a fresh StreamQueue."""

    name = "stream-wide"
    val_videos = 32
    feature_dim = 256
    hidden = 256  # the README's full-scale setting

    def __init__(self):
        rows = {d: comb(8, d) for d in range(2, 9)}
        self.reference = Reference(self.feature_dim, self.hidden, rows, 4)

    def setup(self, seed: int, workdir: Path) -> None:
        spec = replace(data.order_critical_spec(), feature_dim=self.feature_dim)
        self.val_set = read_back(spec, seed, {"val": self.val_videos}, workdir)["val"]
        created = relation.MultiScaleTRN.create(
            self.feature_dim,
            self.val_set.num_classes,
            PLAN.num_frames,
            self.hidden,
            np.random.default_rng(seed),
        )
        path = workdir / "model.trnw"
        relation.save_model(path, created)
        self.model = relation.load_model(path)
        self.ops_per_job = self.val_set.samples[0].num_frames
        self.next_video = 0

    def run(self) -> Job:
        video = self.val_set.samples[self.next_video % self.val_videos]
        self.next_video += 1
        latencies, predictions = [], []
        t0 = time.perf_counter()
        queue = streaming.StreamQueue(self.model, stride=1)
        for frame in video.frames:
            start = time.perf_counter()
            prediction = queue.push(frame)
            end = time.perf_counter()
            if prediction is not None:
                latencies.append(end - start)
                predictions.append(prediction)
        wall = time.perf_counter() - t0
        return Job(
            wall,
            video.num_frames,
            figures={"latencies": latencies},
            outputs=(video, predictions),
        )

    def check(self, job: Job) -> None:
        video, predictions = job.outputs
        n = self.model.num_frames
        if len(predictions) != video.num_frames - n + 1:
            job.failed += video.num_frames - len(predictions)
        for prediction in predictions:
            window = video.frames[prediction.frames_seen - n : prediction.frames_seen]
            if not self._matches_batch(window.astype(self.model.dtype), prediction):
                job.failed += 1

    def _matches_batch(self, window, prediction) -> bool:
        """Streaming must equal batch inference over the same window, bit for bit."""
        tuples = {
            d: [relation.FrameTuple(c, window[list(c)]) for c in sampling.enumerate_tuples(len(window), d)]
            for d in self.model.scales
        }
        logits = relation.multiscale_forward(self.model, tuples).logits
        return np.array_equal(prediction.logits, logits) and prediction.class_index == int(
            np.argmax(logits)
        )

    def report(self, jobs: list[Job]) -> dict:
        latencies = [x for j in jobs for x in j.figures.get("latencies", ())]
        if not latencies:
            return {}
        wall = sum(j.wall_s for j in jobs)
        return {
            "stream_push_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms", len(latencies)),
            "stream_push_p99_ms": (1e3 * float(np.percentile(latencies, 99)), "ms", len(latencies)),
            "stream_predictions_per_s": (len(latencies) / wall, "1/s", len(latencies)),
        }


@contextlib.contextmanager
def clocked(module, names: tuple[str, ...], totals: dict):
    """Add each call's wall time to ``totals[name]`` while inside the block."""
    originals = {name: getattr(module, name) for name in names}

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Grid:
    """One compare_poolings grid: relation and average-pool at scales 2..5."""

    name = "grid"
    train_videos, val_videos = 96, 48
    poolings = ("temporal-relation", "average-pool")
    scales = (2, 3, 4, 5)

    def __init__(self):
        self.reference = small_reference()

    def setup(self, seed: int, workdir: Path) -> None:
        splits = read_back(
            data.order_critical_spec(),
            seed,
            {"train": self.train_videos, "val": self.val_videos},
            workdir,
        )
        self.train_set, self.val_set = splits["train"], splits["val"]
        self.config = training.TrainConfig(epochs=1, seed=seed, plan=PLAN, **OPTIMIZER)
        self.cells = [(p, s) for p in self.poolings for s in self.scales]
        self.ops_per_cell = steps_per_epoch(self.train_videos) + self.val_videos
        self.ops_per_job = self.ops_per_cell * len(self.cells)
        self.expected = None

    def run(self) -> Job:
        # compare_poolings looks train and evaluate up in trn.training
        totals = {"train": 0.0, "evaluate": 0.0}
        t0 = time.perf_counter()
        with clocked(training, ("train", "evaluate"), totals):
            rows = training.compare_poolings(
                self.train_set,
                self.val_set,
                self.config,
                scales=self.scales,
                poolings=self.poolings,
                hidden_dim=HIDDEN,
            )
        wall = time.perf_counter() - t0
        return Job(wall, self.ops_per_job, figures=totals, outputs=rows)

    def check(self, job: Job) -> None:
        top1 = {(row["pooling"], row["scale"]): row["top1"] for row in job.outputs}
        if self.expected is None:
            self.expected = top1
        for cell in self.cells:
            value = top1.get(cell)
            valid = value is not None and 0.0 <= value <= 1.0
            if not valid or value != self.expected.get(cell):
                job.failed += self.ops_per_cell

    def report(self, jobs: list[Job]) -> dict:
        ok = [j for j in jobs if j.outputs is not None]
        if not ok:
            return {}
        cells = len(self.cells)
        return {
            "train_samples_per_s": (
                median(cells * self.train_videos / j.figures["train"] for j in ok), "1/s", len(ok)
            ),
            "eval_samples_per_s": (
                median(cells * self.val_videos / j.figures["evaluate"] for j in ok), "1/s", len(ok)
            ),
            "grid_s": (median(j.wall_s for j in ok), "s", len(ok)),
        }


WORKLOADS = {w.name: w for w in (TrainSmall, StreamWide, Grid)}


def timed_setups(workload, seed: int, count: int, workdir: Path) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return times


def run_jobs(workload, seconds: float, tracer: Tracer | None = None) -> list[Job]:
    """Jobs back to back until ``seconds`` of timed work (at least one job).

    The wall-clock cap stops a run whose jobs fail at once from spinning.
    """
    jobs: list[Job] = []
    timed = 0.0
    started = time.perf_counter()
    while not jobs or (timed < seconds and time.perf_counter() - started < 4 * seconds):
        before = workload.reference.time()
        if tracer is not None:
            tracer.job = len(jobs)
            tracer.enabled = True
        start = time.perf_counter()
        try:
            job = workload.run()
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc()
            job = Job(time.perf_counter() - start, workload.ops_per_job, workload.ops_per_job)
        finally:
            if tracer is not None:
                tracer.enabled = False
        job.ref_s = (before + workload.reference.time()) / 2
        if job.outputs is not None:
            try:
                workload.check(job)
            except Exception:
                traceback.print_exc()
                job.failed = job.attempted
        jobs.append(job)
        timed += job.wall_s
    return jobs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "trn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        setup_times = timed_setups(workload, args.seed, SETUPS, workdir)
        if args.trace:
            jobs = run_jobs(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            tracer.job = SETUP_JOB
            tracer.enabled = True
            timed_setups(workload, args.seed, TRACED_SETUPS, workdir)
            tracer.enabled = False
            traced = run_jobs(workload, args.seconds / 2, tracer)
            overhead = median(j.time_ratio for j in traced) / median(j.time_ratio for j in jobs)
            values = tracer.layer_metrics(TRACED_SETUPS, [j.wall_s for j in traced], overhead)
            metrics = {name: metric(values[name], unit) for name, unit, _ in LAYER_METRICS}
            tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz")
            jobs += traced
        else:
            jobs = run_jobs(workload, args.seconds)

    rss_mb = peak_rss_mb()
    if not args.trace:
        metrics = {
            "setup_s": metric(median(setup_times), "s"),
            "job_time_ratio": metric(median(j.time_ratio for j in jobs), "ratio"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    report = {
        **workload.report(jobs),
        "job_s": (median(j.wall_s for j in jobs), "s", len(jobs)),
        "reference_ms": (1e3 * median(j.ref_s for j in jobs), "ms", len(jobs)),
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "failed_ops_ratio": (failed / attempted, "ratio", attempted),
    }
    env = environment(args)
    for name, (value, unit, n) in report.items():
        print(f"{name:<26} {value:>14.6g} {unit:<9} n={n}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "env": env,
        "result": result,
        "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()},
        "jobs": len(jobs),
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
