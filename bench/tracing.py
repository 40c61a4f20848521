"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces public ``trn`` functions with wrappers at every
place a caller looks them up (the module attributes other modules imported
by name, and the class attributes for methods). Each wrapper records one
span (job, name, start, end, parent span) in memory and, for a few names,
adds work counts (rows, FLOPs, tuples, bytes) at the same boundary. Nothing
in ``trn`` itself changes, and nothing is wrapped unless the run asks for a
trace, so untraced runs pay no cost.

A layer's self time is its span's duration minus the durations of its
direct child spans; calls are strictly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from trn import data, nn, relation, sampling, streaming, training

MODULES = (data, sampling, relation, nn, training, streaming)
_BY_NAME = {m.__name__.rpartition(".")[2]: m for m in MODULES}

SETUP_JOB = -1  # job id given to spans recorded during set-up

# (name, unit, better) of every per-layer metric, in report order. Times
# and counts are per job (one unit of the workload's timed work) or per
# set-up; BENCHMARK.json lists the same names and units.
LAYER_METRICS = [
    ("data.generate_dataset.self_s", "s/setup", "lower"),
    ("data.write_features.self_s", "s/setup", "lower"),
    ("data.read_features.self_s", "s/setup", "lower"),
    ("data.read_features.bytes", "bytes/setup", "lower"),
    ("sampling.segment_sample.calls", "calls/job", "lower"),
    ("sampling.segment_sample.self_s", "s/job", "lower"),
    ("sampling.subsample_tuples.calls", "calls/job", "lower"),
    ("sampling.subsample_tuples.self_s", "s/job", "lower"),
    ("sampling.enumerate_tuples.calls", "calls/job", "lower"),
    ("relation.multiscale_forward.calls", "calls/job", "lower"),
    ("relation.multiscale_forward.self_s", "s/job", "lower"),
    ("relation.multiscale_backward.calls", "calls/job", "lower"),
    ("relation.multiscale_backward.self_s", "s/job", "lower"),
    ("relation.tuples", "tuples/job", "lower"),
    ("relation.frame_tuples_built", "calls/job", "lower"),
    ("nn.mlp_forward.calls", "calls/job", "lower"),
    ("nn.mlp_forward.self_s", "s/job", "lower"),
    ("nn.mlp_forward.rows", "rows/job", "lower"),
    ("nn.mlp_forward.flops", "flop/job", "lower"),
    ("nn.mlp_backward.calls", "calls/job", "lower"),
    ("nn.mlp_backward.self_s", "s/job", "lower"),
    ("nn.mlp_backward.rows", "rows/job", "lower"),
    ("nn.mlp_backward.flops", "flop/job", "lower"),
    ("nn.softmax_cross_entropy.self_s", "s/job", "lower"),
    ("nn.Sgd.step.calls", "calls/job", "lower"),
    ("nn.Sgd.step.self_s", "s/job", "lower"),
    ("nn.gflops_per_s", "GFLOP/s", "higher"),
    ("nn.g_rows_per_tuple", "rows/tuple", "lower"),
    ("training.train.self_s", "s/job", "lower"),
    ("training.evaluate.self_s", "s/job", "lower"),
    ("training.steps", "steps/job", "lower"),
    ("streaming.StreamQueue.push.calls", "calls/job", "lower"),
    ("streaming.StreamQueue.push.self_s", "s/job", "lower"),
    ("streaming.predictions", "predictions/job", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

_SPANNED = (
    "data.generate_dataset",
    "data.write_features",
    "data.read_features",
    "sampling.segment_sample",
    "sampling.subsample_tuples",
    "sampling.enumerate_tuples",
    "relation.multiscale_forward",
    "relation.multiscale_backward",
    "nn.mlp_forward",
    "nn.mlp_backward",
    "nn.softmax_cross_entropy",
    "training.train",
    "training.evaluate",
)


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _mlp_macs(m: nn.Mlp) -> int:
    return sum(layer.weights.size for layer in m.layers)


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording at run time."""

    def __init__(self):
        self.enabled = False
        self.job = SETUP_JOB
        self.spans: list[list] = []  # [job, name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._g_mlps: tuple = ()  # g MLPs of the model inside a relation span

    def _wrap(self, name, fn, enter=None, leave=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [tracer.job, name, 0.0, 0.0, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer._stack.pop()
            if leave is not None:
                leave(result)
            return result

        return wrapper

    # -- counters, recorded just outside the span they describe ------------

    def _enter_relation(self, model, tuples_by_scale, *_args, **_kwargs):
        self._g_mlps = tuple(m.g for m in model.modules.values())

    def _enter_forward(self, model, tuples_by_scale, *args, **kwargs):
        self._enter_relation(model, tuples_by_scale)
        self.counts["relation.tuples"] += sum(len(t) for t in tuples_by_scale.values())

    def _count_mlp(self, kind: str, passes: int, m, x, *_args, **_kwargs):
        rows = _rows(x)
        self.counts[f"nn.{kind}.rows"] += rows
        self.counts[f"nn.{kind}.flops"] += 2 * passes * rows * _mlp_macs(m)
        if any(m is g for g in self._g_mlps):
            self.counts["nn.g_rows"] += rows

    def _enter_read(self, path, *_args, **_kwargs):
        self.counts["data.read_features.bytes"] += os.path.getsize(path)

    def _leave_push(self, prediction):
        if prediction is not None:
            self.counts["streaming.predictions"] += 1

    def install(self) -> None:
        """Wrap every traced name wherever the six layer modules hold it."""
        enters = {
            "relation.multiscale_forward": self._enter_forward,
            "relation.multiscale_backward": self._enter_relation,
            # forward: one GEMM per layer; backward: forward redo, dW and dX
            "nn.mlp_forward": functools.partial(self._count_mlp, "mlp_forward", 1),
            "nn.mlp_backward": functools.partial(self._count_mlp, "mlp_backward", 3),
            "data.read_features": self._enter_read,
        }
        for qualified in _SPANNED:
            module_name, attr = qualified.split(".")
            original = getattr(_BY_NAME[module_name], attr)
            wrapper = self._wrap(qualified, original, enters.get(qualified))
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        nn.Sgd.step = self._wrap("nn.Sgd.step", nn.Sgd.step)
        streaming.StreamQueue.push = self._wrap(
            "streaming.StreamQueue.push", streaming.StreamQueue.push, leave=self._leave_push
        )

        frame_tuple = relation.FrameTuple
        tracer = self

        def counted_frame_tuple(*args, **kwargs):
            if tracer.enabled:
                tracer.counts["relation.frame_tuples_built"] += 1
            return frame_tuple(*args, **kwargs)

        for module in (training, streaming):
            module.FrameTuple = counted_frame_tuple

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for job, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"job": job, "name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                fh.write("\n")

    def layer_metrics(
        self, setups: int, job_walls: list[float], overhead: float
    ) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts.

        ``job_walls`` are the traced jobs' wall times; ``overhead`` is the
        traced over the untraced job time, measured by the caller.
        """
        child = [0.0] * len(self.spans)
        for job, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        job_self_s = 0.0
        steps = 0
        for i, (job, name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            self_s[name] += own
            calls[name] += 1
            if job != SETUP_JOB:
                job_self_s += own
            if name == "nn.Sgd.step" and parent >= 0 and self.spans[parent][1] == "training.train":
                steps += 1

        jobs = len(job_walls)
        values: dict[str, float] = {}
        for name, unit, _ in LAYER_METRICS:
            per = setups if unit.endswith("/setup") else jobs
            stem, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = self_s[stem] / per
            elif kind == "calls":
                values[name] = calls[stem] / per
            else:
                values[name] = self.counts[name] / per
        nn_self = self_s["nn.mlp_forward"] + self_s["nn.mlp_backward"]
        nn_flops = self.counts["nn.mlp_forward.flops"] + self.counts["nn.mlp_backward.flops"]
        tuples = self.counts["relation.tuples"]
        values.update(
            {
                "nn.gflops_per_s": nn_flops / nn_self / 1e9 if nn_self else 0.0,
                "nn.g_rows_per_tuple": self.counts["nn.g_rows"] / tuples if tuples else 0.0,
                "training.steps": steps / jobs,
                "trace.overhead": overhead,
                "trace.coverage": job_self_s / sum(job_walls),
            }
        )
        return values
