"""Span tracing of grassket's layers from outside the package.

A ``Tracer`` replaces the public functions listed in ``FUNCTIONS``,
``METHODS`` and ``LIBRARY`` with wrappers that record one span per call:
name, start, end, index of the enclosing span, job id and an optional
amount (applied columns, bytes).  Functions are patched at the defining
module and at every ``grassket`` module that imported the name by value, so
``cli.seigh`` and ``experiments.seigh`` are traced as well as
``sketch.seigh``.  Spans stay in memory until the caller writes them out.
Nothing under ``src/`` is modified; ``restore`` puts every original back.
"""

import contextlib
import functools
import json
import sys
import time

import numpy.linalg
import scipy.linalg

from grassket import operators, sketch


def _columns(args, kwargs, result):
    return result.shape[1]


def _written_bytes(args, kwargs, result):
    block = args[2] if len(args) > 2 else kwargs["block"]
    return block.shape[0] * block.shape[1] * 8


def _read_bytes(args, kwargs, result):
    return result.shape[0] * result.shape[1] * 8


def _merged_bytes(args, kwargs, result):
    return result.rows * result.cols * 8


# (span name, defining module, attribute, amount recorded per call)
FUNCTIONS = [
    ("operators.eigh_by_magnitude", "grassket.operators", "eigh_by_magnitude", None),
    ("operators.make_planted_operator", "grassket.operators", "make_planted_operator", None),
    ("sketch.draw_measurements", "grassket.sketch", "draw_measurements", None),
    ("sketch.seigh", "grassket.sketch", "seigh", None),
    ("sketch.save_sketched_eigh", "grassket.sketch", "save_sketched_eigh", None),
    ("grassmann.stiefel_from_rng", "grassket.grassmann", "stiefel_from_rng", None),
    ("grassmann.principal_angles", "grassket.grassmann", "principal_angles", None),
    ("grassmann.overlap", "grassket.grassmann", "overlap", None),
    ("grassmann.metric", "grassket.grassmann", "metric", None),
    ("masks.mask_from_rng", "grassket.masks", "mask_from_rng", None),
    ("masks.mask_basis", "grassket.masks", "mask_basis", None),
    ("masks.topk_magnitude_mask", "grassket.masks", "topk_magnitude_mask", None),
    ("masks.mask_eigenspace_overlap", "grassket.masks", "mask_eigenspace_overlap", None),
    ("experiments.overlap_curve", "grassket.experiments", "overlap_curve", None),
    ("experiments.run_baseline", "grassket.experiments", "run_baseline", None),
    ("storage.create_layout", "grassket.storage", "create_layout", None),
    ("storage.write_columns", "grassket.storage", "write_columns", _written_bytes),
    ("storage.fill_gaussian", "grassket.storage", "fill_gaussian", None),
    ("storage.read_columns", "grassket.storage", "read_columns", _read_bytes),
    ("storage.merge", "grassket.storage", "merge", _merged_bytes),
    ("storage.verify_store", "grassket.storage", "verify_store", None),
    ("cli.store_create", "grassket.cli", "cmd_store_create", None),
    ("cli.store_verify", "grassket.cli", "cmd_store_verify", None),
    ("cli.store_merge", "grassket.cli", "cmd_store_merge", None),
    ("cli.decompose", "grassket.cli", "cmd_decompose", None),
]

# (span name, class, method, amount); patched once on the class
METHODS = [
    ("operators.apply", operators.LinearOperator, "apply", _columns),
    ("operators.DenseOperator", operators.DenseOperator, "__init__", None),
    ("sketch.eigenbasis", sketch.SketchedEigh, "eigenbasis", None),
]

# numpy/scipy entry points grassket calls through the module attribute
LIBRARY = [
    ("linalg.qr", numpy.linalg, "qr"),
    ("linalg.svd", numpy.linalg, "svd"),
    ("linalg.lstsq", numpy.linalg, "lstsq"),
    ("linalg.eigh", numpy.linalg, "eigh"),
    (None, scipy.linalg, "qr"),  # named by its pivoting argument
]

SPAN_NAMES = ([name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]
              + [name for name, *_ in LIBRARY if name] + ["linalg.qr_pivoted"])

# bytes moved per storage layer, computed from array shapes
THROUGHPUT = {
    "storage.write.mb_per_s": "storage.write_columns",
    "storage.read.mb_per_s": "storage.read_columns",
    "storage.merge.mb_per_s": "storage.merge",
}

# layers only set-up calls; their figures are set-up totals, not per job
SETUP_LAYERS = ("operators.make_planted_operator",)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, amount]
        self.job = None
        self._stack = []
        self._patches = []

    def _record(self, name, fn, amount):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.job, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if amount is not None:
                span[5] = amount(args, kwargs, result)
            return result

        return traced

    def _scipy_qr(self, fn):
        plain = self._record("linalg.qr", fn, None)
        pivoted = self._record("linalg.qr_pivoted", fn, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return (pivoted if kwargs.get("pivoting") else plain)(*args, **kwargs)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced entry point; ``restore`` undoes it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "grassket" or n.startswith("grassket."))]
        for name, module_name, attr, amount in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._record(name, original, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, cls, attr, amount in METHODS:
            self._patch(cls, attr, self._record(name, vars(cls)[attr], amount))
        for name, module, attr in LIBRARY:
            original = getattr(module, attr)
            wrapper = self._scipy_qr(original) if name is None else self._record(
                name, original, None)
            self._patch(module, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, job):
        """Record the spans of the enclosed calls under job id ``job``."""
        self.job = job
        self.install()
        try:
            yield
        finally:
            self.restore()
            self.job = None

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self, jobs):
        """{name: [seconds, self seconds, calls, amount]} over spans of ``jobs``."""
        jobs = set(jobs)
        totals = {name: [0.0, 0.0, 0, 0] for name in SPAN_NAMES}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, job, amount = span
            if job in jobs:
                entry = totals[name]
                entry[0] += end - start
                entry[1] += own
                entry[2] += 1
                entry[3] += amount
        return totals

    def write(self, path):
        keys = ("name", "start", "end", "parent", "job", "amount")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def per_layer_metrics(tracer, jobs, setup_job):
    """Per-layer metrics: per-job means over ``jobs``, set-up totals for SETUP_LAYERS."""
    per_job = tracer.layer_totals(jobs)
    in_setup = tracer.layer_totals([setup_job])
    metrics = {}
    for name in SPAN_NAMES:
        if name in SETUP_LAYERS:
            seconds, own, calls, _ = in_setup[name]
        else:
            seconds, own, calls, _ = (v / len(jobs) for v in per_job[name])
        metrics[f"{name}.s"] = (seconds, "s")
        metrics[f"{name}.self_s"] = (own, "s")
        metrics[f"{name}.calls"] = (float(calls), "count")
    metrics["operators.apply.columns"] = (per_job["operators.apply"][3] / len(jobs), "count")
    for metric, layer in THROUGHPUT.items():
        seconds, _, _, nbytes = per_job[layer]
        metrics[metric] = (nbytes / 1e6 / seconds if seconds > 0 else 0.0, "MB/s")
    return metrics
