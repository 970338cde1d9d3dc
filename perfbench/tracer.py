"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of each `nprl` module at the name their
caller looks up (for example ``nprl.cli.generate_cohort``, which `cli`
imports by name, and ``nprl.model.forward_batch``, which ``predict_proba``
finds as a module global). Each wrapped call records one span (name, start,
end, parent) and updates exact counters. Nothing inside ``src/`` changes:
:meth:`Tracer.install` swaps the wrappers in and :meth:`Tracer.uninstall`
puts every original back.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the root's
duration; the benchmark checks that sum against the pass's wall time, timed
outside the tracer.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import nprl.cli
import nprl.evaluation
import nprl.model
import nprl.numgrad
import nprl.pipeline
import nprl.theory
import nprl.train
from nprl.evaluation import ARMS
from nprl.model import WINDOW_LEN

TRAIN_FUNCTIONS = ("nprl_pretrain", "finetune", "train_baseline")

# (owner, attribute, span name): plain timed wrappers with no counters.
_TIMED = (
    (nprl.cli.Runner, "cmd_gen", "cli.stage_gen"),
    (nprl.cli.Runner, "cmd_extract", "cli.stage_extract"),
    (nprl.cli.Runner, "cmd_eval", "cli.stage_eval"),
    (nprl.cli.Runner, "cmd_theory", "cli.stage_theory"),
    (nprl.cli, "generate_cohort", "cohort.generate"),
    (nprl.pipeline, "extract_instances", "pipeline.extract"),
    (nprl.pipeline, "select_features", "pipeline.extract"),
    (nprl.pipeline, "write_instances", "pipeline.write_instances"),
    (nprl.pipeline, "read_instances", "pipeline.read_instances"),
    (nprl.pipeline, "apply_minmax", "pipeline.apply_minmax"),
    (nprl.pipeline, "resample_training", "pipeline.resample"),
    (nprl.pipeline, "undersample_negatives", "pipeline.resample"),
    (nprl.model, "predict_proba", "model.predict_proba"),
    (nprl.model, "compute_representations", "model.compute_representations"),
    (nprl.model, "frobenius_distance", "model.frobenius_distance"),
    (nprl.theory, "theory_protocol", "theory.protocol"),
    (nprl.theory, "estimate_lipschitz", "theory.estimate_lipschitz"),
    (nprl.theory, "check_theorem1", "theory.check_theorem1"),
    (nprl.theory, "check_corollary1", "theory.check_corollary1"),
)

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS: dict[str, str] = {
    "numgrad.backward_s": "s",
    "numgrad.adam_step_s": "s",
    "numgrad.adam_step_calls": "count",
    "numgrad.tensors_per_step": "count",
    "numgrad.adam_elems_per_step": "count",
    "model.forward_batch_s": "s",
    "model.forward_rows": "count",
    "model.predict_proba_s": "s",
    "model.compute_representations_s": "s",
    "model.project_to_ball_s": "s",
    "model.projection_active_frac": "ratio",
    "model.frobenius_distance_s": "s",
    "model.train_gflop_per_s_computed": "GFLOP/s",
    "train.steps": "count",
    "train.rows": "count",
    "train.step_ms_p50": "ms",
    "train.step_ms_p99": "ms",
    "train.step_samples": "count",
    "train.nprl_pretrain_s": "s",
    "train.finetune_s": "s",
    "train.train_baseline_s": "s",
    "train.self_s": "s",
    **{f"evaluation.cv_{arm}_s": "s" for arm in ARMS},
    "evaluation.auroc_s": "s",
    "evaluation.auroc_calls": "count",
    "pipeline.extract_s": "s",
    "pipeline.write_instances_s": "s",
    "pipeline.read_instances_s": "s",
    "pipeline.apply_minmax_s": "s",
    "pipeline.resample_s": "s",
    "cohort.generate_s": "s",
    "cohort.write_s": "s",
    "cohort.read_s": "s",
    "cohort.rows": "count",
    "cohort.bytes_written": "count",
    "theory.protocol_s": "s",
    "theory.estimate_lipschitz_s": "s",
    "theory.check_theorem1_s": "s",
    "theory.check_corollary1_s": "s",
    "cli.stage_gen_s": "s",
    "cli.stage_extract_s": "s",
    "cli.stage_eval_s": "s",
    "cli.stage_theory_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

COHORT_FILES = ("patients.csv", "hourly.csv", "sofa.csv", "cultures.csv")


def cohort_rows(records) -> int:
    """CSV data rows the four cohort files hold for these records."""
    return sum(1 + len(r.hourly) + len(r.sofa) + len(r.cultures) for r in records)


def forward_gemm_flops(batch: int, params) -> int:
    """Multiply-add flops of one forward pass, computed from weight shapes.

    Each GRU input and recurrent matrix is applied once per hour of the
    window; every dense weight (static branch, trunk, head) once per row.
    """
    per_row = 0
    for name, p in params.items():
        if name.startswith("gru_") and (".W_" in name or ".U_" in name):
            per_row += WINDOW_LEN * p.data.size
        elif name.endswith(".W"):
            per_row += p.data.size
    return 2 * batch * per_row


class Tracer:
    """Spans and exact counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []
        self._originals: list[tuple[object, str, object]] = []
        self._step_anchor: float | None = None
        self._anchor_tensors = 0
        self._last_forward = (0, 0, 0.0)  # rows, flops, seconds

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` may be a function of the call's
        arguments, and ``after(span index, args, result)`` updates counters."""

        def wrapper(*args, **kwargs):
            index = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def _duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    # -- counters, updated after a wrapped call returns -----------------------

    def _after_write_cohort(self, index, args, result) -> None:
        records, directory = args[:2]
        self.counts["cohort.rows"] += cohort_rows(records)
        self.counts["cohort.bytes_written"] += sum(
            os.path.getsize(Path(directory) / f) for f in COHORT_FILES
        )

    def _after_read_cohort(self, index, args, records) -> None:
        self.counts["cohort.rows"] += cohort_rows(records)

    def _after_auroc(self, index, args, result) -> None:
        self.counts["evaluation.auroc_calls"] += 1

    def _after_train_call(self, index, args, result) -> None:
        # step intervals are measured within one training call only
        self._step_anchor = None

    def _after_adam_step(self, index, args, result) -> None:
        self.counts["numgrad.adam_step_calls"] += 1
        self.counts["adam_elems"] += sum(p.data.size for p in args[0].values())
        now = perf_counter()
        if self._step_anchor is not None:
            self.step_ms.append((now - self._step_anchor) * 1e3)
            self.counts["step_tensors"] += self.counts["tensors"] - self._anchor_tensors
        self._step_anchor = now
        self._anchor_tensors = self.counts["tensors"]

    def _after_forward_batch(self, index, args, result) -> None:
        temporal, _, params = args[:3]
        rows = int(np.shape(temporal)[0])
        self._last_forward = (rows, forward_gemm_flops(rows, params), self._duration(index))
        self.counts["model.forward_rows"] += rows

    def _after_backward(self, index, args, result) -> None:
        rows, flops, forward_seconds = self._last_forward
        self.counts["train.rows"] += rows
        self.counts["train_flops"] += 3 * flops  # backward GEMMs cost twice the forward ones
        self.counts["train_gemm_ns"] += round((forward_seconds + self._duration(index)) * 1e9)

    def _after_project_to_ball(self, index, args, result) -> None:
        self.counts["projection_calls"] += 1
        self.counts["projection_active"] += result is not args[0]

    def _tensor_init(self, fn):
        counts = self.counts

        def __init__(tensor, *args, **kwargs):
            counts["tensors"] += 1
            fn(tensor, *args, **kwargs)

        return __init__

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer wrappers are already installed")
        targets = [(owner, attr, name, None) for owner, attr, name in _TIMED] + [
            (nprl.cli, "write_cohort", "cohort.write", self._after_write_cohort),
            (nprl.cli, "read_cohort", "cohort.read", self._after_read_cohort),
            (nprl.evaluation, "cross_validate", _cv_span_name, None),
            (nprl.evaluation, "auroc", "evaluation.auroc", self._after_auroc),
            (nprl.numgrad, "adam_step", "numgrad.adam_step", self._after_adam_step),
            (nprl.numgrad.Tensor, "backward", "numgrad.backward", self._after_backward),
            (nprl.model, "forward_batch", "model.forward_batch", self._after_forward_batch),
            (nprl.model, "project_to_ball", "model.project_to_ball", self._after_project_to_ball),
        ] + [(nprl.train, fn, f"train.{fn}", self._after_train_call) for fn in TRAIN_FUNCTIONS]
        for owner, attr, name, after in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, after))
        tensor = nprl.numgrad.Tensor
        self._patch(tensor, "__init__", self._tensor_init(tensor.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        selfs = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def subtree(self, root: int) -> list[int]:
        """``root`` and the index of every span below it."""
        inside = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            inside[i] = i == root or (span[3] >= 0 and inside[span[3]])
        return [i for i, flag in enumerate(inside) if flag]

    def find_root(self, name: str) -> int:
        return next(i for i, s in enumerate(self.spans) if s[0] == name and s[3] < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the ``trace.*`` ones."""
        by_name: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, self.self_times()):
            by_name[name] += seconds
        c = self.counts
        adam_calls = c["numgrad.adam_step_calls"]
        gemm_seconds = c["train_gemm_ns"] / 1e9
        out = {f"{name}_s": seconds for name, seconds in by_name.items()}
        out.update(
            {
                "numgrad.adam_step_calls": adam_calls,
                "numgrad.tensors_per_step": c["step_tensors"] / len(self.step_ms) if self.step_ms else 0.0,
                "numgrad.adam_elems_per_step": c["adam_elems"] / adam_calls if adam_calls else 0.0,
                "model.forward_rows": c["model.forward_rows"],
                "model.projection_active_frac": (
                    c["projection_active"] / c["projection_calls"] if c["projection_calls"] else 0.0
                ),
                "model.train_gflop_per_s_computed": (
                    c["train_flops"] / gemm_seconds / 1e9 if gemm_seconds else 0.0
                ),
                "train.steps": adam_calls,
                "train.rows": c["train.rows"],
                "train.step_ms_p50": statistics.median(self.step_ms) if self.step_ms else 0.0,
                "train.step_ms_p99": percentile(self.step_ms, 99),
                "train.step_samples": len(self.step_ms),
                "train.self_s": sum(by_name[f"train.{fn}"] for fn in TRAIN_FUNCTIONS),
                "evaluation.auroc_calls": c["evaluation.auroc_calls"],
                "cohort.rows": c["cohort.rows"],
                "cohort.bytes_written": c["cohort.bytes_written"],
            }
        )
        # a layer that did no work on this workload reads 0
        return {name: out.get(name, 0.0) for name in PER_LAYER_UNITS if not name.startswith("trace.")}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _cv_span_name(args, kwargs) -> str:
    arm = args[3] if len(args) > 3 else kwargs["arm"]
    return f"evaluation.cv_{arm}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
