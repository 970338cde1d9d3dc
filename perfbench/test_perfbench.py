"""Tests of the benchmark itself, on workloads shrunk to a few seconds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import nprl.cli  # noqa: E402
import nprl.model  # noqa: E402
import nprl.numgrad  # noqa: E402
import run  # noqa: E402
from speed import REFERENCE_TICK_S, at_reference_speed, bracketed, sampled  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, load_config, unpinned_keys  # noqa: E402

SMALL = [
    "generator.n_patients=30",
    "generator.missing_rate=0.0",
    "model.gru_hidden=4",
    "model.trunk_widths=8",
    "eval.k_folds=3",
    "eval.resample_target=60",
    "theory.gru_hidden=4",
    "theory.max_instances=60",
    "theory.n_probes=2",
    "theory.n_pairs=300",
]

# Exact counts that must repeat identically from one traced run to the next.
EXACT_COUNTS = (
    "numgrad.tensors_per_step",
    "numgrad.adam_step_calls",
    "model.forward_rows",
    "cohort.bytes_written",
)


def traced(name: str, seed: int = 3):
    tally = run.Tally()
    metrics, details = run.run_traced(WORKLOADS[name], load_config(name, seed, SMALL), tally)
    assert tally.failed == 0
    return metrics, details


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_config_key_is_pinned(name):
    assert unpinned_keys(name) == []


@pytest.mark.parametrize("name", ["cv_h32", "theory_h256"])
def test_exact_counts_repeat_across_traced_runs(name):
    first, _ = traced(name)
    second, _ = traced(name)
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["numgrad.adam_step_calls"] > 0
    assert first["cohort.bytes_written"] > 0


def test_traced_run_reports_every_layer_metric():
    metrics, details = traced("cv_h32")
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0
    assert len(details["traced_walls_s"]) == len(details["untraced_walls_s"]) == 2
    assert metrics["train.rows"] > 0
    assert metrics["evaluation.auroc_calls"] > 0
    spans = [json.loads(line) for line in (run.ROOT / details["spans"]).read_text().splitlines()]
    assert len(spans) == details["n_spans"]


def spans_of(*spans) -> Tracer:
    tracer = Tracer()
    tracer.spans = [list(span) for span in spans]
    return tracer


def test_span_check_compares_with_the_wall_timed_outside():
    nested = spans_of(["bench.measured", 0.0, 2.0, -1], ["a", 0.5, 1.5, 0], ["b", 0.6, 1.0, 1])
    run.check_spans(nested, 2.0)
    with pytest.raises(CheckFailed, match="sum to"):
        run.check_spans(nested, 2.5)  # the root span missed part of the pass
    overlapping = spans_of(["bench.measured", 0.0, 2.0, -1], ["a", 0.0, 1.5, 0], ["b", 1.0, 2.0, 0])
    with pytest.raises(CheckFailed, match="outlast"):
        run.check_spans(overlapping, 2.0)


def test_tally_counts_stage_calls():
    def ok(runner, state):
        pass

    def boom(runner, state):
        raise RuntimeError("stage failed")

    tally = run.Tally()
    tally.run([("a", ok), ("b", ok)], None, {})
    with pytest.raises(RuntimeError):
        tally.run([("a", boom), ("b", ok)], None, {})  # "b" is never called
    with pytest.raises(CheckFailed):
        tally.check(WORKLOADS["cohort_io"].check, None, {"data": ([], None)})
    assert (tally.attempted, tally.failed) == (3, 2)


def test_cohort_io_does_no_training():
    metrics, _ = traced("cohort_io")
    assert metrics["numgrad.adam_step_calls"] == 0
    assert metrics["model.forward_rows"] == 0
    assert metrics["cohort.rows"] > 0
    assert metrics["pipeline.read_instances_s"] > 0


def test_wrappers_are_restored():
    def current():
        return (
            nprl.cli.generate_cohort,
            nprl.cli.Runner.cmd_eval,
            nprl.model.forward_batch,
            nprl.numgrad.adam_step,
            nprl.numgrad.Tensor.backward,
            nprl.numgrad.Tensor.__init__,
        )

    originals = current()
    with Tracer().installed():
        assert all(now is not before for now, before in zip(current(), originals))
    assert current() == originals


def test_speed_probe_samples_during_the_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with sampled() as ticks:
        deadline = perf_counter() + 0.3
        while perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ticks) >= 5 and all(tick > 0 for tick in ticks)
    # a machine twice as fast as the reference: its 2 s would take 4 s there
    assert at_reference_speed(2.0, [REFERENCE_TICK_S / 2] * 3) == pytest.approx(4.0)
    wall, scaled = bracketed(lambda: sum(range(100_000)))
    assert wall > 0 and scaled > 0


def test_untraced_run_repeats_and_checks_outputs():
    tally = run.Tally()
    metrics, details = run.run_untraced(WORKLOADS["cv_h32"], load_config("cv_h32", 3, SMALL), 0.0, tally)
    assert tally.failed == 0 and tally.attempted == 3 * run.SETUP_REPS
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())
    assert len(details["walls_s"]) == len(details["ref_walls_s"]) == run.SETUP_REPS
    assert set(details["raw"]) == {f"raw_{name}" for name in ("wall_s", "setup_s", "rows_per_s")}
    assert set(details["output"]) == {f"auroc_{arm}" for arm in ("baseline", "nprl", "class_balanced", "class_balanced_undersampled")}


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cohort_io", "--seed", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
