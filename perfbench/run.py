"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload cv_h32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it builds nothing and reads `nprl` from ``src/`` of
the checkout it sits in. ``--trace 0`` prints the end-to-end metrics of an
untraced run, with times rescaled to a reference machine speed (see
``speed.py``), ``--trace 1`` the per-layer metrics of a traced one. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results, and the spans of a traced
run, are written under ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; must be set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import at_reference_speed, bracketed, sampled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# the keys of workloads.WORKLOADS, which can only be imported once src/ is known to hold nprl
WORKLOAD_NAMES = ("cv_h32", "theory_h256", "cohort_io")
SETUP_REPS = 3  # each set-up is followed by a measured pass; reruns must repeat bytes
MAX_REPS = 50
# slack between the traced pass timed outside the tracer and its spans
SPAN_TOLERANCE_S = 1e-3
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import nprl.cli"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rows_per_s": "rows/s"}
LOWER_IS_BETTER = {"wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "peak_rss_mb", "theory_violations", "fail_frac"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Stage calls attempted and failed.

    A call fails when it raises, or when the output check of the pass it ends
    fails; each pass's check is charged to the pass's last stage call.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, stages, runner, state, inside=nullcontext) -> float:
        """Time the stage calls; a call that raises ends the pass."""
        gc.collect()  # no pass pays for the garbage of the one before
        started = perf_counter()
        with inside():
            for _, call in stages:
                self.attempted += 1
                try:
                    call(runner, state)
                except Exception:
                    self.failed += 1
                    raise
        return perf_counter() - started

    def check(self, check, *args):
        """Run the output check of the pass just made."""
        try:
            return check(*args)
        except Exception:
            self.failed += 1
            raise


def import_probe() -> None:
    """Start a fresh interpreter and import `nprl`; timed, it is process
    start to imports done."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, cwd=ROOT)


def digests(run_dir: Path, artifacts) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in artifacts}


def checked(workload, runner, state, reference: dict | None) -> tuple[dict, dict]:
    """Run the output check and the rerun byte-identity check."""
    from workloads import CheckFailed

    summary = workload.check(runner, state)
    files = digests(runner.run_dir, workload.artifacts)
    if reference is not None:
        changed = [name for name in files if files[name] != reference[name]]
        if changed:
            raise CheckFailed(f"rerun at the same seed changed the bytes of {changed}")
    return summary, files


def check_spans(tracer, wall: float) -> None:
    """The spans of a traced pass must nest and must tile its wall time.

    ``wall`` is timed outside the tracer, so this fails when a span is left
    open, nests wrongly or does not cover the measured pass.
    """
    from workloads import CheckFailed

    every = tracer.self_times()
    selfs = [every[i] for i in tracer.subtree(tracer.find_root("bench.measured"))]
    if min(selfs) < -SPAN_TOLERANCE_S:
        raise CheckFailed(f"a span's children outlast it by {-min(selfs)} s")
    if abs(sum(selfs) - wall) > SPAN_TOLERANCE_S:
        raise CheckFailed(f"span self times sum to {sum(selfs)} s, the traced pass took {wall} s")


def check_traced(workload, cfg, runner, state, reference, spans, wall: float) -> tuple[dict, dict]:
    """:func:`checked` plus the checks of a traced pass: its spans tile its
    wall time, and the rows reaching ``backward`` are the rows counted for
    ``rows_per_s``."""
    from workloads import CheckFailed

    check_spans(spans, wall)
    expected = workload.rows(cfg, state)
    if workload.rows_are_training and spans.counts["train.rows"] != expected:
        raise CheckFailed(f"traced training rows {spans.counts['train.rows']} != counted {expected}")
    return checked(workload, runner, state, reference)


def report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def run_untraced(workload, cfg, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, each followed by a measured pass, then measure
    again on the last set-up until the measured passes add up to ``seconds``.

    Each set-up and each pass runs under the speed probe, and the metrics are
    medians of their times rescaled to the reference machine speed; the raw
    medians are recorded and printed beside them as ``raw_*``.
    """
    import nprl.cli

    work = OUT / "work" / workload.name
    raw: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    scaled: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    rows, peak_rss_mb, summary, reference = [], [], {}, None
    runner = state = None
    for rep in range(MAX_REPS):
        if rep >= SETUP_REPS and (sum(raw["wall_s"]) >= seconds or tally.failed):
            break
        failed_before = tally.failed
        try:
            if rep < SETUP_REPS:
                root = work / f"rep{rep}"
                shutil.rmtree(root, ignore_errors=True)
                import_s, ref_import_s = bracketed(import_probe)
                runner, state = nprl.cli.Runner(cfg, str(root)), {}
                with sampled() as ticks:
                    stages_s = tally.run(workload.setup, runner, state)
                raw["setup_s"].append(import_s + stages_s)
                scaled["setup_s"].append(ref_import_s + at_reference_speed(stages_s, ticks))
            with sampled() as ticks:
                wall = tally.run(workload.measured, runner, state)
            summary, files = tally.check(checked, workload, runner, state, reference)
            reference = reference or files
            raw["wall_s"].append(wall)
            scaled["wall_s"].append(at_reference_speed(wall, ticks))
            rows.append(workload.rows(cfg, state))
        except Exception:
            if tally.failed == failed_before:
                raise  # the benchmark broke, not a stage call
            report_failure(f"{workload.name} rep {rep}")
        peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    shutil.rmtree(work, ignore_errors=True)
    if not raw["wall_s"]:
        return {}, {}

    def medians(times: dict[str, list[float]]) -> dict[str, float]:
        return {
            "wall_s": statistics.median(times["wall_s"]),
            "setup_s": statistics.median(times["setup_s"]),
            "rows_per_s": statistics.median(r / w for r, w in zip(rows, times["wall_s"])),
        }

    metrics = medians(scaled)
    # read after the first pass: later passes only add allocator fragmentation
    metrics["peak_rss_mb"] = peak_rss_mb[0]
    details = {
        "raw": {f"raw_{name}": value for name, value in medians(raw).items()},
        "walls_s": raw["wall_s"],
        "ref_walls_s": scaled["wall_s"],
        "setups_s": raw["setup_s"],
        "ref_setups_s": scaled["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "rows": rows,
        "output": summary,
    }
    return metrics, details


def run_traced(workload, cfg, tally: Tally) -> tuple[dict, dict]:
    """Set up once traced, then run the measured part four times on that
    set-up: untraced, traced, traced, untraced.

    The per-layer metrics come from the spans of the set-up and the first
    traced pass; the second traced pass records into a tracer of its own.
    Tracing overhead is the median over the two adjacent (untraced, traced)
    pairs of walls rescaled to the reference machine speed, so a steady drift
    of machine speed cancels and a change of its phase is rescaled away.
    """
    import nprl.cli
    from tracer import Tracer

    root = OUT / "work" / workload.name / "traced"
    shutil.rmtree(root, ignore_errors=True)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled: dict[bool, list[float]] = {False: [], True: []}
    try:
        runner = nprl.cli.Runner(cfg, str(root))
        state: dict = {}
        with tracer.installed(), tracer.root("bench.setup"):
            tally.run(workload.setup, runner, state)
        reference = None
        for traced in (False, True, True, False):
            if traced:
                spans = tracer if not walls[True] else Tracer()
                with spans.installed(), sampled() as ticks:
                    wall = tally.run(workload.measured, runner, state, lambda: spans.root("bench.measured"))
                summary, files = tally.check(check_traced, workload, cfg, runner, state, reference, spans, wall)
            else:
                with sampled() as ticks:
                    wall = tally.run(workload.measured, runner, state)
                summary, files = tally.check(checked, workload, runner, state, reference)
            reference = reference or files
            walls[traced].append(wall)
            scaled[traced].append(at_reference_speed(wall, ticks))
    except Exception:
        report_failure(f"{workload.name} traced run")
        return {}, {}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    first_traced = walls[True][0]
    metrics = tracer.layer_metrics()
    metrics.update(
        {
            "trace.wall_s": statistics.median(walls[True]),
            "trace.untraced_wall_s": statistics.median(walls[False]),
            "trace.overhead_frac": statistics.median(
                (t - u) / u for u, t in zip(scaled[False], scaled[True])
            ),
            "trace.unattributed_frac": tracer.self_times()[tracer.find_root("bench.measured")] / first_traced,
        }
    )
    spans_path = OUT / "spans" / f"{workload.name}-seed{cfg.get_int('run', 'seed')}.jsonl"
    tracer.write_spans(spans_path)
    details = {
        "output": summary,
        "traced_walls_s": walls[True],
        "untraced_walls_s": walls[False],
        "traced_ref_walls_s": scaled[True],
        "untraced_ref_walls_s": scaled[False],
        "spans": str(spans_path.relative_to(ROOT)),
        "n_spans": len(tracer.spans),
    }
    return metrics, details


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def direction(name: str) -> str:
    if name in LOWER_IS_BETTER:
        return "lower is better"
    if name.endswith("rows_per_s") or name.startswith("auroc_"):
        return "higher is better"
    return ""


def run_one(args) -> int:
    from envinfo import environment
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS, load_config, unpinned_keys

    workload = WORKLOADS[args.workload]
    cfg = load_config(workload.name, args.seed)
    tally = Tally()
    if args.trace:
        metrics, details = run_traced(workload, cfg, tally)
        units = PER_LAYER_UNITS
    else:
        metrics, details = run_untraced(workload, cfg, args.seconds, tally)
        units = END_TO_END_UNITS
    if not metrics:
        print(f"perfbench: no successful run of {workload.name}", file=sys.stderr)
        return 1
    output = details.get("output", {})
    fail_frac = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config_hash": cfg.config_hash(),
        "unpinned_keys": unpinned_keys(workload.name),
        "environment": environment(ROOT),
        "fail_frac": fail_frac,
        "details": details,
        "result": result,
    }
    results_path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} config_hash={cfg.config_hash()[:12]}")
    if record["unpinned_keys"]:
        print(f"  warning: config keys left to the defaults: {record['unpinned_keys']}")
    shown = [(name, metrics[name], unit) for name, unit in units.items()]
    shown += [(name, value, END_TO_END_UNITS[name[len("raw_"):]]) for name, value in details.get("raw", {}).items()]
    shown += [(name, value, "" if name.startswith("auroc_") else "count") for name, value in output.items()]
    shown.append(("fail_frac", fail_frac, "ratio"))
    for name, value, unit in shown:
        print(f"  {name:<44} {fmt(value):>14} {unit:<8} {direction(name)}".rstrip())
    print(f"  results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nprl" / "__init__.py").is_file():
        print(f"perfbench: no nprl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nprl

    if Path(nprl.__file__).resolve().parent != SRC / "nprl":
        print(f"perfbench: imported nprl from {nprl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
