"""Summarize the result files under ``perfbench/out/results/``.

    python3 perfbench/summarize.py                      # print a table
    python3 perfbench/summarize.py --write baseline.json

For each workload and metric it gives the number of runs, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median. Untraced runs give the end-to-end metrics, and the
same medians from raw wall times (``raw``); traced runs give the per-layer
ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "out" / "results"


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def summarize(results_dir: Path) -> dict:
    records = [json.loads(p.read_text()) for p in sorted(results_dir.glob("*.json"))]
    if not records:
        raise SystemExit(f"no result files under {results_dir}")
    out: dict = {"environment": records[0]["environment"], "workloads": {}}
    for record in records:
        entry = out["workloads"].setdefault(
            record["workload"], {"seeds": [], "config_hashes": {}, "failed": 0, "attempted": 0}
        )
        result = record["result"]
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        kind = "per_layer" if record["trace"] else "end_to_end"
        if not record["trace"]:
            entry["seeds"].append(record["seed"])
            entry["config_hashes"][str(record["seed"])] = record["config_hash"]
            for name, value in record["details"].get("output", {}).items():
                entry.setdefault("outputs", {}).setdefault(name, []).append(value)
            for name, value in record["details"].get("raw", {}).items():
                entry.setdefault("raw", {}).setdefault(name, []).append(value)
        for name, metric in result["metrics"].items():
            entry.setdefault(kind, {}).setdefault(name, {"unit": metric["unit"], "values": []})
            entry[kind][name]["values"].append(metric["value"])
    for entry in out["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            for metric in entry.get(kind, {}).values():
                metric.update(describe(metric.pop("values")))
        for section in ("outputs", "raw"):
            for name, values in entry.get(section, {}).items():
                entry[section][name] = describe(values)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args()
    summary = summarize(RESULTS)
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {len(entry['seeds'])} untraced runs, failed {entry['failed']}/{entry['attempted']}")
        for name, m in entry.get("end_to_end", {}).items():
            print(f"  {name:<14} median {m['median']:>12.6g} {m['unit']:<7} spread {m['spread']:.3f}  (n={m['n']})")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
