"""The benchmark's workloads, built from the stage functions `nprl` runs.

Each workload pins its whole configuration in ``configs/<name>.ini`` (the
files under ``configs/`` at the repository root are never read). A workload
is a list of set-up stage calls, whose time counts in ``setup_s``, a list of
measured stage calls, timed as ``wall_s``, an output check, the artifacts
whose bytes must repeat on a rerun, and the row count behind ``rows_per_s``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nprl import cli
from nprl import evaluation as E
from nprl import pipeline as P
from nprl import theory as TH
from nprl.util import derive_seed

from tracer import ARMS, cohort_rows

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

Stage = tuple[str, Callable[[cli.Runner, dict], None]]


class CheckFailed(Exception):
    """An output of a stage call is wrong."""


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.ini"


def load_config(name: str, seed: int, overrides: list[str] | None = None) -> cli.RunConfig:
    return cli.RunConfig.load(str(config_path(name)), (overrides or []) + [f"run.seed={seed}"])


def unpinned_keys(name: str) -> list[str]:
    """Built-in config keys the workload's file leaves to the defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(config_path(name))
    return [
        f"{section}.{key}"
        for section, keys in cli.DEFAULTS.items()
        for key in keys
        if not parser.has_option(section, key)
    ]


# ---------------------------------------------------------------------------
# Stage calls
# ---------------------------------------------------------------------------


def _gen(runner: cli.Runner, state: dict) -> None:
    state["records"] = runner.cmd_gen()


def _extract_from_records(runner: cli.Runner, state: dict) -> None:
    # as `nprl all` does: the records go straight from gen to extract
    state["data"] = runner.cmd_extract(state.pop("records"))


def _extract_from_files(runner: cli.Runner, state: dict) -> None:
    runner.cmd_extract()


def _read_instances(runner: cli.Runner, state: dict) -> None:
    state["data"] = P.read_instances(
        runner.run_dir / "instances.csv", runner.run_dir / "instances.schema.txt"
    )


def _eval(runner: cli.Runner, state: dict) -> None:
    runner.cmd_eval(state["data"])


def _theory(runner: cli.Runner, state: dict) -> None:
    runner.cmd_theory(state["data"])


# ---------------------------------------------------------------------------
# Output checks; each returns the figures the result reports besides metrics
# ---------------------------------------------------------------------------


def _check_report(runner: cli.Runner, state: dict) -> dict:
    report = E.read_report(runner.run_dir / "report.csv")
    missing = [arm for arm in ARMS if "ALL" not in report.get(arm, {})]
    if missing:
        raise CheckFailed(f"report.csv lacks a pooled row for {missing}")
    aurocs = {}
    for arm in ARMS:
        raw = report[arm]["ALL"]["auroc"]
        try:
            value = float(raw)
        except ValueError:
            raise CheckFailed(f"report.csv: pooled AUROC of {arm} is {raw!r}")
        if not math.isfinite(value):
            raise CheckFailed(f"report.csv: pooled AUROC of {arm} is {raw!r}")
        aurocs[f"auroc_{arm}"] = value
    return aurocs


def _check_theory(runner: cli.Runner, state: dict) -> dict:
    try:
        report = TH.read_theory_report(runner.run_dir / "theory_report.txt")
        return {"theory_violations": int(report["violations"]), "theory_pairs": int(report["pairs"])}
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"theory_report.txt does not parse: {exc!r}")


def _check_instances(runner: cli.Runner, state: dict) -> dict:
    instances, _ = state["data"]
    labels = {inst.label for inst in instances}
    if not instances or labels != {0, 1}:
        raise CheckFailed(f"instance set has {len(instances)} rows and labels {sorted(labels)}")
    return {"instances": len(instances), "positives": sum(inst.label for inst in instances)}


# ---------------------------------------------------------------------------
# Rows behind rows_per_s
# ---------------------------------------------------------------------------


def _cv_train_rows(cfg: cli.RunConfig, state: dict) -> int:
    """Rows through forward + backward + update in one `nprl eval`.

    Mirrors the arms' training sets: the resampled set holds
    ``min(target, negatives) + target`` rows, the undersampled one
    ``min(target, negatives) + positives``; the traced run checks this count
    against the rows it sees reach ``backward``.
    """
    instances, _ = state["data"]
    split = P.stratified_kfold(
        instances, cfg.get_int("eval", "k_folds"), derive_seed(cfg.get_int("run", "seed"), "folds")
    )
    target = cfg.get_int("eval", "resample_target")
    e_pre = cfg.get_int("pretrain", "epochs")
    e_fine = cfg.get_int("finetune", "epochs")
    e_base = cfg.get_int("baseline", "epochs")
    arms = {a.strip() for a in cfg.get("eval", "arms").split(",") if a.strip()}
    total = 0
    for fold in range(split.k):
        train = [i for i in instances if split.fold_of[i.instance_index] != fold]
        pos = sum(i.label for i in train)
        neg = len(train) - pos
        resampled = min(target, neg) + target
        if "baseline" in arms:
            total += resampled * e_base
        if "nprl" in arms:
            finetune_rows = resampled if cfg.get_bool("finetune", "resample") else len(train)
            total += len(train) * e_pre + finetune_rows * e_fine
        if "class_balanced" in arms:
            total += len(train) * e_base
        if "class_balanced_undersampled" in arms:
            total += (min(target, neg) + pos) * e_base
    return total


def _theory_train_rows(cfg: cli.RunConfig, state: dict) -> int:
    instances, _ = state["data"]
    kept = min(len(instances), cfg.get_int("theory", "max_instances"))
    return kept * (cfg.get_int("theory", "pretrain_epochs") + cfg.get_int("theory", "finetune_epochs"))


def _csv_rows(cfg: cli.RunConfig, state: dict) -> int:
    """Data rows written plus read: the four cohort CSVs and instances.csv."""
    instances, _ = state["data"]
    return 2 * cohort_rows(state["records"]) + 2 * len(instances)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Stage, ...]
    measured: tuple[Stage, ...]
    check: Callable[[cli.Runner, dict], dict]
    artifacts: tuple[str, ...]  # files under the run directory that must rerun byte-identically
    rows: Callable[[cli.RunConfig, dict], int]
    rows_are_training: bool  # rows_per_s counts training rows, which the trace can confirm


SETUP_GEN_EXTRACT: tuple[Stage, ...] = (("gen", _gen), ("extract", _extract_from_records))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv_h32",
            setup=SETUP_GEN_EXTRACT,
            measured=(("eval", _eval),),
            check=_check_report,
            artifacts=("instances.csv", "report.csv", "roc.txt"),
            rows=_cv_train_rows,
            rows_are_training=True,
        ),
        Workload(
            name="theory_h256",
            setup=SETUP_GEN_EXTRACT,
            measured=(("theory", _theory),),
            check=_check_theory,
            artifacts=("instances.csv", "theory_report.txt"),
            rows=_theory_train_rows,
            rows_are_training=True,
        ),
        Workload(
            name="cohort_io",
            setup=(),
            measured=(("gen", _gen), ("extract", _extract_from_files), ("read_instances", _read_instances)),
            check=_check_instances,
            artifacts=(
                "cohort/patients.csv",
                "cohort/hourly.csv",
                "cohort/sofa.csv",
                "cohort/cultures.csv",
                "instances.csv",
                "instances.schema.txt",
            ),
            rows=_csv_rows,
            rows_are_training=False,
        ),
    )
}
