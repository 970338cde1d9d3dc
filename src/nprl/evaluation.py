"""Metrics and the cross-validation protocol.

Scores are two arrays, positive-class probabilities and 0/1 labels, from
prediction to report. AUROC is the Mann-Whitney statistic from midranks, so
ties count half. Confusion counts threshold the probability at 0.5 by
default. Cross-validation stacks the instances once, then per fold fits
scaling on the training rows only, resamples per arm, trains and scores the
untouched test rows, keeping the fold's training logs. The pooled report
scores the folds' concatenated arrays, and the ROC is drawn from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts as A
from . import model as M
from . import numgrad as ng
from . import pipeline as P
from . import train as T
from .errors import FieldError, FormatError, InputError, LeakageError, UndefinedMetricError
from .model import FeatureSchema, ModelConfig
from .util import derive_seed

ARMS = ("baseline", "nprl", "class_balanced", "class_balanced_undersampled")


def _both_classes(labels: np.ndarray, what: str) -> tuple[np.ndarray, int, int]:
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"{what} needs at least one positive and one negative")
    return positive, n_pos, n_neg


def auroc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative, ties
    counted half: the Mann-Whitney statistic from midranks, O(m log m)."""
    positive, n_pos, n_neg = _both_classes(labels, "AUROC")
    _, group, counts = np.unique(probs, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - 0.5 * (counts - 1)  # 1-based, per distinct score
    u = float(midranks[group][positive].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def confusion(probs: np.ndarray, labels: np.ndarray, threshold: float) -> dict:
    """Counts and rates when predicting positive iff prob >= threshold; a
    rate is None when undefined."""
    predicted, positive = probs >= threshold, labels == 1
    tp = int((predicted & positive).sum())
    fn = int(positive.sum()) - tp
    fp = int(predicted.sum()) - tp
    tn = len(labels) - tp - fn - fp
    return dict(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        sensitivity=tp / (tp + fn) if tp + fn else None,
        specificity=tn / (tn + fp) if tn + fp else None,
    )


@dataclass
class ScoreReport:
    """Held-out scores and their metrics, for one fold or (fold_id None) the
    pool of every fold. A fold's report also carries the training logs of the
    model that scored it: the outcome training, and for the nprl arm the
    pretraining; the pooled report has none."""

    fold_id: int | None
    probs: np.ndarray
    labels: np.ndarray
    tp: int
    tn: int
    fp: int
    fn: int
    auroc: float
    sensitivity: float | None
    specificity: float | None
    log: T.TrainLog | None = None
    pretrain_log: T.TrainLog | None = None


def score(fold_id: int | None, probs: np.ndarray, labels: np.ndarray, threshold: float) -> ScoreReport:
    """The report of one set of held-out scores."""
    return ScoreReport(fold_id, probs, labels, auroc=auroc(probs, labels), **confusion(probs, labels, threshold))


@dataclass
class AggregateReport:
    folds: list[ScoreReport]
    pooled: ScoreReport


def aggregate(folds: list[ScoreReport], threshold: float) -> AggregateReport:
    """Every fold's report plus the report of their concatenated scores."""
    probs = np.concatenate([f.probs for f in folds])
    labels = np.concatenate([f.labels for f in folds])
    pooled = score(None, probs, labels, threshold)
    assert pooled.tp == sum(f.tp for f in folds) and pooled.tn == sum(f.tn for f in folds)
    return AggregateReport(folds, pooled)


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmConfigs:
    """The ``[eval]`` section and the four sections one arm trains with: the
    folds and arms of a cross-validated comparison, and each arm's configs."""

    model: ModelConfig
    pretrain: T.Schedule
    finetune: T.FinetuneConfig
    baseline: T.Schedule
    resample_target: int
    threshold: float
    weight_scheme: str
    effective_beta: float
    k_folds: int
    arms: tuple[str, ...]  # the arms `nprl eval` runs, in order

    def __post_init__(self):
        if self.k_folds < 2:
            raise FieldError("k_folds", f"must be >= 2, got {self.k_folds}")
        if not (0 < len(set(self.arms)) == len(self.arms) and set(self.arms) <= set(ARMS)):
            raise FieldError("arms", f"must list distinct arms out of {', '.join(ARMS)}, got {','.join(self.arms)!r}")
        if self.resample_target < 1:
            raise FieldError("resample_target", f"must be >= 1, got {self.resample_target}")
        if not 0.0 <= self.threshold <= 1.0:
            raise FieldError("threshold", f"must be in [0, 1], got {self.threshold}")
        if self.weight_scheme not in ("inverse_frequency", "effective_number"):
            raise FieldError(
                "weight_scheme", f"must be inverse_frequency or effective_number, got {self.weight_scheme!r}"
            )
        if self.weight_scheme == "effective_number" and not 0.0 <= self.effective_beta < 1.0:
            raise FieldError("effective_beta", f"must be in [0, 1), got {self.effective_beta}")


def _fit_arm(
    arm: str,
    temporal: np.ndarray,
    statics: np.ndarray,
    labels: np.ndarray,
    schema: FeatureSchema,
    cfg: ArmConfigs,
    seed: int,
) -> tuple[ng.ParamSet, T.TrainLog, T.TrainLog | None]:
    """Train one arm on one fold's (already scaled) training arrays, giving
    the parameters, the outcome training log and, for the nprl arm, the
    pretraining log; every class-balanced loss weights by the ``[eval]``
    scheme."""
    rows = slice(None)  # every training row, unless the arm resamples
    if arm == "baseline" or (arm == "nprl" and cfg.finetune.resample):
        rows = P.resample_training(labels, cfg.resample_target, derive_seed(seed, "resample"))
    elif arm == "class_balanced_undersampled":
        rows = P.undersample_negatives(labels, cfg.resample_target, derive_seed(seed, "resample"))
    elif arm not in ARMS:
        raise InputError(f"unknown arm {arm!r}, expected one of {ARMS}")
    data = (temporal[rows], statics[rows], labels[rows])
    balanced = arm.startswith("class_balanced") or (arm == "nprl" and cfg.finetune.loss == "class_balanced")
    weights = T.class_balanced_weights(data[2], cfg.weight_scheme, cfg.effective_beta) if balanced else None
    train_seed = derive_seed(seed, "train")
    if arm == "nprl":
        # pretraining sees every training row and no label
        theta0, pretrain_log = T.nprl_pretrain(
            temporal, statics, cfg.model, schema, cfg.pretrain, derive_seed(seed, "pretrain")
        )
        theta0 = M.replace_head(theta0, derive_seed(seed, "head"))
        params, log = T.finetune(*data, theta0, cfg.finetune, cfg.model, train_seed, class_weights=weights)
        return params, log, pretrain_log
    params, log = T.train_baseline(*data, cfg.model, schema, cfg.baseline, train_seed, class_weights=weights)
    return params, log, None


def _run_fold(args) -> ScoreReport:
    temporal, statics, labels, fold_of, schema, arm, cfg, seed, fold = args
    test = fold_of == fold
    scaling = P.fit_minmax(temporal[~test], statics[~test])
    train_temporal, train_statics = P.apply_minmax(temporal[~test], statics[~test], scaling)
    test_temporal, test_statics = P.apply_minmax(temporal[test], statics[test], scaling)
    fold_seed = derive_seed(seed, arm, "fold", fold)
    params, log, pretrain_log = _fit_arm(arm, train_temporal, train_statics, labels[~test], schema, cfg, fold_seed)
    probs = M.predict_proba(test_temporal, test_statics, params, cfg.model)[:, 1]
    report = score(fold, probs, labels[test], cfg.threshold)
    report.log, report.pretrain_log = log, pretrain_log
    return report


def cross_validate(
    instances: list[P.NightInstance],
    schema: FeatureSchema,
    split: P.DatasetSplit,
    arm: str,
    configs: ArmConfigs,
    seed: int,
    n_workers: int,
) -> AggregateReport:
    """Train and score one arm across every fold of the split.

    The instances are stacked once; every fold job carries the three arrays
    and each row's fold id."""
    missing = [i.instance_index for i in instances if i.instance_index not in split.fold_of]
    if missing:
        raise InputError(f"split does not cover instances {missing[:5]}")
    if len({i.instance_index for i in instances}) != len(instances):
        # a repeated index would sit in one fold twice and defeat the fold accounting
        raise LeakageError("duplicate instance indices in the dataset")
    fold_of = np.array([split.fold_of[i.instance_index] for i in instances])
    arrays = P.stack_instances(instances)
    jobs = [(*arrays, fold_of, schema, arm, configs, seed, fold) for fold in range(split.k)]
    if n_workers > 1:
        # each fold worker counts only its share of the CPUs, so the workers
        # together run no more busy threads than there are CPUs; the pool
        # module is imported only here, as a serial run never needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers, initializer=ng.share_cpus, initargs=(n_workers,)) as pool:
            folds = list(pool.map(_run_fold, jobs))
    else:
        folds = [_run_fold(job) for job in jobs]
    return aggregate(folds, configs.threshold)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

REPORT_COLUMNS = (
    "arm",
    "fold_id",
    "n",
    "n_pos",
    "n_neg",
    "tp",
    "tn",
    "fp",
    "fn",
    "auroc",
    "sensitivity",
    "specificity",
)


def _metric_str(value: float | None) -> str:
    return "NA" if value is None else repr(float(value))


def _report_row(arm: str, r: ScoreReport) -> list[str]:
    counts = (len(r.labels), r.tp + r.fn, r.tn + r.fp, r.tp, r.tn, r.fp, r.fn)
    fold = "ALL" if r.fold_id is None else str(r.fold_id)
    return [arm, fold, *map(str, counts), *map(_metric_str, (r.auroc, r.sensitivity, r.specificity))]


def roc_points(probs: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """ROC polyline from (0, 0) to (1, 1), one point per distinct score,
    highest score first."""
    positive, n_pos, n_neg = _both_classes(labels, "ROC")
    distinct, group, counts = np.unique(probs, return_inverse=True, return_counts=True)
    pos = np.bincount(group[positive], minlength=len(distinct))
    tp, fp = np.cumsum(pos[::-1]), np.cumsum((counts - pos)[::-1])
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def emit_combined_report(
    reports: dict[str, AggregateReport], csv_path, roc_path, header_comment: str | None = None
) -> None:
    """Per arm, one CSV row per fold plus an ALL row, and a pooled fpr/tpr
    point list."""
    rows = (_report_row(arm, r) for arm, report in reports.items() for r in (*report.folds, report.pooled))
    A.write_table(csv_path, REPORT_COLUMNS, rows, header_comment)
    A.write_text(roc_path, _roc_lines(reports), header_comment)


def _roc_lines(reports: dict[str, AggregateReport]):
    for arm, report in reports.items():
        yield f"# arm={arm}"
        for fpr, tpr in roc_points(report.pooled.probs, report.pooled.labels):
            yield f"{fpr!r} {tpr!r}"


def read_report(csv_path) -> dict[str, dict[str, dict[str, str]]]:
    """Parse report.csv into {arm: {fold_id: {column: value}}}; an (arm,
    fold_id) pair may appear once."""
    out: dict[str, dict[str, dict[str, str]]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, row in A.read_table(csv_path, REPORT_COLUMNS):
        arm, fold = row[0], row[1]
        seen = first_line.setdefault((arm, fold), lineno)
        if seen != lineno:
            raise FormatError(f"{csv_path}:{lineno}: repeated row for arm {arm} fold {fold} (first at line {seen})")
        out.setdefault(arm, {})[fold] = dict(zip(REPORT_COLUMNS, row))
    return out
