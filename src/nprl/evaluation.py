"""Metrics and the cross-validation protocol.

AUROC is the Mann-Whitney statistic computed by sort-and-rank with midranks
for ties. Confusion counts threshold the positive-class probability at 0.5 by
default. Cross-validation stacks the instances once, then per fold fits
scaling on the training rows only, resamples per arm, trains, scores the
untouched test rows, and aggregates by summing counts (with a pooled-score
ROC), keeping every fold's own metrics.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import artifacts as A
from . import model as M
from . import pipeline as P
from . import train as T
from .errors import FieldError, InputError, LeakageError, UndefinedMetricError
from .model import FeatureSchema, ModelConfig
from .util import derive_seed

ARMS = ("baseline", "nprl", "class_balanced", "class_balanced_undersampled")

ScorePair = tuple[float, int]


def auroc(scores: list[ScorePair]) -> float:
    """Probability that a random positive outscores a random negative, ties
    counted half; computed in O(m log m) via midranks."""
    values = np.array([s for s, _ in scores], dtype=np.float64)
    labels = np.array([y for _, y in scores], dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs at least one positive and one negative")
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int
    sensitivity: float | None
    specificity: float | None


def confusion(scores: list[ScorePair], threshold: float = 0.5) -> ConfusionCounts:
    """Predict positive iff score >= threshold; rates are None when undefined."""
    tp = tn = fp = fn = 0
    for score, label in scores:
        predicted = score >= threshold
        if label == 1:
            tp, fn = (tp + 1, fn) if predicted else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if predicted else (fp, tn + 1)
    sensitivity = tp / (tp + fn) if tp + fn else None
    specificity = tn / (tn + fp) if tn + fp else None
    return ConfusionCounts(tp, tn, fp, fn, sensitivity, specificity)


@dataclass
class FoldReport:
    fold_id: int
    scores: list[ScorePair]
    tp: int
    tn: int
    fp: int
    fn: int
    auroc: float
    sensitivity: float | None
    specificity: float | None

    @classmethod
    def from_scores(cls, fold_id: int, scores: list[ScorePair], threshold: float) -> "FoldReport":
        counts = confusion(scores, threshold)
        return cls(
            fold_id=fold_id,
            scores=scores,
            tp=counts.tp,
            tn=counts.tn,
            fp=counts.fp,
            fn=counts.fn,
            auroc=auroc(scores),
            sensitivity=counts.sensitivity,
            specificity=counts.specificity,
        )


@dataclass
class AggregateReport:
    folds: list[FoldReport]
    tp: int
    tn: int
    fp: int
    fn: int
    pooled_auroc: float
    pooled_sensitivity: float | None
    pooled_specificity: float | None


def aggregate(folds: list[FoldReport], threshold: float = 0.5) -> AggregateReport:
    pooled: list[ScorePair] = []
    for f in folds:
        pooled.extend(f.scores)
    counts = confusion(pooled, threshold)
    report = AggregateReport(
        folds=folds,
        tp=counts.tp,
        tn=counts.tn,
        fp=counts.fp,
        fn=counts.fn,
        pooled_auroc=auroc(pooled),
        pooled_sensitivity=counts.sensitivity,
        pooled_specificity=counts.specificity,
    )
    assert report.tp == sum(f.tp for f in folds)
    assert report.tn == sum(f.tn for f in folds)
    return report


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmConfigs:
    """Everything one arm needs; seeds inside are overridden per fold."""

    model: ModelConfig
    pretrain: T.PretrainConfig = T.PretrainConfig()
    finetune: T.FinetuneConfig = T.FinetuneConfig()
    baseline: T.BaselineConfig = T.BaselineConfig()
    resample_target: int = 2600
    threshold: float = 0.5
    weight_scheme: str = "inverse_frequency"
    effective_beta: float = 0.999

    def __post_init__(self):
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
):
    """Train one arm on one fold's (already scaled) training arrays."""
    rows = slice(None)  # every training row, unless the arm resamples
    weights = None
    if arm == "baseline" or (arm == "nprl" and cfg.finetune.resample):
        rows = P.resample_training(labels, cfg.resample_target, derive_seed(seed, "resample"))
    elif arm == "class_balanced":
        weights = T.class_balanced_weights(labels, cfg.weight_scheme, cfg.effective_beta)
    elif arm == "class_balanced_undersampled":
        rows = P.undersample_negatives(labels, cfg.resample_target, derive_seed(seed, "resample"))
        weights = T.class_balanced_weights(labels[rows], cfg.weight_scheme, cfg.effective_beta)
    elif arm != "nprl":
        raise InputError(f"unknown arm {arm!r}, expected one of {ARMS}")
    data = (temporal[rows], statics[rows], labels[rows])
    if arm == "nprl":
        # pretraining sees every training row and no label
        theta0, _ = T.nprl_pretrain(
            temporal, statics, cfg.model, schema, replace(cfg.pretrain, seed=derive_seed(seed, "pretrain"))
        )
        theta0 = M.replace_head(theta0, cfg.model.head_classes, derive_seed(seed, "head"))
        finetune = replace(cfg.finetune, seed=derive_seed(seed, "train"))
        params, _ = T.finetune(*data, theta0, finetune, cfg.model, schema)
    else:
        params, _ = T.train_baseline(
            *data, cfg.model, schema, replace(cfg.baseline, seed=derive_seed(seed, "train")), class_weights=weights
        )
    return params


def _run_fold(args) -> FoldReport:
    temporal, statics, labels, fold_of, schema, arm, cfg, seed, fold = args
    test = fold_of == fold
    scaling = P.fit_minmax(temporal[~test], statics[~test])
    train_temporal, train_statics = P.apply_minmax(temporal[~test], statics[~test], scaling)
    test_temporal, test_statics = P.apply_minmax(temporal[test], statics[test], scaling)
    fold_seed = derive_seed(seed, arm, "fold", fold)
    params = _fit_arm(arm, train_temporal, train_statics, labels[~test], schema, cfg, fold_seed)
    probs = M.predict_proba(test_temporal, test_statics, params, cfg.model)[:, 1]
    scores = [(float(p), int(y)) for p, y in zip(probs, labels[test])]
    return FoldReport.from_scores(fold, scores, cfg.threshold)


def cross_validate(
    instances: list[P.NightInstance],
    schema: FeatureSchema,
    split: P.DatasetSplit,
    arm: str,
    configs: ArmConfigs,
    seed: int,
    n_workers: int = 1,
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
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
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


def _report_rows(arm: str, report: AggregateReport) -> list[list[str]]:
    rows = []
    for f in report.folds:
        rows.append(
            [
                arm,
                str(f.fold_id),
                str(len(f.scores)),
                str(f.tp + f.fn),
                str(f.tn + f.fp),
                str(f.tp),
                str(f.tn),
                str(f.fp),
                str(f.fn),
                repr(f.auroc),
                _metric_str(f.sensitivity),
                _metric_str(f.specificity),
            ]
        )
    total = sum(len(f.scores) for f in report.folds)
    rows.append(
        [
            arm,
            "ALL",
            str(total),
            str(report.tp + report.fn),
            str(report.tn + report.fp),
            str(report.tp),
            str(report.tn),
            str(report.fp),
            str(report.fn),
            repr(report.pooled_auroc),
            _metric_str(report.pooled_sensitivity),
            _metric_str(report.pooled_specificity),
        ]
    )
    return rows


def roc_points(scores: list[ScorePair]) -> list[tuple[float, float]]:
    """ROC polyline from pooled scores, from (0, 0) to (1, 1)."""
    values = np.array([s for s, _ in scores])
    labels = np.array([y for _, y in scores])
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes")
    order = np.argsort(-values, kind="mergesort")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        score = values[order[i]]
        while j < len(order) and values[order[j]] == score:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def emit_combined_report(
    reports: dict[str, AggregateReport], csv_path, roc_path, header_comment: str | None = None
) -> None:
    """Per arm, one CSV row per fold plus an ALL row, and a pooled fpr/tpr
    point list."""
    rows = (row for arm, report in reports.items() for row in _report_rows(arm, report))
    A.write_table(csv_path, REPORT_COLUMNS, rows, header_comment)
    A.write_text(roc_path, _roc_lines(reports), header_comment)


def _roc_lines(reports: dict[str, AggregateReport]):
    for arm, report in reports.items():
        yield f"# arm={arm}"
        for fpr, tpr in roc_points([pair for f in report.folds for pair in f.scores]):
            yield f"{fpr!r} {tpr!r}"


def read_report(csv_path) -> dict[str, dict[str, dict[str, str]]]:
    """Parse report.csv into {arm: {fold_id: {column: value}}}."""
    out: dict[str, dict[str, dict[str, str]]] = {}
    for _, row in A.read_table(csv_path, REPORT_COLUMNS):
        out.setdefault(row[0], {})[row[1]] = dict(zip(REPORT_COLUMNS, row))
    return out
