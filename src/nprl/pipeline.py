"""From raw cohort records to model-ready night instances.

The chain runs on each record's hourly array: derive mean arterial pressure
and drop systolic pressure, forward-fill gaps, find the infection
onset from cultures and organ-dysfunction scores, cut one 9-hour window per
eligible night (22:00 through 06:00) for hospital days 3 to 14, label each
window by whether the first onset falls in the following 24 hours, and drop
windows that still contain gaps or that lie past the first onset.

Feature-subset selection, stratified fold assignment and the instances.csv
round trip take and return instance lists. ``stack_instances`` is the
boundary: min-max scaling (fitted on training folds only) and the per-class
resampling used for training take the stacked arrays, and the resamplers
return row indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from . import artifacts as A
from .cohort import (
    CUMULATIVE_FIELDS,
    HOURLY_FIELDS,
    STATIC_FEATURES,
    PatientRecord,
    day_start,
)
from .errors import ConfigError, FormatError, InputError
from .model import WINDOW_LEN, FeatureSchema
from .util import derive_rng

# Temporal feature order is fixed: the six hourly vitals (with MAP derived and
# SBP dropped), then the five cumulative exposures.
SUBSET1_FEATURES = ("heart_rate", "dbp", "map", "resp_rate", "temperature", "fio2")
SUBSET3_FEATURES = CUMULATIVE_FIELDS
SUBSET2_FEATURES = STATIC_FEATURES
TEMPORAL_FEATURES = SUBSET1_FEATURES + SUBSET3_FEATURES

FIRST_DAY = 3
LAST_DAY = 14
NIGHT_START_HOUR = 22  # on the prior calendar day
NIGHT_END_HOUR = 6
SOFA_LOOKBACK = timedelta(hours=72)
SOFA_LOOKAHEAD = timedelta(hours=72)


def full_schema() -> FeatureSchema:
    return FeatureSchema(TEMPORAL_FEATURES, SUBSET2_FEATURES)


def subset_of(name: str) -> int:
    if name in SUBSET1_FEATURES:
        return 1
    if name in SUBSET2_FEATURES:
        return 2
    if name in SUBSET3_FEATURES:
        return 3
    raise InputError(f"unknown feature {name!r}")


@dataclass
class NightInstance:
    patient_id: str
    day_index: int
    instance_index: int
    temporal: np.ndarray  # (9, T) float64, gap-free
    statics: np.ndarray  # (S,) float64
    label: int


def stack_instances(instances: list[NightInstance]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, 9, T) temporal, (n, S) static and (n,) label arrays of the
    instances, row i from instance i; everything past this boundary takes
    these arrays."""
    if not instances:
        raise InputError("need at least one instance")
    temporal = np.stack([np.asarray(inst.temporal, dtype=np.float64) for inst in instances])
    statics = np.stack([np.asarray(inst.statics, dtype=np.float64) for inst in instances])
    return temporal, statics, np.array([inst.label for inst in instances], dtype=np.int64)


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------


def derive_map(dbp: np.ndarray, sbp: np.ndarray) -> np.ndarray:
    """Mean arterial pressure (2*DBP + SBP) / 3; NaN where either input is."""
    dbp, sbp = np.broadcast_arrays(np.asarray(dbp, dtype=np.float64), np.asarray(sbp, dtype=np.float64))
    present = ~(np.isnan(dbp) | np.isnan(sbp))
    bad = np.flatnonzero(present & ((dbp <= 0.0) | (sbp <= 0.0)))
    if len(bad):
        raise InputError(f"blood pressures must be positive, got dbp={dbp.flat[bad[0]]}, sbp={sbp.flat[bad[0]]}")
    return (2.0 * dbp + sbp) / 3.0


def locf_impute(values: np.ndarray) -> np.ndarray:
    """Forward-fill down axis 0: each NaN takes the latest earlier value;
    leading NaNs stay."""
    values = np.asarray(values, dtype=np.float64)
    rows = np.arange(len(values)).reshape((-1,) + (1,) * (values.ndim - 1))
    latest = np.maximum.accumulate(np.where(np.isnan(values), 0, rows), axis=0)
    return np.take_along_axis(values, latest, axis=0)


def clean_values(record: PatientRecord) -> np.ndarray:
    """The record's (n_hours, len(TEMPORAL_FEATURES)) hourly grid after MAP
    derivation and forward filling; NaN marks a gap."""
    columns = dict(zip(HOURLY_FIELDS, record.hourly.T))
    columns["map"] = derive_map(columns["dbp"], columns["sbp"])
    return locf_impute(np.column_stack([columns[name] for name in TEMPORAL_FEATURES]))


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------


def _hospital_day(ts: datetime, admit_ts: datetime) -> int:
    return (ts.date() - admit_ts.date()).days + 1


def derive_sepsis_labels(record: PatientRecord) -> datetime | None:
    """Earliest qualifying onset, or None.

    A positive culture drawn in hospital days 3 to 14 qualifies when the
    organ-dysfunction score rises by at least 2 points around it: the maximum
    score within 72 hours after the draw exceeds the minimum within the 72
    hours up to and including it by 2 or more. Onset time is the draw time.
    """
    if not record.sofa:
        raise InputError(f"patient {record.patient_id!r} has no organ-dysfunction scores")
    for ts, positive in sorted(record.cultures, key=lambda c: c[0]):
        if not positive:
            continue
        if not FIRST_DAY <= _hospital_day(ts, record.admit_ts) <= LAST_DAY:
            continue
        before = [s for t, s in record.sofa if ts - SOFA_LOOKBACK <= t <= ts]
        after = [s for t, s in record.sofa if ts < t <= ts + SOFA_LOOKAHEAD]
        if before and after and max(after) - min(before) >= 2:
            return ts
    return None


def onset_day_index(onset: datetime, admit_ts: datetime) -> int:
    """The day d whose prediction window (06:00 day d, 06:00 day d+1] holds onset."""
    first_boundary = day_start(admit_ts, 1) + timedelta(hours=NIGHT_END_HOUR)
    seconds = (onset - first_boundary).total_seconds()
    if seconds <= 0:
        return 0
    return int(np.ceil(seconds / 86400.0))


# ---------------------------------------------------------------------------
# Window extraction
# ---------------------------------------------------------------------------


def extract_night_instances(record: PatientRecord, onset: datetime | None) -> list[NightInstance]:
    """One instance per eligible night, with every feature of
    ``full_schema()``; instance_index is stamped later."""
    values, hours = clean_values(record), record.hours
    statics = np.asarray(record.statics, dtype=np.float64)
    onset_day = onset_day_index(onset, record.admit_ts) if onset is not None else None

    instances = []
    for day in range(FIRST_DAY, LAST_DAY + 1):
        if onset_day is not None and day > onset_day:
            break  # nights past the first onset are excluded
        start = np.datetime64(day_start(record.admit_ts, day - 1), "h") + NIGHT_START_HOUR
        first = int(np.searchsorted(hours, start))
        last = first + WINDOW_LEN - 1
        # hours strictly increase, so the window is whole when its last hour is where it should be
        if last >= len(hours) or hours[last] != start + (WINDOW_LEN - 1):
            continue  # window extends outside the stay
        temporal = values[first : last + 1].copy()
        if np.isnan(temporal).any():
            continue  # gaps survived forward filling (leading-gap nights)
        label = 1 if onset_day is not None and day == onset_day else 0
        instances.append(
            NightInstance(
                patient_id=record.patient_id,
                day_index=day,
                instance_index=-1,
                temporal=temporal,
                statics=statics.copy(),
                label=label,
            )
        )
    return instances


def extract_instances(records: list[PatientRecord]) -> list[NightInstance]:
    """Label and window every record; indices are dataset-unique and stable."""
    out: list[NightInstance] = []
    for record in records:
        for inst in extract_night_instances(record, derive_sepsis_labels(record)):
            inst.instance_index = len(out)
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Feature subsets
# ---------------------------------------------------------------------------


def check_subsets(subsets: set[int]) -> None:
    """InputError unless ``subsets`` names subset 1 and only subsets 1 to 3."""
    if 1 not in subsets:
        raise InputError("feature subset 1 is required")
    if not subsets <= {1, 2, 3}:
        raise InputError(f"unknown subsets {sorted(subsets - {1, 2, 3})}")


def select_features(
    instances: list[NightInstance], schema: FeatureSchema, subsets: set[int]
) -> tuple[list[NightInstance], FeatureSchema]:
    """Restrict instances to the requested feature subsets; the one place
    that picks feature columns, as extraction keeps every feature.

    Subset 1 (hourly vitals) is mandatory and anchors the window; subset 3
    adds the cumulative exposures; subset 2 toggles the static features.
    """
    check_subsets(subsets)
    temporal_names = tuple(
        n for n in schema.temporal_names if subset_of(n) == 1 or (subset_of(n) == 3 and 3 in subsets)
    )
    static_names = schema.static_names if 2 in subsets else ()
    cols = [schema.temporal_names.index(n) for n in temporal_names]
    new_schema = FeatureSchema(temporal_names, static_names)
    reduced = [
        replace(
            inst,
            temporal=inst.temporal[:, cols].copy(),
            statics=inst.statics.copy() if 2 in subsets else np.empty(0),
        )
        for inst in instances
    ]
    return reduced, new_schema


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

CLAMP_LO, CLAMP_HI = -0.5, 1.5  # where test-fold values outside the fitted range stop


@dataclass(frozen=True)
class ScalingParams:
    temporal_min: np.ndarray
    temporal_max: np.ndarray
    static_min: np.ndarray
    static_max: np.ndarray


def fit_minmax(temporal: np.ndarray, statics: np.ndarray) -> ScalingParams:
    """Per-feature min and max of (n, 9, T) temporal and (n, S) static
    arrays; call on training folds only."""
    if not len(temporal):
        raise InputError("cannot fit scaling on an empty instance set")
    return ScalingParams(
        temporal_min=temporal.min(axis=(0, 1)),
        temporal_max=temporal.max(axis=(0, 1)),
        static_min=statics.min(axis=0),
        static_max=statics.max(axis=0),
    )


def _scale(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(span > 0.0, (values - lo) / np.where(span > 0.0, span, 1.0), 0.0)
    return np.clip(scaled, CLAMP_LO, CLAMP_HI, out=scaled)


def apply_minmax(
    temporal: np.ndarray, statics: np.ndarray, params: ScalingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Map to [0, 1] by the fitted ranges; constant features go to 0; values
    outside the fitted range (test folds) are clamped to [-0.5, 1.5]."""
    return (
        _scale(temporal, params.temporal_min, params.temporal_max),
        _scale(statics, params.static_min, params.static_max),
    )


# ---------------------------------------------------------------------------
# Folds and resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    fold_of: dict[int, int]  # instance_index -> fold id
    k: int


def stratified_kfold(instances: list[NightInstance], k: int, seed: int) -> DatasetSplit:
    """Shuffle each class separately and deal round-robin into k folds."""
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    pos = [inst.instance_index for inst in instances if inst.label == 1]
    neg = [inst.instance_index for inst in instances if inst.label == 0]
    # every fold's test rows need both classes for AUROC
    for class_name, indices in (("positive", pos), ("negative", neg)):
        if len(indices) < k:
            raise InputError(f"need at least {k} {class_name} instances, got {len(indices)}")
    fold_of: dict[int, int] = {}
    for class_name, indices in (("pos", pos), ("neg", neg)):
        rng = derive_rng(seed, "kfold", class_name)
        shuffled = [indices[i] for i in rng.permutation(len(indices))]
        for i, idx in enumerate(shuffled):
            fold_of[idx] = i % k
    return DatasetSplit(fold_of=fold_of, k=k)


def resample_training(labels: np.ndarray, target: int, seed: int) -> np.ndarray:
    """Rows that balance a training set to ``target`` per class.

    Negatives are sampled without replacement down to the target (all kept if
    fewer); positives are drawn with replacement up to the target when scarce,
    without replacement otherwise. The output order is a seeded shuffle.
    """
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if not len(pos) or not len(neg):
        raise InputError("resampling needs both classes present")
    rng = derive_rng(seed, "resample")
    neg_sample = neg[rng.choice(len(neg), size=min(target, len(neg)), replace=False)]
    pos_sample = pos[rng.choice(len(pos), size=target, replace=len(pos) < target)]
    combined = np.concatenate([neg_sample, pos_sample])
    return combined[rng.permutation(len(combined))]


def undersample_negatives(labels: np.ndarray, target: int, seed: int) -> np.ndarray:
    """Rows that cut the majority class to ``target``, leaving positives
    untouched."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    rng = derive_rng(seed, "undersample")
    neg_sample = neg[rng.choice(len(neg), size=min(target, len(neg)), replace=False)]
    combined = np.concatenate([neg_sample, pos])
    return combined[rng.permutation(len(combined))]


# ---------------------------------------------------------------------------
# instances.csv round trip
# ---------------------------------------------------------------------------


def _instance_columns(schema: FeatureSchema) -> list[str]:
    return (
        ["instance_index", "patient_id", "day_index", "label"]
        + [f"{name}_h{hour}" for hour in range(WINDOW_LEN) for name in schema.temporal_names]
        + list(schema.static_names)
    )


def write_instances(
    instances: list[NightInstance],
    schema: FeatureSchema,
    csv_path,
    sidecar_path,
    header_comment: str | None = None,
) -> None:
    """instances.csv plus a key=value sidecar describing columns and subsets."""
    values = [np.concatenate([inst.temporal.reshape(-1), inst.statics]) for inst in instances]
    lines = (
        f"{A.csv_row([inst.instance_index, inst.patient_id, inst.day_index, inst.label])},{text}"
        for inst, text in zip(instances, A.number_rows(np.array(values)))
    )
    A.write_lines(csv_path, _instance_columns(schema), lines, header_comment)
    fields = [
        ("window_len", WINDOW_LEN),
        ("temporal_names", ",".join(schema.temporal_names)),
        ("static_names", ",".join(schema.static_names)),
    ] + [(f"subset.{name}", subset_of(name)) for name in schema.temporal_names + schema.static_names]
    A.write_fields(sidecar_path, fields, header_comment)


def read_instances(csv_path, sidecar_path) -> tuple[list[NightInstance], FeatureSchema]:
    fields = A.read_fields(sidecar_path)
    try:
        window_len = A.number(fields["window_len"], int)
        schema = FeatureSchema(
            temporal_names=tuple(n for n in fields["temporal_names"].split(",") if n),
            static_names=tuple(n for n in fields["static_names"].split(",") if n),
        )
    except KeyError as exc:
        raise FormatError(f"{sidecar_path}: missing key {exc}") from None
    except ValueError:
        raise FormatError(f"{sidecar_path}:{fields.line['window_len']}: window_len is not an integer") from None
    except ConfigError as exc:
        raise FormatError(f"{sidecar_path}: {exc}") from None
    if window_len != WINDOW_LEN:
        raise FormatError(
            f"{sidecar_path}:{fields.line['window_len']}: window_len must be {WINDOW_LEN}, got {window_len}"
        )

    n_temporal = WINDOW_LEN * schema.n_temporal
    instances = []
    first_line: dict[int, int] = {}
    for rows, values, row_ok in A.number_blocks(csv_path, _instance_columns(schema), 4):
        for (lineno, row), row_values, ok in zip(rows, values, row_ok.tolist()):
            try:
                instance_index, day_index, label = (A.number(row[i], int) for i in (0, 2, 3))
                if not ok:
                    A.number(A.first_rejected(row[4:]))  # raises the first bad cell's error
            except ValueError as exc:
                raise FormatError(f"{csv_path}:{lineno}: {exc}") from None
            if label not in (0, 1):
                raise FormatError(f"{csv_path}:{lineno}: label must be 0 or 1, got {label}")
            seen = first_line.setdefault(instance_index, lineno)
            if seen != lineno:
                raise FormatError(
                    f"{csv_path}:{lineno}: repeated instance_index {instance_index} (first at line {seen})"
                )
            temporal = row_values[:n_temporal].reshape(WINDOW_LEN, schema.n_temporal)
            instances.append(
                NightInstance(row[1], day_index, instance_index, temporal, row_values[n_temporal:], label)
            )
    if not instances:
        raise FormatError(f"{csv_path}: no instance rows")
    return instances, schema
