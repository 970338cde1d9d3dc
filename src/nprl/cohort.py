"""Seeded synthetic EHR cohort generator and its CSV round trip.

Stands in for real trauma-ICU admissions: hourly vitals follow AR(1)
processes around per-vital baselines, cumulative exposures accumulate
monotonically, organ-dysfunction scores follow a bounded walk, and a
configured fraction of patients receives a planted infection story (one
positive culture plus a score rise shortly after) with a pre-onset
physiology drift over the preceding day. Missing values are injected last
so forward-filling downstream can restore everything but leading gaps.

Every patient is generated from a child seed derived from the master seed
and the patient's position, so generation is order-independent and
bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import artifacts as A
from .errors import FieldError, FormatError, InputError
from .util import derive_rng

VITAL_FIELDS = ("heart_rate", "sbp", "dbp", "resp_rate", "temperature", "fio2")
CUMULATIVE_FIELDS = (
    "iv_bolus_cum",
    "rbc_units_cum",
    "vent_days_cum",
    "surgeries_cum",
    "surgery_duration_cum",
)
HOURLY_FIELDS = VITAL_FIELDS + CUMULATIVE_FIELDS

# The fifteen admission-level features, in the column order of patients.csv.
STATIC_FEATURES = (
    "age",
    "sex",
    "mechanism",
    "transferred",
    "head_injury",
    "first_sbp_ed",
    "reverse_shock_index",
    "max_base_deficit_48h",
    "max_lactate_48h",
    "rbc_units_48h",
    "crystalloid_l_48h",
    "apache2",
    "antibiotic_48h",
    "surgeries_48h",
    "ed_disposition",
)

# One organ-dysfunction step per draw: down, three ways of staying, up.
SOFA_STEPS = np.array([-1, 0, 0, 0, 1])
SOFA_INTERVAL_HOURS = 6  # hours between organ-dysfunction scores
SOFA_RISE = 4  # planted organ-dysfunction jump after onset
SOFA_RAMP_HOURS = 12  # hours that jump takes
DRIFT_HOURS = 24  # length of the vitals' pre-onset drift ramp

# Patients whose AR(1) vitals step together. 16 keeps a group's (hours,
# patients, vitals) array near 370 KB at the shipped stays; groups of 64
# (1.5 MB arrays) left the heap fragmented enough to raise the peak RSS of a
# later read_cohort by 2 MB.
VITAL_GROUP = 16

BASE_TS = datetime(2024, 1, 1, 0, 0)
HOUR = timedelta(hours=1)
EPOCH = datetime(1970, 1, 1)  # hour 0 of datetime64[h]


@dataclass(eq=False)
class PatientRecord:
    patient_id: str
    admit_ts: datetime
    los_hours: int
    hours: np.ndarray  # (n_hours,) datetime64[h] stamps, strictly increasing
    hourly: np.ndarray  # (n_hours, len(HOURLY_FIELDS)) float64; NaN marks a missing cell
    statics: list[float]
    sofa: list[tuple[datetime, int]]
    cultures: list[tuple[datetime, bool]]

    def __eq__(self, other):
        """Field by field; missing hourly cells match each other."""
        if not isinstance(other, PatientRecord):
            return NotImplemented
        return (
            np.array_equal(self.hours, other.hours)
            and np.array_equal(self.hourly, other.hourly, equal_nan=True)
            and (self.patient_id, self.admit_ts, self.los_hours, self.statics, self.sofa, self.cultures)
            == (other.patient_id, other.admit_ts, other.los_hours, other.statics, other.sofa, other.cultures)
        )


@dataclass(frozen=True)
class VitalParams:
    """AR(1) model for one vital: x_t = baseline + ar * (x_{t-1} - baseline) + noise."""

    baseline: float
    ar_coeff: float
    noise_scale: float
    lo: float
    hi: float
    onset_drift: float = 0.0  # added linearly over the DRIFT_HOURS before onset

    def __post_init__(self):
        # |ar| >= 1 lets the series grow until the clip bounds pin it
        if not -1.0 < self.ar_coeff < 1.0:
            raise FieldError("ar_coeff", f"must be in (-1, 1), got {self.ar_coeff}")
        if not self.noise_scale >= 0.0:
            raise FieldError("noise_scale", f"must be >= 0, got {self.noise_scale}")


def default_vitals() -> dict[str, VitalParams]:
    """The AR(1) models before a GeneratorConfig's drifts, ar_coeff and noise_mult."""
    return {
        "heart_rate": VitalParams(85.0, 0.90, 2.5, 30.0, 200.0),
        "sbp": VitalParams(120.0, 0.90, 3.0, 60.0, 220.0),
        "dbp": VitalParams(70.0, 0.90, 2.0, 30.0, 140.0),
        "resp_rate": VitalParams(18.0, 0.85, 1.0, 5.0, 50.0),
        "temperature": VitalParams(37.0, 0.95, 0.08, 34.0, 41.0),
        "fio2": VitalParams(0.40, 0.95, 0.02, 0.21, 1.0),
    }


@dataclass(frozen=True)
class GeneratorConfig:
    """The ``[generator]`` config section, key for key.

    ``vitals`` follows from the fields: :func:`default_vitals` with the three
    onset drifts, one shared AR(1) coefficient unless ``ar_coeff`` is None,
    and every noise scale times ``noise_mult``.
    """

    n_patients: int
    sepsis_fraction: float
    missing_rate: float
    onset_day_min: int
    onset_day_max: int
    los_day_min: int
    los_day_max: int
    drift_heart_rate: float
    drift_temperature: float
    drift_resp_rate: float
    ar_coeff: float | None  # None keeps the per-vital coefficients
    noise_mult: float
    vitals: dict[str, VitalParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_patients < 1:
            raise FieldError("n_patients", f"must be >= 1, got {self.n_patients}")
        if not 0.0 <= self.sepsis_fraction <= 1.0:
            raise FieldError("sepsis_fraction", f"must be in [0, 1], got {self.sepsis_fraction}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise FieldError("missing_rate", f"must be in [0, 1), got {self.missing_rate}")
        if not 5 <= self.los_day_min <= self.los_day_max:  # five days so that night windows exist
            raise FieldError("los_day_min", f"must be in 5..los_day_max ({self.los_day_max}), got {self.los_day_min}")
        # onsets fall on days 3..los-2 (see _gen_patient), so the shortest stay
        # must leave one day of the range
        if max(3, self.onset_day_min) > min(self.onset_day_max, self.los_day_min - 2):
            raise FieldError(
                "onset_day_min",
                f"{self.onset_day_min}..{self.onset_day_max} leaves no onset day in 3..{self.los_day_min - 2}, "
                f"the days a {self.los_day_min}-day stay allows",
            )
        if not self.noise_mult >= 0.0:
            raise FieldError("noise_mult", f"must be >= 0, got {self.noise_mult}")
        vitals = {
            name: replace(
                vp,
                ar_coeff=vp.ar_coeff if self.ar_coeff is None else self.ar_coeff,
                noise_scale=vp.noise_scale * self.noise_mult,
                onset_drift=getattr(self, f"drift_{name}", 0.0),  # heart rate, temperature, resp rate
            )
            for name, vp in default_vitals().items()
        }
        object.__setattr__(self, "vitals", vitals)


def day_start(admit_ts: datetime, day: int) -> datetime:
    """Midnight opening hospital day ``day``; the admission calendar day is day 1."""
    first = datetime(admit_ts.year, admit_ts.month, admit_ts.day)
    return first + timedelta(days=day - 1)


def _septic_quota(config: GeneratorConfig) -> int:
    # floor(x + 0.5): a fixed rounding rule, independent of banker's rounding
    return int(np.floor(config.sepsis_fraction * config.n_patients + 0.5))


def _gen_patient(
    position: int, septic: bool, config: GeneratorConfig, seed: int
) -> tuple[PatientRecord, np.ndarray]:
    """Every random draw of one patient, in a fixed order: the record with its
    vital columns still unset, and the standard normals of its AR(1) vitals,
    one row per vital (the start level, then one shock per hour), which
    :func:`_fill_vitals` turns into the series."""
    rng = derive_rng(seed, "patient", position)
    admit = BASE_TS + int(rng.integers(0, 24 * 365)) * HOUR
    los_days = int(rng.integers(config.los_day_min, config.los_day_max + 1))
    los_hours = 24 * los_days

    onset: datetime | None = None
    if septic:
        day_lo = max(3, config.onset_day_min)
        day_hi = min(config.onset_day_max, los_days - 2)
        onset_day = int(rng.integers(day_lo, day_hi + 1))
        # Onset strictly after 06:00 of day 3 so one night window precedes it.
        first_hour = 7 if onset_day == 3 else 0
        onset = day_start(admit, onset_day) + int(rng.integers(first_hour, 24)) * HOUR

    # one call draws what a scalar start draw plus a vector of shocks per vital would
    normals = rng.standard_normal((len(VITAL_FIELDS), los_hours + 1))

    # Cumulative exposures: sparse random events, monotone by construction.
    iv = np.cumsum(np.where(rng.random(los_hours) < 0.10, rng.exponential(0.5, los_hours), 0.0))
    rbc = np.cumsum(np.where(rng.random(los_hours) < 0.02, rng.integers(1, 3, los_hours), 0))
    vent_span = int(rng.integers(0, los_hours + 1))
    vent = np.cumsum(np.where(np.arange(los_hours) < vent_span, 1.0 / 24.0, 0.0))
    surgery_events = rng.random(los_hours) < 0.01
    surgeries = np.cumsum(surgery_events.astype(float))
    surgery_dur = np.cumsum(np.where(surgery_events, rng.uniform(1.0, 4.0, los_hours), 0.0))

    hourly = np.empty((los_hours, len(HOURLY_FIELDS)))
    hourly[:, len(VITAL_FIELDS):] = np.column_stack([iv, rbc, vent, surgeries, surgery_dur])

    # Organ-dysfunction score: bounded wiggle around a patient baseline, plus a
    # planted post-onset rise large enough to satisfy the labeling rule even
    # when the pre-onset minimum sits at the top of the wiggle band. One
    # choice over five indices draws what one choice per step would.
    sofa_base = int(rng.integers(2, 9))
    stamps = range(0, los_hours, SOFA_INTERVAL_HOURS)
    steps = SOFA_STEPS[rng.choice(len(SOFA_STEPS), size=len(stamps))].tolist()
    lo, hi = max(0, sofa_base - 1), min(24, sofa_base + 1)
    levels = itertools.accumulate(steps, lambda level, step: min(max(level + step, lo), hi), initial=sofa_base)
    sofa: list[tuple[datetime, int]] = []
    for k, level in zip(stamps, itertools.islice(levels, 1, None)):
        ts = admit + k * HOUR
        score = level
        if onset is not None and ts > onset:
            frac = min(1.0, (ts - onset) / HOUR / SOFA_RAMP_HOURS)
            score = min(24, level + int(round(SOFA_RISE * frac)))
        sofa.append((ts, score))

    cultures: list[tuple[datetime, bool]] = []
    if onset is not None:
        cultures.append((onset, True))
    if rng.random() < 0.3:  # incidental negative culture, ignored by labeling
        cultures.append((admit + int(rng.integers(0, los_hours)) * HOUR, False))
    cultures.sort(key=lambda c: c[0])

    statics = [
        float(rng.integers(16, 91)),  # age
        float(rng.integers(0, 2)),  # sex
        float(rng.integers(0, 5)),  # mechanism of injury, coded
        float(rng.integers(0, 2)),  # transferred
        float(rng.integers(0, 2)),  # head injury
        float(np.clip(rng.normal(120.0, 25.0), 60.0, 220.0)),  # first ED systolic
        float(np.clip(rng.normal(1.4, 0.3), 0.3, 3.0)),  # reverse shock index
        float(rng.exponential(4.0)),  # max base deficit, first 48h
        float(rng.exponential(2.0)),  # max lactate, first 48h
        float(rng.integers(0, 11)),  # RBC units, first 48h
        float(rng.exponential(3.0)),  # crystalloid litres, first 48h
        float(rng.integers(0, 41)),  # APACHE II
        float(rng.integers(0, 2)),  # antibiotic exposure, first 48h
        float(rng.integers(0, 4)),  # surgeries, first 48h
        float(rng.integers(0, 3)),  # ED disposition, coded
    ]

    record = PatientRecord(
        patient_id=f"p{position:05d}",
        admit_ts=admit,
        los_hours=los_hours,
        hours=np.datetime64(admit, "h") + np.arange(los_hours),
        hourly=hourly,
        statics=statics,
        sofa=sofa,
        cultures=cultures,
    )
    return record, normals


def _fill_vitals(records: list[PatientRecord], series: np.ndarray, config: GeneratorConfig) -> None:
    """Step the AR(1) recursions of a group of patients together, one NumPy
    step per hour (the same IEEE operations, in the same order, as one
    patient's scalar loop), then add each septic patient's pre-onset drift,
    clip and write the series into the records' vital columns.

    ``series`` is (1 + hours, patients, vitals), holding each patient's
    standard normals and zeros past the end of its stay; the recursion
    overwrites it hour by hour with the levels.
    """
    vps = [config.vitals[name] for name in VITAL_FIELDS]
    base, ar, noise, drift, lo, hi = (
        np.array([getattr(vp, key) for vp in vps])
        for key in ("baseline", "ar_coeff", "noise_scale", "onset_drift", "lo", "hi")
    )
    series *= noise
    series[0] += base  # the start level; the stay's hours follow
    gap = np.empty_like(series[0])
    for t in range(1, len(series)):
        np.subtract(series[t - 1], base, out=gap)
        np.multiply(ar, gap, out=gap)
        np.add(base, gap, out=gap)
        np.add(gap, series[t], out=series[t])

    drifting = drift != 0.0
    for g, record in enumerate(records):
        values = series[1 : record.los_hours + 1, g]
        onset = planted_onset(record)
        if onset is not None:
            ages = np.arange(record.los_hours) - (onset - record.admit_ts) / HOUR  # hours after onset
            ramp = np.clip((ages + DRIFT_HOURS) / DRIFT_HOURS, 0.0, 1.0)
            values[:, drifting] += drift[drifting] * ramp[:, None]
        np.clip(values, lo, hi, out=record.hourly[:, : len(VITAL_FIELDS)])


def generate_cohort(config: GeneratorConfig, seed: int) -> list[PatientRecord]:
    """Generate the full cohort from ``seed``; exactly the configured septic
    quota, then missingness injected at the configured rate."""
    quota = _septic_quota(config)
    order = derive_rng(seed, "assignment").permutation(config.n_patients)
    septic_positions = set(int(i) for i in order[:quota])
    records: list[PatientRecord] = []
    for start in range(0, config.n_patients, VITAL_GROUP):
        positions = range(start, min(start + VITAL_GROUP, config.n_patients))
        # room for the start level and the hours of the longest stay; each
        # patient's normals are copied in as soon as they are drawn
        series = np.zeros((24 * config.los_day_max + 1, len(positions), len(VITAL_FIELDS)))
        for g, i in enumerate(positions):
            record, normals = _gen_patient(i, i in septic_positions, config, seed)
            series[: normals.shape[1], g] = normals.T
            records.append(record)
        _fill_vitals(records[start:], series, config)
    if config.missing_rate > 0.0:
        records = inject_missingness(records, config.missing_rate, seed)
    return records


def planted_onset(record: PatientRecord) -> datetime | None:
    """The generator's ground-truth onset: the single positive culture, if any."""
    for ts, positive in record.cultures:
        if positive:
            return ts
    return None


def inject_missingness(
    records: list[PatientRecord], rate: float, seed: int
) -> list[PatientRecord]:
    """Blank hourly cells independently with probability ``rate``.

    The first hourly row is never touched, so forward filling can always
    restore cumulative series to a monotone state.
    """
    if not 0.0 <= rate < 1.0:
        raise InputError(f"rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return records
    out: list[PatientRecord] = []
    for position, record in enumerate(records):
        mask = derive_rng(seed, "missing", position).random(record.hourly.shape) < rate
        mask[0] = False
        hourly = record.hourly.copy()
        hourly[mask] = np.nan
        out.append(replace(record, hourly=hourly))
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

PATIENTS_HEADER = ("patient_id", "admit_ts") + STATIC_FEATURES
HOURLY_HEADER = ("patient_id", "ts") + HOURLY_FIELDS
SOFA_HEADER = ("patient_id", "ts", "sofa")
CULTURES_HEADER = ("patient_id", "ts", "positive")


def write_cohort(records: list[PatientRecord], directory, header_comment: str | None = None) -> None:
    """Write patients/hourly/sofa/cultures CSVs; empty cell means missing."""
    d = Path(directory)
    patients = ([r.patient_id, r.admit_ts.isoformat()] + [repr(float(v)) for v in r.statics] for r in records)
    hourly = (
        f"{head}{ts},{values}"
        for r in records
        for head in [A.csv_row([r.patient_id, ""])]  # the id cell and the comma after it
        for ts, values in zip(np.datetime_as_string(r.hours, unit="s").tolist(), A.number_rows(r.hourly))
    )
    sofa = ([r.patient_id, ts.isoformat(), str(int(score))] for r in records for ts, score in r.sofa)
    cultures = ([r.patient_id, ts.isoformat(), "1" if pos else "0"] for r in records for ts, pos in r.cultures)
    A.write_table(d / "patients.csv", PATIENTS_HEADER, patients, header_comment)
    A.write_lines(d / "hourly.csv", HOURLY_HEADER, hourly, header_comment)
    A.write_table(d / "sofa.csv", SOFA_HEADER, sofa, header_comment)
    A.write_table(d / "cultures.csv", CULTURES_HEADER, cultures, header_comment)


def _parse_ts(raw: str, path, lineno: int) -> datetime:
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        ts = None
    if ts is None or ts.tzinfo is not None:  # naive local times only
        raise FormatError(f"{path}:{lineno}: bad timestamp {raw!r}")
    return ts


def _parse_opt(raw: str, path, lineno: int) -> float | None:
    if raw == "":
        return None
    try:
        return A.number(raw)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: bad number {raw!r}") from None


def _patient_rows(path, columns, patients: dict[str, PatientRecord]):
    """``(path, line, cells, record)`` per row of a table keyed by patient_id."""
    for lineno, row in A.read_table(path, columns):
        if row[0] not in patients:
            raise FormatError(f"{path}:{lineno}: unknown patient {row[0]!r}")
        yield path, lineno, row, patients[row[0]]


def read_cohort(directory) -> list[PatientRecord]:
    """Parse the four cohort CSVs back into records, validating row order."""
    d = Path(directory)
    patients: dict[str, PatientRecord] = {}
    admit_line: dict[str, int] = {}
    path = d / "patients.csv"
    for lineno, row in A.read_table(path, PATIENTS_HEADER):
        if row[0] in patients:
            raise FormatError(f"{path}:{lineno}: duplicate patient {row[0]!r}")
        statics = [_parse_opt(raw, path, lineno) for raw in row[2:]]
        if None in statics:
            raise FormatError(f"{path}:{lineno}: missing static value")
        patients[row[0]] = PatientRecord(row[0], _parse_ts(row[1], path, lineno), 0, None, None, statics, [], [])
        admit_line[row[0]] = lineno

    path = d / "hourly.csv"
    epoch_day = EPOCH.toordinal()
    last_hour: dict[str, int] = {}  # each patient's latest hour, for the order check
    # each patient's runs of consecutive rows: (hours, values) views of a block's arrays
    runs: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {pid: [] for pid in patients}
    for rows, values, row_ok in A.number_blocks(path, HOURLY_HEADER, 2, empty_is_missing=True):
        hours = np.empty(len(rows), dtype=np.int64)  # hours since EPOCH
        owner, start = None, 0  # the patient of the current run and its first row
        for i, ((lineno, row), ok) in enumerate(zip(rows, row_ok.tolist())):
            pid = row[0]
            if pid not in patients:
                raise FormatError(f"{path}:{lineno}: unknown patient {pid!r}")
            ts = _parse_ts(row[1], path, lineno)
            if ts.minute or ts.second or ts.microsecond:
                raise FormatError(f"{path}:{lineno}: timestamp not on the hour")
            hour = (ts.toordinal() - epoch_day) * 24 + ts.hour  # (ts - EPOCH) // HOUR, three times faster
            latest = last_hour.get(pid)
            if latest is not None and hour <= latest:
                raise FormatError(f"{path}:{lineno}: out-of-order hourly row for {pid!r}")
            if not ok:
                raise FormatError(f"{path}:{lineno}: bad number {A.first_rejected(row[2:], True)!r}")
            last_hour[pid] = hours[i] = hour
            if pid != owner:
                if owner is not None:
                    runs[owner].append((hours[start:i], values[start:i]))
                owner, start = pid, i
        if owner is not None:
            runs[owner].append((hours[start:], values[start:]))

    for path, lineno, row, rec in _patient_rows(d / "sofa.csv", SOFA_HEADER, patients):
        try:
            score = A.number(row[2], int)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad SOFA score {row[2]!r}") from None
        if not 0 <= score <= 24:
            raise FormatError(f"{path}:{lineno}: score {score} outside [0, 24]")
        rec.sofa.append((_parse_ts(row[1], path, lineno), score))

    for path, lineno, row, rec in _patient_rows(d / "cultures.csv", CULTURES_HEADER, patients):
        if row[2] not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: positive flag must be 0 or 1")
        rec.cultures.append((_parse_ts(row[1], path, lineno), row[2] == "1"))

    for pid, rec in patients.items():
        pieces = runs.pop(pid)  # so that each block is freed once its last patient is copied
        if not pieces:
            raise FormatError(f"{d / 'hourly.csv'}: patient {pid!r} has no hourly rows")
        if not rec.sofa:
            raise FormatError(f"{d / 'sofa.csv'}: patient {pid!r} has no organ-dysfunction scores")
        hours = np.concatenate([h for h, _ in pieces])
        first, last = (EPOCH + int(hour) * HOUR for hour in hours[[0, -1]])
        if first < rec.admit_ts:
            raise FormatError(
                f"{d / 'patients.csv'}:{admit_line[pid]}: admit time {rec.admit_ts.isoformat()} is after "
                f"the patient's first hourly row at {first.isoformat()}"
            )
        rec.los_hours = int((last - rec.admit_ts) / HOUR) + 1
        rec.hours = hours.view("datetime64[h]")
        rec.hourly = np.concatenate([v for _, v in pieces])
    return list(patients.values())
