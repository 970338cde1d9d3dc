"""The cohort generator with one Python step per hour and one draw per SOFA
step, written apart from ``nprl.cohort`` so that tests can hold the batched
generator to it record for record."""

import numpy as np

from nprl.cohort import (
    BASE_TS,
    DRIFT_HOURS,
    HOUR,
    SOFA_INTERVAL_HOURS,
    SOFA_RAMP_HOURS,
    SOFA_RISE,
    VITAL_FIELDS,
    GeneratorConfig,
    PatientRecord,
    _septic_quota,
    day_start,
    inject_missingness,
)
from nprl.util import derive_rng


def gen_patient(position: int, septic: bool, config: GeneratorConfig, seed: int) -> PatientRecord:
    rng = derive_rng(seed, "patient", position)
    admit = BASE_TS + int(rng.integers(0, 24 * 365)) * HOUR
    los_days = int(rng.integers(config.los_day_min, config.los_day_max + 1))
    los_hours = 24 * los_days

    onset = None
    if septic:
        day_lo = max(3, config.onset_day_min)
        day_hi = min(config.onset_day_max, los_days - 2)
        onset_day = int(rng.integers(day_lo, day_hi + 1))
        first_hour = 7 if onset_day == 3 else 0
        onset = day_start(admit, onset_day) + int(rng.integers(first_hour, 24)) * HOUR

    vitals = {}
    for name in VITAL_FIELDS:
        vp = config.vitals[name]
        level = vp.baseline + vp.noise_scale * rng.standard_normal()
        steps = []
        for shock in (vp.noise_scale * rng.standard_normal(los_hours)).tolist():
            level = vp.baseline + vp.ar_coeff * (level - vp.baseline) + shock
            steps.append(level)
        series = np.array(steps)
        if onset is not None and vp.onset_drift != 0.0:
            ages = np.arange(los_hours) - (onset - admit) / HOUR
            ramp = np.clip((ages + DRIFT_HOURS) / DRIFT_HOURS, 0.0, 1.0)
            series = series + vp.onset_drift * ramp
        vitals[name] = np.clip(series, vp.lo, vp.hi)

    iv = np.cumsum(np.where(rng.random(los_hours) < 0.10, rng.exponential(0.5, los_hours), 0.0))
    rbc = np.cumsum(np.where(rng.random(los_hours) < 0.02, rng.integers(1, 3, los_hours), 0))
    vent_span = int(rng.integers(0, los_hours + 1))
    vent = np.cumsum(np.where(np.arange(los_hours) < vent_span, 1.0 / 24.0, 0.0))
    surgery_events = rng.random(los_hours) < 0.01
    surgeries = np.cumsum(surgery_events.astype(float))
    surgery_dur = np.cumsum(np.where(surgery_events, rng.uniform(1.0, 4.0, los_hours), 0.0))

    hourly = np.column_stack([vitals[name] for name in VITAL_FIELDS] + [iv, rbc, vent, surgeries, surgery_dur])

    sofa_base = int(rng.integers(2, 9))
    sofa = []
    level = sofa_base
    for k in range(0, los_hours, SOFA_INTERVAL_HOURS):
        ts = admit + k * HOUR
        level = min(max(level + int(rng.choice((-1, 0, 0, 0, 1))), max(0, sofa_base - 1)), min(24, sofa_base + 1))
        score = level
        if onset is not None and ts > onset:
            frac = min(1.0, (ts - onset) / HOUR / SOFA_RAMP_HOURS)
            score = min(24, level + int(round(SOFA_RISE * frac)))
        sofa.append((ts, score))

    cultures = []
    if onset is not None:
        cultures.append((onset, True))
    if rng.random() < 0.3:
        cultures.append((admit + int(rng.integers(0, los_hours)) * HOUR, False))
    cultures.sort(key=lambda c: c[0])

    statics = [
        float(rng.integers(16, 91)),
        float(rng.integers(0, 2)),
        float(rng.integers(0, 5)),
        float(rng.integers(0, 2)),
        float(rng.integers(0, 2)),
        float(np.clip(rng.normal(120.0, 25.0), 60.0, 220.0)),
        float(np.clip(rng.normal(1.4, 0.3), 0.3, 3.0)),
        float(rng.exponential(4.0)),
        float(rng.exponential(2.0)),
        float(rng.integers(0, 11)),
        float(rng.exponential(3.0)),
        float(rng.integers(0, 41)),
        float(rng.integers(0, 2)),
        float(rng.integers(0, 4)),
        float(rng.integers(0, 3)),
    ]

    return PatientRecord(
        patient_id=f"p{position:05d}",
        admit_ts=admit,
        los_hours=los_hours,
        hours=np.datetime64(admit, "h") + np.arange(los_hours),
        hourly=hourly,
        statics=statics,
        sofa=sofa,
        cultures=cultures,
    )


def generate_cohort(config: GeneratorConfig, seed: int) -> list[PatientRecord]:
    quota = _septic_quota(config)
    order = derive_rng(seed, "assignment").permutation(config.n_patients)
    septic_positions = set(int(i) for i in order[:quota])
    records = [gen_patient(i, i in septic_positions, config, seed) for i in range(config.n_patients)]
    if config.missing_rate > 0.0:
        records = inject_missingness(records, config.missing_rate, seed)
    return records
