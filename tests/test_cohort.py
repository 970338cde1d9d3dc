from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from nprl import cli
from nprl import cohort as C
from nprl.errors import FieldError, FormatError, InputError
from defaults import default
from scalar_cohort import generate_cohort as scalar_generate_cohort

THEORY_SET = Path(__file__).resolve().parents[1] / "configs" / "theory_set.ini"


def tiny_config(**kwargs):
    return default("generator", **{"n_patients": 12, "missing_rate": 0.0, **kwargs})


class TestGenerateCohort:
    def test_exact_septic_quota(self):
        records = C.generate_cohort(tiny_config(n_patients=200, sepsis_fraction=0.17), 7)
        septic = [r for r in records if C.planted_onset(r) is not None]
        assert len(septic) == 34

    def test_deterministic(self):
        a = C.generate_cohort(tiny_config(), 7)
        b = C.generate_cohort(tiny_config(), 7)
        assert a == b

    def test_rejects_empty_cohort(self):
        with pytest.raises(InputError):
            C.generate_cohort(tiny_config(n_patients=0), 7)

    def test_onset_within_day_range(self):
        records = C.generate_cohort(tiny_config(n_patients=60), 3)
        for r in records:
            onset = C.planted_onset(r)
            if onset is None:
                continue
            day = (onset.date() - r.admit_ts.date()).days + 1
            assert 3 <= day <= 14

    def test_cumulative_fields_monotone(self):
        records = C.generate_cohort(tiny_config(n_patients=20), 5)
        for r in records:
            for name in C.CUMULATIVE_FIELDS:
                series = r.hourly[:, C.HOURLY_FIELDS.index(name)]
                assert all(a <= b for a, b in zip(series, series[1:]))

    def test_sofa_in_range_and_hourly_grid(self):
        records = C.generate_cohort(tiny_config(n_patients=10), 2)
        for r in records:
            assert all(0 <= s <= 24 for _, s in r.sofa)
            for prev, cur in zip(r.hours, r.hours[1:]):
                assert cur - prev == np.timedelta64(1, "h")
            assert r.hours[0] == np.datetime64(r.admit_ts)
            assert len(r.hourly) == len(r.hours) == r.los_hours
            assert r.hourly.shape == (r.los_hours, len(C.HOURLY_FIELDS))

    def test_vitals_within_configured_ranges(self):
        records = C.generate_cohort(tiny_config(n_patients=15), 9)
        config = tiny_config()
        for r in records:
            for name in C.VITAL_FIELDS:
                vp = config.vitals[name]
                for v in r.hourly[:, C.HOURLY_FIELDS.index(name)]:
                    assert not np.isnan(v) and vp.lo <= v <= vp.hi

    def test_statics_length(self):
        records = C.generate_cohort(tiny_config(), 7)
        assert all(len(r.statics) == len(C.STATIC_FEATURES) for r in records)


# The batched generator against the scalar one: the defaults over more than
# one group of patients, the jittery theory-set vitals, and no drift at all;
# each a (config, seed) pair.
ORACLE_CONFIGS = {
    "defaults": lambda: (default("generator", n_patients=C.VITAL_GROUP + 6), 11),
    "theory_set": lambda: (cli.RunConfig.load(str(THEORY_SET), []).generator, 7),
    "no_drift": lambda: (
        default(
            "generator", n_patients=40, sepsis_fraction=0.5, drift_heart_rate=0.0, drift_temperature=0.0,
            drift_resp_rate=0.0,
        ),
        5,
    ),
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_generator_matches_scalar_oracle(name):
    config, seed = ORACLE_CONFIGS[name]()
    records = C.generate_cohort(config, seed)
    expected = scalar_generate_cohort(config, seed)
    assert len(records) == len(expected) == config.n_patients
    for record, reference in zip(records, expected):
        assert record == reference, record.patient_id


class TestGeneratorConfig:
    @pytest.mark.parametrize("ar_coeff", [None, 0.1])
    def test_vitals_follow_the_fields(self, ar_coeff):
        config = tiny_config(
            drift_heart_rate=3.0, drift_temperature=0.0, drift_resp_rate=-1.0, ar_coeff=ar_coeff, noise_mult=4.0
        )
        drifts = {"heart_rate": 3.0, "temperature": 0.0, "resp_rate": -1.0}
        assert config.vitals == {
            name: replace(
                vp,
                ar_coeff=vp.ar_coeff if ar_coeff is None else ar_coeff,
                noise_scale=vp.noise_scale * 4.0,
                onset_drift=drifts.get(name, 0.0),
            )
            for name, vp in C.default_vitals().items()
        }


class TestVitalParams:
    @pytest.mark.parametrize("ar_coeff", [1.5, 1.0, -1.0, float("nan")])
    def test_rejects_non_stationary_coefficient(self, ar_coeff):
        with pytest.raises(FieldError, match=r"ar_coeff: must be in \(-1, 1\)"):
            C.VitalParams(85.0, ar_coeff, 2.5, 30.0, 200.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(FieldError, match=r"noise_scale: must be >= 0, got -5.0"):
            C.VitalParams(85.0, 0.9, -5.0, 30.0, 200.0)

    def test_accepts_values_inside_the_bounds(self):
        C.VitalParams(85.0, -0.99, 0.0, 30.0, 200.0)
        C.VitalParams(85.0, 0.0, 2.5, 30.0, 200.0)


class TestInjectMissingness:
    def test_rate_zero_unchanged(self):
        records = C.generate_cohort(tiny_config(), 7)
        assert C.inject_missingness(records, 0.0, seed=1) is records

    def test_blank_count_within_binomial_bound(self):
        records = C.generate_cohort(tiny_config(n_patients=12), 1)
        blanked = C.inject_missingness(records, 0.2, seed=4)
        eligible = blank_count = 0
        for r in blanked:
            for row in r.hourly[1:]:
                for v in row:
                    eligible += 1
                    if np.isnan(v):
                        blank_count += 1
        mean = 0.2 * eligible
        sigma = np.sqrt(eligible * 0.2 * 0.8)
        assert abs(blank_count - mean) < 3 * sigma

    def test_first_row_never_blanked(self):
        records = C.generate_cohort(tiny_config(n_patients=20), 6)
        blanked = C.inject_missingness(records, 0.5, seed=8)
        for r in blanked:
            for v in r.hourly[0]:
                assert not np.isnan(v)

    def test_rejects_bad_rate(self):
        with pytest.raises(InputError):
            C.inject_missingness([], 1.0, seed=0)


class TestCsvRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=8, missing_rate=0.15), 11)
        C.write_cohort(records, tmp_path)
        loaded = C.read_cohort(tmp_path)
        assert loaded == records

    def test_byte_identical_rewrites(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=5), 3)
        C.write_cohort(records, tmp_path / "a")
        C.write_cohort(records, tmp_path / "b")
        for name in ("patients.csv", "hourly.csv", "sofa.csv", "cultures.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_cell_stays_missing(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=6, missing_rate=0.3), 13)
        C.write_cohort(records, tmp_path)
        loaded = C.read_cohort(tmp_path)
        some_missing = False
        for orig, back in zip(records, loaded):
            for o_row, b_row in zip(orig.hourly, back.hourly):
                for o_v, b_v in zip(o_row, b_row):
                    assert np.isnan(o_v) == np.isnan(b_v)
                    some_missing = some_missing or np.isnan(o_v)
        assert some_missing

    def test_out_of_order_hourly_rows_rejected(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=2), 1)
        C.write_cohort(records, tmp_path)
        path = tmp_path / "hourly.csv"
        lines = path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            C.read_cohort(tmp_path)

    def test_malformed_row_reports_line(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=2), 1)
        C.write_cohort(records, tmp_path)
        path = tmp_path / "hourly.csv"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="hourly.csv:5"):
            C.read_cohort(tmp_path)

    def test_non_integer_sofa_score_reports_line(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=2), 1)
        C.write_cohort(records, tmp_path)
        path = tmp_path / "sofa.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",3.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="sofa.csv:2: bad SOFA score '3.5'"):
            C.read_cohort(tmp_path)

    def test_header_comments_skipped(self, tmp_path):
        records = C.generate_cohort(tiny_config(n_patients=3), 2)
        C.write_cohort(records, tmp_path, header_comment="config_hash=abc seed=1")
        assert C.read_cohort(tmp_path) == records


class TestDayArithmetic:
    def test_day_one_is_admission_calendar_day(self):
        admit = datetime(2024, 3, 5, 14, 0)
        assert C.day_start(admit, 1) == datetime(2024, 3, 5, 0, 0)
        assert C.day_start(admit, 3) == datetime(2024, 3, 7, 0, 0)

    def test_septic_patients_get_post_onset_sofa_rise(self):
        records = C.generate_cohort(tiny_config(n_patients=40), 21)
        for r in records:
            onset = C.planted_onset(r)
            if onset is None:
                continue
            before = [s for t, s in r.sofa if onset - timedelta(hours=72) <= t <= onset]
            after = [s for t, s in r.sofa if onset < t <= onset + timedelta(hours=72)]
            assert before and after
            assert max(after) - min(before) >= 2
