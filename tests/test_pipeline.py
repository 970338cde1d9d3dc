from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nprl import cohort as C
from nprl import pipeline as P
from nprl.errors import InputError
from nprl.util import derive_rng

HOUR = timedelta(hours=1)


def make_record(
    patient_id="p1",
    admit=datetime(2024, 3, 1, 0, 0),
    los_days=10,
    culture=None,
    sofa_pre=4,
    sofa_post=None,
    missing=None,
):
    """Hand-built record with constant vitals; ``missing`` maps a field name to
    a predicate on the hour offset."""
    los_hours = 24 * los_days
    missing = missing or {}
    hourly = np.empty((los_hours, len(C.HOURLY_FIELDS)))
    for k in range(los_hours):
        values = dict(
            heart_rate=80.0 + 0.01 * k,
            sbp=120.0,
            dbp=60.0,
            resp_rate=16.0,
            temperature=36.8,
            fio2=0.3,
            iv_bolus_cum=0.1 * k,
            rbc_units_cum=0.0,
            vent_days_cum=k / 24.0,
            surgeries_cum=0.0,
            surgery_duration_cum=0.0,
        )
        for name, predicate in missing.items():
            if predicate(k):
                values[name] = np.nan
        hourly[k] = [values[name] for name in C.HOURLY_FIELDS]
    sofa = []
    for k in range(0, los_hours, 6):
        ts = admit + k * HOUR
        score = sofa_pre
        if culture is not None and sofa_post is not None and ts > culture:
            score = sofa_post
        sofa.append((ts, score))
    cultures = [(culture, True)] if culture is not None else []
    return C.PatientRecord(
        patient_id=patient_id,
        admit_ts=admit,
        los_hours=los_hours,
        hours=np.datetime64(admit, "h") + np.arange(los_hours),
        hourly=hourly,
        statics=[float(i) for i in range(15)],
        sofa=sofa,
        cultures=cultures,
    )


NAN = np.nan


class TestDeriveMap:
    def test_paper_formula(self):
        assert abs(P.derive_map(80.0, 120.0) - 93.33333333) < 1e-6

    def test_equal_inputs(self):
        assert P.derive_map(100.0, 100.0) == 100.0

    def test_direct_arithmetic(self):
        assert P.derive_map(60.0, 90.0) == 70.0

    def test_missing_propagates(self):
        assert np.isnan(P.derive_map(NAN, 120.0))
        assert np.isnan(P.derive_map(80.0, NAN))

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            P.derive_map(-1.0, 120.0)

    def test_columns_elementwise(self):
        out = P.derive_map(np.array([80.0, 100.0, 60.0, NAN, 80.0]), np.array([120.0, 100.0, 90.0, 120.0, NAN]))
        np.testing.assert_array_equal(out, [(2.0 * 80.0 + 120.0) / 3.0, 100.0, 70.0, NAN, NAN])

    def test_nonpositive_rejected_in_column(self):
        with pytest.raises(InputError, match="dbp=0.0, sbp=90.0"):
            P.derive_map(np.array([80.0, 0.0]), np.array([120.0, 90.0]))

    def test_nonpositive_beside_missing_propagates(self):
        # only a pair with both pressures present is checked; a missing partner makes MAP missing
        np.testing.assert_array_equal(P.derive_map(np.array([-1.0, NAN]), np.array([NAN, 0.0])), [NAN, NAN])


class TestLocf:
    def test_forward_fill(self):
        np.testing.assert_array_equal(P.locf_impute([36.5, NAN, NAN, 37.0, NAN]), [36.5, 36.5, 36.5, 37.0, 37.0])

    def test_leading_gap_preserved(self):
        np.testing.assert_array_equal(P.locf_impute([NAN, 5.0]), [NAN, 5.0])

    def test_identity_when_complete(self):
        np.testing.assert_array_equal(P.locf_impute([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_columns_fill_independently(self):
        out = P.locf_impute(np.array([[1.0, NAN], [NAN, 2.0], [NAN, NAN], [4.0, NAN]]))
        np.testing.assert_array_equal(out, [[1.0, NAN], [1.0, 2.0], [1.0, 2.0], [4.0, 2.0]])

    @given(st.lists(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, series):
        out = P.locf_impute([NAN if v is None else v for v in series])
        assert len(out) == len(series)
        seen = False
        for raw, filled in zip(series, out):
            if raw is not None:
                seen = True
                assert filled == raw
            elif not seen:
                assert np.isnan(filled)
            else:
                assert not np.isnan(filled)


class TestSepsisLabels:
    def test_qualifying_rise(self):
        culture = datetime(2024, 3, 5, 12, 0)
        record = make_record(culture=culture, sofa_pre=4, sofa_post=7)
        assert P.derive_sepsis_labels(record) == culture

    def test_insufficient_rise(self):
        record = make_record(culture=datetime(2024, 3, 5, 12, 0), sofa_pre=4, sofa_post=5)
        assert P.derive_sepsis_labels(record) is None

    def test_culture_on_day_two_ignored(self):
        record = make_record(culture=datetime(2024, 3, 2, 12, 0), sofa_pre=4, sofa_post=9)
        assert P.derive_sepsis_labels(record) is None

    def test_negative_culture_ignored(self):
        record = make_record()
        record.cultures.append((datetime(2024, 3, 5, 12, 0), False))
        record.sofa = [(ts, 2 if ts <= record.cultures[0][0] else 9) for ts, _ in record.sofa]
        assert P.derive_sepsis_labels(record) is None

    def test_empty_sofa_rejected(self):
        record = make_record()
        record.sofa = []
        with pytest.raises(InputError):
            P.derive_sepsis_labels(record)


class TestWindowExtraction:
    def test_septic_patient_counts_and_labels(self):
        onset = datetime(2024, 3, 7, 15, 0)  # day 7 at 15:00
        record = make_record(los_days=20, culture=onset, sofa_pre=4, sofa_post=7)
        instances = P.extract_instances([record])
        assert [i.day_index for i in instances] == [3, 4, 5, 6, 7]
        assert [i.label for i in instances] == [0, 0, 0, 0, 1]

    def test_nonseptic_full_range(self):
        record = make_record(los_days=10)
        instances = P.extract_instances([record])
        assert [i.day_index for i in instances] == [3, 4, 5, 6, 7, 8, 9, 10]
        assert all(i.label == 0 for i in instances)

    def test_leading_gap_excludes_day_three(self):
        record = make_record(
            los_days=6,
            missing={"temperature": lambda k: k <= 54},  # through 06:00 of day 3
        )
        instances = P.extract_instances([record])
        days = [i.day_index for i in instances]
        assert 3 not in days
        assert days == [4, 5, 6]

    def test_window_shape_and_last_hour(self):
        record = make_record(los_days=7)
        instances = P.extract_instances([record])
        for inst in instances:
            assert inst.temporal.shape == (9, 11)
        # hour 8 of the day-3 window is 06:00 day 3; heart rate encodes hour offset
        day3 = instances[0]
        hours_since_admit = (
            datetime(2024, 3, 3, 6, 0) - datetime(2024, 3, 1, 0, 0)
        ) / HOUR
        assert abs(day3.temporal[8, 0] - (80.0 + 0.01 * hours_since_admit)) < 1e-9

    def test_onset_exactly_at_six_am_boundary(self):
        # onset at 06:00 of day 8 belongs to day 7's prediction window
        onset = datetime(2024, 3, 8, 6, 0)
        record = make_record(los_days=20, culture=onset, sofa_pre=4, sofa_post=8)
        instances = P.extract_instances([record])
        assert [i.day_index for i in instances] == [3, 4, 5, 6, 7]
        assert instances[-1].label == 1

    def test_instance_indices_unique_and_sequential(self):
        records = [make_record(patient_id=f"p{i}", los_days=6) for i in range(3)]
        instances = P.extract_instances(records)
        assert [i.instance_index for i in instances] == list(range(len(instances)))

    def test_mid_stay_gap_excludes_only_that_window(self):
        # temperature gap with no prior observation cannot happen mid-stay after
        # forward filling, so blank a full window of another patient instead
        record = make_record(los_days=8, missing={"heart_rate": lambda k: k < 100})
        instances = P.extract_instances([record])
        days = [i.day_index for i in instances]
        # heart rate observed from hour 100 (day 5, 04:00); by LOCF day-6 windows on are complete
        assert days and days[0] >= 5


class TestSelectFeatures:
    def setup_method(self):
        record = make_record(los_days=6)
        self.instances = P.extract_instances([record])
        self.schema = P.full_schema()

    def test_subset1_only(self):
        out, schema = P.select_features(self.instances, self.schema, {1})
        assert schema.n_temporal == 6
        assert schema.n_static == 0
        assert out[0].temporal.shape == (9, 6)
        assert out[0].statics.size == 0

    def test_subsets_1_3(self):
        out, schema = P.select_features(self.instances, self.schema, {1, 3})
        assert schema.n_temporal == 11
        assert schema.n_static == 0

    def test_all_subsets(self):
        out, schema = P.select_features(self.instances, self.schema, {1, 2, 3})
        assert schema.n_temporal == 11
        assert schema.n_static == 15

    def test_subset1_required(self):
        with pytest.raises(InputError):
            P.select_features(self.instances, self.schema, {2, 3})


def no_statics(n):
    return np.empty((n, 0))


class TestMinMax:
    def test_midpoint(self):
        params = P.ScalingParams(
            temporal_min=np.array([40.0]),
            temporal_max=np.array([140.0]),
            static_min=np.empty(0),
            static_max=np.empty(0),
        )
        temporal, _ = P.apply_minmax(np.full((1, 9, 1), 90.0), no_statics(1), params)
        np.testing.assert_allclose(temporal, 0.5)

    def test_constant_feature_maps_to_zero(self):
        temporal = np.full((3, 9, 1), 7.0)
        params = P.fit_minmax(temporal, no_statics(3))
        out, _ = P.apply_minmax(temporal, no_statics(3), params)
        assert (out == 0.0).all()

    def test_out_of_range_clamped(self):
        params = P.ScalingParams(
            temporal_min=np.array([0.0]),
            temporal_max=np.array([1.0]),
            static_min=np.empty(0),
            static_max=np.empty(0),
        )
        out, _ = P.apply_minmax(np.full((1, 9, 1), -10.0), no_statics(1), params)
        np.testing.assert_allclose(out, -0.5)
        below, _ = P.apply_minmax(np.full((1, 9, 1), -0.1), no_statics(1), params)
        assert (below < 0).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_train_values_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        temporal, statics = np.empty((4, 9, 2)), np.empty((4, 3))
        for i in range(4):
            temporal[i] = rng.normal(size=(9, 2)) * 10
            statics[i] = rng.normal(size=3)
        out_temporal, out_statics = P.apply_minmax(temporal, statics, P.fit_minmax(temporal, statics))
        assert out_temporal.min() >= 0.0 and out_temporal.max() <= 1.0
        assert out_statics.min() >= 0.0 and out_statics.max() <= 1.0

    @pytest.mark.parametrize("n_static", [0, 3])
    def test_matches_per_instance_scaling(self, n_static):
        rng = np.random.default_rng(n_static)
        temporal, statics = np.empty((6, 9, 4)), np.empty((6, n_static))
        for i in range(6):
            temporal[i] = rng.normal(size=(9, 4)) * 10
            temporal[i, :, 2] = 5.0  # constant feature: zero span
            statics[i] = rng.normal(size=n_static)
            if n_static:
                statics[i, 0] = -1.0
        params = P.fit_minmax(temporal[:4], statics[:4])  # the last two fall partly outside the range
        out_temporal, out_statics = P.apply_minmax(temporal, statics, params)
        assert out_temporal.shape == temporal.shape and out_statics.shape == statics.shape
        for row in range(6):
            expected = P._scale(temporal[row], params.temporal_min, params.temporal_max)
            np.testing.assert_array_equal(out_temporal[row], expected)
            expected = P._scale(statics[row], params.static_min, params.static_max)
            np.testing.assert_array_equal(out_statics[row], expected)
        empty_temporal, empty_statics = P.apply_minmax(temporal[:0], statics[:0], params)
        assert empty_temporal.shape == (0, 9, 4) and empty_statics.shape == (0, n_static)

    @pytest.mark.parametrize("n_static", [0, 3])
    def test_fit_matches_concatenated_hours(self, n_static):
        # the range of every hour of every night, one feature column at a time
        rng = np.random.default_rng(10 + n_static)
        temporal, statics = rng.normal(size=(5, 9, 4)), rng.normal(size=(5, n_static))
        params = P.fit_minmax(temporal, statics)
        hours = np.concatenate(list(temporal), axis=0)
        np.testing.assert_array_equal(params.temporal_min, hours.min(axis=0))
        np.testing.assert_array_equal(params.temporal_max, hours.max(axis=0))
        np.testing.assert_array_equal(params.static_min, statics.min(axis=0) if n_static else np.empty(0))
        np.testing.assert_array_equal(params.static_max, statics.max(axis=0) if n_static else np.empty(0))

    def test_fit_needs_a_row(self):
        with pytest.raises(InputError, match="empty"):
            P.fit_minmax(np.empty((0, 9, 2)), no_statics(0))


class TestStackInstances:
    def test_rows_follow_the_list(self):
        instances = synthetic_instances(3, 4, seed=2)[::-1]
        temporal, statics, labels = P.stack_instances(instances)
        assert temporal.shape == (7, 9, 1) and statics.shape == (7, 0)
        assert labels.tolist() == [inst.label for inst in instances]
        for row, inst in enumerate(instances):
            np.testing.assert_array_equal(temporal[row], inst.temporal)

    def test_needs_an_instance(self):
        with pytest.raises(InputError):
            P.stack_instances([])


def synthetic_instances(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_pos + n_neg):
        out.append(
            P.NightInstance(
                patient_id=f"p{i}",
                day_index=3,
                instance_index=i,
                temporal=rng.normal(size=(9, 1)),
                statics=np.empty(0),
                label=1 if i < n_pos else 0,
            )
        )
    return out


class TestStratifiedKfold:
    def test_paper_scale_fold_sizes(self):
        instances = synthetic_instances(471, 25481)
        split = P.stratified_kfold(instances, k=5, seed=1)
        sizes = [sum(1 for f in split.fold_of.values() if f == fold) for fold in range(5)]
        assert sum(sizes) == 25952
        # both class remainders land on the earliest folds, so totals spread by 2
        assert all(abs(s - 5190.4) < 2.0 for s in sizes)
        for label in (0, 1):
            per_fold = [0] * 5
            for inst in instances:
                if inst.label == label:
                    per_fold[split.fold_of[inst.instance_index]] += 1
            assert max(per_fold) - min(per_fold) <= 1

    def test_per_fold_positive_counts(self):
        instances = synthetic_instances(471, 25481)
        split = P.stratified_kfold(instances, k=5, seed=1)
        pos_per_fold = [0] * 5
        for inst in instances:
            if inst.label == 1:
                pos_per_fold[split.fold_of[inst.instance_index]] += 1
        assert sorted(pos_per_fold) == [94, 94, 94, 94, 95]

    def test_partition(self):
        instances = synthetic_instances(10, 90)
        split = P.stratified_kfold(instances, k=5, seed=2)
        assert set(split.fold_of) == {i.instance_index for i in instances}

    def test_too_few_positives(self):
        with pytest.raises(InputError):
            P.stratified_kfold(synthetic_instances(3, 50), k=5, seed=0)

    @pytest.mark.parametrize("n_neg", [0, 1, 4])
    def test_too_few_negatives(self, n_neg):
        with pytest.raises(InputError, match=f"need at least 5 negative instances, got {n_neg}$"):
            P.stratified_kfold(synthetic_instances(50, n_neg), k=5, seed=0)


def labels_of(instances):
    return np.array([inst.label for inst in instances])


class TestResampling:
    def test_paper_counts(self):
        labels = labels_of(synthetic_instances(471, 25481))
        rows = P.resample_training(labels, target=2600, seed=3)
        assert labels[rows].sum() == 2600
        assert len(rows) - labels[rows].sum() == 2600

    def test_balanced_input_is_permutation(self):
        labels = labels_of(synthetic_instances(50, 50))
        rows = P.resample_training(labels, target=50, seed=4)
        assert sorted(rows) == list(range(100))

    def test_positives_are_members(self):
        labels = labels_of(synthetic_instances(7, 100))
        rows = P.resample_training(labels, target=30, seed=5)
        assert set(rows[labels[rows] == 1]) <= set(np.flatnonzero(labels == 1))
        assert (labels[rows] == 1).sum() == 30

    def test_undersample_leaves_positives(self):
        labels = labels_of(synthetic_instances(9, 500))
        rows = P.undersample_negatives(labels, target=100, seed=6)
        assert sorted(rows[labels[rows] == 1]) == list(range(9))
        assert (labels[rows] == 0).sum() == 100

    def test_needs_both_classes(self):
        with pytest.raises(InputError):
            P.resample_training(labels_of(synthetic_instances(0, 10)), target=2600, seed=0)


def reference_resample_training(instances, target, seed):
    """Per-class resampling of an instance list, written out as the index
    resampler must reproduce it."""
    pos = [inst for inst in instances if inst.label == 1]
    neg = [inst for inst in instances if inst.label == 0]
    rng = derive_rng(seed, "resample")
    neg_sample = [neg[i] for i in rng.choice(len(neg), size=min(target, len(neg)), replace=False)]
    pos_sample = [pos[i] for i in rng.choice(len(pos), size=target, replace=len(pos) < target)]
    combined = neg_sample + pos_sample
    return [combined[i] for i in rng.permutation(len(combined))]


def reference_undersample_negatives(instances, target, seed):
    pos = [inst for inst in instances if inst.label == 1]
    neg = [inst for inst in instances if inst.label == 0]
    rng = derive_rng(seed, "undersample")
    neg_sample = [neg[i] for i in rng.choice(len(neg), size=min(target, len(neg)), replace=False)]
    combined = neg_sample + pos
    return [combined[i] for i in rng.permutation(len(combined))]


def shuffled_instances(n_pos, n_neg, seed):
    """Positives scattered among the negatives, so positions and indices differ."""
    instances = synthetic_instances(n_pos, n_neg, seed=seed)
    order = np.random.default_rng(seed).permutation(len(instances))
    return [instances[i] for i in order]


class TestResamplingMatchesListReference:
    # (positives, negatives, target): scarce positives drawn with replacement,
    # positives at and above the target, negatives below the target
    MIXES = [(7, 100, 30), (30, 100, 30), (50, 100, 30), (10, 20, 30), (40, 12, 30)]

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("n_pos, n_neg, target", MIXES)
    def test_resample_training(self, n_pos, n_neg, target, seed):
        instances = shuffled_instances(n_pos, n_neg, seed)
        temporal, statics, labels = P.stack_instances(instances)
        rows = P.resample_training(labels, target, seed)
        reference = reference_resample_training(instances, target, seed)
        assert [instances[r].instance_index for r in rows] == [inst.instance_index for inst in reference]
        assert np.array_equal(temporal[rows], np.stack([inst.temporal for inst in reference]))
        assert np.array_equal(labels[rows], [inst.label for inst in reference])

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("n_pos, n_neg, target", MIXES)
    def test_undersample_negatives(self, n_pos, n_neg, target, seed):
        instances = shuffled_instances(n_pos, n_neg, seed)
        temporal, statics, labels = P.stack_instances(instances)
        rows = P.undersample_negatives(labels, target, seed)
        reference = reference_undersample_negatives(instances, target, seed)
        assert [instances[r].instance_index for r in rows] == [inst.instance_index for inst in reference]
        assert np.array_equal(temporal[rows], np.stack([inst.temporal for inst in reference]))
        assert np.array_equal(labels[rows], [inst.label for inst in reference])


class TestInstancesRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [make_record(patient_id=f"p{i}", los_days=6) for i in range(2)]
        instances = P.extract_instances(records)
        schema = P.full_schema()
        P.write_instances(instances, schema, tmp_path / "i.csv", tmp_path / "i.schema.txt")
        loaded, loaded_schema = P.read_instances(tmp_path / "i.csv", tmp_path / "i.schema.txt")
        assert loaded_schema == schema
        assert len(loaded) == len(instances)
        for a, b in zip(instances, loaded):
            assert a.patient_id == b.patient_id
            assert a.day_index == b.day_index
            assert a.label == b.label
            np.testing.assert_array_equal(a.temporal, b.temporal)
            np.testing.assert_array_equal(a.statics, b.statics)

    def test_sidecar_subset_membership(self, tmp_path):
        records = [make_record(los_days=6)]
        instances = P.extract_instances(records)
        P.write_instances(instances, P.full_schema(), tmp_path / "i.csv", tmp_path / "i.schema.txt")
        text = (tmp_path / "i.schema.txt").read_text()
        assert "subset.heart_rate=1" in text
        assert "subset.iv_bolus_cum=3" in text
        assert "subset.age=2" in text
