import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nprl import evaluation as E
from nprl import model as M
from nprl import numgrad as ng
from nprl import pipeline as P
from nprl import train as T
from nprl.errors import InputError, LeakageError, UndefinedMetricError
from defaults import default


def arrays(scores):
    """(probs, labels) arrays from (prob, label) pairs."""
    probs, labels = zip(*scores)
    return np.array(probs, dtype=np.float64), np.array(labels, dtype=np.int64)


def brute_force_auroc(probs, labels):
    pos = probs[labels == 1].tolist()
    neg = probs[labels == 0].tolist()
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        scores = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        assert E.auroc(*arrays(scores)) == 1.0

    def test_all_ties(self):
        scores = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
        assert E.auroc(*arrays(scores)) == 0.5

    def test_hand_case(self):
        scores = [(0.9, 1), (0.4, 1), (0.5, 0), (0.1, 0), (0.3, 0)]
        assert abs(E.auroc(*arrays(scores)) - 5.0 / 6.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            E.auroc(*arrays([(0.5, 1), (0.7, 1)]))

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(5, 60))
            values = np.round(rng.random(n), 2)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert abs(E.auroc(values, labels) - brute_force_auroc(values, labels)) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        values = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            return
        assert abs(E.auroc(values, labels) - E.auroc(np.expm1(3.0 * values), labels)) < 1e-12


class TestConfusion:
    def test_paper_sensitivity(self):
        scores = [(0.9, 1)] * 390 + [(0.1, 1)] * 81 + [(0.1, 0)] * 10
        counts = E.confusion(*arrays(scores), 0.5)
        assert counts["tp"] == 390
        assert abs(counts["sensitivity"] - 0.8280) < 5e-4

    def test_paper_specificity(self):
        scores = [(0.1, 0)] * 15602 + [(0.9, 0)] * 9879 + [(0.9, 1)] * 5
        counts = E.confusion(*arrays(scores), 0.5)
        assert counts["tn"] == 15602
        assert abs(counts["specificity"] - 0.6123) < 5e-4

    def test_empty_positive_set_undefined(self):
        counts = E.confusion(*arrays([(0.2, 0), (0.7, 0)]), 0.5)
        assert counts["sensitivity"] is None
        assert counts["specificity"] == 0.5

    def test_threshold_inclusive(self):
        counts = E.confusion(*arrays([(0.5, 1)]), threshold=0.5)
        assert counts["tp"] == 1


class TestAggregate:
    def _fold(self, fold_id, seed):
        rng = np.random.default_rng(seed)
        probs, labels = arrays([(float(rng.random()), int(rng.integers(0, 2))) for _ in range(40)])
        if not labels.any():
            labels[0] = 1
        if labels.all():
            labels[0] = 0
        return E.score(fold_id, probs, labels, threshold=0.5)

    def test_counts_sum_exactly(self):
        folds = [self._fold(i, i) for i in range(5)]
        report = E.aggregate(folds, threshold=0.5)
        assert report.pooled.tp == sum(f.tp for f in folds)
        assert report.pooled.fn == sum(f.fn for f in folds)


class TestRocPoints:
    def test_endpoints(self):
        scores = [(0.9, 1), (0.7, 0), (0.4, 1), (0.2, 0)]
        points = E.roc_points(*arrays(scores))
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        probs, labels = arrays([(float(rng.random()), int(rng.integers(0, 2))) for _ in range(50)])
        probs[:2], labels[:2] = 0.5, (1, 0)
        points = E.roc_points(probs, labels)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0 and y1 >= y0


def tiny_dataset(n_patients=24, seed=0):
    from nprl.cohort import generate_cohort

    records = generate_cohort(default("generator", n_patients=n_patients), seed)
    instances = P.extract_instances(records)
    return P.select_features(instances, P.full_schema(), {1, 3})


def tiny_configs():
    return default(
        "arm_configs",
        model=default("arm_configs.model", gru_hidden=4, trunk_widths=(8,)),
        pretrain=default("arm_configs.pretrain", epochs=2),
        finetune=default("arm_configs.finetune", epochs=2),
        baseline=default("arm_configs.baseline", epochs=2),
        resample_target=40,
    )


def _hash_instances(instances):
    digest = hashlib.sha256()
    for inst in sorted(instances, key=lambda i: i.instance_index):
        digest.update(str(inst.instance_index).encode())
        digest.update(inst.temporal.tobytes())
        digest.update(inst.statics.tobytes())
        digest.update(bytes([inst.label]))
    return digest.hexdigest()


class TestCrossValidate:
    def test_deterministic_and_arms_run(self):
        instances, schema = tiny_dataset()
        split = P.stratified_kfold(instances, k=4, seed=1)
        configs = tiny_configs()
        for arm in E.ARMS:
            a = E.cross_validate(instances, schema, split, arm, configs, seed=9, n_workers=1)
            b = E.cross_validate(instances, schema, split, arm, configs, seed=9, n_workers=1)
            assert a.pooled.auroc == b.pooled.auroc
            assert [f.tp for f in a.folds] == [f.tp for f in b.folds]

    def test_test_folds_untouched(self):
        instances, schema = tiny_dataset(seed=2)
        before = _hash_instances(instances)
        split = P.stratified_kfold(instances, k=4, seed=1)
        E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=5, n_workers=1)
        assert _hash_instances(instances) == before

    def test_unknown_arm(self):
        instances, schema = tiny_dataset(seed=3)
        split = P.stratified_kfold(instances, k=4, seed=1)
        with pytest.raises(InputError):
            E.cross_validate(instances, schema, split, "boosting", tiny_configs(), seed=0, n_workers=1)

    def test_split_must_cover(self):
        instances, schema = tiny_dataset(seed=4)
        split = P.stratified_kfold(instances[:-1], k=4, seed=1)
        with pytest.raises(InputError):
            E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=0, n_workers=1)

    def test_leakage_guard(self):
        instances, schema = tiny_dataset(seed=5)
        split = P.stratified_kfold(instances, k=4, seed=1)
        # duplicate one instance index across what will be train and test
        clone = P.NightInstance(
            patient_id="dup",
            day_index=3,
            instance_index=instances[0].instance_index,
            temporal=instances[0].temporal.copy(),
            statics=instances[0].statics.copy(),
            label=instances[0].label,
        )
        corrupted = instances + [clone]
        with pytest.raises(LeakageError):
            E.cross_validate(corrupted, schema, split, "baseline", tiny_configs(), seed=0, n_workers=1)

    def test_nprl_arm_trains_without_forward_only_passes(self, monkeypatch):
        # forward-only passes run on detached parameters; a test fold here is
        # one chunk, so scoring it is one bidirectional GRU node, and
        # pretraining and fine-tuning must add none
        passes = []
        gru_layer = M.gru_layer

        def counting(x, params, *args, **kwargs):
            if not params["gru_fwd.W_zrh"].requires_grad:
                passes.append(params["head.W"].dims[1])
            return gru_layer(x, params, *args, **kwargs)

        monkeypatch.setattr(M, "gru_layer", counting)
        instances, schema = tiny_dataset(seed=10)
        split = P.stratified_kfold(instances, k=3, seed=2)
        E.cross_validate(instances, schema, split, "nprl", tiny_configs(), seed=3, n_workers=1)
        assert passes == [2] * split.k

    def test_class_balanced_finetune_weighs_by_the_eval_scheme(self, monkeypatch):
        # finetune.loss=class_balanced takes [eval]'s weight scheme and beta,
        # as the class-balanced arms do; the plain loss weighs nothing
        seen = []

        def finetune(temporal, statics, labels, theta0, *args, class_weights=None):
            seen.append((labels, class_weights))
            return theta0, None

        monkeypatch.setattr(T, "finetune", finetune)
        instances, schema = tiny_dataset(seed=11)
        arrays = P.stack_instances(instances)
        plain = default("arm_configs.finetune", epochs=1, resample=False)
        balanced = replace(plain, loss="class_balanced")
        runs = ((plain, "effective_number"), (balanced, "inverse_frequency"), (balanced, "effective_number"))
        for finetune_config, scheme in runs:
            cfg = replace(tiny_configs(), finetune=finetune_config, weight_scheme=scheme, effective_beta=0.99)
            E._fit_arm("nprl", *arrays, schema, cfg, seed=4)
        (_, none), (labels, inverse), (_, effective) = seen
        assert none is None
        np.testing.assert_array_equal(inverse, T.class_balanced_weights(labels, "inverse_frequency"))
        np.testing.assert_array_equal(effective, T.class_balanced_weights(labels, "effective_number", 0.99))
        assert not np.allclose(inverse, effective)

    def test_worker_pool_matches_serial(self):
        instances, schema = tiny_dataset(seed=6)
        split = P.stratified_kfold(instances, k=3, seed=2)
        serial = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=1)
        parallel = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=3)
        assert serial.pooled.auroc == parallel.pooled.auroc
        for a, b in zip(serial.folds, parallel.folds, strict=True):
            assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)

    def test_worker_pool_after_a_threaded_pass_matches_serial(self, two_threads, monkeypatch):
        # the pool forks after the parent has run a pass on two threads, and
        # two fold workers on four CPUs each count two, so every pass in the
        # fold workers runs on two threads as well
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        instances, schema = tiny_dataset(seed=6)
        temporal, statics, _ = P.stack_instances(instances[:8])
        model = tiny_configs().model
        M.predict_proba(temporal, statics, M.init_params(model, schema, seed=0), model)
        assert len(two_threads) == 1
        split = P.stratified_kfold(instances, k=3, seed=2)
        serial = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=1)
        parallel = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=2)
        assert serial.pooled.auroc == parallel.pooled.auroc
        for a, b in zip(serial.folds, parallel.folds, strict=True):
            assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)


    def test_fold_workers_share_the_cpus(self, two_threads, monkeypatch):
        # two fold workers on two CPUs each count one, so neither starts a
        # thread, even where every size threshold is 0
        instances, schema = tiny_dataset(seed=6)
        split = P.stratified_kfold(instances, k=3, seed=2)
        serial = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=1)
        assert two_threads  # the parent itself does run pairs on two threads

        class Refused(ng.Thread):
            def start(self):
                raise AssertionError("a fold worker started a thread")

        monkeypatch.setattr(ng, "Thread", Refused)
        parallel = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=7, n_workers=2)
        for a, b in zip(serial.folds, parallel.folds, strict=True):
            assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)


class TestEmitReport:
    def test_row_count_and_all_marker(self, tmp_path):
        instances, schema = tiny_dataset(seed=7)
        split = P.stratified_kfold(instances, k=4, seed=3)
        report = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=1, n_workers=1)
        E.emit_combined_report({"baseline": report}, tmp_path / "report.csv", tmp_path / "roc.txt")
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 + 1  # header, folds, aggregate
        assert rows[-1].split(",")[1] == "ALL"

    def test_roc_file_endpoints(self, tmp_path):
        instances, schema = tiny_dataset(seed=8)
        split = P.stratified_kfold(instances, k=4, seed=3)
        report = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=1, n_workers=1)
        E.emit_combined_report({"baseline": report}, tmp_path / "report.csv", tmp_path / "roc.txt")
        lines = [l for l in (tmp_path / "roc.txt").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "0.0 0.0"
        assert lines[-1] == "1.0 1.0"

    def test_read_report_round_trip(self, tmp_path):
        instances, schema = tiny_dataset(seed=9)
        split = P.stratified_kfold(instances, k=4, seed=3)
        report = E.cross_validate(instances, schema, split, "baseline", tiny_configs(), seed=1, n_workers=1)
        E.emit_combined_report({"baseline": report}, tmp_path / "report.csv", tmp_path / "roc.txt")
        parsed = E.read_report(tmp_path / "report.csv")
        assert float(parsed["baseline"]["ALL"]["auroc"]) == report.pooled.auroc
        assert int(parsed["baseline"]["ALL"]["tp"]) == report.pooled.tp
