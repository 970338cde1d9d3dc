"""Acceptance gate: one test per criterion, one printed verdict line each.

C1-C7 and C12 are here; C8-C11 (pretraining sanity, the two theory checks
and the four-arm comparison) are not written yet.
"""

import time
from datetime import datetime, timedelta

import numpy as np

from nprl import cli
from nprl import cohort as C
from nprl import evaluation as E
from nprl import model as M
from nprl import numgrad as ng
from nprl import pipeline as P
from defaults import default
from gradcheck import grad_check
from per_gate import fuse_tensors, per_gate

HOUR = timedelta(hours=1)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# C1: gradient correctness at reference scale
# ---------------------------------------------------------------------------


def test_c01_gradient_correctness():
    schema = M.FeatureSchema(tuple(f"t{i}" for i in range(11)), tuple(f"s{i}" for i in range(15)))
    # the paper's reference width H=256, with the default 16/8/1 statics and 64 trunk
    config = default("arm_configs.model", gru_hidden=256)
    params = M.init_params(config, schema, seed=0)
    rng = np.random.default_rng(1)
    temporal = rng.uniform(0.0, 1.0, size=(4, 9, 11))
    statics = rng.uniform(0.0, 1.0, size=(4, 15))
    labels = np.array([0, 1, 1, 0])
    # Central differences across a relu kink are invalid for reasons unrelated
    # to backward correctness, so every relu input must lie more than one
    # step from zero. The closest, a trunk input, is 5.4e-4 away; below
    # 3e-4, rounding in the 4.8e-9 gradients of gru_bwd.U_r starts to show.
    step = 3e-4
    s = statics
    for i in range(len(config.static_widths) - 1):  # the last static unit is linear
        pre = s @ params[f"static.{i}.W"].data + params[f"static.{i}.b"].data
        assert np.abs(pre).min() > step, f"static.{i} relu input within one step of its kink"
        s = np.maximum(pre, 0.0)
    rep = M.represent(temporal, statics, ng.detach(params), config).data
    pre = rep @ params["trunk.0.W"].data + params["trunk.0.b"].data  # the one trunk layer
    assert np.abs(pre).min() > step, "trunk.0 relu input within one step of its kink"

    def fn(p):
        logits, _ = M.forward_batch(temporal, statics, fuse_tensors(p), config)
        return ng.cross_entropy(logits, labels)

    started = time.perf_counter()
    # checked one tensor per gate block, so each block gets its own 48
    # samples for any seed
    gates = {name: ng.Tensor(block, requires_grad=True) for name, block in per_gate(params)}
    err = grad_check(fn, gates, step=step, max_coords_per_tensor=48, seed=0)
    elapsed = time.perf_counter() - started
    verdict(
        "C1 gradient correctness",
        err < 1e-4 and elapsed < 120.0,
        f"max relative error {err:.2e} in {elapsed:.1f}s (limits 1e-4, 120s)",
    )


# ---------------------------------------------------------------------------
# C2: architecture shapes at the paper's reference width, H=256
# ---------------------------------------------------------------------------


def test_c02_architecture_shapes():
    schema = M.FeatureSchema(tuple(f"t{i}" for i in range(11)), tuple(f"s{i}" for i in range(15)))
    config = default("arm_configs.model", gru_hidden=256)  # the paper's reference width
    params = M.init_params(config, schema, seed=0)

    temporal = np.random.default_rng(1).uniform(size=(1, 9, 11))
    statics = np.random.default_rng(2).uniform(size=(1, 15))
    _, rep = M.forward_batch(temporal, statics, params, config)
    # the representation opens with the BiGRU states, hour-major: 9 hours x 2H
    gru_out = rep.data[:, : 9 * 2 * config.gru_hidden].reshape(9, -1)

    schema0 = M.FeatureSchema(tuple(f"t{i}" for i in range(11)))
    params0 = M.init_params(config, schema0, seed=0)
    _, rep0 = M.forward_batch(temporal, np.empty((1, 0)), params0, config)
    ok = (
        gru_out.shape == (9, 512)
        and gru_out.size == 4608
        and rep.dims == (1, 4609)
        and rep0.dims == (1, 4608)
        and M.rep_width(config, 0) == 4608
    )
    verdict(
        "C2 architecture shapes",
        ok,
        f"bigru {gru_out.shape}, flatten {gru_out.size}, concat {rep.dims[1]}, no-static {rep0.dims[1]}",
    )


# ---------------------------------------------------------------------------
# C3: AUROC oracle equivalence
# ---------------------------------------------------------------------------


def test_c03_auroc_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        values = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        checked += 1
        pos = values[labels == 1]
        neg = values[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        fast = E.auroc(values, labels)
        worst = max(worst, abs(fast - oracle))
    hand = E.auroc(np.array([0.9, 0.4, 0.5, 0.1, 0.3]), np.array([1, 1, 0, 0, 0]))
    ok = worst < 1e-12 and abs(hand - 5.0 / 6.0) < 1e-12
    verdict(
        "C3 AUROC oracle equivalence",
        ok,
        f"max |rank - pair-count| = {worst:.2e} over 1000 vectors; hand case {hand:.6f} vs 5/6",
    )


# ---------------------------------------------------------------------------
# C4: class-decomposition identity of the mean cross-entropy
# ---------------------------------------------------------------------------


def test_c04_class_decomposition_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 40))
        n_classes = int(rng.integers(2, 6))
        logits = rng.normal(scale=3.0, size=(m, n_classes))
        labels = rng.integers(0, n_classes, size=m)
        total, _ = ng.softmax_xent(logits, labels)
        decomposed = 0.0
        for c in range(n_classes):
            mask = labels == c
            if not mask.any():
                continue
            class_mean, _ = ng.softmax_xent(logits[mask], labels[mask])
            decomposed += (mask.sum() / m) * class_mean
        worst = max(worst, abs(total - decomposed))
    verdict(
        "C4 class decomposition identity",
        worst < 1e-10,
        f"max |mean CE - weighted class means| = {worst:.2e} over 100 batches",
    )


# ---------------------------------------------------------------------------
# C5: pipeline golden fixture
# ---------------------------------------------------------------------------


def _fixture_record(patient_id, admit, los_days, culture=None, sofa_post=None, missing=None):
    los_hours = 24 * los_days
    missing = missing or {}
    hourly = np.empty((los_hours, len(C.HOURLY_FIELDS)))
    for k in range(los_hours):
        values = dict(
            heart_rate=78.0,
            sbp=118.0,
            dbp=62.0,
            resp_rate=17.0,
            temperature=36.9,
            fio2=0.35,
            iv_bolus_cum=0.05 * k,
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
        score = 4
        if culture is not None and sofa_post is not None and ts > culture:
            score = sofa_post
        sofa.append((ts, score))
    return C.PatientRecord(
        patient_id=patient_id,
        admit_ts=admit,
        los_hours=los_hours,
        hours=np.datetime64(admit, "h") + np.arange(los_hours),
        hourly=hourly,
        statics=[float(i) for i in range(15)],
        sofa=sofa,
        cultures=[(culture, True)] if culture else [],
    )


def test_c05_pipeline_golden_fixture():
    admit = datetime(2024, 3, 1, 0, 0)
    septic = _fixture_record("sep", admit, 20, culture=datetime(2024, 3, 7, 15, 0), sofa_post=7)
    negative = _fixture_record("neg", admit, 10)
    gappy = _fixture_record("gap", admit, 6, missing={"temperature": lambda k: k <= 54})
    instances = P.extract_instances([septic, negative, gappy])

    by_patient = {}
    for inst in instances:
        by_patient.setdefault(inst.patient_id, []).append(inst)
    sep = by_patient.get("sep", [])
    neg = by_patient.get("neg", [])
    gap = by_patient.get("gap", [])
    ok = (
        [i.day_index for i in sep] == [3, 4, 5, 6, 7]
        and [i.label for i in sep] == [0, 0, 0, 0, 1]
        and [i.day_index for i in neg] == [3, 4, 5, 6, 7, 8, 9, 10]
        and all(i.label == 0 for i in neg)
        and 3 not in [i.day_index for i in gap]
    )
    verdict(
        "C5 pipeline golden fixture",
        ok,
        f"septic days {[i.day_index for i in sep]} labels {[i.label for i in sep]}; "
        f"negative count {len(neg)}; gappy days {[i.day_index for i in gap]}",
    )


# ---------------------------------------------------------------------------
# C6: metric consistency with printed reference counts
# ---------------------------------------------------------------------------


def test_c06_metric_consistency():
    sensitivity = 390 / 471
    specificity = 15602 / 25481
    probs = np.repeat([0.9, 0.1, 0.1, 0.9], [390, 471 - 390, 15602, 25481 - 15602])
    labels = np.repeat([1, 1, 0, 0], [390, 471 - 390, 15602, 25481 - 15602])
    counts = E.confusion(probs, labels, 0.5)
    ok = (
        abs(counts["sensitivity"] - 0.8280) < 5e-4
        and abs(counts["specificity"] - 0.6123) < 5e-4
        and abs(sensitivity - counts["sensitivity"]) < 1e-12
        and abs(specificity - counts["specificity"]) < 1e-12
    )
    verdict(
        "C6 metric consistency",
        ok,
        f"sensitivity {counts['sensitivity']:.4f} (ref 0.8280), specificity {counts['specificity']:.4f} (ref 0.6123)",
    )


# ---------------------------------------------------------------------------
# C7: resampling contract
# ---------------------------------------------------------------------------


def _array_digest(*arrays):
    import hashlib

    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_c07_resampling_contract():
    rng = np.random.default_rng(3)
    instances = [
        P.NightInstance(
            patient_id=f"p{i}",
            day_index=3,
            instance_index=i,
            temporal=rng.normal(size=(9, 1)),
            statics=np.empty(0),
            label=1 if i < 471 else 0,
        )
        for i in range(25952)
    ]
    temporal, statics, labels = P.stack_instances(instances)
    resampled = P.resample_training(labels, target=2600, seed=1)
    n_pos = int(labels[resampled].sum())
    n_neg = len(resampled) - n_pos

    split = P.stratified_kfold(instances, k=5, seed=2)
    fold_of = np.array([split.fold_of[i.instance_index] for i in instances])
    test_rows, train_rows = np.flatnonzero(fold_of == 0), np.flatnonzero(fold_of != 0)
    before = _array_digest(temporal[test_rows], statics[test_rows], labels[test_rows])
    picked = train_rows[P.resample_training(labels[train_rows], target=2600, seed=3)]
    after = _array_digest(temporal[test_rows], statics[test_rows], labels[test_rows])
    untouched = before == after and not np.isin(picked, test_rows).any()
    ok = n_pos == 2600 and n_neg == 2600 and untouched
    verdict(
        "C7 resampling contract",
        ok,
        f"resampled to {n_pos}/{n_neg} (target 2600/2600); test fold unchanged and never drawn: {untouched}",
    )


# ---------------------------------------------------------------------------
# C12: byte-identical reruns
# ---------------------------------------------------------------------------


def test_c12_determinism_and_serialization(tmp_path):
    overrides = []
    for item in (
        "generator.n_patients=30",
        "model.gru_hidden=4",
        "model.trunk_widths=8",
        "pretrain.epochs=2",
        "finetune.epochs=2",
        "baseline.epochs=2",
        "eval.k_folds=3",
        "eval.resample_target=60",
        "theory.max_instances=50",
        "theory.pretrain_epochs=2",
        "theory.finetune_epochs=2",
        "theory.n_probes=2",
        "theory.n_pairs=200",
    ):
        overrides.extend(["--set", item])
    args = ["all", "--out", str(tmp_path)] + overrides
    assert cli.main(args) == 0
    run_dir = next(tmp_path.iterdir())
    logs = sorted(p.relative_to(run_dir) for p in (run_dir / "logs").rglob("*.csv"))
    names = ["report.csv", "roc.txt", "theory_report.txt", "instances.csv", *logs]
    snapshots = {name: (run_dir / name).read_bytes() for name in names}
    for name in names:
        (run_dir / name).unlink()  # so the rerun writes every file compared below
    assert cli.main(args) == 0
    identical = [name for name in names if (run_dir / name).read_bytes() == snapshots[name]]
    verdict(
        "C12 byte-identical reruns",
        len(logs) == 4 * 3 + 3 and identical == names,  # a log per arm and fold, and per nprl pretraining
        f"{len(identical)} of {len(names)} artifacts byte-identical on a rerun, {len(logs)} of them training logs",
    )
