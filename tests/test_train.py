import hashlib
import tracemalloc

import numpy as np
import pytest

from nprl import model as M
from nprl import numgrad as ng
from nprl import theory as TH
from nprl import train as T
from nprl.errors import InputError
from defaults import default
from per_gate import per_gate
from simd import HASWELL, KATMAI, SANDYBRIDGE, SKYLAKEX, SKYLAKEX_AVX2, describe, golden, simd_level
from traced import traced_peak_rise

SCHEMA = M.FeatureSchema(("a", "b", "c"), ())
CONFIG = default("arm_configs.model", gru_hidden=4, trunk_widths=(8,))


def toy_arrays(n_pos=6, n_neg=18, seed=0, separable=True):
    """Tiny labeled (temporal, statics, labels) set; positives come first and
    get a mean shift so learning is feasible."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n_pos + n_neg) < n_pos).astype(np.int64)
    temporal = []
    for label in labels:
        night = rng.uniform(0.1, 0.9, size=(9, 3))
        temporal.append(np.clip(night + 0.35, 0.0, 1.5) if separable and label else night)
    return np.stack(temporal), np.empty((len(labels), 0)), labels


class TestErmLoss:
    def test_class_decomposition_identity(self):
        # mean cross-entropy equals the count-weighted sum of class means
        rng = np.random.default_rng(1)
        temporal, statics, labels = toy_arrays(5, 11, seed=2)
        params = M.init_params(CONFIG, SCHEMA, seed=0)
        total, _, _ = T._loss_and_grads((temporal, statics, labels), params, CONFIG, None)
        by_class = 0.0
        for c in (0, 1):
            mask = labels == c
            class_loss, _, _ = T._loss_and_grads((temporal[mask], statics[mask], labels[mask]), params, CONFIG, None)
            by_class += mask.sum() / len(labels) * class_loss
        assert abs(total - by_class) < 1e-10

    def test_single_instance_uniform_logits(self):
        temporal, statics, _ = toy_arrays(1, 0)
        params = M.init_params(CONFIG, SCHEMA, seed=0)
        zeroed = {
            name: ng.Tensor(np.zeros(p.dims), requires_grad=True) if M.is_head(name) else p
            for name, p in params.items()
        }
        loss, _, _ = T._loss_and_grads((temporal, statics, np.array([1])), zeroed, CONFIG, None)
        assert abs(loss - np.log(2)) < 1e-12

    def test_unit_weights_match_unweighted(self):
        batch = toy_arrays(4, 6, seed=3)
        params = M.init_params(CONFIG, SCHEMA, seed=1)
        plain, grads_plain, _ = T._loss_and_grads(batch, params, CONFIG, None)
        weighted, grads_weighted, _ = T._loss_and_grads(batch, params, CONFIG, np.ones(2))
        assert plain == weighted
        for name in grads_plain:
            np.testing.assert_array_equal(grads_plain[name], grads_weighted[name])


def labels_with(n_pos, n_neg):
    return np.array([1] * n_pos + [0] * n_neg)


class TestClassBalancedWeights:
    def test_paper_counts_inverse_frequency(self):
        w = T.class_balanced_weights(labels_with(471, 25481), "inverse_frequency")
        assert abs(w[1] - 27.550) < 1e-3
        assert abs(w[0] - 0.5092) < 1e-4

    def test_balanced_classes_unit_weights(self):
        np.testing.assert_allclose(T.class_balanced_weights(labels_with(100, 100), "inverse_frequency"), 1.0)

    def test_effective_number_beta_zero_limit(self):
        w = T.class_balanced_weights(labels_with(20, 100), "effective_number", beta=1e-12)
        np.testing.assert_allclose(w, 1.0, atol=1e-9)

    def test_effective_number_normalization(self):
        w = T.class_balanced_weights(labels_with(100, 1000), "effective_number", beta=0.999)
        counts = np.array([1000, 100])
        assert abs(float(w @ counts) - 1100) < 1e-9

    def test_bad_beta(self):
        with pytest.raises(InputError):
            T.class_balanced_weights(labels_with(5, 5), "effective_number", beta=1.0)

    def test_empty_class_rejected(self):
        with pytest.raises(InputError):
            T.class_balanced_weights(labels_with(0, 10), "inverse_frequency")


class TestPretrain:
    def test_tiny_set_reaches_full_identification(self):
        temporal, statics, _ = toy_arrays(0, 40, seed=5, separable=False)
        params, _ = T.nprl_pretrain(
            temporal, statics, CONFIG, SCHEMA, default("arm_configs.pretrain", epochs=200, learning_rate=3e-3), seed=1
        )
        assert T.identify(temporal, statics, params, CONFIG)[1] == 1.0
        assert params["head.W"].dims[1] == 40

    def test_log_holds_only_training_epochs(self):
        temporal, statics, _ = toy_arrays(0, 20, seed=6, separable=False)
        _, log = T.nprl_pretrain(temporal, statics, CONFIG, SCHEMA, default("arm_configs.pretrain", epochs=3), seed=2)
        assert [row.epoch for row in log.epochs] == [1, 2, 3]

    def test_starts_from_n_way_init_params(self, monkeypatch):
        # training starts from init_params with one head class per profile,
        # drawn from the pretraining seed
        started = []
        monkeypatch.setattr(
            T, "_train", lambda temporal, statics, labels, params, model, **kw: started.append((params, model))
        )
        temporal, statics, _ = toy_arrays(0, 12, seed=9, separable=False)
        T.nprl_pretrain(temporal, statics, CONFIG, SCHEMA, default("arm_configs.pretrain", epochs=1), seed=5)
        initial = M.init_params(CONFIG, SCHEMA, seed=5, n_classes=12)
        ((params, used_model),) = started
        assert used_model == CONFIG and params["head.W"].dims[1] == 12
        assert {n: p.data.tobytes() for n, p in params.items()} == {n: p.data.tobytes() for n, p in initial.items()}

    @staticmethod
    def wide_head_set(n=1500):
        """n profiles at H=32 with no trunk, so the n-way head dominates
        every other tensor, and the bytes of that head."""
        rng = np.random.default_rng(7)
        schema, config = M.FeatureSchema(("a", "b", "c")), default("arm_configs.model", gru_hidden=32, trunk_widths=())
        temporal, statics = rng.uniform(size=(n, 9, 3)), np.empty((n, 0))
        return (temporal, statics, config, schema), M.rep_width(config, 0) * n * 8

    def test_holds_four_head_sized_arrays(self):
        # the parameters, Adam's two moments and one gradient buffer, plus a
        # step's activations (about 0.8 of the head here): no starting copy
        # and no second gradient
        (temporal, statics, config, schema), head_bytes = self.wide_head_set()
        schedule = default("arm_configs.pretrain", epochs=1)
        pretrain = lambda: T.nprl_pretrain(temporal, statics, config, schema, schedule, seed=0)
        rise = traced_peak_rise(pretrain)
        assert rise <= 5.0 * head_bytes

    def test_steps_after_the_first_allocate_no_parameter_sized_array(self, monkeypatch):
        # every gradient is formed in its parameter's buffer, so what the
        # third step allocates (traced from the end of the second) stays
        # far below the head; a fresh head gradient would be all of it. A
        # batch of 16 keeps the logits and their gradients small beside it
        (temporal, statics, config, schema), head_bytes = self.wide_head_set()
        adam_step, peaks = ng.adam_step, []

        class ThirdStepDone(Exception):
            pass

        def traced_step(params, grads, state):
            adam_step(params, grads, state)
            if state.step_count == 2:
                tracemalloc.start()
            elif state.step_count == 3:
                peaks.append(tracemalloc.get_traced_memory()[1])
                raise ThirdStepDone

        monkeypatch.setattr(ng, "adam_step", traced_step)
        schedule = default("arm_configs.pretrain", epochs=1, batch_size=16)
        try:
            with pytest.raises(ThirdStepDone):
                T.nprl_pretrain(temporal, statics, config, schema, schedule, seed=0)
        finally:
            tracemalloc.stop()
        assert peaks[0] < 0.5 * head_bytes, peaks[0] / head_bytes

    def test_final_diagnostics_match_two_passes(self):
        # identify's accuracy and representations come from one forward pass;
        # they must equal a separate accuracy pass plus
        # compute_representations, over more rows than one forward chunk
        temporal, statics, _ = toy_arrays(0, 600, seed=8, separable=False)
        assert len(temporal) > M.FORWARD_CHUNK
        schedule = default("arm_configs.pretrain", epochs=1)
        params, _ = T.nprl_pretrain(temporal, statics, CONFIG, SCHEMA, schedule, seed=4)
        _, accuracy, final_reps = T.identify(temporal, statics, params, CONFIG)
        detached = ng.detach(params)
        correct = 0
        for lo in range(0, 600, 512):
            logits, _ = M.forward_batch(temporal[lo : lo + 512], statics[lo : lo + 512], detached, CONFIG)
            correct += int((logits.data.argmax(axis=1) == np.arange(lo, min(lo + 512, 600))).sum())
        reps = M.compute_representations(temporal, statics, params, CONFIG)
        assert accuracy == correct / 600
        assert TH.mean_abs_cosine(TH.gram(final_reps)) == TH.mean_abs_cosine(TH.gram(reps))
        np.testing.assert_array_equal(final_reps, reps)  # theory uses them as theta0's

    def test_identify_needs_one_head_class_per_profile(self):
        temporal, statics, _ = toy_arrays(0, 5, separable=False)
        with pytest.raises(InputError, match="needs 5 classes, got 2"):
            T.identify(temporal, statics, M.init_params(CONFIG, SCHEMA, seed=0), CONFIG)


# sha256 of test_golden_parameter_values's parameter sets, per SIMD level
# (see tests/simd.py)
PARAMETER_SHA256 = {
    SKYLAKEX: "33f415186c29dd7b8d588e377da565c9efc5d962e79a5dc22d311981e6edb53b",
    SKYLAKEX_AVX2: "e78912faec8ae2cf2b528f245911c854047b63bb37704fa47ff0620166395b1e",
    HASWELL: "c61a29be022937fd8021647123f272d401a9dc12a93ece47c20ef45ae9f6b3d3",
    SANDYBRIDGE: "e977421f40e63336178a9db2147dc83ec86fcc679f8e25c07283111ac63ac65d",
    KATMAI: "923da6f90180a42c490a0563b52a58558ed22e21f4fd1535694553bc82871350",
}


class TestFinetune:
    def _pretrained(self, data, seed=0):
        temporal, statics, _ = data
        theta0, _ = T.nprl_pretrain(temporal, statics, CONFIG, SCHEMA, default("arm_configs.pretrain", epochs=2), seed)
        return M.replace_head(theta0, seed=seed)

    def test_step_zero_distance_is_zero(self):
        data = toy_arrays(6, 10, seed=8)
        theta0 = self._pretrained(data)
        assert M.frobenius_distance(theta0, theta0) == 0.0

    def test_huge_penalty_pins_parameters(self):
        data = toy_arrays(6, 10, seed=9)
        theta0 = self._pretrained(data)
        config = default("arm_configs.finetune", mode="regularized", lam=1e6, learning_rate=1e-8, epochs=1)
        params, _ = T.finetune(*data, theta0, config, CONFIG, seed=1)
        assert M.frobenius_distance(params, theta0) < 1e-6

    def test_projected_mode_respects_radius(self):
        data = toy_arrays(6, 10, seed=10)
        theta0 = self._pretrained(data)
        gamma = 0.05
        config = default("arm_configs.finetune", mode="projected", gamma=gamma, learning_rate=1e-2, epochs=3)
        params, log = T.finetune(*data, theta0, config, CONFIG, seed=2)
        assert M.frobenius_distance(params, theta0) <= gamma + 1e-9
        assert log.epochs[-1].frob_dist <= gamma + 1e-9

    def test_projected_mode_needs_positive_gamma(self):
        data = toy_arrays(6, 10)
        theta0 = self._pretrained(data)
        with pytest.raises(InputError):
            T.finetune(*data, theta0, default("arm_configs.finetune", mode="projected", gamma=0.0), CONFIG, seed=0)

    def test_lambda_zero_matches_baseline_trajectory(self):
        data = toy_arrays(6, 10, seed=11)
        theta0 = self._pretrained(data, seed=4)
        seed = 123
        ft_config = default("arm_configs.finetune", mode="regularized", lam=0.0, learning_rate=1e-3, epochs=3)
        ft_params, ft_log = T.finetune(*data, theta0, ft_config, CONFIG, seed)
        # the plain training loop from theta0, as a baseline run started there
        schedule = T.Schedule(epochs=3, batch_size=64, learning_rate=1e-3)
        bl_params, bl_log = T._train(*data, theta0, CONFIG, schedule, seed)
        for name in ft_params:
            np.testing.assert_array_equal(ft_params[name].data, bl_params[name].data)
        assert [(e.loss, e.accuracy, e.frob_dist) for e in ft_log.epochs] == [
            (e.loss, e.accuracy, e.frob_dist) for e in bl_log.epochs
        ]

    @pytest.mark.parametrize(
        "config",
        [
            default("arm_configs.finetune", mode="regularized", lam=0.1, learning_rate=1e-2, epochs=2),
            default("arm_configs.finetune", mode="projected", gamma=0.05, learning_rate=1e-2, epochs=2),
        ],
        ids=["regularized", "projected"],
    )
    def test_theta0_left_unchanged(self, config):
        data = toy_arrays(6, 10, seed=17)
        theta0 = self._pretrained(data, seed=6)
        before = {name: p.data.tobytes() for name, p in theta0.items()}
        params, log = T.finetune(*data, theta0, config, CONFIG, seed=1)
        assert {name: p.data.tobytes() for name, p in theta0.items()} == before
        distance = M.frobenius_distance(params, theta0)
        assert distance > 0.0 and log.epochs[-1].frob_dist == distance

    def test_golden_parameter_values(self):
        # the names and values of theta0, a projected and a regularized
        # fine-tune, read in the per-gate order; the digest was taken when
        # each GRU gate was its own tensor, so it pins the draw order, Adam
        # and the projection through the fused layout
        data = toy_arrays(6, 10, seed=8)
        theta0 = self._pretrained(data)
        projected, _ = T.finetune(
            *data, theta0, default("arm_configs.finetune", mode="projected", gamma=0.05, learning_rate=1e-2, epochs=2),
            CONFIG, seed=2,
        )
        regularized, _ = T.finetune(*data, theta0, default("arm_configs.finetune", epochs=2), CONFIG, seed=3)
        digest = hashlib.sha256()
        for params in (theta0, projected, regularized):
            for name, values in per_gate(params):
                digest.update(name.encode())
                digest.update(values.tobytes())
        assert digest.hexdigest() == golden(PARAMETER_SHA256), f"at {describe(simd_level())}"

    def test_head_mismatch_rejected(self):
        data = toy_arrays(6, 10)
        theta0, _ = T.nprl_pretrain(*data[:2], CONFIG, SCHEMA, default("arm_configs.pretrain", epochs=1), seed=0)
        with pytest.raises(InputError):
            T.finetune(*data, theta0, default("arm_configs.finetune"), CONFIG, seed=0)

    def test_regularized_gradient_matches_finite_differences_of_summed_objective(self):
        data = toy_arrays(4, 8, seed=12)
        theta0 = self._pretrained(data, seed=5)
        lam = 0.3
        # move away from theta0 so the penalty gradient is non-trivial
        rng = np.random.default_rng(6)
        params = {
            name: ng.Tensor(p.data + 0.05 * rng.standard_normal(p.dims), requires_grad=True)
            for name, p in theta0.items()
        }
        temporal, statics, labels = data

        def objective(p):
            loss, _ = ng.softmax_xent(
                M.forward_batch(temporal, statics, p, CONFIG)[0].data, labels
            )
            for name, tensor in p.items():
                if not M.is_head(name):
                    diff = tensor.data - theta0[name].data
                    loss += 0.5 * lam * float(np.sum(diff * diff))
            return loss

        # production gradient: autodiff loss grads plus the analytic pull-back
        _, grads, _ = T._loss_and_grads((temporal, statics, labels), params, CONFIG, None)
        for name, p in params.items():
            if not M.is_head(name):
                grads[name] = grads[name] + lam * (p.data - theta0[name].data)

        step = 1e-4
        worst = 0.0
        for name, p in params.items():
            flat = p.data.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                values = []
                for sign in (+1.0, -1.0):
                    bumped = flat.copy()
                    bumped[idx] += sign * step
                    probe = dict(params)
                    probe[name] = ng.Tensor(bumped.reshape(p.dims), requires_grad=True)
                    values.append(objective(probe))
                numeric = (values[0] - values[1]) / (2 * step)
                analytic = float(grads[name].reshape(-1)[idx])
                worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
        assert worst < 1e-4


class TestBaseline:
    def test_deterministic_per_seed(self):
        data = toy_arrays(6, 14, seed=13)
        schedule = default("arm_configs.baseline", epochs=2)
        a, log_a = T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=9)
        b, log_b = T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=9)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
        assert [e.loss for e in log_a.epochs] == [e.loss for e in log_b.epochs]

    def test_frob_dist_measured_from_init_params(self):
        # the training loop trains the set init_params drew in place; the
        # log's distance is still measured from the starting values
        data = toy_arrays(6, 14, seed=18)
        schedule = default("arm_configs.baseline", epochs=2, learning_rate=1e-2)
        params, log = T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=5)
        distance = M.frobenius_distance(params, M.init_params(CONFIG, SCHEMA, seed=5))
        assert distance > 0.0 and log.epochs[-1].frob_dist == distance

    def test_loss_decreases_on_separable_data(self):
        data = toy_arrays(20, 20, seed=14)
        schedule = default("arm_configs.baseline", epochs=5, learning_rate=3e-3)
        _, log = T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=3)
        losses = [e.loss for e in log.epochs]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_all_negative_data_collapses_to_always_negative(self):
        data = toy_arrays(0, 30, seed=15, separable=False)
        schedule = default("arm_configs.baseline", epochs=5, learning_rate=3e-3)
        params, _ = T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=4)
        temporal, statics, _ = data
        probs = M.predict_proba(temporal, statics, params, CONFIG)
        assert (probs[:, 0] > 0.5).all()

    def test_parameters_come_back_without_gradients(self):
        # every procedure drops its gradient buffers when it ends, so no
        # trained set carries a step's gradient into the next pass
        data = toy_arrays(6, 10, seed=19)
        temporal, statics, _ = data
        schedule = default("arm_configs.pretrain", epochs=1)
        pretrained, _ = T.nprl_pretrain(temporal, statics, CONFIG, SCHEMA, schedule, seed=0)
        theta0 = M.replace_head(pretrained, seed=1)
        trained = [pretrained, T.train_baseline(*data, CONFIG, SCHEMA, schedule, seed=2)[0]]
        for config in (
            default("arm_configs.finetune", mode="regularized", epochs=1),
            default("arm_configs.finetune", mode="projected", gamma=1e-3, learning_rate=1e-2, epochs=1),
        ):
            trained.append(T.finetune(*data, theta0, config, CONFIG, seed=3)[0])
        for params in trained:
            assert all(p.grad is None and p.grad_buffer is None for p in params.values())

    def test_log_to_csv_round_trip(self, tmp_path):
        data = toy_arrays(5, 9, seed=16)
        _, log = T.train_baseline(*data, CONFIG, SCHEMA, default("arm_configs.baseline", epochs=2), seed=1)
        path = tmp_path / "log.csv"
        log.to_csv(path, header_comment="config_hash=x seed=1")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "epoch,loss,acc,frob_dist"
        assert len(lines) == 2 + len(log.epochs)
