import numpy as np
import pytest

from nprl import model as M
from nprl import numgrad as ng
from nprl import theory as TH
from nprl import train as T
from nprl.errors import ConfigError, DegenerateError, InputError
from nprl.util import derive_rng
from defaults import default
from per_gate import fuse, per_gate

SCHEMA = M.FeatureSchema(("a", "b", "c"), ())
NORM_CONFIG = default("arm_configs.model", gru_hidden=4, trunk_widths=(), normalize_representation=True)


def reps_of(data, params, config=NORM_CONFIG):
    temporal, statics, _ = data
    return M.compute_representations(temporal, statics, params, config)


def toy_arrays(n=24, seed=0):
    """(temporal, statics, labels) of n nights; the first four are positive."""
    rng = np.random.default_rng(seed)
    temporal = np.stack([rng.uniform(0.0, 1.0, size=(9, 3)) for _ in range(n)])
    return temporal, np.empty((n, 0)), (np.arange(n) < 4).astype(np.int64)


class TestCorollaryConstant:
    def test_exact_value(self):
        assert abs(TH.corollary_constant() - (np.sqrt(2.0) / 4.0 + 1.0 / 64.0)) < 1e-12

    def test_below_printed_bound(self):
        assert TH.corollary_constant() <= TH.COROLLARY_PRINTED_BOUND
        assert abs(TH.corollary_constant() - 0.3692) < 1e-4


class TestEstimateLipschitz:
    def test_linear_single_parameter_model(self, monkeypatch):
        # representation = w * x with x = 2: the shift per unit of parameter
        # perturbation is exactly |x|; a direct probe of the ratio definition
        # through a stub representation
        params = {"w": ng.Tensor(np.array([[1.0]]), requires_grad=True), "head.W": ng.Tensor(np.zeros((1, 2))), "head.b": ng.Tensor(np.zeros(2))}

        def fake_reps(temporal, statics, p, config):
            return np.array([[p["w"].data[0, 0] * 2.0]])

        monkeypatch.setattr(M, "compute_representations", fake_reps)
        one = (np.zeros((1, 9, 3)), np.empty((1, 0)))
        base = fake_reps(*one, params, NORM_CONFIG)
        l_hat = TH.estimate_lipschitz(params, *one, base, n_probes=3, delta=1e-3, seed=0, config=NORM_CONFIG)
        assert abs(l_hat - 2.0) < 1e-9

    def test_degenerate_rep_flagged(self, monkeypatch):
        params = {"w": ng.Tensor(np.array([[1.0]]), requires_grad=True), "head.W": ng.Tensor(np.zeros((1, 2))), "head.b": ng.Tensor(np.zeros(2))}
        monkeypatch.setattr(M, "compute_representations", lambda temporal, statics, p, config: np.array([[5.0]]))
        one = (np.zeros((1, 9, 3)), np.empty((1, 0)))
        with pytest.raises(DegenerateError):
            TH.estimate_lipschitz(
                params, *one, np.array([[5.0]]), n_probes=2, delta=1e-3, seed=0, config=NORM_CONFIG
            )

    def test_monotone_in_instances_and_probes(self):
        temporal, statics, _ = data = toy_arrays(n=20, seed=1)
        params = M.init_params(NORM_CONFIG, SCHEMA, seed=0)
        base = reps_of(data, params)
        small = TH.estimate_lipschitz(
            params, temporal[:8], statics[:8], base[:8], n_probes=4, delta=1e-3, seed=5, config=NORM_CONFIG
        )
        large = TH.estimate_lipschitz(params, temporal, statics, base, n_probes=4, delta=1e-3, seed=5, config=NORM_CONFIG)
        assert large >= small
        fewer = TH.estimate_lipschitz(params, temporal, statics, base, n_probes=2, delta=1e-3, seed=5, config=NORM_CONFIG)
        assert large >= fewer
        again = TH.estimate_lipschitz(params, temporal, statics, base, n_probes=4, delta=1e-3, seed=5, config=NORM_CONFIG)
        assert again == large

    @pytest.mark.parametrize("hidden", [1, 4])
    def test_probe_directions_keep_the_per_gate_order(self, hidden):
        # reference: one standard normal draw per gate tensor and per other
        # non-head tensor, in the per-gate order, scaled to norm delta from
        # the per-block sums of squares
        config = default("arm_configs.model", gru_hidden=hidden, static_widths=(3, 1), trunk_widths=(5,))
        params = M.init_params(config, M.FeatureSchema(("a", "b", "c"), ("s1", "s2")), seed=0)
        rng = derive_rng(4, "probe", 1)
        drawn = {name: rng.standard_normal(block.shape) for name, block in per_gate(params) if not M.is_head(name)}
        scale = 1e-3 / np.sqrt(sum(float(np.sum(d * d)) for d in drawn.values()))
        direction = fuse(drawn)
        perturbed = TH.perturb(params, 1e-3, derive_rng(4, "probe", 1))
        assert list(perturbed) == list(params)
        for name, p in params.items():
            if M.is_head(name):
                assert perturbed[name] is p
            else:
                assert perturbed[name].data.tobytes() == (p.data + scale * direction[name]).tobytes(), name

    def test_validates_inputs(self):
        params = M.init_params(NORM_CONFIG, SCHEMA, seed=0)
        empty = np.empty((0, M.rep_width(NORM_CONFIG, 0)))
        with pytest.raises(InputError):
            TH.estimate_lipschitz(
                params, np.empty((0, 9, 3)), np.empty((0, 0)), empty, n_probes=2, delta=1e-3, seed=0, config=NORM_CONFIG
            )
        temporal, statics, _ = data = toy_arrays(4)
        base = reps_of(data, params)
        with pytest.raises(InputError):
            TH.estimate_lipschitz(params, temporal, statics, base, n_probes=2, delta=0.0, seed=0, config=NORM_CONFIG)
        with pytest.raises(InputError, match="3 unperturbed representations for 4 instances"):
            TH.estimate_lipschitz(params, temporal, statics, base[:3], n_probes=2, delta=1e-3, seed=0, config=NORM_CONFIG)


class TestMeanAbsCosine:
    def test_cosine_stats_reported(self):
        temporal, statics, _ = toy_arrays(n=30, seed=7)
        schedule = default("arm_configs.pretrain", epochs=2)
        params, _ = T.nprl_pretrain(temporal, statics, NORM_CONFIG, SCHEMA, schedule, seed=3)
        _, _, reps = T.identify(temporal, statics, params, NORM_CONFIG)
        mean_abs_cosine = TH.mean_abs_cosine(TH.gram(reps))
        gram = reps @ reps.T  # unit-norm rows
        mean_cosine = (gram.sum() - np.trace(gram)) / (30 * 29)
        assert -1.0 <= mean_cosine <= 1.0
        assert abs(mean_cosine) <= mean_abs_cosine <= 1.0

    def test_matches_pairwise_oracle(self):
        reps = np.random.default_rng(7).normal(size=(12, 5))
        unit = reps / np.linalg.norm(reps, axis=1, keepdims=True)
        cosines = [abs(unit[i] @ unit[j]) for i in range(12) for j in range(12) if i != j]
        assert abs(TH.mean_abs_cosine(TH.gram(reps)) - np.mean(cosines)) < 1e-12

    def test_averages_over_every_row(self):
        # no row sample however many rows there are: each row's cosines with
        # all the others, one row at a time
        reps = np.random.default_rng(8).normal(size=(1074, 3))
        unit = reps / np.linalg.norm(reps, axis=1, keepdims=True)
        cosines = np.concatenate([np.abs(np.delete(unit, i, axis=0) @ unit[i]) for i in range(len(unit))])
        assert abs(TH.mean_abs_cosine(TH.gram(reps)) - cosines.mean()) < 1e-12


class TestCheckTheorem1:
    def test_identical_parameters_never_violate(self):
        data = toy_arrays(n=16, seed=2)
        reps = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=1))
        pairs, violations, worst = TH.check_theorem1(TH.gram(reps), TH.gram(reps), n_pairs=None, seed=0)
        assert violations == 0
        assert pairs == 16 * 15 // 2
        assert worst > 0.0  # slack terms keep the margin strictly positive

    def test_margin_formula_for_equal_params(self):
        data = toy_arrays(n=10, seed=3)
        reps = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=2))
        _, _, worst = TH.check_theorem1(TH.gram(reps), TH.gram(reps), n_pairs=None, seed=0)
        d0 = [
            np.linalg.norm(reps[i] - reps[j])
            for i in range(len(data[0]))
            for j in range(i + 1, len(data[0]))
        ]
        expected = min(d / 2.0 + 1.0 / 32.0 for d in d0)
        assert abs(worst - expected) < 1e-12

    def test_gram_margins_match_direct_differences(self):
        data = toy_arrays(n=40, seed=6)  # 780 pairs
        reps0 = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=5))
        reps_star = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=6))
        gram0, gram_star = TH.gram(reps0), TH.gram(reps_star)
        pairs = TH._sample_pairs(len(data[0]), None, 0)
        d0 = np.linalg.norm(reps0[pairs[:, 0]] - reps0[pairs[:, 1]], axis=1)
        d_star_sq = np.sum((reps_star[pairs[:, 0]] - reps_star[pairs[:, 1]]) ** 2, axis=1)
        margins = d_star_sq - (d0 * d0 - d0 / 2.0 - 1.0 / 32.0)
        n_pairs, violations, worst = TH.check_theorem1(gram0, gram_star, n_pairs=None, seed=0)
        assert (n_pairs, violations) == (len(pairs), int((margins < 0.0).sum()))
        assert abs(worst - margins.min()) < 1e-12
        # each pair's margin on its own: the 2 x 2 Grams of its two rows
        for (i, j), margin in zip(pairs, margins):
            rows = np.ix_([i, j], [i, j])
            assert abs(TH.check_theorem1(gram0[rows], gram_star[rows], n_pairs=None, seed=0)[2] - margin) < 1e-12

    def test_pair_sampling_counts(self):
        data = toy_arrays(n=30, seed=4)
        reps = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=3))
        pairs, _, _ = TH.check_theorem1(TH.gram(reps), TH.gram(reps), n_pairs=100, seed=0)
        assert pairs == 100

    def test_fewer_than_two_representations(self):
        reps = reps_of(toy_arrays(n=1, seed=4), M.init_params(NORM_CONFIG, SCHEMA, seed=3))
        with pytest.raises(InputError, match="at least 2 representations.*got 1"):
            TH.check_theorem1(TH.gram(reps), TH.gram(reps), n_pairs=None, seed=0)
        with pytest.raises(InputError, match="one shape"):
            TH.check_theorem1(TH.gram(reps), TH.gram(np.vstack([reps, reps])), n_pairs=None, seed=0)

    def test_detects_planted_violation(self):
        # scaling all representations toward zero shrinks pairwise distances
        # below what the slack absorbs when the originals are far apart
        data = toy_arrays(n=12, seed=5)
        theta0 = M.init_params(
            default("arm_configs.model", gru_hidden=4, trunk_widths=()), SCHEMA, seed=4
        )
        config = default("arm_configs.model", gru_hidden=4, trunk_widths=())
        # theta*: all GRU weights zeroed, collapsing every representation to 0
        theta_star = {
            name: ng.Tensor(np.zeros(p.dims), requires_grad=True) if not M.is_head(name) else p
            for name, p in theta0.items()
        }
        reps0 = reps_of(data, theta0, config)
        d0_max = max(
            np.linalg.norm(reps0[i] - reps0[j]) for i in range(12) for j in range(i + 1, 12)
        )
        reps_star = reps_of(data, theta_star, config)
        _, violations, worst = TH.check_theorem1(TH.gram(reps0), TH.gram(reps_star), n_pairs=None, seed=0)
        if d0_max**2 - d0_max / 2.0 - 1.0 / 32.0 > 0:
            assert violations > 0
            assert worst < 0


class TestCheckCorollary1:
    def test_identical_parameters_satisfy(self):
        data = toy_arrays(n=14, seed=6)
        reps = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=5))
        m0, m_star, ok = TH.check_corollary1(TH.gram(reps), TH.gram(reps), tol=0.02)
        assert m0 == m_star
        assert ok

    def test_requires_normalization(self):
        config = default("arm_configs.model", gru_hidden=4, trunk_widths=())
        data = toy_arrays(n=8, seed=7)
        reps = reps_of(data, M.init_params(config, SCHEMA, seed=6), config)
        with pytest.raises(ConfigError):
            TH.check_corollary1(TH.gram(reps), TH.gram(reps), tol=0.02)

    def test_budget_uses_measured_m0(self):
        data = toy_arrays(n=10, seed=8)
        reps = reps_of(data, M.init_params(NORM_CONFIG, SCHEMA, seed=7))
        m0, m_star, ok = TH.check_corollary1(TH.gram(reps), TH.gram(reps), tol=0.0)
        # m_star == m0 <= 0.37 + |m0| always holds for unit vectors
        assert ok

    def test_fewer_than_two_representations(self):
        reps = reps_of(toy_arrays(n=1, seed=8), M.init_params(NORM_CONFIG, SCHEMA, seed=7))
        with pytest.raises(InputError, match="at least 2 representations.*got 1"):
            TH.check_corollary1(TH.gram(reps), TH.gram(reps), tol=0.02)


class TestTheoryProtocol:
    def test_end_to_end_small(self):
        data = toy_arrays(n=40, seed=9)
        config = default(
            "theory",
            model=NORM_CONFIG,
            pretrain=default("arm_configs.pretrain", epochs=3),
            finetune=default("theory.finetune", epochs=2),
            n_probes=3,
            n_pairs=500,
            safety=2.0,
        )
        report = TH.theory_protocol(*data, SCHEMA, config, seed=11)
        assert report.gamma == 1.0 / (16.0 * report.l_hat)
        assert report.pairs_checked == 500
        assert report.violations == 0
        assert 0.0 <= report.pretrain_accuracy <= 1.0
        assert report.bound_constant == TH.corollary_constant()
        assert "parameter space" in report.note

    def test_one_representation_pass_per_parameter_set(self, monkeypatch):
        # forward-only passes run on detached parameters; each pass over these
        # 30 rows is one chunk, so one bidirectional GRU node
        passes = []
        gru_layer = M.gru_layer

        def counting(x, params, *args, **kwargs):
            if not params["gru_fwd.W_zrh"].requires_grad:
                passes.append(x.dims[1])
            return gru_layer(x, params, *args, **kwargs)

        monkeypatch.setattr(M, "gru_layer", counting)
        config = default(
            "theory",
            model=NORM_CONFIG,
            pretrain=default("arm_configs.pretrain", epochs=2),
            finetune=default("theory.finetune", epochs=1),
            n_probes=2,
            n_pairs=200,
        )
        TH.theory_protocol(*toy_arrays(n=30, seed=10), SCHEMA, config, seed=12)
        # the pretrained parameters, each probe, and theta*
        assert passes == [30] * (config.n_probes + 2)

    def test_one_gram_per_parameter_set(self, monkeypatch):
        shapes = []
        gram = TH.gram

        def counting(reps):
            result = gram(reps)
            shapes.append(result.shape)
            return result

        monkeypatch.setattr(TH, "gram", counting)
        config = default(
            "theory",
            model=NORM_CONFIG,
            pretrain=default("arm_configs.pretrain", epochs=2),
            finetune=default("theory.finetune", epochs=1),
            n_probes=2,
            n_pairs=200,
        )
        TH.theory_protocol(*toy_arrays(n=30, seed=10), SCHEMA, config, seed=12)
        # theta0 and theta*
        assert shapes == [(30, 30)] * 2

    def test_rejects_unnormalized_model(self):
        with pytest.raises(ConfigError):
            default("theory", model=default("arm_configs.model", gru_hidden=4, trunk_widths=()))

    def test_report_round_trip(self, tmp_path):
        data = toy_arrays(n=30, seed=10)
        config = default(
            "theory",
            model=NORM_CONFIG,
            pretrain=default("arm_configs.pretrain", epochs=2),
            finetune=default("theory.finetune", epochs=1),
            n_probes=2,
            n_pairs=200,
        )
        report = TH.theory_protocol(*data, SCHEMA, config, seed=12)
        path = tmp_path / "theory_report.txt"
        TH.write_theory_report(report, path, header_comment="config_hash=zz seed=12")
        parsed = TH.read_theory_report(path)
        assert float(parsed["l_hat"]) == report.l_hat
        assert float(parsed["gamma"]) == report.gamma
        assert int(parsed["violations"]) == report.violations
        assert parsed["bound_ok"] == str(int(report.bound_ok))
        assert (tmp_path / "theory_report.txt").read_text().startswith("# config_hash=zz")
