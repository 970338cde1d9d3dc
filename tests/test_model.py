import hashlib
import threading
import warnings

import numpy as np
import pytest

from nprl import model as M
from nprl import numgrad as ng
from nprl.errors import ConfigError, InputError, NumericError, ShapeError
from nprl.numgrad import Tensor
from defaults import default
from gradcheck import grad_check
from per_gate import GATES, fuse, fuse_tensors, per_gate
from simd import HASWELL, KATMAI, SANDYBRIDGE, SKYLAKEX, SKYLAKEX_AVX2, describe, golden, simd_level
from traced import traced_peak_rise, traced_rises

SMALL_SCHEMA = M.FeatureSchema(("a", "b", "c", "d", "e"), ("s1", "s2", "s3"))
SMALL_CONFIG = default("arm_configs.model", gru_hidden=4, static_widths=(3, 2, 1), trunk_widths=(6,))


def small_params(seed=0):
    return M.init_params(SMALL_CONFIG, SMALL_SCHEMA, seed)


def small_batch(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 9, 5)), rng.normal(size=(n, 3))


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = small_params(seed=3)
        b = small_params(seed=3)
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seeds_differ(self):
        a, b = small_params(seed=1), small_params(seed=2)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_paper_default_rep_width(self):
        schema = M.FeatureSchema(tuple(f"t{i}" for i in range(11)), tuple(f"s{i}" for i in range(15)))
        assert M.rep_width(default("arm_configs.model", gru_hidden=256), 15) == 4609

    def test_rep_width_without_statics(self):
        assert M.rep_width(default("arm_configs.model", gru_hidden=256), 0) == 4608

    def test_biases_zero_weights_bounded(self):
        # each GRU gate block against the Glorot limit of its own dims
        params = small_params()
        for name, block in per_gate(params):
            if block.ndim == 1:
                np.testing.assert_array_equal(block, 0.0)
            else:
                limit = np.sqrt(6.0 / sum(block.shape))
                assert np.abs(block).max() <= limit

    @pytest.mark.parametrize("hidden", [1, 4, 32])
    @pytest.mark.parametrize("n_static", [0, 3])
    def test_draws_keep_the_per_gate_order(self, hidden, n_static):
        # reference: one Glorot draw per gate tensor, gate by gate, W then U
        # then b, each limit from the per-gate dims; fused by column
        # concatenation
        schema = M.FeatureSchema(("a", "b", "c", "d", "e"), tuple(f"s{i}" for i in range(n_static)))
        config = default("arm_configs.model", gru_hidden=hidden, static_widths=(3, 2, 1), trunk_widths=(6,))
        t, h = schema.n_temporal, hidden
        layout = [
            (f"gru_{direction}.{kind}_{gate}", dims)
            for direction in ("fwd", "bwd")
            for gate in GATES
            for kind, dims in (("W", (t, h)), ("U", (h, h)), ("b", (h,)))
        ] + [(name, dims) for name, dims in M.param_layout(config, schema) if not name.startswith("gru_")]
        rng = np.random.default_rng(11)
        reference = {}
        for name, dims in layout:
            if len(dims) == 2:
                limit = np.sqrt(6.0 / sum(dims))
                reference[name] = rng.uniform(-limit, limit, size=dims)
            else:
                reference[name] = np.zeros(dims)
        expected = fuse(reference)
        params = M.init_params(config, schema, seed=11)
        assert list(params) == list(expected)
        assert [(n, p.dims) for n, p in params.items()] == M.param_layout(config, schema)
        for name, p in params.items():
            assert p.data.tobytes() == expected[name].tobytes(), name

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            default("arm_configs.model", gru_hidden=0)
        with pytest.raises(ConfigError):
            default("arm_configs.model", trunk_widths=(0,))


def one_hour(x):
    """x (batch, T) as the time-major (1, batch, T) input of one hour, as a
    tape node."""
    out = Tensor(x.data[None])

    def _bw():
        ng.accumulate(x, out.grad[0])

    return ng.attach(out, (x,), _bw)


def one_step(x, h_prev, params):
    """One forward GRU step through ``gru_layer``: x (batch, T) and h_prev
    (batch, H) in, the new (batch, H) state out."""
    return M.gru_layer(one_hour(x), params, ("fwd",), h0=h_prev)


def weighted_sum(x, weights):
    """sum(x * weights) for a constant array ``weights``, as a tape node."""
    out = Tensor(np.asarray((x.data * weights).sum()))

    def _bw():
        ng.accumulate(x, out.grad * weights)

    return ng.attach(out, (x,), _bw)


def fused_tensors(arrays, requires_grad=False):
    """Tensors of the fused GRU layout from a {per-gate name: array} map."""
    return {name: Tensor(a, requires_grad=requires_grad) for name, a in fuse(arrays).items()}


class TestGruCell:
    def test_zero_everything_gives_zero(self):
        params = fused_tensors({
            f"gru_fwd.{kind}_{gate}": np.zeros(shape)
            for gate in GATES
            for kind, shape in (("W", (2, 3)), ("U", (3, 3)), ("b", (3,)))
        })
        out = one_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))), params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_saturated_carry_gate_keeps_state(self):
        rng = np.random.default_rng(0)
        arrays = {}
        for gate in GATES:
            arrays[f"gru_fwd.W_{gate}"] = rng.normal(size=(2, 3))
            arrays[f"gru_fwd.U_{gate}"] = rng.normal(size=(3, 3))
            arrays[f"gru_fwd.b_{gate}"] = np.zeros(3)
        arrays["gru_fwd.b_z"] = np.full(3, -50.0)  # update gate pinned shut
        params = fused_tensors(arrays)
        h_prev = rng.normal(size=(1, 3))
        out = one_step(Tensor(rng.normal(size=(1, 2))), Tensor(h_prev), params)
        np.testing.assert_allclose(out.data, h_prev, atol=1e-9)

    def test_scalar_hand_computation(self):
        params = fused_tensors({
            "gru_fwd.W_z": [[0.0]],
            "gru_fwd.U_z": [[0.0]],
            "gru_fwd.b_z": [0.0],
            "gru_fwd.W_r": [[0.0]],
            "gru_fwd.U_r": [[0.0]],
            "gru_fwd.b_r": [0.0],
            "gru_fwd.W_h": [[1.0]],
            "gru_fwd.U_h": [[0.0]],
            "gru_fwd.b_h": [0.0],
        })
        out = one_step(Tensor([[1.0]]), Tensor([[0.0]]), params)
        assert abs(out.data[0, 0] - 0.5 * np.tanh(1.0)) < 1e-9
        assert abs(out.data[0, 0] - 0.380797) < 1e-6


    def test_grad_check_through_inputs_and_state(self):
        rng = np.random.default_rng(3)
        params = fused_tensors({
            f"gru_fwd.{kind}_{gate}": rng.normal(size=shape) * 0.5
            for gate in GATES
            for kind, shape in (("W", (2, 3)), ("U", (3, 3)), ("b", (3,)))
        }, requires_grad=True)
        params["x"] = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        params["h"] = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)), requires_grad=True)
        weights = rng.normal(size=(4, 3))

        def fn(p):
            return weighted_sum(one_step(p["x"], p["h"], p), weights)

        # 18 covers every coordinate of the largest tensors, W_zrh and U_zr
        assert grad_check(fn, params, step=1e-5, max_coords_per_tensor=18) < 1e-6


def bigru_states(window, params, config):
    """The (9, 2H) per-hour [forward ; backward] states of one window, read
    from the representation of a batch of 1 (hour-major, no statics)."""
    _, rep = M.forward_batch(np.asarray(window)[None], np.empty((1, 0)), params, config)
    return rep.data.reshape(9, -1)


class TestBigru:
    def test_paper_dims(self):
        schema = M.FeatureSchema(tuple(f"t{i}" for i in range(11)))
        config = default("arm_configs.model", gru_hidden=256)
        params = M.init_params(config, schema, seed=0)
        out = bigru_states(np.random.default_rng(0).normal(size=(9, 11)), params, config)
        assert out.shape == (9, 512)
        assert out.size == 4608

    def test_zero_params_zero_output(self):
        config = default("arm_configs.model", gru_hidden=4, static_widths=(), trunk_widths=())
        params = M.init_params(config, M.FeatureSchema(("a", "b", "c", "d", "e")), seed=0)
        for name in params:
            if name.startswith("gru_"):
                params[name] = Tensor(np.zeros(params[name].dims))
        out = bigru_states(np.ones((9, 5)), params, config)
        np.testing.assert_array_equal(out, np.zeros((9, 8)))

    def test_time_reversal_swaps_directions(self):
        config = default("arm_configs.model", gru_hidden=4, static_widths=(), trunk_widths=(6,))
        params = M.init_params(config, M.FeatureSchema(("a", "b", "c", "d", "e")), seed=0)
        # make both directions share weights so the symmetry is exact
        for kind in ("W_zrh", "U_zr", "U_h", "b_zrh"):
            params[f"gru_bwd.{kind}"] = params[f"gru_fwd.{kind}"]
        rng = np.random.default_rng(4)
        window = rng.normal(size=(9, 5))
        h = 4
        out = bigru_states(window, params, config)
        out_rev = bigru_states(window[::-1], params, config)
        np.testing.assert_allclose(out[:, :h], out_rev[::-1, h:], atol=1e-12)
        np.testing.assert_allclose(out[:, h:], out_rev[::-1, :h], atol=1e-12)

    def test_wrong_step_count(self):
        params = small_params()
        with pytest.raises(ShapeError):
            M.forward_batch(np.zeros((1, 8, 5)), np.zeros((1, 3)), params, SMALL_CONFIG)


class TestForward:
    def test_output_shapes(self):
        params = small_params()
        temporal, statics = small_batch()
        logits, rep = M.forward_batch(temporal, statics, params, SMALL_CONFIG)
        assert logits.dims == (3, 2)
        assert rep.dims == (3, M.rep_width(SMALL_CONFIG, 3))

    def test_single_instance_surface(self):
        params = small_params()
        temporal, statics = small_batch(n=1)
        logits, rep = M.forward_batch(temporal, statics, ng.detach(params), SMALL_CONFIG)
        assert logits.dims == (1, 2)
        assert rep.dims == (1, M.rep_width(SMALL_CONFIG, 3))

    def test_deterministic(self):
        params = small_params()
        temporal, statics = small_batch()
        a, _ = M.forward_batch(temporal, statics, params, SMALL_CONFIG)
        b, _ = M.forward_batch(temporal.copy(), statics.copy(), params, SMALL_CONFIG)
        np.testing.assert_array_equal(a.data, b.data)

    def test_schema_mismatch(self):
        params = small_params()
        with pytest.raises(ShapeError):
            M.forward_batch(np.zeros((2, 9, 7)), np.zeros((2, 3)), params, SMALL_CONFIG)

    def test_grad_check_full_model(self):
        # data seed pinned away from relu kinks, where the finite-difference
        # oracle itself is invalid (a preactivation within one step of zero)
        params = small_params()
        temporal, statics = small_batch(n=4, seed=4)
        labels = np.array([0, 1, 1, 0])
        step = 1e-3

        # every relu input, static branch and trunk, at least one step from zero
        arrays = {name: p.data for name, p in params.items()}
        s = statics
        for i in range(len(SMALL_CONFIG.static_widths) - 1):  # the last static unit is linear
            pre = s @ arrays[f"static.{i}.W"] + arrays[f"static.{i}.b"]
            assert np.abs(pre).min() > step, f"static.{i} relu input within one step of its kink"
            s = np.maximum(pre, 0.0)
        x = M.represent(temporal, statics, ng.detach(params), SMALL_CONFIG).data
        for i in range(len(SMALL_CONFIG.trunk_widths)):
            pre = x @ arrays[f"trunk.{i}.W"] + arrays[f"trunk.{i}.b"]
            assert np.abs(pre).min() > step, f"trunk.{i} relu input within one step of its kink"
            x = np.maximum(pre, 0.0)

        def fn(p):
            logits, _ = M.forward_batch(temporal, statics, fuse_tensors(p), SMALL_CONFIG)
            return ng.cross_entropy(logits, labels)

        # checked one tensor per gate block, so each block gets its own 32
        # samples (all of its coordinates here) for any seed
        gates = {name: Tensor(block, requires_grad=True) for name, block in per_gate(params)}
        assert grad_check(fn, gates, step=step, max_coords_per_tensor=32) < 1e-4

    def test_grad_check_normalized_theory_shape(self):
        # the theory model's shape: a linear static branch, no trunk, and an
        # n-way head on the unit rows, so the gradient runs through the
        # tangent projection and each parent's columns of the one
        # representation node; no relu anywhere, so no step crosses a kink
        config = M.ModelConfig(gru_hidden=4, static_widths=(3,), trunk_widths=(), normalize_representation=True)
        n = 6
        params = M.init_params(config, SMALL_SCHEMA, seed=5, n_classes=n)
        temporal, statics = small_batch(n=n, seed=6)
        _, rep = M.forward_batch(temporal, statics, params, config)
        assert rep.dims == (n, M.rep_width(config, 3)) == (n, 75)
        np.testing.assert_allclose(np.linalg.norm(rep.data, axis=1), 1.0, atol=1e-12)
        with pytest.raises(ShapeError):
            M.forward_batch(temporal, statics[1:], params, config)

        def fn(p):
            logits, _ = M.forward_batch(temporal, statics, fuse_tensors(p), config)
            return ng.cross_entropy(logits, np.arange(n))

        # checked one tensor per gate block: no GRU block or static tensor
        # holds more than 32 coordinates, so every one of them is checked
        gates = {name: Tensor(block, requires_grad=True) for name, block in per_gate(params)}
        assert max(t.data.size for name, t in gates.items() if not M.is_head(name)) <= 32
        assert grad_check(fn, gates, step=1e-4, max_coords_per_tensor=32) < 1e-5

    def test_normalized_representation_unit_norm(self):
        config = M.ModelConfig(gru_hidden=4, static_widths=(3, 2, 1), trunk_widths=(), normalize_representation=True)
        params = M.init_params(config, SMALL_SCHEMA, seed=0)
        temporal, statics = small_batch(n=5)
        _, rep = M.forward_batch(temporal, statics, params, config)
        np.testing.assert_allclose(np.linalg.norm(rep.data, axis=1), 1.0, atol=1e-9)

    def test_no_static_branch(self):
        schema = M.FeatureSchema(("a", "b", "c", "d", "e"))
        config = default("arm_configs.model", gru_hidden=4, trunk_widths=(6,))
        params = M.init_params(config, schema, seed=0)
        assert not any(n.startswith("static.") for n in params)
        temporal, _ = small_batch()
        logits, rep = M.forward_batch(temporal, np.zeros((3, 0)), params, config)
        assert rep.dims == (3, 72)


def reference_gru_representation(temporal, params, hidden):
    """Both GRU directions step by step from the gate equations, in plain
    NumPy, laid out hour-major as [fwd_0, bwd_0, fwd_1, ...]."""

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    def run(prefix, hours):
        p = {name.split(".", 1)[1]: a for name, a in per_gate(params) if name.startswith(prefix)}
        h = np.zeros((temporal.shape[0], hidden))
        states = {}
        for t in hours:
            x = temporal[:, t, :]
            z = sigmoid(x @ p["W_z"] + h @ p["U_z"] + p["b_z"])
            r = sigmoid(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
            cand = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
            h = (1.0 - z) * h + z * cand
            states[t] = h
        return states

    fwd = run("gru_fwd.", range(9))
    bwd = run("gru_bwd.", range(8, -1, -1))
    return np.concatenate([np.concatenate([fwd[t], bwd[t]], axis=1) for t in range(9)], axis=1)


class TestFusedGru:
    @pytest.mark.parametrize("hidden,batch", [(1, 1), (4, 3), (32, 64)])
    def test_matches_per_step_reference(self, hidden, batch):
        schema = M.FeatureSchema(("a", "b", "c", "d", "e"))
        config = default("arm_configs.model", gru_hidden=hidden, trunk_widths=())
        params = M.init_params(config, schema, seed=hidden)
        for name, p in params.items():  # nonzero biases exercise every term
            if p.data.ndim == 1:
                p.data[:] = np.random.default_rng(batch).normal(size=p.dims) * 0.3
        temporal = np.random.default_rng(7).normal(size=(batch, 9, 5))
        _, rep = M.forward_batch(temporal, np.zeros((batch, 0)), params, config)
        expected = reference_gru_representation(temporal, params, hidden)
        np.testing.assert_allclose(rep.data, expected, rtol=0.0, atol=1e-12)

    def test_grad_check_with_weights_shared_across_directions(self):
        # both directions read the same fused tensors, so each per-gate leaf
        # gathers gradient from two fused nodes; no relu anywhere, so the
        # central differences can use a small step
        schema = M.FeatureSchema(("a", "b", "c", "d", "e"))
        config = default("arm_configs.model", gru_hidden=4, trunk_widths=())
        params = M.init_params(config, schema, seed=0)
        shared = {
            name: Tensor(block, requires_grad=True)
            for name, block in per_gate(params)
            if not name.startswith("gru_bwd.")
        }
        temporal = np.random.default_rng(0).normal(size=(4, 9, 5))
        labels = np.array([0, 1, 1, 0])

        def fn(p):
            full = fuse_tensors(p)
            for name in [n for n in full if n.startswith("gru_fwd.")]:
                full[name.replace("gru_fwd.", "gru_bwd.")] = full[name]
            logits, _ = M.forward_batch(temporal, np.zeros((4, 0)), full, config)
            return ng.cross_entropy(logits, labels)

        # checked one tensor per gate block: no block holds more than 32
        # coordinates, so every coordinate of every gate is checked
        assert max(t.data.size for n, t in shared.items() if n.startswith("gru_")) <= 32
        assert grad_check(fn, shared, step=1e-5, max_coords_per_tensor=32) < 1e-5

    @pytest.mark.parametrize("gate", ["z", "r", "h"])
    def test_preactivation_overflow_raises(self, gate):
        params = small_params()
        w = params["gru_fwd.W_zrh"].data.copy()
        h, g = SMALL_CONFIG.gru_hidden, GATES.index(gate)
        w[:, g * h : (g + 1) * h] = 1e308  # this gate's block of W_zrh
        params["gru_fwd.W_zrh"] = Tensor(w, requires_grad=True)
        temporal = np.ones((2, 9, 5))
        statics = np.ones((2, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                M.forward_batch(temporal, statics, params, SMALL_CONFIG)
            with pytest.raises(NumericError):
                M.predict_proba(temporal, statics, params, SMALL_CONFIG)

    def test_predict_proba_equals_softmax_of_taped_logits(self):
        params = small_params()
        temporal, statics = small_batch(n=7, seed=2)
        logits, _ = M.forward_batch(temporal, statics, params, SMALL_CONFIG)
        assert logits.requires_grad
        np.testing.assert_array_equal(
            M.predict_proba(temporal, statics, params, SMALL_CONFIG), ng.softmax(logits.data)
        )

    def test_forward_chunks_split_rows_bit_equally(self):
        # three chunks, the last of 3 rows; each is the forward pass of its
        # slice, and predict_proba is the softmax of their logits
        params = small_params()
        n = 2 * M.FORWARD_CHUNK + 3
        temporal, statics = small_batch(n=n, seed=4)
        chunks = list(M.forward_chunks(M.forward_batch, temporal, statics, params, SMALL_CONFIG))
        assert [logits.dims[0] for logits, _ in chunks] == [M.FORWARD_CHUNK, M.FORWARD_CHUNK, 3]
        for i, (logits, rep) in enumerate(chunks):
            rows = slice(i * M.FORWARD_CHUNK, (i + 1) * M.FORWARD_CHUNK)
            taped_logits, taped_rep = M.forward_batch(temporal[rows], statics[rows], params, SMALL_CONFIG)
            assert not logits.requires_grad
            np.testing.assert_array_equal(logits.data, taped_logits.data)
            np.testing.assert_array_equal(rep.data, taped_rep.data)
        np.testing.assert_array_equal(
            M.predict_proba(temporal, statics, params, SMALL_CONFIG),
            ng.softmax(np.concatenate([logits.data for logits, _ in chunks])),
        )

    def test_representations_equal_taped_representation(self):
        # statics, a trunk and a 2-way head: the forward-only pass stops at the
        # representation, which reads no trunk or head tensor
        params = small_params()
        temporal, statics = small_batch(n=7, seed=3)
        _, rep = M.forward_batch(temporal, statics, params, SMALL_CONFIG)
        reps = M.compute_representations(temporal, statics, params, SMALL_CONFIG)
        np.testing.assert_array_equal(reps, rep.data)
        body = {n: p for n, p in params.items() if not (M.is_head(n) or n.startswith("trunk."))}
        np.testing.assert_array_equal(M.compute_representations(temporal, statics, body, SMALL_CONFIG), reps)

    @pytest.mark.parametrize(
        "hidden,rows,t_features", [(100, 40, 11), (255, 32, 11), (32, 33, 11), (32, 1, 11), (4, 1, 5)]
    )
    def test_forward_only_pass_equals_taped_pass(self, hidden, rows, t_features):
        # shapes where a GEMM of all hours and one GEMM per hour round
        # differently with OpenBLAS 0.3.31: H = 100 and 255 with SkylakeX
        # kernels, an odd row count with Haswell ones, and one row, whose
        # hourly GEMM runs as a GEMV; every pass projects per hour, so the
        # forward-only pass gives the taped pass's bits at each of them.
        # Normalized too: both passes normalize the GRU's block in place, and
        # the taped one then records it as one tape node
        schema = M.FeatureSchema(tuple(f"t{i}" for i in range(t_features)), SMALL_SCHEMA.static_names)
        rng = np.random.default_rng(6)
        temporal, statics = rng.normal(size=(rows, 9, t_features)), rng.normal(size=(rows, 3))
        for normalize in (False, True):
            config = M.ModelConfig(
                gru_hidden=hidden, static_widths=(3, 2, 1), trunk_widths=(6,), normalize_representation=normalize
            )
            params = M.init_params(config, schema, seed=0)
            logits, rep = M.forward_batch(temporal, statics, params, config)
            assert logits.requires_grad
            np.testing.assert_array_equal(M.compute_representations(temporal, statics, params, config), rep.data)
            np.testing.assert_array_equal(M.predict_proba(temporal, statics, params, config), ng.softmax(logits.data))

    def test_detached_forward_records_nothing(self):
        params = small_params()
        detached = ng.detach(params)
        assert all(detached[n].data is params[n].data for n in params)
        assert not any(p.requires_grad for p in detached.values())
        temporal, statics = small_batch()
        logits, rep = M.forward_batch(temporal, statics, detached, SMALL_CONFIG)
        for t in (logits, rep):
            assert not t.requires_grad
            assert t._backward is None and t._parents == ()


class TestTwoThreads:
    @staticmethod
    def taped_pass(shared):
        """The output of one taped bidirectional pass from a nonzero initial
        state, then the gradients of sum(out * weights) with respect to every
        GRU tensor, the input and the initial state."""
        rng = np.random.default_rng(5)
        params = {
            name: Tensor(rng.normal(size=p.dims) * 0.5, requires_grad=True)
            for name, p in small_params().items()
            if name.startswith("gru_")
        }
        if shared:  # both directions accumulate into one set of tensors
            for kind in M.GRU_TENSORS:
                params[f"gru_bwd.{kind}"] = params[f"gru_fwd.{kind}"]
        x = Tensor(rng.normal(size=(9, 6, 5)), requires_grad=True)
        h0 = Tensor(rng.uniform(-1.0, 1.0, size=(6, 4)), requires_grad=True)
        out = M.gru_layer(x, params, h0=h0)
        weighted_sum(out, rng.normal(size=out.dims)).backward()
        return [out.data] + [t.grad for t in (*params.values(), x, h0)]

    @pytest.mark.parametrize("shared", [False, True], ids=["own_weights", "shared_weights"])
    def test_bit_identical_to_serial(self, shared, two_threads, monkeypatch):
        with monkeypatch.context() as serial:
            serial.setattr(M, "TWO_THREAD_WORK", 2**62)
            expected = self.taped_pass(shared)
        assert two_threads == []
        got = self.taped_pass(shared)
        assert len(two_threads) == 2  # the forward pass and BPTT
        assert len(got) == len(expected) == 11  # out, 8 weight grads, d_x, dh0
        for a, b in zip(got, expected, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_worker_builds_no_tensor(self, two_threads, monkeypatch):
        # tensors are built, and counted by a wrapped Tensor.__init__, only
        # in the calling thread
        threads_seen = set()
        init = Tensor.__init__

        def recording(tensor, *args, **kwargs):
            threads_seen.add(threading.current_thread())
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", recording)
        self.taped_pass(shared=False)
        assert len(two_threads) == 2
        assert threads_seen == {threading.current_thread()}

    @pytest.mark.parametrize(
        "overflowing,message",
        [(("fwd", "bwd"), "gru_fwd gate"), (("bwd",), "gru_bwd gate")],
        ids=["both", "bwd_only"],
    )
    def test_first_direction_error_wins(self, overflowing, message, two_threads):
        # as in the serial order: the forward direction's error when both
        # fail, and the worker's error when only it fails
        params = small_params()
        for name in overflowing:
            w = params[f"gru_{name}.W_zrh"].data.copy()
            w[:, : SMALL_CONFIG.gru_hidden] = 1e308  # the z gate's block
            params[f"gru_{name}.W_zrh"] = Tensor(w, requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=message):
                M.forward_batch(np.ones((2, 9, 5)), np.ones((2, 3)), params, SMALL_CONFIG)
        assert len(two_threads) == 1

    def test_worker_follows_the_callers_floating_point_handling(self, two_threads):
        # a z-gate pre-activation near -1000 in the worker's direction only:
        # exp(1000) overflows there and nowhere else
        params = small_params()
        b = params["gru_bwd.b_zrh"].data.copy()
        b[: SMALL_CONFIG.gru_hidden] = -1000.0
        params["gru_bwd.b_zrh"] = Tensor(b, requires_grad=True)
        temporal, statics = small_batch()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                M.forward_batch(temporal, statics, params, SMALL_CONFIG)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                M.forward_batch(temporal, statics, params, SMALL_CONFIG)
        assert len(two_threads) == 2


# sha256 of the output and every gradient of one taped bidirectional pass,
# per SIMD level (see tests/simd.py): the SkylakeX ones were taken when each
# direction computed its gates as column slices of wider rows, the others
# from the code before forward-only passes projected their input per hour;
# the (1, 1) ones at SkylakeX and Haswell kernels were retaken when taped
# passes did too, as a one-row hour's input GEMM runs as a GEMV; serial and
# two-thread passes must both reproduce them
GRU_GRAD_SHA256 = {
    SKYLAKEX: {
        (1, 1): "df78df6557056045c2987d17c648898473f663fe43781bb88584bdb37e690fbe",
        (5, 4): "8291f337ed704ffb440c26ea2f2fc18dec2443bafd72e1aa7a06ef33b92963ea",
        (64, 32): "299df7c619e89d0247e9bcead2d19a398a181e8689289c7ec17708df34f54211",
    },
    SKYLAKEX_AVX2: {
        (1, 1): "88ac293ef8815d1ef7d64e055a93b58c7773e793745f0e3ddeae0eab33442b58",
        (5, 4): "befe2df9073f0db9f20a7bc3a6133ab441152a1868dac4dca741686e76e00709",
        (64, 32): "ac87ca2bc2a5266f806024516e3e735a07ae877660386450eea9ad314503dc8d",
    },
    HASWELL: {
        (1, 1): "72e05e641cf9e88eebd2f3ecfc4221680aec869fd9f3e0c82d562fe1dc208b9d",
        (5, 4): "3ab3fa95733b164e3b061b22cad1ad5a8a38e8d63490be22a7b7b9adb9b480db",
        (64, 32): "271d41ff7de7b0b05a7adf1ec6f06333291ece04a3fadb6fcdd917420be1bc14",
    },
    SANDYBRIDGE: {
        (1, 1): "c439eb0e232b284cfc392b81738e3eefa87e2966da670300d5bf9eb9e1c45054",
        (5, 4): "0dfef01976544b1429e4cc9c6d82787efbd150694d0be2586d74397de3b2ba29",
        (64, 32): "1bf5047fed56d1d2fdfc7b6160f14ff826f243b276c86e81e6ad236ea65ac5bf",
    },
    KATMAI: {
        (1, 1): "f51a2222b629ebe094dccfc6498eb09283e7f6f036967ea7dde01e1e016a321e",
        (5, 4): "8cca3b45048ca9711d0c415e33c0c18c82f06c46c791a6630a22e2145a70dee3",
        (64, 32): "f8b35b86236bf9e2351a2cc5d8ad3c8fc6821e1e3b93b3826e6b9080c52c6e21",
    },
}


@pytest.mark.parametrize("batch,hidden", list(GRU_GRAD_SHA256[SKYLAKEX]))
@pytest.mark.parametrize("threads", ["serial", "two_threads"])
def test_golden_gru_gradients(batch, hidden, threads, request, monkeypatch):
    if threads == "serial":
        monkeypatch.setattr(M, "TWO_THREAD_WORK", 2**62)
    else:
        started = request.getfixturevalue("two_threads")
    rng = np.random.default_rng(batch * 1000 + hidden)
    config = default("arm_configs.model", gru_hidden=hidden, trunk_widths=())
    params = {
        name: Tensor(rng.normal(size=dims) * 0.5, requires_grad=True)
        for name, dims in M.param_layout(config, M.FeatureSchema(("a", "b", "c", "d", "e")))
        if name.startswith("gru_")
    }
    x = Tensor(rng.normal(size=(9, batch, 5)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1.0, 1.0, size=(batch, hidden)), requires_grad=True)
    out = M.gru_layer(x, params, h0=h0)
    weighted_sum(out, rng.normal(size=out.dims)).backward()
    if threads == "two_threads":
        assert len(started) == 2  # the forward pass and BPTT
    digest = hashlib.sha256(out.data.tobytes())
    for name, t in (*params.items(), ("x", x), ("h0", h0)):
        digest.update(name.encode())
        digest.update(t.grad.tobytes())
    assert digest.hexdigest() == golden(GRU_GRAD_SHA256)[batch, hidden], f"at {describe(simd_level())}"


@pytest.mark.parametrize("taped", [False, True], ids=["forward_only", "taped"])
def test_scan_and_bptt_allocate_nothing(taped):
    # numgrad.run_pair's rule: every array that a direction's scan or BPTT
    # writes is allocated beforehand, by the calling thread, so a worker
    # thread allocates less than one (batch, H) block. An op on a strided or
    # broadcast operand buffers it in at most 8,192 elements (64 kB), so at
    # this size a block (128 kB) is more than any such buffer
    steps, batch, hidden = 9, 256, 64
    rng = np.random.default_rng(4)
    config = default("arm_configs.model", gru_hidden=hidden, trunk_widths=())
    params = {
        name: Tensor(rng.normal(size=dims) * 0.3, requires_grad=True)
        for name, dims in M.param_layout(config, M.FeatureSchema(("a", "b", "c", "d", "e")))
        if name.startswith("gru_")
    }
    x2d = rng.normal(size=(steps * batch, 5))
    grad = rng.normal(size=(batch, steps, 2 * hidden)).transpose(1, 0, 2)  # as gru_layer's backward
    for name, cols in (("fwd", slice(0, hidden)), ("bwd", slice(hidden, None))):
        direction = M._Direction(x2d, steps, params, name)
        direction.allocate_scan(None, taped)
        assert traced_peak_rise(direction.scan) < batch * hidden * 8
        if taped:
            direction.allocate_bptt(input_grad=True, grads=ng.grad_arrays(direction.weights))
            d_out = grad[:, :, cols]
            assert traced_peak_rise(lambda: direction.bptt(d_out)) < batch * hidden * 8


@pytest.mark.parametrize("threads", ["serial", "two_threads"])
def test_representation_pass_holds_few_result_sized_arrays(threads, request, monkeypatch):
    # one 500-row chunk at H=64 with statics, normalized: the pass holds the
    # GRU's states (10/9 of the result, with each direction's first state)
    # and one block, the result, which the states are copied into. It holds
    # no GRU scratch beside the block, no concatenated or second normalized
    # copy, no per-hour input projection and no stacked copy of its one chunk
    if threads == "serial":
        monkeypatch.setattr(M, "TWO_THREAD_WORK", 2**62)
    else:
        request.getfixturevalue("two_threads")
    rng = np.random.default_rng(5)
    schema = M.FeatureSchema(tuple(f"t{i}" for i in range(8)), tuple(f"s{i}" for i in range(5)))
    config = M.ModelConfig(gru_hidden=64, static_widths=(4, 3), trunk_widths=(), normalize_representation=True)
    params = M.init_params(config, schema, seed=1)
    temporal, statics = rng.uniform(size=(500, 9, 8)), rng.uniform(size=(500, 5))
    reps = []
    rise = traced_peak_rise(lambda: reps.append(M.compute_representations(temporal, statics, params, config)))
    assert rise <= 2.25 * reps[0].nbytes


def test_taped_representation_holds_one_block():
    # a taped, normalized pass in the theory model's shape (no trunk, an
    # n-way head) holds, until its backward, what BPTT reads and one
    # (batch, rep_width) block: the GRU's states, the static columns and the
    # normalized rows in one array, and no concatenated or normalized copy
    batch, hidden, steps = 64, 64, M.WINDOW_LEN
    rng = np.random.default_rng(5)
    schema = M.FeatureSchema(tuple(f"t{i}" for i in range(8)), tuple(f"s{i}" for i in range(5)))
    config = M.ModelConfig(gru_hidden=hidden, static_widths=(16,), trunk_widths=(), normalize_representation=True)
    params = M.init_params(config, schema, seed=1, n_classes=batch)
    temporal, statics = rng.uniform(size=(batch, 9, 8)), rng.uniform(size=(batch, 5))
    passes = []
    held, _ = traced_rises(lambda: passes.append(M.forward_batch(temporal, statics, params, config)))
    logits, rep = passes[0]
    assert logits.requires_grad and rep.dims == (batch, M.rep_width(config, 5))
    # what BPTT reads, per direction: steps + 1 states, the z and r gates,
    # the candidates and the reset products, each a (batch, H) block
    # measured: that plus 1.14 blocks (the input, the static branch and the
    # logits are the 0.14); concatenating and normalizing by tape nodes held
    # that plus 3.13 blocks
    bptt = 2 * (steps + 1 + 4 * steps) * batch * hidden * 8
    assert held <= bptt + 1.5 * rep.data.nbytes


@pytest.mark.parametrize("normalize", [False, True])
def test_forward_only_representation_is_the_gru_block(normalize, monkeypatch):
    # the array compute_representations returns for one chunk is the block
    # the GRU layer filled: the statics and the normalization write into it
    blocks = []
    gru_layer = M.gru_layer

    def recording(*args, **kwargs):
        blocks.append(gru_layer(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(M, "gru_layer", recording)
    config = M.ModelConfig(gru_hidden=4, static_widths=(3, 2, 1), trunk_widths=(), normalize_representation=normalize)
    temporal, statics = small_batch(n=5, seed=8)
    reps = M.compute_representations(temporal, statics, M.init_params(config, SMALL_SCHEMA, seed=2), config)
    assert len(blocks) == 1 and reps is blocks[0].data


def test_zero_rows_give_empty_stacks():
    params = small_params()
    temporal, statics = np.empty((0, 9, 5)), np.empty((0, 3))
    assert M.predict_proba(temporal, statics, params, SMALL_CONFIG).shape == (0, M.OUTCOME_CLASSES)
    reps = M.compute_representations(temporal, statics, params, SMALL_CONFIG)
    assert reps.shape == (0, M.rep_width(SMALL_CONFIG, 3))


class TestReplaceHead:
    def test_non_head_tensors_bit_equal(self):
        params = small_params()
        swapped = M.replace_head(params, seed=9)
        for name in params:
            if not M.is_head(name):
                assert swapped[name] is params[name]
        assert M.frobenius_distance(params, swapped) == 0.0

    def test_head_shape(self):
        config = default("arm_configs.model", gru_hidden=4, static_widths=(3, 2, 1), trunk_widths=())
        params = M.init_params(config, SMALL_SCHEMA, seed=0, n_classes=7)
        assert params["head.W"].dims == (M.rep_width(config, 3), 7)
        swapped = M.replace_head(params, seed=1)
        assert swapped["head.W"].dims == (M.rep_width(config, 3), M.OUTCOME_CLASSES)
        assert swapped["head.b"].dims == (M.OUTCOME_CLASSES,)


class TestFrobeniusGeometry:
    def test_zero_distance_to_self(self):
        params = small_params()
        assert M.frobenius_distance(params, params) == 0.0

    def test_single_scalar_shift(self):
        a = small_params()
        b = dict(a)
        shifted = a["trunk.0.b"].data.copy()
        shifted[0] += 3.0
        b["trunk.0.b"] = Tensor(shifted)
        assert abs(M.frobenius_distance(a, b) - 3.0) < 1e-12

    def test_matches_elementwise_oracle(self):
        a, b = small_params(seed=1), small_params(seed=2)
        total = 0.0
        for name in a:
            if M.is_head(name):
                continue
            fa = a[name].data.reshape(-1)
            fb = b[name].data.reshape(-1)
            for i in range(fa.size):
                total += (fa[i] - fb[i]) ** 2
        assert abs(M.frobenius_distance(a, b) - np.sqrt(total)) < 1e-12

    def test_mismatched_keys(self):
        a = small_params()
        b = dict(a)
        del b["head.b"]
        with pytest.raises(InputError):
            M.frobenius_distance(a, b)

    def test_projection_rescales_to_radius(self):
        theta0 = small_params(seed=1)
        theta = small_params(seed=2)
        d = M.frobenius_distance(theta, theta0)
        gamma = d / 2.0
        projected = M.project_to_ball(theta, theta0, gamma)
        assert abs(M.frobenius_distance(projected, theta0) - gamma) < 1e-9

    def test_projection_inside_ball_is_identity(self):
        theta0 = small_params(seed=1)
        theta = small_params(seed=2)
        d = M.frobenius_distance(theta, theta0)
        assert M.project_to_ball(theta, theta0, 2.0 * d) is theta

    def test_projection_leaves_head_untouched(self):
        theta0 = small_params(seed=1)
        theta = small_params(seed=2)
        gamma = M.frobenius_distance(theta, theta0) / 3.0
        projected = M.project_to_ball(theta, theta0, gamma)
        assert projected["head.W"] is theta["head.W"]
        assert projected["head.b"] is theta["head.b"]

    def test_projection_idempotent(self):
        theta0 = small_params(seed=1)
        theta = small_params(seed=2)
        gamma = M.frobenius_distance(theta, theta0) / 4.0
        once = M.project_to_ball(theta, theta0, gamma)
        twice = M.project_to_ball(once, theta0, gamma)
        for name in once:
            np.testing.assert_allclose(twice[name].data, once[name].data, atol=1e-12)

    def test_projection_rejects_nonpositive_gamma(self):
        params = small_params()
        with pytest.raises(InputError):
            M.project_to_ball(params, params, 0.0)
