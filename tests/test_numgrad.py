import threading

import numpy as np
import pytest

from nprl import model as M
from nprl import numgrad as ng
from nprl.errors import InputError, NumericError, ShapeError
from nprl.numgrad import Tensor
from gradcheck import grad_check, total_sum
from per_gate import fuse_tensors, per_gate
from traced import traced_peak_rise


def mul(a, b):
    """Hadamard product of same-shaped tensors, as a tape node."""
    out = Tensor(a.data * b.data)

    def _bw():
        if a.requires_grad:
            ng.accumulate(a, out.grad * b.data)
        if b.requires_grad:
            ng.accumulate(b, out.grad * a.data)

    return ng.attach(out, (a, b), _bw)


def _naive_matmul(x, w):
    m, k = x.shape
    k2, p = w.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for l in range(k):
                out[i, j] += x[i, l] * w[l, j]
    return out


class TestAffine:
    def test_identity_matrix(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([0.0, 0.0])
        out = ng.affine(x, w, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_direct_arithmetic(self):
        out = ng.affine(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = ng.affine(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, _naive_matmul(x, w) + b, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ng.affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0], [3.0]]), Tensor([0.0]))

    def test_backward_exact(self):
        rng = np.random.default_rng(1)
        params = {
            "x": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "w": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
            "b": Tensor(rng.normal(size=2), requires_grad=True),
        }

        def fn(p):
            return total_sum(ng.affine(p["x"], p["w"], p["b"]))

        assert grad_check(fn, params, max_coords_per_tensor=24) < 1e-8


    @staticmethod
    def taped_backward(x_grad, w_grad):
        """The gradients of sum(affine(x, w, b) * weights), with x and w on
        the tape as asked and b always."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(33, 70)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(70, 45)), requires_grad=w_grad)
        b = Tensor(rng.normal(size=45), requires_grad=True)
        out = ng.affine(x, w, b)
        total_sum(mul(out, Tensor(rng.normal(size=out.dims)))).backward()
        return [t.grad for t in (x, w, b)]

    def test_two_thread_backward_matches_serial(self, two_threads, monkeypatch):
        with monkeypatch.context() as serial:
            serial.setattr(ng, "AFFINE_SPLIT", 2**62)
            expected = self.taped_backward(True, True)
        assert two_threads == []
        got = self.taped_backward(True, True)
        assert len(two_threads) == 1
        for a, b in zip(got, expected, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("x_grad,w_grad", [(True, False), (False, True)], ids=["x_only", "w_only"])
    def test_one_gradient_starts_no_thread(self, x_grad, w_grad, two_threads):
        d_x, d_w, _ = self.taped_backward(x_grad, w_grad)
        assert two_threads == []
        assert (d_x is not None, d_w is not None) == (x_grad, w_grad)


class TestElementwise:
    def test_relu(self):
        out = ng.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        params = {"x": Tensor(rng.normal(size=(5,)) + 0.3, requires_grad=True)}

        def fn(p):
            y = ng.relu(p["x"])
            return total_sum(mul(y, y))

        assert grad_check(fn, params) < 1e-4


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = ng.softmax_xent(np.zeros((1, 4)), [0])
        assert abs(loss - np.log(4)) < 1e-12

    def test_confident_correct(self):
        loss, _ = ng.softmax_xent(np.array([[10.0, -10.0]]), [0])
        assert abs(loss - np.log1p(np.exp(-20.0))) < 1e-15
        assert loss < 3e-9

    def test_weighted_uniform(self):
        loss, _ = ng.softmax_xent(np.zeros((1, 2)), [0], weights=np.array([2.0, 0.0]))
        assert abs(loss - 2.0 * np.log(2)) < 1e-12

    def test_weights_ones_equals_unweighted(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(7, 3))
        labels = rng.integers(0, 3, size=7)
        plain, dplain = ng.softmax_xent(logits, labels)
        weighted, dweighted = ng.softmax_xent(logits, labels, weights=np.ones(3))
        assert plain == weighted
        np.testing.assert_array_equal(dplain, dweighted)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            ng.softmax_xent(np.zeros((1, 2)), [2])

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        base, _ = ng.softmax_xent(logits, labels)
        shifted, _ = ng.softmax_xent(logits + 123.456, labels)
        assert abs(base - shifted) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=4)
        weights = np.array([1.0, 2.5, 0.5])
        params = {"logits": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}

        def fn(p):
            return ng.cross_entropy(p["logits"], labels, weights)

        assert grad_check(fn, params, max_coords_per_tensor=12) < 1e-6


def reference_adam(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place Adam update, written the textbook way."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_in_place_matches_out_of_place_reference(self):
        rng = np.random.default_rng(11)
        dims = {
            "head": (300, 251),  # three blocks, the last one partial
            "w": (5, 7),
            "b": (7,),
            "slice": (6, 4),
        }
        assert 300 * 251 > 2 * ng.ADAM_BLOCK and 300 * 251 % ng.ADAM_BLOCK != 0
        params = {name: Tensor(rng.normal(size=d), requires_grad=True) for name, d in dims.items()}
        expected = {name: (p.data.copy(), np.zeros(p.dims), np.zeros(p.dims)) for name, p in params.items()}
        state = ng.init_adam(params, learning_rate=3e-3)
        for t in range(1, 6):
            grads = {name: rng.normal(size=d) * 10.0 ** rng.integers(-4, 3) for name, d in dims.items()}
            # a column slice of a wider gradient, as GRU backward hands out
            grads["slice"] = rng.normal(size=(6, 12))[:, 4:8]
            assert not grads["slice"].flags.c_contiguous
            returned = ng.adam_step(params, grads, state)
            assert returned[0] is params and returned[1] is state
            for name, g in grads.items():
                expected[name] = reference_adam(*expected[name], g, t, 3e-3)
                assert np.array_equal(params[name].data, expected[name][0]), name
                assert np.array_equal(state.first_moment[name], expected[name][1]), name
                assert np.array_equal(state.second_moment[name], expected[name][2]), name
        assert state.step_count == 5

    @staticmethod
    def split_params(rng):
        """A small tensor, one of 3.5 blocks and another small one: with the
        split forced, the worker updates blocks 2 and 3 of the large one."""
        dims = {"first": (4, 3), "big": (7 * ng.ADAM_BLOCK // 256, 128), "later": (5,)}
        assert np.prod(dims["big"]) == 3.5 * ng.ADAM_BLOCK
        return dims, {name: Tensor(rng.normal(size=d), requires_grad=True) for name, d in dims.items()}

    def test_two_thread_split_matches_reference(self, two_threads, monkeypatch):
        rng = np.random.default_rng(12)
        dims, params = self.split_params(rng)
        expected = {name: (p.data.copy(), np.zeros(p.dims), np.zeros(p.dims)) for name, p in params.items()}
        state = ng.init_adam(params, learning_rate=3e-3)
        threads_seen = set()
        init = Tensor.__init__

        def recording(tensor, *args, **kwargs):
            threads_seen.add(threading.current_thread())
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", recording)
        for t in range(1, 6):
            grads = {name: rng.normal(size=d) * 10.0 ** rng.integers(-4, 3) for name, d in dims.items()}
            grads["big"] = rng.normal(size=(dims["big"][0], 256))[:, 64:192]  # a strided column slice
            assert not grads["big"].flags.c_contiguous
            ng.adam_step(params, grads, state)
            assert len(two_threads) == t  # only "big" is two blocks or more
            for name, g in grads.items():
                expected[name] = reference_adam(*expected[name], g, t, 3e-3)
                assert np.array_equal(params[name].data, expected[name][0]), name
                assert np.array_equal(state.first_moment[name], expected[name][1]), name
                assert np.array_equal(state.second_moment[name], expected[name][2]), name
        assert threads_seen <= {threading.current_thread()}

    def test_non_finite_in_the_worker_range_names_the_tensor(self, two_threads):
        # as in the serial path: the whole tensor is updated, then the error
        # names it, and the tensors after it are left as they were
        rng = np.random.default_rng(13)
        dims, params = self.split_params(rng)
        before = {name: p.data.copy() for name, p in params.items()}
        state = ng.init_adam(params, learning_rate=1e-3)
        grads = {name: rng.normal(size=d) for name, d in dims.items()}
        grads["big"].reshape(-1)[3 * ng.ADAM_BLOCK + 5] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=r"'big'"):
            ng.adam_step(params, grads, state)
        assert len(two_threads) == 1
        for name in ("first", "big"):
            p, m, v = reference_adam(before[name], 0.0, 0.0, grads[name], 1, 1e-3)
            assert np.array_equal(params[name].data, p, equal_nan=True), name
            assert np.array_equal(state.first_moment[name], m, equal_nan=True), name
        assert np.array_equal(params["later"].data, before["later"])
        assert not state.first_moment["later"].any() and not state.second_moment["later"].any()

    @pytest.mark.parametrize("poison", [np.inf, np.nan])
    def test_non_finite_update_names_the_tensor(self, poison):
        params = {
            "fine": Tensor(np.ones(3), requires_grad=True),
            "trunk.0.W": Tensor(np.ones((2, 2)), requires_grad=True),
        }
        state = ng.init_adam(params, learning_rate=1e-3)
        grads = {"fine": np.ones(3), "trunk.0.W": np.array([[1.0, poison], [1.0, 1.0]])}
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=r"'trunk\.0\.W'"):
            ng.adam_step(params, grads, state)

    def test_shape_mismatch_updates_nothing(self):
        params = {
            "a": Tensor(np.ones(3), requires_grad=True),
            "b": Tensor(np.ones(2), requires_grad=True),
        }
        state = ng.init_adam(params, learning_rate=0.1)
        with pytest.raises(ShapeError):
            ng.adam_step(params, {"a": np.ones(3), "b": np.ones(5)}, state)
        np.testing.assert_array_equal(params["a"].data, np.ones(3))
        np.testing.assert_array_equal(state.first_moment["a"], np.zeros(3))
        assert state.step_count == 0

    def test_first_step_magnitude(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        state = ng.init_adam(params, learning_rate=1e-3)
        grads = {"w": np.array([0.1])}
        new_params, new_state = ng.adam_step(params, grads, state)
        update = new_params["w"].data[0] - 1.0
        assert abs(update - (-1e-3 * 0.1 / (0.1 + 1e-8))) < 1e-12
        assert new_state.step_count == 1

    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(6)
        params = {"w": Tensor(rng.normal(size=(3, 2)), requires_grad=True)}
        before = params["w"].data.copy()
        state = ng.init_adam(params, learning_rate=0.1)
        new_params, new_state = ng.adam_step(params, {"w": np.zeros((3, 2))}, state)
        np.testing.assert_array_equal(new_params["w"].data, before)
        np.testing.assert_array_equal(new_state.first_moment["w"], np.zeros((3, 2)))
        np.testing.assert_array_equal(new_state.second_moment["w"], np.zeros((3, 2)))

    def test_two_steps_decrease_quadratic(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        state = ng.init_adam(params, learning_rate=0.05)
        f = lambda p: p["w"].data[0] ** 2
        start = f(params)
        for _ in range(2):
            grads = {"w": 2.0 * params["w"].data}
            params, state = ng.adam_step(params, grads, state)
        assert f(params) < start

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = ng.init_adam(params, learning_rate=0.1)
        with pytest.raises(ShapeError):
            ng.adam_step(params, {"w": np.zeros(4)}, state)

    def test_bad_hyperparameters(self):
        # the learning rate is the one Adam hyperparameter a caller sets
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        for learning_rate in (0.0, -0.1, float("nan")):
            with pytest.raises(InputError, match="learning rate must be positive"):
                ng.init_adam(params, learning_rate)


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        rng = np.random.default_rng(7)
        params = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}

        def fn(p):
            return total_sum(mul(p["w"], p["w"]))

        assert grad_check(fn, params, max_coords_per_tensor=12) < 1e-8

    def test_detects_corrupted_backward(self):
        params = {"w": Tensor(np.array([0.7, -0.3]), requires_grad=True)}

        def doubled_square(w):
            out = Tensor(np.asarray((w.data**2).sum()))
            out.requires_grad = True
            out._parents = (w,)

            def _bw():
                # deliberately wrong by a factor of two
                w.grad = out.grad * 4.0 * w.data

            out._backward = _bw
            return out

        err = grad_check(lambda p: doubled_square(p["w"]), params)
        assert abs(err - 0.5) < 1e-6

    def test_rejects_nonpositive_step(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(InputError):
            grad_check(lambda p: total_sum(p["w"]), params, step=0.0)

    def test_nonfinite_value_raises(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}

        def fn(p):
            out = Tensor(np.array(1.0))
            out.data = np.array(np.inf)  # simulate a numeric blowup post hoc
            return out

        with pytest.raises(NumericError):
            grad_check(fn, params)


class TestTensorInvariants:
    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])

    def test_rejects_inf_from_op(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ng.affine(Tensor([[1e308]]), Tensor([[1e308]]), Tensor([0.0]))

    def test_dims_match_data(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.dims == (2, 3)
        assert t.data.size == 6

    def test_backward_needs_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward()

    def test_graph_freed_after_backward(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = total_sum(mul(x, x))
        y.backward()
        assert y._parents == ()
        assert y._backward is None
        np.testing.assert_array_equal(x.grad, [4.0])


def _theory_model(normalize, seed=0):
    """A small model of the theory shape (a linear static branch, no trunk)
    and a batch for it."""
    schema = M.FeatureSchema(("a", "b", "c", "d", "e"), ("s1", "s2", "s3"))
    config = M.ModelConfig(gru_hidden=2, static_widths=(3,), trunk_widths=(), normalize_representation=normalize)
    rng = np.random.default_rng(seed)
    temporal, statics = rng.normal(size=(4, 9, 5)), rng.normal(size=(4, 3))
    return config, M.init_params(config, schema, seed=seed), temporal, statics


class TestConcatReshapeNormalize:
    def test_concat_widths(self):
        # represent's block holds the GRU states, then the static branch's outputs
        config, params, temporal, statics = _theory_model(normalize=False)
        rep = M.represent(temporal, statics, params, config)
        gru = M.gru_layer(Tensor(temporal.transpose(1, 0, 2)), params)
        static = ng.affine(Tensor(statics), params["static.0.W"], params["static.0.b"])
        assert rep.dims == (4, gru.dims[1] + static.dims[1]) == (4, M.rep_width(config, 3))
        np.testing.assert_array_equal(rep.data[:, : gru.dims[1]], gru.data)
        np.testing.assert_array_equal(rep.data[:, gru.dims[1] :], static.data)

    def test_concat_row_mismatch(self):
        config, params, temporal, statics = _theory_model(normalize=False)
        with pytest.raises(ShapeError):
            M.represent(temporal, statics[1:], params, config)

    def test_l2_normalize_rows_unit_norm(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        a = x.copy()
        norms = ng.normalize_rows_(a)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
        assert norms.tobytes() == np.linalg.norm(x, axis=1, keepdims=True).tobytes()
        assert a.tobytes() == (x / norms).tobytes()
        with pytest.raises(NumericError):
            ng.normalize_rows_(np.zeros((2, 3)))

    @pytest.mark.parametrize("rows,width", [(512, 4624), (33, 1155), (7, 3)])
    def test_row_norms_are_linalg_norms_without_a_squared_copy(self, rows, width):
        # the representation widths of the theory runs at H=256 and H=64 with
        # statics, and a block of many short rows; squaring all of x at once,
        # as np.linalg.norm does, would hold one more array of x's size
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, width)) * rng.uniform(0.1, 100.0, size=(rows, 1))
        norms = []
        rise = traced_peak_rise(lambda: norms.append(ng.row_norms(x)))
        assert norms[0].tobytes() == np.linalg.norm(x, axis=1, keepdims=True).tobytes()
        assert rise <= 8 * ng.NORM_BLOCK + 2 * norms[0].nbytes

    def test_l2_normalize_gradient(self):
        # the gradient of the unit rows runs through represent's tangent
        # projection to the GRU and static tensors; no relu on the way
        config, params, temporal, statics = _theory_model(normalize=True, seed=9)
        direction = np.random.default_rng(9).normal(size=(4, M.rep_width(config, 3)))

        def fn(p):
            rep = M.represent(temporal, statics, fuse_tensors(p), config)
            return total_sum(mul(rep, Tensor(direction)))

        gates = {name: Tensor(block, requires_grad=True) for name, block in per_gate(params) if not M.is_head(name)}
        assert grad_check(fn, gates, step=1e-4, max_coords_per_tensor=15) < 1e-6

    def test_composite_graph_gradient(self):
        rng = np.random.default_rng(10)
        params = {
            "w1": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            "b1": Tensor(rng.normal(size=3), requires_grad=True),
            "w2": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            "b2": Tensor(rng.normal(size=2), requires_grad=True),
        }
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5)

        # finite differences are exact for relu only away from its kink
        pre = x @ params["w1"].data + params["b1"].data
        assert np.abs(pre).min() > 0.05 and (pre > 0).any() and (pre < 0).any()

        def fn(p):
            hidden = ng.relu(ng.affine(Tensor(x), p["w1"], p["b1"]))
            return ng.cross_entropy(ng.affine(hidden, p["w2"], p["b2"]), labels)

        assert grad_check(fn, params, max_coords_per_tensor=20) < 1e-4
