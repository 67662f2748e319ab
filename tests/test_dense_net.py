"""Dense network forward/backward exactness, the optimizer, and parameter views."""
import numpy as np
import pytest

from gridmix.dense_net import (ADAM_EPS, AdamState, NetParams, NonFiniteGradient,
                               ShapeMismatch, Topology, adam_step, backward,
                               clip_global_norm, forward, init_params)

from oracles import finite_diff_check, tape_has_kink


def random_net(topology, seed):
    return init_params(topology, np.random.default_rng(seed))


class TestTopology:
    def test_param_count(self):
        topo = Topology((3, 4, 2), ("relu", "identity"))
        assert topo.n_params == 3 * 4 + 4 + 4 * 2 + 2

    @pytest.mark.parametrize("sizes,acts", [
        ((3,), ()),
        ((3, 0), ("relu",)),
        ((3, 4), ("relu", "relu")),
        ((3, 4), ("swish",)),
    ])
    def test_invalid(self, sizes, acts):
        with pytest.raises(ValueError):
            Topology(sizes, acts)


class TestForward:
    def test_identity_net_passes_input_through(self):
        topo = Topology((3, 3), ("identity",))
        params = NetParams(topo, np.zeros(topo.n_params))
        w, b = params.layers[0]
        w[:] = np.eye(3)
        x = np.array([[1.5, -2.0, 0.25]])
        out, _ = forward(params, x)
        assert np.array_equal(out, x)

    def test_abs_activation(self):
        topo = Topology((1, 1), ("abs",))
        params = NetParams(topo, np.zeros(topo.n_params))
        params.layers[0][0][:] = 1.0
        params.layers[0][1][:] = -3.0  # pre-activation -3 at x=0
        out, _ = forward(params, np.zeros((1, 1)))
        assert out[0, 0] == 3.0

    def test_relu_clamps_negative(self):
        topo = Topology((1, 1), ("relu",))
        params = NetParams(topo, np.zeros(topo.n_params))
        params.layers[0][1][:] = -2.5
        out, _ = forward(params, np.zeros((1, 1)))
        assert out[0, 0] == 0.0

    def test_batch_matches_single(self):
        # batched and single-row GEMMs may round differently in the last ulps
        topo = Topology((4, 6, 2), ("elu", "elu"))
        params = random_net(topo, 0)
        xs = np.random.default_rng(1).normal(size=(5, 4))
        batch_out, _ = forward(params, xs)
        for k in range(5):
            single_out, _ = forward(params, xs[k:k + 1])
            np.testing.assert_allclose(batch_out[k], single_out[0], rtol=1e-12)

    def test_shape_mismatch(self):
        params = random_net(Topology((4, 2), ("relu",)), 0)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 5)))

    def test_one_d_input_rejected(self):
        # one input is a 1-row batch; a bare vector is not accepted
        params = random_net(Topology((4, 2), ("relu",)), 0)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros(4))
        _, tape = forward(params, np.zeros((1, 4)))
        with pytest.raises(ShapeMismatch):
            backward(tape, np.zeros(2))


class TestBackward:
    def test_zero_output_gradient(self):
        topo = Topology((3, 5, 2), ("relu", "identity"))
        params = random_net(topo, 2)
        out, tape = forward(params, np.ones((1, 3)))
        grad = backward(tape, np.zeros((1, 2)))
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_single_linear_neuron(self):
        # y = w x: dy/dw == x
        topo = Topology((1, 1), ("identity",))
        params = NetParams(topo, np.zeros(topo.n_params))
        params.layers[0][0][:] = 2.0
        _, tape = forward(params, np.array([[3.0]]))
        grad = backward(tape, np.array([[1.0]]))
        assert grad[0] == 3.0  # weight gradient
        assert grad[1] == 1.0  # bias gradient

    def test_returns_a_fresh_vector(self):
        # callers may keep or overwrite a gradient; the next call must not touch it
        topo = Topology((3, 4, 2), ("relu", "identity"))
        params = random_net(topo, 3)
        _, tape = forward(params, np.ones((1, 3)))
        first = backward(tape, np.ones((1, 2)))
        kept = first.copy()
        second = backward(tape, np.ones((1, 2)))
        assert second is not first and not np.shares_memory(first, second)
        assert not np.shares_memory(first, params.flat)
        assert np.array_equal(first, kept) and np.array_equal(second, kept)

    @pytest.mark.parametrize("topo", [
        Topology((6, 8, 3), ("relu", "identity")),
        Topology((5, 7, 7, 2), ("elu", "elu", "identity")),
        Topology((4, 9), ("abs",)),
        Topology((10, 16, 16, 5), ("relu", "relu", "identity")),
    ])
    def test_matches_finite_differences(self, topo):
        rng = np.random.default_rng(hash(topo.sizes) % 2**31)
        for attempt in range(8):
            params = init_params(topo, rng)
            x = rng.normal(size=(3, topo.sizes[0]))
            target = rng.normal(size=(3, topo.sizes[-1]))

            def loss_fn(flat):
                p = NetParams(topo, np.asarray(flat, dtype=np.float64))
                out, tape = forward(p, x)
                diff = out - target
                grad = backward(tape, 2.0 * diff)
                return float(np.square(diff).sum()), grad

            _, tape = forward(params, x)
            if tape_has_kink(tape):
                continue
            err = finite_diff_check(params.flat, loss_fn)
            assert err < 1e-4
            return
        pytest.fail("all sampled instances sat on activation kinks")


class TestAdam:
    def test_zero_gradient_no_update(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState(3, lr=0.1)
        adam_step(params, np.zeros(3), state)
        assert np.array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        # one step with constant gradient g moves each coordinate by
        # lr * g / (|g| + eps), which is lr up to the eps term
        g = np.array([0.3, -7.0, 1e-3])
        params = np.zeros(3)
        state = AdamState(3, lr=0.05)
        adam_step(params, g.copy(), state)
        expected = -state.lr * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(params, expected, rtol=1e-9)
        assert np.abs(np.abs(params) - state.lr).max() < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=8) for _ in range(5)]
        results = []
        for _ in range(2):
            params = np.ones(8)
            state = AdamState(8)
            for g in grads:
                adam_step(params, g, state)
            results.append(params.copy())
        assert np.array_equal(results[0], results[1])

    def test_non_finite_gradient_raises(self):
        params = np.zeros(3)
        state = AdamState(3)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, np.array([1.0, np.nan, 0.0]), state)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, np.array([1.0, np.inf, 0.0]), state)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adam_step(np.zeros(3), np.zeros(4), AdamState(3))


class TestClip:
    def test_returns_preclip_norm_and_scales(self):
        g = np.array([3.0, 4.0])
        norm = clip_global_norm(g, 1.0)
        assert norm == 5.0
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_below_threshold_untouched(self):
        g = np.array([0.3, 0.4])
        norm = clip_global_norm(g, 10.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(g, [0.3, 0.4])


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        def loss_fn(theta):
            theta = np.asarray(theta)
            return float(theta @ theta), 2.0 * theta

        err = finite_diff_check(np.array([0.5, -1.5, 2.0]), loss_fn)
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        def bad_loss(theta):
            theta = np.asarray(theta)
            return float(theta @ theta), 3.0 * theta  # wrong factor

        err = finite_diff_check(np.array([0.5, -1.5]), bad_loss)
        assert err > 0.1
        with pytest.raises(AssertionError):
            finite_diff_check(np.array([0.5, -1.5]), bad_loss, tolerance=1e-4)

    def test_coordinate_subset(self):
        def loss_fn(theta):
            theta = np.asarray(theta)
            return float(theta @ theta), 2.0 * theta

        theta0 = np.random.default_rng(3).normal(size=300)
        err = finite_diff_check(theta0, loss_fn,
                                n_coords=50, rng=np.random.default_rng(0))
        assert err < 1e-7


class TestInit:
    def test_bounds_and_zero_biases(self):
        topo = Topology((100, 50), ("identity",))
        params = init_params(topo, np.random.default_rng(0))
        w, b = params.layers[0]
        assert np.abs(w).max() <= np.sqrt(1.0 / 100)
        assert np.array_equal(b, np.zeros(50))

    def test_forward_scale_near_fanin_estimate(self):
        # pre-activation sd on unit-variance input is sqrt(fan_in * var_w)
        # = 1/sqrt(3) for uniform(+-sqrt(1/fan_in)) weights
        topo = Topology((200, 200), ("identity",))
        params = init_params(topo, np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(400, 200))
        out, _ = forward(params, x)
        ratio = out.std() / (1.0 / np.sqrt(3.0))
        assert 0.1 < ratio < 10.0
        assert np.isfinite(out).all()


class TestNetParams:
    def test_param_vector_length_checked(self):
        topo = Topology((3, 2), ("relu",))
        with pytest.raises(ShapeMismatch):
            NetParams(topo, np.zeros(5))
