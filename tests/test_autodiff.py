"""Reverse-mode gradients: exact cases and finite-difference checks."""

import threading

import numpy as np
import pytest

from irstkit import blocks, complexity
from irstkit import tensor as T
from irstkit.errors import ContractError, DeterminismError

RNG = np.random.default_rng(2024)


def rand_tensor(shape):
    return T.Tensor4(RNG.standard_normal(shape), requires_grad=True)


def fd_check(closure, tensors, tol=1e-5, eps=1e-3):
    report = T.grad_check(closure, tensors, tolerance=tol, eps=eps)
    assert report.passed, f"max rel err {report.max_rel_error:.3e} > {tol}"
    return report


def bn_buffers(mean, var):
    """Batch norm's running mean and variance as (1, c, 1, 1) buffers."""
    return T.Tensor4.vector(mean), T.Tensor4.vector(var)


def projected(out, seed=0):
    """Random fixed linear functional turning any output into a scalar."""
    proj = T.Tensor4.const(np.random.default_rng(seed).standard_normal(out.shape))
    return T.sum_all(T.mul(out, proj))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = rand_tensor((1, 3, 2, 2))
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_quadratic_gradient(self):
        x = rand_tensor((1, 2, 3, 3))
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_accumulation_across_two_uses(self):
        x = rand_tensor((1, 2, 2, 2))
        y = T.add(T.mul(x, 3.0), T.mul(x, x))  # 3x + x^2
        T.backward(T.sum_all(y))
        np.testing.assert_allclose(x.grad, 3.0 + 2 * x.data, rtol=1e-12)

    def test_same_tensor_both_operands(self):
        x = rand_tensor((1, 1, 2, 2))
        T.backward(T.sum_all(T.add(x, x)))
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_non_scalar_root_rejected(self):
        x = rand_tensor((1, 2, 2, 2))
        with pytest.raises(ContractError):
            T.backward(T.mul(x, 2.0))

    def test_broadcast_gradient_reduces(self):
        x = rand_tensor((2, 3, 4, 4))
        v = T.Tensor4(RNG.standard_normal((1, 3, 1, 1)), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, v)))
        np.testing.assert_allclose(v.grad, x.data.sum(axis=(0, 2, 3), keepdims=True), rtol=1e-12)


class TestGradCheckHarness:
    def test_sigmoid_derivative_at_zero(self):
        x = T.Tensor4(np.zeros((1, 1, 1, 1)))
        report = T.grad_check(lambda t: T.sum_all(T.sigmoid(t)), [x])
        assert report.passed
        assert x.grad.item() == pytest.approx(0.25, abs=1e-9)

    def test_identity_has_exact_zero_error(self):
        # integer data and a power-of-two step keep float64 sums exact
        x = T.Tensor4(np.arange(8.0).reshape(1, 2, 2, 2))
        report = T.grad_check(lambda t: T.sum_all(t), [x], eps=0.5)
        assert report.max_rel_error == 0.0

    def test_nondeterministic_closure_detected(self):
        state = {"n": 0}

        def noisy(t):
            state["n"] += 1
            return T.sum_all(T.mul(t, float(state["n"])))

        with pytest.raises(DeterminismError):
            T.grad_check(noisy, [rand_tensor((1, 1, 1, 2))])


class TestPrimitiveGradients:
    """Each differentiable primitive against central finite differences."""

    def test_conv2d(self):
        x = rand_tensor((1, 4, 6, 6))
        w = rand_tensor((3, 4, 3, 3))
        b = T.Tensor4(RNG.standard_normal((1, 3, 1, 1)), requires_grad=True)
        fd_check(lambda xx, ww, bb: projected(T.conv2d(xx, ww, bias=bb, stride=2, pad=1)),
                 [x, w, b])

    def test_conv2d_grouped(self):
        x = rand_tensor((1, 4, 6, 6))
        w = rand_tensor((6, 2, 3, 3))
        fd_check(lambda xx, ww: projected(T.conv2d(xx, ww, pad=1, groups=2)), [x, w])

    def test_conv2d_grouped_strided_with_bias(self):
        # a local generator keeps the shared RNG's draws for later tests unchanged
        rng = np.random.default_rng(11)
        x, w, b = (T.Tensor4(rng.standard_normal(s), requires_grad=True)
                   for s in ((2, 4, 7, 7), (6, 2, 3, 3), (1, 6, 1, 1)))
        fd_check(lambda xx, ww, bb: projected(T.conv2d(xx, ww, bias=bb, stride=2, pad=1,
                                                       groups=2)),
                 [x, w, b])

    def test_depthwise_conv2d(self):
        x = rand_tensor((1, 4, 6, 6))
        w = rand_tensor((4, 1, 3, 3))
        fd_check(lambda xx, ww: projected(T.conv2d(xx, ww, stride=1, pad=1, groups=4)), [x, w])

    # (x shape, weight shape, stride, pad, groups): each reads the stride-phase
    # planes differently -- four phases, a depthwise broadcast at stride 2,
    # taps reaching three rows into the padding, and one input channel
    @pytest.mark.parametrize("xs, ws, stride, pad, groups", [
        ((2, 3, 7, 6), (4, 3, 3, 3), 2, 1, 1),
        ((2, 4, 7, 6), (4, 1, 3, 3), 2, 1, 4),
        ((1, 2, 5, 6), (3, 2, 7, 7), 1, 3, 1),
        ((2, 1, 7, 5), (3, 1, 3, 3), 2, 1, 1),
    ], ids=["dense_stride2", "depthwise_stride2", "7x7_pad3", "one_channel_in"])
    def test_conv2d_tap_planes(self, xs, ws, stride, pad, groups):
        rng = np.random.default_rng(12)
        x, w, b = (T.Tensor4(rng.standard_normal(s), requires_grad=True)
                   for s in (xs, ws, (1, ws[0], 1, 1)))
        fd_check(lambda xx, ww, bb: projected(T.conv2d(xx, ww, bias=bb, stride=stride,
                                                       pad=pad, groups=groups)),
                 [x, w, b])

    def test_batch_norm_training(self):
        x = rand_tensor((2, 4, 6, 6))
        g = T.Tensor4(RNG.standard_normal((1, 4, 1, 1)) + 1.0, requires_grad=True)
        b = T.Tensor4(RNG.standard_normal((1, 4, 1, 1)), requires_grad=True)

        def run(xx, gg, bb):
            return projected(T.batch_norm(xx, gg, bb, *bn_buffers(np.zeros(4), np.ones(4)),
                                          training=True))

        fd_check(run, [x, g, b], tol=1e-4)  # curvature of the variance term

    def test_batch_norm_inference(self):
        stats = bn_buffers(RNG.standard_normal(4) * 0.1, RNG.random(4) + 0.5)
        x = rand_tensor((1, 4, 6, 6))
        g = T.Tensor4(RNG.standard_normal((1, 4, 1, 1)) + 1.0, requires_grad=True)
        b = T.Tensor4(RNG.standard_normal((1, 4, 1, 1)), requires_grad=True)
        fd_check(lambda xx, gg, bb: projected(T.batch_norm(xx, gg, bb, *stats, training=False)),
                 [x, g, b])

    @pytest.mark.parametrize("kind", ["silu", "sigmoid", "relu"])
    def test_activations(self, kind):
        x = rand_tensor((1, 4, 6, 6))
        fd_check(lambda xx: projected(T.activation(xx, kind)), [x])

    def test_channel_shuffle(self):
        x = rand_tensor((1, 6, 6, 6))
        fd_check(lambda xx: projected(T.channel_shuffle(xx, 3)), [x])

    def test_dropout_fixed_seed(self):
        x = rand_tensor((1, 4, 6, 6))
        fd_check(lambda xx: projected(T.dropout(xx, 0.4, training=True, seed=7)), [x])

    @pytest.mark.parametrize("kind", ["avg", "max"])
    def test_pool_global(self, kind):
        x = rand_tensor((1, 4, 6, 6))
        fd_check(lambda xx: projected(T.pool_global(xx, kind)), [x])

    @pytest.mark.parametrize("kind", ["mean", "max"])
    def test_channel_reduce(self, kind):
        x = rand_tensor((1, 4, 6, 6))
        fd_check(lambda xx: projected(T.channel_reduce(xx, kind)), [x])

    def test_concat_and_slice(self):
        a = rand_tensor((1, 2, 4, 4))
        b = rand_tensor((1, 3, 4, 4))

        def run(aa, bb):
            cat = T.concat_channels([aa, bb])
            return projected(T.slice_channels(cat, 1, 4))

        fd_check(run, [a, b])

    def test_bilinear_sample_wrt_input_and_coords(self):
        x = rand_tensor((1, 3, 6, 6))
        # interior fractional coords, away from integer-lattice kinks
        coords = T.Tensor4(RNG.uniform(0.3, 4.7, size=(1, 2, 3, 3)) + 0.123,
                           requires_grad=True)
        fd_check(lambda xx, cc: projected(T.bilinear_sample(xx, cc)), [x, coords])

    def test_multi_point_bilinear_sample_wrt_input_coords_and_weights(self):
        rng = np.random.default_rng(12)
        x = T.Tensor4(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        # K=5 points; integer parts from -1 to 6 put some corners and whole
        # points outside the 6x6 frame, fractions stay off the lattice kinks
        coords = T.Tensor4(rng.integers(-1, 7, size=(2, 10, 3, 3))
                           + rng.uniform(0.2, 0.8, size=(2, 10, 3, 3)), requires_grad=True)
        point_w = T.Tensor4(rng.standard_normal((1, 5, 1, 1)), requires_grad=True)
        fd_check(lambda xx, cc, pw: projected(T.bilinear_sample(xx, cc, pw)),
                 [x, coords, point_w])

    def test_upsample2x(self):
        x = rand_tensor((1, 3, 4, 4))
        fd_check(lambda xx: projected(T.upsample2x(xx)), [x])

    def test_gather_cells(self):
        x = rand_tensor((2, 3, 4, 4))
        cells = np.array([[0, 1, 2], [1, 3, 0], [0, 1, 2]])  # duplicate accumulates
        fd_check(lambda xx: projected(T.gather_cells(xx, cells)), [x])

    def test_gather_channel(self):
        x = rand_tensor((3, 5, 1, 1))
        idx = np.array([0, 4, 2])
        fd_check(lambda xx: projected(T.gather_channel(xx, idx)), [x])

    def test_softmax_channels(self):
        x = rand_tensor((2, 5, 1, 1))
        fd_check(lambda xx: projected(T.softmax_channels(xx)), [x])

    def test_log_softmax_channels(self):
        x = rand_tensor((2, 5, 1, 1))
        fd_check(lambda xx: projected(T.log_softmax_channels(xx)), [x])

    def test_log_softmax_is_log_of_softmax(self):
        z = RNG.standard_normal((3, 6, 2, 2)) * 4.0
        z[1, 3, 0, 1] = -800.0  # softmax underflows to 0 here; its log is -inf
        x = T.Tensor4.const(z)
        with np.errstate(divide="ignore"):
            ref = np.log(T.softmax_channels(x).data)
        finite = np.isfinite(ref)
        assert np.count_nonzero(~finite) == 1
        np.testing.assert_allclose(T.log_softmax_channels(x).data[finite], ref[finite],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log_softmax_finite_where_softmax_underflows(self, dtype):
        z = np.array([0.0, 1.0, -800.0, 0.5], dtype=dtype).reshape(1, 4, 1, 1)
        x = T.Tensor4(z, requires_grad=True)
        assert T.softmax_channels(x).data[0, 2, 0, 0] == 0.0
        out = T.log_softmax_channels(x)
        assert out.dtype == dtype
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 2, 0, 0] < -799.0
        T.backward(T.sum_all(T.gather_channel(out, np.array([2]))))
        # d/dz_j log softmax_2 = [j == 2] - softmax_j
        expected = -T.softmax_channels(T.Tensor4.const(z)).data
        expected[0, 2] += 1.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6)

    def test_elementwise_chain(self):
        x = T.Tensor4(RNG.uniform(0.5, 2.0, (1, 4, 6, 6)), requires_grad=True)
        y = rand_tensor((1, 4, 6, 6))

        def run(xx, yy):
            z = T.div(T.mul(xx, yy), T.add(T.exp(yy), 1.0))
            z = T.add(T.log(xx), z)
            z = T.sub(z, T.arctan(yy))
            z = T.add(z, T.sqrt(xx))
            z = T.add(z, T.power(xx, 1.7))
            return T.sum_all(z)

        # smaller step: log/power curvature dominates the default step's
        # truncation error, which is not a gradient defect
        fd_check(run, [x, y], eps=1e-4)

    def test_minimum_maximum_clamp(self):
        # redraw until every element sits farther than the FD step from the
        # piecewise kinks (|x-y|, |x-y/2|, |x -+ 0.5|)
        eps = 1e-3
        for seed in range(100):
            rng = np.random.default_rng(900 + seed)
            xd = rng.standard_normal((1, 4, 6, 6))
            yd = rng.standard_normal((1, 4, 6, 6))
            margins = [np.abs(xd - yd).min(), np.abs(xd - 0.5 * yd).min(),
                       np.abs(xd - 0.5).min(), np.abs(xd + 0.5).min()]
            if min(margins) > 5 * eps:
                break
        x = T.Tensor4(xd, requires_grad=True)
        y = T.Tensor4(yd, requires_grad=True)

        def run(xx, yy):
            z = T.maximum(xx, yy)
            z = T.add(z, T.minimum(xx, T.mul(yy, 0.5)))
            z = T.add(z, T.clamp(xx, -0.5, 0.5))
            return T.sum_all(z)

        fd_check(run, [x, y], eps=eps)


class TestContextLocalState:
    def test_no_grad_and_cost_tape_stay_in_their_thread(self):
        """Thread A holds no_grad() and tracking() open while thread B runs a
        forward: B still records a tape, and B's module writes no cost row
        into A's tape."""
        x = T.Tensor4(np.ones((1, 2, 4, 4)))
        layer_a = blocks.Conv2dLayer("a_conv", 2, 3, 3, pad=1)
        layer_b = blocks.Conv2dLayer("b_conv", 2, 3, 3, pad=1)
        a_inside, b_done = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with T.no_grad(), complexity.tracking() as tape:
                a_inside.set()
                seen["b_finished"] = b_done.wait(timeout=30)
                seen["a_requires_grad"] = layer_a(x).requires_grad
            seen["a_rows"] = [row[0] for row in tape.report().rows]

        def thread_b():
            try:
                seen["a_entered"] = a_inside.wait(timeout=30)
                seen["b_requires_grad"] = layer_b(x).requires_grad
            finally:
                b_done.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a_entered": True, "b_requires_grad": True, "b_finished": True,
                        "a_requires_grad": False, "a_rows": ["a_conv"]}
        assert layer_b(x).requires_grad and not complexity.tape_active()  # this thread too
