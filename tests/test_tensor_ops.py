"""Forward-path contracts of the tensor engine primitives."""

import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib import format as npformat

from irstkit import blocks as B
from irstkit import tensor as T
from irstkit.errors import ConfigError, NumericError, ParseError, ShapeError


def naive_conv2d(x, w, stride=1, pad=0, groups=1):
    """Direct cross-correlation, the independent oracle: a loop over every
    output pixel of every image and output channel, each the float64 sum of
    its receptive field times the filter.  Output channel o reads the input
    channels of its group, o // (c_out / groups)."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, k, _ = w.shape
    cog = c_out // groups
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, c_out, ho, wo))
    for b in range(n):
        for o in range(c_out):
            lo = (o // cog) * c_in_g
            for i in range(ho):
                for j in range(wo):
                    field = xp[b, lo:lo + c_in_g, i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    out[b, o, i, j] = (field * w[o]).sum()
    return out


# (c_in, c_out, groups): dense, grouped, depthwise, one input channel
CONV_CHANNELS = {"dense": (4, 6, 1), "grouped": (4, 6, 2), "depthwise": (4, 4, 4),
                 "one_channel": (1, 3, 1)}


class TestConv2d:
    def test_identity_1x1_grouped(self):
        rng = np.random.default_rng(1)
        x = T.Tensor4(rng.standard_normal((2, 3, 4, 4)))
        w = T.Tensor4(np.ones((3, 1, 1, 1)))
        out = T.conv2d(x, w, groups=3)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3x3_sums_to_nine(self):
        x = T.Tensor4(np.ones((1, 1, 3, 3)))
        w = T.Tensor4(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = T.conv2d(T.Tensor4(x), T.Tensor4(w), pad=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, pad=1), atol=1e-6)

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        out = T.conv2d(T.Tensor4(x), T.Tensor4(w), stride=2, pad=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, stride=2, pad=1), atol=1e-10)

    def test_grouped_strided_with_bias_matches_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 7, 7))
        w = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        out = T.conv2d(T.Tensor4(x), T.Tensor4(w), bias=T.Tensor4.vector(b),
                       stride=2, pad=1, groups=2)
        ref = naive_conv2d(x, w, stride=2, pad=1, groups=2) + b.reshape(1, 6, 1, 1)
        np.testing.assert_allclose(out.data, ref, atol=1e-10)

    def test_bias_added_per_channel(self):
        rng = np.random.default_rng(4)
        x = T.Tensor4(rng.standard_normal((1, 2, 4, 4)))
        w = T.Tensor4(rng.standard_normal((3, 2, 1, 1)))
        b = T.Tensor4.vector([1.0, -2.0, 0.5])
        plain = T.conv2d(x, w)
        withb = T.conv2d(x, w, bias=b)
        np.testing.assert_allclose(withb.data, plain.data + b.data, atol=1e-12)

    def test_output_shape_formula(self):
        x = T.Tensor4(np.zeros((1, 1, 11, 7)))
        w = T.Tensor4(np.zeros((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=2, pad=1)
        assert out.shape == (1, 1, 6, 4)

    def test_groups_not_dividing_raises(self):
        x = T.Tensor4(np.zeros((1, 3, 4, 4)))
        w = T.Tensor4(np.zeros((2, 1, 1, 1)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, groups=2)

    def test_channel_mismatch_raises(self):
        x = T.Tensor4(np.zeros((1, 3, 4, 4)))
        w = T.Tensor4(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w, pad=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", list(CONV_CHANNELS))
    @pytest.mark.parametrize("pad", [0, 1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_every_layout_matches_oracle(self, k, stride, pad, channels, dtype, monkeypatch):
        """Forward against the loop oracle, and the backward by the adjoint
        identities <g, conv(dx, w)> = <gx, dx> and <g, conv(x, dw)> = <gw, dw>
        with the oracle's conv, over kernel sizes, strides, paddings, group
        layouts, batch sizes and odd or even h != w.  Reruns, and a rerun
        summing broadcast taps one output channel at a time, are bit-identical.
        A biased forward, whose bias joins the crop of the output grid, has
        the bytes of the unbiased output plus the bias."""
        c_in, c_out, groups = CONV_CHANNELS[channels]
        tol = dict(rtol=1e-5, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-12, atol=1e-11)
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        for n, h, w in ((1, 9, 7), (3, 8, 11)):
            x, wt, g, dx, dw, b = (rng.standard_normal(s).astype(dtype) for s in (
                (n, c_in, h, w), (c_out, c_in // groups, k, k),
                (n, c_out, (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1),
                (n, c_in, h, w), (c_out, c_in // groups, k, k), (c_out,)))
            before = [x.copy(), wt.copy()]
            xt, wtt = T.Tensor4(x, requires_grad=True), T.Tensor4(wt, requires_grad=True)
            out = T.conv2d(xt, wtt, stride=stride, pad=pad, groups=groups)
            again = T.conv2d(T.Tensor4(x), T.Tensor4(wt), stride=stride, pad=pad, groups=groups)
            with monkeypatch.context() as m:
                m.setattr(T, "_BROADCAST_BLOCK_BYTES", 1)
                blocked = T.conv2d(T.Tensor4(x), T.Tensor4(wt), stride=stride, pad=pad,
                                   groups=groups)
            biased = T.conv2d(T.Tensor4(x), T.Tensor4(wt), bias=T.Tensor4.vector(b),
                              stride=stride, pad=pad, groups=groups)
            assert out.dtype == biased.dtype == dtype
            assert out.data.flags.c_contiguous and biased.data.flags.c_contiguous
            assert out.data.tobytes() == again.data.tobytes() == blocked.data.tobytes()
            assert biased.data.tobytes() == (out.data + b.reshape(1, c_out, 1, 1)).tobytes()
            ref = naive_conv2d(x, wt, stride, pad, groups)
            np.testing.assert_allclose(out.data, ref, **tol)
            np.testing.assert_allclose(biased.data, ref + b.reshape(1, c_out, 1, 1), **tol)

            T.backward(T.sum_all(T.mul(out, T.Tensor4.const(g))))
            assert xt.grad.dtype == wtt.grad.dtype == dtype
            g64 = g.astype(np.float64)
            np.testing.assert_allclose(np.vdot(xt.grad, dx),
                                       np.vdot(g64, naive_conv2d(dx, wt, stride, pad, groups)), **tol)
            np.testing.assert_allclose(np.vdot(wtt.grad, dw),
                                       np.vdot(g64, naive_conv2d(x, dw, stride, pad, groups)), **tol)
            for a, b in zip((x, wt), before):
                assert a.tobytes() == b.tobytes()


class TestTapBlocks:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(3, 12),
           st.integers(1, 2), st.integers(1, 20000))
    def test_blocks_cover_each_output_channel_once(self, groups, cog, n, size, stride, block):
        """Every output channel is in exactly one block, and a block's output
        and product rows plus its groups' input planes fit in the budget,
        unless the block holds one output channel."""
        _, _, ws, _ = T._tap_geometry(size, size, 3, stride, 1)
        out_bytes = n * ((size - 1) // stride + 1) * ws * 4
        plane_bytes = T._tap_planes(np.zeros((n, 1, size, size), np.float32), 3, stride, 1).nbytes
        with pytest.MonkeyPatch.context() as m:
            m.setattr(T, "_BROADCAST_BLOCK_BYTES", block)
            blocks = T._tap_blocks(groups, cog, 1, out_bytes, plane_bytes)
        hits = np.zeros((groups, cog), dtype=int)
        for gs, cs in blocks:
            hits[gs, cs] += 1
        assert (hits == 1).all()
        for gs, cs in blocks:
            channels, planes = hits[gs, cs].size, len(range(groups)[gs])
            assert channels == 1 or 2 * channels * out_bytes + planes * plane_bytes <= block

    def test_matmul_taps_take_the_whole_output(self):
        assert T._tap_blocks(4, 8, 2, 1 << 30, 1 << 30) == [(slice(None), slice(None))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_broadcast_taps_allocate_block_sized_scratch(self, dtype):
        """An unrecorded stride-2 depthwise conv lays out each block's planes
        on its own: beyond its output it allocates about one block, however
        large the input, and no copy of the whole input."""
        rng = np.random.default_rng(41)
        x = T.Tensor4(rng.standard_normal((1, 40, 192, 192)).astype(dtype))
        w = T.Tensor4(rng.standard_normal((40, 1, 3, 3)).astype(dtype))
        assert x.data.nbytes >= 8 * T._BROADCAST_BLOCK_BYTES
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, stride=2, pad=1, groups=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.op is None and out.shape == (1, 40, 96, 96)
        assert peak - out.data.nbytes <= T._BROADCAST_BLOCK_BYTES + (1 << 16)


class TestDepthwiseConv2d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(5)
        x = T.Tensor4(rng.standard_normal((1, 3, 5, 5)))
        w = np.zeros((3, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        out = T.conv2d(x, T.Tensor4(w), pad=1, groups=3)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_stride2_shape(self):
        x = T.Tensor4(np.zeros((1, 6, 8, 8)))
        w = T.Tensor4(np.zeros((6, 1, 3, 3)))
        out = T.conv2d(x, w, stride=2, pad=1, groups=6)
        assert out.shape == (1, 6, 4, 4)

    def test_channel_mismatch_raises(self):
        # four one-channel filters over three channels: no grouping fits
        with pytest.raises(ConfigError):
            T.conv2d(T.Tensor4(np.zeros((1, 3, 4, 4))),
                     T.Tensor4(np.zeros((4, 1, 3, 3))), pad=1, groups=3)

    @pytest.mark.parametrize("groups", [4, 2], ids=["depthwise", "grouped"])
    def test_output_dtype_promotes_like_grouped_conv(self, groups):
        x = T.Tensor4(np.zeros((1, 4, 5, 5), dtype=np.float32))
        w = T.Tensor4(np.zeros((4, 4 // groups, 3, 3)))
        assert T.conv2d(x, w, pad=1, groups=groups).dtype == np.float64


def bn_buffers(mean, var):
    """Batch norm's running mean and variance as (1, c, 1, 1) buffers."""
    return T.Tensor4.vector(mean), T.Tensor4.vector(var)


def fresh_buffers(c):
    return bn_buffers(np.zeros(c), np.ones(c))


class TestBatchNorm:
    def test_training_normalizes_to_standard_moments(self):
        rng = np.random.default_rng(7)
        x = T.Tensor4(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 1.5)
        out = T.batch_norm(x, T.Tensor4.vector(np.ones(3)), T.Tensor4.vector(np.zeros(3)),
                           *fresh_buffers(3), training=True)
        means = out.data.mean(axis=(0, 2, 3))
        variances = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-12)
        np.testing.assert_allclose(variances, 1.0, atol=1e-4)  # eps shrinks var slightly

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(8)
        x = T.Tensor4(rng.standard_normal((2, 3, 4, 4)))
        beta = T.Tensor4.vector([0.5, -1.0, 2.0])
        out = T.batch_norm(x, T.Tensor4.vector(np.zeros(3)), beta,
                           *fresh_buffers(3), training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, out.shape), atol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        xd = rng.standard_normal((3, 2, 4, 4))
        gamma, beta, eps = np.array([1.3, 0.7]), np.array([-0.2, 0.4]), T.BN_EPS
        out = T.batch_norm(T.Tensor4(xd), T.Tensor4.vector(gamma), T.Tensor4.vector(beta),
                           *fresh_buffers(2), training=True)
        expected = np.empty_like(xd)
        for c in range(2):
            mu = xd[:, c].mean()
            var = ((xd[:, c] - mu) ** 2).mean()
            expected[:, c] = gamma[c] * (xd[:, c] - mu) / np.sqrt(var + eps) + beta[c]
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_inference_uses_running_stats(self):
        stats = bn_buffers([2.0], [4.0])
        x = T.Tensor4(np.full((1, 1, 2, 2), 4.0))
        out = T.batch_norm(x, T.Tensor4.vector([1.0]), T.Tensor4.vector([0.0]),
                           *stats, training=False)
        np.testing.assert_allclose(out.data, (4.0 - 2.0) / np.sqrt(4.0 + 1e-5), rtol=1e-12)

    def test_degenerate_batch_raises(self):
        x = T.Tensor4(np.zeros((1, 3, 1, 1)))
        with pytest.raises(NumericError):
            T.batch_norm(x, T.Tensor4.vector(np.ones(3)), T.Tensor4.vector(np.zeros(3)),
                         *fresh_buffers(3), training=True)

    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    @pytest.mark.parametrize("which, shape", [
        (0, (1, 4, 1, 1)), (1, (1, 4, 1, 1)), (0, (3, 1, 1, 1)), (1, (1, 1, 1, 3)),
    ], ids=["mean_wide", "var_wide", "mean_transposed", "var_transposed"])
    def test_running_stat_of_wrong_shape_raises_shape_error(self, training, which, shape):
        stats = list(fresh_buffers(3))
        stats[which] = T.Tensor4(np.ones(shape))
        x = T.Tensor4(np.random.default_rng(10).standard_normal((2, 3, 4, 4)))
        with pytest.raises(ShapeError, match=r"running_var must be \(1,3,1,1\)"):
            T.batch_norm(x, T.Tensor4.vector(np.ones(3)), T.Tensor4.vector(np.zeros(3)),
                         *stats, training=training)
        assert stats[which].data.shape == shape  # raised before any update

    def test_running_stats_momentum_update(self):
        mean, var = fresh_buffers(1)
        x = T.Tensor4(np.arange(8.0).reshape(1, 1, 2, 4))
        T.batch_norm(x, T.Tensor4.vector([1.0]), T.Tensor4.vector([0.0]), mean, var, training=True)
        assert mean.item() == pytest.approx(0.9 * 0.0 + 0.1 * 3.5)
        assert var.item() == pytest.approx(0.9 * 1.0 + 0.1 * np.arange(8.0).var())


class TestActivation:
    def test_sigmoid_at_zero(self):
        assert T.activation(T.Tensor4.scalar(0.0), "sigmoid").item() == pytest.approx(0.5)

    def test_silu_at_zero(self):
        assert T.activation(T.Tensor4.scalar(0.0), "silu").item() == pytest.approx(0.0)

    def test_sigmoid_at_two_scalar_oracle(self):
        expected = 1.0 / (1.0 + np.exp(-2.0))
        assert T.activation(T.Tensor4.scalar(2.0), "sigmoid").item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.880797, abs=1e-6)

    def test_relu_clamps_negatives(self):
        x = T.Tensor4(np.array([-2.0, 0.0, 3.0]).reshape(1, 3, 1, 1))
        np.testing.assert_array_equal(
            T.activation(x, "relu").data.reshape(-1), [0.0, 0.0, 3.0])

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            T.activation(T.Tensor4.scalar(0.0), "tanh")

    @pytest.mark.parametrize("kind", ["sigmoid", "silu"])
    def test_float32_far_negative_is_zero_with_finite_gradient(self, kind):
        # exp(-x) overflows float32 below about -88; warnings fail the suite
        x = T.Tensor4(np.array([-100.0, -1e4], dtype=np.float32).reshape(1, 2, 1, 1),
                      requires_grad=True)
        out = T.activation(x, kind)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, 0.0)
        T.backward(T.sum_all(out))
        assert np.isfinite(x.grad).all()


class TestChannelShuffle:
    def test_single_group_identity(self):
        rng = np.random.default_rng(10)
        x = T.Tensor4(rng.standard_normal((1, 6, 3, 3)))
        np.testing.assert_array_equal(T.channel_shuffle(x, 1).data, x.data)

    def test_explicit_permutation_c4_g2(self):
        x = T.Tensor4(np.arange(4.0).reshape(1, 4, 1, 1))
        out = T.channel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data.reshape(-1), [0.0, 2.0, 1.0, 3.0])

    def test_matches_reshape_transpose_oracle(self):
        rng = np.random.default_rng(11)
        xd = rng.standard_normal((2, 12, 3, 3))
        out = T.channel_shuffle(T.Tensor4(xd), 3)
        oracle = xd.reshape(2, 3, 4, 3, 3).transpose(0, 2, 1, 3, 4).reshape(2, 12, 3, 3)
        np.testing.assert_array_equal(out.data, oracle)

    def test_twice_with_two_groups_is_identity_on_c4(self):
        rng = np.random.default_rng(12)
        x = T.Tensor4(rng.standard_normal((1, 4, 2, 2)))
        twice = T.channel_shuffle(T.channel_shuffle(x, 2), 2)
        np.testing.assert_array_equal(twice.data, x.data)

    def test_is_permutation(self):
        rng = np.random.default_rng(13)
        xd = rng.standard_normal((1, 8, 2, 2))
        out = T.channel_shuffle(T.Tensor4(xd), 4)
        assert out.data.sum() == pytest.approx(xd.sum())
        np.testing.assert_array_equal(np.sort(out.data.reshape(-1)), np.sort(xd.reshape(-1)))

    def test_indivisible_raises(self):
        with pytest.raises(ConfigError):
            T.channel_shuffle(T.Tensor4(np.zeros((1, 5, 2, 2))), 2)

    @pytest.mark.parametrize("n", [1, 3])
    def test_output_and_gradient_are_fresh_and_c_contiguous(self, n):
        x = T.Tensor4(np.random.default_rng(14).standard_normal((n, 6, 3, 4)),
                      requires_grad=True)
        out = T.channel_shuffle(x, 2)
        assert out.data.flags.c_contiguous and not np.shares_memory(out.data, x.data)
        g = np.random.default_rng(15).standard_normal(out.shape)
        (gx,) = out.op.backward_fn(g)
        assert gx.flags.c_contiguous and not np.shares_memory(gx, g)
        np.testing.assert_array_equal(T.channel_shuffle(T.Tensor4(gx), 2).data, g)


class TestBilinearSample:
    def test_integer_coords_exact(self):
        x = T.Tensor4(np.arange(16.0).reshape(1, 1, 4, 4))
        coords = np.zeros((1, 2, 2, 2))
        coords[0, 0] = [[0, 1], [2, 3]]  # y
        coords[0, 1] = [[0, 3], [1, 2]]  # x
        out = T.bilinear_sample(x, T.Tensor4(coords))
        np.testing.assert_allclose(out.data[0, 0], [[0.0, 7.0], [9.0, 14.0]], atol=1e-12)

    def test_horizontal_midpoint_is_mean(self):
        x = T.Tensor4(np.array([[1.0, 3.0]]).reshape(1, 1, 1, 2))
        coords = np.array([0.0, 0.5]).reshape(1, 2, 1, 1)
        out = T.bilinear_sample(x, T.Tensor4(coords))
        assert out.item() == pytest.approx(2.0)

    def test_far_outside_is_zero(self):
        x = T.Tensor4(np.ones((1, 1, 4, 4)))
        coords = np.array([-5.0, -5.0]).reshape(1, 2, 1, 1)
        assert T.bilinear_sample(x, T.Tensor4(coords)).item() == 0.0

    def test_nonfinite_coords_raise(self):
        x = T.Tensor4(np.ones((1, 1, 4, 4)))
        coords = np.array([np.nan, 0.0]).reshape(1, 2, 1, 1)
        with pytest.raises(NumericError):
            T.bilinear_sample(x, T.Tensor4(coords))

    def test_multi_point_equals_weighted_single_point_sum(self):
        rng = np.random.default_rng(3)
        x = T.Tensor4(rng.standard_normal((2, 3, 6, 6)))
        coords = rng.uniform(-2.0, 7.5, size=(2, 10, 4, 5))  # K=5, some outside
        point_w = rng.standard_normal(5)
        out = T.bilinear_sample(x, T.Tensor4(coords), T.Tensor4(point_w.reshape(1, 5, 1, 1)))
        ref = sum(point_w[k] * T.bilinear_sample(x, T.Tensor4(coords[:, 2 * k:2 * k + 2])).data
                  for k in range(5))
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("channels, point_w_shape", [
        (3, None),                # odd coordinate channels
        (10, (1, 4, 1, 1)),       # 5 points, 4 weights
        (10, (2, 5, 1, 1)),       # per-image weights are not supported
        (10, None),               # 5 points without weights
    ])
    def test_multi_point_shape_errors(self, channels, point_w_shape):
        x = T.Tensor4(np.ones((1, 2, 4, 4)))
        coords = T.Tensor4(np.zeros((1, channels, 2, 2)))
        point_w = None if point_w_shape is None else T.Tensor4(np.ones(point_w_shape))
        with pytest.raises(ShapeError):
            T.bilinear_sample(x, coords, point_w)


class TestPoolGlobal:
    def test_constant_field(self):
        x = T.Tensor4(np.full((1, 2, 3, 3), 7.0))
        for kind in ("avg", "max"):
            out = T.pool_global(x, kind)
            assert out.shape == (1, 2, 1, 1)
            np.testing.assert_allclose(out.data.reshape(-1), 7.0)

    def test_avg_arithmetic(self):
        x = T.Tensor4(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert T.pool_global(x, "avg").item() == pytest.approx(2.5)

    def test_max_definition(self):
        x = T.Tensor4(np.array([-1.0, -7.0]).reshape(1, 1, 1, 2))
        assert T.pool_global(x, "max").item() == pytest.approx(-1.0)


class TestDropout:
    def test_p_zero_identity(self):
        rng = np.random.default_rng(14)
        x = T.Tensor4(rng.standard_normal((1, 2, 3, 3)))
        out = T.dropout(x, 0.0, training=True, seed=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        rng = np.random.default_rng(15)
        x = T.Tensor4(rng.standard_normal((1, 2, 3, 3)))
        out = T.dropout(x, 0.7, training=False, seed=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_survivor_fraction_monte_carlo(self):
        x = T.Tensor4(np.ones((1, 16, 250, 250)))  # 1e6 elements
        out = T.dropout(x, 0.5, training=True, seed=123)
        frac = np.count_nonzero(out.data) / out.data.size
        assert abs(frac - 0.5) < 0.01
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 2.0)  # inverted scaling by 1/(1-p)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        xd = rng.standard_normal((1, 4, 8, 8))
        a = T.dropout(T.Tensor4(xd), 0.3, training=True, seed=42)
        b = T.dropout(T.Tensor4(xd), 0.3, training=True, seed=42)
        np.testing.assert_array_equal(a.data, b.data)

    def test_keeps_float32(self):
        x = T.Tensor4(np.ones((1, 2, 4, 4), dtype=np.float32), requires_grad=True)
        out = T.dropout(x, 0.5, training=True, seed=3)
        T.backward(T.sum_all(out))
        assert out.dtype == np.float32 and x.grad.dtype == np.float32

    def test_invalid_probability(self):
        x = T.Tensor4(np.zeros((1, 1, 1, 2)))
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, training=True, seed=0)


class TestConcatSplit:
    def test_singleton_concat(self):
        rng = np.random.default_rng(17)
        x = T.Tensor4(rng.standard_normal((1, 3, 2, 2)))
        np.testing.assert_array_equal(T.concat_channels([x]).data, x.data)

    def test_channel_counts_and_order(self):
        a = T.Tensor4(np.full((1, 2, 2, 2), 1.0))
        b = T.Tensor4(np.full((1, 3, 2, 2), 2.0))
        out = T.concat_channels([a, b])
        assert out.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_split_then_concat_identity_every_point(self):
        rng = np.random.default_rng(18)
        x = T.Tensor4(rng.standard_normal((2, 6, 3, 3)))
        for cut in range(1, 6):
            parts = [T.slice_channels(x, 0, cut), T.slice_channels(x, cut, 6)]
            back = T.concat_channels(parts)
            np.testing.assert_array_equal(back.data, x.data)

    def test_spatial_mismatch_raises(self):
        a = T.Tensor4(np.zeros((1, 2, 3, 3)))
        b = T.Tensor4(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeError):
            T.concat_channels([a, b])


class TestDeterminism:
    def test_forward_primitives_bit_identical(self):
        rng = np.random.default_rng(19)
        xd = rng.standard_normal((1, 4, 6, 6))
        wd = rng.standard_normal((4, 4, 3, 3))

        def run():
            x = T.Tensor4(xd.copy())
            w = T.Tensor4(wd.copy())
            y = T.conv2d(x, w, pad=1)
            y = T.activation(y, "silu")
            y = T.channel_shuffle(y, 2)
            y = T.pool_global(y, "avg")
            return y.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestBufferReuse:
    """The forward ops write into fresh buffers in place: each equals the
    plain-expression formula bit for bit, and leaves its inputs alone."""

    DTYPES = [np.float32, np.float64]

    @staticmethod
    def arrays(dtype, *shapes, seed=23):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(s) * 3.0).astype(dtype) for s in shapes]

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_logistic(self, dtype):
        (x,) = self.arrays(dtype, (2, 3, 5, 5))
        x[0, 0, 0, :3] = (-100.0, 100.0, 0.0)  # exp overflow in float32, saturation
        before = x.copy()
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        self.assert_same(T._logistic(x), want)
        self.assert_same(x, before)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batch_norm_inference(self, dtype):
        x, gamma, beta = self.arrays(dtype, (2, 4, 5, 5), (1, 4, 1, 1), (1, 4, 1, 1))
        rng = np.random.default_rng(24)
        stats = bn_buffers(rng.normal(0.0, 1.0, 4), rng.uniform(0.2, 3.0, 4))
        inputs = [a.copy() for a in (x, gamma, beta, stats[0].data, stats[1].data)]
        out = T.batch_norm(T.Tensor4(x), T.Tensor4(gamma), T.Tensor4(beta), *stats,
                           training=False)
        inv_std = (1.0 / np.sqrt(stats[1].data + 1e-5)).astype(dtype)
        mean = stats[0].data.astype(dtype)
        self.assert_same(out.data, gamma * ((x - mean) * inv_std) + beta)
        for a, b in zip((x, gamma, beta, stats[0].data, stats[1].data), inputs):
            self.assert_same(a, b)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batch_norm_training(self, dtype):
        x, gamma, beta = self.arrays(dtype, (2, 4, 5, 5), (1, 4, 1, 1), (1, 4, 1, 1))
        before = x.copy()
        out = T.batch_norm(T.Tensor4(x), T.Tensor4(gamma), T.Tensor4(beta),
                           *fresh_buffers(4), training=True)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        inv_std = 1.0 / np.sqrt(x.var(axis=(0, 2, 3), keepdims=True) + 1e-5)
        self.assert_same(out.data, gamma * ((x - mean) * inv_std) + beta)
        self.assert_same(x, before)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("groups", [1, 2, 6])
    def test_conv_bias(self, dtype, groups):
        x, w, b = self.arrays(dtype, (2, 6, 7, 7), (6, 6 // groups, 3, 3), (1, 6, 1, 1))
        inputs = [a.copy() for a in (x, w, b)]
        plain = T.conv2d(T.Tensor4(x), T.Tensor4(w), stride=2, pad=1, groups=groups)
        out = T.conv2d(T.Tensor4(x), T.Tensor4(w), T.Tensor4(b), stride=2, pad=1, groups=groups)
        self.assert_same(out.data, plain.data + b)
        for a, b_ in zip((x, w, b), inputs):
            self.assert_same(a, b_)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_taps(self, dtype, stride):
        x, w = self.arrays(dtype, (2, 5, 8, 8), (5, 1, 3, 3))
        inputs = [x.copy(), w.copy()]
        out = T.conv2d(T.Tensor4(x), T.Tensor4(w), stride=stride, pad=1, groups=5)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ho = (xp.shape[2] - 3) // stride + 1
        want = np.zeros((2, 5, ho, ho), dtype=dtype)
        for i in range(3):
            for j in range(3):
                seg = xp[:, :, i:i + stride * ho:stride, j:j + stride * ho:stride]
                want += seg * w[:, 0, i, j][None, :, None, None]
        self.assert_same(out.data, want)
        self.assert_same(x, inputs[0])
        self.assert_same(w, inputs[1])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bilinear_gather(self, dtype):
        x, coords = self.arrays(dtype, (2, 3, 6, 6), (2, 2, 4, 4))
        coords = np.abs(coords)  # mostly inside the 6 x 6 frame, some past its edge
        before = x.copy()
        out = T.bilinear_sample(T.Tensor4(x), coords)
        flat = x.reshape(2, 3, 36)
        y, xx = coords[:, 0].reshape(2, 16), coords[:, 1].reshape(2, 16)
        y0, x0 = np.floor(y), np.floor(xx)
        fy, fx = y - y0, xx - x0
        want = np.zeros((2, 3, 16), dtype=dtype)
        for dy, dx, wgt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                            (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
            yc, xc = y0 + dy, x0 + dx
            valid = (yc >= 0) & (yc <= 5) & (xc >= 0) & (xc <= 5)
            idx = (np.clip(yc, 0, 5) * 6 + np.clip(xc, 0, 5)).astype(np.int64)
            cast = (np.ones((1, 1)) * wgt * valid).astype(dtype)
            for b in range(2):
                want[b] += np.take(flat[b], idx[b], axis=1) * cast[b]
        self.assert_same(out.data, want.reshape(2, 3, 4, 4))
        self.assert_same(x, before)


class TestUnrecordedForward:
    """An op that no tape records builds only its output: the output equals
    the recorded op's, the input is left alone, and unrecorded SiLU writes
    into a buffer of its own, not into its input."""

    OPS = {
        "silu": lambda x: T.activation(x, "silu"),
        "channel_max": lambda x: T.channel_reduce(x, "max"),
        "pool_max": lambda x: T.pool_global(x, "max"),
        "batch_norm": lambda x: T.batch_norm(
            x, T.Tensor4(np.linspace(0.5, 1.5, 4).reshape(1, 4, 1, 1).astype(x.dtype)),
            T.Tensor4(np.linspace(-0.3, 0.3, 4).reshape(1, 4, 1, 1).astype(x.dtype)),
            *bn_buffers([0.5, -1.0, 0.0, 2.0], [0.3, 1.0, 2.0, 0.7]),
            training=False),
    }

    @staticmethod
    def input(dtype):
        rng = np.random.default_rng(31)
        x = (rng.standard_normal((2, 4, 5, 5)) * 40.0).astype(dtype)
        x[0, :, 0, 0] = (0.0, -0.0, -0.0, 0.0)  # a channel max over signed zeros
        x[1, 2] = -np.abs(x[1, 2])
        x[1, 2, 1, 1] = -0.0  # channel 2's pool max of image 1 is a signed zero
        x[1, 2, 3, 3] = 0.0
        x[0, 1, 2] = (-89.0, -100.0, -1000.0, 88.5, -0.0)  # float32 exp(-x) overflows below -88
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_matches_recorded(self, op, dtype):
        xd = self.input(dtype)
        before = xd.copy()
        recorded = self.OPS[op](T.Tensor4(xd, requires_grad=True))
        with T.no_grad():
            unrecorded = self.OPS[op](T.Tensor4(xd))
        assert recorded.op is not None and unrecorded.op is None
        assert unrecorded.data.dtype == recorded.data.dtype == dtype
        np.testing.assert_array_equal(unrecorded.data, recorded.data)
        assert xd.tobytes() == before.tobytes()
        if op == "silu":
            assert not np.shares_memory(unrecorded.data, xd)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [1, None], ids=["one_channel_blocks", "default_blocks"])
    def test_silu_in_place(self, dtype, block, monkeypatch):
        """``silu_`` unrecorded overwrites its input, block by block, with
        silu's bytes; recorded, it is silu and leaves its input alone."""
        xd = self.input(dtype)
        want = T.silu(T.Tensor4(xd.copy())).data
        if block is not None:
            monkeypatch.setattr(T, "_BROADCAST_BLOCK_BYTES", block)
        x = T.Tensor4(xd.copy())
        out = T.silu_(x)
        assert out is x and out.op is None
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        recorded = T.silu_(T.Tensor4(xd, requires_grad=True))
        assert recorded.op is not None and recorded.data.tobytes() == want.tobytes()
        assert xd.tobytes() == self.input(dtype).tobytes()


def stored_npz(path, members: dict[str, bytes], compression=zipfile.ZIP_STORED):
    """A zip holding the given member bytes, so that only the NPY layer is bad."""
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, raw in members.items():
            zf.writestr(name, raw)
    return path


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


class TestSnapshotFormat:
    """Tensor records of a checkpoint: one NPY member per state array in the
    uncompressed ``.npz`` file that ``blocks.save_checkpoint`` writes."""

    def test_round_trip(self, tmp_path):
        # a NaN payload, a negative NaN, signed zeros, infinities, subnormals
        bits32 = [0x7FC00123, 0xFFC00000, 0x80000000, 0, 0x7F800000, 0xFF800000,
                  1, 0x80000001, 0x7F7FFFFF, 0x3EAAAAAB]
        src = B.BatchNormLayer("bn", 10, dtype=np.float32)
        src.gamma.data = np.array(bits32, dtype=np.uint32).view(np.float32).reshape(1, 10, 1, 1)
        src.running_mean.data = (np.array([b << 32 | b for b in bits32], dtype=np.uint64)
                                 .view(np.float64).reshape(1, 10, 1, 1))
        B.save_checkpoint(src, tmp_path / "bn.npz")
        dst = B.BatchNormLayer("bn", 10, dtype=np.float32)
        B.load_checkpoint(dst, tmp_path / "bn.npz")
        for (_, a), (_, b) in zip(src.state_arrays(), dst.state_arrays(), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_header_layout(self, tmp_path):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2), rng=np.random.default_rng(38))
        B.save_checkpoint(blk, tmp_path / "w.npz")
        with zipfile.ZipFile(tmp_path / "w.npz") as zf:
            infos = zf.infolist()
            assert [i.filename for i in infos] == [f"{n}.npy" for n, _ in blk.state_arrays()]
            assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
            for info, (_, arr) in zip(infos, blk.state_arrays()):
                with zf.open(info) as fh:
                    assert npformat.read_magic(fh) == (1, 0)
                    assert npformat.read_array_header_1_0(fh) == (arr.shape, False, arr.dtype)
        assert "gs.cbs.bn.running_mean.npy" in [i.filename for i in infos]

    def test_bad_magic_raises(self, tmp_path):
        blk = B.Conv2dLayer("c", 2, 3, 1)
        (tmp_path / "not_a_zip.npz").write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ParseError):
            B.load_checkpoint(blk, tmp_path / "not_a_zip.npz")
        member = b"XXXX" + npy_bytes(blk.weight.data)[4:]
        with pytest.raises(ParseError, match="c.weight.npy"):
            B.load_checkpoint(blk, stored_npz(tmp_path / "bad.npz", {"c.weight.npy": member}))

    @given(st.data())
    def test_any_cut_raises_parse_error(self, tmp_path_factory, data):
        raw = npy_bytes(np.ones((2, 1, 3, 2), dtype=np.float32))
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = stored_npz(tmp_path_factory.mktemp("cut") / "w.npz", {"t.npy": raw[:cut]})
        with pytest.raises(ParseError):
            B.load_checkpoint(B.Conv2dLayer("c", 2, 3, 1), path)

    @pytest.mark.parametrize("dims", [
        (16384, 16384, 256, 1),  # 256 GiB of payload, which a read would try to allocate
        (65536,) * 4,  # 2**66 bytes, past int64
        (0, 2 ** 64 - 1, 1, 1),  # no payload, but a dim past numpy's limit
    ])
    def test_oversized_header_raises_without_allocating(self, tmp_path, dims):
        header = io.BytesIO()
        npformat.write_array_header_1_0(header, {"descr": "<f4", "fortran_order": False,
                                                 "shape": dims})
        path = stored_npz(tmp_path / "big.npz", {"t.npy": header.getvalue() + bytes(64)})
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                B.load_checkpoint(B.Conv2dLayer("c", 2, 3, 1), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_member_size_past_the_file_raises_without_allocating(self, tmp_path):
        header = io.BytesIO()
        npformat.write_array_header_1_0(header, {"descr": "<f4", "fortran_order": False,
                                                 "shape": (1, 1 << 24, 1, 1)})
        path = stored_npz(tmp_path / "w.npz", {"t.npy": header.getvalue() + bytes(64)})
        # the central directory's uncompressed size agrees with the header, a
        # 64 MiB member; its compressed size stays honest
        raw = bytearray(path.read_bytes())
        at = raw.index(b"PK\x01\x02") + 24  # uncompressed size
        raw[at:at + 4] = struct.pack("<I", len(header.getvalue()) + (4 << 24))
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="member t.npy: want a stored member that fits"):
                B.load_checkpoint(B.Conv2dLayer("c", 2, 3, 1), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # inside the magic, the header length, the header dict, and the payload
    @pytest.mark.parametrize("cut", [6, 8, 20, 39, 135])
    def test_truncated_record_raises(self, tmp_path, cut):
        raw = npy_bytes(np.zeros((1, 2, 3, 4), dtype=np.float32))
        path = stored_npz(tmp_path / "w.npz", {"t.npy": raw[:cut]})
        want = "want a float array" if cut > 128 else "EOF"  # the header ends at byte 128
        with pytest.raises(ParseError, match=f"member t.npy: {want}"):
            B.load_checkpoint(B.Conv2dLayer("c", 2, 3, 1), path)
