"""Block contracts: shapes, degeneracies, permutation structure, gradients."""

import numpy as np
import pytest

from irstkit import blocks as B
from irstkit import tensor as T
from irstkit.errors import ConfigError, DataError, ParseError, ShapeError
from irstkit.tensor import Tensor4

RNG = np.random.default_rng(7)


def rand_input(shape, seed=0):
    return Tensor4(np.random.default_rng(seed).standard_normal(shape))


def zero_params(module):
    for p in module.parameters():
        p.value.data = np.zeros_like(p.value.data)


def fd_block(module, x, tol=1e-5, **fw):
    # the small step keeps the probe off piecewise-linear kinks (bilinear
    # cell boundaries, pooling argmax flips); roundoff stays ~1e-9 at 64-bit
    proj = Tensor4.const(RNG.standard_normal(module(x, **fw).shape))

    def closure(t):
        return T.sum_all(T.mul(module(t, **fw), proj))

    report = T.grad_check(closure, [Tensor4(x.data.copy())], tolerance=tol, eps=1e-5)
    assert report.passed, f"{module.name}: max rel err {report.max_rel_error:.2e}"


class TestCBAM:
    def test_zero_weights_quarter_scaling(self):
        cbam = B.CBAM("cbam", 8, reduction=4)
        zero_params(cbam)
        x = rand_input((2, 8, 5, 5), seed=1)
        out = cbam(x)
        np.testing.assert_allclose(out.data, 0.25 * x.data, atol=1e-12)

    def test_output_shape_matches_input(self):
        for shape in ((1, 8, 3, 3), (2, 16, 7, 5)):
            cbam = B.CBAM("cbam", shape[1], reduction=4)
            x = rand_input(shape, seed=2)
            assert cbam(x).shape == shape

    def test_gate_values_in_open_interval(self):
        cbam = B.CBAM("cbam", 8, reduction=4, rng=np.random.default_rng(3))
        x = rand_input((2, 8, 6, 6), seed=3)
        avg = T.pool_global(x, "avg")
        mx = T.pool_global(x, "max")
        att = T.add(cbam.fc2(T.relu(cbam.fc1(avg))), cbam.fc2(T.relu(cbam.fc1(mx))))
        channel_gate = T.sigmoid(att).data
        assert np.all(channel_gate > 0) and np.all(channel_gate < 1)
        gated = T.mul(x, T.sigmoid(att))
        smap = T.concat_channels([T.channel_reduce(gated, "mean"),
                                  T.channel_reduce(gated, "max")])
        spatial_gate = T.sigmoid(cbam.spatial(smap)).data
        assert np.all(spatial_gate > 0) and np.all(spatial_gate < 1)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError):
            B.CBAM("cbam", 6, reduction=4)

    def test_gradient(self):
        cbam = B.CBAM("cbam", 4, reduction=4, rng=np.random.default_rng(4))
        fd_block(cbam, rand_input((1, 4, 6, 6), seed=4))


class TestMBConv:
    def test_hidden_width_is_expansion_times_input(self):
        cfg = B.MBConvConfig(c_in=16, c_out=32, expansion=6)
        block = B.MBConvBlock("mb", cfg)
        assert cfg.hidden == 96
        assert block.dw.c_in == 96

    def test_zero_projection_residual_identity(self):
        cfg = B.MBConvConfig(c_in=8, c_out=8, stride=1)
        block = B.MBConvBlock("mb", cfg, rng=np.random.default_rng(5))
        block.project.weight.value.data[:] = 0.0
        x = rand_input((2, 8, 6, 6), seed=5)
        out = block(x, training=False)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_no_residual_when_channels_differ(self):
        cfg = B.MBConvConfig(c_in=8, c_out=16)
        assert not cfg.has_residual
        block = B.MBConvBlock("mb", cfg, rng=np.random.default_rng(6))
        block.project.weight.value.data[:] = 0.0
        x = rand_input((1, 8, 6, 6), seed=6)
        out = block(x, training=False)
        # zeroed main path and no skip: the output collapses to the BN shift
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_residual_condition_per_config(self):
        assert B.MBConvConfig(8, 8, stride=1).has_residual
        assert not B.MBConvConfig(8, 8, stride=2).has_residual
        assert not B.MBConvConfig(8, 16, stride=1).has_residual

    def test_stride_halves_spatial(self):
        block = B.MBConvBlock("mb", B.MBConvConfig(4, 8, stride=2),
                              rng=np.random.default_rng(7))
        out = block(rand_input((1, 4, 8, 8), seed=7))
        assert out.shape == (1, 8, 4, 4)

    def test_expansion_one_skips_expand_conv(self):
        block = B.MBConvBlock("mb", B.MBConvConfig(8, 8, expansion=1),
                              rng=np.random.default_rng(8))
        assert block.expand is None

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            B.MBConvConfig(8, 8, kernel=4)

    def test_gradient(self):
        block = B.MBConvBlock("mb", B.MBConvConfig(4, 4, attn_reduction=4),
                              rng=np.random.default_rng(9))
        fd_block(block, rand_input((1, 4, 6, 6), seed=9))


class TestPartialConv:
    def test_untouched_channels_bitwise_equal(self):
        pc = B.PartialConv("pc", 8, 0.25, rng=np.random.default_rng(10))
        x = rand_input((2, 8, 5, 5), seed=10)
        out = pc(x)
        np.testing.assert_array_equal(out.data[:, 2:], x.data[:, 2:])

    def test_delta_kernel_identity(self):
        pc = B.PartialConv("pc", 8, 0.25)
        w = np.zeros_like(pc.conv.weight.value.data)
        for c in range(pc.cp):
            w[c, c, 1, 1] = 1.0
        pc.conv.weight.value.data = w
        x = rand_input((1, 8, 5, 5), seed=11)
        np.testing.assert_allclose(pc(x).data, x.data, atol=1e-12)

    def test_quarter_ratio_channel_count(self):
        assert B.PartialConv("pc", 8, 0.25).cp == 2
        assert B.BSConfig(c=8).conv_channels == 2
        assert B.BSConfig(c=10).conv_channels == 3  # ceil rounding

    def test_gradient(self):
        pc = B.PartialConv("pc", 8, 0.25, rng=np.random.default_rng(12))
        fd_block(pc, rand_input((1, 8, 6, 6), seed=12))


class TestBSBlock:
    def test_zero_projection_is_identity_in_inference(self):
        block = B.BSBlock("bs", B.BSConfig(c=8), rng=np.random.default_rng(13))
        block.mlp_out.weight.value.data[:] = 0.0
        block.mlp_out.bias.value.data[:] = 0.0
        x = rand_input((2, 8, 5, 5), seed=13)
        np.testing.assert_allclose(block(x, training=False).data, x.data, atol=1e-12)

    def test_shape_preserved(self):
        block = B.BSBlock("bs", B.BSConfig(c=12), rng=np.random.default_rng(14))
        x = rand_input((2, 12, 7, 7), seed=14)
        assert block(x).shape == x.shape

    def test_zeroed_branch_jacobian_is_identity(self):
        block = B.BSBlock("bs", B.BSConfig(c=4), rng=np.random.default_rng(15))
        block.mlp_out.weight.value.data[:] = 0.0
        block.mlp_out.bias.value.data[:] = 0.0
        x = Tensor4(RNG.standard_normal((1, 4, 4, 4)), requires_grad=True)
        proj = Tensor4.const(RNG.standard_normal(x.shape))
        out = T.sum_all(T.mul(block(x), proj))
        T.backward(out)
        np.testing.assert_allclose(x.grad, proj.data, atol=1e-12)

    def test_gradient(self):
        block = B.BSBlock("bs", B.BSConfig(c=8), rng=np.random.default_rng(16))
        fd_block(block, rand_input((1, 8, 6, 6), seed=16))


class TestGSConv:
    def test_output_shape_doubles_channels_halves_spatial(self):
        block = B.GSConvBlock("gs", B.GSConvConfig(c_in=8, c_out=16, stride=2),
                              rng=np.random.default_rng(17))
        out = block(rand_input((2, 8, 8, 8), seed=17))
        assert out.shape == (2, 32, 4, 4)

    def test_delta_depthwise_interleaves_identical_pairs(self):
        block = B.GSConvBlock("gs", B.GSConvConfig(c_in=4, c_out=6, stride=2),
                              rng=np.random.default_rng(18))
        w = np.zeros_like(block.dw.weight.value.data)
        w[:, 0, 1, 1] = 1.0
        block.dw.weight.value.data = w
        out = block(rand_input((1, 4, 8, 8), seed=18)).data
        np.testing.assert_array_equal(out[:, 0::2], out[:, 1::2])

    def test_single_group_shuffle_is_plain_concat(self):
        rng = np.random.default_rng(19)
        b1 = B.GSConvBlock("gs", B.GSConvConfig(4, 6, stride=2, shuffle_groups=1), rng=rng)
        x = rand_input((1, 4, 8, 8), seed=19)
        out = b1(x)
        fc = b1.cbs(x)
        fd = b1.dw(fc)
        expected = T.concat_channels([fc, fd])
        np.testing.assert_array_equal(out.data, expected.data)

    def test_gradient(self):
        block = B.GSConvBlock("gs", B.GSConvConfig(4, 4, stride=2),
                              rng=np.random.default_rng(20))
        fd_block(block, rand_input((1, 4, 6, 6), seed=20))


class TestGSBottleneck:
    def test_zeroed_second_stage_identity(self):
        block = B.GSBottleneck("gsb", 8, rng=np.random.default_rng(21))
        block.gs2.cbs.conv.weight.value.data[:] = 0.0
        block.gs2.dw.weight.value.data[:] = 0.0
        x = rand_input((2, 8, 5, 5), seed=21)
        np.testing.assert_allclose(block(x, training=False).data, x.data, atol=1e-12)

    def test_shape_preserved(self):
        block = B.GSBottleneck("gsb", 12, rng=np.random.default_rng(22))
        x = rand_input((1, 12, 6, 6), seed=22)
        assert block(x).shape == x.shape

    def test_gradient_flows_through_branch_and_skip(self):
        block = B.GSBottleneck("gsb", 4, rng=np.random.default_rng(23))
        x = Tensor4(RNG.standard_normal((1, 4, 5, 5)), requires_grad=True)
        T.backward(T.sum_all(block(x)))
        full_grad = x.grad.copy()
        block.gs2.cbs.conv.weight.value.data[:] = 0.0
        block.gs2.dw.weight.value.data[:] = 0.0
        x.zero_grad()
        T.backward(T.sum_all(block(x)))
        skip_only = x.grad.copy()
        np.testing.assert_allclose(skip_only, np.ones_like(skip_only), atol=1e-12)
        assert not np.allclose(full_grad, skip_only)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            B.GSBottleneck("gsb", 7)

    def test_gradient(self):
        block = B.GSBottleneck("gsb", 4, rng=np.random.default_rng(24))
        fd_block(block, rand_input((1, 4, 6, 6), seed=24))


class TestVKBaseCoords:
    def test_k5_raw_lattice_before_centering(self):
        pts = B.vk_base_coords(5)
        raw = pts + np.array([[0.4, 0.8]])  # add back the K=5 centroid
        np.testing.assert_allclose(raw, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)],
                                   atol=1e-12)

    def test_k5_shape(self):
        assert B.vk_base_coords(5).shape == (5, 2)

    def test_k1_single_origin_point(self):
        np.testing.assert_array_equal(B.vk_base_coords(1), [[0.0, 0.0]])

    def test_points_distinct_and_grid_bounded(self):
        for k in range(1, 17):
            pts = B.vk_base_coords(k)
            assert len({tuple(p) for p in pts}) == k
            side = int(np.ceil(np.sqrt(k)))
            spans = pts.max(axis=0) - pts.min(axis=0)
            assert (spans <= side - 1 + 1e-12).all()

    def test_zero_centered(self):
        for k in (1, 3, 5, 9, 12):
            np.testing.assert_allclose(B.vk_base_coords(k).mean(axis=0), 0.0, atol=1e-12)


def naive_fixed_gather(xd, base, point_w, stride):
    """Direct-loop bilinear gather at the zero-offset base pattern."""
    n, c, h, w = xd.shape
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for k, (dy, dx) in enumerate(base):
                        y = i * stride + dy
                        x = j * stride + dx
                        y0, x0 = int(np.floor(y)), int(np.floor(x))
                        fy, fx = y - y0, x - x0
                        val = 0.0
                        for oy, ox, wt in ((0, 0, (1 - fy) * (1 - fx)),
                                           (0, 1, (1 - fy) * fx),
                                           (1, 0, fy * (1 - fx)),
                                           (1, 1, fy * fx)):
                            yy, xx = y0 + oy, x0 + ox
                            if 0 <= yy < h and 0 <= xx < w:
                                val += wt * xd[b, ch, yy, xx]
                        acc += point_w[k] * val
                    out[b, ch, i, j] = acc
    return out


class TestVKConv:
    def test_zero_offsets_match_fixed_pattern_gather_oracle(self):
        cfg = B.VKConvConfig(c_in=3, c_out=4, num_params=5)
        vk = B.VKConv("vk", cfg, rng=np.random.default_rng(25))
        x = rand_input((2, 3, 6, 6), seed=25)
        # offsets are zero-initialized, so sampling sits on the base pattern
        acc_oracle = naive_fixed_gather(x.data, vk.base,
                                        vk.point_w.value.data.reshape(-1), cfg.stride)
        out = vk(x, training=False)
        expected = T.silu(vk.bn(vk.project(Tensor4(acc_oracle)), training=False))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_doubling_alpha_doubles_displacement(self):
        cfg = B.VKConvConfig(c_in=2, c_out=2, num_params=3)
        vk = B.VKConv("vk", cfg, rng=np.random.default_rng(26))
        rng = np.random.default_rng(27)
        vk.offset_conv.weight.value.data = rng.normal(
            0, 0.5, vk.offset_conv.weight.value.data.shape)
        x = rand_input((1, 2, 5, 5), seed=27)

        def displacements():
            coords = vk.sample_coords(x).data
            disp = []
            for k in range(cfg.num_params):
                gy = np.arange(5)[:, None] * cfg.stride + vk.base[k, 0]
                gx = np.arange(5)[None, :] * cfg.stride + vk.base[k, 1]
                coord = coords[:, 2 * k:2 * k + 2]
                disp.append(coord - np.stack(np.broadcast_arrays(gy, gx))[None])
            return np.array(disp)

        d1 = displacements()
        vk.alpha.value.data = vk.alpha.value.data * 2.0
        d2 = displacements()
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12)

    def test_default_config_offset_channels(self):
        vk = B.VKConv("vk", B.VKConvConfig(c_in=4, c_out=4))
        assert vk.offset_conv.c_out == 10  # 2 coordinates per sampling point

    def test_stride_follows_config(self):
        vk = B.VKConv("vk", B.VKConvConfig(c_in=2, c_out=3, stride=2),
                      rng=np.random.default_rng(28))
        out = vk(rand_input((1, 2, 8, 8), seed=28))
        assert out.shape == (1, 3, 4, 4)

    def test_gradient(self):
        vk = B.VKConv("vk", B.VKConvConfig(c_in=4, c_out=4),
                      rng=np.random.default_rng(29))
        # non-zero offsets so the coordinate gradient path is exercised
        vk.offset_conv.weight.value.data = np.random.default_rng(30).normal(
            0, 0.3, vk.offset_conv.weight.value.data.shape)
        fd_block(vk, rand_input((1, 4, 6, 6), seed=29))

    def test_gradient_wrt_sampling_parameters(self):
        vk = B.VKConv("vk", B.VKConvConfig(c_in=3, c_out=2), rng=np.random.default_rng(36))
        rng = np.random.default_rng(37)
        for p in (vk.offset_conv.weight, vk.offset_conv.bias, vk.point_w):
            p.value.data = rng.normal(0, 0.3, p.value.data.shape)
        x = rand_input((2, 3, 5, 5), seed=37)
        proj = Tensor4.const(rng.standard_normal(vk(x).shape))
        leaves = [vk.point_w.value, vk.alpha.value,
                  vk.offset_conv.weight.value, vk.offset_conv.bias.value]
        report = T.grad_check(lambda *_: T.sum_all(T.mul(vk(x), proj)), leaves,
                              tolerance=1e-5, eps=1e-5)
        assert report.passed, f"max rel err {report.max_rel_error:.2e}"


class TestAVCStem:
    def test_zero_gate_weights_give_half_gate(self):
        stem = B.AVCStem("stem", B.AVCStemConfig(c_in=8, c_out=8),
                         rng=np.random.default_rng(31))
        zero_params(stem.gate1)
        zero_params(stem.gate3)
        x = rand_input((1, 8, 5, 5), seed=31)
        np.testing.assert_allclose(stem.gate(x).data, 0.5, atol=1e-12)

    def test_output_channels_fixed_by_config(self):
        stem = B.AVCStem("stem", B.AVCStemConfig(c_in=6, c_out=10),
                         rng=np.random.default_rng(32))
        for hw in (5, 8):
            out = stem(rand_input((1, 6, hw, hw), seed=32))
            assert out.shape == (1, 10, hw, hw)

    def test_gate_values_in_open_interval(self):
        stem = B.AVCStem("stem", B.AVCStemConfig(c_in=8, c_out=8),
                         rng=np.random.default_rng(33))
        g = stem.gate(rand_input((2, 8, 6, 6), seed=33)).data
        assert np.all(g > 0) and np.all(g < 1)

    def test_odd_input_width_rejected(self):
        with pytest.raises(ConfigError):
            B.AVCStemConfig(c_in=7, c_out=8)

    def test_gradient(self):
        stem = B.AVCStem("stem", B.AVCStemConfig(c_in=4, c_out=4),
                         rng=np.random.default_rng(34))
        fd_block(stem, rand_input((1, 4, 6, 6), seed=34))


class TestInferencePurity:
    """Inference-mode forward is a pure function: two calls bit-identical."""

    @pytest.mark.parametrize("factory", [
        lambda rng: B.MBConvBlock("m", B.MBConvConfig(4, 4, attn_reduction=4), rng=rng),
        lambda rng: B.BSBlock("b", B.BSConfig(c=8), rng=rng),
        lambda rng: B.GSConvBlock("g", B.GSConvConfig(4, 4), rng=rng),
        lambda rng: B.GSBottleneck("gb", 4, rng=rng),
        lambda rng: B.VKConv("v", B.VKConvConfig(c_in=4, c_out=4), rng=rng),
        lambda rng: B.AVCStem("s", B.AVCStemConfig(c_in=4, c_out=4), rng=rng),
    ])
    def test_double_forward_bit_identical(self, factory):
        block = factory(np.random.default_rng(35))
        c = {"m": 4, "b": 8, "g": 4, "gb": 4, "v": 4, "s": 4}[block.name]
        x = rand_input((1, c, 8, 8), seed=35)
        first = block(x, training=False).data.copy()
        second = block(x, training=False).data
        np.testing.assert_array_equal(first, second)


class TestInputGuard:
    """Every block that fixes its input width rejects another width by name."""

    @pytest.mark.parametrize("factory, c", [
        (lambda: B.MBConvBlock("blk", B.MBConvConfig(4, 4)), 4),
        (lambda: B.PartialConv("blk", 8), 8),
        (lambda: B.BSBlock("blk", B.BSConfig(c=8)), 8),
        (lambda: B.GSConvBlock("blk", B.GSConvConfig(4, 4)), 4),
        (lambda: B.VKConv("blk", B.VKConvConfig(c_in=4, c_out=4)), 4),
        (lambda: B.AVCStem("blk", B.AVCStemConfig(c_in=4, c_out=4)), 4),
    ])
    def test_wrong_channel_count_raises(self, factory, c):
        with pytest.raises(ShapeError, match=rf"^blk: expected {c} channels, got {c + 2}$"):
            factory()(rand_input((1, c + 2, 8, 8)))


class TestCheckpoint:
    def test_state_order_is_pre_order(self):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2))
        assert [name for name, _ in blk.state_arrays()] == [
            "gs.cbs.conv.weight", "gs.cbs.bn.gamma", "gs.cbs.bn.beta",
            "gs.cbs.bn.running_mean", "gs.cbs.bn.running_var", "gs.dw.weight"]
        assert [p.value.name for p in blk.parameters()] == [
            "gs.cbs.conv.weight", "gs.cbs.bn.gamma", "gs.cbs.bn.beta", "gs.dw.weight"]

    def test_own_params_precede_children(self):
        # VKConv holds parameters of its own beside its child layers
        vk = B.VKConv("vk", B.VKConvConfig(2, 2))
        names = ["vk.alpha", "vk.point_w", "vk.offset.weight", "vk.offset.bias",
                 "vk.project.weight", "vk.bn.gamma", "vk.bn.beta"]
        assert [p.value.name for p in vk.parameters()] == names
        assert [name for name, _ in vk.state_arrays()] == names + [
            "vk.bn.running_mean", "vk.bn.running_var"]

    def test_round_trip_restores_outputs(self, tmp_path):
        rng = np.random.default_rng(36)
        src = B.AVCStem("stem", B.AVCStemConfig(c_in=4, c_out=6), rng=rng,
                        dtype=np.float32)
        x = Tensor4(np.random.default_rng(37).standard_normal((1, 4, 6, 6)).astype(np.float32))
        src(x, training=True)  # move running stats away from their defaults
        before = src(x, training=False).data.copy()
        B.save_checkpoint(src, tmp_path / "ckpt")

        dst = B.AVCStem("stem", B.AVCStemConfig(c_in=4, c_out=6),
                        rng=np.random.default_rng(99), dtype=np.float32)
        assert not np.allclose(dst(x, training=False).data, before)
        B.load_checkpoint(dst, tmp_path / "ckpt")
        # float32 parameters survive the float32 snapshot format bit-exactly
        for p_src, p_dst in zip(src.parameters(), dst.parameters()):
            np.testing.assert_array_equal(p_src.value.data, p_dst.value.data)
        # running stats are stored at float32, so outputs agree to that level
        np.testing.assert_allclose(dst(x, training=False).data, before, atol=1e-5)

    def test_manifest_names_offsets(self, tmp_path):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2), rng=np.random.default_rng(38))
        B.save_checkpoint(blk, tmp_path / "w")
        lines = (tmp_path / "w.manifest").read_text().splitlines()
        names = [ln.split()[0] for ln in lines]
        assert "gs.cbs.conv.weight" in names
        assert "gs.cbs.bn.running_mean" in names
        offsets = [int(ln.split()[-1]) for ln in lines]
        assert offsets == sorted(offsets) and offsets[0] == 0

    def test_missing_tensor_raises_data_error(self, tmp_path):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2), rng=np.random.default_rng(38))
        B.save_checkpoint(blk, tmp_path / "w")
        manifest = tmp_path / "w.manifest"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(ln for ln in lines
                                      if not ln.startswith("gs.cbs.bn.running_var ")) + "\n")
        with pytest.raises(DataError, match="gs.cbs.bn.running_var"):
            B.load_checkpoint(blk, tmp_path / "w")

    @pytest.mark.parametrize("line", ["gs.cbs.conv.weight", "gs.cbs.conv.weight 1 2 3 4 x"])
    def test_malformed_manifest_line_raises_parse_error(self, tmp_path, line):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2), rng=np.random.default_rng(38))
        B.save_checkpoint(blk, tmp_path / "w")
        manifest = tmp_path / "w.manifest"
        manifest.write_text(line + "\n" + manifest.read_text())
        with pytest.raises(ParseError):
            B.load_checkpoint(blk, tmp_path / "w")
