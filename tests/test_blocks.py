"""Block contracts: shapes, degeneracies, permutation structure, gradients."""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irstkit import blocks as B
from irstkit import complexity as C
from irstkit import detector as D
from irstkit import tensor as T
from irstkit.errors import ConfigError, ContractError, DataError, ParseError, ShapeError
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
        cbam = B.CBAM("cbam", 8)
        zero_params(cbam)
        x = rand_input((2, 8, 5, 5), seed=1)
        out = cbam(x)
        np.testing.assert_allclose(out.data, 0.25 * x.data, atol=1e-12)

    def test_output_shape_matches_input(self):
        for shape in ((1, 8, 3, 3), (2, 16, 7, 5)):
            cbam = B.CBAM("cbam", shape[1])
            x = rand_input(shape, seed=2)
            assert cbam(x).shape == shape

    def test_gate_values_in_open_interval(self):
        cbam = B.CBAM("cbam", 8, rng=np.random.default_rng(3))
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
            B.CBAM("cbam", 6)

    def test_gradient(self):
        cbam = B.CBAM("cbam", 4, rng=np.random.default_rng(4))
        fd_block(cbam, rand_input((1, 4, 6, 6), seed=4))


class TestMBConv:
    def test_hidden_width_is_expansion_times_input(self):
        cfg = B.MBConvConfig(c_in=16, c_out=32)
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

    def test_gradient(self):
        block = B.MBConvBlock("mb", B.MBConvConfig(4, 4), rng=np.random.default_rng(9))
        fd_block(block, rand_input((1, 4, 6, 6), seed=9))


class TestBlockedMBConv:
    """An unrecorded inference-mode MBConv runs expand -> depthwise one block
    of hidden channels at a time, with the recorded whole-tensor path's bytes."""

    @staticmethod
    def block(cfg, dtype, fused):
        blk = B.MBConvBlock("m", cfg, rng=np.random.default_rng(3), dtype=dtype)
        rng = np.random.default_rng(4)
        for m in blk.sublayers():
            if isinstance(m, B.BatchNormLayer):
                m.gamma.value.data = rng.uniform(0.5, 1.5, (1, m.c, 1, 1)).astype(dtype)
                m.beta.value.data = rng.normal(0.0, 0.3, (1, m.c, 1, 1)).astype(dtype)
                m.stats.mean = rng.normal(0.0, 0.5, m.c)
                m.stats.var = rng.uniform(0.3, 2.0, m.c)
        return B.fold_bn(blk) if fused else blk

    @staticmethod
    def spy_blocks(monkeypatch) -> list:
        seen = []
        real = B.channel_blocks
        monkeypatch.setattr(B, "channel_blocks", lambda c, per: seen.append(real(c, per)) or seen[-1])
        return seen

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", [B.MBConvConfig(16, 16), B.MBConvConfig(16, 24, stride=2)],
                             ids=["stride1_residual", "stride2"])
    def test_unrecorded_equals_recorded(self, cfg, dtype, fused, monkeypatch):
        blk = self.block(cfg, dtype, fused)
        x = Tensor4(np.random.default_rng(5).standard_normal((1, 16, 16, 16)).astype(dtype))
        # blocks of 19 of the 96 hidden channels: five would leave a one-channel
        # tail, whose one-row GEMM rounds differently, so it joins the fourth
        monkeypatch.setattr(B, "MBCONV_BLOCK_BYTES", 19 * 16 * 16 * np.dtype(dtype).itemsize)
        seen = self.spy_blocks(monkeypatch)
        taped = blk(x)
        assert taped.op is not None and seen == []
        with T.no_grad():
            fast = blk(x)
        assert fast.op is None
        assert seen == [[(0, 19), (19, 38), (38, 57), (57, 76), (76, 96)]]
        assert fast.dtype == taped.dtype and fast.data.tobytes() == taped.data.tobytes()

    def test_training_and_cost_tape_take_the_whole_path(self, monkeypatch):
        blk = self.block(B.MBConvConfig(4, 4), np.float64, fused=False)
        x = rand_input((2, 4, 8, 8), seed=6)
        seen = self.spy_blocks(monkeypatch)
        with T.no_grad():
            blk(x, training=True)
            with C.tracking() as tape:
                blk(x)
        assert seen == []
        assert {"m.expand.conv", "m.dw", "m.dw_bn"} <= {name for name, _, _ in tape.report().rows}

    @given(st.integers(1, 400), st.integers(2, 64))
    def test_channel_blocks_tile_without_one_channel_tail(self, c, per):
        blocks = B.channel_blocks(c, per)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == c
        assert all(2 <= hi - lo <= per + 1 for lo, hi in blocks) or blocks == [(0, 1)]

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_expanded_activation_never_exists_whole(self, fused):
        """Beyond its output, the blocked stage holds about one block: its
        expansion, the batch norm's copy of it and a depthwise block.  CBAM
        then holds three arrays of the depthwise output's size, 3/4 of the
        expanded activation at stride 2, so the whole block's peak beyond its
        output stays below that activation, which the whole-tensor path
        holds with the depthwise output on top."""
        cfg = B.MBConvConfig(16, 16, stride=2)
        blk = self.block(cfg, np.float32, fused)
        x = Tensor4(np.random.default_rng(7).standard_normal((1, 16, 192, 192)).astype(np.float32))
        channel = 192 * 192 * 4
        expanded = cfg.hidden * channel
        block_bytes = max(B.MBCONV_MIN_BLOCK, B.MBCONV_BLOCK_BYTES // channel) * channel
        assert expanded >= 2 * 3 * block_bytes
        peaks = []
        with T.no_grad():
            for run in (blk.expanded_depthwise, blk):
                tracemalloc.start()
                try:
                    out = run(x)
                    peaks.append(tracemalloc.get_traced_memory()[1] - out.data.nbytes)
                finally:
                    tracemalloc.stop()
                del out
        assert peaks[0] <= 3 * block_bytes
        assert peaks[1] < expanded


class TestPartialConv:
    def test_untouched_channels_bitwise_equal(self):
        pc = B.PartialConv("pc", 8, rng=np.random.default_rng(10))
        x = rand_input((2, 8, 5, 5), seed=10)
        out = pc(x)
        np.testing.assert_array_equal(out.data[:, 2:], x.data[:, 2:])

    def test_delta_kernel_identity(self):
        pc = B.PartialConv("pc", 8)
        w = np.zeros_like(pc.conv.weight.value.data)
        for c in range(pc.cp):
            w[c, c, 1, 1] = 1.0
        pc.conv.weight.value.data = w
        x = rand_input((1, 8, 5, 5), seed=11)
        np.testing.assert_allclose(pc(x).data, x.data, atol=1e-12)

    def test_quarter_ratio_channel_count(self):
        assert B.PartialConv("pc", 8).cp == 2
        assert B.PartialConv("pc", 10).cp == 3  # ceil rounding

    def test_gradient(self):
        pc = B.PartialConv("pc", 8, rng=np.random.default_rng(12))
        fd_block(pc, rand_input((1, 8, 6, 6), seed=12))


class TestBSBlock:
    def test_zero_projection_is_identity_in_inference(self):
        block = B.BSBlock("bs", 8, rng=np.random.default_rng(13))
        block.mlp_out.weight.value.data[:] = 0.0
        block.mlp_out.bias.value.data[:] = 0.0
        x = rand_input((2, 8, 5, 5), seed=13)
        np.testing.assert_allclose(block(x, training=False).data, x.data, atol=1e-12)

    def test_shape_preserved(self):
        block = B.BSBlock("bs", 12, rng=np.random.default_rng(14))
        x = rand_input((2, 12, 7, 7), seed=14)
        assert block(x).shape == x.shape

    def test_zeroed_branch_jacobian_is_identity(self):
        block = B.BSBlock("bs", 4, rng=np.random.default_rng(15))
        block.mlp_out.weight.value.data[:] = 0.0
        block.mlp_out.bias.value.data[:] = 0.0
        x = Tensor4(RNG.standard_normal((1, 4, 4, 4)), requires_grad=True)
        proj = Tensor4.const(RNG.standard_normal(x.shape))
        out = T.sum_all(T.mul(block(x), proj))
        T.backward(out)
        np.testing.assert_allclose(x.grad, proj.data, atol=1e-12)

    def test_gradient(self):
        block = B.BSBlock("bs", 8, rng=np.random.default_rng(16))
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


def naive_fixed_gather(xd, base, point_w):
    """Direct-loop bilinear gather at the zero-offset base pattern."""
    n, c, h, w = xd.shape
    out = np.zeros((n, c, h, w))
    for b in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for k, (dy, dx) in enumerate(base):
                        y = i + dy
                        x = j + dx
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
        vk = B.VKConv("vk", 3, 4, rng=np.random.default_rng(25))
        x = rand_input((2, 3, 6, 6), seed=25)
        # offsets are zero-initialized, so sampling sits on the base pattern
        acc_oracle = naive_fixed_gather(x.data, vk.base, vk.point_w.value.data.reshape(-1))
        out = vk(x, training=False)
        expected = T.silu(vk.bn(vk.project(Tensor4(acc_oracle)), training=False))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_doubling_alpha_doubles_displacement(self):
        vk = B.VKConv("vk", 2, 2, rng=np.random.default_rng(26))
        rng = np.random.default_rng(27)
        vk.offset_conv.weight.value.data = rng.normal(
            0, 0.5, vk.offset_conv.weight.value.data.shape)
        x = rand_input((1, 2, 5, 5), seed=27)

        def displacements():
            coords = vk.sample_coords(x).data
            disp = []
            for k in range(B.VK_POINTS):
                gy = np.arange(5)[:, None] + vk.base[k, 0]
                gx = np.arange(5)[None, :] + vk.base[k, 1]
                coord = coords[:, 2 * k:2 * k + 2]
                disp.append(coord - np.stack(np.broadcast_arrays(gy, gx))[None])
            return np.array(disp)

        d1 = displacements()
        vk.alpha.value.data = vk.alpha.value.data * 2.0
        d2 = displacements()
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12)

    def test_default_config_offset_channels(self):
        vk = B.VKConv("vk", 4, 4)
        assert vk.offset_conv.c_out == 10  # 2 coordinates per sampling point

    def test_gradient(self):
        vk = B.VKConv("vk", 4, 4, rng=np.random.default_rng(29))
        # non-zero offsets so the coordinate gradient path is exercised
        vk.offset_conv.weight.value.data = np.random.default_rng(30).normal(
            0, 0.3, vk.offset_conv.weight.value.data.shape)
        fd_block(vk, rand_input((1, 4, 6, 6), seed=29))

    @pytest.mark.parametrize("training", [False, True])
    def test_projecting_first_matches_sampling_the_inputs(self, training):
        # the point weights are scalars shared by all channels, so the sample
        # commutes with the bias-free 1x1 projection, also where corners leave
        # the frame; offsets this large move about half the points out of it
        vk = B.VKConv("vk", 6, 4, rng=np.random.default_rng(50))
        rng = np.random.default_rng(51)
        for p in vk.parameters():
            p.value.data = rng.normal(0.0, 1.0, p.value.data.shape)
        vk.offset_conv.weight.value.data *= 3.0
        vk.alpha.value.data[:] = B.VK_OFFSET_SCALE
        vk.bn.stats.mean = rng.normal(0.0, 1.0, 4)
        vk.bn.stats.var = rng.uniform(0.2, 3.0, 4)
        x = rand_input((2, 6, 7, 7), seed=52)
        coords = vk.sample_coords(x)
        yx = coords.data.reshape(2, B.VK_POINTS, 2, 7, 7)
        outside = ((yx < 0) | (yx > 6)).any(axis=2).mean()
        assert 0.4 < outside < 0.6
        sampled = T.bilinear_sample(x, coords, vk.point_w.value)
        want = T.silu(vk.bn(vk.project(sampled), training=training))
        np.testing.assert_allclose(vk(x, training=training).data, want.data,
                                   rtol=1e-12, atol=1e-12)

    def test_model_samples_projected_channels(self, monkeypatch):
        model = D.Detector(D.ModelConfig(), init_seed=3)
        sampled = []
        sample = T.bilinear_sample

        def record(x, coords, point_w=None):
            sampled.append(x.shape[1])
            return sample(x, coords, point_w)

        monkeypatch.setattr(T, "bilinear_sample", record)
        with T.no_grad():
            model(Tensor4(np.zeros((1, 1, 96, 96))))
        vks = [m for m in model.sublayers() if isinstance(m, B.VKConv)]
        assert len(vks) == 4
        assert sampled == [vk.project.c_out for vk in vks] == [64, 32, 64, 64]

    def test_gradient_wrt_sampling_parameters(self):
        vk = B.VKConv("vk", 3, 2, rng=np.random.default_rng(36))
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
        stem = B.AVCStem("stem", 8, 8, rng=np.random.default_rng(31))
        zero_params(stem.gate1)
        zero_params(stem.gate3)
        x = rand_input((1, 8, 5, 5), seed=31)
        np.testing.assert_allclose(stem.gate(x).data, 0.5, atol=1e-12)

    def test_output_channels_fixed_by_config(self):
        stem = B.AVCStem("stem", 6, 10, rng=np.random.default_rng(32))
        for hw in (5, 8):
            out = stem(rand_input((1, 6, hw, hw), seed=32))
            assert out.shape == (1, 10, hw, hw)

    def test_gate_values_in_open_interval(self):
        stem = B.AVCStem("stem", 8, 8, rng=np.random.default_rng(33))
        g = stem.gate(rand_input((2, 8, 6, 6), seed=33)).data
        assert np.all(g > 0) and np.all(g < 1)

    def test_odd_input_width_rejected(self):
        with pytest.raises(ConfigError):
            B.AVCStem("stem", 7, 8)

    def test_gradient(self):
        stem = B.AVCStem("stem", 4, 4, rng=np.random.default_rng(34))
        fd_block(stem, rand_input((1, 4, 6, 6), seed=34))


class TestInferencePurity:
    """Inference-mode forward is a pure function: two calls bit-identical."""

    @pytest.mark.parametrize("factory", [
        lambda rng: B.MBConvBlock("m", B.MBConvConfig(4, 4), rng=rng),
        lambda rng: B.BSBlock("b", 8, rng=rng),
        lambda rng: B.GSConvBlock("g", B.GSConvConfig(4, 4), rng=rng),
        lambda rng: B.GSBottleneck("gb", 4, rng=rng),
        lambda rng: B.VKConv("v", 4, 4, rng=rng),
        lambda rng: B.AVCStem("s", 4, 4, rng=rng),
    ])
    def test_double_forward_bit_identical(self, factory):
        block = factory(np.random.default_rng(35))
        c = {"m": 4, "b": 8, "g": 4, "gb": 4, "v": 4, "s": 4}[block.name]
        x = rand_input((1, c, 8, 8), seed=35)
        first = block(x, training=False).data.copy()
        second = block(x, training=False).data
        np.testing.assert_array_equal(first, second)


class TestFoldBn:
    """Each declared conv -> batch-norm pair folds into one biased conv."""

    class BiasedPair(B.Module):
        bn_pairs = (("conv", "bn"),)

        def __init__(self, rng):
            super().__init__("p")
            self.conv = B.Conv2dLayer("p.conv", 3, 5, 3, stride=2, pad=1, bias=True, rng=rng)
            self.bn = B.BatchNormLayer("p.bn", 5)

        def forward(self, x, training=False, seed=0):
            return self.bn(self.conv(x), training=training)

    @staticmethod
    def randomize(module, seed):
        rng = np.random.default_rng(seed)
        for p in module.parameters():
            p.value.data = rng.normal(0.0, 1.0, p.value.data.shape)
        for m in module.sublayers():
            if isinstance(m, B.BatchNormLayer):
                m.stats.mean = rng.normal(0.0, 1.0, m.c)
                m.stats.var = rng.uniform(0.2, 3.0, m.c)
        return module

    @pytest.mark.parametrize("factory, c", [
        (lambda rng: TestFoldBn.BiasedPair(rng), 3),  # the conv's own bias carries over
        (lambda rng: B.MBConvBlock("m", B.MBConvConfig(4, 8, stride=2), rng=rng), 4),
        (lambda rng: B.VKConv("v", 4, 6, rng=rng), 4),
        (lambda rng: B.GSConvBlock("g", B.GSConvConfig(4, 4), rng=rng), 4),
    ])
    def test_folded_block_matches_inference_forward(self, factory, c):
        block = self.randomize(factory(np.random.default_rng(40)), seed=41)
        x = rand_input((2, c, 8, 8), seed=42)
        want = block(x).data
        fused = B.fold_bn(block)
        np.testing.assert_allclose(fused(x).data, want, rtol=1e-12, atol=1e-12)
        # VKConv's norm follows its sample, not a conv, and is kept
        kept = [m.name for m in fused.sublayers() if isinstance(m, B.BatchNormLayer)]
        assert kept == (["v.bn"] if isinstance(block, B.VKConv) else [])
        assert type(fused) is type(block)

    def test_folded_conv_bias_follows_its_weight(self):
        # the fold gives a bias-free conv its bias after its weight, and the
        # PassThrough in the norm's place holds no state
        fused = B.fold_bn(B.ConvBnSilu("c", 2, 4, 3))
        assert [name for name, _ in fused.state_arrays()] == ["c.conv.weight", "c.conv.bias"]
        assert [m.name for m in fused.sublayers()] == ["c", "c.conv", "c.bn"]
        assert isinstance(fused.bn, B.PassThrough)

    def test_folded_model_is_inference_only(self):
        fused = B.fold_bn(B.ConvBnSilu("c", 2, 4, 3))
        with pytest.raises(ContractError, match="^c.bn: .*inference-only"):
            fused(rand_input((2, 2, 6, 6)), training=True)


class TestInputGuard:
    """Every block that fixes its input width rejects another width by name."""

    @pytest.mark.parametrize("factory, c", [
        (lambda: B.MBConvBlock("blk", B.MBConvConfig(4, 4)), 4),
        (lambda: B.PartialConv("blk", 8), 8),
        (lambda: B.BSBlock("blk", 8), 8),
        (lambda: B.GSConvBlock("blk", B.GSConvConfig(4, 4)), 4),
        (lambda: B.VKConv("blk", 4, 4), 4),
        (lambda: B.AVCStem("blk", 4, 4), 4),
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
        vk = B.VKConv("vk", 2, 2)
        names = ["vk.alpha", "vk.point_w", "vk.offset.weight", "vk.offset.bias",
                 "vk.project.weight", "vk.bn.gamma", "vk.bn.beta"]
        assert [p.value.name for p in vk.parameters()] == names
        assert [name for name, _ in vk.state_arrays()] == names + [
            "vk.bn.running_mean", "vk.bn.running_var"]

    def test_one_assignment_builds_a_variant(self):
        # an ablation: fuse_t3's VKConv becomes a plain conv of the same widths
        cfg = D.ModelConfig(input_size=32, widths=(4, 4, 4, 6), reg_bins=4)
        model = D.Detector(cfg, init_seed=3)
        old = model.fuse_t3.vk
        before = list(model.sublayers())
        at = before.index(old)
        end = at + len(list(old.sublayers()))
        old_names = [name for name, _ in old.state_arrays()]
        states = [name for name, _ in model.state_arrays()]
        cut = states.index(old_names[0])
        assert states[cut:cut + len(old_names)] == old_names

        model.fuse_t3.vk = B.ConvBnSilu("model.fuse_t3.vk", old.in_channels,
                                        old.project.c_out, 3, rng=np.random.default_rng(4))
        new = model.fuse_t3.vk
        after = list(model.sublayers())
        assert after == before[:at] + list(new.sublayers()) + before[end:]
        new_names = [name for name, _ in new.state_arrays()]
        want = states[:cut] + new_names + states[cut + len(old_names):]
        assert [name for name, _ in model.state_arrays()] == want
        assert [p.name for p in model.parameters()] == [n for n in want if "running_" not in n]
        assert list(model.fuse_t3._registry) == ["branch_a", "branch_b", "gate1", "gate3", "vk"]

        x = Tensor4(np.random.default_rng(5).random((1, 1, 32, 32)))
        with T.no_grad(), C.tracking() as tape:
            heads = model(x)
        assert [h.shape for h in heads] == [(1, cfg.head_channels, s, s) for s in (4, 2, 1)]
        assert tape.report().total_params == model.num_scalars()
        # configuration and dtype are plain attributes, not registered state
        assert list(model._registry) == [
            "stem", "a0", "b0", "b1", "down_c", "bs_c", "down_d", "bs_d", "fuse_t4",
            "fuse_t3", "down_34", "fuse_m4", "down_45", "fuse_m5", "head0", "head1", "head2"]

    def test_non_state_value_unregisters_its_name(self):
        conv = B.Conv2dLayer("c", 2, 3, 1, bias=True)
        conv.bias = None
        assert [name for name, _ in conv.state_arrays()] == ["c.weight"]
        assert conv(rand_input((1, 2, 4, 4))).shape == (1, 3, 4, 4)

    def test_round_trip_restores_outputs(self, tmp_path):
        rng = np.random.default_rng(36)
        src = B.AVCStem("stem", 4, 6, rng=rng, dtype=np.float32)
        x = Tensor4(np.random.default_rng(37).standard_normal((1, 4, 6, 6)).astype(np.float32))
        src(x, training=True)  # move running stats away from their defaults
        before = src(x, training=False).data.copy()
        B.save_checkpoint(src, tmp_path / "ckpt.npz")

        dst = B.AVCStem("stem", 4, 6, rng=np.random.default_rng(99), dtype=np.float32)
        assert not np.allclose(dst(x, training=False).data, before)
        B.load_checkpoint(dst, tmp_path / "ckpt.npz")
        assert dst(x, training=False).data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_detector_round_trip_is_bit_identical(self, tmp_path, dtype):
        cfg = D.ModelConfig(input_size=32, widths=(4, 4, 4, 4), reg_bins=4)
        images = np.random.default_rng(40).random((2, 1, 32, 32)).astype(dtype)
        src = D.Detector(cfg, init_seed=1, dtype=dtype)
        src(Tensor4(images), training=True)  # move running stats away from their defaults
        B.save_checkpoint(src, tmp_path / "det.npz")
        dst = D.Detector(cfg, init_seed=2, dtype=dtype)
        B.load_checkpoint(dst, tmp_path / "det.npz")

        for (name, a), (_, b) in zip(src.state_arrays(), dst.state_arrays(), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        with T.no_grad():
            heads = zip(src(Tensor4(images)), dst(Tensor4(images)), strict=True)
            assert all(a.data.tobytes() == b.data.tobytes() for a, b in heads)
        want = D.predict(src, images, score_thresh=0.001)
        assert sum(map(len, want)) > 0
        assert repr(D.predict(dst, images, score_thresh=0.001)) == repr(want)

    def test_missing_tensor_raises_data_error(self, tmp_path):
        blk = B.GSConvBlock("gs", B.GSConvConfig(2, 2), rng=np.random.default_rng(38))
        np.savez(tmp_path / "w.npz", **{name: arr for name, arr in blk.state_arrays()
                                        if name != "gs.cbs.bn.running_var"})
        with pytest.raises(DataError, match="gs.cbs.bn.running_var"):
            B.load_checkpoint(blk, tmp_path / "w.npz")

    @pytest.mark.parametrize("member, compression", [
        (np.zeros((1, 2, 1, 1), dtype=np.int32), zipfile.ZIP_STORED),
        (np.zeros((1, 2, 1, 1), dtype=object), zipfile.ZIP_STORED),
        (np.zeros((1, 2, 1, 1)), zipfile.ZIP_DEFLATED),
    ], ids=["int", "object", "compressed"])
    def test_malformed_member_raises_parse_error(self, tmp_path, member, compression):
        buf = io.BytesIO()
        np.save(buf, member)
        with zipfile.ZipFile(tmp_path / "w.npz", "w", compression) as zf:
            zf.writestr("c.bias.npy", buf.getvalue())
        with pytest.raises(ParseError, match="member c.bias.npy"):
            B.load_checkpoint(B.Conv2dLayer("c", 2, 2, 1, bias=True), tmp_path / "w.npz")

    def test_running_stat_of_wrong_length_raises_shape_error(self):
        bn = B.BatchNormLayer("bn", 4)
        arrays = dict(bn.state_arrays())
        arrays["bn.running_mean"] = np.zeros((1, 7, 1, 1))
        with pytest.raises(ShapeError, match="^bn.running_mean: checkpoint shape"):
            bn.load_state(arrays)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """An AVCStem checkpoint's bytes and a directory to write cuts to."""
        path = tmp_path_factory.mktemp("ckpt") / "w.npz"
        B.save_checkpoint(B.AVCStem("stem", 4, 6, rng=np.random.default_rng(36)), path)
        return path.read_bytes(), path.parent

    @given(data=st.data())
    def test_any_cut_raises_parse_or_data_error(self, saved, data):
        raw, folder = saved
        cut = data.draw(st.integers(0, len(raw) - 1))
        (folder / "cut.npz").write_bytes(raw[:cut])
        with pytest.raises((ParseError, DataError)):
            B.load_checkpoint(B.AVCStem("stem", 4, 6), folder / "cut.npz")
