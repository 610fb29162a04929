"""Parameter and flop accounting against hand counts and the allocated model."""

import pytest

from irstkit import blocks as B
from irstkit import complexity as C
from irstkit import detector as D
from irstkit.errors import AccountingError, ConfigError


class TestCountConv:
    def test_dense_with_bias(self):
        # 3x3, 4 -> 6 channels at 5x7: 216 weights + 6 biases; 2 flops per
        # multiply-accumulate plus one add per output element for the bias
        assert C.count_conv(4, 6, 3, 5, 7, bias=True) == (222, 2 * 216 * 35 + 6 * 35)

    def test_depthwise(self):
        # one 3x3 filter per channel: 8 * 9 weights
        assert C.count_conv(8, 8, 3, 4, 4, groups=8) == (72, 2 * 72 * 16)

    @pytest.mark.parametrize("dims", [(0, 4, 3, 5, 5), (4, 4, 3, 0, 5), (4, 4, 0, 5, 5)])
    def test_zero_dimension_raises(self, dims):
        with pytest.raises(ConfigError):
            C.count_conv(*dims)


class TestCountModel:
    def test_params_equal_allocated_scalars(self):
        cfg = D.ModelConfig()
        assert C.count_model(cfg).total_params == D.Detector(cfg).num_scalars()

    def test_default_config_totals(self):
        report = C.count_model(D.ModelConfig())
        assert len(report.rows) == 113
        assert report.total_params == 1_327_912
        assert report.total_flops == 123_318_543

    def test_stem_row_is_a_strided_3x3_conv(self):
        rows = {name: (p, f) for name, p, f in C.count_model(D.ModelConfig()).rows}
        # 96 px input, stride 2 -> 48 x 48 output, 1 -> 8 channels, no bias
        assert rows["model.stem.conv"] == C.count_conv(1, 8, 3, 48, 48)

    def test_dropped_row_raises(self, monkeypatch):
        record = C.record_cost

        def drop_stem(name, params, flops):
            if name != "model.stem.conv":
                record(name, params, flops)

        monkeypatch.setattr(C, "record_cost", drop_stem)
        with pytest.raises(AccountingError):
            C.count_model(D.ModelConfig())


class TestCostRows:
    """One row per module with work of its own, keyed by the module's name."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {name: (p, f) for name, p, f in C.count_model(D.ModelConfig()).rows}

    def test_cbam_pooling_row(self, rows):
        # a0's attention sees 6 * 8 = 48 channels at 96 / 2 / 2 = 24 px;
        # avg and max pooling over channels then pixels, 4 flops per element
        c, h, w = 48, 24, 24
        assert rows["model.a0.attn"] == (0, 4 * h * w * c)

    def test_vkconv_sampling_row(self, rows):
        # fuse_t4: K = 5 points over 64 // 2 + 2 * 64 = 160 channels at the
        # stride-16 grid of 6 x 6; K point weights plus the offset scale
        k, c_in, ho, wo = 5, 160, 6, 6
        assert rows["model.fuse_t4.vk"] == (k + 1, 10 * k * c_in * ho * wo)

    def test_shared_call_credits_params_once(self, rows):
        # CBAM's fc1 (48 -> 12, 1x1, bias) runs on the avg and the max pool
        params, flops = C.count_conv(48, 12, 1, 1, 1, bias=True)
        assert rows["model.a0.attn.fc1"] == (params, 2 * flops)

    def test_containers_have_no_row(self, rows):
        assert "model" not in rows and "model.a0" not in rows

    def test_shared_name_raises(self, monkeypatch):
        init = B.Conv2dLayer.__init__

        def rename(self, name, *args, **kwargs):
            init(self, "model.head1.out" if name == "model.head2.out" else name,
                 *args, **kwargs)

        monkeypatch.setattr(B.Conv2dLayer, "__init__", rename)
        with pytest.raises(AccountingError):
            C.count_model(D.ModelConfig())
