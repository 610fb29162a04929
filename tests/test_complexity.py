"""Parameter and flop accounting against hand counts and the allocated model."""

import pytest

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

    def test_stem_row_is_a_strided_3x3_conv(self):
        rows = {name: (p, f) for name, p, f in C.count_model(D.ModelConfig()).rows}
        # 96 px input, stride 2 -> 48 x 48 output, 1 -> 8 channels, no bias
        assert rows["model.stem.conv"] == C.count_conv(1, 8, 3, 48, 48)

    def test_dropped_row_raises(self, monkeypatch):
        record = C.record_cost

        def drop_stem(name, params, flops, unique_key=None):
            if name != "model.stem.conv":
                record(name, params, flops, unique_key=unique_key)

        monkeypatch.setattr(C, "record_cost", drop_stem)
        with pytest.raises(AccountingError):
            C.count_model(D.ModelConfig())
