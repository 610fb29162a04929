"""Losses: hand cases and invariants of the in-graph BCE, CIoU and DFL terms,
``total_loss`` against numpy oracles, and the composite-loss wiring."""

import copy
import math

import numpy as np
import pytest

from irstkit import blocks as B
from irstkit import complexity as C
from irstkit import detector as D
from irstkit import metrics as M
from irstkit import tensor as T
from irstkit.data import GroundTruth, SceneSpec, generate_scene
from irstkit.errors import ConfigError, DataError, NumericError, ShapeError
from irstkit.metrics import Box, Detection
from irstkit.tensor import Tensor4


def bce(logits, labels):
    """``_bce_terms`` per element of logits against 0/1 labels, and the
    gradient of their sum with respect to the logits."""
    z = Tensor4(np.asarray(logits, dtype=np.float64).reshape(1, 1, 1, -1), requires_grad=True)
    y = Tensor4.const(np.asarray(labels, dtype=np.float64).reshape(1, 1, 1, -1))
    terms = D._bce_terms(z, y)
    T.backward(T.sum_all(terms))
    return terms.data.ravel(), z.grad.ravel()


def logit(p):
    return math.log(p / (1.0 - p))


class TestBCE:
    def test_perfect_positive_tends_to_zero(self):
        (v,), _ = bce([logit(1.0 - 1e-9)], [1.0])
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_perfect_negative_tends_to_zero(self):
        (v,), _ = bce([logit(1e-9)], [0.0])
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_half_probability_is_ln2(self):
        (v,), _ = bce([0.0], [1.0])
        assert v == pytest.approx(math.log(2.0), abs=1e-9)

    def test_terms_are_per_element(self):
        terms, _ = bce([0.0, 0.0], [1.0, 0.0])
        assert terms == pytest.approx([math.log(2.0)] * 2, abs=1e-12)

    def test_saturated_logits_keep_loss_finite_and_gradient_alive(self):
        # confidently wrong cells: the loss is |z| and d/dz is sigmoid(z) - y
        terms, grad = bce([-800.0, 800.0], [1.0, 0.0])
        assert terms == pytest.approx([800.0, 800.0], rel=1e-12)
        assert grad.tolist() == [-1.0, 1.0]

    def test_monotone_decreasing_in_p_for_positive_label(self):
        vals = [bce([logit(p)], [1.0])[0][0] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def ciou(pred: Box, gt: Box) -> float:
    """``_ciou_terms`` of one predicted and one ground-truth box."""
    sides = (pred.x1, pred.y1, pred.x2, pred.y2, gt.x1, gt.y1, gt.x2, gt.y2)
    return D._ciou_terms(*(Tensor4.const(np.full((1, 1, 1, 1), v)) for v in sides)).item()


class TestCIoU:
    def test_identical_boxes_zero(self):
        b = Box(1.0, 2.0, 4.0, 7.0)
        assert ciou(b, b) == 0.0

    def test_thousand_random_self_pairs_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            x1, y1 = rng.uniform(-50, 50, 2)
            w, h = rng.uniform(0.1, 30, 2)
            b = Box(x1, y1, x1 + w, y1 + h)
            assert ciou(b, b) == 0.0

    def test_equal_aspect_ratio_kills_v_term(self):
        # same shape shifted: loss must equal 1 - IoU + d^2/c^2 exactly
        a = Box(0.0, 0.0, 4.0, 2.0)
        b = a.shifted(1.0, 0.5)
        inter_iou = M.iou(a, b)
        d2 = 1.0 ** 2 + 0.5 ** 2
        c2 = (5.0) ** 2 + (2.5) ** 2
        assert ciou(a, b) == pytest.approx(1 - inter_iou + d2 / c2, abs=1e-12)

    def test_disjoint_unit_squares_hand_case(self):
        a = Box.from_center(0.0, 0.0, 1.0, 1.0)
        b = Box.from_center(2.0, 0.0, 1.0, 1.0)
        assert ciou(a, b) == pytest.approx(1.4, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Box.from_center(*rng.uniform(1, 5, 2), *rng.uniform(0.5, 3, 2))
            b = Box.from_center(*rng.uniform(1, 5, 2), *rng.uniform(0.5, 3, 2))
            base = ciou(a, b)
            dx, dy = rng.uniform(-10, 10, 2)
            shifted = ciou(a.shifted(dx, dy), b.shifted(dx, dy))
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_nonnegative_and_term_ranges(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = Box.from_center(*rng.uniform(0, 10, 2), *rng.uniform(0.2, 5, 2))
            b = Box.from_center(*rng.uniform(0, 10, 2), *rng.uniform(0.2, 5, 2))
            assert ciou(a, b) >= 0.0
            # the center-distance ratio stays below 1 by the enclosing-box bound
            d2 = (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2
            ex = max(a.x2, b.x2) - min(a.x1, b.x1)
            ey = max(a.y2, b.y2) - min(a.y1, b.y1)
            assert 0.0 <= d2 / (ex * ex + ey * ey) < 1.0

    def test_zero_area_prediction_is_finite(self):
        v = ciou(Box(1, 1, 1, 1), Box(0, 0, 2, 2))
        assert math.isfinite(v) and v > 0


def dfl(probs, target: float) -> float:
    """``_dfl_terms`` of one box side whose bin softmax is ``probs``, fed as
    ``total_loss`` feeds it: the softmax and log-softmax of the bin logits."""
    p = np.asarray(probs, dtype=np.float64).reshape(1, -1, 1, 1)
    # a zero probability becomes a logit whose softmax is exactly 0
    logits = Tensor4.const(np.log(p, out=np.full_like(p, -800.0), where=p > 0))
    return D._dfl_terms(T.softmax_channels(logits), T.log_softmax_channels(logits),
                        np.array([target])).item()


class TestDFL:
    def test_perfect_integer_bin_zero(self):
        probs = np.array([0.0, 1.0, 0.0, 0.0])
        assert dfl(probs, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_confident_bin_focal_value(self):
        # -alpha (1 - p)^gamma log p at alpha 0.25, gamma 2
        probs = np.array([0.2, 0.8])
        v = dfl(probs, 1.0)
        assert v == pytest.approx(-0.25 * 0.2 ** 2 * math.log(0.8), abs=1e-12)

    def test_half_probability_focal_value(self):
        probs = np.array([0.5, 0.5])
        v = dfl(probs, 0.0)
        assert v == pytest.approx(0.0625 * math.log(2.0), abs=1e-12)

    def test_fractional_target_interpolates(self):
        probs = np.array([0.5, 0.5, 0.0])
        t = 0.25

        def focal(p):
            return -0.25 * (1 - p) ** 2 * math.log(p)

        expected = 0.75 * focal(0.5) + 0.25 * focal(0.5)
        assert dfl(probs, t) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_in_p_at_integer_target(self):
        vals = []
        for p in (0.2, 0.4, 0.6, 0.8, 0.95):
            vals.append(dfl(np.array([p, 1 - p]), 0.0))
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _toy_batch(cfg, seed=0, n=2):
    rng = np.random.default_rng(seed)
    outs = [Tensor4(rng.standard_normal((n, cfg.head_channels,
                                         cfg.head_grid(s), cfg.head_grid(s))))
            for s in range(3)]
    gts = [[GroundTruth(0, 0.3, 0.4, 0.08, 0.08)], [GroundTruth(0, 0.6, 0.6, 0.07, 0.09)]]
    asg = D.assign_targets(gts, cfg)
    return outs, asg, gts


class TestTotalLoss:
    def test_bce_projection_weights(self):
        cfg = D.ModelConfig()
        outs, asg, gts = _toy_batch(cfg)
        total, bd = D.total_loss(outs, asg, gts, cfg, D.LossWeights(1.0, 0.0, 0.0))
        assert total.item() == pytest.approx(bd["bce"], rel=1e-12)

    def test_homogeneity_in_weights(self):
        cfg = D.ModelConfig()
        outs, asg, gts = _toy_batch(cfg)
        t1, _ = D.total_loss(outs, asg, gts, cfg, D.LossWeights(0.1, 0.2, 0.3))
        t2, _ = D.total_loss(outs, asg, gts, cfg, D.LossWeights(0.2, 0.4, 0.6))
        assert t2.item() == pytest.approx(2.0 * t1.item(), rel=1e-12)

    def test_linearity_in_weights(self):
        cfg = D.ModelConfig()
        outs, asg, gts = _toy_batch(cfg)
        _, bd = D.total_loss(outs, asg, gts, cfg, D.LossWeights(0.0, 0.0, 0.0))
        lam = (0.37, 0.11, 0.52)
        t, _ = D.total_loss(outs, asg, gts, cfg, D.LossWeights(*lam))
        expected = lam[0] * bd["bce"] + lam[1] * bd["ciou"] + lam[2] * bd["dfl"]
        assert t.item() == pytest.approx(expected, abs=1e-12)

    def test_default_weights(self):
        w = D.LossWeights()
        assert (w.lam_bce, w.lam_ciou, w.lam_dfl) == (0.02, 0.49, 0.49)

    def test_no_positives_keeps_classification(self):
        cfg = D.ModelConfig()
        outs, _, _ = _toy_batch(cfg)
        empty_gts = [[], []]
        asg = D.assign_targets(empty_gts, cfg)
        total, bd = D.total_loss(outs, asg, empty_gts, cfg)
        assert bd["ciou"] == 0.0 and bd["dfl"] == 0.0
        assert bd["bce"] > 0.0 and bd["n_pos"] == 0
        assert math.isfinite(total.item())

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            D.LossWeights(-0.1, 0.5, 0.5)

    def test_clamped_targets_counts_the_clipped_sides(self):
        cfg = D.ModelConfig(input_size=512)
        # a 2 px box whose cell centre (12, 12) lies right of and below it,
        # and a 480 px box whose left and top sides lie 8 strides from its
        # cell centre (272, 272), past the last bin; its right and bottom
        # sides lie exactly 7 strides away, on the last bin
        gts = [[GroundTruth(0, 10 / 512, 10 / 512, 2 / 512, 2 / 512)],
               [GroundTruth(0, 0.5, 0.5, 480 / 512, 480 / 512)]]
        asg = D.assign_targets(gts, cfg)
        rng = np.random.default_rng(6)
        outs = [Tensor4(rng.standard_normal((2, cfg.head_channels, cfg.head_grid(s),
                                             cfg.head_grid(s)))) for s in range(3)]
        _, bd = D.total_loss(outs, asg, gts, cfg)
        logits, targets, _ = _dfl_rows([o.data for o in outs], asg, gts, cfg)
        clipped = np.count_nonzero((targets < 0) | (targets > cfg.reg_bins - 1))
        assert bd["clamped_targets"] == clipped == 4
        # the DFL term scores the clipped targets
        assert bd["dfl"] == pytest.approx(_dfl_oracle(logits, targets), rel=1e-12)

    @pytest.mark.parametrize("class_id", [5, 1, -1])
    def test_class_id_outside_model_classes_raises(self, class_id):
        cfg = D.ModelConfig()
        outs, _, _ = _toy_batch(cfg)
        gts = [[], [GroundTruth(0, 0.5, 0.5, 0.2, 0.2), GroundTruth(class_id, 0.3, 0.3, 0.2, 0.2)]]
        with pytest.raises(DataError, match=rf"image 1: class id {class_id}\b"):
            D.total_loss(outs, D.assign_targets(gts, cfg), gts, cfg)


def _dfl_rows(head_data, asg, gts, cfg):
    """Numpy reading of the DFL inputs: per positive cell and side, the bin
    logits, the unclipped ltrb/stride target and the logit's index in the head."""
    ncls, bins = cfg.num_classes, cfg.reg_bins
    logits, targets, where = [], [], []
    for scale, cells in enumerate(asg.per_scale):
        stride = cfg.strides[scale]
        for (b, gy, gx), gi in sorted(cells.items()):
            box = D.gt_to_box(gts[b][gi], cfg.input_size)
            cx, cy = (gx + 0.5) * stride, (gy + 0.5) * stride
            ltrb = (cx - box.x1, cy - box.y1, box.x2 - cx, box.y2 - cy)
            for side, dist in enumerate(ltrb):
                ch = ncls + side * bins
                logits.append(head_data[scale][b, ch:ch + bins, gy, gx])
                targets.append(dist / stride)
                where.append((scale, b, ch, gy, gx))
    return np.array(logits), np.array(targets), where


def _dfl_oracle(logits, targets):
    """Mean over rows of the focal bin penalty: each target, clipped into
    [0, bins - 1], puts -alpha (1 - p)^gamma log p on its floor and ceil
    bins, weighted linearly by the fractional position."""
    bins = logits.shape[1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    t = np.clip(targets, 0.0, bins - 1.0)
    lo = np.floor(t).astype(int)
    rows = np.arange(len(t))

    def focal(k):
        return -D.DFL_ALPHA * (1.0 - np.exp(log_p[rows, k])) ** D.DFL_GAMMA * log_p[rows, k]

    return np.mean((1.0 - (t - lo)) * focal(lo) + (t - lo) * focal(np.minimum(lo + 1, bins - 1)))


class TestDFLParity:
    def test_in_graph_dfl_matches_numpy_oracle(self):
        cfg = D.ModelConfig()
        outs, asg, gts = _toy_batch(cfg)
        assert outs[0].dtype == np.float64
        _, bd = D.total_loss(outs, asg, gts, cfg, D.LossWeights(0.0, 0.0, 1.0))
        logits, targets, _ = _dfl_rows([o.data for o in outs], asg, gts, cfg)
        assert len(targets) == 4 * bd["n_pos"] > 0
        assert bd["dfl"] == pytest.approx(_dfl_oracle(logits, targets), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_survives_underflowed_target_bin(self, dtype):
        cfg = D.ModelConfig()
        rng = np.random.default_rng(5)
        gts = [[GroundTruth(0, 0.3, 0.4, 0.08, 0.08)]]
        asg = D.assign_targets(gts, cfg)
        data = [rng.standard_normal((1, cfg.head_channels, cfg.head_grid(s),
                                     cfg.head_grid(s))).astype(dtype) for s in range(3)]
        logits, targets, where = _dfl_rows(data, asg, gts, cfg)
        assert 0.0 <= targets[0] <= cfg.reg_bins - 1
        lo = int(np.floor(targets[0]))
        scale, b, ch, gy, gx = where[0]
        data[scale][b, ch + lo, gy, gx] = logits[0].max() - 800.0
        outs = [Tensor4(d, requires_grad=True) for d in data]

        total, bd = D.total_loss(outs, asg, gts, cfg, D.LossWeights(0.0, 0.0, 1.0))
        # p_lo underflows to 0, so d(-alpha (1 - p)^gamma log p)/dz_lo is
        # -alpha, weighted by the floor bin's share and the 1 / (4 n_pos) mean
        expected = -D.DFL_ALPHA * (1.0 - (targets[0] - lo)) / (4 * bd["n_pos"])
        assert expected < 0.0
        # and the loss carries the unclamped log p_lo of about -800
        assert math.isfinite(bd["dfl"]) and bd["dfl"] > -799.0 * expected
        T.backward(total)
        grad = outs[scale].grad
        assert grad.dtype == dtype and np.all(np.isfinite(grad))
        assert grad[b, ch + lo, gy, gx] == pytest.approx(expected, rel=1e-5)


class TestBCEParity:
    def test_in_graph_bce_matches_numpy_oracle(self):
        cfg = D.ModelConfig()
        outs, asg, gts = _toy_batch(cfg)
        _, bd = D.total_loss(outs, asg, gts, cfg, D.LossWeights(1.0, 0.0, 0.0))

        z, y = [], []
        for scale, out in enumerate(outs):
            labels = np.zeros_like(out.data[:, :cfg.num_classes])
            for (b, gy, gx), gi in asg.per_scale[scale].items():
                labels[b, gts[b][gi].class_id, gy, gx] = 1.0
            z.append(out.data[:, :cfg.num_classes].ravel())
            y.append(labels.ravel())
        z, labels = np.concatenate(z), np.concatenate(y)
        assert labels.sum() == bd["n_pos"] > 0
        # -y log sigmoid(z) - (1 - y) log(1 - sigmoid(z)), summed over every
        # cell and divided by the positive count
        terms = labels * np.logaddexp(0.0, -z) + (1.0 - labels) * np.logaddexp(0.0, z)
        assert bd["bce"] == pytest.approx(terms.sum() / bd["n_pos"], rel=1e-12)


class TestAssignment:
    def test_small_box_lands_on_finest_scale(self):
        cfg = D.ModelConfig()
        gts = [[GroundTruth(0, 0.5, 0.5, 10 / 96, 10 / 96)]]
        asg = D.assign_targets(gts, cfg)
        assert len(asg.per_scale[0]) == 1
        assert len(asg.per_scale[1]) == len(asg.per_scale[2]) == 0

    def test_scale_selection_by_extent(self):
        cfg = D.ModelConfig()
        # 40 px box: inside [32, 128) for stride 16 but past [16, 64)'s floor
        gts = [[GroundTruth(0, 0.5, 0.5, 40 / 96, 40 / 96)]]
        asg = D.assign_targets(gts, cfg)
        assert len(asg.per_scale[0]) == 1  # 40 in [16, 64) -> finest wins first
        gts = [[GroundTruth(0, 0.5, 0.5, 70 / 96, 70 / 96)]]
        asg = D.assign_targets(gts, cfg)
        assert len(asg.per_scale[1]) == 1  # 70 in [32, 128) only

    @pytest.mark.parametrize("extent, scale", [
        (math.nextafter(16.0, 0.0), 0), (16.0, 0), (math.nextafter(64.0, 0.0), 0), (64.0, 1),
        (math.nextafter(32.0, 0.0), 0), (32.0, 0), (math.nextafter(128.0, 0.0), 1), (128.0, 2),
        (math.nextafter(256.0, 0.0), 2), (256.0, 2), (1000.0, 2)])
    def test_scale_boundaries(self, extent, scale):
        # each stride s takes extents in [2s, 8s); below 16 the finest, from 256 the coarsest
        assert D._pick_scale(extent, D.HEAD_STRIDES) == scale

    def test_two_distinct_cells_two_positives(self):
        cfg = D.ModelConfig()
        gts = [[GroundTruth(0, 0.2, 0.2, 0.05, 0.05), GroundTruth(0, 0.8, 0.8, 0.05, 0.05)]]
        assert D.assign_targets(gts, cfg).num_positives() == 2

    def test_same_cell_larger_area_wins(self):
        cfg = D.ModelConfig()
        small = GroundTruth(0, 0.51, 0.51, 0.04, 0.04)
        large = GroundTruth(0, 0.52, 0.52, 0.08, 0.08)
        for order in ([small, large], [large, small]):
            asg = D.assign_targets([order], cfg)
            assert asg.num_positives() == 1
            ((key, gi),) = asg.per_scale[0].items()
            assert order[gi] is large

    def test_cell_is_center_cell(self):
        cfg = D.ModelConfig()
        gts = [[GroundTruth(0, 0.5, 0.25, 0.05, 0.05)]]  # cx=48, cy=24
        asg = D.assign_targets(gts, cfg)
        ((b, gy, gx),) = asg.per_scale[0].keys()
        assert (b, gy, gx) == (0, 3, 6)


class TestDecode:
    def test_all_low_logits_empty(self):
        cfg = D.ModelConfig()
        outs = [np.full((1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)), -40.0)
                for s in range(3)]
        dets = D.decode(outs, cfg)
        assert dets == [[]]

    def test_confident_float32_background_decodes_silently(self):
        # exp(100) overflows float32; the warnings filter turns a warning into a failure
        cfg = D.ModelConfig(input_size=64)
        outs = [np.full((1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)), -100.0,
                        dtype=np.float32) for s in range(3)]
        assert D.decode(outs, cfg) == [[]]

    def test_single_hot_cell_single_detection(self):
        cfg = D.ModelConfig()
        outs = [np.full((1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)), -40.0)
                for s in range(3)]
        outs[0][0, 0, 3, 6] = 8.0
        reg = np.full((4, cfg.reg_bins), -40.0)
        reg[:, 1] = 8.0  # every side expects one bin
        outs[0][0, 1:, 3, 6] = reg.reshape(-1)
        (dets,) = D.decode(outs, cfg)
        assert len(dets) == 1
        d = dets[0]
        # cell center (52, 28) with unit-bin distances at stride 8
        assert (d.box.x1, d.box.y1, d.box.x2, d.box.y2) == pytest.approx((44, 20, 60, 36), abs=1e-6)
        assert d.score == pytest.approx(1.0 / (1.0 + math.exp(-8.0)))

    def test_nan_regression_logit_raises_numeric_error(self):
        cfg = D.ModelConfig()
        outs = [np.full((1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)), -40.0)
                for s in range(3)]
        outs[0][0, 0, 3, 6] = 8.0  # one candidate cell ...
        outs[0][0, cfg.num_classes + 2, 3, 6] = np.nan  # ... with one NaN bin logit
        with pytest.raises(NumericError, match="non-finite box"):
            D.decode(outs, cfg)

    def test_nms_keeps_higher_score(self):
        # rows come in descending-score order, so row 0 is the higher score
        rows = np.array([[0.0, 0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 0.0, 10.0, 10.0]])
        assert D._nms(rows, 0.45) == [0]

    def test_nms_pairwise_iou_below_threshold(self):
        from irstkit.metrics import iou
        rng = np.random.default_rng(5)
        cfg = D.ModelConfig()
        outs = [rng.normal(0, 3, (1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)))
                for s in range(3)]
        (dets,) = D.decode(outs, cfg, score_thresh=0.3)
        for i in range(len(dets)):
            for j in range(i + 1, len(dets)):
                if dets[i].class_id == dets[j].class_id:
                    assert iou(dets[i].box, dets[j].box) < 0.45
        assert all(dets[i].score >= dets[i + 1].score for i in range(len(dets) - 1))

    def test_invalid_thresholds_rejected(self):
        cfg = D.ModelConfig()
        with pytest.raises(ConfigError):
            D.decode([np.zeros((1, cfg.head_channels, 12, 12))] * 3, cfg, score_thresh=0.0)

    @pytest.mark.parametrize("thresh", ["0.5", None, 0.5j])
    def test_non_real_threshold_rejected_naming_it(self, thresh):
        cfg = D.ModelConfig()
        with pytest.raises(ConfigError, match="^score_thresh must be a real number"):
            D.decode([np.zeros((1, cfg.head_channels, 12, 12))] * 3, cfg, score_thresh=thresh)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_classes", [1, 2])
    def test_matches_full_grid_reference(self, dtype, num_classes):
        cfg = D.ModelConfig(num_classes=num_classes)
        rng = np.random.default_rng(num_classes)
        outs = [rng.normal(0, 3, (3, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)))
                .astype(dtype) for s in range(3)]
        outs[0][1, :num_classes] = -40.0  # one scale of one image without candidates
        outs[2][2, :num_classes] = -40.0
        outs[2][2, :num_classes, 1, 2] = 5.0  # a single candidate cell on a scale
        for thresh in (0.25, 0.5, 0.9):
            got = D.decode(outs, cfg, score_thresh=thresh)
            want = _decode_reference(outs, cfg, thresh, 0.45)
            assert len(got) == len(want) == 3
            assert sum(map(len, want)) > 0
            for g_img, w_img in zip(got, want):
                assert ([(d.class_id, d.score, d.image_id) for d in g_img]
                        == [(d.class_id, d.score, d.image_id) for d in w_img])
                for g, w in zip(g_img, w_img):
                    np.testing.assert_allclose([g.box.x1, g.box.y1, g.box.x2, g.box.y2],
                                               [w.box.x1, w.box.y1, w.box.x2, w.box.y2],
                                               rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block", [D.NMS_BLOCK, 7])
    def test_nms_matches_pairwise_greedy(self, block, monkeypatch):
        monkeypatch.setattr(D, "NMS_BLOCK", block)
        rng = np.random.default_rng(9)
        dets = []
        for i in range(60):
            x1, y1 = rng.uniform(0, 40, 2)
            w, h = rng.uniform(0, 15, 2) if i % 6 else (0.0, rng.uniform(0, 5))  # zero area
            dets.append(Detection(0, float(rng.choice([0.3, 0.6, 0.9])),  # tied scores
                                  Box(x1, y1, x1 + w, y1 + h)))
        dets += [Detection(0, 0.6, Box(5, 5, 5, 5)), Detection(0, 0.6, Box(5, 5, 5, 5))]
        ranked = sorted(dets, key=lambda d: -d.score)  # stable, as decode orders a group
        row = {id(d): i for i, d in enumerate(ranked)}
        rows = np.array([(0.0, d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in ranked])
        for thresh in (0.2, 0.45, 0.7):
            kept = D._nms(rows, thresh)
            assert kept == [row[id(d)] for d in _nms_reference(ranked, thresh)]
        # coincident zero-area boxes have IoU 0, so neither suppresses the other
        assert row[id(dets[-2])] in kept and row[id(dets[-1])] in kept

    def test_nms_single_box(self):
        assert D._nms(np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]), 0.45) == [0]

    @pytest.mark.parametrize("block", [D.NMS_BLOCK, 16, 7])
    def test_nms_of_many_groups_matches_pairwise_greedy_per_group(self, block, monkeypatch):
        # one-box groups, groups of exactly one block, groups larger than a
        # block, and runs of small groups whose padded rows cross a block
        monkeypatch.setattr(D, "NMS_BLOCK", block)
        rng = np.random.default_rng(11)
        sizes = [1, 5, 1, 1, 7, 20, 3, 8, 1, 16, 2, 6, 6, 6, 1, 30, 4]
        groups = []
        for size in sizes:
            dets = []
            for _ in range(size):
                x1, y1 = rng.uniform(0, 30, 2)
                w, h = rng.uniform(1, 15, 2)
                dets.append(Detection(0, float(rng.choice([0.3, 0.6])),  # tied scores
                                      Box(x1, y1, x1 + w, y1 + h)))
            groups.append(sorted(dets, key=lambda d: -d.score))
        # group ids need only differ between neighbours, as decode's do
        rows = np.array([(g % 3, d.box.x1, d.box.y1, d.box.x2, d.box.y2)
                         for g, ranked in enumerate(groups) for d in ranked])
        row = {id(d): i for i, d in enumerate(d for ranked in groups for d in ranked)}
        for thresh in (0.2, 0.45, 0.7):
            want = [row[id(d)] for ranked in groups for d in _nms_reference(ranked, thresh)]
            assert D._nms(rows, thresh) == want
            if thresh == 0.2:
                assert len(want) < len(rows) - len(groups)  # suppression within groups

    def test_nms_without_rows(self):
        assert D._nms(np.zeros((0, 5)), 0.45) == []

    @pytest.mark.parametrize("block", [D.NMS_BLOCK, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_over_images_and_classes(self, seed, block, monkeypatch):
        monkeypatch.setattr(D, "NMS_BLOCK", block)
        cfg = D.ModelConfig(num_classes=3)
        rng = np.random.default_rng(100 + seed)
        outs = [rng.normal(-1.0, 2.0, (4, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)))
                for s in range(3)]
        got = D.decode(outs, cfg, score_thresh=0.5)
        want = _decode_reference(outs, cfg, 0.5, D.NMS_IOU)
        assert len({d.class_id for per in want for d in per}) == 3
        assert len(got) == len(want) == 4
        for g_img, w_img in zip(got, want):
            assert ([(d.class_id, d.score, d.image_id) for d in g_img]
                    == [(d.class_id, d.score, d.image_id) for d in w_img])
            for g, w in zip(g_img, w_img):
                np.testing.assert_allclose([g.box.x1, g.box.y1, g.box.x2, g.box.y2],
                                           [w.box.x1, w.box.y1, w.box.x2, w.box.y2],
                                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("malform, match", [
        (lambda outs: outs[:2], "^decode needs 3 head outputs"),
        (lambda outs: outs + outs[:1], "^decode needs 3 head outputs"),
        (lambda outs: [], "^decode needs 3 head outputs"),
        (lambda outs: [outs[0], outs[1][:, :5], outs[2]], "^head 1 must be"),
        (lambda outs: [outs[0], outs[1], outs[2][0]], "^head 2 must be"),
        (lambda outs: [outs[0], np.concatenate([outs[1]] * 2), outs[2]], "^head 1 holds 2 images"),
    ], ids=["two heads", "four heads", "no heads", "five channels", "rank 3", "batch of two"])
    def test_malformed_heads_raise_shape_error_naming_the_scale(self, malform, match):
        cfg = D.ModelConfig()
        outs = [np.zeros((1, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)))
                for s in range(3)]
        with pytest.raises(ShapeError, match=match):
            D.decode(malform(outs), cfg)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_bin_logit_named_before_the_softmax(self, bad):
        cfg = D.ModelConfig()
        outs = [np.full((2, cfg.head_channels, cfg.head_grid(s), cfg.head_grid(s)), -40.0)
                for s in range(3)]
        outs[0][0, 0, 3, 6] = 8.0  # a finite candidate on scale 0 ...
        outs[1][1, 0, 2, 4] = 8.0  # ... and one on scale 1 with a bad bin logit
        outs[1][1, cfg.num_classes + 5, 2, 4] = bad
        # the warnings filter turns numpy's invalid-value warning into a failure
        with pytest.raises(NumericError, match=r"image 1, scale 1, cell \(row 2, column 4\)"):
            D.decode(outs, cfg)


def _nms_reference(dets, nms_iou):
    """Greedy NMS by pairwise ``metrics.iou`` over a stable descending-score order."""
    from irstkit.metrics import iou
    keep = []
    for det in sorted(dets, key=lambda d: -d.score):
        if all(iou(det.box, k.box) < nms_iou for k in keep):
            keep.append(det)
    return keep


def _decode_reference(head_outs, cfg, score_thresh, nms_iou):
    """Decode with the bin softmax and expectation over the full grid."""
    ncls, bins = cfg.num_classes, cfg.reg_bins
    n = head_outs[0].shape[0]
    raw = [[] for _ in range(n)]
    for scale, out in enumerate(head_outs):
        stride = cfg.strides[scale]
        _, _, gh, gw = out.shape
        scores = 1.0 / (1.0 + np.exp(-out[:, :ncls]))
        reg = out[:, ncls:].reshape(n, 4, bins, gh, gw)
        e = np.exp(reg - reg.max(axis=2, keepdims=True))
        probs = e / e.sum(axis=2, keepdims=True)
        dist = np.einsum("nsbhw,b->nshw", probs, np.arange(bins)) * stride
        for b in range(n):
            for cls in range(ncls):
                ys, xs = np.nonzero(scores[b, cls] >= score_thresh)
                for gy, gx in zip(ys, xs):
                    cx, cy = (gx + 0.5) * stride, (gy + 0.5) * stride
                    l, t, r, d = dist[b, :, gy, gx]
                    raw[b].append(Detection(class_id=cls, score=float(scores[b, cls, gy, gx]),
                                            box=Box(cx - l, cy - t, cx + r, cy + d), image_id=b))
    result = []
    for b in range(n):
        kept = []
        for cls in sorted({d.class_id for d in raw[b]}):
            kept.extend(_nms_reference([d for d in raw[b] if d.class_id == cls], nms_iou))
        result.append(sorted(kept, key=lambda d: -d.score))
    return result


class TestSchedule:
    def test_warmup_origin(self):
        tc = D.TrainConfig(epochs=10, warmup_epochs=3)
        lr, b1 = D.lr_schedule(0, 100, 10, tc)
        assert lr == pytest.approx(tc.lr0 / 30)
        assert b1 == pytest.approx(0.8 + (0.937 - 0.8) / 30)

    def test_warmup_end_reaches_lr0(self):
        tc = D.TrainConfig(epochs=10, warmup_epochs=3)
        lr, b1 = D.lr_schedule(29, 100, 10, tc)
        assert lr == pytest.approx(tc.lr0)
        assert b1 == pytest.approx(0.937)

    def test_final_step_half_lr(self):
        tc = D.TrainConfig(epochs=10, warmup_epochs=3)
        lr, _ = D.lr_schedule(99, 100, 10, tc)
        assert lr == pytest.approx(0.0005, abs=1e-12)

    def test_cosine_monotone_after_warmup(self):
        tc = D.TrainConfig(epochs=10, warmup_epochs=3)
        lrs = [D.lr_schedule(s, 100, 10, tc)[0] for s in range(30, 100)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_default_config_is_valid(self):
        tc = D.TrainConfig()
        assert tc.warmup_epochs <= tc.epochs


class TestAdamW:
    def test_quadratic_converges_within_200_steps(self):
        target = 3.0
        p = Tensor4(np.array([[[[10.0]]]]), requires_grad=True)
        opt = D.AdamW([p])
        for _ in range(200):
            p.zero_grad()
            loss = T.sum_all(T.mul(T.sub(p, target), T.sub(p, target)))
            T.backward(loss)
            opt.step(lr=0.1, beta1=0.9, weight_decay=0.0)
        assert abs(p.item() - target) < 0.05

    def test_decoupled_weight_decay_shrinks_params(self):
        p = Tensor4(np.array([[[[5.0]]]]), requires_grad=True)
        opt = D.AdamW([p])
        p.grad = np.zeros_like(p.data)
        opt.step(lr=0.1, beta1=0.9, weight_decay=0.1)
        assert p.item() == pytest.approx(5.0 * (1 - 0.1 * 0.1))


def micro_config():
    return D.ModelConfig(input_size=32, widths=(4, 4, 4, 4), num_classes=1, reg_bins=4)


class TestModelBuild:
    def test_head_grids_follow_strides(self):
        cfg = D.ModelConfig()
        model = D.Detector(cfg, init_seed=1)
        x = Tensor4(np.zeros((1, 1, 96, 96)))
        with T.no_grad():
            outs = model.forward(x)
        assert [o.shape for o in outs] == [
            (1, 33, 12, 12), (1, 33, 6, 6), (1, 33, 3, 3)]

    def test_strides_are_not_configurable(self):
        with pytest.raises(TypeError):
            D.ModelConfig(strides=(4, 8, 16))
        assert D.ModelConfig().strides == (8, 16, 32)

    @pytest.mark.parametrize("cfg", [D.ModelConfig(), D.paper_scale_config()],
                             ids=["default", "paper_scale"])
    def test_built_head_grids_equal_config_grids(self, cfg):
        model = D.Detector(cfg, init_seed=1, dtype=np.float32)
        x = Tensor4(np.zeros((1, 1, cfg.input_size, cfg.input_size), dtype=np.float32))
        with T.no_grad():
            outs = model(x)
        assert [o.shape[2:] for o in outs] == [(cfg.head_grid(i),) * 2 for i in range(3)]

    def test_head_channel_contract(self):
        cfg = D.ModelConfig(num_classes=3, reg_bins=8)
        assert cfg.head_channels == 3 + 32

    def test_smoke_forward_default_config(self):
        model = D.Detector(D.ModelConfig(), init_seed=2)
        x = Tensor4(np.random.default_rng(0).random((1, 1, 96, 96)))
        with T.no_grad():
            outs = model.forward(x, training=False)
        assert all(np.isfinite(o.data).all() for o in outs)

    @pytest.mark.parametrize("build", [
        lambda: D.ModelConfig(depths=(1, 2)),
        lambda: D.ModelConfig(expansion=6),
        lambda: D.ModelConfig(kernel=3),
        lambda: B.MBConvConfig(8, 8, expansion=6),
        lambda: B.GSConvConfig(4, 4, shuffle_groups=2),
        lambda: D.train_loop(None, None, None, D.TrainConfig(), stop_map=0.5),
        lambda: D.TrainConfig(lr_final_fraction=0.1),
        lambda: D.TrainConfig(momentum=0.9),
        lambda: D.TrainConfig(warmup_momentum=0.5),
        lambda: D.TrainConfig(weight_decay=0.0),
        lambda: D.AdamW([], eps=1e-6),
        lambda: D.decode([], D.ModelConfig(), nms_iou=0.5),
        lambda: D.predict(None, None, nms_iou=0.5),
        lambda: M.match_detections([], [], iou_thresh=0.3),
        lambda: M.map50([], [], iou_thresh=0.3),
        lambda: M.evaluate_detections([], [], iou_thresh=0.3),
        lambda: M.mnocoap([], [], {}, deltas=(0.5,)),
    ], ids=["depths", "expansion", "kernel", "mbconv_expansion", "shuffle_groups", "stop_map",
            "lr_final_fraction", "momentum", "warmup_momentum", "weight_decay", "adamw_eps",
            "decode_nms_iou", "predict_nms_iou", "match_iou_thresh", "map50_iou_thresh",
            "evaluate_iou_thresh", "mnocoap_deltas"])
    def test_fixed_hyperparameter_is_not_settable(self, build):
        with pytest.raises(TypeError):
            build()

    def test_input_size_multiple_of_32(self):
        with pytest.raises(ConfigError):
            D.ModelConfig(input_size=100)

    @pytest.mark.parametrize("field, value", [
        ("input_size", 0), ("input_size", -32),
        ("num_classes", 0), ("in_channels", 0), ("reg_bins", 1),
    ])
    def test_out_of_range_field_raises_config_error_naming_it(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            D.ModelConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("input_size", 96.0), ("widths", (8, 16, 32, 64.0)), ("widths", "abcd"), ("widths", 64),
        ("reg_bins", 8.0), ("num_classes", 1.0), ("in_channels", 1.5),
    ])
    def test_non_integer_model_config_field_raises_config_error_naming_it(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            D.ModelConfig(**{field: value})

    def test_model_config_accepts_numpy_integers(self):
        cfg = D.ModelConfig(input_size=np.int64(64), widths=np.array([8, 16, 32, 64]),
                            reg_bins=np.int32(8), num_classes=np.uint8(1), in_channels=np.int64(1))
        assert cfg.widths == (8, 16, 32, 64) and cfg.head_grid(0) == 8

    @pytest.mark.parametrize("field, value", [
        ("lr0", math.nan), ("lr0", math.inf), ("lr0", 0.0), ("lr0", -1e-3),
        ("beta2", math.nan), ("beta2", 1.0), ("beta2", -0.1),
        ("warmup_epochs", -2), ("warmup_epochs", math.nan), ("warmup_epochs", 101),
        ("batch", 0), ("epochs", 0), ("epochs", -3), ("epochs", math.nan), ("seed", -1),
        # counts that are not integers would fail later in train_loop with a raw TypeError
        ("epochs", 2.5), ("batch", 1.5), ("warmup_epochs", 1.0), ("seed", 1.5),
    ])
    def test_bad_train_config_field_raises_config_error_naming_it(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} "):
            D.TrainConfig(**{field: value})

    def test_train_config_accepts_numpy_integers(self):
        D.TrainConfig(batch=np.int64(2), epochs=np.int32(4), warmup_epochs=np.uint8(1),
                      seed=np.int64(3))

    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_train_loop_rejects_label_count_unequal_to_image_count(self, n_labels):
        model = D.Detector(micro_config(), init_seed=1, dtype=np.float32)
        before = [a.tobytes() for _, a in model.state_arrays()]
        images = np.zeros((4, 1, 32, 32), dtype=np.float32)
        gts = [[GroundTruth(0, 0.5, 0.5, 0.3, 0.3)]] * n_labels
        logged = []
        with pytest.raises(DataError, match=f"^{n_labels} label lists for 4 images"):
            D.train_loop(model, images, gts, D.TrainConfig(batch=2, epochs=1, warmup_epochs=0),
                         log_fn=logged.append)
        assert logged == [] and [a.tobytes() for _, a in model.state_arrays()] == before

    def test_entry_points_check_input_channels(self):
        cfg = micro_config()
        model = D.Detector(cfg, init_seed=1, dtype=np.float32)
        images = np.zeros((1, 2, 32, 32), dtype=np.float32)
        with pytest.raises(ShapeError, match="^model: expected 1 channels, got 2"):
            D.predict(model, images)
        with pytest.raises(ShapeError, match="^model: expected 1 channels, got 2"):
            D.train_step(model, D.AdamW(model.parameters()), images, [[]], 0, 10, 1,
                         D.TrainConfig(epochs=10), D.LossWeights())

    @pytest.mark.parametrize("size", [(97, 97), (96, 80), (64, 97)])
    def test_entry_points_check_input_size(self, size):
        model = D.Detector(D.ModelConfig(), init_seed=1, dtype=np.float32)
        images = np.zeros((1, 1) + size, dtype=np.float32)
        want = f"^model: input {size[0]}x{size[1]} is not a multiple of the deepest stride 32"
        with pytest.raises(ShapeError, match=want):
            D.predict(model, images)
        with pytest.raises(ShapeError, match=want):
            D.train_step(model, D.AdamW(model.parameters()), images, [[]], 0, 10, 1,
                         D.TrainConfig(epochs=10), D.LossWeights())

    @pytest.mark.parametrize("batch", [0, -1])
    def test_predict_rejects_batch_below_one(self, batch):
        model = D.Detector(micro_config(), init_seed=1, dtype=np.float32)
        with pytest.raises(ConfigError, match=f"^batch must be >= 1, got {batch}"):
            D.predict(model, np.zeros((2, 1, 32, 32), dtype=np.float32), batch=batch)

    @pytest.mark.parametrize("batch", [1.5, 2.0, "2"])
    def test_predict_rejects_non_integer_batch(self, batch):
        model = D.Detector(micro_config(), init_seed=1, dtype=np.float32)
        with pytest.raises(ConfigError, match=f"^batch must be an integer, got {batch!r}"):
            D.predict(model, np.zeros((2, 1, 32, 32), dtype=np.float32), batch=batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_leaves_images_untouched(self, dtype):
        model = D.Detector(micro_config(), init_seed=1, dtype=np.float32)
        images = np.random.default_rng(12).random((3, 1, 32, 32)).astype(dtype)
        before = images.tobytes()
        # below the class prior, so the untrained model has detections to compare
        thresh = D.CLASS_PRIOR / 2
        dets = D.predict(model, images, score_thresh=thresh, batch=2)
        assert images.dtype == dtype and images.tobytes() == before
        assert sum(map(len, dets)) > 0
        assert dets == D.predict(model, images.astype(np.float32), score_thresh=thresh, batch=2)


def randomize_bn(model, seed):
    """Batch norms that are far from the identity: random gammas, betas and
    running statistics."""
    rng = np.random.default_rng(seed)
    for m in model.sublayers():
        if isinstance(m, B.BatchNormLayer):
            dtype = m.gamma.data.dtype
            m.gamma.data = rng.uniform(0.5, 1.5, (1, m.c, 1, 1)).astype(dtype)
            m.beta.data = rng.normal(0.0, 0.3, (1, m.c, 1, 1)).astype(dtype)
            m.running_mean.data = rng.normal(0.0, 0.5, (1, m.c, 1, 1))
            m.running_var.data = rng.uniform(0.3, 2.0, (1, m.c, 1, 1))
    return model


def rel_error(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestNoGradEqualsRecording:
    """Heads computed without a tape equal the recording path's bit for bit,
    for the model and for its fused copy, as the benchmark's final check
    asserts at paper scale."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_equal(self, dtype):
        model = randomize_bn(D.Detector(D.ModelConfig(), init_seed=4, dtype=dtype), seed=5)
        fused = model.fused()
        x = Tensor4(np.random.default_rng(6).random((1, 1, 64, 64)).astype(dtype))
        for run in (lambda: model.forward(x, training=False), lambda: fused(x)):
            with T.no_grad():
                fast = run()
            taped = run()
            assert all(h.op is None for h in fast) and all(h.op is not None for h in taped)
            for a, b in zip(fast, taped):
                np.testing.assert_array_equal(a.data, b.data)


class TestFused:
    """``Detector.fused()``: each conv -> batch-norm pair becomes one conv
    with a bias, in a copy that leaves the original alone."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-6), (np.float32, 1e-5)])
    def test_heads_match_unfused(self, dtype, tol):
        model = randomize_bn(D.Detector(D.ModelConfig(), init_seed=4, dtype=dtype), seed=5)
        x = Tensor4(np.random.default_rng(6).random((2, 1, 96, 96)).astype(dtype))
        with T.no_grad():
            want = model(x)
            got = model.fused()(x)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert rel_error(g.data, w.data) <= tol

    def test_every_batch_norm_folded(self):
        model = D.Detector(D.ModelConfig(), init_seed=4)
        fused = model.fused()
        assert sum(isinstance(m, B.BatchNormLayer) for m in model.sublayers()) == 33
        # 33 = 29 that follow a conv + the 4 VKConv norms that follow a sample
        kept = [m.name for m in fused.sublayers() if isinstance(m, B.BatchNormLayer)]
        assert kept == [f"model.{s}.vk.bn" for s in ("fuse_t4", "fuse_t3", "fuse_m4", "fuse_m5")]
        assert sum(isinstance(m, B.PassThrough) for m in fused.sublayers()) == 29
        # unfolded parameters are shared, folded convs get new arrays
        assert fused.head0.out.weight.data is model.head0.out.weight.data
        assert fused.stem.conv.weight.data is not model.stem.conv.weight.data
        assert type(fused.a0) is B.MBConvBlock

    def test_original_state_unchanged(self):
        model = randomize_bn(D.Detector(D.ModelConfig(), init_seed=4), seed=7)
        before = [(name, arr.copy()) for name, arr in model.state_arrays()]
        model.fused()
        after = model.state_arrays()
        assert [n for n, _ in before] == [n for n, _ in after]
        for (_, a), (_, b) in zip(before, after):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_training_the_source_leaves_the_copy_alone(self):
        # the fold copies modules shallowly; the batch norms it keeps
        # (VKConv's) still hold running statistics of their own
        cfg = D.ModelConfig(input_size=64, widths=(4, 4, 4, 4), num_classes=1, reg_bins=4)
        model = randomize_bn(D.Detector(cfg, init_seed=8, dtype=np.float32), seed=9)
        before = [(name, arr.copy()) for name, arr in model.state_arrays()]
        fused = model.fused()
        assert [(n, a.dtype, a.tobytes()) for n, a in model.state_arrays()] == [
            (n, a.dtype, a.tobytes()) for n, a in before]

        def kept_stats(m):
            return [(bn.name, bn.running_mean.data.tobytes(), bn.running_var.data.tobytes())
                    for bn in m.sublayers() if isinstance(bn, B.BatchNormLayer)
                    and bn.name.endswith(".vk.bn")]

        fused_stats, source_stats = kept_stats(fused), kept_stats(model)
        assert len(fused_stats) == 4 and fused_stats == source_stats
        images = np.random.default_rng(10).random((2, 1, 64, 64)).astype(np.float32)
        D.train_step(model, D.AdamW(model.parameters()), images, [[], []], 0, 10, 1,
                     D.TrainConfig(epochs=10), D.LossWeights())
        assert all(a != b for a, b in zip(kept_stats(model), source_stats))
        assert kept_stats(fused) == fused_stats

    def test_predict_equals_decoded_unfused_forward(self):
        cfg = D.ModelConfig(input_size=64, widths=(4, 4, 4, 4), num_classes=2, reg_bins=4)
        model = randomize_bn(D.Detector(cfg, init_seed=8, dtype=np.float64), seed=9)
        images = np.random.default_rng(10).random((3, 1, 64, 64))
        # below the class prior, so the untrained model has detections to compare
        thresh = D.CLASS_PRIOR / 2
        got = D.predict(model, images, score_thresh=thresh, batch=2)
        assert got == D.predict(model, images, score_thresh=thresh, batch=2)
        with T.no_grad():
            want = D.decode(model(Tensor4(images)), cfg, score_thresh=thresh)
        assert sum(map(len, want)) > 10
        for i, (g_img, w_img) in enumerate(zip(got, want)):
            assert len(g_img) == len(w_img)
            for g, w in zip(g_img, w_img):
                assert (g.image_id, g.class_id) == (i, w.class_id)
                assert g.score == pytest.approx(w.score, rel=1e-12)
                for side in ("x1", "y1", "x2", "y2"):
                    assert getattr(g.box, side) == pytest.approx(getattr(w.box, side), rel=1e-9)

    def test_cost_tape_counts_the_folded_parameters(self):
        model = D.Detector(D.paper_scale_config(), dtype=np.float32)
        fused = model.fused()
        x = Tensor4(np.zeros((1, 1, 64, 64), dtype=np.float32))
        totals = []
        for m in (model, fused):
            with T.no_grad(), C.tracking() as tape:
                m(x)
            totals.append(tape.report().total_params)
        # each of the 29 folds trades a batch norm's 2c for a conv bias of c;
        # folding all 33 gave 6_315_388, and the 4 unfolded VKConv norms keep
        # c more each, their c_out: 144 + 64 + 144 + 144 = 496
        assert totals == [model.num_scalars(), fused.num_scalars()]
        assert totals == [6_319_388, 6_315_388 + 496] == [6_319_388, 6_315_884]


class TestConsecutiveCalls:
    """The next frame through the same model leaves the last frame's outputs
    alone: no buffer handed back to a caller is reused underneath it."""

    def test_outputs_survive_the_next_frame(self):
        model = randomize_bn(D.Detector(D.ModelConfig(), init_seed=4, dtype=np.float32), seed=5)
        frame_a, frame_b = np.random.default_rng(11).random((2, 1, 1, 96, 96)).astype(np.float32)
        fused = model.fused()
        with T.no_grad():
            heads_a = fused(Tensor4(frame_a))
            bytes_a = [h.data.tobytes() for h in heads_a]
            heads_b = fused(Tensor4(frame_b))
        assert [h.data.tobytes() for h in heads_a] == bytes_a
        assert [h.data.tobytes() for h in heads_b] != bytes_a

        dets_a = D.predict(model, frame_a, score_thresh=0.3, batch=1)
        kept = copy.deepcopy(dets_a)
        dets_b = D.predict(model, frame_b, score_thresh=0.3, batch=1)
        assert len(dets_a[0]) > 0 and dets_b != dets_a
        assert dets_a == kept == D.predict(model, frame_a, score_thresh=0.3, batch=1)


class TestOverfit:
    def test_four_scenes_reach_train_map50_of_point_nine(self):
        """The tiny model learns to find the targets it trains on: 80 steps
        on one batch of four 64 px scenes.  This needs a class signal that
        the background does not drown: at a 0.5 class prior and a BCE
        averaged over every cell, train mAP@50 stays below 0.1."""
        scenes = [generate_scene(SceneSpec(size=64, sigma_range=(2.0, 4.0), seed=i))
                  for i in range(4)]
        images = np.stack([img[None] for img, _ in scenes]).astype(np.float32)
        gts = [labels for _, labels in scenes]
        cfg = D.ModelConfig(input_size=64)
        model = D.Detector(cfg, dtype=np.float32)
        D.train_loop(model, images, gts, D.TrainConfig(batch=4, epochs=80, lr0=0.003))
        dets = [d for per in D.predict(model, images, score_thresh=0.01) for d in per]
        truth = [M.GTBox(i, g.class_id, D.gt_to_box(g, cfg.input_size))
                 for i, labels in enumerate(gts) for g in labels]
        assert len(truth) == 8
        assert M.map50(dets, truth) >= 0.9


class TestPipelineGradient:
    def test_param_gradients_match_finite_differences(self):
        """Analytic total-loss parameter gradients on a one-image micro
        model agree with central differences at 1e-3."""
        # 64px input keeps the deepest feature map above 1x1 so batch norm
        # stays valid in training mode with a single image
        cfg = D.ModelConfig(input_size=64, widths=(4, 4, 4, 4), num_classes=1, reg_bins=4)
        model = D.Detector(cfg, init_seed=3, dtype=np.float64)
        rng = np.random.default_rng(8)
        image = rng.random((1, 1, 64, 64))
        gts = [[GroundTruth(0, 0.45, 0.55, 0.2, 0.25)]]
        asg = D.assign_targets(gts, cfg)
        weights = D.LossWeights()

        def loss_value():
            outs = model.forward(Tensor4(image), training=True, seed=11)
            total, _ = D.total_loss(outs, asg, gts, cfg, weights)
            return total

        model.zero_grads()
        T.backward(loss_value())
        params = model.parameters()
        eps = 1e-5
        checked = 0
        worst = 0.0
        prng = np.random.default_rng(9)
        for p in prng.choice(len(params), size=12, replace=False):
            param = params[p]
            flat = param.data.reshape(-1)
            grad = (param.grad if param.grad is not None
                    else np.zeros_like(param.data)).reshape(-1)
            for i in prng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = loss_value().item()
                flat[i] = orig - eps
                f_minus = loss_value().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2 * eps)
                denom = max(abs(grad[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(grad[i] - numeric) / denom)
                checked += 1
        assert checked >= 30
        assert worst <= 1e-3, f"worst rel err {worst:.2e}"


class TestTrainingDeterminism:
    def test_identical_configs_identical_records(self):
        cfg = micro_config()
        rng = np.random.default_rng(10)
        images = rng.random((4, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.4, 0.4, 0.2, 0.2)] for _ in range(4)]

        def run():
            model = D.Detector(cfg, init_seed=5, dtype=np.float32)
            tc = D.TrainConfig(batch=2, epochs=4, warmup_epochs=1, seed=3)
            return D.train_loop(model, images, gts, tc)

        r1, r2 = run(), run()
        assert len(r1) == len(r2) == 8
        for a, b in zip(r1, r2):
            assert a == b

    def test_second_train_loop_starts_from_a_fresh_optimizer(self):
        # the optimizer's moments and step counts do not outlive its loop:
        # training on further equals training a reloaded copy of the weights
        cfg = micro_config()
        images = np.random.default_rng(15).random((4, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.4, 0.4, 0.2, 0.2)] for _ in range(4)]
        tc = D.TrainConfig(batch=2, epochs=2, warmup_epochs=1, seed=3)
        model = D.Detector(cfg, init_seed=5, dtype=np.float32)
        D.train_loop(model, images, gts, tc)
        reloaded = D.Detector(cfg, init_seed=9, dtype=np.float32)
        reloaded.load_state(dict(model.state_arrays()))
        assert D.train_loop(model, images, gts, tc) == D.train_loop(reloaded, images, gts, tc)

    def test_log_fn_receives_every_record_in_order(self):
        cfg = micro_config()
        images = np.random.default_rng(13).random((4, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.4, 0.4, 0.2, 0.2)] for _ in range(4)]
        model = D.Detector(cfg, init_seed=5, dtype=np.float32)
        logged = []
        tc = D.TrainConfig(batch=2, epochs=2, warmup_epochs=1, seed=3)
        recs = D.train_loop(model, images, gts, tc, log_fn=logged.append)
        assert [r["step"] for r in recs] == [0, 1, 2, 3]
        assert logged == recs

    def test_float32_step_stays_float32(self):
        cfg = micro_config()
        images = np.random.default_rng(14).random((2, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.5, 0.5, 0.3, 0.3)] for _ in range(2)]
        model = D.Detector(cfg, init_seed=8, dtype=np.float32)
        heads = model(Tensor4(images), training=True, seed=1)
        assert [h.dtype for h in heads] == [np.float32] * 3
        D.train_step(model, D.AdamW(model.parameters()), images, gts, 0, 10, 1,
                     D.TrainConfig(epochs=10), D.LossWeights())
        grads = [p.grad for p in model.parameters()]
        assert len(grads) == 175
        assert all(g is not None and g.dtype == np.float32 for g in grads)

    def test_loss_decreases_on_tiny_problem(self):
        cfg = micro_config()
        rng = np.random.default_rng(11)
        images = rng.random((2, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.5, 0.5, 0.3, 0.3)] for _ in range(2)]
        model = D.Detector(cfg, init_seed=6, dtype=np.float32)
        tc = D.TrainConfig(batch=2, epochs=40, warmup_epochs=2, seed=4)
        recs = D.train_loop(model, images, gts, tc)
        assert recs[-1]["total"] < recs[0]["total"]

    # scaling by inf turns the zero-initialised weights into NaN, on purpose
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        cfg = micro_config()
        model = D.Detector(cfg, init_seed=7, dtype=np.float32)
        for p in model.parameters():
            p.data = p.data * np.inf
        images = np.random.default_rng(12).random((1, 1, 32, 32)).astype(np.float32)
        gts = [[GroundTruth(0, 0.5, 0.5, 0.3, 0.3)]]
        opt = D.AdamW(model.parameters())
        with pytest.raises(NumericError):
            D.train_step(model, opt, images, gts, 0, 10, 1, D.TrainConfig(epochs=10), D.LossWeights())
