"""Tests for the benchmark's own code: seeded inputs, the synthetic heads,
metric names and the span arithmetic.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from irstkit import blocks, metrics  # noqa: E402
from irstkit import detector as D  # noqa: E402
from irstkit import tensor as T  # noqa: E402
from synth_heads import synth_heads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_eval_inputs(seed, frames=6):
    cfg = D.paper_scale_config()
    scenes = W.make_scenes(W.Eval640.SPEC, frames, seed, [])
    gts = [labels for _, labels in scenes]
    heads, planted = synth_heads(gts, cfg, np.random.default_rng(seed))
    return cfg, gts, heads, planted


class TestSyntheticHeads:
    def test_planted_cells_decode_to_their_boxes(self):
        cfg, gts, heads, planted = small_eval_inputs(seed=3)
        bins, ncls = cfg.reg_bins, cfg.num_classes
        assert len(planted) == sum(len(g) for g in gts)
        for b, scale, gy, gx, gi in planted:
            stride = cfg.strides[scale]
            logits = heads[scale][b, ncls:, gy, gx].astype(np.float64).reshape(4, bins)
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            left, top, right, bottom = (p @ np.arange(bins)) * stride
            cx, cy = (gx + 0.5) * stride, (gy + 0.5) * stride
            gt = D.gt_to_box(gts[b][gi], cfg.input_size)
            # the two-hot bins are exact up to the floor mass on the other bins
            assert (cx - left, cy - top, cx + right, cy + bottom) == pytest.approx(
                (gt.x1, gt.y1, gt.x2, gt.y2), abs=1e-3)

    def test_decode_keeps_one_confident_detection_per_target(self):
        cfg, gts, heads, _ = small_eval_inputs(seed=4)
        dets = D.decode(heads, cfg)
        for b, labels in enumerate(gts):
            assert 20 <= len(dets[b]) <= 40  # tens of candidates per frame
            for g in labels:
                box = D.gt_to_box(g, cfg.input_size)
                best = max(dets[b], key=lambda d: metrics.iou(d.box, box))
                assert metrics.iou(best.box, box) > 0.99
                assert best.score > 0.8

    def test_every_target_matched_and_scores_in_range(self):
        cfg, gts, heads, _ = small_eval_inputs(seed=5)
        dets = [d for per in D.decode(heads, cfg) for d in per]
        gt_boxes = [metrics.GTBox(i, g.class_id, D.gt_to_box(g, cfg.input_size))
                    for i, labels in enumerate(gts) for g in labels]
        report = metrics.evaluate_detections(dets, gt_boxes)
        assert report.counts.tp == len(gt_boxes)
        assert 0.0 < report.map50 <= 1.0


class TestSeededInputs:
    @pytest.fixture(autouse=True)
    def fewer_frames(self, monkeypatch):
        monkeypatch.setattr(W.TrainB16, "POOL", 16)
        monkeypatch.setattr(W.Eval640, "FRAMES", 6)

    def test_train_inputs_repeat(self):
        a, b = W.TrainB16(7, []), W.TrainB16(7, [])
        assert np.array_equal(a.images, b.images) and a.gts == b.gts
        assert [a._batch(s).tolist() for s in range(3)] == [b._batch(s).tolist() for s in range(3)]
        assert not np.array_equal(a.images, W.TrainB16(8, []).images)

    def test_predict_inputs_repeat(self):
        a, b = W.Predict640(7, []), W.Predict640(7, [])
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, W.Predict640(8, []).frames)

    def test_eval_inputs_repeat(self):
        a, b = W.Eval640(7, []), W.Eval640(7, [])
        assert a.gt_boxes == b.gt_boxes
        assert all(np.array_equal(a.images[i], b.images[i]) for i in a.images)
        assert all(np.array_equal(x, y) for x, y in zip(a.heads, b.heads))
        assert a.gt_boxes != W.Eval640(8, []).gt_boxes


class TestMetricNames:
    def manifest(self):
        return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def test_every_name_is_well_formed(self):
        doc = self.manifest()
        listed = [w["name"] for w in doc["workloads"]]
        listed += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        assert len(set(listed)) == len(listed)
        emitted = list(W.WORKLOADS) + list(run.END_TO_END_UNITS) + list(spans.per_layer_units())
        for name in listed + emitted:
            assert NAME.fullmatch(name) and len(name) <= 64, name

    def test_manifest_matches_what_the_runner_reports(self):
        doc = self.manifest()
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == \
            spans.per_layer_units()
        assert {w["name"] for w in doc["workloads"]} <= set(W.WORKLOADS)


class TestTailRank:
    @pytest.mark.parametrize("n, rank", [(1, 1), (2, 2), (11, 6), (20, 11), (21, 11),
                                         (25, 15), (100, 90)])
    def test_ten_beyond_and_above_the_median(self, n, rank):
        assert run.tail_rank(n) == rank


class TestTracer:
    def test_spans_reconcile_and_patches_are_restored(self):
        original = T.conv2d
        rng = np.random.default_rng(0)
        block = blocks.MBConvBlock("m", blocks.MBConvConfig(4, 4), rng=rng)
        x = T.Tensor4(rng.normal(size=(2, 4, 8, 8)))

        def op():
            T.backward(T.sum_all(block(x, training=True, seed=1)))

        with spans.Tracer() as tracer:
            tracer.run_op(op)
            tracer.run_op(op)
        assert T.conv2d is original
        summary = tracer.summary()
        m = summary["metrics"]
        assert summary["ops"] == 2
        assert 0.9 <= summary["attributed_share"] <= 1.0
        assert sum(summary["layer_self_ms"].values()) <= summary["op_ms"]
        # expand, CBAM fc1 x2 / fc2 x2 / spatial, project; one depthwise
        assert m["tensor.conv2d_dense.calls"] == 7 and m["tensor.conv2d_dw.calls"] == 1
        assert m["tensor.dropout.calls"] == 1
        for name in ("blocks.MBConvBlock.fwd_self_ms", "blocks.MBConvBlock.bwd_ms",
                     "blocks.CBAM.bwd_ms", "tensor.conv2d_dense.bwd_ms",
                     "tensor.backward.walk_ms", "tensor.tape_nodes"):
            assert m[name] > 0, name
        # backward closures run inside backward, so they fit in its time
        assert m["detector.backward_ms"] >= m["tensor.backward.walk_ms"]


class TestMeasure:
    class Stub:
        """Op 2 raises, op 3 fails its check, every other op succeeds."""
        images_per_op = 1

        def op(self, i):
            if i == 2:
                raise ValueError("boom")
            return i

        def check(self, i, out):
            if i == 3:
                raise W.CheckFailed("wrong")

    def test_failures_counted_and_every_op_timed(self):
        loop = run.measure(self.Stub(), seconds=0.0)
        assert loop["attempted"] == 1  # the window ends after the first op
        loop = run.measure(self.Stub(), seconds=0.3)
        n = loop["attempted"]
        assert n >= 3
        assert loop["errors"] == {"ValueError: boom": 1, "check: wrong": 1}
        assert len(loop["times"]["untraced"]) == len(loop["wall"]["untraced"]) == n - 2
        # busy time covers the failed ops too
        assert loop["busy"]["untraced"] > sum(loop["times"]["untraced"]) > 0

    def test_scaled_by_the_median_of_three_nearby_reference_times(self):
        r = run.REFERENCE_S
        # a host at half speed around ops 0 and 1 halves both; the last op
        # has only two loop times near it
        assert run.scaled([1.0, 1.0, 1.0], [r, 2 * r, 2 * r, r]) == \
            pytest.approx([0.5, 0.5, 2 / 3])
        # one jittery loop time among three is ignored
        assert run.scaled([2.0, 1.0], [r, 9 * r, r]) == pytest.approx([2.0, 0.2])
