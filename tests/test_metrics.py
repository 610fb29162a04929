"""Evaluation metrics: contrast regions, IoU, matching and mNoCoAP against
full-frame and all-pairs reference implementations, plus hand-worked cases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irstkit import metrics as M
from irstkit.errors import DataError, NumericError, ShapeError
from irstkit.metrics import Box, Detection, GTBox


# ---------------------------------------------------------------------------
# Reference implementations: full-frame masks and all-pairs loops
# ---------------------------------------------------------------------------


def region_reference(image, box):
    h, w = image.shape
    ix1 = max(int(np.floor(box.x1)), 0)
    iy1 = max(int(np.floor(box.y1)), 0)
    ix2 = min(int(np.ceil(box.x2)), w)
    iy2 = min(int(np.ceil(box.y2)), h)
    if ix2 <= ix1 or iy2 <= iy1:
        raise DataError(f"empty target region for box {box}")
    d = int(np.ceil(max(box.w, box.h)))
    ox1, oy1 = max(ix1 - d, 0), max(iy1 - d, 0)
    ox2, oy2 = min(ix2 + d, w), min(iy2 + d, h)
    mask = np.zeros((h, w), dtype=bool)
    mask[oy1:oy2, ox1:ox2] = True
    tmask = np.zeros((h, w), dtype=bool)
    tmask[iy1:iy2, ix1:ix2] = True
    bmask = mask & ~tmask
    if not bmask.any():
        raise DataError(f"empty background annulus for box {box}")
    tvals = image[tmask]
    bvals = image[bmask]
    return M.ContrastRegion(float(tvals.mean()), float(bvals.mean()), float(bvals.std()))


def match_reference(dets, gts):
    matched = set()
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    labels = [None] * len(dets)
    n_matched = 0
    for i in order:
        det = dets[i]
        best_j, best_iou = -1, 0.0
        for j, gt in enumerate(gts):
            if j in matched or gt.image_id != det.image_id or gt.class_id != det.class_id:
                continue
            v = M.iou(det.box, gt.box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0 and best_iou > 0.5:
            matched.add(best_j)
            labels[i] = (det.score, True)
            n_matched += 1
        else:
            labels[i] = (det.score, False)
    return labels, n_matched


def mnocoap_reference(dets, gts, images):
    gt_noco = [M.noco(region_reference(images[g.image_id], g.box))
               for g in gts]
    candidates = []
    for det in dets:
        img = images[det.image_id]
        cands = []
        det_noco = None
        for j, g in enumerate(gts):
            if g.image_id != det.image_id or not g.box.contains(det.box.cx, det.box.cy):
                continue
            if det_noco is None:
                det_noco = M.noco(region_reference(img, det.box))
            denom = gt_noco[j] if abs(gt_noco[j]) > 1e-6 else 1e-6
            cands.append((j, float(np.clip(det_noco / denom, 0.0, 1.0))))
        cands.sort(key=lambda t: (-t[1], t[0]))
        candidates.append(cands)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    per_delta = {}
    for delta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        matched = set()
        scored = []
        for i in order:
            hit = False
            for j, nscore in candidates[i]:
                if j in matched:
                    continue
                if nscore >= delta:
                    matched.add(j)
                    hit = True
                break
            scored.append((dets[i].score, hit))
        per_delta[delta] = M.average_precision(scored, len(gts)) if scored else 0.0
    return float(np.mean(list(per_delta.values()))), per_delta


def random_box(rng, h, w):
    """Fractional corners, often clipped at a frame edge or partly outside it."""
    kind = rng.integers(0, 4)
    bw, bh = rng.uniform(0.0, 30.0, 2)
    if kind == 0:  # anywhere, partly outside allowed
        x1, y1 = rng.uniform(-20.0, w + 5.0), rng.uniform(-20.0, h + 5.0)
    elif kind == 1:  # touching or crossing one of the four edges
        x1, y1 = rng.uniform(0.0, w - 1.0), rng.uniform(0.0, h - 1.0)
        edge = rng.integers(0, 4)
        if edge == 0:
            x1 = -rng.uniform(0.0, bw)
        elif edge == 1:
            y1 = -rng.uniform(0.0, bh)
        elif edge == 2:
            x1 = w - rng.uniform(0.0, bw)
        else:
            y1 = h - rng.uniform(0.0, bh)
    elif kind == 2:  # integer corners
        x1, y1 = float(rng.integers(-5, w)), float(rng.integers(-5, h))
        bw, bh = float(rng.integers(0, 20)), float(rng.integers(0, 20))
    else:  # covering most or all of the frame
        x1, y1 = rng.uniform(-10.0, 5.0, 2)
        bw, bh = rng.uniform(w - 10.0, w + 20.0), rng.uniform(h - 10.0, h + 20.0)
    return Box(x1, y1, x1 + bw, y1 + bh)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return ("DataError", str(exc))


# ---------------------------------------------------------------------------
# Contrast regions
# ---------------------------------------------------------------------------


class TestContrastRegion:
    def test_matches_full_frame_reference(self):
        rng = np.random.default_rng(11)
        image = rng.normal(10.0, 2.0, (48, 64))
        errors = {"target": 0, "annulus": 0}
        for _ in range(3000):
            box = random_box(rng, *image.shape)
            got = outcome(M.build_contrast_region, image, box)
            want = outcome(region_reference, image, box)
            if isinstance(want, tuple):
                assert got == want
                errors["target" if "target" in want[1] else "annulus"] += 1
                continue
            assert (got.mu_t, got.mu_b, got.sigma_b) == (want.mu_t, want.mu_b, want.sigma_b)
        # the sample reaches both error paths
        assert errors["target"] > 0 and errors["annulus"] > 0

    @pytest.mark.parametrize("view", ["transposed", "every_other_column"])
    def test_matches_reference_on_strided_frames(self, view):
        rng = np.random.default_rng(12)
        frame = rng.normal(10.0, 2.0, (64, 96))
        image = frame.T if view == "transposed" else frame[:, ::2]
        assert not image.flags.c_contiguous
        for _ in range(1000):
            box = random_box(rng, *image.shape)
            got = outcome(M.build_contrast_region, image, box)
            want = outcome(region_reference, image, box)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert (got.mu_t, got.mu_b, got.sigma_b) == (want.mu_t, want.mu_b, want.sigma_b)

    def test_infinite_extent_raises_numeric_error(self):
        # finite corners whose width overflows to inf
        box = Box(-1e308, 2.0, 1e308, 6.0)
        with pytest.raises(NumericError, match="non-finite box"):
            M.build_contrast_region(np.zeros((20, 20)), box)

    def test_nan_corner_raises_numeric_error(self):
        # Box rejects NaN corners itself; build one past that check
        box = Box(1.0, 2.0, 5.0, 6.0)
        object.__setattr__(box, "x1", float("nan"))
        with pytest.raises(NumericError, match="non-finite box"):
            M.build_contrast_region(np.zeros((20, 20)), box)

    def test_empty_target_raises(self):
        with pytest.raises(DataError, match="empty target region"):
            M.build_contrast_region(np.zeros((20, 20)), Box(25.0, 3.0, 30.0, 8.0))

    def test_frame_covering_box_has_empty_annulus(self):
        with pytest.raises(DataError, match="empty background annulus"):
            M.build_contrast_region(np.zeros((20, 20)), Box(-1.0, 0.0, 20.0, 20.5))


class TestBox:
    @pytest.mark.parametrize("corners", [
        (float("nan"), 0.0, 5.0, 5.0),
        (0.0, 0.0, 5.0, float("nan")),
        (0.0, 0.0, float("inf"), 5.0),
        (float("-inf"), 0.0, 5.0, 5.0),
        (float("inf"), 0.0, float("inf"), 5.0),
        (float("nan"), 0.0, 1.0, -1.0),  # NaN wins over the inversion
    ])
    def test_non_finite_corner_raises_numeric_error(self, corners):
        with pytest.raises(NumericError, match="non-finite box"):
            Box(*corners)

    def test_inverted_raises_shape_error(self):
        with pytest.raises(ShapeError, match="inverted box"):
            Box(5.0, 0.0, 1.0, 5.0)

    def test_finite_corners_with_overflowing_sum_accepted(self):
        box = Box(1e308, 1e308, 1.5e308, 1.5e308)
        assert box.x2 == 1.5e308


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------


class TestIoUMatrix:
    def test_equals_scalar_iou(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.0, 20.0, (40, 4))
        raw[:, 2:] = raw[:, :2] + rng.uniform(0.0, 8.0, (40, 2))
        raw[::7, 2] = raw[::7, 0]   # zero width
        raw[1::9, 2:] = raw[1::9, :2]  # points
        boxes = [Box(*r) for r in raw]
        got = M.iou_matrix(raw[:25], raw)
        want = np.array([[M.iou(a, b) for b in boxes] for a in boxes[:25]])
        assert np.array_equal(got, want)

    def test_two_zero_area_boxes_give_zero(self):
        pts = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert M.iou_matrix(pts, pts)[0, 0] == 0.0 == M.iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1))

    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(4)),
                  elements=st.floats(-50.0, 50.0, allow_subnormal=False)))
    def test_symmetric_bounded_and_equal_to_iou(self, raw):
        raw[:, 2:] = np.maximum(raw[:, 2:], raw[:, :2])  # corners in order
        got = M.iou_matrix(raw, raw)
        assert np.array_equal(got, got.T)
        assert ((got >= 0.0) & (got <= 1.0)).all()
        boxes = [Box(*r) for r in raw]
        assert np.array_equal(got, [[M.iou(a, b) for b in boxes] for a in boxes])


# ---------------------------------------------------------------------------
# Matching and mNoCoAP
# ---------------------------------------------------------------------------


def random_eval_set(seed):
    """Three 64 px frames, two classes, clustered detections with tied scores."""
    rng = np.random.default_rng(seed)
    images, gts, dets = {}, [], []
    for image_id in ("a", 0, 1):
        img = rng.normal(1.0, 0.2, (64, 64))
        for _ in range(4):
            cx, cy = rng.uniform(12.0, 52.0, 2)
            side = rng.uniform(3.0, 8.0)
            box = Box.from_center(cx, cy, side, side)
            rows = slice(int(box.y1), int(np.ceil(box.y2)))
            img[rows, int(box.x1):int(np.ceil(box.x2))] += rng.uniform(0.5, 3.0)
            gts.append(GTBox(image_id, int(rng.integers(0, 2)), box))
            for _ in range(3):
                jitter = box.shifted(*rng.normal(0.0, 1.5, 2))
                scale = rng.uniform(0.6, 1.6)
                score = float(rng.choice([0.3, 0.5, 0.7, 0.9]))  # ties
                box_d = Box.from_center(jitter.cx, jitter.cy, side * scale, side * scale)
                dets.append(Detection(int(rng.integers(0, 2)), score, box_d, image_id))
        for _ in range(3):
            cx, cy = rng.uniform(8.0, 56.0, 2)
            dets.append(Detection(int(rng.integers(0, 2)), float(rng.choice([0.3, 0.5])),
                                  Box.from_center(cx, cy, 5.0, 5.0), image_id))
        images[image_id] = img
    return dets, gts, images


class TestMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_all_pairs_reference(self, seed):
        dets, gts, _ = random_eval_set(seed)
        assert M.match_detections(dets, gts) == match_reference(dets, gts)

    def test_order_is_keyword_only(self):
        # a stale positional IoU threshold must fail at the call, not bind to order
        dets, gts, images = random_eval_set(0)
        with pytest.raises(TypeError, match="positional"):
            M.match_detections(dets, gts, 0.5)
        with pytest.raises(TypeError, match="positional"):
            M.mnocoap(dets, gts, images, M.NOCO_DELTAS)

    def test_hand_worked(self):
        gts = [GTBox(0, 0, Box(0, 0, 10, 10)), GTBox(0, 0, Box(20, 0, 30, 10)),
               GTBox(1, 1, Box(0, 0, 10, 10))]
        dets = [
            Detection(0, 0.9, Box(0, 0, 10, 10), 0),   # takes gt 0
            Detection(0, 0.9, Box(1, 0, 11, 10), 0),   # tied score, later: gt 0 taken -> FP
            Detection(1, 0.8, Box(0, 0, 10, 10), 0),   # no class-1 truth in image 0
            Detection(0, 0.7, Box(0, 0, 10, 10), 1),   # no class-0 truth in image 1
            Detection(1, 0.6, Box(0, 0, 10, 10), 1),   # takes gt 2
        ]
        labels, n = M.match_detections(dets, gts)
        assert n == 2
        assert labels == [(0.9, True), (0.9, False), (0.8, False), (0.7, False), (0.6, True)]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_map50_equals_per_class_matching(self, seed):
        dets, gts, images = random_eval_set(seed)
        aps = []
        for cls in sorted({g.class_id for g in gts}):
            cls_gts = [g for g in gts if g.class_id == cls]
            labels, _ = match_reference([d for d in dets if d.class_id == cls], cls_gts)
            aps.append(M.average_precision(labels, len(cls_gts)))
        want = float(np.mean(aps))
        assert M.map50(dets, gts) == want
        assert M.evaluate_detections(dets, gts, images).map50 == want

    def test_class_without_truth_is_skipped_with_warning(self):
        gts = [GTBox(0, 0, Box(0, 0, 10, 10))]
        dets = [Detection(0, 0.9, Box(0, 0, 10, 10)), Detection(3, 0.8, Box(0, 0, 10, 10))]
        with pytest.warns(UserWarning, match=r"classes \[3\]"):
            assert M.map50(dets, gts) == 1.0
        with pytest.warns(UserWarning, match=r"classes \[3\]"):
            assert M.evaluate_detections(dets, gts).map50 == 1.0

    def test_equal_iou_goes_to_first_truth(self):
        gts = [GTBox(0, 0, Box(0, 0, 10, 10)), GTBox(0, 0, Box(1, 0, 11, 10))]
        dets = [Detection(0, 0.9, Box(0.5, 0, 10.5, 10)), Detection(0, 0.8, Box(-3, 0, 7, 10))]
        # both IoUs of the first detection are 95 / 105; the first truth wins,
        # and the second detection's IoU with the second truth is 60 / 140
        labels, n = M.match_detections(dets, gts)
        assert labels == [(0.9, True), (0.8, False)] and n == 1


def flat_scene():
    """32 px frame of ones with a 3x6 block of 3s at columns 13-15, rows 10-15.

    Every region below holds the whole block in its target, so each annulus
    is flat (sigma guarded to 1e-6) and each normalized contrast is the
    ratio of target-mean excesses over 1.
    """
    img = np.ones((32, 32))
    img[10:16, 13:16] = 3.0
    gts = [GTBox(0, 0, Box(13, 10, 17, 16)),   # j=0: excess 18*2/24 = 1.5
           GTBox(0, 0, Box(10, 10, 16, 16))]   # j=1: excess 18*2/36 = 1.0
    return img, gts


class TestMNoCoAP:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_all_pairs_reference(self, seed):
        dets, gts, images = random_eval_set(seed)
        assert M.mnocoap(dets, gts, images) == mnocoap_reference(dets, gts, images)

    def test_takes_best_unmatched_candidate(self):
        img, gts = flat_scene()
        dets = [
            # centre (14, 13) in both truths; excess 1.0: 1.0 against j=1, 0.667 against j=0
            Detection(0, 0.9, Box(11, 10, 17, 16)),
            # centre (16.5, 13) in j=0 only; excess 18*2/42: 0.571 against j=0
            Detection(0, 0.8, Box(13, 10, 20, 16)),
            # centre (12.5, 13) in j=1 only, which the first detection took
            Detection(0, 0.7, Box(9, 10, 16, 16)),
        ]
        value, per_delta = M.mnocoap(dets, gts, {0: img})
        for delta, ap in per_delta.items():
            assert ap == (1.0 if delta <= 0.5 else 0.5), delta
        assert value == pytest.approx(7.0 / 9.0, abs=1e-15)

    def test_frame_covering_detection_scores_zero(self):
        img = np.random.default_rng(0).normal(1.0, 0.1, (96, 96))
        img[40:56, 40:56] += 2.0
        gts = [GTBox(0, 0, Box(40, 40, 56, 56))]
        hit = Detection(0, 0.5, Box(40, 40, 56, 56))
        cover = Detection(0, 0.9, Box(0, 0, 96, 96))
        value, per_delta = M.mnocoap([cover], gts, {0: img})
        assert value == 0.0 and set(per_delta.values()) == {0.0}
        # the covering box takes no truth: the lower-scored exact box still hits
        _, per_delta = M.mnocoap([cover, hit], gts, {0: img})
        assert set(per_delta.values()) == {0.5}
        report = M.evaluate_detections([cover, hit], gts, {0: img})
        assert report.mnocoap == 0.5

    def test_truth_with_empty_annulus_raises(self):
        gts = [GTBox(0, 0, Box(0, 0, 96, 96))]
        with pytest.raises(DataError, match="empty background annulus"):
            M.mnocoap([Detection(0, 0.9, Box(40, 40, 56, 56))], gts, {0: np.ones((96, 96))})

    def test_matches_reference_with_string_ids_empty_images_and_edge_centroids(self):
        rng = np.random.default_rng(4)
        images = {name: rng.normal(1.0, 0.2, (48, 48)) for name in ("left", "right", "empty")}
        gts = [GTBox("left", 0, Box(8, 8, 24, 24)), GTBox("left", 0, Box(8, 30, 24, 44)),
               GTBox("right", 0, Box(20.5, 20, 30.5, 30))]
        # each of these detections sits on a bright 4 px spot, so its contrast
        # matches whenever its centroid counts as inside a truth
        dets = [
            Detection(0, 0.9, Box(22, 14, 26, 18), "left"),        # on gt 0's right edge
            Detection(0, 0.8, Box(14, 42, 18, 46), "left"),        # on gt 1's bottom edge
            Detection(0, 0.7, Box(18.5, 18, 22.5, 22), "right"),   # on gt 2's top-left corner
            # 2**-41 right of gt 2's right edge, ranked first: inside, it
            # would take gt 2 from the corner detection
            Detection(0, 0.95, Box(28.5, 23, 32.5 + 2.0 ** -40, 27), "right"),
            Detection(0, 0.5, Box(10, 10, 14, 14), "empty"),       # images without truths
            Detection(0, 0.4, Box(30, 30, 34, 34), "empty"),
        ]
        for d in dets:
            images[d.image_id][int(d.box.y1):int(d.box.y2), int(d.box.x1):int(d.box.x2)] += 3.0
        value, per_delta = M.mnocoap(dets, gts, images)
        assert (value, per_delta) == mnocoap_reference(dets, gts, images)
        assert 0.0 < value < 1.0
        report = M.evaluate_detections(dets, gts, images)
        assert (report.mnocoap, report.per_delta) == (value, per_delta)

    @pytest.mark.parametrize("shape", [(48,), (1, 48, 48)])
    @pytest.mark.parametrize("whose", ["ground truth", "detection"])
    def test_image_not_2d_raises_shape_error_naming_it(self, shape, whose):
        gts = [GTBox("a", 0, Box(10, 10, 20, 20))]
        dets = [Detection(0, 0.9, Box(10, 10, 20, 20), "a"),
                Detection(0, 0.8, Box(10, 10, 20, 20), "b")]  # "b" has no truths
        bad = "a" if whose == "ground truth" else "b"
        images = {"a": np.ones((48, 48)), "b": np.ones((48, 48))}
        images[bad] = np.ones(shape)
        with pytest.raises(ShapeError, match=f"^image '{bad}' must be 2-D"):
            M.mnocoap(dets, gts, images)
        with pytest.raises(ShapeError, match=f"^image '{bad}' must be 2-D"):
            M.evaluate_detections(dets, gts, images)


def tied_eval_set(seed):
    """Five 64 px frames, two classes, every score quantized to 0.1: most
    detections tie with another, and duplicates of one truth often tie."""
    rng = np.random.default_rng(seed)
    images, gts, dets = {}, [], []
    for image_id in range(5):
        img = rng.normal(1.0, 0.2, (64, 64))
        for _ in range(3):
            cx, cy = rng.uniform(12.0, 52.0, 2)
            side = rng.uniform(3.0, 8.0)
            box = Box.from_center(cx, cy, side, side)
            img[int(box.y1):int(np.ceil(box.y2)), int(box.x1):int(np.ceil(box.x2))] += 1.5
            cls = int(rng.integers(0, 2))
            gts.append(GTBox(image_id, cls, box))
            for _ in range(4):
                jitter = box.shifted(*rng.normal(0.0, 1.0, 2))
                dets.append(Detection(cls, round(float(rng.uniform(0.05, 1.0)), 1),
                                      Box.from_center(jitter.cx, jitter.cy, side, side),
                                      image_id))
        for _ in range(4):
            cx, cy = rng.uniform(8.0, 56.0, 2)
            dets.append(Detection(int(rng.integers(0, 2)), round(float(rng.uniform(0.05, 1.0)), 1),
                                  Box.from_center(cx, cy, 5.0, 5.0), image_id))
        images[image_id] = img
    order = rng.permutation(len(dets))  # interleave the images
    return [dets[i] for i in order], gts, images


class TestEvaluateWithTies:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_equals_references(self, seed):
        dets, gts, images = tied_eval_set(seed)
        scores = [d.score for d in dets]
        assert len(set(scores)) <= 10 < len(scores)
        report = M.evaluate_detections(dets, gts, images)

        _, n_matched = match_reference(dets, gts)
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (
            n_matched, len(dets) - n_matched, len(gts) - n_matched)
        aps = []
        for cls in sorted({g.class_id for g in gts}):
            cls_gts = [g for g in gts if g.class_id == cls]
            cls_labels, _ = match_reference([d for d in dets if d.class_id == cls], cls_gts)
            aps.append(M.average_precision(cls_labels, len(cls_gts)))
        assert report.map50 == float(np.mean(aps))

        value, per_delta = mnocoap_reference(dets, gts, images)
        assert (report.mnocoap, report.per_delta) == (value, per_delta)
        assert 0.0 < value < 1.0

    def test_tie_keeps_input_order(self):
        gts = [GTBox(0, 0, Box(0, 0, 10, 10))]
        img = np.ones((40, 40))
        img[0:10, 0:10] = 3.0
        miss = Detection(0, 0.5, Box(25, 25, 35, 35))
        hit = Detection(0, 0.5, Box(0, 0, 10, 10))
        report = M.evaluate_detections([miss, hit], gts, {0: img})
        # the miss ranks first, so the hit lands at precision 1/2
        assert report.map50 == 0.5 and report.mnocoap == 0.5


# every entry point that ranks detections by the shared score order
SCORE_ORDER_ENTRY_POINTS = {
    "match_detections": lambda dets, gts, images: M.match_detections(dets, gts),
    "map50": lambda dets, gts, images: M.map50(dets, gts),
    "mnocoap": lambda dets, gts, images: M.mnocoap(dets, gts, images),
    "evaluate_detections": lambda dets, gts, images: M.evaluate_detections(dets, gts, images),
    "average_precision": lambda dets, gts, images: M.average_precision(
        [(d.score, False) for d in dets], len(gts)),
}


class TestNonFiniteScore:
    # a NaN compares false both ways, so a stable sort would rank it by its
    # list position: scored [nan, 0.9, 0.8] on one truth, the NaN took the match
    @pytest.mark.parametrize("entry", SCORE_ORDER_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 2])
    def test_raises_numeric_error_naming_the_detection(self, entry, bad, index):
        gts = [GTBox(0, 0, Box(0, 0, 10, 10))]
        img = np.ones((40, 40))
        img[0:10, 0:10] = 3.0
        scores = [0.9, 0.8, 0.7]
        scores[index] = bad
        dets = [Detection(0, s, Box(0, 0, 10, 10)) for s in scores]
        with pytest.raises(NumericError, match=f"^detection {index} has non-finite score"):
            SCORE_ORDER_ENTRY_POINTS[entry](dets, gts, {0: img})


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------


def ap_reference(scored, n_gt):
    """Area under the precision envelope by brute force, in exact rationals:
    rank by descending score (input order on ties), then give each recall
    step the best precision reached at that recall or beyond."""
    ranked = [hit for _, _, hit in sorted((-s, i, hit) for i, (s, hit) in enumerate(scored))]
    points, tp = [], 0
    for rank, hit in enumerate(ranked, start=1):
        tp += hit
        points.append((Fraction(tp, n_gt), Fraction(tp, rank)))
    area, prev = Fraction(0), Fraction(0)
    for recall in sorted({r for r, _ in points}):
        area += (recall - prev) * max(p for r, p in points if r >= recall)
        prev = recall
    return area


class TestAveragePrecision:
    @given(st.lists(st.tuples(st.sampled_from([0.1, 0.3, 0.5, 0.9]), st.booleans()),
                    max_size=30),
           st.integers(0, 4))
    def test_equals_brute_force_envelope_area(self, scored, missed):
        n_gt = max(1, sum(hit for _, hit in scored) + missed)
        assert M.average_precision(scored, n_gt) == pytest.approx(
            float(ap_reference(scored, n_gt)), rel=1e-12, abs=1e-15)

    @given(st.lists(st.booleans(), max_size=200), st.integers(0, 5))
    def test_ranked_ap_equals_numpy_envelope_bit_for_bit(self, labels, missed):
        n_gt = max(1, sum(labels) + missed)
        tps = np.cumsum(np.asarray(labels, dtype=bool))
        recalls, precisions = tps / n_gt, tps / np.arange(1, tps.size + 1)
        env = np.maximum.accumulate(precisions[::-1])[::-1]
        want, prev = 0.0, 0.0
        for r, p in zip(recalls, env):
            if r > prev:
                want += (r - prev) * p
                prev = r
        assert M._ranked_ap(labels, n_gt) == float(want)
