"""The benchmark's workloads: seeded inputs, one operation through the
public API, and the checks on its output.

Each workload is a class whose constructor is the timed set-up (inputs,
model, state) and whose ``op(i)`` is one closed-loop operation.  ``check``
raises :class:`CheckFailed` when an output is wrong; ``final_check``, when
set, runs once after the timed window.
"""

from __future__ import annotations

import math
import time

import numpy as np

from irstkit import detector as D
from irstkit import metrics as M
from irstkit import tensor as T
from irstkit.data import SceneSpec, generate_scene

from synth_heads import synth_heads

SCENE_SEED_STRIDE = 100_003  # per-item seeds as in data.generate_dataset


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def make_scenes(spec: SceneSpec, count: int, seed: int, scene_ms: list[float]):
    """``count`` seeded scenes; appends each ``generate_scene`` wall time (ms)."""
    scenes = []
    for i in range(count):
        item = SceneSpec(**{**spec.__dict__, "seed": seed * SCENE_SEED_STRIDE + i})
        t0 = time.perf_counter()
        scenes.append(generate_scene(item))
        scene_ms.append((time.perf_counter() - t0) * 1e3)
    return scenes


class TrainB16:
    """``train_step`` on the float32 tiny config, batch 16 at 96 px.

    Batches follow ``train_loop``'s per-epoch seeded shuffle over a pool
    of seeded scenes, and each step gets the ``lr_schedule`` arguments
    ``train_loop`` would pass.
    """

    name = "train_b16_96"
    images_per_op = 16
    POOL = 64
    EPOCHS = 100

    def __init__(self, seed: int, scene_ms: list[float]):
        scenes = make_scenes(SceneSpec(size=96), self.POOL, seed, scene_ms)
        self.images = np.stack([img[None] for img, _ in scenes]).astype(np.float32)
        self.gts = [labels for _, labels in scenes]
        self.cfg = D.ModelConfig()
        self.model = D.Detector(self.cfg, dtype=np.float32)
        self.tcfg = D.TrainConfig(batch=self.images_per_op, epochs=self.EPOCHS, seed=seed)
        self.optimizer = D.AdamW(self.model.parameters(), beta2=self.tcfg.beta2)
        self.steps_per_epoch = max(1, math.ceil(self.POOL / self.tcfg.batch))
        self.total_steps = self.tcfg.epochs * self.steps_per_epoch
        self._shuffle = np.random.default_rng(self.tcfg.seed)
        self._orders: list[np.ndarray] = []

    def _batch(self, step: int) -> np.ndarray:
        epoch, k = divmod(step, self.steps_per_epoch)
        while len(self._orders) <= epoch:
            self._orders.append(self._shuffle.permutation(self.POOL))
        return self._orders[epoch][k * self.tcfg.batch:(k + 1) * self.tcfg.batch]

    def op(self, step: int) -> dict:
        idx = self._batch(step)
        return D.train_step(self.model, self.optimizer, self.images[idx],
                            [self.gts[i] for i in idx], step, self.total_steps,
                            self.steps_per_epoch, self.tcfg, D.LossWeights())

    def check(self, step: int, record: dict) -> None:
        if not math.isfinite(record["total"]):
            raise CheckFailed(f"non-finite loss at step {step}: {record}")

    final_check = None


class Predict640:
    """Single-stream ``predict`` on one 640 px frame per call with the
    float32 paper-scale model.

    ``score_thresh=0.6``: every untrained cell scores 0.5 +- 5e-4, so no
    cell reaches NMS, as on the target-free frames common in IR
    surveillance; the forward pass does almost all the work.
    """

    name = "predict_640"
    images_per_op = 1
    FRAMES = 4
    SCORE_THRESH = 0.6
    CHECK_CROP = 192  # recording-path check size; the full frame's tape needs ~1.8 GB

    def __init__(self, seed: int, scene_ms: list[float]):
        self.cfg = D.paper_scale_config()
        scenes = make_scenes(SceneSpec(size=self.cfg.input_size), self.FRAMES, seed, scene_ms)
        self.frames = np.stack([img[None] for img, _ in scenes]).astype(np.float32)
        self.model = D.Detector(self.cfg, dtype=np.float32)
        self._first: dict[int, list] = {}

    def op(self, i: int) -> list:
        k = i % self.FRAMES
        return D.predict(self.model, self.frames[k:k + 1],
                         score_thresh=self.SCORE_THRESH, batch=1)

    def check(self, i: int, dets: list) -> None:
        if len(dets) != 1:
            raise CheckFailed(f"predict returned {len(dets)} image lists for 1 frame")
        first = self._first.setdefault(i % self.FRAMES, dets)
        if dets != first:
            raise CheckFailed(f"frame {i % self.FRAMES}: repeated frame gave different detections")

    def final_check(self) -> None:
        """``no_grad`` head outputs equal the recording graph path's."""
        c = self.CHECK_CROP
        lo = (self.frames.shape[-1] - c) // 2
        x = self.frames[:1, :, lo:lo + c, lo:lo + c]
        with T.no_grad():
            fast = self.model.forward(T.Tensor4(x), training=False)
        taped = self.model.forward(T.Tensor4(x), training=False)
        if taped[0].op is None:
            raise CheckFailed("the recording path recorded no tape")
        for scale, (a, b) in enumerate(zip(fast, taped)):
            if not np.array_equal(a.data, b.data):
                raise CheckFailed(f"scale {scale}: no_grad heads differ from the recording path")


class Eval640:
    """``decode`` then ``evaluate_detections`` (mAP@50 and mNoCoAP with
    images) over a 64-frame 640 px test set, fed seeded synthetic head
    outputs shaped like a trained detector's.

    Three targets per frame, 8-16 px (sigma 2-4): at least one stride-8
    cell wide, so the cell ``assign_targets`` picks has its centre inside
    the box and the planted bin logits can decode to the box exactly.
    """

    name = "eval_640"
    FRAMES = 64
    images_per_op = FRAMES
    SPEC = SceneSpec(size=640, min_targets=3, max_targets=3, sigma_range=(2.0, 4.0))

    def __init__(self, seed: int, scene_ms: list[float]):
        self.cfg = D.paper_scale_config()
        scenes = make_scenes(self.SPEC, self.FRAMES, seed, scene_ms)
        self.images = {i: img for i, (img, _) in enumerate(scenes)}
        gts_per_frame = [labels for _, labels in scenes]
        self.gt_boxes = [M.GTBox(i, g.class_id, D.gt_to_box(g, self.cfg.input_size))
                         for i, labels in enumerate(gts_per_frame) for g in labels]
        self.heads, _ = synth_heads(gts_per_frame, self.cfg, np.random.default_rng(seed))
        self._first = None

    def op(self, i: int):
        dets = [d for per in D.decode(self.heads, self.cfg) for d in per]
        return dets, M.evaluate_detections(dets, self.gt_boxes, self.images)

    def check(self, i: int, out) -> None:
        dets, report = out
        if report.counts.tp != len(self.gt_boxes):
            raise CheckFailed(f"{report.counts.tp} of {len(self.gt_boxes)} planted targets "
                              "matched at IoU > 0.5")
        for name in ("map50", "mnocoap"):
            value = getattr(report, name)
            if not 0.0 <= value <= 1.0:
                raise CheckFailed(f"{name} = {value} outside [0, 1]")
        if self._first is None:
            self._first = out
        elif out != self._first:
            raise CheckFailed("rerun gave different detections or metrics")

    final_check = None


WORKLOADS = {w.name: w for w in (TrainB16, Predict640, Eval640)}
