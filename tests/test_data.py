"""Non-finite ground truths and synthetic scenes: properties over seeds,
equality with a full-frame reference, pinned scene hashes and malformed
specs."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstkit import data, detector
from irstkit.errors import DataError, NumericError


@pytest.mark.parametrize("field", range(4))
def test_ground_truth_with_nan_fails_validation(field):
    cfg = detector.ModelConfig()
    vals = [0.5, 0.5, 0.1, 0.1]
    detector.assign_targets([[data.GroundTruth(0, *vals)]], cfg)
    vals[field] = math.nan
    with pytest.raises(NumericError, match="non-finite box"):
        detector.assign_targets([[data.GroundTruth(0, *vals)]], cfg)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_scene_is_deterministic_and_its_boxes_never_overlap(seed, max_targets):
    def scene():
        return data.generate_scene(data.SceneSpec(size=64, max_targets=max_targets, seed=seed))

    image, labels = scene()
    again, again_labels = scene()
    assert image.tobytes() == again.tobytes() and labels == again_labels
    boxes = [(g.cx - g.w / 2, g.cy - g.h / 2, g.cx + g.w / 2, g.cy + g.h / 2) for g in labels]
    for i, a in enumerate(boxes):
        for b in boxes[:i]:
            assert min(a[2], b[2]) <= max(a[0], b[0]) or min(a[3], b[3]) <= max(a[1], b[1])


def reference_scene(spec):
    """``generate_scene`` with every Gaussian evaluated over the full frame."""
    rng = np.random.default_rng(spec.seed)
    s = spec.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    base = rng.uniform(0.15, 0.3)
    theta = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.3, 1.0) * spec.gradient_amplitude
    ramp = (xx * math.cos(theta) + yy * math.sin(theta)) / s
    image = base + amp * (ramp - ramp.mean())

    for _ in range(rng.poisson(spec.blob_density)):
        bx, by = rng.uniform(0, s, 2)
        bsig = rng.uniform(3.0, 8.0)
        bamp = rng.uniform(-0.06, 0.06)
        image += bamp * np.exp(-((xx - bx) ** 2 + (yy - by) ** 2) / (2 * bsig ** 2))

    n_targets = int(rng.integers(spec.min_targets, spec.max_targets + 1))
    labels = []
    placed_boxes = []
    for _ in range(n_targets):
        for attempt in range(data.MAX_PLACEMENT_ATTEMPTS + 1):
            if attempt == data.MAX_PLACEMENT_ATTEMPTS:
                raise DataError("overcrowded")
            sigma = rng.uniform(*spec.sigma_range)
            half = spec.box_sigmas * sigma
            cx = rng.uniform(half + 1, s - half - 1)  # ValueError when the box cannot fit
            cy = rng.uniform(half + 1, s - half - 1)
            box = (cx - half, cy - half, cx + half, cy + half)
            if all(box[2] < b[0] or b[2] < box[0] or box[3] < b[1] or b[3] < box[1]
                   for b in placed_boxes):
                break
        intensity = rng.uniform(*spec.intensity_range)
        image += intensity * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
        placed_boxes.append(box)
        labels.append(data.GroundTruth(class_id=0, cx=cx / s, cy=cy / s,
                                       w=2 * half / s, h=2 * half / s))

    image = np.clip(image, 0.0, 1.0)
    return image, labels


def ordered(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 320), st.integers(0, 2**32 - 1), ordered(0.1, 12.0), ordered(0.0, 1.0),
       st.floats(0.0, 5.0), st.floats(0.0, 20.0), st.integers(0, 4), st.integers(0, 3))
def test_scene_equals_the_full_frame_reference(size, seed, sigma_range, intensity_range,
                                               gradient_amplitude, blob_density,
                                               min_targets, extra_targets):
    spec = data.SceneSpec(size=size, seed=seed, sigma_range=sigma_range,
                          intensity_range=intensity_range,
                          gradient_amplitude=gradient_amplitude, blob_density=blob_density,
                          min_targets=min_targets, max_targets=min_targets + extra_targets)
    try:
        want_image, want_labels = reference_scene(spec)
    except (DataError, ValueError):
        # the reference fails at the same draw with numpy's "high - low < 0"
        with pytest.raises(DataError):
            data.generate_scene(spec)
        return
    image, labels = data.generate_scene(spec)
    assert image.tobytes() == want_image.tobytes() and labels == want_labels


# the ends of the clutter sigma range (3, 8), the default target range
# (0.8, 2) and eval_640's (2, 4), each about fractional centres
@pytest.mark.parametrize("sigma", [3.0, 8.0, 0.8, 2.0, 4.0])
@pytest.mark.parametrize("offset", [(0.37, -0.71), (-0.5, 0.5), (0.999, 0.001)])
def test_gaussian_term_is_zero_outside_the_splat_window(sigma, offset):
    r = sigma * data.SPLAT_REACH
    s = 2 * math.ceil(r) + 8
    cx, cy = s / 2 + offset[0], s / 2 + offset[1]
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    term = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
    outside = np.ones((s, s), dtype=bool)
    outside[data._span(cy, r, s), data._span(cx, r, s)] = False
    assert outside[0].all() and outside[:, -1].all()
    assert not term[outside].any()


def full_window_splat(image, coords, amp, cx, cy, sigma):
    """``_splat``'s operations, in its order, over the whole ``SPLAT_REACH``
    window whatever the frame holds."""
    r = sigma * data.SPLAT_REACH
    rows, cols = data._span(cy, r, len(coords)), data._span(cx, r, len(coords))
    t = (coords[cols] - cx) ** 2 + (coords[rows, None] - cy) ** 2
    np.negative(t, out=t)
    t /= 2 * sigma ** 2
    np.exp(t, out=t)
    t *= amp
    image[rows, cols] += t


@st.composite
def splat_frames(draw):
    """Square frames whose smallest magnitude is 2**k, k in [-997, 2]
    (down past 1e-300): all positive, all negative, holding a 0 or holding
    both signs; the pixels sit at exact powers of two (binade edges, where
    the spacing toward 0 halves) or anywhere in the binades above 2**k."""
    size = draw(st.integers(1, 64))
    k = draw(st.integers(-997, 2))
    kind = draw(st.sampled_from(["positive", "negative", "zero", "both_signs"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissa = 1.0 if draw(st.booleans()) else rng.uniform(1.0, 2.0, (size, size))
    frame = np.ldexp(mantissa * np.ones((size, size)), k + rng.integers(0, 3, (size, size)))
    frame.flat[rng.integers(size * size)] = 2.0 ** k
    if kind == "negative":
        frame = -frame
    elif kind == "zero":
        frame.flat[rng.integers(size * size)] = 0.0
    elif kind == "both_signs":
        frame *= rng.choice([-1.0, 1.0], frame.shape)
    return frame


@settings(max_examples=300, deadline=None)
@given(splat_frames(), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 2.0),
       st.floats(0.1, 12.0), st.floats(-0.1, 1.1), st.floats(-0.1, 1.1))
def test_splat_equals_the_full_window_addition(frame, sign, amp, sigma, fx, fy):
    coords = np.arange(len(frame), dtype=np.float64)
    cx, cy = fx * len(frame), fy * len(frame)
    got, want = frame.copy(), frame.copy()
    data._splat(got, coords, sign * amp, cx, cy, sigma)
    full_window_splat(want, coords, sign * amp, cx, cy, sigma)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()


EVAL_640 = dict(size=640, min_targets=3, max_targets=3, sigma_range=(2.0, 4.0))


# the exactness tests pass whether or not the window shrinks, so this one
# checks that it does: _splat spans its full window, then the shrunk one
@pytest.mark.parametrize("kwargs", [dict(size=640), EVAL_640], ids=["default_640", "eval_640"])
def test_640_px_scene_splats_over_the_shrunk_window(monkeypatch, kwargs):
    radii = []
    span = data._span
    monkeypatch.setattr(data, "_span", lambda c, r, s: radii.append(r) or span(c, r, s))
    data.generate_scene(data.SceneSpec(**kwargs, seed=100_003))
    assert len(radii) >= 8 and len(radii) % 4 == 0
    full, shrunk = radii[0::4], radii[2::4]
    assert all(r < reach / 3 for reach, r in zip(full, shrunk)), (full, shrunk)


# sha256 of np.exp over Gaussian arguments where the pins below were recorded
# (numpy 2.4.6, x86-64 with AVX-512); numpy's exp differs from libm's in the
# last bit on about 4.5% of these, so image bytes are pinned only where it matches
EXP_FINGERPRINT = "331532d5267ed6943729cc9399392d9d406f205fce77e962b4946e4cdc195960"


def exp_as_recorded() -> bool:
    """Whether np.exp gives the bits it gave where the pins were recorded."""
    exp = np.exp(np.linspace(-750.0, 0.0, 30001))
    return hashlib.sha256(exp.tobytes()).hexdigest() == EXP_FINGERPRINT


# sha256 of the image bytes and of repr(labels), recorded from the full-frame
# generator; seeds 100_003 and 100_004 are the first two scenes of bench seed 1
@pytest.mark.parametrize("kwargs, seed, image_sha, labels_sha", [
    (EVAL_640, 100_003, "de8eb18697bb8742233944d10f42482434e067f8a603a8d1d6bc918692038efe",
     "318782afc19bc10577d5458becff649db7f614c216e3f915cfd7c8b6504071fb"),
    (EVAL_640, 100_004, "2608647409ba28c4b6f45b9141d570a218491d22ef8fb7d4748961bff08966f0",
     "1207e23ef779aea4982d1a7f4b7f7be60d36aa5f58cacc48fcc4c975e01487d1"),
    (dict(size=640), 100_003, "1b111f46a801effae3ef1818ae2791b79baad77e23640ce623f5fd59624b62ea",
     "9e007a269cfeb350cf16877be6c9076e08a63dac1c38966f7deca0a289e69034"),
    (dict(size=640), 100_004, "2b0d9d451945e97f7658ed1050eb015fae93a9ce91f3e73be86414e324409364",
     "896a4ed74645dd75016a960ad3fc7332218f0eb4398e5f570438a56af835812e"),
    (dict(size=96), 100_003, "7e2575796507c6e127e5b8ce123a44bfb5acf792c80c2a4ea4a22944e34934c2",
     "f79e414601a2c0518eba1921673d10c22418eaccf64f590f9c7c5e75bf8c5531"),
    (dict(size=96), 100_004, "d03f5a048ccf73d292ddbafade12100c8c79a0e4f6477a1ed1dd6aff7f4f7d99",
     "722012be2fd5bbfc6ea425fd91265a3313bb77079609c3e5fbfed0804e1594c4"),
], ids=["eval_640-a", "eval_640-b", "default_640-a", "default_640-b",
        "default_96-a", "default_96-b"])
def test_benchmark_scenes_keep_their_pinned_bytes(kwargs, seed, image_sha, labels_sha):
    image, labels = data.generate_scene(data.SceneSpec(**kwargs, seed=seed))
    assert hashlib.sha256(repr(labels).encode()).hexdigest() == labels_sha
    if not exp_as_recorded():
        pytest.skip("np.exp gives other bits than where the image hashes were recorded")
    assert hashlib.sha256(image.tobytes()).hexdigest() == image_sha


@pytest.mark.parametrize("field, kwargs", [
    ("size", dict(size=0)),
    ("size", dict(size=math.inf)),
    ("sigma_range", dict(sigma_range=(3.0, 1.0))),
    ("sigma_range", dict(sigma_range=(math.nan, 2.0))),
    ("sigma_range", dict(sigma_range=(0.0, 2.0))),
    ("intensity_range", dict(intensity_range=(0.2, math.nan))),
    ("gradient_amplitude", dict(gradient_amplitude=math.nan)),
    ("blob_density", dict(blob_density=-1.0)),
    ("blob_density", dict(blob_density=math.inf)),
    ("blob_density", dict(blob_density=1e19)),
    ("box_sigmas", dict(box_sigmas=math.inf)),
    ("box_sigmas", dict(box_sigmas=0.0)),
    ("box_sigmas", dict(box_sigmas=-1.0)),
    ("seed", dict(seed=-1)),
    ("seed", dict(seed=1.5)),
    ("size", dict(size=32.5)),
    ("min_targets", dict(min_targets=1.5)),
    ("max_targets", dict(max_targets=2.5)),
], ids=["size-0", "size-inf", "sigma_range-reversed", "sigma_range-nan", "sigma_range-zero",
        "intensity_range-nan", "gradient_amplitude-nan", "blob_density-negative",
        "blob_density-inf", "blob_density-too-large", "box_sigmas-inf", "box_sigmas-zero",
        "box_sigmas-negative", "seed-negative", "seed-fractional", "size-fractional",
        "min_targets-fractional", "max_targets-fractional"])
def test_malformed_scene_spec_raises_data_error_naming_the_field(field, kwargs):
    with pytest.raises(DataError, match=field):
        data.SceneSpec(**kwargs)


def test_numpy_integer_fields_draw_the_same_scene():
    spec = data.SceneSpec(size=np.int64(48), min_targets=np.int32(1), max_targets=np.uint8(2),
                          seed=np.int64(3))
    image, labels = data.generate_scene(spec)
    want_image, want_labels = data.generate_scene(
        data.SceneSpec(size=48, min_targets=1, max_targets=2, seed=3))
    assert image.tobytes() == want_image.tobytes() and labels == want_labels


# the box fits some draws and not others, so only the draw can tell
@pytest.mark.parametrize("kwargs", [dict(size=40, sigma_range=(8.0, 12.0)), dict(size=1)],
                         ids=["sigma_range-too-wide", "size-1"])
def test_target_box_wider_than_the_frame_raises_data_error_at_the_draw(kwargs):
    spec = data.SceneSpec(**kwargs)
    with pytest.raises(DataError, match="sigma_range.*size"):
        data.generate_scene(spec)
