"""PGM image files and YOLO label text: round trip and malformed input;
splits and synthetic scenes: properties over seeds, equality with a
full-frame reference, pinned scene hashes and malformed specs."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstkit import data
from irstkit.errors import DataError, ParseError


def test_pgm_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, (5, 7)) / 255.0
    data.write_pgm(tmp_path / "a.pgm", img)
    np.testing.assert_array_equal(data.read_pgm(tmp_path / "a.pgm"), img)


@pytest.mark.parametrize("cut", [1, 20, 34])
def test_truncated_pixel_data_raises_parse_error(tmp_path, cut):
    path = tmp_path / "a.pgm"
    data.write_pgm(path, np.zeros((5, 7)))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ParseError, match="truncated"):
        data.read_pgm(path)


@pytest.mark.parametrize("raw", [b"P5\n7 5\n", b"P5\n7 x\n255\n", b"P5\n0 5\n255\n"])
def test_malformed_header_raises_parse_error(tmp_path, raw):
    path = tmp_path / "a.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError):
        data.read_pgm(path)


def test_yolo_labels_round_trip():
    gts = [data.GroundTruth(0, 0.5, 0.25, 0.1, 0.2), data.GroundTruth(1, 0.0, 1.0, 1.0, 0.05)]
    assert data.parse_yolo_labels(data.serialize_yolo_labels(gts) + "\n") == gts


def test_yolo_negative_class_raises_parse_error():
    # a negative id would otherwise index the last class channel from the end
    with pytest.raises(ParseError, match="line 2: negative class id -1"):
        data.parse_yolo_labels("0 0.5 0.5 0.1 0.1\n-1 0.5 0.5 0.1 0.1\n")


@pytest.mark.parametrize("line", ["0 0.5 0.5 0 0.1", "0 0.5 0.5 0.1 0.0", "0 0.5 0.5 -1e-7 0.1"])
def test_yolo_zero_size_box_raises_parse_error(line):
    with pytest.raises(ParseError, match="line 1: zero-size box"):
        data.parse_yolo_labels(line)


def yolo_line(field: int, value: float) -> str:
    vals = [0.5, 0.5, 0.1, 0.1]
    vals[field] = value
    return "0 " + " ".join(map(repr, vals))


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [-2 * data.CLAMP_TOL, 1.0 + 2 * data.CLAMP_TOL])
def test_yolo_value_beyond_clamp_tolerance_raises_parse_error(field, value):
    with pytest.raises(ParseError, match=r"line 1: value .* outside \[0, 1\]"):
        data.parse_yolo_labels(yolo_line(field, value))


@pytest.mark.parametrize("field", range(4))
def test_yolo_nan_value_raises_parse_error(field):
    # every comparison with NaN is false, so only an "is it inside" test catches it
    with pytest.raises(ParseError, match=r"line 1: value nan outside \[0, 1\]"):
        data.parse_yolo_labels(yolo_line(field, math.nan))


@pytest.mark.parametrize("field", range(4))
def test_ground_truth_with_nan_fails_validation(field):
    vals = [0.5, 0.5, 0.1, 0.1]
    data.GroundTruth(0, *vals).validate()
    vals[field] = math.nan
    with pytest.raises(DataError):
        data.GroundTruth(0, *vals).validate()


# inside the tolerance, up to the bound itself (repr round-trips the float),
# a value is clamped; a width or height clamped to 0 is a zero-size box
@pytest.mark.parametrize("field, value, clamped", [
    (0, -data.CLAMP_TOL, 0.0), (0, -data.CLAMP_TOL / 2, 0.0), (1, -data.CLAMP_TOL, 0.0),
    (0, 1.0 + data.CLAMP_TOL, 1.0), (1, 1.0 + data.CLAMP_TOL / 2, 1.0),
    (2, 1.0 + data.CLAMP_TOL, 1.0), (3, 1.0 + data.CLAMP_TOL, 1.0)])
def test_yolo_value_within_clamp_tolerance_is_clamped(field, value, clamped):
    (gt,) = data.parse_yolo_labels(yolo_line(field, value))
    want = [0.5, 0.5, 0.1, 0.1]
    want[field] = clamped
    assert [gt.cx, gt.cy, gt.w, gt.h] == want


@given(st.integers(5, 200), st.integers(0, 2**32 - 1))
def test_split_parts_are_disjoint_and_cover_every_id(n, seed):
    ids = [f"img{i}" for i in range(n)]
    train, val, test = data.split_dataset(ids, seed)
    assert sorted(train + val + test) == sorted(ids)
    assert len(val) == len(test) == n // 5


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
    for g in labels:
        g.validate()
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


EVAL_640 = dict(size=640, min_targets=3, max_targets=3, sigma_range=(2.0, 4.0))

# sha256 of np.exp over Gaussian arguments where the pins below were recorded
# (numpy 2.4.6, x86-64 with AVX-512); numpy's exp differs from libm's in the
# last bit on about 4.5% of these, so image bytes are pinned only where it matches
EXP_FINGERPRINT = "331532d5267ed6943729cc9399392d9d406f205fce77e962b4946e4cdc195960"


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
    exp = np.exp(np.linspace(-750.0, 0.0, 30001))
    if hashlib.sha256(exp.tobytes()).hexdigest() != EXP_FINGERPRINT:
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
], ids=["size-0", "size-inf", "sigma_range-reversed", "sigma_range-nan", "sigma_range-zero",
        "intensity_range-nan", "gradient_amplitude-nan", "blob_density-negative",
        "blob_density-inf", "blob_density-too-large", "box_sigmas-inf"])
def test_malformed_scene_spec_raises_data_error_naming_the_field(field, kwargs):
    with pytest.raises(DataError, match=field):
        data.SceneSpec(**kwargs)


# the box fits some draws and not others, so only the draw can tell
@pytest.mark.parametrize("kwargs", [dict(size=40, sigma_range=(8.0, 12.0)), dict(size=1)],
                         ids=["sigma_range-too-wide", "size-1"])
def test_target_box_wider_than_the_frame_raises_data_error_at_the_draw(kwargs):
    spec = data.SceneSpec(**kwargs)
    with pytest.raises(DataError, match="sigma_range.*size"):
        data.generate_scene(spec)


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("split", ["training", "Val", "tset"])
def test_manifest_unknown_split_raises_parse_error(tmp_path, split):
    # a misspelt split would otherwise drop its items from every load_split
    path = write_lines(tmp_path / "manifest.txt", "a a.pgm a.txt train", f"b b.pgm b.txt {split}")
    with pytest.raises(ParseError, match=rf":2: split '{split}' is not one of"):
        data.read_manifest(path)


@pytest.mark.parametrize("line", ["a a.pgm a.txt", "a a.pgm a.txt train extra"])
def test_manifest_wrong_field_count_raises_parse_error(tmp_path, line):
    path = write_lines(tmp_path / "manifest.txt", "", line)
    with pytest.raises(ParseError, match=":2: expected 4 fields, got"):
        data.read_manifest(path)


def test_generated_dataset_loads_back_per_split(tmp_path):
    spec = data.SceneSpec(size=32, max_targets=2)
    items = data.generate_dataset(spec, 6, tmp_path, seed=3)
    for split in data.SPLITS:
        images, labels = data.load_split(tmp_path / "manifest.txt", split)
        part = [i for i, it in enumerate(items) if it.split == split]
        assert images.shape == (len(part), 1, 32, 32) and len(labels) == len(part)
        for i, image, got in zip(part, images, labels):
            want_image, want = data.generate_scene(
                data.SceneSpec(size=32, max_targets=2, seed=3 * 100_003 + i))
            # 8-bit pixels round to within half a grey level
            assert np.abs(image[0] - want_image).max() <= 0.5 / 255 + 1e-12
            assert [g.class_id for g in got] == [g.class_id for g in want]
            np.testing.assert_allclose([[g.cx, g.cy, g.w, g.h] for g in got],
                                       [[g.cx, g.cy, g.w, g.h] for g in want], atol=1e-6)
