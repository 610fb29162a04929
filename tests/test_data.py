"""PGM image files and YOLO label text: round trip and malformed input;
splits and synthetic scenes: properties over seeds."""

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
