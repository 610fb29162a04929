"""PGM image files and YOLO label text: round trip and malformed input."""

import numpy as np
import pytest

from irstkit import data
from irstkit.errors import ParseError


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
