"""PGM image files: round trip and malformed input."""

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
