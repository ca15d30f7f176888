import base64
import io
import struct
import zlib

import numpy as np
import pytest

from wvdnet.tfd import TFDImage, image_from_csv, image_to_csv, image_to_png_bytes

# Frozen 2x3 image exercising rounding at both ends of the range.
GOLDEN_IMAGE = TFDImage(
    np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.1]]),
    np.array([0.0, 0.5]),
    np.array([0.0, 1000.0, 2000.0]),
    4000.0,
    "pseudo_wvd",
)

GOLDEN_PNG_B64 = (
    "iVBORw0KGgoAAAANSUhEUgAAAAMAAAACCAAAAAC4HznGAAAAEElEQVR4nGNgaPjP4LBf"
    "CgAKWwKZr4b8WAAAAABJRU5ErkJggg=="
)

GOLDEN_CSV = (
    "# kind=pseudo_wvd source_rate_hz=4000.0 time_s=0.0,0.5\n"
    "# freq_hz=0.0,1000.0,2000.0\n"
    "0.0,0.5,1.0\n"
    "0.25,0.75,0.1\n"
)


class TestPngExport:
    def test_golden_bytes(self):
        assert image_to_png_bytes(GOLDEN_IMAGE) == base64.b64decode(GOLDEN_PNG_B64)

    def test_decodes_as_expected_grayscale(self):
        # independent oracle: decode with Pillow
        Image = pytest.importorskip("PIL.Image")
        img = Image.open(io.BytesIO(image_to_png_bytes(GOLDEN_IMAGE)))
        assert img.mode == "L"
        assert img.size == (3, 2)  # (width, height)
        pixels = np.asarray(img)
        expected = np.round(GOLDEN_IMAGE.values * 255.0)
        np.testing.assert_array_equal(pixels, expected)

    def test_row_zero_is_top_row(self):
        Image = pytest.importorskip("PIL.Image")
        two_rows = TFDImage(
            np.array([[1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd"
        )
        pixels = np.asarray(Image.open(io.BytesIO(image_to_png_bytes(two_rows))))
        assert pixels[0].tolist() == [255, 255]  # earliest time on top
        assert pixels[1].tolist() == [0, 0]

    def test_values_above_one_clip(self):
        img = TFDImage(np.array([[2.0, -1.0], [0.0, 1.0]]), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd")
        Image = pytest.importorskip("PIL.Image")
        pixels = np.asarray(Image.open(io.BytesIO(image_to_png_bytes(img))))
        assert pixels[0].tolist() == [255, 0]


def decode_png_gray8(blob):
    """Stdlib PNG reader for what the exporter writes, checking as it goes:
    signature, every chunk CRC, an IHDR for 8-bit grayscale without
    interlace, IEND last, and filter type 0 on every scanline."""
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        tag, payload = blob[pos + 4 : pos + 8], blob[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack_from(">I", blob, pos + 8 + length)
        assert crc == zlib.crc32(tag + payload), f"bad CRC on {tag!r}"
        chunks.append((tag, payload))
        pos += 12 + length
    assert pos == len(blob)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, color, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1]
    )
    assert (depth, color, compression, filtering, interlace) == (8, 0, 0, 0, 0)
    raw = zlib.decompress(b"".join(payload for tag, payload in chunks if tag == b"IDAT"))
    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + width)
    assert (scanlines[:, 0] == 0).all()
    return scanlines[:, 1:]


class TestPngStdlibOracle:
    def test_decodes_as_expected_grayscale(self):
        pixels = decode_png_gray8(image_to_png_bytes(GOLDEN_IMAGE))
        assert pixels.shape == (2, 3)  # (height, width)
        np.testing.assert_array_equal(pixels, np.round(GOLDEN_IMAGE.values * 255.0))

    def test_row_zero_is_top_row(self):
        two_rows = TFDImage(
            np.array([[1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd"
        )
        pixels = decode_png_gray8(image_to_png_bytes(two_rows))
        assert pixels.tolist() == [[255, 255], [0, 0]]  # earliest time on top

    def test_values_outside_unit_range_clip(self):
        img = TFDImage(np.array([[2.0, -1.0], [0.0, 1.0]]), [0.0, 1.0], [0.0, 1.0], 100.0, "wvd")
        assert decode_png_gray8(image_to_png_bytes(img))[0].tolist() == [255, 0]


class TestCsvExport:
    def test_golden_text(self):
        assert image_to_csv(GOLDEN_IMAGE) == GOLDEN_CSV

    def test_round_trip(self):
        back = image_from_csv(image_to_csv(GOLDEN_IMAGE))
        np.testing.assert_array_equal(back.values, GOLDEN_IMAGE.values)
        np.testing.assert_array_equal(back.time_axis_s, GOLDEN_IMAGE.time_axis_s)
        np.testing.assert_array_equal(back.freq_axis_hz, GOLDEN_IMAGE.freq_axis_hz)
        assert back.source_rate_hz == GOLDEN_IMAGE.source_rate_hz
        assert back.kind == GOLDEN_IMAGE.kind

    def test_round_trip_preserves_full_precision(self):
        rng = np.random.default_rng(3)
        img = TFDImage(rng.random((4, 5)), np.arange(4) / 3.0, np.sort(rng.random(5)), 2.5, "wvd")
        back = image_from_csv(image_to_csv(img))
        np.testing.assert_array_equal(back.values, img.values)

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            image_from_csv("1,2,3\n4,5,6\n")
