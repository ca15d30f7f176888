"""Quadratic time-frequency transforms.

The central transform builds, per output time n, the lag product
x[n+m] * conj(x[n-m]) tapered by a symmetric lag window h[m], and Fourier
transforms it over m:

    W[n][k] = 2 * Re( sum_m h[m] x[n+m] conj(x[n-m]) exp(-2j pi k m / F) )

with F frequency bins. Because the lag step is two signal samples, bin k
corresponds to k * rate / (2F) Hz, covering [0, rate/2) for analytic input.
The lag kernel is conjugate-symmetric in m (K[-m] = conj K[m]), so only the
lags m >= 0 are built, as the conjugate kernel 2 h[m] conj(x[n+m]) x[n-m]:
they fold into the Hermitian half spectrum of each row, and np.fft.irfft
with norm="forward" returns W directly, the factor 2 already in the window.
Given out_rows, only the time rows that a bilinear resize to out_rows reads
are transformed. Values are kept signed until normalize_image.

Images are stored rows = time, columns = frequency, frequency increasing with
column index. PNG/CSV export formats are pinned by golden tests.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytic import ComplexSignal
from .signal_core import work_array, zero_padded

IMAGE_KINDS = ("pseudo_wvd", "wvd")
# Grid rows pseudo_wvd transforms at once. Its spectrum block is 16 B x this
# x (F/2 + 1): 263 KB for 512 bins. At 44.1 kHz, blocks of 150 or 300 rows
# ran a clip slower than 32 to 100.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class TFDImage:
    """A 2D time x frequency energy array with axis metadata."""

    values: np.ndarray
    time_axis_s: np.ndarray
    freq_axis_hz: np.ndarray
    source_rate_hz: float
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "time_axis_s", np.asarray(self.time_axis_s, dtype=np.float64))
        object.__setattr__(self, "freq_axis_hz", np.asarray(self.freq_axis_hz, dtype=np.float64))
        if self.kind not in IMAGE_KINDS:
            raise ValueError(f"unknown image kind {self.kind!r}")
        if self.values.ndim != 2:
            raise ValueError("values must be a 2D array")
        rows, cols = self.values.shape
        if len(self.time_axis_s) != rows or len(self.freq_axis_hz) != cols:
            raise ValueError(
                f"axis lengths ({len(self.time_axis_s)}, {len(self.freq_axis_hz)}) "
                f"do not match array shape {self.values.shape}"
            )
        if cols > 1 and not np.all(np.diff(self.freq_axis_hz) > 0):
            raise ValueError("freq_axis_hz must be strictly increasing")
        nyquist = self.source_rate_hz / 2.0
        if self.freq_axis_hz[0] < -1e-9 or self.freq_axis_hz[-1] > nyquist * (1 + 1e-12):
            raise ValueError("freq_axis_hz must lie within [0, source_rate_hz / 2]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class LagWindow:
    """Symmetric taper over the lag axis, peak 1 at the center."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.float64)
        )
        n = len(self.coefficients)
        if n % 2 == 0:
            raise ValueError(f"lag window length must be odd, got {n}")
        if abs(self.coefficients[n // 2] - 1.0) > 1e-12:
            raise ValueError("lag window center coefficient must be 1")
        if not np.allclose(self.coefficients, self.coefficients[::-1], atol=1e-12):
            raise ValueError("lag window must be symmetric")

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def half_length(self) -> int:
        return len(self.coefficients) // 2


def hamming_lag_window(length: int) -> LagWindow:
    if length < 1 or length % 2 == 0:
        raise ValueError(f"lag window length must be a positive odd integer, got {length}")
    coeffs = np.hamming(length)
    coeffs /= coeffs[length // 2]  # np.hamming peaks at 1 for odd lengths; keep exact
    return LagWindow(coeffs)


def rectangular_lag_window(length: int) -> LagWindow:
    if length < 1 or length % 2 == 0:
        raise ValueError(f"lag window length must be a positive odd integer, got {length}")
    return LagWindow(np.ones(length))


def default_lag_window_length(num_samples: int) -> int:
    """Default taper length: 127, capped at the largest odd value <= N/4."""
    cap = num_samples // 4
    if cap % 2 == 0:
        cap -= 1
    return max(1, min(127, cap))


def pseudo_wvd(
    x: ComplexSignal,
    window: LagWindow,
    time_stride: int,
    n_freq_bins: int,
    out_rows: int | None = None,
    work: dict | None = None,
) -> TFDImage:
    """Lag-windowed quadratic time-frequency image of an analytic signal.

    Grid rows sit at samples 0, time_stride, 2*time_stride, ...; column k
    is k * rate / (2 * n_freq_bins) Hz. Lags beyond the signal ends read as
    zero. Lag offsets alias modulo n_freq_bins, which matches the defining
    sum exactly, so the window may extend up to 2 * n_freq_bins - 1 taps.

    Builds the conjugate kernel C[n, m] = 2 h[m] conj(x[n+m]) x[n-m] for
    m = 0..L only and folds it into the half spectrum A[j] = C[j] +
    conj(C[F-j]), j = 0..F//2, where a term is present only for a lag within
    the window (the second only when L >= ceil(F/2)). The folded row is the
    conjugate of a Hermitian half spectrum, so irfft(A, norm="forward") is
    the real DFT of the unconjugated row, factor 2 included. Rows are
    transformed BLOCK_ROWS at a time, so the spectrum is never larger than
    one block.

    With out_rows, the image is resampled bilinearly to out_rows grid rows,
    bit for bit as resize_bilinear would, and only the two grid rows on
    either side of each output row are transformed (all of them when that
    would not be fewer).

    With work, the padded signal, the spectrum block and the image values
    live in it, and the values stay valid until the next call given the same
    work (see signal_core.work_array). The axes are always new.
    """
    if len(x) == 0:
        raise ValueError("cannot transform an empty signal")
    if time_stride < 1:
        raise ValueError(f"time_stride must be a positive integer, got {time_stride}")
    if n_freq_bins < 1:
        raise ValueError(f"n_freq_bins must be a positive integer, got {n_freq_bins}")
    if len(window) > 2 * n_freq_bins - 1:
        raise ValueError(
            f"lag window length {len(window)} exceeds 2 * n_freq_bins - 1 = {2 * n_freq_bins - 1}"
        )
    length = len(x)
    half = window.half_length
    rows = np.arange(0, length, time_stride)
    padded = zero_padded(work, "pwvd_padded", x.samples, length + 2 * half, half)
    conj = np.conj(padded, out=work_array(work, "pwvd_conj", padded.shape, np.complex128))
    # Row i of a window view holds padded[i .. i+half], so row n + half is
    # x[n .. n+half] and row n read backwards is x[n], x[n-1], .., x[n-half].
    forward = sliding_window_view(conj, half + 1)[half::time_stride]
    backward = sliding_window_view(padded, half + 1)[:length:time_stride, ::-1]
    taper = 2.0 * window.coefficients[half:]
    half_bins = n_freq_bins // 2 + 1
    # Negative lags -m with m >= ceil(F/2) alias onto bin F - m <= F//2;
    # both slices are empty when the window is shorter than that.
    first_alias = -(-n_freq_bins // 2)
    block = work_array(
        work, "pwvd_spectrum", (BLOCK_ROWS, max(half + 1, half_bins)), np.complex128
    )
    block[:, half + 1 :] = 0  # bins no lag reaches; the kernel fills the rest

    def transform(grid_rows, out):
        """Write the image rows at grid row indices grid_rows into out."""
        for start in range(0, len(grid_rows), BLOCK_ROWS):
            chunk = grid_rows[start : start + BLOCK_ROWS]
            spectrum = block[: len(chunk)]
            kernel = spectrum[:, : half + 1]
            np.multiply(taper, forward[chunk], out=kernel)
            kernel *= backward[chunk]
            aliased = spectrum[:, first_alias : half + 1][:, ::-1]
            spectrum[:, n_freq_bins - half : half_bins] += np.conj(aliased)
            np.fft.irfft(spectrum[:, :half_bins], n=n_freq_bins, axis=1, norm="forward",
                         out=out[start : start + len(chunk)])
        return out

    rate = x.sample_rate_hz
    times = rows / rate
    every_row = np.arange(len(rows))
    if out_rows is None:
        values = transform(every_row, work_array(work, "pwvd", (len(rows), n_freq_bins)))
    else:
        lo, frac = _lerp_weights(out_rows, len(rows))
        # Transforming rows lo, then rows lo + 1, costs 2 * out_rows rows;
        # past that, transform every row once and pick from the result.
        if 2 * out_rows < len(rows):
            read = transform
        else:
            grid = transform(every_row, work_array(work, "pwvd_grid", (len(rows), n_freq_bins)))
            read = partial(np.take, grid, axis=0, mode="clip")
        values = work_array(work, "pwvd", (out_rows, n_freq_bins))
        upper = work_array(work, "pwvd_upper", (BLOCK_ROWS, n_freq_bins))
        for start in range(0, out_rows, BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            _lerp(read, lo[part], frac[part, None], values[part], upper[: len(lo[part])])
        times = _lerp(partial(np.take, times), lo, frac)
    freq_axis = np.arange(n_freq_bins) * rate / (2.0 * n_freq_bins)
    return TFDImage(values, times, freq_axis, rate, "pseudo_wvd")


def wvd(x: ComplexSignal, time_stride: int = 1, n_freq_bins: int | None = None) -> TFDImage:
    """Plain (unwindowed) variant: rectangular window over all available lags.

    Memory grows as rows x lag extent; pass n_freq_bins to cap the lag window
    (at 2 * n_freq_bins - 1) for long signals.
    """
    if len(x) == 0:
        raise ValueError("cannot transform an empty signal")
    if n_freq_bins is None:
        n_freq_bins = len(x)
    length = min(2 * len(x) - 1, 2 * n_freq_bins - 1)
    return replace(pseudo_wvd(x, rectangular_lag_window(length), time_stride, n_freq_bins),
                   kind="wvd")


def wvd_time_marginal(image: TFDImage, x: ComplexSignal) -> np.ndarray:
    """Per-sample energy |x[n]|^2 recovered from a full-lag, stride-1 image.

    Only the m = 0 lag survives averaging over frequency bins, so the row
    mean divided by the factor 2 in the transform is the instantaneous power.
    """
    if image.kind != "wvd":
        raise ValueError("time marginal requires a plain (rectangular full-lag) image")
    if image.shape[0] != len(x):
        raise ValueError(
            f"image has {image.shape[0]} rows but the signal has {len(x)} samples; "
            "the marginal needs time_stride 1"
        )
    return image.values.mean(axis=1) / 2.0


def _lerp_weights(out_len: int, in_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear sampling of in_len points at out_len, endpoints mapped to
    endpoints: the lower source index lo of each output and the weight frac
    of source lo + 1."""
    if out_len < 1 or in_len < 2:
        raise ValueError(f"cannot resample {in_len} point(s) to {out_len}")
    if out_len == 1:
        pos = np.array([(in_len - 1) / 2.0])
    else:
        pos = np.arange(out_len) * (in_len - 1) / (out_len - 1)
    lo = np.clip(np.floor(pos).astype(int), 0, in_len - 2)
    return lo, pos - lo


def _lerp(read, lo: np.ndarray, frac: np.ndarray, out=None, upper=None) -> np.ndarray:
    """read(lo) * (1 - frac) + read(lo + 1) * frac, one temporary at a time.

    read(index, out=array) writes the entries at index into array and
    returns it; with out=None it returns a new array. The result is built
    in out, with upper as the scratch for read(lo + 1). frac must broadcast
    against what read returns.
    """
    out = read(lo, out=out)
    out *= 1 - frac
    upper = read(lo + 1, out=upper)
    upper *= frac
    out += upper
    return out


def resize_bilinear(
    image: TFDImage, out_rows: int, out_cols: int, work: dict | None = None
) -> TFDImage:
    """Bilinear resample to (out_rows, out_cols); axes are resampled to match.

    An axis whose length already matches is left as it is. With work, the
    resampled values live in it (see signal_core.work_array); the axes are
    always new.
    """
    if out_rows < 1 or out_cols < 1:
        raise ValueError(f"requested dimensions must be positive, got {out_rows}x{out_cols}")
    rows, cols = image.shape
    if rows < 2 or cols < 2:
        raise ValueError(f"input must be at least 2x2, got {rows}x{cols}")
    values, time_axis, freq_axis = image.values, image.time_axis_s, image.freq_axis_hz
    if out_rows != rows:
        lo, frac = _lerp_weights(out_rows, rows)
        values = _lerp(partial(np.take, values, axis=0, mode="clip"), lo, frac[:, None],
                       work_array(work, "resize_rows", (out_rows, cols)),
                       work_array(work, "resize_upper", (out_rows, cols)))
        time_axis = _lerp(partial(np.take, time_axis), lo, frac)
    if out_cols != cols:
        lo, frac = _lerp_weights(out_cols, cols)
        # np.take keeps the result C-ordered; values[:, lo] would not be
        values = _lerp(partial(np.take, values, axis=1, mode="clip"), lo, frac,
                       work_array(work, "resize", (out_rows, out_cols)),
                       work_array(work, "resize_upper", (out_rows, out_cols)))
        freq_axis = _lerp(partial(np.take, freq_axis), lo, frac)
    return TFDImage(values, time_axis, freq_axis, image.source_rate_hz, image.kind)


def normalize_image(image: TFDImage) -> TFDImage:
    """Clamp negatives to zero, then min-max scale into [0, 1].

    An image that is constant after clamping maps to all zeros. The values
    are always a new array; the input is not changed.
    """
    clamped = np.maximum(image.values, 0.0)
    lo, hi = clamped.min(), clamped.max()
    if hi - lo == 0:
        return replace(image, values=np.zeros_like(clamped))
    clamped -= lo
    clamped /= hi - lo
    return replace(image, values=clamped)


def log_compress(image: TFDImage, work: dict | None = None) -> TFDImage:
    """log1p on the non-negative part; intended between resize and normalize.

    With work, the values live in it (see signal_core.work_array).
    """
    values = np.maximum(image.values, 0.0, out=work_array(work, "log", image.shape))
    return replace(image, values=np.log1p(values, out=values))


# -- export formats ----------------------------------------------------------


def image_to_png_bytes(image: TFDImage) -> bytes:
    """8-bit grayscale PNG, pixel = round(255 * v), row 0 (earliest time) on top."""
    gray = np.clip(np.round(image.values * 255.0), 0, 255).astype(np.uint8)
    height, width = gray.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + row.tobytes() for row in gray)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def image_to_csv(image: TFDImage) -> str:
    """Full-precision CSV with a two-line axis-metadata header."""
    lines = [
        "# kind={} source_rate_hz={} time_s={}".format(
            image.kind,
            repr(float(image.source_rate_hz)),
            ",".join(repr(float(v)) for v in image.time_axis_s),
        ),
        "# freq_hz={}".format(",".join(repr(float(v)) for v in image.freq_axis_hz)),
    ]
    for row in image.values:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def image_from_csv(text: str) -> TFDImage:
    lines = text.strip("\n").split("\n")
    if len(lines) < 3 or not lines[0].startswith("# kind=") or not lines[1].startswith("# freq_hz="):
        raise ValueError("malformed image CSV: expected a two-line '#' header")
    head = lines[0][2:]
    kind, rest = head.split(" source_rate_hz=", 1)
    kind = kind[len("kind=") :]
    rate_str, time_str = rest.split(" time_s=", 1)
    time_axis = np.array([float(v) for v in time_str.split(",")])
    freq_axis = np.array([float(v) for v in lines[1][len("# freq_hz=") :].split(",")])
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return TFDImage(values, time_axis, freq_axis, float(rate_str), kind)
