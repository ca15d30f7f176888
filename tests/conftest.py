"""Shared test helpers: finite-difference gradients, a direct (non-FFT)
evaluation of the quadratic time-frequency sum used as the independent oracle,
the earlier full-lag form of pseudo_wvd kept as a reference, the all-rows
hfft form of pseudo_wvd and the two-pass bilinear resize kept as a bitwise
oracle for the row-selecting chain, the per-class report loop kept as the
reference for the array report, the three-range decimate, the gain-array
analytic signal and the running-max-with-rose-index max-pool kept as bitwise
references for their one-path forms, a
fixed-draws stand-in for a dropout rng, a checkpoint's bytes, a tracemalloc
probe, and a fresh-interpreter runner, which can set the BLAS thread count,
with a peak-RSS probe and a minor-fault counter built on it."""

import io
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wvdnet.analytic import ComplexSignal
from wvdnet.evaluation import EvalReport
from wvdnet.neuralnet import save_checkpoint
from wvdnet.signal_core import Signal, design_lowpass
from wvdnet.tfd import TFDImage


def numeric_gradient(loss_fn, array, h=1e-6):
    """Central-difference gradient of a scalar loss w.r.t. every array element."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + h
        hi = loss_fn()
        array[idx] = original - h
        lo = loss_fn()
        array[idx] = original
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-8, abs_tol=1e-6):
    """Elementwise check: relative error below rel_tol, except near-zero
    entries which are compared absolutely."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    small = np.abs(analytic) < abs_floor
    if small.any():
        assert np.abs(analytic[small] - numeric[small]).max() < abs_tol
    rest = ~small
    if rest.any():
        rel = np.abs(analytic[rest] - numeric[rest]) / np.maximum(
            np.abs(analytic[rest]), np.abs(numeric[rest])
        )
        assert rel.max() < rel_tol, f"max relative gradient error {rel.max():.3g}"


def direct_quadratic_tfd(samples, window_coeffs, time_stride, n_freq_bins):
    """O(rows * bins * lags) evaluation of the defining sum:

        W[n][k] = 2 Re( sum_m h[m] x[n+m] conj(x[n-m]) exp(-2j pi k m / F) )

    with out-of-range samples read as zero. Deliberately avoids the FFT path.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    half = len(window_coeffs) // 2
    rows = np.arange(0, len(samples), time_stride)
    lags = np.arange(-half, half + 1)
    exp_matrix = np.exp(
        -2j * np.pi * np.outer(np.arange(n_freq_bins), lags) / n_freq_bins
    )
    out = np.zeros((len(rows), n_freq_bins))
    for ri, n in enumerate(rows):
        products = np.zeros(len(lags), dtype=np.complex128)
        for mi, m in enumerate(lags):
            i, j = n + m, n - m
            if 0 <= i < len(samples) and 0 <= j < len(samples):
                products[mi] = window_coeffs[mi] * samples[i] * np.conj(samples[j])
        out[ri] = 2.0 * (exp_matrix @ products).real
    return out


def reference_pseudo_wvd(x, window, time_stride, n_freq_bins):
    """The pad/fold/roll form of pseudo_wvd: lags m = -L..L are gathered with
    fancy indexing, padded to a multiple of n_freq_bins, summed onto their
    residues, rolled so residue 0 holds m = 0, and sent through a full
    complex FFT."""
    half = window.half_length
    padded = np.concatenate(
        [np.zeros(half, dtype=np.complex128), x.samples, np.zeros(half, dtype=np.complex128)]
    )
    rows = np.arange(0, len(x), time_stride)
    m = np.arange(-half, half + 1)
    plus = padded[rows[:, None] + m[None, :] + half]
    minus = padded[rows[:, None] - m[None, :] + half]
    kernel = window.coefficients[None, :] * plus * np.conj(minus)

    width = len(window)
    blocks = -(-width // n_freq_bins)
    wide = np.zeros((len(rows), blocks * n_freq_bins), dtype=np.complex128)
    wide[:, :width] = kernel
    folded = wide.reshape(len(rows), blocks, n_freq_bins).sum(axis=1)
    folded = np.roll(folded, (-half) % n_freq_bins, axis=1)

    values = 2.0 * np.fft.fft(folded, axis=1).real
    rate = x.sample_rate_hz
    freq_axis = np.arange(n_freq_bins) * rate / (2.0 * n_freq_bins)
    return TFDImage(values, rows / rate, freq_axis, rate, "pseudo_wvd")


def hfft_pseudo_wvd(x, window, time_stride, n_freq_bins):
    """The all-rows form of pseudo_wvd: every grid row's kernel
    h[m] x[n+m] conj(x[n-m]), m = 0..L, folded into its Hermitian half
    spectrum, whose real DFT np.fft.hfft returns, then doubled."""
    length = len(x)
    half = window.half_length
    rows = np.arange(0, length, time_stride)
    padded = np.pad(x.samples, half)
    forward = sliding_window_view(padded, half + 1)[half::time_stride]
    backward = sliding_window_view(np.conj(padded), half + 1)[:length:time_stride, ::-1]

    half_bins = n_freq_bins // 2 + 1
    spectrum = np.zeros((len(rows), max(half + 1, half_bins)), dtype=np.complex128)
    kernel = spectrum[:, : half + 1]
    np.multiply(window.coefficients[half:], forward, out=kernel)
    kernel *= backward
    first_alias = -(-n_freq_bins // 2)
    aliased = spectrum[:, first_alias : half + 1][:, ::-1]
    spectrum[:, n_freq_bins - half : half_bins] += np.conj(aliased)

    values = 2.0 * np.fft.hfft(spectrum[:, :half_bins], n=n_freq_bins, axis=1)
    rate = x.sample_rate_hz
    freq_axis = np.arange(n_freq_bins) * rate / (2.0 * n_freq_bins)
    return TFDImage(values, rows / rate, freq_axis, rate, "pseudo_wvd")


def three_range_decimate(signal, target_rate_hz):
    """decimate with its outputs split into three ranges: only the outputs
    whose 63-tap filter reaches past either end of the input read a
    zero-padded copy of the samples they need; the rest read the input in
    place. Takes an integer-ratio target below the source rate."""
    k = round(signal.sample_rate_hz / target_rate_hz)
    taps = design_lowpass(0.45 * target_rate_hz / 2.0, signal.sample_rate_hz, 63)[::-1]
    half = len(taps) // 2
    samples, n = signal.samples, len(signal)
    count = -(-n // k)
    kept = np.empty(count)
    # Output j filters samples j*k - half .. j*k + half; those from first
    # to stop - 1 lie inside the input.
    first = min(-(-half // k), count)
    stop = min(max((n - 1 - half) // k + 1, first), count)
    for start, end in ((0, first), (first, stop), (stop, count)):
        if start == end:
            continue
        lo, hi = start * k - half, (end - 1) * k + half + 1
        reach = samples[max(lo, 0) : hi]
        if lo < 0 or hi > n:
            reach = np.pad(reach, (max(-lo, 0), max(hi - n, 0)))
        np.matmul(sliding_window_view(reach, len(taps))[::k], taps, out=kept[start:end])
    return Signal(kept, target_rate_hz)


def gain_array_analytic_signal(signal):
    """analytic_signal with the spectrum multiplied by a gain array: 1 at DC
    (and at the Nyquist bin of an even length), 2 over the positive
    frequencies and 0 over the negative ones."""
    n = len(signal)
    spectrum = np.fft.fft(signal.samples)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[1 : n // 2] = 2.0
        gain[n // 2] = 1.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    spectrum *= gain
    return ComplexSignal(np.fft.ifft(spectrum), signal.sample_rate_hz)


def two_pass_resize_bilinear(image, out_rows, out_cols, work=None):
    """Bilinear resize that always interpolates both axes of the whole
    image, rows first: lower * (1 - f) + upper * f. work is ignored."""
    rows, cols = image.shape

    def positions(out_len, in_len):
        if out_len == 1:
            return np.array([(in_len - 1) / 2.0])
        return np.arange(out_len) * (in_len - 1) / (out_len - 1)

    def interp_1d(values, pos, axis):
        lo = np.clip(np.floor(pos).astype(int), 0, values.shape[axis] - 2)
        frac = pos - lo
        lower = np.take(values, lo, axis=axis)
        upper = np.take(values, lo + 1, axis=axis)
        shape = [1, 1]
        shape[axis] = len(pos)
        f = frac.reshape(shape) if values.ndim == 2 else frac
        return lower * (1 - f) + upper * f

    rpos = positions(out_rows, rows)
    cpos = positions(out_cols, cols)
    values = interp_1d(interp_1d(image.values, rpos, axis=0), cpos, axis=1)
    time_axis = interp_1d(image.time_axis_s, rpos, axis=0)
    freq_axis = interp_1d(image.freq_axis_hz, cpos, axis=0)
    return TFDImage(values, time_axis, freq_axis, image.source_rate_hz, image.kind)


def running_max_maxpool(x, k):
    """MaxPool2d's forward as a running max over the k*k tap views in
    row-major order, np.maximum(tap, max), with the uint8 tap index taking q
    wherever the max rose or a NaN entered, as max(index, q * rose): the last
    tap that raised the max is the first that matches it. Returns the output
    and the index."""
    hout, wout = x.shape[2] // k, x.shape[3] // k
    taps = [x[:, :, i : k * hout : k, j : k * wout : k] for i in range(k) for j in range(k)]
    out = taps[0].copy()
    nxt = np.empty_like(out)
    rose = np.empty(out.shape, dtype=bool)
    which = np.zeros(out.shape, dtype=np.uint8)
    rose_q = np.empty_like(which)
    for q, tap in enumerate(taps[1:], 1):
        np.maximum(tap, out, out=nxt)
        np.not_equal(nxt, out, out=rose)
        np.multiply(rose.view(np.uint8), q, out=rose_q)
        np.maximum(which, rose_q, out=which)
        out, nxt = nxt, out
    return out, which


def reference_report(true_labels, pred_labels, class_names):
    """compute_report as a loop over classes, each score a scalar division
    guarded by a zero check, and the averages read back from its dicts."""
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (np.asarray(true_labels), np.asarray(pred_labels)), 1)
    diag = np.diag(confusion).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    flagged = []
    per_class = []
    for c in range(k):
        precision = diag[c] / col_sums[c] if col_sums[c] else 0.0
        recall = diag[c] / row_sums[c] if row_sums[c] else 0.0
        if not col_sums[c] or not row_sums[c]:
            flagged.append(class_names[c])
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append({"name": class_names[c], "precision": precision, "recall": recall,
                          "f1": f1, "support": int(row_sums[c])})
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total
    keys = ("precision", "recall", "f1")
    macro = {key: float(np.mean([p[key] for p in per_class])) for key in keys}
    weights = np.array([p["support"] for p in per_class], dtype=np.float64) / total
    weighted = {key: float(np.sum(weights * [p[key] for p in per_class])) for key in keys}
    return EvalReport(confusion, tuple(per_class), accuracy, {**macro, "support": total},
                      {**weighted, "support": total}, tuple(class_names), tuple(flagged))


class FixedDraws:
    """A stand-in for a Dropout's rng whose random(shape) returns the same
    draws on every call, so a layer run with train=True keeps one mask."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws


def checkpoint_bytes(net, names=None):
    """The bytes save_checkpoint writes for net and its class names."""
    buffer = io.BytesIO()
    save_checkpoint(net, buffer, names)
    return buffer.getvalue()


def traced_memory(call):
    """Run call() under tracemalloc, which numpy reports its buffers to;
    returns (current, peak): the bytes allocated during the call that are
    still held once it has returned and dropped its result, and the most
    held at any one time."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


SRC = Path(__file__).resolve().parents[1] / "src"
_PEAK_RSS = """
def peak_rss():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
"""


def run_child(code, blas_threads=None):
    """Run `code` in a fresh interpreter that imports this checkout's
    package, with OPENBLAS_NUM_THREADS set to `blas_threads` when given;
    returns what it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_fresh(code):
    """Run `code` as run_child does, and return the last word it prints,
    as a float."""
    return float(run_child(code).split()[-1])


def peak_rss_growth(snippet, setup=""):
    """Run `setup`, then `snippet`, in a fresh interpreter (see run_fresh);
    returns how far `snippet` raised the process's peak resident set, in
    bytes. Whatever `setup` builds counts in the baseline, so it should free
    nothing large before the snippet runs.

    The peak is the address space's own high-water mark (VmHWM). ru_maxrss
    is no use here: a child inherits the parent's high-water mark at exec,
    so under a large test process it reads flat."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status for the peak resident set")
    return int(run_fresh("\n".join([
        _PEAK_RSS,
        textwrap.dedent(setup),
        "before = peak_rss()",
        textwrap.dedent(snippet),
        "print(peak_rss() - before)",
    ])))


def minor_faults(snippet, setup="", repeat=1, children=False):
    """Run `setup`, then `snippet` `repeat` times, in a fresh interpreter
    (see run_fresh); returns the fewest minor page faults one run of
    `snippet` took. With children true, the faults counted are those of the
    interpreter's reaped child processes, such as a process pool's workers
    once the snippet has shut the pool down.

    The interpreter turns transparent huge pages off for itself and its
    children first (prctl PR_SET_THP_DISABLE), so every fault maps one base
    page: numpy asks for huge pages for large arrays, and how many of those
    the kernel has free would otherwise set the count."""
    if sys.platform != "linux":
        pytest.skip("counts minor faults with ru_minflt")
    who = "RUSAGE_CHILDREN" if children else "RUSAGE_SELF"
    return int(run_fresh("\n".join([
        "import ctypes, resource",
        "if ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0):  # PR_SET_THP_DISABLE",
        "    raise OSError(ctypes.get_errno(), 'prctl(PR_SET_THP_DISABLE) failed')",
        textwrap.dedent(setup),
        "counts = []",
        f"for _ in range({repeat}):",
        f"    before = resource.getrusage(resource.{who}).ru_minflt",
        textwrap.indent(textwrap.dedent(snippet).strip(), "    "),
        f"    counts.append(resource.getrusage(resource.{who}).ru_minflt - before)",
        "print(min(counts))",
    ])))
