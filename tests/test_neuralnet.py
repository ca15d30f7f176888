import concurrent.futures
import hashlib
import io
import json
import re
import struct
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from conftest import (FixedDraws, assert_grads_close, checkpoint_bytes, minor_faults,
                      numeric_gradient, peak_rss_growth, run_child, running_max_maxpool,
                      traced_memory)
from numpy.lib.stride_tricks import as_strided

from wvdnet import neuralnet
from wvdnet.neuralnet import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Network,
    NetworkConfig,
    ReLU,
    TrainConfig,
    infer_shapes,
    load_checkpoint,
    predict,
    reference_config,
    save_checkpoint,
    softmax_cross_entropy,
    train,
)

RNG = np.random.default_rng(1234)


def projected_loss(layer, x, projection, **fwd):
    return float((layer.forward(x, **fwd) * projection).sum())


class TestConvForward:
    def test_scalar_affine(self):
        conv = Conv2d(1, 1, 1, dtype=np.float64)
        conv.weight = np.array([[[[2.0]]]])
        conv.bias = np.array([1.0])
        out = conv.forward(np.array([[[[5.0]]]]))
        assert out.item() == pytest.approx(11.0)

    def test_identity_kernel(self):
        conv = Conv2d(1, 1, 3, padding=1, dtype=np.float64)
        conv.weight = np.zeros((1, 1, 3, 3))
        conv.weight[0, 0, 1, 1] = 1.0
        conv.bias = np.zeros(1)
        x = RNG.standard_normal((1, 1, 6, 7))
        np.testing.assert_allclose(conv.forward(x), x)

    def test_overlap_counts_with_ones(self):
        conv = Conv2d(1, 1, 3, padding=1, dtype=np.float64)
        conv.weight = np.ones((1, 1, 3, 3))
        conv.bias = np.zeros(1)
        out = conv.forward(np.ones((1, 1, 3, 3)))[0, 0]
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        np.testing.assert_allclose(out, expected)

    def test_channel_mismatch_rejected(self):
        conv = Conv2d(2, 1, 3, padding=1)
        with pytest.raises(ValueError, match="channels"):
            conv.forward(np.ones((1, 3, 4, 4), dtype=np.float32))

    def test_geometry_mismatch_rejected(self):
        conv = Conv2d(1, 1, 3, stride=2, padding=0)
        with pytest.raises(ValueError, match="geometry"):
            conv.forward(np.ones((1, 1, 4, 4), dtype=np.float32))


class TestConvBackward:
    def test_scalar_weight_gradient(self):
        conv = Conv2d(1, 1, 1, dtype=np.float64)
        conv.weight = np.array([[[[2.0]]]])
        conv.bias = np.array([1.0])
        conv.forward(np.array([[[[5.0]]]]))
        conv.backward(np.array([[[[1.0]]]]))
        assert conv.grad_weight.item() == pytest.approx(5.0)

    def test_bias_gradient_is_spatial_sum(self):
        conv = Conv2d(1, 2, 3, padding=1, dtype=np.float64)
        x = RNG.standard_normal((2, 1, 4, 4))
        grad_out = RNG.standard_normal(conv.forward(x).shape)
        conv.backward(grad_out)
        np.testing.assert_allclose(conv.grad_bias, grad_out.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize(
        "in_ch,out_ch,kernel,stride,padding,h,w",
        [(1, 2, 3, 1, 1, 5, 5), (2, 3, 3, 2, 1, 5, 7), (3, 1, 2, 2, 0, 6, 4)],
    )
    def test_gradients_match_finite_differences(self, in_ch, out_ch, kernel, stride, padding, h, w):
        conv = Conv2d(in_ch, out_ch, kernel, stride, padding, dtype=np.float64,
                      rng=np.random.default_rng(5))
        x = RNG.standard_normal((2, in_ch, h, w))
        projection = RNG.standard_normal(conv.forward(x).shape)
        grad_in = conv.backward(projection)
        loss = lambda: projected_loss(conv, x, projection)
        assert_grads_close(conv.grad_weight, numeric_gradient(loss, conv.weight))
        assert_grads_close(conv.grad_bias, numeric_gradient(loss, conv.bias))
        assert_grads_close(grad_in, numeric_gradient(loss, x))


def reference_conv2d(conv, x, grad_out):
    """Batch im2col conv: one [B, c*kh*kw, hout*wout] column matrix, a
    batched matmul, and the weight gradient summed over the batch axis."""
    b, c, h, w = x.shape
    p, s, kh, kw = conv.padding, conv.stride, conv.kh, conv.kw
    hout = (h + 2 * p - kh) // s + 1
    wout = (w + 2 * p - kw) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    sb, sc, sh, sw = xp.strides
    view = as_strided(xp, shape=(b, c, kh, kw, hout, wout),
                      strides=(sb, sc, sh, sw, sh * s, sw * s))
    cols = np.ascontiguousarray(view).reshape(b, c * kh * kw, hout * wout)
    w2 = conv.weight.reshape(conv.out_ch, -1)
    out = (np.matmul(w2[None], cols) + conv.bias[None, :, None]).reshape(b, -1, hout, wout)
    g2 = grad_out.reshape(b, conv.out_ch, hout * wout)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weight = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(conv.weight.shape)
    gcols = np.matmul(w2.T[None], g2).reshape(b, c, kh, kw, hout, wout)
    gx = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + s * hout : s, j : j + s * wout : s] += gcols[:, :, i, j]
    return out, grad_weight, grad_bias, gx[:, :, p : p + h, p : p + w]


CONV_GEOMETRIES = [  # in_ch, out_ch, kernel, stride, padding, h, w
    (1, 4, 3, 1, 1, 9, 9),
    (3, 5, 3, 2, 1, 9, 9),
    (2, 3, 1, 1, 0, 5, 5),
    (2, 4, 3, 1, 1, 6, 11),
]


class TestConvMatchesBatchIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_ch,out_ch,kernel,stride,padding,h,w", CONV_GEOMETRIES)
    def test_bitwise_equal_to_reference(self, in_ch, out_ch, kernel, stride, padding, h, w, dtype):
        rng = np.random.default_rng(in_ch * 10 + h + w)
        conv = Conv2d(in_ch, out_ch, kernel, stride, padding, dtype=dtype, rng=rng)
        conv.bias = rng.standard_normal(out_ch).astype(dtype)
        x = rng.standard_normal((3, in_ch, h, w)).astype(dtype)
        out = conv.forward(x)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        grad_in = conv.backward(grad_out)
        ref = reference_conv2d(conv, x, grad_out)
        for got, want in zip((out, conv.grad_weight, conv.grad_bias, grad_in), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_without_input_gradient_parameter_gradients_are_unchanged(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 3, 3, 1, 1, rng=rng)
        x = rng.standard_normal((2, 2, 6, 7)).astype(np.float32)
        grad_out = rng.standard_normal(conv.forward(x).shape).astype(np.float32)
        conv.backward(grad_out)
        grads = conv.grad_weight.tobytes(), conv.grad_bias.tobytes()
        assert conv.backward(grad_out, input_grad=False) is None
        assert (conv.grad_weight.tobytes(), conv.grad_bias.tobytes()) == grads


def reference_maxpool(x, k, s, grad_out=None):
    """Window-copy max-pool: copies every k x k window out, takes its argmax
    and scatters the gradient back through flat input indices."""
    b, c, h, w = x.shape
    hout = (h - k) // s + 1
    wout = (w - k) // s + 1
    sb, sc, sh, sw = x.strides
    view = as_strided(x, shape=(b, c, hout, wout, k, k), strides=(sb, sc, sh * s, sw * s, sh, sw))
    windows = np.ascontiguousarray(view).reshape(b, c, hout, wout, k * k)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    if grad_out is None:
        return out, None
    hpos = np.arange(hout)[None, None, :, None] * s + argmax // k
    wpos = np.arange(wout)[None, None, None, :] * s + argmax % k
    bidx = np.arange(b)[:, None, None, None]
    cidx = np.arange(c)[None, :, None, None]
    flat = ((bidx * c + cidx) * h + hpos) * w + wpos
    gx = np.zeros(b * c * h * w, dtype=grad_out.dtype)
    gx[flat.ravel()] += grad_out.ravel()  # windows tile the input: indices unique
    return out, gx.reshape(b, c, h, w)


POOL_GEOMETRIES = [(2, 2, 75, 75), (2, 2, 7, 9), (3, 3, 10, 11), (1, 1, 5, 6), (16, 16, 40, 35)]


class TestMaxPool:
    @pytest.mark.parametrize("index", [True, False])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,s,h,w", POOL_GEOMETRIES)
    def test_matches_window_copy_reference(self, k, s, h, w, dtype, gated, index):
        rng = np.random.default_rng(k * 100 + s * 10 + h)
        x = np.round(rng.standard_normal((2, 3, h, w)) * 2) / 2  # many equal maxima
        x = (x * (x > 0)).astype(dtype)  # relu output: ties among +0.0 and -0.0
        pool = MaxPool2d(k, s)
        pool._cache = earlier = ((2, 3, h, w), None)  # an earlier forward's
        out = pool.forward(x, index=index)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        if gated:  # as ReLU backward passes it: -0.0 where a negative gradient is gated
            grad_out *= rng.random(out.shape) < 0.5
            assert np.signbit(grad_out[grad_out == 0]).any()
        ref_out, ref_grad = reference_maxpool(x, k, s, grad_out)
        assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
        assert out.tobytes() == ref_out.tobytes()
        if not index:  # no index computed, and the earlier forward's state kept
            assert pool._cache is earlier
            return
        grad_in = pool.backward(grad_out)
        assert grad_in.dtype == ref_grad.dtype and grad_in.shape == ref_grad.shape
        assert grad_in.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_bitwise_equal_to_running_max_with_rose_index(self, k, dtype):
        rng = np.random.default_rng(k)
        nan = np.array([np.nan, -np.nan], dtype=dtype)
        bits = nan.view(f"u{nan.itemsize}")
        nans = np.concatenate([nan, (bits | 1).view(dtype), (bits | 2).view(dtype)])
        values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, *nans], dtype=dtype)
        weights = np.array([30, 30, 15, 15, 0.5, 0.5] + [0.1] * len(nans))
        x = rng.choice(values, size=(2, 4, 3 * k + 1, 3 * k + 2), p=weights / weights.sum())
        x[:, 1] = np.minimum(x[:, 1], 0)  # windows whose max is a signed zero
        x[:, 2] = np.where(np.isnan(x[:, 2]), 0, x[:, 2])  # no NaN
        pool = MaxPool2d(k, k)
        out = pool.forward(x)
        want_out, want_which = running_max_maxpool(x, k)
        assert np.isnan(out).any() and not np.isnan(out[:, 2]).any()
        assert out.tobytes() == want_out.tobytes()
        assert pool._cache[1].tobytes() == want_which.tobytes()
        assert pool.forward(x, index=False).tobytes() == out.tobytes()

    # overlapping (stride < kernel) and gapped (stride > kernel) windows
    @pytest.mark.parametrize("k,s", [(3, 2), (2, 1), (2, 3)])
    def test_windows_that_do_not_tile_rejected(self, k, s):
        with pytest.raises(ValueError, match=f"kernel {k}, stride {s}: need both equal"):
            MaxPool2d(k, s)

    @pytest.mark.parametrize("k,s,h,w", POOL_GEOMETRIES)
    def test_nan_anywhere_in_a_window_propagates(self, k, s, h, w):
        rng = np.random.default_rng(7)
        pool = MaxPool2d(k, s)
        for i in range(k):
            for j in range(k):
                x = np.abs(rng.standard_normal((1, 2, h, w)))
                x[0, 1, s + i, s + j] = np.nan  # window (1, 1) of channel 1
                out = pool.forward(x)
                assert np.isnan(out[0, 1, 1, 1])
                np.testing.assert_array_equal(out, reference_maxpool(x, k, s)[0])
                # backward routes a NaN window's gradient to its last tap
                assert pool._cache[1][0, 1, 1, 1] == k * k - 1

    def test_kernel_beyond_tap_index_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            MaxPool2d(17, 17)

    def test_two_by_two(self):
        pool = MaxPool2d(2, 2)
        out = pool.forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.item() == 4.0

    def test_reference_pooling_chain(self):
        config = reference_config((1, 300, 300), 10)
        shapes = infer_shapes(config)
        pooled = [s for s in shapes if len(s) == 3]
        assert (16, 150, 150) in pooled
        assert (32, 75, 75) in pooled
        assert (64, 37, 37) in pooled  # 75 floors to 37
        assert (87616,) in shapes

    def test_tie_break_routes_to_first_in_row_major_scan(self):
        pool = MaxPool2d(2, 2)
        pool.forward(np.ones((1, 1, 2, 2)))
        grad = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_allclose(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_gradient_matches_finite_differences(self):
        pool = MaxPool2d(2, 2)
        x = RNG.standard_normal((2, 3, 6, 6))
        projection = RNG.standard_normal(pool.forward(x).shape)
        grad_in = pool.backward(projection)
        loss = lambda: projected_loss(pool, x, projection)
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            MaxPool2d(4, 4).forward(np.ones((1, 1, 2, 2)))


def parts_of(monkeypatch, cores, chunk=None):
    """Make _fill_uniform and the training pass see `cores` available cores
    and, when given, a smaller chunk, so small layers split into several
    parts."""
    monkeypatch.setattr(neuralnet.os, "sched_getaffinity", lambda pid: set(range(cores)))
    if chunk is not None:
        monkeypatch.setattr(neuralnet, "_INIT_CHUNK", chunk)


class TestSimpleLayers:
    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_gradient(self):
        relu = ReLU()
        x = RNG.standard_normal((3, 7)) + 0.2  # keep clear of the kink
        x[np.abs(x) < 1e-3] = 0.5
        projection = RNG.standard_normal(x.shape)
        relu.forward(x)
        grad_in = relu.backward(projection)
        loss = lambda: projected_loss(relu, x, projection)
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    def test_linear_gradients(self):
        lin = Linear(6, 4, dtype=np.float64, rng=np.random.default_rng(6))
        x = RNG.standard_normal((3, 6))
        projection = RNG.standard_normal((3, 4))
        lin.forward(x)
        grad_in = lin.backward(projection)
        loss = lambda: projected_loss(lin, x, projection)
        assert_grads_close(lin.grad_weight, numeric_gradient(loss, lin.weight))
        assert_grads_close(lin.grad_bias, numeric_gradient(loss, lin.bias))
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    def test_linear_init_matches_one_full_draw(self, monkeypatch):
        parts_of(monkeypatch, 3)
        width = neuralnet._INIT_CHUNK // 3 + 1  # five rows over three parts
        rng, full_rng = np.random.default_rng(9), np.random.default_rng(9)
        lin = Linear(width, 5, rng=rng)
        bound = np.sqrt(6.0 / width)
        full = full_rng.uniform(-bound, bound, size=(5, width))
        assert lin.weight.tobytes() == full.astype(np.float32).tobytes()
        assert rng.bit_generator.state == full_rng.bit_generator.state

    def test_linear_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expects"):
            Linear(6, 4).forward(np.ones((2, 5), dtype=np.float32))

    def test_flatten_round_trip(self):
        flat = Flatten()
        x = RNG.standard_normal((2, 3, 4, 5))
        out = flat.forward(x)
        assert out.shape == (2, 60)
        np.testing.assert_array_equal(flat.backward(out), x)

    def test_dropout_p_zero_is_identity(self):
        drop = Dropout(0.0)
        x = RNG.standard_normal((4, 8))
        np.testing.assert_array_equal(drop.forward(x, train=True), x)
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_dropout_eval_mode_is_identity(self):
        drop = Dropout(0.5)
        x = RNG.standard_normal((4, 8))
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_dropout_train_mode_zeroes_and_rescales(self):
        drop = Dropout(0.25, rng=np.random.default_rng(7))
        x = np.ones((100, 100))
        out = drop.forward(x, train=True)
        zero_fraction = np.mean(out == 0)
        assert abs(zero_fraction - 0.25) < 0.02
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_dropout_gradient_with_frozen_mask(self):
        drop = Dropout(0.5)
        x = RNG.standard_normal((3, 6))
        drop.rng = FixedDraws(np.random.default_rng(8).random((3, 6)))  # mask: draws >= p
        projection = RNG.standard_normal((3, 6))
        drop.forward(x, train=True)
        grad_in = drop.backward(projection)
        loss = lambda: projected_loss(drop, x, projection, train=True)
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    def test_invalid_dropout_probability_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


INIT_CASES = {
    # chunk 1024 throughout: 7 rows of 1000 cover several chunks per part,
    # and 3 and 4 parts do not divide 7 rows
    "rows-over-parts": (lambda rng: Linear(1000, 7, rng=rng), np.random.PCG64),
    "single-row": (lambda rng: Linear(5000, 1, rng=rng), np.random.PCG64),
    "row-over-chunk": (lambda rng: Linear(3000, 5, rng=rng), np.random.PCG64),
    "conv2d": (lambda rng: Conv2d(8, 40, 3, rng=rng), np.random.PCG64),
    "pcg64dxsm": (lambda rng: Linear(1000, 7, rng=rng), np.random.PCG64DXSM),
    "mt19937": (lambda rng: Linear(1000, 7, rng=rng), np.random.MT19937),
    "philox": (lambda rng: Linear(1000, 7, rng=rng), np.random.Philox),
}


class TestWeightInit:
    """Whatever the part count, a layer's weights and its rng's state after
    construction equal those of one sequential rng.uniform draw."""

    @staticmethod
    def assert_matches_sequential(layer, rng, reference_rng):
        bound = np.sqrt(6.0 / np.prod(layer.weight.shape[1:]))
        expected = reference_rng.uniform(-bound, bound, size=layer.weight.shape)
        assert layer.weight.tobytes() == expected.astype(np.float32).tobytes()
        np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", sorted(INIT_CASES))
    def test_matches_sequential_draw(self, monkeypatch, case, cores):
        parts_of(monkeypatch, cores, chunk=1024)
        make, bit_generator = INIT_CASES[case]
        rng = np.random.Generator(bit_generator(17))
        layer = make(rng)
        self.assert_matches_sequential(layer, rng, np.random.Generator(bit_generator(17)))

    def test_buffered_half_draw_survives(self, monkeypatch):
        # a 32-bit draw leaves half of a 64-bit output buffered in the state
        parts_of(monkeypatch, 4, chunk=1024)
        rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        for g in (rng, reference_rng):
            g.integers(0, 10, dtype=np.uint32)
        self.assert_matches_sequential(Linear(1000, 7, rng=rng), rng, reference_rng)

    def test_threads_end_with_construction(self, monkeypatch):
        parts_of(monkeypatch, 4, chunk=1024)
        before = threading.active_count()
        Linear(1000, 7, rng=np.random.default_rng(0))
        assert threading.active_count() == before

    def test_every_part_runs_on_a_thread_of_its_own(self, monkeypatch):
        # a pool hands a part to any idle thread: with each submit slowed,
        # one pool thread ran parts 1-3
        submit = concurrent.futures.ThreadPoolExecutor.submit

        def slow_submit(pool, *args, **kwargs):
            future = submit(pool, *args, **kwargs)
            time.sleep(0.05)
            return future

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", slow_submit)
        ran = {}
        neuralnet._in_parts(4, lambda k: ran.setdefault(k, threading.current_thread()))
        caller = threading.current_thread()
        assert ran[0] is caller
        others = [ran[k] for k in (1, 2, 3)]
        assert caller not in others and len(set(others)) == 3

    def test_part_exception_reaches_caller(self, monkeypatch):
        parts_of(monkeypatch, 4, chunk=1024)

        class Failing(np.random.Generator):
            def random(self, *args, **kwargs):
                raise RuntimeError("draw failed")

        rng = np.random.default_rng(0)
        monkeypatch.setattr(np.random, "Generator", Failing)  # the pool parts' streams
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            Linear(1000, 7, rng=rng)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 4])
    def test_float64_scratch_stays_within_one_chunk(self, monkeypatch, cores):
        parts_of(monkeypatch, cores)
        width = 2 * neuralnet._INIT_CHUNK + 3
        _, peak = traced_memory(lambda: Linear(width, 3, rng=np.random.default_rng(1)))
        # besides the float32 weight and the float64 buffers: threads and
        # stream copies
        scratch = peak - 3 * width * 4 - (64 << 10)
        assert scratch <= 8 * neuralnet._INIT_CHUNK, f"{scratch} bytes of scratch"


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        loss, _ = softmax_cross_entropy(np.zeros(10), 3)
        assert loss == pytest.approx(np.log(10.0))

    def test_extreme_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        logits = RNG.standard_normal(7)
        _, grad = softmax_cross_entropy(logits, 2)
        numeric = numeric_gradient(lambda: softmax_cross_entropy(logits, 2)[0], logits)
        assert np.abs(grad - numeric).max() < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(np.zeros(3), 3)

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]])
    def test_batch_label_out_of_range_rejected(self, labels):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))

    def test_batch_version_averages(self):
        logits = RNG.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        singles = [softmax_cross_entropy(logits[i], labels[i]) for i in range(4)]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]))
        np.testing.assert_allclose(grad, np.stack([s[1] for s in singles]) / 4, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sample_is_its_batch_of_one(self, dtype):
        logits = RNG.standard_normal(6).astype(dtype)
        loss, grad = softmax_cross_entropy(logits, 5)
        batch_loss, batch_grad = softmax_cross_entropy(logits[None], np.array([5]))
        assert loss == batch_loss
        assert grad.shape == logits.shape and grad.dtype == dtype
        assert grad.tobytes() == batch_grad.tobytes()

    def test_gradient_keeps_the_logits_dtype(self):
        logits = RNG.standard_normal((3, 4)).astype(np.float32)
        _, grad = softmax_cross_entropy(logits, np.array([0, 1, 3]))
        assert grad.dtype == np.float32 and grad.shape == (3, 4)
        _, grad = softmax_cross_entropy([0, 0, 0], 1)  # integer logits count as float64
        assert grad.dtype == np.float64
        np.testing.assert_allclose(grad, [1 / 3, -2 / 3, 1 / 3])

    def test_label_count_must_match_batch(self):
        with pytest.raises(ValueError, match="labels for"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))

    def test_column_of_labels_rejected(self):
        # (B, 1) labels broadcast against the batch's rows into a (B, B) loss
        with pytest.raises(ValueError, match=r"labels for 2 rows of logits must have shape "
                                             r"\(2,\), got \(2, 1\)"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([[0], [1]]))


def small_config(seed=0, classes=3):
    return reference_config((1, 16, 16), classes, seed=seed)


def resized(network, index, field, value):
    """The network dict with its layer index's field set to value."""
    network["layers"][index][field] = value
    return network


def small_dataset(n=12, classes=3, seed=1):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 1, 16, 16), dtype=np.float32)
    labels = np.arange(n) % classes
    return images, labels


def spec_order_pass(net, x, grad_logits, train):
    """Forward and backward through net.layers in config order (each ReLU
    before its pool); returns the logits and copies of the parameter gradients."""
    x = np.asarray(x, dtype=net.dtype)
    for layer in net.layers:
        x = layer.forward(x, train=train)
    g = grad_logits
    for layer in reversed(net.layers):
        g = layer.backward(g)
    return x, [getattr(owner, "grad_" + name).copy() for owner, name in net.param_arrays()]


class TestNetworkPasses:
    def test_layers_stay_in_config_order(self):
        config = small_config()
        kinds = {"Conv2d": "conv2d", "ReLU": "relu", "MaxPool2d": "maxpool2d",
                 "Flatten": "flatten", "Dropout": "dropout", "Linear": "linear"}
        net = Network(config)
        assert [kinds[type(layer).__name__] for layer in net.layers] == [
            spec["type"] for spec in config.layers]

    @pytest.mark.parametrize("batch", [1, 4, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train_mode", [False, True])
    def test_relu_after_pool_is_bitwise_equal_to_config_order(self, dtype, train_mode, batch):
        net = Network(small_config(seed=11), dtype=dtype)
        rng = np.random.default_rng(12)
        for owner, name in net.param_arrays():
            if name == "bias":  # biases of both signs: tied windows above and below zero
                setattr(owner, name, (0.1 * rng.standard_normal(owner.bias.shape)).astype(dtype))
        x = np.round(rng.standard_normal((batch, 1, 16, 16)) * 2) / 2
        x[:, :, :8] = 0.0  # flat rows: conv outputs there equal the bias
        grad = rng.standard_normal((batch, 3)).astype(dtype)
        masks = net.rng.bit_generator.state  # replay the same dropout masks
        ref_logits, ref_grads = spec_order_pass(net, x, grad, train_mode)
        net.rng.bit_generator.state = masks
        logits = net.forward(x, train=train_mode)
        assert logits.tobytes() == ref_logits.tobytes()
        if not train_mode:  # a scoring forward keeps nothing to run backward from
            with pytest.raises(ValueError, match="needs a train=True forward"):
                net.backward(grad)
            return
        net.backward(grad)
        for (owner, name), ref in zip(net.param_arrays(), ref_grads):
            assert getattr(owner, "grad_" + name).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_mixed_conv_blocks_are_bitwise_equal_to_config_order(self, dtype, batch):
        # conv -> relu -> conv -> relu -> pool: the first ReLU precedes no
        # pool; then a conv block without a ReLU before the head
        def conv(c, o, p):
            return {"type": "conv2d", "in_ch": c, "out_ch": o, "kernel": 3, "stride": 1,
                    "padding": p}

        pool = {"type": "maxpool2d", "kernel": 2, "stride": 2}
        config = NetworkConfig(
            layers=(conv(2, 3, 1), {"type": "relu"}, conv(3, 4, 1), {"type": "relu"}, pool,
                    conv(4, 5, 0), pool, {"type": "flatten"},
                    {"type": "linear", "in_features": 20, "out_features": 3}),
            input_shape=(2, 14, 12), num_classes=3, seed=13)
        net = Network(config, dtype=dtype)
        rng = np.random.default_rng(14)
        for owner, name in net.param_arrays():
            if name == "bias":
                setattr(owner, name, (0.1 * rng.standard_normal(owner.bias.shape)).astype(dtype))
        x = np.round(rng.standard_normal((batch, 2, 14, 12)) * 2) / 2
        x[:, :, :5] = 0.0
        grad = rng.standard_normal((batch, 3)).astype(dtype)
        ref_logits, ref_grads = spec_order_pass(net, x, grad, train=True)
        logits = net.forward(x, train=True)
        net.backward(grad)
        assert logits.tobytes() == ref_logits.tobytes()
        for (owner, name), ref in zip(net.param_arrays(), ref_grads):
            assert getattr(owner, "grad_" + name).tobytes() == ref.tobytes()

    def test_train_step_holds_one_sample_conv_output(self):
        config = NetworkConfig(
            layers=({"type": "conv2d", "in_ch": 1, "out_ch": 16, "kernel": 3, "stride": 1,
                     "padding": 1},
                    {"type": "relu"}, {"type": "maxpool2d", "kernel": 8, "stride": 8},
                    {"type": "flatten"}, {"type": "linear", "in_features": 4096, "out_features": 3}),
            input_shape=(1, 128, 128), num_classes=3)
        net = Network(config)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((16, 1, 128, 128)).astype(np.float32)
        grad = rng.standard_normal((16, 3)).astype(np.float32)

        def step():
            net.forward(x, train=True)
            net.backward(grad)

        _, peak = traced_memory(step)
        batch_conv_output = 16 * 16 * 128 * 128 * 4
        assert peak < batch_conv_output / 2

    def test_backward_forms_no_linear_weight_gradient(self):
        # a backward that formed the whole gradient allocated one weight-sized array
        config = NetworkConfig(
            layers=({"type": "flatten"},
                    {"type": "linear", "in_features": 4096, "out_features": 500},
                    {"type": "relu"}, {"type": "linear", "in_features": 500, "out_features": 3}),
            input_shape=(1, 64, 64), num_classes=3, seed=17)
        net = Network(config)
        rng = np.random.default_rng(17)
        net.forward(rng.random((4, 1, 64, 64), dtype=np.float32), train=True)
        grad = rng.standard_normal((4, 3)).astype(np.float32)
        _, peak = traced_memory(lambda: net.backward(grad))
        fc1 = net.layers[1]
        weight_bytes = fc1.weight.nbytes
        assert peak < weight_bytes, f"{peak / 1e6:.1f} MB peak"
        step = neuralnet._UPDATE_ROWS
        blocks = [fc1.weight_grad(slice(start, start + step)) for start in range(0, 500, step)]
        assert fc1.grad_weight.tobytes() == np.concatenate(blocks).tobytes()

    def test_scoring_forward_keeps_no_backward_state(self):
        # batch 32 at 1x300x300: a scoring forward that kept each sample's
        # padded conv inputs, tap indices and relu masks, and fc1's input,
        # left 134.8 MB behind and peaked at 150.4 MB
        net = Network(reference_config((1, 300, 300), 10))
        x = np.random.default_rng(16).random((32, 1, 300, 300), dtype=np.float32)
        current, peak = traced_memory(lambda: net.forward(x, train=False))
        assert current < 1e6, f"{current / 1e6:.1f} MB left behind"
        assert peak < 40e6, f"{peak / 1e6:.1f} MB peak"
        assert net._caches is None
        assert all(layer._cache is None for layer in net.layers)

    def test_backward_needs_a_training_forward(self):
        images, labels = small_dataset(n=4)
        net = Network(small_config())
        grad = softmax_cross_entropy(net.forward(images, train=True), labels)[1]
        net.forward(images)  # a scoring forward drops what the training one kept
        with pytest.raises(ValueError, match="needs a train=True forward"):
            net.backward(grad)
        net.forward(images, train=True)
        net.drop_state()
        with pytest.raises(ValueError, match="needs a train=True forward"):
            net.backward(grad)
        with pytest.raises(ValueError, match="needs a train=True forward"):
            Network(small_config()).backward(grad)


def reference_train(config, images, labels, cfg, eval_images, eval_labels):
    """SGD with momentum as a fresh-array update per step, snapshotting every
    epoch that ties or beats the best eval accuracy and restoring the last
    such snapshot at the end."""
    net = Network(config, dtype=np.float32)
    shuffle_rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(getattr(owner, name)) for owner, name in net.param_arrays()]
    history, best = [], (None, -1.0)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(images))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = softmax_cross_entropy(net.forward(images[batch], train=True),
                                               labels[batch])
            net.backward(grad)
            losses.append(loss)
            for vel, (owner, name) in zip(velocity, net.param_arrays()):
                vel *= cfg.momentum
                vel -= cfg.learning_rate * getattr(owner, "grad_" + name)
                setattr(owner, name, getattr(owner, name) + vel)
        acc = int((predict(net, eval_images)[0] == eval_labels).sum()) / len(eval_images)
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "eval_accuracy": acc})
        if acc >= best[1]:
            best = (net.snapshot(), acc)
    for (owner, name), arr in zip(net.param_arrays(), best[0]):
        setattr(owner, name, arr)
    return net, history


class TestTraining:
    # seed 1 scores best after epoch 1, so train() restores that snapshot;
    # seed 2 scores best after epoch 2 and keeps the final weights
    @pytest.mark.parametrize("seed,restores", [(1, True), (2, False)])
    def test_in_place_update_matches_fresh_array_loop(self, seed, restores):
        rng = np.random.default_rng(seed)
        images = rng.random((16, 1, 16, 16), dtype=np.float32)
        labels = np.arange(16) % 3
        data = (images[:12], labels[:12])
        held_out = (images[12:], labels[12:])
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=seed)
        net, history = train(small_config(seed=seed), *data, cfg, *held_out)
        ref_net, ref_history = reference_train(small_config(seed=seed), *data, cfg, *held_out)
        assert history == ref_history
        assert (history[0]["eval_accuracy"] > history[1]["eval_accuracy"]) == restores
        for a, b in zip(net.snapshot(), ref_net.snapshot()):
            assert a.tobytes() == b.tobytes()

    def test_blocked_update_matches_full_gradient_steps(self, monkeypatch):
        # fc1 has 37 rows: two whole blocks of 16 and a short one
        config = NetworkConfig(
            layers=({"type": "conv2d", "in_ch": 1, "out_ch": 4, "kernel": 3, "stride": 1,
                     "padding": 1},
                    {"type": "relu"}, {"type": "maxpool2d", "kernel": 2, "stride": 2},
                    {"type": "flatten"}, {"type": "dropout", "p": 0.25},
                    {"type": "linear", "in_features": 256, "out_features": 37}, {"type": "relu"},
                    {"type": "linear", "in_features": 37, "out_features": 3}),
            input_shape=(1, 16, 16), num_classes=3, seed=6)
        images, labels = small_dataset(n=8)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.05, momentum=0.9, seed=6)
        formed = []
        weight_grad = Linear.weight_grad

        def recording(layer, *args, **kwargs):
            grad = weight_grad(layer, *args, **kwargs)
            formed.append(len(grad))
            return grad

        monkeypatch.setattr(Linear, "weight_grad", recording)
        net, _ = train(config, images, labels, cfg)
        monkeypatch.undo()
        assert max(formed) == neuralnet._UPDATE_ROWS and 37 % neuralnet._UPDATE_ROWS

        ref = Network(config)  # the same weights and dropout stream
        velocity = [np.zeros_like(getattr(owner, name)) for owner, name in ref.param_arrays()]
        order = np.random.default_rng(cfg.seed).permutation(len(images))
        for batch in (order[:4], order[4:]):
            logits = ref.forward(images[batch], train=True)
            ref.backward(softmax_cross_entropy(logits, labels[batch])[1])
            for vel, (owner, name) in zip(velocity, ref.param_arrays()):
                vel *= cfg.momentum
                vel -= cfg.learning_rate * getattr(owner, "grad_" + name)
                setattr(owner, name, getattr(owner, name) + vel)
        assert ref.layers[5].weight.dtype == np.float32
        for a, b in zip(net.snapshot(), ref.snapshot()):
            assert a.tobytes() == b.tobytes()

    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        images, labels = small_dataset()
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.0, seed=2)
        net, _ = train(small_config(seed=2), images, labels, cfg)
        untouched = Network(small_config(seed=2), dtype=np.float32)
        for a, b in zip(net.snapshot(), untouched.snapshot()):
            np.testing.assert_array_equal(a, b)

    def test_single_example_memorization(self):
        images, labels = small_dataset(n=1, classes=3)
        cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=0.01, momentum=0.9, seed=3)
        _, history = train(small_config(seed=3), images, labels[:1], cfg)
        assert history[-1]["train_loss"] < 0.01

    def test_fixed_seed_gives_bitwise_identical_runs(self):
        images, labels = small_dataset()
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, seed=4)
        net1, hist1 = train(small_config(seed=4), images, labels, cfg, images, labels)
        net2, hist2 = train(small_config(seed=4), images, labels, cfg, images, labels)
        assert hist1 == hist2
        for a, b in zip(net1.snapshot(), net2.snapshot()):
            np.testing.assert_array_equal(a, b)

    def test_single_step_decreases_batch_loss(self):
        # double precision so a 1e-5 step is visible above round-off
        net = Network(small_config(seed=5), dtype=np.float64)
        images, labels = small_dataset(n=8)
        images = images.astype(np.float64)
        masks = net.rng.bit_generator.state  # the second forward replays the dropout masks
        logits = net.forward(images, train=True)
        loss_before, grad = softmax_cross_entropy(logits, labels)
        net.backward(grad)
        for owner, name in net.param_arrays():
            setattr(owner, name, getattr(owner, name) - 1e-5 * getattr(owner, "grad_" + name))
        net.rng.bit_generator.state = masks
        loss_after, _ = softmax_cross_entropy(net.forward(images, train=True), labels)
        assert loss_after < loss_before

    def test_diverged_run_raises(self):
        # without the check, loss and weights came back NaN and predict gave class 0
        rng = np.random.default_rng(0)
        images = rng.random((24, 1, 40, 40), dtype=np.float32)
        labels = np.arange(24) % 3
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"diverged: batch loss (nan|inf) at epoch \d, "
                                                 r"step \d, learning rate 10000\.0"):
                train(reference_config((1, 40, 40), 3), images, labels, cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(small_config(), np.zeros((0, 1, 16, 16)), np.zeros(0, dtype=int),
                  TrainConfig(epochs=1))

    def test_label_out_of_range_rejected(self):
        images, _ = small_dataset(n=4)
        with pytest.raises(ValueError, match="range"):
            train(small_config(classes=3), images, np.array([0, 1, 2, 3]), TrainConfig(epochs=1))

    # without the checks, four eval images and no labels scored 0.0 each
    # epoch, one label broadcast (0.25), and label 7 scored 0.0
    @pytest.mark.parametrize("eval_images, eval_labels, match", [
        (4, None, "together"),
        (None, [0, 1, 2, 0], "together"),
        (4, [1], "count mismatch"),
        (4, 1, "count mismatch"),
        (4, [0, 1, 7, 2], "range"),
        (4, [0, -1, 2, 1], "range"),
    ], ids=["no-labels", "no-images", "one-label", "scalar-label", "label-7", "label-minus-1"])
    def test_eval_set_checked(self, eval_images, eval_labels, match):
        images, labels = small_dataset(n=8, classes=3)
        if eval_images is not None:
            eval_images = images[:eval_images]
        with pytest.raises(ValueError, match=match):
            train(small_config(classes=3), images, labels, TrainConfig(epochs=1),
                  eval_images, eval_labels)

    # without the shape rule, (6, 1) training labels trained on a broadcast
    # (B, B) loss: epoch loss 2.061 at batch 2, against 1.506 for the 1-D labels
    @pytest.mark.parametrize("which", ["training", "eval"])
    def test_column_of_labels_rejected(self, which):
        images, labels = small_dataset(n=6)
        train_labels = labels[:, None] if which == "training" else labels
        eval_labels = labels[:, None] if which == "eval" else labels
        with pytest.raises(ValueError, match=rf"{which} image/label count mismatch: labels of "
                                             r"shape \(6, 1\) for 6 images"):
            train(small_config(), images, train_labels, TrainConfig(epochs=1, batch_size=2),
                  images, eval_labels)

    # cast to int64, training labels + 0.7 trained as the labels, and eval
    # labels + 0.5 scored 0.0 every epoch
    @pytest.mark.parametrize("which", ["training", "eval"])
    def test_float_labels_rejected(self, which):
        images, labels = small_dataset(n=6)
        train_labels = labels + 0.7 if which == "training" else labels
        eval_labels = labels + 0.5 if which == "eval" else labels
        with pytest.raises(ValueError, match=rf"{which} labels are float64, need integers"):
            train(small_config(), images, train_labels, TrainConfig(epochs=1, batch_size=2),
                  images, eval_labels)

    def test_training_hands_the_free_heap_back(self, monkeypatch):
        # perfbench train-300's peak comes after train() returns: it read
        # 853-900 MB without the trim, on the heap the passes had freed
        trims = []
        monkeypatch.setattr(neuralnet, "_malloc_trim", lambda: trims.append)
        images, labels = small_dataset(n=4)
        train(small_config(), images, labels, TrainConfig(epochs=1, batch_size=4))
        assert trims == [0]

    @pytest.mark.parametrize("epochs", [3, 4])
    def test_best_epoch_snapshot_is_held_once(self, epochs):
        # A learning rate of 0 keeps every epoch's eval accuracy, so every
        # epoch but the last takes a snapshot. Taking one while the last was
        # still held peaked at 4.02x the parameter bytes; one at a time
        # (weights, velocity, snapshot and a pass's state) peaks at 3.34x.
        config = reference_config((1, 64, 64), 3)
        images, labels = np.random.default_rng(0).random((4, 1, 64, 64), np.float32), [0, 1, 2, 0]
        cfg = TrainConfig(epochs=epochs, batch_size=4, learning_rate=0.0, seed=0)
        _, peak = traced_memory(lambda: train(config, images, labels, cfg, images, labels))
        net = Network(config, draw=False)
        param_bytes = sum(getattr(owner, name).nbytes for owner, name in net.param_arrays())
        assert peak < 3.75 * param_bytes

    def test_mis_shaped_eval_set_raises_before_any_step(self, monkeypatch):
        # checked only by epoch 1's eval, the eval set's shape cost a whole epoch first
        steps = []
        backward = Network.backward
        monkeypatch.setattr(Network, "backward",
                            lambda *args, **kwargs: steps.append(1) or backward(*args, **kwargs))
        images, labels = small_dataset(n=8)
        eval_images = np.zeros((4, 1, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match=r"eval images are \(1, 8, 8\), network expects "
                                             r"\(1, 16, 16\)"):
            train(small_config(), images, labels, TrainConfig(epochs=1, batch_size=4),
                  eval_images, labels[:4])
        assert steps == []

    def test_wrong_image_shape_rejected(self):
        with pytest.raises(ValueError):
            train(small_config(), np.zeros((2, 1, 8, 8)), np.zeros(2, dtype=int),
                  TrainConfig(epochs=1))

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, momentum=1.0)
        for rate in (np.nan, np.inf):  # train once returned such a run's NaN weights
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainConfig(epochs=1, learning_rate=rate)


def openblas_threads():
    """numpy's OpenBLAS thread-count functions (get, set); skips the test
    where numpy bundles none."""
    blas = neuralnet._blas_threads()
    if blas is None:
        pytest.skip("needs the OpenBLAS that numpy wheels bundle")
    return blas


def conv_threads(monkeypatch):
    """A dict, filled from here on, of the thread that runs each first-layer
    Conv2d forward, by the first pixel of its one-sample input."""
    seen = {}
    forward = Conv2d.forward

    def recording(layer, x, train=False):
        if layer.in_ch == 1:
            seen[float(x[0, 0, 0, 0])] = threading.get_ident()
        return forward(layer, x, train)

    monkeypatch.setattr(Conv2d, "forward", recording)
    return seen


def train_step_grads(net, images, labels):
    """The bytes of every parameter gradient after one training pass."""
    net.backward(softmax_cross_entropy(net.forward(images, train=True), labels)[1])
    return [getattr(owner, "grad_" + name).tobytes() for owner, name in net.param_arrays()]


class TestTrainingThreads:
    @pytest.mark.parametrize("config", [small_config(seed=21),
                                        reference_config((1, 48, 48), 3, seed=22)],
                             ids=["16x16", "48x48"])
    def test_same_bits_on_any_core_count(self, monkeypatch, config):
        # batches of 5 split unevenly over 2 and 3 workers; a short switch
        # interval interleaves the workers' writes of per-sample state
        rng = np.random.default_rng(23)
        images = rng.random((14, *config.input_shape), dtype=np.float32)
        labels = np.arange(14) % 3
        cfg = TrainConfig(epochs=2, batch_size=5, learning_rate=0.05, seed=24)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cores in (1, 2, 3):
                parts_of(monkeypatch, cores)
                net, history = train(config, images[:10], labels[:10], cfg, images[10:],
                                     labels[10:])
                runs.append((history, [weight.tobytes() for weight in net.snapshot()]))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_worker_k_runs_samples_k_plus_multiples_of_w(self, monkeypatch):
        openblas_threads()
        parts_of(monkeypatch, 3)
        images, labels = small_dataset(n=7)
        images[:, 0, 0, 0] = np.arange(7)  # tells the samples apart
        net = Network(small_config(seed=25))
        threads = conv_threads(monkeypatch)
        train_step_grads(net, images, labels)
        caller = threading.get_ident()
        assert [n for n in range(7) if threads[n] == caller] == [0, 3, 6]
        assert threads[1] == threads[4] != caller
        assert threads[2] == threads[5] != caller

    def test_without_openblas_the_pass_is_serial(self, monkeypatch):
        parts_of(monkeypatch, 3)
        images, labels = small_dataset(n=7)
        images[:, 0, 0, 0] = np.arange(7)
        nets = Network(small_config(seed=25)), Network(small_config(seed=25))
        threaded = train_step_grads(nets[0], images, labels)
        monkeypatch.setattr(neuralnet, "_blas_threads", lambda: None)

        def no_thread(*args, **kwargs):
            raise AssertionError("the pass started a thread")

        monkeypatch.setattr(neuralnet, "Thread", no_thread)
        threads = conv_threads(monkeypatch)
        assert train_step_grads(nets[1], images, labels) == threaded
        assert threads == dict.fromkeys(range(7), threading.get_ident())

    def test_blas_thread_count_restored(self, monkeypatch):
        get, put = openblas_threads()
        before = get()
        put(3)  # a count other than the pass's one thread
        caller = get()
        try:
            parts_of(monkeypatch, 2)
            images, labels = small_dataset(n=4)
            train(small_config(), images, labels, TrainConfig(epochs=1, batch_size=4))
            assert get() == caller
            forward = Conv2d.forward
            during, failed_on = [], []

            def failing(layer, x, train=False):
                during.append(get())
                if x.shape[1] == 1 and x[0, 0, 0, 0] == 7:  # conv1 on sample 1
                    failed_on.append(threading.get_ident())
                    raise RuntimeError("sample 1 failed")
                return forward(layer, x, train)

            monkeypatch.setattr(Conv2d, "forward", failing)
            images[1, 0, 0, 0] = 7
            net, started = Network(small_config()), threading.active_count()
            with pytest.raises(RuntimeError, match="sample 1 failed"):
                net.forward(images, train=True)
            assert failed_on and failed_on[0] != threading.get_ident()
            assert set(during) == {1}
            assert get() == caller
            assert threading.active_count() == started
        finally:
            put(before)

    def test_conv_weight_gradients_do_not_depend_on_blas_threads(self):
        # Before the passes held BLAS at one thread, conv2's and conv3's
        # weight gradients changed bits between one BLAS thread and two. The
        # blocks feed the logits directly: the reference head's fc1 input
        # gradient changes bits with the thread count itself.
        openblas_threads()
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from wvdnet.neuralnet import (Conv2d, Network, NetworkConfig, reference_config,
                                          softmax_cross_entropy)
            blocks = reference_config((1, 300, 300), 10).layers[:10]  # through flatten
            logits = {"type": "linear", "in_features": 87616, "out_features": 10}
            net = Network(NetworkConfig(layers=blocks + (logits,), input_shape=(1, 300, 300),
                                        num_classes=10, seed=26))
            x = np.random.default_rng(27).random((2, 1, 300, 300), dtype=np.float32)
            net.backward(softmax_cross_entropy(net.forward(x, train=True), [3, 7])[1])
            convs = [layer for layer in net.layers if isinstance(layer, Conv2d)]
            print(hashlib.sha256(b"".join(conv.grad_weight.tobytes() for conv in convs)).hexdigest())
        """)
        assert run_child(code, blas_threads=1) == run_child(code, blas_threads=2)


def held_state(net):
    """Where a network or its layers hold an array other than a parameter."""
    params = {id(getattr(owner, name)) for owner, name in net.param_arrays()}
    found = []

    def walk(value, where):
        if isinstance(value, np.ndarray):
            if id(value) not in params:
                found.append(where)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]")

    for attr, value in vars(net).items():
        walk(value, f"net.{attr}")
    for i, layer in enumerate(net.layers):
        for attr, value in vars(layer).items():
            walk(value, f"layers[{i}].{attr}")
    return found


@pytest.fixture
def trained_pair(monkeypatch):
    """A trained network, and its twin trained the same way by a train()
    whose network keeps its gradients and backward state."""
    images, labels = small_dataset()
    cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-2, seed=9)

    def run():
        return train(small_config(seed=9), images, labels, cfg, images[:4], labels[:4])[0]

    net = run()
    with monkeypatch.context() as patch:
        patch.setattr(Network, "drop_state", lambda self: None, raising=False)
        kept = run()
    return net, kept


class TestTrainedNetwork:
    """train() hands back the weights only, and every later use still works."""

    def test_holds_no_gradient_or_backward_state(self, trained_pair):
        net, kept = trained_pair
        assert held_state(net) == []
        assert held_state(kept)  # the twin does hold them

    def test_every_layer_cache_and_gradient_is_dropped(self, trained_pair):
        net, kept = trained_pair
        for layer in net.layers:
            assert layer._cache is None, type(layer).__name__
            for name in layer.params:
                assert getattr(layer, "grad_" + name) is None
        # the twin, whose drop_state did nothing, still holds its last step's gradients
        assert all(layer.grad_bias is not None for layer in kept.layers if layer.params)

    def test_checkpoint_is_byte_identical_to_the_twin(self, trained_pair):
        net, kept = trained_pair
        assert checkpoint_bytes(net, ["x", "y", "z"]) == checkpoint_bytes(kept, ["x", "y", "z"])

    def test_predict_matches_the_twin(self, trained_pair):
        net, kept = trained_pair
        images, _ = small_dataset(seed=5)
        labels, probs = predict(net, images)
        kept_labels, kept_probs = predict(kept, images)
        assert labels.tolist() == kept_labels.tolist()
        assert probs.tobytes() == kept_probs.tobytes()

    def test_forward_and_backward_refill_the_gradients(self, trained_pair):
        images, labels = small_dataset(n=4, seed=6)
        grads = []
        for net in trained_pair:
            logits = net.forward(images, train=True)
            net.backward(softmax_cross_entropy(logits, labels)[1])
            grads.append([getattr(owner, "grad_" + name) for owner, name in net.param_arrays()])
        for (owner, name), got, want in zip(trained_pair[0].param_arrays(), *grads):
            assert got.shape == getattr(owner, name).shape
            np.testing.assert_array_equal(got, want)

    def test_later_steps_do_not_raise_the_peak(self):
        # Each step's gradients are dropped after its update; a step that
        # still held the last one would add a second fc1-sized gradient.
        setup = """
            import numpy as np
            from wvdnet.neuralnet import TrainConfig, reference_config, train
            images = np.random.default_rng(0).random((12, 1, 128, 128), dtype=np.float32)
            labels = np.arange(12) % 3
        """
        growth = [
            peak_rss_growth(
                f"train(reference_config((1, 128, 128), 3), images[:{n}], labels[:{n}], "
                "TrainConfig(epochs=1, batch_size=4))",
                setup=setup,
            )
            for n in (4, 12)
        ]
        fc1 = 64 * 16 * 16 * 500 * 4
        assert growth[1] - growth[0] < fc1 / 2, f"steps 2-3 added {growth[1] - growth[0]} bytes"


    def test_steady_state_step_faults_in_no_fc1_sized_gradient(self):
        # Steps 2-3 of a call at 300x300, batch 4, after a first call. An
        # fc1 gradient formed whole is 42,781 fresh pages every step: with
        # it a step faulted 79.1-79.2K times, without it 33.9-34.1K (5 runs
        # each); what is left is the conv blocks' per-sample arrays.
        setup = """
            import numpy as np
            from wvdnet.neuralnet import TrainConfig, reference_config, train
            images = np.random.default_rng(0).random((12, 1, 300, 300), dtype=np.float32)
            labels = np.arange(12) % 10

            def steps(n):
                train(reference_config((1, 300, 300), 10), images[: 4 * n], labels[: 4 * n],
                      TrainConfig(epochs=1, batch_size=4))

            steps(1)
        """
        faults = [minor_faults(f"steps({n})", setup) for n in (1, 3)]
        per_step = (faults[1] - faults[0]) / 2
        assert per_step < 45_000, f"{per_step:.0f} minor faults per further step"


class TestPredict:
    def test_rows_are_the_softmax_of_each_32_image_batch(self):
        # 40 images: a batch of 32, then one of 8
        net = Network(small_config(seed=6))
        images, _ = small_dataset(n=40, seed=2)
        labels, probs = predict(net, images)
        assert labels.shape == (40,) and probs.shape == (40, 3) and probs.dtype == np.float64
        logits = np.concatenate([net.forward(images[:32]), net.forward(images[32:])])
        for row, label, got in zip(logits, labels, probs):
            row = row.astype(np.float64)
            want = np.exp(row - row.max())
            want /= want.sum()
            assert label == row.argmax() and got.tobytes() == want.tobytes()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_tied_logits_pick_lowest_index_and_uniform_probs(self):
        net = Network(small_config(seed=7))
        final = net.layers[-1]
        final.weight = np.zeros_like(final.weight)
        final.bias = np.zeros_like(final.bias)
        labels, probs = predict(net, np.ones((2, 1, 16, 16), dtype=np.float32))
        assert labels.tolist() == [0, 0]
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-9)

    def test_empty_batch_gives_empty_arrays(self):
        labels, probs = predict(Network(small_config()), np.ones((0, 1, 16, 16), np.float32))
        assert labels.shape == (0,) and probs.shape == (0, 3)

    # a single image without its batch axis is a shape mismatch too
    @pytest.mark.parametrize("shape, seen", [((1, 1, 8, 8), (1, 8, 8)), ((1, 16, 16), (16, 16))])
    def test_shape_mismatch_rejected(self, shape, seen):
        net = Network(small_config())
        with pytest.raises(ValueError, match=rf"input shape {re.escape(str(seen))} does not "
                                             r"match network input \(1, 16, 16\)"):
            predict(net, np.ones(shape, dtype=np.float32))

    def test_scoring_pools_compute_no_tap_index(self):
        net = Network(reference_config((1, 24, 24), 3, seed=9))
        images = np.random.default_rng(9).standard_normal((5, 1, 24, 24)).astype(np.float32)
        pools = [layer for layer in net.layers if isinstance(layer, MaxPool2d)]
        calls = []
        for pool in pools:  # a per-instance wrapper, as perfbench's tracer sets
            def traced(x, forward=pool.forward, pool=pool, **kwargs):
                calls.append((pool, kwargs.get("index", True)))
                return forward(x, **kwargs)

            pool.forward = traced
        labels, probs = predict(net, images)
        assert calls == [(pool, False) for _ in range(5) for pool in pools]
        for pool in pools:  # the same pass with each pool's index computed
            pool.forward = lambda x, pool=pool, **kwargs: MaxPool2d.forward(pool, x, index=True)
        forced = predict(net, images)
        assert labels.tobytes() == forced[0].tobytes() and probs.tobytes() == forced[1].tobytes()

    def test_non_finite_logits_rejected(self):
        # argmax reads NaN logits as class 0
        net = Network(small_config(seed=8))
        net.layers[-1].weight[1, 0] = np.nan
        images, _ = small_dataset(n=3)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite logits"):
                predict(net, images)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self):
        images, labels = small_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=8)
        net, _ = train(small_config(seed=8), images, labels, cfg)
        blob = checkpoint_bytes(net, ["x", "y", "z"])
        restored, names = load_checkpoint(io.BytesIO(blob))
        assert names == ["x", "y", "z"]
        for a, b in zip(net.snapshot(), restored.snapshot()):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self):
        net = Network(small_config())
        blob = checkpoint_bytes(net)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(io.BytesIO(b"XXXX" + blob[4:]))

    def test_bad_version_rejected(self):
        net = Network(small_config())
        blob = bytearray(checkpoint_bytes(net))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(io.BytesIO(blob))

    def test_truncated_rejected(self):
        net = Network(small_config())
        blob = checkpoint_bytes(net)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(io.BytesIO(blob[: len(blob) // 2]))

    def test_trailing_garbage_rejected(self):
        net = Network(small_config())
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(io.BytesIO(checkpoint_bytes(net) + b"\x00"))

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]])
    def test_save_refuses_wrong_class_count(self, names):
        buffer = io.BytesIO()
        with pytest.raises(ValueError, match="class_names must be 0 or 3 strings"):
            save_checkpoint(Network(small_config()), buffer, names)
        assert buffer.getvalue() == b""  # refused before a byte is written

    def test_bytes_are_pinned(self):
        blob = checkpoint_bytes(Network(small_config(seed=0)), ["a", "b", "c"])
        assert hashlib.sha256(blob).hexdigest() == (
            "da9c4ada169b4b87fb101e4ba2d89d8dc8301a4281d26fbc6c6136d7b5b668fd"
        )

    @pytest.mark.parametrize("header", [
        [],
        "network",
        {},
        {"class_names": ["x"]},
        {"network": []},
        {"network": {}},
        {"network": {"layers": [{"type": "conv2d"}], "input_shape": [1, 16, 16],
                     "num_classes": 3, "seed": 0}},
        {"network": small_config().to_dict(), "class_names": 5},
        {"network": small_config().to_dict(), "class_names": "xyz"},
        {"network": small_config().to_dict(), "class_names": ["x"]},
        {"network": small_config().to_dict(), "class_names": [1, 2, 3]},
        {"network": {**small_config().to_dict(), "seed": "abc"}},
        {"network": {**small_config().to_dict(), "num_classes": 4}},
        {"network": {**small_config().to_dict(), "layers": []}},
        # weights of 1 PB and more, which no allocation can give: a width
        # that does not chain, and widths that do
        {"network": resized(small_config().to_dict(), 11, "in_features", 10**12)},
        {"network": resized(resized(small_config().to_dict(), 11, "out_features", 10**12), 14,
                            "in_features", 10**12)},
        b"{not json",
    ])
    def test_malformed_header_rejected(self, header):
        blob = checkpoint_bytes(Network(small_config()))
        (hlen,) = struct.unpack("<I", blob[8:12])
        body = header if isinstance(header, bytes) else json.dumps(header).encode()
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(io.BytesIO(blob[:8] + struct.pack("<I", len(body)) + body
                                       + blob[12 + hlen :]))

    # small_config's layers: 0 conv, 2 pool, 3 conv, 5 pool, 6 conv, 8 pool, 11 and 14 linear
    @pytest.mark.parametrize("index,field,value", [
        (0, "stride", 0),
        (0, "kernel", 0),
        (0, "padding", -1),
        (0, "in_ch", 0),
        (3, "out_ch", 0),
        (2, "stride", 0),
        (5, "kernel", -2),
        (11, "in_features", 0),
        (14, "out_features", 0),
    ])
    def test_non_positive_layer_size_rejected(self, index, field, value):
        network = small_config().to_dict()
        network["layers"][index][field] = value
        body = json.dumps({"network": network}).encode()
        blob = checkpoint_bytes(Network(small_config()))
        (hlen,) = struct.unpack("<I", blob[8:12])
        with pytest.raises(ValueError, match=f"malformed checkpoint header.*layer {index}: "
                                             f".* {field} must be >="):
            load_checkpoint(io.BytesIO(blob[:8] + struct.pack("<I", len(body)) + body
                                       + blob[12 + hlen :]))

    def test_load_draws_no_weights_and_keeps_the_stream(self, monkeypatch):
        net = Network(small_config(seed=3))
        blob = checkpoint_bytes(net)

        def refuse(*args):
            raise AssertionError("load_checkpoint drew weights it then overwrites")

        monkeypatch.setattr(neuralnet, "_fill_uniform", refuse)
        restored, _ = load_checkpoint(io.BytesIO(blob))
        for a, b in zip(net.snapshot(), restored.snapshot()):
            assert a.tobytes() == b.tobytes()
        assert restored.rng.bit_generator.state == net.rng.bit_generator.state

    # small_config's parameters: layers 0, 3 and 6 (conv), 11 and 14 (linear)
    @pytest.mark.parametrize("index,name,value", [
        (0, "weight", np.nan), (11, "weight", np.nan), (11, "bias", np.inf), (14, "bias", -np.inf),
    ])
    def test_non_finite_tensor_in_checkpoint_rejected(self, index, name, value):
        net = Network(small_config())
        blob = bytearray(checkpoint_bytes(net))
        (hlen,) = struct.unpack("<I", blob[8:12])
        pos = 12 + hlen + 4  # past the header and the tensor count
        for owner, param in net.param_arrays():
            tensor = getattr(owner, param)
            pos += 4 + 4 * tensor.ndim  # past the rank and shape
            if owner is net.layers[index] and param == name:
                blob[pos + 8 : pos + 12] = struct.pack("<f", value)  # its third value
                break
            pos += tensor.nbytes
        with pytest.raises(ValueError, match=f"checkpoint tensor layer {index} {name} holds an "
                                             "inf or NaN"):
            load_checkpoint(io.BytesIO(blob))

    def test_save_refuses_non_finite_weight(self):
        net = Network(small_config())
        net.layers[11].weight[3, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite network: layer 11 weight holds"):
            checkpoint_bytes(net)

    @pytest.mark.parametrize("field,what", [("header length", "header"),
                                            ("tensor rank", "tensor shape")])
    def test_huge_length_field_raises_before_it_sizes_a_read(self, field, what):
        blob = bytearray(checkpoint_bytes(Network(small_config())))
        (hlen,) = struct.unpack("<I", blob[8:12])
        pos = 8 if field == "header length" else 12 + hlen + 4  # the first tensor's rank
        blob[pos : pos + 4] = struct.pack("<I", 0xFFFFFFFF)
        handle = io.BytesIO(blob)

        def load():
            with pytest.raises(ValueError, match=f"truncated checkpoint while reading {what}$"):
                load_checkpoint(handle)

        _, peak = traced_memory(load)
        assert peak < 1 << 20, f"a {field} of 0xFFFFFFFF drove a {peak} byte allocation"

    def test_load_peak_rss_holds_the_weights_once(self, tmp_path):
        net = Network(reference_config((1, 128, 128), 3))
        weights = sum(getattr(owner, name).nbytes for owner, name in net.param_arrays())
        path = tmp_path / "model.wvdn"
        path.write_bytes(checkpoint_bytes(net))
        growth = peak_rss_growth(
            f"with open({str(path)!r}, 'rb') as handle:\n"
            "    net, _ = load_checkpoint(handle)",
            setup="from wvdnet.neuralnet import load_checkpoint",
        )
        assert growth < 1.25 * weights, f"load_checkpoint grew RSS by {growth / weights:.2f}x"

    def test_save_peak_rss_adds_no_copy_of_the_weights(self, tmp_path):
        net = Network(reference_config((1, 128, 128), 3))
        weights = sum(getattr(owner, name).nbytes for owner, name in net.param_arrays())
        path = tmp_path / "model.wvdn"
        growth = peak_rss_growth(
            f"with open({str(path)!r}, 'wb') as handle:\n"
            "    save_checkpoint(net, handle)",
            setup="from wvdnet.neuralnet import Network, reference_config, save_checkpoint\n"
                  "net = Network(reference_config((1, 128, 128), 3))",
        )
        assert growth < 0.25 * weights, f"save_checkpoint grew RSS by {growth / weights:.2f}x"
        assert path.read_bytes() == checkpoint_bytes(net)


CONV = {"type": "conv2d", "in_ch": 1, "out_ch": 4, "kernel": 3, "stride": 1, "padding": 1}
POOL4 = {"type": "maxpool2d", "kernel": 4, "stride": 4}


class TestConfigValidation:
    def test_inconsistent_linear_width_rejected(self):
        config = reference_config((1, 16, 16), 3)
        layers = [dict(spec) for spec in config.layers]
        for spec in layers:
            if spec["type"] == "linear" and spec["in_features"] != 500:
                spec["in_features"] = 999
        bad = config.__class__(tuple(layers), config.input_shape, 3, 0)
        with pytest.raises(ValueError, match="width"):
            infer_shapes(bad)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_pool_stride_other_than_kernel_rejected(self, stride):
        network = small_config().to_dict()
        network["layers"][2]["stride"] = stride
        with pytest.raises(ValueError, match=f"layer 2: pool kernel 2, stride {stride}: need both "
                                             "equal"):
            infer_shapes(NetworkConfig.from_dict(network))

    # each case: layer specs and input shape, the index of the layer that
    # cannot take its input, that layer on its own and the input it gets
    @pytest.mark.parametrize("specs,input_shape,index,layer,x_shape", [
        pytest.param([CONV], (2, 8, 8), 0, Conv2d(1, 4, 3, 1, 1), (2, 8, 8), id="conv-channels"),
        pytest.param([{"type": "relu"}, {**CONV, "stride": 2, "padding": 0}], (1, 8, 8), 1,
                     Conv2d(1, 4, 3, 2, 0), (1, 8, 8), id="conv-geometry"),
        pytest.param([CONV, POOL4, POOL4], (1, 8, 8), 2, MaxPool2d(4, 4), (4, 2, 2),
                     id="pool-window"),
        pytest.param([{"type": "flatten"}, {"type": "linear", "in_features": 10, "out_features": 3}],
                     (1, 4, 4), 1, Linear(10, 3), (16,), id="linear-width"),
    ])
    def test_chain_error_is_the_layer_forward_error(self, specs, input_shape, index, layer,
                                                    x_shape):
        with pytest.raises(ValueError) as chained:
            infer_shapes(NetworkConfig(tuple(specs), input_shape, 3))
        with pytest.raises(ValueError) as direct:
            layer.forward(np.zeros((2, *x_shape), dtype=np.float32))
        assert str(chained.value) == f"layer {index}: {direct.value}"

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            infer_shapes(NetworkConfig((), (3,), 3))

    def test_final_width_must_match_classes(self):
        config = reference_config((1, 16, 16), 3)
        bad = config.__class__(config.layers, config.input_shape, 4, 0)
        with pytest.raises(ValueError, match="final layer"):
            infer_shapes(bad)
