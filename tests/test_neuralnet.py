import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import assert_grads_close, numeric_gradient, peak_rss_growth
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
    accuracy,
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
    if s >= k:  # windows disjoint -> indices unique
        gx[flat.ravel()] += grad_out.ravel()
    else:
        np.add.at(gx, flat.ravel(), grad_out.ravel())
    return out, gx.reshape(b, c, h, w)


POOL_GEOMETRIES = [(2, 2, 75, 75), (2, 2, 7, 9), (3, 3, 10, 11), (3, 2, 9, 8), (2, 1, 7, 6)]


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,s,h,w", POOL_GEOMETRIES)
    def test_matches_window_copy_reference(self, k, s, h, w, dtype):
        rng = np.random.default_rng(k * 100 + s * 10 + h)
        x = np.round(rng.standard_normal((2, 3, h, w)) * 2) / 2  # many equal maxima
        x = (x * (x > 0)).astype(dtype)  # relu output: ties among +0.0 and -0.0
        pool = MaxPool2d(k, s)
        out = pool.forward(x)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        grad_in = pool.backward(grad_out)
        ref_out, ref_grad = reference_maxpool(x, k, s, grad_out)
        assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
        assert out.tobytes() == ref_out.tobytes()
        assert grad_in.dtype == ref_grad.dtype and grad_in.shape == ref_grad.shape
        if s >= k:
            assert grad_in.tobytes() == ref_grad.tobytes()
        else:  # overlapping windows: the summation order differs
            atol = 1e-12 if dtype == np.float64 else 1e-5
            np.testing.assert_allclose(grad_in, ref_grad, rtol=0, atol=atol)

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

    def test_linear_init_matches_one_full_draw(self):
        width = neuralnet._INIT_CHUNK // 3 + 1  # two rows per chunk, five rows
        lin = Linear(width, 5, rng=np.random.default_rng(9))
        bound = np.sqrt(6.0 / width)
        full = np.random.default_rng(9).uniform(-bound, bound, size=(5, width))
        assert lin.weight.tobytes() == full.astype(np.float32).tobytes()

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
        mask = (np.random.default_rng(8).random((3, 6)) >= 0.5).astype(np.float64)
        projection = RNG.standard_normal((3, 6))
        drop.forward(x, mask_override=mask)
        grad_in = drop.backward(projection)
        loss = lambda: projected_loss(drop, x, projection, mask_override=mask)
        assert_grads_close(grad_in, numeric_gradient(loss, x))

    def test_invalid_dropout_probability_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


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


def small_config(seed=0, classes=3):
    return reference_config((1, 16, 16), classes, seed=seed)


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
        net.backward(grad)
        assert logits.tobytes() == ref_logits.tobytes()
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
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            net.forward(x, train=True)
            net.backward(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        batch_conv_output = 16 * 16 * 128 * 128 * 4
        assert peak < batch_conv_output / 2


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
        acc = accuracy(net, eval_images, eval_labels)
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "eval_accuracy": acc})
        if acc >= best[1]:
            best = (net.snapshot(), acc)
    net.load_snapshot(best[0])
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
        logits = net.forward(images, train=False)
        loss_before, grad = softmax_cross_entropy(logits, labels)
        net.backward(grad)
        for owner, name in net.param_arrays():
            setattr(owner, name, getattr(owner, name) - 1e-5 * getattr(owner, "grad_" + name))
        loss_after, _ = softmax_cross_entropy(net.forward(images, train=False), labels)
        assert loss_after < loss_before

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(small_config(), np.zeros((0, 1, 16, 16)), np.zeros(0, dtype=int),
                  TrainConfig(epochs=1))

    def test_label_out_of_range_rejected(self):
        images, _ = small_dataset(n=4)
        with pytest.raises(ValueError, match="range"):
            train(small_config(classes=3), images, np.array([0, 1, 2, 3]), TrainConfig(epochs=1))

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
        # the twin's Flatten still holds its input shape, a tuple held_state skips
        assert any(isinstance(layer, Flatten) and layer._cache for layer in kept.layers)

    def test_checkpoint_is_byte_identical_to_the_twin(self, trained_pair):
        net, kept = trained_pair
        assert save_checkpoint(net, ["x", "y", "z"]) == save_checkpoint(kept, ["x", "y", "z"])

    def test_predict_and_accuracy_match_the_twin(self, trained_pair):
        net, kept = trained_pair
        images, labels = small_dataset(seed=5)
        for image in images[:3]:
            label, probs = predict(net, image)
            kept_label, kept_probs = predict(kept, image)
            assert label == kept_label and probs.tobytes() == kept_probs.tobytes()
        assert accuracy(net, images, labels) == accuracy(kept, images, labels)

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


class TestPredict:
    def test_probabilities_sum_to_one(self):
        net = Network(small_config(seed=6))
        _, probs = predict(net, np.random.default_rng(0).random((1, 16, 16), dtype=np.float32))
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_tied_logits_pick_lowest_index_and_uniform_probs(self):
        net = Network(small_config(seed=7))
        final = net.layers[-1]
        final.weight = np.zeros_like(final.weight)
        final.bias = np.zeros_like(final.bias)
        label, probs = predict(net, np.ones((1, 16, 16), dtype=np.float32))
        assert label == 0
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        net = Network(small_config())
        with pytest.raises(ValueError, match="shape"):
            predict(net, np.ones((1, 8, 8), dtype=np.float32))


class TestCheckpoint:
    def test_round_trip_is_bitwise(self):
        images, labels = small_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=8)
        net, _ = train(small_config(seed=8), images, labels, cfg)
        blob = save_checkpoint(net, ["x", "y", "z"])
        restored, names = load_checkpoint(blob)
        assert names == ["x", "y", "z"]
        for a, b in zip(net.snapshot(), restored.snapshot()):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self):
        net = Network(small_config())
        blob = save_checkpoint(net)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(b"XXXX" + blob[4:])

    def test_bad_version_rejected(self):
        net = Network(small_config())
        blob = bytearray(save_checkpoint(net))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bytes(blob))

    def test_truncated_rejected(self):
        net = Network(small_config())
        blob = save_checkpoint(net)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(blob[: len(blob) // 2])

    def test_trailing_garbage_rejected(self):
        net = Network(small_config())
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(save_checkpoint(net) + b"\x00")

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]])
    def test_save_refuses_wrong_class_count(self, names):
        with pytest.raises(ValueError, match="class_names must be 0 or 3 strings"):
            save_checkpoint(Network(small_config()), names)

    def test_bytes_are_pinned(self):
        blob = save_checkpoint(Network(small_config(seed=0)), ["a", "b", "c"])
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
        b"{not json",
    ])
    def test_malformed_header_rejected(self, header):
        blob = save_checkpoint(Network(small_config()))
        (hlen,) = struct.unpack("<I", blob[8:12])
        body = header if isinstance(header, bytes) else json.dumps(header).encode()
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(blob[:8] + struct.pack("<I", len(body)) + body + blob[12 + hlen :])

    def test_load_peak_rss_stays_below_twice_fc1(self, tmp_path):
        net = Network(reference_config((1, 128, 128), 3))
        fc1 = net.layers[11].weight.nbytes
        path = tmp_path / "model.wvdn"
        path.write_bytes(save_checkpoint(net))
        growth = peak_rss_growth(
            "net, _ = load_checkpoint(blob)",
            setup="from pathlib import Path\n"
                  "from wvdnet.neuralnet import load_checkpoint\n"
                  f"blob = Path({str(path)!r}).read_bytes()",
        )
        assert growth < 2 * fc1, f"load_checkpoint grew RSS by {growth / fc1:.2f}x fc1"


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

    def test_final_width_must_match_classes(self):
        config = reference_config((1, 16, 16), 3)
        bad = config.__class__(config.layers, config.input_shape, 4, 0)
        with pytest.raises(ValueError, match="final layer"):
            infer_shapes(bad)
