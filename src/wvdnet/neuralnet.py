"""Dense tensor layers with hand-written forward/backward passes.

Tensors are plain numpy arrays (shape + row-major buffer). Layers operate on
batches [B, ...]; every backward is the exact gradient of its forward and is
checked against central finite differences in the test suite. Training runs
in single precision by default; the same code paths run in double precision
for the gradient checks.

The reference classifier is three 3x3 conv blocks (16, 32, 64 channels, each
followed by relu and 2x2 max-pooling), then flatten, dropout, a 500-unit
hidden layer with relu and dropout, and the class logits. On a 1x300x300
input the flatten width is 87,616.

Every layer reads the same way: `params` names the arrays whose gradients
backward leaves in `grad_<param>` (none for the layers without weights), and
`_cache` holds what backward needs from the last forward.

Network runs its conv blocks, the leading run of Conv2d, ReLU and MaxPool2d
layers, one sample at a time: each sample goes through every block before
the next sample starts, so only one sample's conv output, and in backward
only one sample's conv-output gradient, exists at a time. Block layers keep
their per-sample state in `_cache`, which Network saves after each sample's
forward and puts back before its backward: the padded input (Conv2d), the
uint8 tap index (MaxPool2d) or the mask (ReLU). The layers from the first
Flatten, Dropout or Linear on run on the whole batch; dropout draws one mask
per batch. Backward runs that head at batch size, then the blocks in reverse
for samples 0..B-1, and each block layer with params adds up its samples'
parameter gradients in that order, as Conv2d.backward does within a batch,
so both give the same bits. Conv2d
builds im2col columns one sample at a time, and the SGD update scales the
gradient, the velocity and the weights in place.

Within the blocks, a ReLU that directly precedes a MaxPool2d runs after that
pool, on a quarter of the elements. That is exact because relu is monotone:
relu(max(w)) = max(relu(w)) for every window w, and when the max is positive
it sits at the same first-match tap either way. A window whose max is <= 0
outputs zero and passes zero gradient in both orders; only the sign of such
intermediate zeros can differ, and a signed zero leaves every sum it joins
unchanged unless that sum is itself zero.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_MAGIC = b"WVDN"
CHECKPOINT_VERSION = 1
_INIT_CHUNK = 1 << 20  # float64 draws per chunk of Linear's weight init


# -- layer implementations ---------------------------------------------------


class Layer:
    """What Network reads of every layer: the names of the parameters whose
    gradients backward leaves in grad_<param>, and _cache, the state forward
    keeps for backward."""

    params = ()
    _cache = None


class Conv2d(Layer):
    """2D cross-correlation with zero padding, one sample at a time: each
    sample's im2col columns go into one reused (c*kh*kw, hout*wout)
    workspace that feeds a single matmul. Forward caches only the padded
    input; backward rebuilds each sample's columns from it."""

    params = ("weight", "bias")

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, dtype=np.float32, rng=None):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kh, self.kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
        self.stride = stride
        self.padding = padding
        fan_in = in_ch * self.kh * self.kw
        bound = np.sqrt(6.0 / fan_in)  # kaiming-uniform, relu gain
        if rng is None:
            rng = np.random.default_rng(0)
        self.weight = rng.uniform(-bound, bound, size=(out_ch, in_ch, self.kh, self.kw)).astype(dtype)
        self.bias = np.zeros(out_ch, dtype=dtype)

    def _pad(self, x):
        """Check the geometry; returns the zero-padded input and hout, wout."""
        _, c, h, w = x.shape
        p, s = self.padding, self.stride
        if c != self.in_ch:
            raise ValueError(f"expected {self.in_ch} input channels, got {c}")
        hout, rem_h = divmod(h + 2 * p - self.kh, s)
        wout, rem_w = divmod(w + 2 * p - self.kw, s)
        hout += 1
        wout += 1
        if rem_h or rem_w or hout < 1 or wout < 1:
            raise ValueError(
                f"conv geometry mismatch: input {h}x{w}, kernel {self.kh}x{self.kw}, "
                f"stride {s}, padding {p}"
            )
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        return xp, hout, wout

    def _columns(self, sample, hout, wout, cols):
        """Fill cols [c*kh*kw, hout*wout] with one padded sample's windows."""
        s = self.stride
        sc, sh, sw = sample.strides
        shape = (sample.shape[0], self.kh, self.kw, hout, wout)
        np.copyto(cols.reshape(shape),
                  as_strided(sample, shape=shape, strides=(sc, sh, sw, sh * s, sw * s)))

    def forward(self, x, train=False):
        xp, hout, wout = self._pad(x)
        w2 = self.weight.reshape(self.out_ch, -1)
        cols = np.empty((w2.shape[1], hout * wout), dtype=xp.dtype)
        out = np.empty((len(xp), self.out_ch, hout * wout), dtype=np.result_type(w2, cols))
        for n, sample in enumerate(xp):
            self._columns(sample, hout, wout, cols)
            np.matmul(w2, cols, out=out[n])
        out += self.bias[:, None]
        self._cache = (x.shape, xp)
        return out.reshape(len(xp), self.out_ch, hout, wout)

    def backward(self, grad_out, input_grad=True):
        """Parameter gradients, plus the input gradient unless input_grad is
        false. grad_weight sums the samples' products in batch order."""
        x_shape, xp = self._cache
        b, c, h, w = x_shape
        p, s = self.padding, self.stride
        _, _, hout, wout = grad_out.shape
        g2 = grad_out.reshape(b, self.out_ch, hout * wout)
        self.grad_bias = grad_out.sum(axis=(0, 2, 3))
        w2 = self.weight.reshape(self.out_ch, -1)
        cols = np.empty((w2.shape[1], hout * wout), dtype=xp.dtype)
        gw = np.empty(w2.shape, dtype=np.result_type(g2, cols))
        term = np.empty_like(gw)
        if input_grad:
            gcols = np.empty(cols.shape, dtype=np.result_type(w2, g2))
            gx = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
        for n, sample in enumerate(xp):
            self._columns(sample, hout, wout, cols)
            if n:
                gw += np.matmul(g2[n], cols.T, out=term)
            else:
                np.matmul(g2[0], cols.T, out=gw)
            if input_grad:
                np.matmul(w2.T, g2[n], out=gcols)
                taps = gcols.reshape(c, self.kh, self.kw, hout, wout)
                for i in range(self.kh):
                    for j in range(self.kw):
                        gx[n, :, i : i + s * hout : s, j : j + s * wout : s] += taps[:, i, j]
        self.grad_weight = gw.reshape(self.weight.shape)
        if not input_grad:
            return None
        return gx[:, :, p : p + h, p : p + w] if p else gx


class MaxPool2d(Layer):
    """Per-window max with floor-mode output size; a NaN anywhere in a window
    makes that output NaN. Ties go to the first element in the window's
    row-major scan, and backward keeps one uint8 index of that tap per output."""

    def __init__(self, kernel=2, stride=2):
        if not 1 <= kernel <= 16:  # the tap index is one byte: k*k <= 256
            raise ValueError(f"pooling kernel must be in [1, 16], got {kernel}")
        self.kernel = kernel
        self.stride = stride

    def _taps(self, x, hout, wout):
        """One strided view of x per window position, each shaped like the output."""
        k, s = self.kernel, self.stride
        rows, cols = s * (hout - 1) + 1, s * (wout - 1) + 1
        return [x[:, :, i : i + rows : s, j : j + cols : s] for i in range(k) for j in range(k)]

    def forward(self, x, train=False):
        b, c, h, w = x.shape
        k, s = self.kernel, self.stride
        if h < k or w < k:
            raise ValueError(f"input {h}x{w} smaller than pooling window {k}x{k}")
        taps = self._taps(x, (h - k) // s + 1, (w - k) // s + 1)
        out = taps[0].copy()
        for tap in taps[1:]:
            # np.maximum returns its second operand on a tie, so the running
            # max keeps the first tap's bits when +0.0 and -0.0 tie
            np.maximum(tap, out, out=out)
        # first-match tap index = number of leading taps that miss the max
        miss = taps[0] != out
        which = miss.view(np.uint8).copy()
        for tap in taps[1:-1]:
            miss &= tap != out
            which += miss.view(np.uint8)
        self._cache = (x.shape, which)
        return out

    def backward(self, grad_out):
        x_shape, which = self._cache
        gx = np.zeros(x_shape, dtype=grad_out.dtype)
        for q, tap in enumerate(self._taps(gx, *which.shape[2:])):
            tap += grad_out * (which == q)
        return gx


class ReLU(Layer):
    def forward(self, x, train=False):
        self._cache = x > 0
        return x * self._cache

    def backward(self, grad_out):
        return grad_out * self._cache


class Dropout(Layer):
    """Inverted dropout: each activation is zeroed with probability p at train
    time and survivors scale by 1/(1-p); eval mode is the identity."""

    def __init__(self, p, rng=None):
        if not 0 <= p < 1:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x, train=False, mask_override=None):
        mask = mask_override
        if mask is None and train and self.p > 0:
            mask = (self.rng.random(x.shape) >= self.p).astype(x.dtype)
        self._cache = mask
        return x if mask is None else x * mask / (1.0 - self.p)

    def backward(self, grad_out):
        mask = self._cache
        return grad_out if mask is None else grad_out * mask / (1.0 - self.p)


class Flatten(Layer):
    def forward(self, x, train=False):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._cache)


class Linear(Layer):
    params = ("weight", "bias")

    def __init__(self, in_features, out_features, dtype=np.float32, rng=None):
        self.in_features = in_features
        self.out_features = out_features
        bound = np.sqrt(6.0 / in_features)
        if rng is None:
            rng = np.random.default_rng(0)
        # Row chunks of float64 draws, cast as they land: the same stream and
        # values as one full-size draw, without its float64 temporary.
        self.weight = np.empty((out_features, in_features), dtype=dtype)
        rows = max(1, _INIT_CHUNK // in_features)
        for start in range(0, out_features, rows):
            block = self.weight[start : start + rows]
            block[...] = rng.uniform(-bound, bound, size=block.shape)
        self.bias = np.zeros(out_features, dtype=dtype)

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"linear layer expects [batch, {self.in_features}], got {x.shape}"
            )
        self._cache = x
        return x @ self.weight.T + self.bias

    def backward(self, grad_out, input_grad=True):
        self.grad_weight = grad_out.T @ self._cache
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight if input_grad else None


def softmax_cross_entropy(logits, labels):
    """Mean loss over a batch ([B, K] logits, B labels) or one sample ([K]
    logits, one label), and the gradient of that mean, (softmax - onehot) / B,
    in the logits' dtype and shape. Integer logits count as float64."""
    logits = np.asarray(logits)
    if logits.dtype.kind != "f":
        logits = logits.astype(np.float64)
    z = np.atleast_2d(logits).astype(np.float64)
    labels = np.atleast_1d(labels)
    b, k = z.shape
    if len(labels) != b:
        raise ValueError(f"{len(labels)} labels for {b} rows of logits")
    bad = labels[(labels < 0) | (labels >= k)]
    if len(bad):
        raise ValueError(f"label {bad[0]} out of range for {k} classes")
    rows = np.arange(b)
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    losses = logsumexp[:, 0] - shifted[rows, labels]
    grad = np.exp(shifted - logsumexp)
    grad[rows, labels] -= 1.0
    return float(losses.mean()), (grad / b).astype(logits.dtype).reshape(logits.shape)


# -- network assembly --------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered layer specs plus the input geometry and the seed that fixes
    weight init, shuffling, and dropout masks."""

    layers: tuple
    input_shape: tuple
    num_classes: int
    seed: int = 0

    def to_dict(self):
        return {
            "layers": [dict(spec) for spec in self.layers],
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d):
        return NetworkConfig(
            layers=tuple(dict(spec) for spec in d["layers"]),
            input_shape=tuple(d["input_shape"]),
            num_classes=int(d["num_classes"]),
            seed=int(d["seed"]),
        )


def reference_config(input_shape=(1, 300, 300), num_classes=10, seed=0) -> NetworkConfig:
    """The standard classifier for single-channel time-frequency images."""
    c, h, w = input_shape
    rows, cols = h, w
    for _ in range(3):
        rows, cols = rows // 2, cols // 2  # conv is size-preserving; pool floors
    flat = 64 * rows * cols
    layers = (
        {"type": "conv2d", "in_ch": c, "out_ch": 16, "kernel": 3, "stride": 1, "padding": 1},
        {"type": "relu"},
        {"type": "maxpool2d", "kernel": 2, "stride": 2},
        {"type": "conv2d", "in_ch": 16, "out_ch": 32, "kernel": 3, "stride": 1, "padding": 1},
        {"type": "relu"},
        {"type": "maxpool2d", "kernel": 2, "stride": 2},
        {"type": "conv2d", "in_ch": 32, "out_ch": 64, "kernel": 3, "stride": 1, "padding": 1},
        {"type": "relu"},
        {"type": "maxpool2d", "kernel": 2, "stride": 2},
        {"type": "flatten"},
        {"type": "dropout", "p": 0.25},
        {"type": "linear", "in_features": flat, "out_features": 500},
        {"type": "relu"},
        {"type": "dropout", "p": 0.25},
        {"type": "linear", "in_features": 500, "out_features": num_classes},
    )
    return NetworkConfig(layers=layers, input_shape=tuple(input_shape), num_classes=num_classes, seed=seed)


def infer_shapes(config: NetworkConfig):
    """Walk the layer specs, checking that shapes chain from the input to the
    class logits; returns the per-layer output shapes."""
    shape = tuple(config.input_shape)
    shapes = []
    for i, spec in enumerate(config.layers):
        kind = spec["type"]
        if kind == "conv2d":
            c, h, w = shape
            if c != spec["in_ch"]:
                raise ValueError(f"layer {i}: conv expects {spec['in_ch']} channels, got {c}")
            k, s, p = spec["kernel"], spec["stride"], spec["padding"]
            h2, rh = divmod(h + 2 * p - k, s)
            w2, rw = divmod(w + 2 * p - k, s)
            if rh or rw or h2 < 0 or w2 < 0:
                raise ValueError(f"layer {i}: conv geometry mismatch on {shape}")
            shape = (spec["out_ch"], h2 + 1, w2 + 1)
        elif kind == "maxpool2d":
            c, h, w = shape
            k, s = spec["kernel"], spec["stride"]
            if h < k or w < k:
                raise ValueError(f"layer {i}: pool window {k} exceeds input {shape}")
            shape = (c, (h - k) // s + 1, (w - k) // s + 1)
        elif kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif kind == "linear":
            if len(shape) != 1 or shape[0] != spec["in_features"]:
                raise ValueError(
                    f"layer {i}: linear expects width {spec['in_features']}, got {shape}"
                )
            shape = (spec["out_features"],)
        elif kind in ("relu", "dropout"):
            pass
        else:
            raise ValueError(f"layer {i}: unknown layer type {kind!r}")
        shapes.append(shape)
    if shapes[-1] != (config.num_classes,):
        raise ValueError(
            f"final layer produces {shapes[-1]}, expected ({config.num_classes},)"
        )
    return shapes


def _backward(layer, grad_out, first):
    """One layer's backward. The network's first layer computes no input
    gradient, and a first layer without parameters is skipped."""
    if not first:
        return layer.backward(grad_out)
    if layer.params:
        layer.backward(grad_out, input_grad=False)
    return None


class Network:
    """Instantiated layers plus the RNG stream that owns dropout masks."""

    def __init__(self, config: NetworkConfig, dtype=np.float32):
        infer_shapes(config)
        self.config = config
        self.dtype = dtype
        self.rng = np.random.default_rng(config.seed)
        self.layers = []  # in config order
        for spec in config.layers:
            kind = spec["type"]
            if kind == "conv2d":
                self.layers.append(
                    Conv2d(
                        spec["in_ch"], spec["out_ch"], spec["kernel"],
                        spec["stride"], spec["padding"], dtype=dtype, rng=self.rng,
                    )
                )
            elif kind == "maxpool2d":
                self.layers.append(MaxPool2d(spec["kernel"], spec["stride"]))
            elif kind == "relu":
                self.layers.append(ReLU())
            elif kind == "dropout":
                self.layers.append(Dropout(spec["p"], rng=self.rng))
            elif kind == "flatten":
                self.layers.append(Flatten())
            elif kind == "linear":
                self.layers.append(
                    Linear(spec["in_features"], spec["out_features"], dtype=dtype, rng=self.rng)
                )
        # The conv blocks in run order: a ReLU that directly precedes a
        # MaxPool2d runs after it.
        self._blocks = []
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, (Conv2d, ReLU, MaxPool2d)):
                break
            if i and isinstance(layer, MaxPool2d) and isinstance(self.layers[i - 1], ReLU):
                self._blocks.insert(-1, layer)
            else:
                self._blocks.append(layer)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 3:
            x = x[None]
        if x.shape[1:] != tuple(self.config.input_shape):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network input "
                f"{tuple(self.config.input_shape)}"
            )
        if self._blocks:
            # per block layer, each sample's backward state
            self._caches = [[None] * len(x) for _ in self._blocks]
            outputs = []
            for n in range(len(x)):
                h = x[n : n + 1]
                for layer, caches in zip(self._blocks, self._caches):
                    h = layer.forward(h, train=train)
                    caches[n] = layer._cache
                outputs.append(h)
            x = np.concatenate(outputs)
        for layer in self.layers[len(self._blocks) :]:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_logits):
        """Fill every layer's parameter gradients. The network's input
        gradient is never read, so the first layer does not compute it."""
        head = self.layers[len(self._blocks) :]
        first = (self._blocks or head)[0]
        g = grad_logits
        for layer in reversed(head):
            g = _backward(layer, g, layer is first)
        sums = {}  # block layer -> its parameter gradients summed over samples so far
        for n in range(len(g) if self._blocks else 0):
            h = g[n : n + 1]
            for layer, caches in zip(reversed(self._blocks), reversed(self._caches)):
                layer._cache = caches[n]
                h = _backward(layer, h, layer is first)
                grads = [getattr(layer, "grad_" + name) for name in layer.params]
                if n:
                    for total, grad in zip(sums[layer], grads):
                        total += grad
                else:
                    sums[layer] = grads
        for layer, grads in sums.items():
            for name, grad in zip(layer.params, grads):
                setattr(layer, "grad_" + name, grad)

    def drop_state(self):
        """Drop every layer's gradients and the last pass's backward state,
        keeping only the weights. A later forward and backward refill them."""
        self._caches = None
        for layer in self.layers:
            # gradients first: under glibc malloc the other order leaves the
            # freed state resident and raised train-300's peak RSS by 100 MB
            for name in layer.params:
                setattr(layer, "grad_" + name, None)
            layer._cache = None

    def param_arrays(self):
        """(layer, name) of every parameter, in layer order."""
        return [(layer, name) for layer in self.layers for name in layer.params]

    def snapshot(self):
        return [getattr(owner, name).copy() for owner, name in self.param_arrays()]

    def load_snapshot(self, arrays):
        params = self.param_arrays()
        if len(arrays) != len(params):
            raise ValueError("snapshot parameter count mismatch")
        for (owner, name), arr in zip(params, arrays):
            if getattr(owner, name).shape != arr.shape:
                raise ValueError("snapshot parameter shape mismatch")
            setattr(owner, name, arr.copy())


def predict(net: Network, image):
    """Eval-mode class index and probability vector for a single image."""
    image = np.asarray(image)
    if image.shape != tuple(net.config.input_shape):
        raise ValueError(
            f"image shape {image.shape} does not match network input "
            f"{tuple(net.config.input_shape)}"
        )
    logits = net.forward(image[None], train=False)[0].astype(np.float64)
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    return int(np.argmax(logits)), probs


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def predict_labels(net: Network, images) -> np.ndarray:
    """Eval-mode class index for each image, scored in batches of 32."""
    labels = np.empty(len(images), dtype=int)
    for start in range(0, len(images), 32):
        logits = net.forward(images[start : start + 32], train=False)
        labels[start : start + 32] = logits.argmax(axis=1)
    return labels


def accuracy(net: Network, images, labels) -> float:
    if len(images) == 0:
        raise ValueError("cannot score an empty evaluation set")
    return int((predict_labels(net, images) == labels).sum()) / len(images)


def train(
    config: NetworkConfig,
    train_images,
    train_labels,
    cfg: TrainConfig,
    eval_images=None,
    eval_labels=None,
):
    """Mini-batch SGD with momentum; fully deterministic given the seeds.

    Returns the network restored to its best-eval-accuracy snapshot (ties go
    to the later epoch; the final state when there is no eval set) and the
    per-epoch history of train loss and eval accuracy. The network comes back
    with its weights only: no gradients and no backward state from the last
    pass, which a later forward and backward would rebuild.
    """
    train_images = np.asarray(train_images, dtype=np.float32)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if len(train_images) == 0:
        raise ValueError("training set is empty")
    if len(train_images) != len(train_labels):
        raise ValueError("image/label count mismatch")
    if train_images.shape[1:] != tuple(config.input_shape):
        raise ValueError(
            f"dataset images are {train_images.shape[1:]}, network expects "
            f"{tuple(config.input_shape)}"
        )
    if train_labels.min() < 0 or train_labels.max() >= config.num_classes:
        raise ValueError("labels out of range for the configured class count")

    net = Network(config, dtype=np.float32)
    shuffle_rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(getattr(owner, name)) for owner, name in net.param_arrays()]
    history = []
    best, best_accuracy = None, -1.0

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_images))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            logits = net.forward(train_images[batch], train=True)
            loss, grad = softmax_cross_entropy(logits, train_labels[batch])
            net.backward(grad)
            losses.append(loss)
            for vel, (owner, name) in zip(velocity, net.param_arrays()):
                param, grad_arr = getattr(owner, name), getattr(owner, "grad_" + name)
                grad_arr *= cfg.learning_rate  # in place: not read again this step
                vel *= cfg.momentum
                vel -= grad_arr
                param += vel
            # spent: without this, the next backward would hold two of each gradient
            net.drop_state()
        row = {"epoch": epoch, "train_loss": float(np.mean(losses)), "eval_accuracy": None}
        if eval_images is not None and len(eval_images):
            row["eval_accuracy"] = accuracy(net, eval_images, eval_labels)
            if row["eval_accuracy"] >= best_accuracy:
                best_accuracy = row["eval_accuracy"]
                # the last epoch's weights are already in place
                best = net.snapshot() if epoch < cfg.epochs else None
        history.append(row)

    if best is not None:
        net.load_snapshot(best)
    net.drop_state()
    return net, history


# -- checkpoint format -------------------------------------------------------


def _names_fit(class_names, num_classes: int) -> bool:
    """A checkpoint's class names: a list of str naming none or every class."""
    return (isinstance(class_names, list) and len(class_names) in (0, num_classes)
            and all(isinstance(name, str) for name in class_names))


def save_checkpoint(net: Network, class_names=None) -> bytes:
    """Versioned binary: magic, version, JSON header, float32 LE tensors.
    Each tensor's buffer is joined in once, without an intermediate copy."""
    class_names = list(class_names or [])
    if not _names_fit(class_names, net.config.num_classes):
        raise ValueError(f"class_names must be 0 or {net.config.num_classes} strings")
    header = {"network": net.config.to_dict(), "class_names": class_names}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    params = net.param_arrays()
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)),
        header_bytes,
        struct.pack("<I", len(params)),
    ]
    for owner, name in params:
        arr = np.ascontiguousarray(getattr(owner, name), dtype="<f4")
        parts.append(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        parts.append(memoryview(arr).cast("B"))
    return b"".join(parts)


def load_checkpoint(blob: bytes):
    """Rebuild a Network from checkpoint bytes; returns (net, class_names).
    Tensors are read through views of the blob and copied straight into the
    new network's arrays."""
    view = memoryview(blob)
    pos = 0

    def read(n, what):
        nonlocal pos
        if pos + n > len(view):
            raise ValueError(f"truncated checkpoint while reading {what}")
        pos += n
        return view[pos - n : pos]

    if read(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", read(4, "header length"))
    header_bytes = bytes(read(hlen, "header"))
    try:  # undecodable JSON, a missing or mistyped entry, or layers that do not chain
        header = json.loads(header_bytes)
        net = Network(NetworkConfig.from_dict(header["network"]), dtype=np.float32)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint header: {type(exc).__name__} {exc}") from None
    class_names = header.get("class_names", [])
    if not _names_fit(class_names, net.config.num_classes):
        raise ValueError(
            f"malformed checkpoint header: 'class_names' is not 0 or "
            f"{net.config.num_classes} strings"
        )
    params = net.param_arrays()
    (count,) = struct.unpack("<I", read(4, "parameter count"))
    if count != len(params):
        raise ValueError(f"checkpoint has {count} tensors, network needs {len(params)}")
    for owner, name in params:
        (ndim,) = struct.unpack("<I", read(4, "tensor rank"))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, "tensor shape"))
        target = getattr(owner, name)
        if shape != target.shape:
            raise ValueError(f"checkpoint tensor shape {shape} does not match {target.shape}")
        n = int(np.prod(shape)) if ndim else 1
        np.copyto(target, np.frombuffer(read(4 * n, "tensor data"), dtype="<f4").reshape(shape))
    if pos != len(view):
        raise ValueError("trailing bytes after checkpoint payload")
    return net, class_names
