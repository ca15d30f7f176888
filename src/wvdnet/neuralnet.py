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
backward leaves in `grad_<param>` (none for the layers without weights;
Linear's grad_weight is formed when read, see below),
`_cache` holds what backward needs from the last forward run with train
true, which a forward with train false leaves as it was, and `out_shape`
maps a per-sample input shape to the output shape, raising ValueError on an
input the layer cannot take. forward runs that same check, and infer_shapes
and Network both build a config's layers through _build, which chains
out_shape from the input to the logits, so each geometry rule is written once
and the spec types map to layer classes in one table, _LAYER_TYPES.

Network runs its conv blocks, the leading run of Conv2d, ReLU and MaxPool2d
layers, one sample at a time on each thread that runs them: a sample goes
through every block before that thread's next sample starts, so one
sample's conv output, and in backward one sample's conv-output gradient,
exists per thread at a time. Block layers keep their per-sample state in
`_cache`, which Network saves after each sample's forward and puts back
before its backward: the padded input (Conv2d), the uint8 tap index
(MaxPool2d) or the mask (ReLU). The layers from the first Flatten, Dropout
or Linear on run on the whole batch; dropout draws one mask per batch.
Backward runs that head at batch size, then the blocks in reverse for every
sample, and once all samples are done each block layer with params adds up
their parameter gradients in sample order 0..B-1, as Conv2d.backward does
within a batch, so both give the same bits. Conv2d builds im2col columns
one sample at a time.

A training pass (forward with train true, and backward) sends the samples
of its blocks to W = min(B, available cores) workers, and worker k runs
samples k, k + W, ... The calling thread is worker 0 and runs the block
layers themselves. Each other worker runs on a thread of its own that ends
with the pass, on shallow clones of the block layers made for that pass: they
share the parameter arrays, keep their own _cache and gradients, and carry
no forward or backward set on the instance, so a tracer that wraps the
layers' own sees the calling thread's calls only. For the whole block loop
the OpenBLAS that numpy bundles runs on one thread, process-wide, and the
caller's thread count comes back after. Two workers with BLAS left on two
threads ran twice as slow, and on one thread each conv's weight-gradient
product, whose bits change with BLAS's thread count, gives the same bits
on any core count. Where numpy bundles no such OpenBLAS, the pass runs
serially at BLAS's own count. The head, and the whole of a scoring
forward, run on the calling thread: two samples in flight raised a
batch-32 scoring forward's peak at 300x300 from 33.5 to 54.4 MB.

predict is the one scoring function: evaluation, every stream window and
train()'s per-epoch eval all call it, and it scores a batch 32 images at a
time through a scoring forward, Network.forward with train false. train is
the one switch for backward state: Network passes it to every layer, and
every forward first drops what an earlier pass kept (drop_state), so a
scoring forward keeps nothing: no per-sample state, no layer's _cache and
no pool's tap index. Network.backward needs a train=True forward first,
and so does a layer's backward.

MaxPool2d windows tile their input: the stride equals the kernel, as in
every network train builds. Forward takes the running max over each window
row's k column taps, the strided views x[:, :, :k*hout, j:k*wout:k], then
over the window's k rows of that, each step as np.maximum(later, earlier),
which returns earlier on a tie: a +0.0 and -0.0 tie keeps the bits of the
first tap in row-major order, and a NaN stays once it enters. The uint8 tap
index, which a training forward computes, counts the leading taps in
row-major order that miss the max (tap != max): that is the first tap that
matches it, and the last tap for a NaN window, which every tap misses. The
tap views, one strided view of the input per window position, feed the
index and backward. Backward writes each input element once: the bits of
grad_out + 0.0 times (index == q), as same-width unsigned ints, which is
what adding the taps into zeros gives, -0.0 turned +0.0 included.

train() updates each parameter in place: the gradient is scaled by the
learning rate, the velocity by the momentum, the velocity takes the
gradient and the weight the velocity. Backward never forms a Linear
weight's gradient: Linear.backward keeps its input and output gradient in
_cache, and Linear.weight_grad forms any rows of the gradient from them.
Reading grad_weight forms the whole of it that way; train() instead forms
it _UPDATE_ROWS rows at a time and updates those rows before the next
block. Each block is the matching rows of the whole product (every entry is
the same dot product over the batch, which BLAS does not split by rows; the
tests check the bits), and the elementwise update is the same, so the
weights match a whole-gradient update bit for bit while no fc1-sized
gradient (175 MB at 300x300) is allocated.

Within the blocks, a ReLU that directly precedes a MaxPool2d runs after that
pool, on a quarter of the elements. That is exact because relu is monotone:
relu(max(w)) = max(relu(w)) for every window w, and when the max is positive
it sits at the same first-match tap either way. A window whose max is <= 0
outputs zero and passes zero gradient in both orders; only the sign of such
intermediate zeros can differ, and a signed zero leaves every sum it joins
unchanged unless that sum is itself zero.

Conv2d and Linear allocate their parameters through _init_params, which
draws the weight, Kaiming-uniform with bound sqrt(6 / fan_in), through
_fill_uniform. That writes, element for element and in row-major order, the
value that one rng.uniform(-bound, bound, shape) call would give, cast to the
layer dtype, and leaves rng where that call would. A weight larger than one chunk of
_INIT_CHUNK draws, drawn from a PCG64 stream, is split by rows into one part
per available core, run by _in_parts as the training pass runs its workers:
part 0 on the calling thread, each other part on a thread of its own.
The calling thread fills part 0 from rng itself. Part k draws from a copy
of the stream advanced past the draws of the parts before it. The bits match
because each uniform double is low + (high - low) * next_double, which
consumes exactly one 64-bit output, so advance(n) lands where n draws would.
Each part fills, scales and casts its draws chunk by chunk in its own slice
of one float64 scratch block of at most _INIT_CHUNK values, allocated by the
calling thread. Other bit generators, and weights of one chunk or less, run
as a single part on the calling thread.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import glob
import inspect
import json
import math
import os
import struct
from dataclasses import dataclass
from threading import Thread

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_MAGIC = b"WVDN"
CHECKPOINT_VERSION = 1
_INIT_CHUNK = 1 << 20  # float64 draws held at once by a weight init, over all its parts
_UPDATE_ROWS = 16  # rows of a Linear weight gradient that train() forms at once
_CHECK_VALUES = 1 << 18  # values a finiteness check reads at once, 1 MB of float32


# -- layer implementations ---------------------------------------------------


def _fill_uniform(weight, bound, rng):
    """Fill the C-contiguous weight with rng.uniform(-bound, bound,
    weight.shape) cast to its dtype, bit for bit, and move rng past those
    draws, as that call would. See the module docstring for the parts."""
    rows = weight.reshape(len(weight), math.prod(weight.shape[1:]))
    bitgen = rng.bit_generator
    parts = 1
    # Philox also has advance(), but it counts 4-output blocks, not draws
    if weight.size > _INIT_CHUNK and isinstance(bitgen, (np.random.PCG64, np.random.PCG64DXSM)):
        parts = min(len(os.sched_getaffinity(0)), len(rows))
    starts = [len(rows) * k // parts for k in range(parts + 1)]
    gens = [rng]
    for start in starts[1:-1]:
        jumped = copy.deepcopy(bitgen)
        jumped.advance(start * rows.shape[1])
        gens.append(np.random.Generator(jumped))
    chunk = _INIT_CHUNK // parts
    # One block from this thread, sliced per part: a buffer allocated by
    # each part thread raised stream-4k peak RSS by 4 MB in 4 of 9 runs.
    scratch = np.empty(min(_INIT_CHUNK, weight.size))
    low, high = -bound, bound

    def fill(k):
        part = rows[starts[k] : starts[k + 1]].reshape(-1)
        buf = scratch[k * chunk : (k + 1) * chunk]
        for i in range(0, part.size, chunk):
            draws = buf[: part.size - i]
            gens[k].random(out=draws)
            draws *= high - low  # uniform's own arithmetic: low + (high - low) * u
            draws += low
            part[i : i + len(draws)] = draws

    _in_parts(parts, fill)
    # the last part ended where the whole draw ends; advance() would also
    # have dropped rng's buffered 32-bit half-draw, which the state keeps
    state = bitgen.state
    state["state"] = gens[-1].bit_generator.state["state"]
    bitgen.state = state


def _in_parts(parts, run):
    """run(k) for k in range(parts): part 0 on the calling thread, each
    other part on a thread of its own, all started before part 0 runs, so
    one part starts no thread. Once every part has ended, the first
    exception in part order is re-raised here."""
    errors = [None] * parts

    def part(k):
        try:
            run(k)
        except BaseException as exc:  # re-raised on the calling thread
            errors[k] = exc

    # A thread per part: a pool hands a part to any idle thread, so one
    # thread ran parts 1-3 when each ended before the next was submitted.
    threads = [Thread(target=part, args=(k,)) for k in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


@functools.cache
def _blas_threads():
    """The (get, set) functions of the thread count of the OpenBLAS that
    numpy wheels bundle in numpy.libs, or None where there is no such
    library or it lacks them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, which hands the free pages of every malloc
    arena back to the OS, or None where the C library has none."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _clone(layer):
    """A copy of a block layer for a worker thread: it shares the layer's
    parameter arrays, keeps its own per-sample state and gradients, and
    carries no forward or backward set on the instance (a tracer's
    wrappers), so it runs the class's own."""
    clone = copy.copy(layer)
    vars(clone).pop("forward", None)
    vars(clone).pop("backward", None)
    return clone


def _init_params(layer, shape, dtype, rng, draw):
    """Give layer a weight of shape and a zero bias of shape[0]. The weight
    is Kaiming-uniform (relu gain), bound sqrt(6 / fan_in), drawn from rng
    (default_rng(0) when None); with draw false it is left uninitialized."""
    layer.weight = np.empty(shape, dtype=dtype)
    if draw:
        bound = np.sqrt(6.0 / math.prod(shape[1:]))
        _fill_uniform(layer.weight, bound, np.random.default_rng(0) if rng is None else rng)
    layer.bias = np.zeros(shape[0], dtype=dtype)


class Layer:
    """What Network reads of every layer: the names of the parameters whose
    gradients backward leaves in grad_<param>, _cache, the state backward
    reads, which forward(x, train=True) writes and forward with train false
    leaves as it was, and out_shape, its geometry rule."""

    params = ()
    _cache = None
    grad_weight = grad_bias = None  # until a backward sets the layer's own

    def out_shape(self, shape):
        """The per-sample output shape for a per-sample input shape; raises
        ValueError when the layer cannot take that input."""
        return shape


class Conv2d(Layer):
    """2D cross-correlation with zero padding, one sample at a time: each
    sample's im2col columns go into one reused (c*kh*kw, hout*wout)
    workspace that feeds a single matmul. Forward caches only the padded
    input; backward rebuilds each sample's columns from it."""

    params = ("weight", "bias")

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, dtype=np.float32, rng=None,
                 draw=True):
        """A square kernel x kernel filter, held as kh = kw = kernel;
        weights as _init_params draws them."""
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kh = self.kw = kernel
        self.stride = stride
        self.padding = padding
        _init_params(self, (out_ch, in_ch, self.kh, self.kw), dtype, rng, draw)

    def out_shape(self, shape):
        c, h, w = shape
        p, s = self.padding, self.stride
        if c != self.in_ch:
            raise ValueError(f"expected {self.in_ch} input channels, got {c}")
        hout, rem_h = divmod(h + 2 * p - self.kh, s)
        wout, rem_w = divmod(w + 2 * p - self.kw, s)
        if rem_h or rem_w or hout < 0 or wout < 0:
            raise ValueError(
                f"conv geometry mismatch: input {h}x{w}, kernel {self.kh}x{self.kw}, "
                f"stride {s}, padding {p}"
            )
        return self.out_ch, hout + 1, wout + 1

    def _columns(self, sample, hout, wout, cols):
        """Fill cols [c*kh*kw, hout*wout] with one padded sample's windows."""
        s = self.stride
        sc, sh, sw = sample.strides
        shape = (sample.shape[0], self.kh, self.kw, hout, wout)
        np.copyto(cols.reshape(shape),
                  as_strided(sample, shape=shape, strides=(sc, sh, sw, sh * s, sw * s)))

    def forward(self, x, train=False):
        _, hout, wout = self.out_shape(x.shape[1:])
        p = self.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        w2 = self.weight.reshape(self.out_ch, -1)
        cols = np.empty((w2.shape[1], hout * wout), dtype=xp.dtype)
        out = np.empty((len(xp), self.out_ch, hout * wout), dtype=np.result_type(w2, cols))
        for n, sample in enumerate(xp):
            self._columns(sample, hout, wout, cols)
            np.matmul(w2, cols, out=out[n])
        out += self.bias[:, None]
        if train:
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


def _running_max(views):
    """The elementwise max of same-shaped views, taken in order as
    np.maximum(later, earlier), which returns earlier on a tie: a +0.0 and
    -0.0 tie keeps the earlier bits, and a NaN stays once it enters."""
    if len(views) == 1:
        return views[0].copy()
    out = np.maximum(views[1], views[0])
    for view in views[2:]:
        np.maximum(view, out, out=out)
    return out


class MaxPool2d(Layer):
    """Per-window max over k x k windows that tile the input (stride k), with
    floor-mode output size; a NaN anywhere in a window makes that output NaN.
    The max runs over each window row's k column taps, then over the
    window's k rows. Ties go to the first element in the window's row-major
    scan, and a training forward keeps one uint8 index of that tap per
    output for backward."""

    def __init__(self, kernel=2, stride=2):
        """stride must equal kernel; the tap index is one byte, so k*k <= 256."""
        if not 1 <= kernel <= 16 or stride != kernel:
            raise ValueError(f"pool kernel {kernel}, stride {stride}: need both equal, in [1, 16]")
        self.kernel = kernel

    def _taps(self, x, hout, wout):
        """One strided view of x per window position, each shaped like the output."""
        k = self.kernel
        return [x[:, :, i : k * hout : k, j : k * wout : k] for i in range(k) for j in range(k)]

    def out_shape(self, shape):
        c, h, w = shape
        k = self.kernel
        if h < k or w < k:
            raise ValueError(f"input {h}x{w} smaller than pooling window {k}x{k}")
        return c, h // k, w // k

    def forward(self, x, train=False):
        """The pooled batch. With train true the tap index backward reads
        goes to _cache; with train false no index is computed."""
        _, hout, wout = self.out_shape(x.shape[1:])
        k = self.kernel
        rows = _running_max([x[:, :, : k * hout, j : k * wout : k] for j in range(k)])
        out = _running_max([rows[:, :, i::k] for i in range(k)])
        if train:
            # the count of leading taps that miss the max: the first match's
            # tap, and the last tap for a NaN window, which every tap misses
            which = np.zeros(out.shape, dtype=np.uint8)
            miss = np.ones(out.shape, dtype=bool)
            hit = np.empty_like(miss)
            for tap in self._taps(x, hout, wout)[:-1]:
                np.not_equal(tap, out, out=hit)
                miss &= hit
                which += miss.view(np.uint8)
            self._cache = (x.shape, which)
        return out

    def backward(self, grad_out):
        x_shape, which = self._cache
        hout, wout = which.shape[2:]
        k = self.kernel
        # Windows tile the input, so each element gets one tap's value: the
        # bits of grad_out + 0.0, or zero, as in a zero-filled sum (which
        # also turns -0.0 into +0.0). Only the uncovered edge is zero-filled.
        gx = np.empty(x_shape, dtype=grad_out.dtype)
        gx[:, :, hout * k :] = 0
        gx[:, :, : hout * k, wout * k :] = 0
        bits = np.dtype(f"u{gx.itemsize}")
        g = (grad_out + 0.0).view(bits)
        for q, tap in enumerate(self._taps(gx, hout, wout)):
            np.multiply(g, which == q, out=tap.view(bits))
        return gx


class ReLU(Layer):
    def forward(self, x, train=False):
        mask = x > 0
        if train:
            self._cache = mask
        return x * mask

    def backward(self, grad_out):
        return grad_out * self._cache


class Dropout(Layer):
    """Inverted dropout: each activation is zeroed with probability p at train
    time and survivors scale by 1/(1-p). Eval mode is the identity, and so
    is p = 0, which keeps no mask: its backward passes the gradient on."""

    def __init__(self, p, rng=None):
        if not 0 <= p < 1:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x, train=False):
        if not (train and self.p > 0):
            return x
        self._cache = (self.rng.random(x.shape) >= self.p).astype(x.dtype)
        return x * self._cache / (1.0 - self.p)

    def backward(self, grad_out):
        mask = self._cache
        return grad_out if mask is None else grad_out * mask / (1.0 - self.p)


class Flatten(Layer):
    def out_shape(self, shape):
        return (math.prod(shape),)

    def forward(self, x, train=False):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._cache)


class Linear(Layer):
    params = ("weight", "bias")

    def __init__(self, in_features, out_features, dtype=np.float32, rng=None, draw=True):
        """Weights as _init_params draws them."""
        self.in_features = in_features
        self.out_features = out_features
        _init_params(self, (out_features, in_features), dtype, rng, draw)

    def out_shape(self, shape):
        if shape != (self.in_features,):
            raise ValueError(f"linear layer expects width {self.in_features}, got shape {shape}")
        return (self.out_features,)

    def forward(self, x, train=False):
        self.out_shape(x.shape[1:])
        if train:
            self._cache = (x, None)  # backward adds its output gradient
        return x @ self.weight.T + self.bias

    def backward(self, grad_out, input_grad=True):
        """Bias gradient and the input gradient unless input_grad is false.
        The weight gradient is left unformed: _cache keeps (x, grad_out), and
        weight_grad forms it from them."""
        self._cache = (self._cache[0], grad_out)
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight if input_grad else None

    def weight_grad(self, rows=slice(None), out=None):
        """Rows `rows` of the weight gradient of the last backward, into out
        when given: the whole of it, or one block of a blocked update."""
        x, grad_out = self._cache
        return np.matmul(grad_out[:, rows].T, x, out=out)

    @property
    def grad_weight(self):
        """The whole weight gradient of the last backward, formed on every
        read; None when no backward has followed the last forward."""
        if self._cache is None or self._cache[1] is None:
            return None
        return self.weight_grad()


def check_labels(labels, count, num_classes, what):
    """labels as an array, once it is checked to be count class indices:
    shape (count,), an integer dtype (a bool or 0.7 is no class index, and
    a cast would read 0.7 + k as k) and each in 0..num_classes-1. Raises
    ValueError naming what labels they are."""
    labels = np.asarray(labels)
    if labels.shape != (count,):  # (B, 1) labels would broadcast to a (B, B) loss
        raise ValueError(f"{what} labels must have shape ({count},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{what} labels are {labels.dtype}, need integers")
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if len(bad):
        raise ValueError(f"{what} label {bad[0]} out of range for {num_classes} classes")
    return labels


def softmax_cross_entropy(logits, labels):
    """Mean loss over a batch ([B, K] logits, B labels) or one sample ([K]
    logits, one label), and the gradient of that mean, (softmax - onehot) / B,
    in the logits' dtype and shape. Integer logits count as float64."""
    logits = np.asarray(logits)
    if logits.dtype.kind != "f":
        logits = logits.astype(np.float64)
    z = np.atleast_2d(logits).astype(np.float64)
    b, k = z.shape
    labels = check_labels(np.atleast_1d(labels), b, k, "batch")
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


# the least value of each size field a layer spec must have
_SPEC_MINIMUMS = {
    "conv2d": {"in_ch": 1, "out_ch": 1, "kernel": 1, "stride": 1, "padding": 0},
    "maxpool2d": {"kernel": 1, "stride": 1},
    "linear": {"in_features": 1, "out_features": 1},
}


_LAYER_TYPES = {"conv2d": Conv2d, "maxpool2d": MaxPool2d, "relu": ReLU, "dropout": Dropout,
                "flatten": Flatten, "linear": Linear}


def _build(config: NetworkConfig, dtype=np.float32, rng=None, draw=False):
    """The layers of config, in order, and each one's per-sample output
    shape. Each spec's size fields are checked, then its layer is built from
    the spec fields and the build arguments its constructor names (weights
    drawn from rng when draw is true), and out_shape chains the shapes from
    the input to the class logits."""
    if not config.layers:
        raise ValueError("a network needs at least one layer, got none")
    shape = tuple(config.input_shape)
    layers, shapes = [], []
    for i, spec in enumerate(config.layers):
        try:
            kind = spec["type"]
            cls = _LAYER_TYPES.get(kind)
            if cls is None:
                raise ValueError(f"unknown layer type {kind!r}")
            for name, least in _SPEC_MINIMUMS.get(kind, {}).items():
                if spec[name] < least:
                    raise ValueError(f"{kind} {name} must be >= {least}, got {spec[name]}")
            takes = inspect.signature(cls).parameters
            args = {**spec, "dtype": dtype, "rng": rng, "draw": draw}
            layers.append(cls(**{name: value for name, value in args.items() if name in takes}))
            shape = layers[-1].out_shape(shape)
        # the layer allocates its weights before out_shape checks its input,
        # so sizes read from a file can fail there first
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"layer {i}: {exc}") from None
        shapes.append(shape)
    if shape != (config.num_classes,):
        raise ValueError(f"final layer produces {shape}, expected ({config.num_classes},)")
    return layers, shapes


def infer_shapes(config: NetworkConfig):
    """Check config as a network build does; returns the per-layer output
    shapes. The weights are allocated, uninitialized, but none is drawn."""
    return _build(config)[1]


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

    def __init__(self, config: NetworkConfig, dtype=np.float32, draw=True):
        """The layers of config, their weights drawn in layer order from
        default_rng(config.seed). With draw false, for a caller that then
        overwrites every weight, the weights are left uninitialized and the
        stream is advanced past the draws they would have taken, so dropout
        masks come out as after a drawing build."""
        self.config = config
        self.dtype = dtype
        self.rng = np.random.default_rng(config.seed)
        self._caches = None  # per block layer, each sample's backward state
        self.layers, _ = _build(config, dtype, self.rng, draw)  # in config order
        if not draw:  # one 64-bit output per weight, as _fill_uniform draws them
            self.rng.bit_generator.advance(sum(layer.weight.size for layer in self.layers
                                               if layer.params))
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

    def _per_sample(self, count, step):
        """step(blocks, n) for each sample n < count, where blocks is
        self._blocks or a worker's clones of them: samples k, k + W, ... go
        to worker k of W = min(count, cores), with BLAS held at one thread
        (see the module docstring). Without numpy's OpenBLAS, serial."""
        blas = _blas_threads()
        workers = max(1, min(count, len(os.sched_getaffinity(0)))) if blas else 1

        def run(k):
            # fresh clones on every pass: a parameter rebound since the last
            # pass (train()'s best-epoch restore) must be the one they share
            blocks = [_clone(layer) for layer in self._blocks] if k else self._blocks
            for n in range(k, count, workers):
                step(blocks, n)

        if blas is None:
            run(0)
            return
        get, put = blas
        threads = get()
        put(1)
        try:
            _in_parts(workers, run)
        finally:
            put(threads)

    def forward(self, x, train=False):
        """The logits of a batch; every layer's forward gets this train.
        The forward first drops what an earlier pass kept (drop_state). With
        train false (scoring) it keeps nothing for backward: no per-sample
        state, no layer's _cache and no pool's tap index; every layer runs
        on the calling thread. With train true the conv blocks run as
        _per_sample sends them: each sample on one worker thread, the
        calling thread on the block layers themselves, and BLAS on one
        thread process-wide until they are all done. The head then runs on
        the calling thread at BLAS's own count."""
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != tuple(self.config.input_shape):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network input "
                f"{tuple(self.config.input_shape)}"
            )
        self.drop_state()
        self._caches = [[None] * len(x) for _ in self._blocks] if train else None
        if self._blocks:
            outputs = [None] * len(x)

            def step(blocks, n):
                h = x[n : n + 1]
                for i, layer in enumerate(blocks):
                    h = layer.forward(h, train=train)
                    if train:
                        self._caches[i][n] = layer._cache
                outputs[n] = h

            if train:
                self._per_sample(len(x), step)
            else:
                for n in range(len(x)):
                    step(self._blocks, n)
            x = np.concatenate(outputs)
        for layer in self.layers[len(self._blocks) :]:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_logits):
        """Fill every layer's parameter gradients, a Linear weight's as
        Linear.backward leaves it, formed when read. The network's input
        gradient is never read, so the first layer does not compute it.
        The head runs on the calling thread at BLAS's own thread count, then
        the conv blocks as in a training forward, one worker thread per
        sample and BLAS on one thread process-wide; once all are done, each
        block layer's parameter gradients are summed in sample order."""
        if self._caches is None:
            raise ValueError("Network.backward needs a train=True forward first")
        head = self.layers[len(self._blocks) :]
        first = (self._blocks or head)[0]
        g = grad_logits
        for layer in reversed(head):
            g = _backward(layer, g, layer is first)
        if not self._blocks:
            return
        grads = [[None] * len(g) for _ in self._blocks]  # per block layer, per sample

        def step(blocks, n):
            h = g[n : n + 1]
            for i in reversed(range(len(blocks))):
                layer = blocks[i]
                layer._cache = self._caches[i][n]
                h = _backward(layer, h, i == 0)
                grads[i][n] = [getattr(layer, "grad_" + name) for name in layer.params]

        self._per_sample(len(g), step)
        for layer, samples in zip(self._blocks, grads):
            for name, total, *rest in zip(layer.params, *samples):
                for grad in rest:
                    total += grad
                setattr(layer, "grad_" + name, total)

    def drop_state(self):
        """Drop every layer's gradients and the last pass's backward state,
        keeping only the weights. A later forward and backward refill them."""
        self._caches = None
        for layer in self.layers:
            # gradients first: under glibc malloc the other order leaves the
            # freed state resident and raised train-300's peak RSS by 100 MB.
            # Dropping a layer's own gradient leaves the class's None.
            for name in layer.params:
                vars(layer).pop("grad_" + name, None)
            layer._cache = None

    def param_arrays(self):
        """(layer, name) of every parameter, in layer order."""
        return [(layer, name) for layer in self.layers for name in layer.params]

    def snapshot(self):
        return [getattr(owner, name).copy() for owner, name in self.param_arrays()]


def predict(net: Network, images):
    """Eval-mode class indices [B] and float64 probabilities [B, K] for a
    batch [B, C, H, W], scored 32 images at a time. Each probability row is
    the softmax of its logits in float64: minus the row max, exp, over the
    row sum. Non-finite logits raise ValueError: argmax would read NaN as
    class 0."""
    labels = np.empty(len(images), dtype=int)
    probs = np.empty((len(images), net.config.num_classes))
    for start in range(0, len(images), 32):
        rows = slice(start, start + 32)
        logits = net.forward(images[rows], train=False).astype(np.float64)
        if not np.isfinite(logits).all():
            raise ValueError("the network gave non-finite logits: a weight or input is inf or NaN")
        labels[rows] = logits.argmax(axis=1)
        np.exp(logits - logits.max(axis=1, keepdims=True), out=probs[rows])
        probs[rows] /= probs[rows].sum(axis=1, keepdims=True)
    return labels, probs


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def _sgd_update(param, vel, grad, cfg):
    """One momentum step, in place; grad is spent."""
    grad *= cfg.learning_rate
    vel *= cfg.momentum
    vel -= grad
    param += vel


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
    pass, which a later forward and backward would rebuild, and the C heap's
    free pages go back to the OS where glibc's malloc_trim exists. A batch
    loss that is inf or NaN (a diverged run) raises ValueError.
    """
    train_images = np.asarray(train_images, dtype=np.float32)
    train_labels = np.asarray(train_labels)
    if len(train_images) == 0:
        raise ValueError("training set is empty")
    if (eval_images is None) != (eval_labels is None):
        raise ValueError("eval_images and eval_labels must be given together")
    sets = [("training", train_images, train_labels)]
    if eval_labels is not None:
        sets.append(("eval", eval_images, eval_labels))
    for what, images, labels in sets:
        if np.shape(images)[1:] != tuple(config.input_shape):
            raise ValueError(
                f"{what} images are {np.shape(images)[1:]}, network expects "
                f"{tuple(config.input_shape)}"
            )
        check_labels(labels, len(images), config.num_classes, what)

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
            if not math.isfinite(loss):
                raise ValueError(
                    f"training diverged: batch loss {loss} at epoch {epoch}, step "
                    f"{start // cfg.batch_size + 1}, learning rate {cfg.learning_rate}"
                )
            net.backward(grad)
            losses.append(loss)
            for vel, (owner, name) in zip(velocity, net.param_arrays()):
                param = getattr(owner, name)
                if not (isinstance(owner, Linear) and name == "weight"):
                    _sgd_update(param, vel, getattr(owner, "grad_" + name), cfg)
                    continue
                # a Linear weight's gradient goes in by row blocks: no
                # weight-sized gradient exists (175 MB for fc1 at 300x300)
                block = np.empty((min(_UPDATE_ROWS, len(param)), param.shape[1]), param.dtype)
                for first in range(0, len(param), _UPDATE_ROWS):
                    rows = slice(first, first + _UPDATE_ROWS)
                    grad_rows = owner.weight_grad(rows, out=block[: len(param[rows])])
                    _sgd_update(param[rows], vel[rows], grad_rows, cfg)
            # spent: without this, the next backward would hold two of each
            # gradient, and the network train returns would hold the last
            net.drop_state()
        row = {"epoch": epoch, "train_loss": float(np.mean(losses)), "eval_accuracy": None}
        if eval_images is not None and len(eval_images):
            hits = int((predict(net, eval_images)[0] == eval_labels).sum())
            # int / int, a Python float: history.csv writes its repr
            row["eval_accuracy"] = hits / len(eval_images)
            if row["eval_accuracy"] >= best_accuracy:
                best_accuracy = row["eval_accuracy"]
                best = None  # drop the old copy first, so two never coexist
                if epoch < cfg.epochs:  # the last epoch's weights are in place
                    best = net.snapshot()
        history.append(row)

    if best is not None:
        for (owner, name), arr in zip(net.param_arrays(), best):
            setattr(owner, name, arr)
    # The passes' freed per-sample state stays resident in the main heap and
    # in the worker threads' arenas. Without this, perfbench train-300, whose
    # peak comes after train() returns, read 853-900 MB in three 2 s runs;
    # with it, 750-799 MB (median 755) over ten 30 s runs.
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    return net, history


# -- checkpoint format -------------------------------------------------------


def _names_fit(class_names, num_classes: int) -> bool:
    """A checkpoint's class names: a list of distinct str naming none or
    every class."""
    return (isinstance(class_names, list) and len(class_names) in (0, num_classes)
            and all(isinstance(name, str) for name in class_names)
            and len(set(class_names)) == len(class_names))


def _check_finite(tensor, what):
    """Raise ValueError naming what when tensor holds an inf or NaN. Reads
    by blocks of whole rows of at most _CHECK_VALUES values, so each block's
    max reads it from cache after its min, both of which pass NaN through,
    and no tensor-sized mask is made."""
    rows = tensor.reshape(len(tensor), -1)
    step = max(1, _CHECK_VALUES // rows.shape[1])
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise ValueError(f"{what} holds an inf or NaN")


def _param_name(net, owner, name):
    return f"layer {net.layers.index(owner)} {name}"


def save_checkpoint(net: Network, file, class_names=None) -> None:
    """Write net to the binary file: magic, version, JSON header, then each
    tensor's rank, dims and little-endian float32 buffer, written as it
    stands, with no copy of the weights. A tensor that holds an inf or NaN
    raises ValueError with the file part-written; write through
    ioutil.atomic_writer, which then leaves no file behind."""
    class_names = list(class_names or [])
    if not _names_fit(class_names, net.config.num_classes):
        raise ValueError(f"class_names must be 0 or {net.config.num_classes} strings, "
                         "no two alike")
    header = {"network": net.config.to_dict(), "class_names": class_names}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    params = net.param_arrays()
    file.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes))
               + header_bytes + struct.pack("<I", len(params)))
    for owner, name in params:
        arr = np.ascontiguousarray(getattr(owner, name), dtype="<f4")
        _check_finite(arr, f"cannot save a non-finite network: {_param_name(net, owner, name)}")
        file.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        file.write(memoryview(arr).cast("B"))


def load_checkpoint(file):
    """Rebuild a Network from the binary file, read from its position to
    its end; returns (net, class_names). The network is built without
    drawing weights, and each tensor is read straight into its array, so
    the weights are held once. A length or rank that reaches past the
    file's end raises before it sizes a read, and a tensor that holds an
    inf or NaN raises ValueError."""
    start, end = file.tell(), file.seek(0, os.SEEK_END)
    file.seek(start)

    def read(n, what, into=None):  # n bytes, or n bytes read into `into`
        if n > end - file.tell() or (into is not None and file.readinto(into) != n):
            raise ValueError(f"truncated checkpoint while reading {what}")
        return file.read(n) if into is None else into

    if read(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", read(4, "header length"))
    header_bytes = read(hlen, "header")
    try:  # undecodable JSON, a missing or mistyped entry, or layers that do not chain
        header = json.loads(header_bytes)
        net = Network(NetworkConfig.from_dict(header["network"]), dtype=np.float32, draw=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint header: {type(exc).__name__} {exc}") from None
    class_names = header.get("class_names", [])
    if not _names_fit(class_names, net.config.num_classes):
        raise ValueError(
            f"malformed checkpoint header: 'class_names' is not 0 or "
            f"{net.config.num_classes} strings, no two alike"
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
        read(target.nbytes, "tensor data", into=memoryview(target).cast("B"))
        if not np.little_endian:  # the tensors are little-endian
            target.byteswap(inplace=True)
        _check_finite(target, f"checkpoint tensor {_param_name(net, owner, name)}")
    if file.read(1):
        raise ValueError("trailing bytes after checkpoint payload")
    return net, class_names
