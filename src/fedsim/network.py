"""Networks: topology, initialization, forward/backward, head diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import (
    LayerSpec,
    ShapeError,
    channels_first,
    channels_last,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    flatten_backward,
    flatten_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from .params import FLOAT, ParamMask, ParamVector

INIT_SCHEMES = (
    "he_uniform",
    "he_normal",
    "xavier_uniform",
    "xavier_normal",
    "orthogonal",
    "similar",
)


@dataclass(frozen=True)
class InitScheme:
    """How to draw the initial weights. ``similar`` affects the head only
    (entries uniform on [0.45, 0.55], rows unit-normalized); the body then
    falls back to he_uniform. Biases start at zero under every scheme."""

    scheme: str = "he_uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.scheme!r}")


@dataclass
class Network:
    """An ordered layer chain plus its flat parameters.

    The head is the final dense layer; the body is everything before it.
    Their segments partition the ParamVector. With an (M, P) stack of
    params the network is M clients at once: it runs client-major batches
    of M*B samples, and each client's rows see only its own weights.
    """

    layers: tuple[LayerSpec, ...]
    params: ParamVector
    # indices into `layers` of the parameterized layers, in segment order
    param_layers: tuple[int, ...] = field(default=())
    # layer index -> (weight view, bias view, weight slice, bias slice);
    # the views lead with a client axis (length 1 unless `params` is a
    # stack), as the kernels take them; the slices address the layer's
    # segment of any ParamVector segmented like `params`
    _bound: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._bound = {}
        stack = self.params.as_stack().data
        for seg_idx, i in enumerate(self.param_layers):
            spec = self.layers[i]
            start, end = self.params.bounds[seg_idx]
            mid = start + int(np.prod(spec.weight_shape()))
            w = stack[:, start:mid].reshape(len(stack), *spec.weight_shape())
            self._bound[i] = (w, stack[:, mid:end], slice(start, mid), slice(mid, end))

    @property
    def head_index(self) -> int:
        """Layer index of the head (always the last layer)."""
        return len(self.layers) - 1

    @property
    def head_segment(self) -> int:
        """Segment index of the head (always the last segment)."""
        return self.params.n_segments - 1

    @property
    def num_classes(self) -> int:
        return self.layers[self.head_index].fan_out

    def layer_params(self, layer_index: int):
        """(weights view reshaped, bias view) of a parameterized layer,
        with the client axis first if the params are a stack."""
        w, b, _, _ = self._bound[layer_index]
        if self.params.data.ndim == 2:
            return w, b
        return w[0], b[0]

    def head_weights(self) -> np.ndarray:
        w, _ = self.layer_params(self.head_index)
        return w

    def mask_for(self, part: str) -> ParamMask:
        """ParamMask selecting 'body' (every segment before the head),
        'head' (the last segment), or 'full'."""
        n = self.params.n_segments
        if part == "full":
            return ParamMask.full(n)
        if part == "head":
            return ParamMask(n - 1, n)
        if part == "body":
            return ParamMask(0, n - 1)
        raise ValueError(f"unknown part {part!r}")

    def with_params(self, params: ParamVector) -> "Network":
        self.params.require_same_segmentation(params)
        return Network(self.layers, params, self.param_layers)


def _segment_bounds(layers: tuple[LayerSpec, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    param_layers = []
    bounds = []
    offset = 0
    for i, spec in enumerate(layers):
        if spec.parameterized:
            param_layers.append(i)
            n = spec.param_count()
            bounds.append((offset, offset + n))
            offset += n
    return tuple(param_layers), tuple(bounds)


def validate_layers(layers: tuple[LayerSpec, ...]) -> None:
    if not layers or layers[-1].kind != "dense":
        raise ShapeError("network must end in exactly one dense layer (the head)")
    # static chain check: known kinds, dense->dense fans and conv channel chaining
    prev_dense_out = None
    prev_conv_out = None
    for spec in layers:
        if spec.kind not in _LAYER_OPS:
            raise ShapeError(f"unknown layer kind {spec.kind!r}")
        if spec.kind == "dense":
            if prev_dense_out is not None and spec.fan_in != prev_dense_out:
                raise ShapeError(
                    f"dense fan_in {spec.fan_in} does not match previous fan_out {prev_dense_out}"
                )
            prev_dense_out = spec.fan_out
            prev_conv_out = None
        elif spec.kind == "conv2d":
            if prev_conv_out is not None and spec.in_channels != prev_conv_out:
                raise ShapeError(
                    f"conv in_channels {spec.in_channels} does not match previous out_channels {prev_conv_out}"
                )
            prev_conv_out = spec.out_channels
            prev_dense_out = None


def _draw_weights(spec: LayerSpec, scheme: str, rng: np.random.Generator) -> np.ndarray:
    shape = spec.weight_shape()
    # (out, in) or (out, in, k, k): the inputs of one output, the outputs of one input
    fan_in = math.prod(shape[1:])
    fan_out = shape[0] * math.prod(shape[2:])
    gain = np.sqrt(2.0)  # ReLU scaling
    if scheme == "he_uniform":
        a = gain * np.sqrt(3.0 / fan_in)
        return rng.uniform(-a, a, size=shape)
    if scheme == "he_normal":
        sigma = gain * np.sqrt(1.0 / fan_in)
        return rng.normal(0.0, sigma, size=shape)
    if scheme == "xavier_uniform":
        a = gain * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)
    if scheme == "xavier_normal":
        sigma = gain * np.sqrt(2.0 / (fan_in + fan_out))
        return rng.normal(0.0, sigma, size=shape)
    if scheme == "orthogonal":
        rows, cols = shape[0], fan_in
        flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
        q, r = np.linalg.qr(flat)
        q = q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism
        if rows < cols:
            q = q.T
        return q[:rows, :cols].reshape(shape)
    if scheme == "similar":
        w = rng.uniform(0.45, 0.55, size=(shape[0], fan_in))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return w.reshape(shape)
    raise ValueError(f"unknown init scheme {scheme!r}")


def init_network(layers, scheme: InitScheme) -> Network:
    """Build a network with freshly drawn parameters.

    Deterministic for a fixed seed. Biases are zero. Under ``similar``
    only the head weights get the near-parallel rows; body layers use
    he_uniform.
    """
    layers = tuple(layers)
    validate_layers(layers)
    param_layers, bounds = _segment_bounds(layers)
    params = ParamVector(np.zeros(bounds[-1][1], dtype=FLOAT), bounds)
    net = Network(layers, params, param_layers)
    rng = np.random.default_rng(scheme.seed)
    for i in param_layers:
        layer_scheme = scheme.scheme
        if scheme.scheme == "similar" and i != net.head_index:
            layer_scheme = "he_uniform"
        w, _ = net.layer_params(i)  # the bias view stays zero
        w[...] = _draw_weights(layers[i], layer_scheme, rng)
    return net


# --- forward / backward ----------------------------------------------------


def _batch_shape(x) -> tuple[int, ...]:
    """Shape of a channels-last activation in the caller's axis order."""
    return channels_first(x).shape if x.ndim > 2 else x.shape


def _dense_forward(net: Network, i: int, x):
    spec = net.layers[i]
    if x.ndim != 2 or x.shape[1] != spec.fan_in:
        raise ShapeError(
            f"layer {i}: dense expects (N, {spec.fan_in}), got {_batch_shape(x)}"
        )
    return dense_forward(x, *net._bound[i][:2])


def _conv2d_forward(net: Network, i: int, x):
    spec = net.layers[i]
    if x.ndim != 4 or x.shape[3] != spec.in_channels:
        raise ShapeError(
            f"layer {i}: conv2d expects (N, {spec.in_channels}, H, W), "
            f"got {_batch_shape(x)}"
        )
    return conv2d_forward(x, *net._bound[i][:2], spec.padding)


# kind -> (forward(net, i, x) -> (out, cache),
#          backward(net, i, gout, cache) -> (gin, weight grad, bias grad)).
# The adapters name the kernels as module globals, looked up at call time.
# Layer 0's input gradient would be discarded, so it is not computed.
_LAYER_OPS = {
    "dense": (
        _dense_forward,
        lambda net, i, g, c: dense_backward(g, c, net._bound[i][0], need_gx=i > 0),
    ),
    "conv2d": (
        _conv2d_forward,
        lambda net, i, g, c: conv2d_backward(
            g, c, net._bound[i][0], net.layers[i].padding, need_gx=i > 0
        ),
    ),
    "relu": (
        lambda net, i, x: relu_forward(x),
        lambda net, i, g, c: (relu_backward(g, c), None, None),
    ),
    "maxpool2d": (
        lambda net, i, x: maxpool2d_forward(x, net.layers[i].window),
        lambda net, i, g, c: (maxpool2d_backward(g, c), None, None),
    ),
    "flatten": (
        lambda net, i, x: flatten_forward(x),
        lambda net, i, g, c: (flatten_backward(g, c), None, None),
    ),
}


def _run_layers(net: Network, batch, stop: int, caches: list | None):
    """Apply layers [0, stop) in the params' dtype, appending each layer's
    cache to ``caches`` unless it is None. A batch with more than two axes
    enters the layers channels-last."""
    x = np.asarray(batch)
    if x.dtype != net.params.data.dtype:
        x = x.astype(net.params.data.dtype)
    if x.ndim > 2:
        x = channels_last(x)
    for i, spec in enumerate(net.layers[:stop]):
        x, cache = _LAYER_OPS[spec.kind][0](net, i, x)
        if caches is not None:
            caches.append(cache)
    return x


def forward(net: Network, batch: np.ndarray):
    """Run the network on a batch; returns (logits, cache).

    The cache holds per-layer records sufficient for backward, plus the
    logits.
    """
    caches: list = []
    x = _run_layers(net, batch, len(net.layers), caches)
    return x, (caches, x)


def representations(net: Network, batch: np.ndarray) -> np.ndarray:
    """Inputs to the head: the post-flatten, pre-head activations. Layer
    caches are dropped as the pass goes."""
    return _run_layers(net, batch, net.head_index, None)


def backward(net: Network, cache, labels):
    """Softmax cross-entropy loss (mean over the batch) and parameter grads.

    Must be called with the cache of a matching forward; the returned
    gradient vector shares the params' segmentation. A network over an
    (M, P) stack returns an (M,) loss, each client's mean over its own B
    samples, and an (M, P) gradient stack.
    """
    caches, logits = cache
    clients = len(net.params.data) if net.params.data.ndim == 2 else None
    loss, gout = softmax_cross_entropy(logits, labels, clients)

    # every segment is overwritten below, since each layer is visited
    grads = ParamVector(np.empty_like(net.params.data), net.params.bounds)
    stack = grads.data.reshape(-1, grads.data.shape[-1])
    for i in range(len(net.layers) - 1, -1, -1):
        gout, gw, gb = _LAYER_OPS[net.layers[i].kind][1](net, i, gout, caches[i])
        if gw is not None:
            _, _, wslice, bslice = net._bound[i]
            stack[:, wslice] = gw.reshape(len(stack), -1)
            stack[:, bslice] = gb
    return loss, grads


# --- diagnostics ------------------------------------------------------------


def head_orthogonality_stats(net: Network) -> tuple[float, float]:
    """(mean, max) absolute pairwise cosine between head weight rows."""
    w = net.head_weights().astype(np.float64)
    c = w.shape[0]
    if c < 2:
        raise ValueError("head needs at least 2 rows for pairwise statistics")
    norms = np.linalg.norm(w, axis=1)
    cos = (w @ w.T) / np.outer(norms, norms)
    iu = np.triu_indices(c, k=1)
    abs_cos = np.abs(cos[iu])
    return float(abs_cos.mean()), float(abs_cos.max())


def segment_cosines(a: ParamVector, b: ParamVector) -> list[float | None]:
    """Cosine similarity per segment; None where a norm is zero.

    Bit-identical segments report exactly 1.0 (their cosine is 1 by
    definition, independent of rounding).
    """
    a.require_same_segmentation(b)
    out: list[float | None] = []
    for i in range(a.n_segments):
        sa = a.segment(i)
        sb = b.segment(i)
        if np.array_equal(sa, sb):
            if not np.any(sa):
                out.append(None)
            else:
                out.append(1.0)
            continue
        xa = sa.astype(np.float64)
        xb = sb.astype(np.float64)
        na = np.linalg.norm(xa)
        nb = np.linalg.norm(xb)
        if na == 0.0 or nb == 0.0:
            out.append(None)
        else:
            out.append(float(np.dot(xa, xb) / (na * nb)))
    return out


def param_distance(a: ParamVector, b: ParamVector) -> float:
    """Global L2 distance."""
    a.require_same_segmentation(b)
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.sqrt(np.dot(diff, diff)))
