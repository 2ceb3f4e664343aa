"""Networks: topology, initialization, forward/backward, head diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import (
    LayerSpec,
    ShapeError,
    channels_last,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    flatten_backward,
    flatten_forward,
    infer_shapes,
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
    ``sample_shape``, in the caller's axis order, is what ``init_network``
    checked the chain against and what each pass checks its batch against.
    """

    layers: tuple[LayerSpec, ...]
    params: ParamVector
    sample_shape: tuple[int, ...]
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
        return Network(self.layers, params, self.sample_shape, self.param_layers)


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


def init_network(layers, sample_shape: tuple[int, ...], scheme: InitScheme) -> Network:
    """Build a network for samples of ``sample_shape``, with freshly drawn
    parameters.

    Raises ShapeError unless the chain ends in a dense head and
    ``infer_shapes`` accepts it. Deterministic for a fixed seed. Biases
    are zero. Under ``similar`` only the head weights get the
    near-parallel rows; body layers use he_uniform.
    """
    layers, sample_shape = tuple(layers), tuple(sample_shape)
    if not layers or layers[-1].kind != "dense":
        raise ShapeError("network must end in exactly one dense layer (the head)")
    infer_shapes(layers, sample_shape)
    param_layers, bounds = _segment_bounds(layers)
    params = ParamVector(np.zeros(bounds[-1][1], dtype=FLOAT), bounds)
    net = Network(layers, params, sample_shape, param_layers)
    rng = np.random.default_rng(scheme.seed)
    for i in param_layers:
        layer_scheme = scheme.scheme
        if scheme.scheme == "similar" and i != net.head_index:
            layer_scheme = "he_uniform"
        w, _ = net.layer_params(i)  # the bias view stays zero
        w[...] = _draw_weights(layers[i], layer_scheme, rng)
    return net


# --- forward / backward ----------------------------------------------------


def _grad_views(net: Network, i: int, stack):
    """(weight, bias) views of layer ``i``'s segment in the (M, P) gradient
    ``stack``, shaped as the layer's weight and bias views."""
    w, b, wslice, bslice = net._bound[i]
    return stack[:, wslice].reshape(w.shape), stack[:, bslice]


def _feeds_pool(net: Network, i: int) -> bool:
    """Whether layer ``i`` is a relu whose output a max-pool takes, the
    pair that runs as one kernel (layers.py, "Fused relu and max-pool")."""
    return net.layers[i].kind == "relu" and net.layers[i + 1].kind == "maxpool2d"


def _relu_forward(net: Network, i: int, x, runs):
    if _feeds_pool(net, i):
        return x, None  # the max-pool applies it
    # the output of a dense or conv2d layer of this pass is held by no cache
    # and no caller, so relu may overwrite it; any other input (the caller's
    # batch, or a view of it through flatten) it must not
    fresh = i > 0 and net.layers[i - 1].parameterized
    return relu_forward(x, x if fresh else None)


# kind -> (forward(net, i, x, runs) -> (out, cache),
#          backward(net, i, gout, cache, runs, need_gx, out) -> (gin, weight grad, bias grad)),
# ``runs`` as the kernels take them (layers.py, "Stacks"). A parameterized
# layer that is trained writes its gradients into ``out``, its views of the
# (M, P) gradient stack; one that is not gets None and computes none.
# ``need_gx`` holds above the lowest trained layer: below it no gradient is
# read, so the lowest one computes no input gradient.
# The adapters name the kernels as module globals, looked up at call time.
_LAYER_OPS = {
    "dense": (
        lambda net, i, x, runs: dense_forward(x, *net._bound[i][:2], runs),
        lambda net, i, g, c, runs, need_gx, out: dense_backward(
            g, c, net._bound[i][0], runs, need_gx, out, out is not None
        ),
    ),
    "conv2d": (
        lambda net, i, x, runs: conv2d_forward(x, *net._bound[i][:2], net.layers[i].padding, runs),
        lambda net, i, g, c, runs, need_gx, out: conv2d_backward(
            g, c, net._bound[i][0], net.layers[i].padding, runs, need_gx, out, out is not None
        ),
    ),
    "relu": (
        _relu_forward,
        lambda net, i, g, c, *_: (g if c is None else relu_backward(g, c), None, None),
    ),
    "maxpool2d": (
        lambda net, i, x, runs: maxpool2d_forward(
            x, net.layers[i].window, relu=i > 0 and _feeds_pool(net, i - 1)
        ),
        lambda net, i, g, c, *_: (maxpool2d_backward(g, c), None, None),
    ),
    "flatten": (
        lambda net, i, x, runs: flatten_forward(x),
        lambda net, i, g, c, *_: (flatten_backward(g, c), None, None),
    ),
}


def _run_layers(net: Network, batch, stop: int, caches: list | None, runs):
    """Apply layers [0, stop) in the params' dtype, appending each layer's
    cache to ``caches`` unless it is None; returns (output, runs). A batch
    whose samples are not of the network's sample shape raises ShapeError,
    naming the batch's shape; one with more than two axes enters the layers
    channels-last. The one place where ``runs`` None becomes a run list,
    one run of M equal batches."""
    x = np.asarray(batch)
    if x.shape[1:] != net.sample_shape:
        dims = ", ".join(map(str, ("N", *net.sample_shape)))
        raise ShapeError(f"network expects ({dims}) batches, got {x.shape}")
    m = net.params.data.size // net.params.total_len  # rows of the stack
    runs = runs or [(m, len(x) // m)]
    if x.dtype != net.params.data.dtype:
        x = x.astype(net.params.data.dtype)
    if x.ndim > 2:
        x = channels_last(x)
    for i, spec in enumerate(net.layers[:stop]):
        x, cache = _LAYER_OPS[spec.kind][0](net, i, x, runs)
        if caches is not None:
            caches.append(cache)
    return x, runs


def forward(net: Network, batch: np.ndarray, runs=None):
    """Run the network on a batch; returns (logits, cache).

    A network over a stack runs its clients' batches one after another, in
    the run list ``runs`` (layers.py, "Stacks"); None is one run of M equal
    batches, M = 1 for a single vector. The cache holds per-layer records
    sufficient for backward, plus the logits and the run list.
    """
    caches: list = []
    x, runs = _run_layers(net, batch, len(net.layers), caches, runs)
    return x, (caches, x, runs)


def representations(net: Network, batch: np.ndarray, runs=None) -> np.ndarray:
    """Inputs to the head: the post-flatten, pre-head activations, of a
    batch in ``runs`` as ``forward`` takes it. Layer caches are dropped as
    the pass goes."""
    return _run_layers(net, batch, net.head_index, None, runs)[0]


def backward(net: Network, cache, labels, mask: ParamMask | None = None):
    """Softmax cross-entropy loss and parameter grads.

    Must be called with the cache of a matching forward; the returned
    gradient vector shares the params' segmentation. A network over an
    (M, P) stack returns an (M,) loss, each client's mean over its own
    batch, and an (M, P) gradient stack; a single vector is M = 1, with a
    (1,) loss. The loss reads the batch layout from the forward's run list.

    Only what ``mask`` (None: every segment) trains is computed: the weight
    and bias gradients of the layers it trains, and input gradients only
    above the lowest of them; no layer below it runs. The segments outside
    the mask come back as exact zeros, and the trained ones hold the bytes
    a full backward gives them.
    """
    caches, logits, runs = cache
    loss, gout = softmax_cross_entropy(logits, labels, runs)

    mask = ParamMask.full(net.params.n_segments) if mask is None else mask
    part = mask.scalars(net.params)
    trained = {net.param_layers[s] for s in mask.selected()}
    lowest = min(trained, default=len(net.layers))
    grads = ParamVector(np.empty_like(net.params.data), net.params.bounds)
    stack = grads.data.reshape(-1, grads.data.shape[-1])
    # the trained layers write every scalar of ``part``
    stack[:, : part.start] = 0
    stack[:, part.stop :] = 0
    for i in range(len(net.layers) - 1, lowest - 1, -1):
        out = _grad_views(net, i, stack) if i in trained else None
        gout = _LAYER_OPS[net.layers[i].kind][1](net, i, gout, caches[i], runs, i > lowest, out)[0]
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
