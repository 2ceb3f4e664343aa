"""Layer specifications and their forward/backward primitives.

All math is plain numpy in the dtype of the incoming arrays (float32 in
production paths). Each forward returns ``(output, cache)`` where the cache
holds exactly what the matching backward needs.

Layout: callers hand a network (N, C, H, W) batches and per-sample shapes
are (C, H, W), but inside the network every activation with more than two
axes is stored channels-last, (N, H, W, C), which is the layout the im2col
matmul reads and writes. The network converts a batch once, with
``channels_last``; ``flatten`` emits features in (C, H, W) order.

Stacks: a group of M clients that train in lockstep runs as one batch of
M*B samples, client by client (client-major). The weight-free kernels see
that batch as any other. ``dense`` and ``conv2d`` take weights with a
leading client axis, (M, Cout, ...), M=1 for a single network, view the
batch as (M, B*..., K) and multiply each client's rows by its own weights;
their bias gradients sum per client. Each client's result equals, bit for
bit, the same kernel run on that client alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """A batch or a layer chain does not fit together."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a network: kind plus its dimension fields.

    kinds: dense, conv2d, relu, maxpool2d, flatten. Only dense and conv2d
    carry parameters, a weight and a bias each. A network's final layer
    must be a single dense layer (the head) mapping the representation
    dimension to the class count.
    """

    kind: str
    fan_in: int = 0  # dense
    fan_out: int = 0  # dense
    in_channels: int = 0  # conv2d
    out_channels: int = 0  # conv2d
    kernel: int = 0  # conv2d, square
    padding: int = 0  # conv2d
    window: int = 0  # maxpool2d, stride == window

    @property
    def parameterized(self) -> bool:
        return self.kind in ("dense", "conv2d")

    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "dense":
            return (self.fan_out, self.fan_in)
        if self.kind == "conv2d":
            return (self.out_channels, self.in_channels, self.kernel, self.kernel)
        return ()

    def bias_len(self) -> int:
        if self.kind == "dense":
            return self.fan_out
        if self.kind == "conv2d":
            return self.out_channels
        return 0

    def param_count(self) -> int:
        return int(np.prod(self.weight_shape(), initial=1)) * (1 if self.parameterized else 0) + self.bias_len()

    def init_fan_in(self) -> int:
        """Fan-in used by the distribution-based initializers."""
        if self.kind == "dense":
            return self.fan_in
        return self.in_channels * self.kernel * self.kernel

    def init_fan_out(self) -> int:
        if self.kind == "dense":
            return self.fan_out
        return self.out_channels * self.kernel * self.kernel


def dense(fan_in: int, fan_out: int) -> LayerSpec:
    return LayerSpec("dense", fan_in=fan_in, fan_out=fan_out)


def conv2d(in_channels: int, out_channels: int, kernel: int, padding: int = 0) -> LayerSpec:
    return LayerSpec(
        "conv2d",
        in_channels=in_channels,
        out_channels=out_channels,
        kernel=kernel,
        padding=padding,
    )


def relu() -> LayerSpec:
    return LayerSpec("relu")


def maxpool2d(window: int = 2) -> LayerSpec:
    return LayerSpec("maxpool2d", window=window)


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


# --- shape inference ---------------------------------------------------


def output_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of ``spec`` applied to ``in_shape``."""
    if spec.kind == "dense":
        if in_shape != (spec.fan_in,):
            raise ShapeError(f"dense layer expects ({spec.fan_in},), got {in_shape}")
        return (spec.fan_out,)
    if spec.kind == "conv2d":
        if len(in_shape) != 3 or in_shape[0] != spec.in_channels:
            raise ShapeError(
                f"conv2d expects ({spec.in_channels}, H, W), got {in_shape}"
            )
        h = in_shape[1] + 2 * spec.padding - spec.kernel + 1
        w = in_shape[2] + 2 * spec.padding - spec.kernel + 1
        if h <= 0 or w <= 0:
            raise ShapeError(f"conv2d kernel {spec.kernel} too large for {in_shape}")
        return (spec.out_channels, h, w)
    if spec.kind == "relu":
        return in_shape
    if spec.kind == "maxpool2d":
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool2d expects (C, H, W), got {in_shape}")
        if in_shape[1] % spec.window or in_shape[2] % spec.window:
            raise ShapeError(
                f"maxpool2d window {spec.window} does not divide {in_shape}"
            )
        return (in_shape[0], in_shape[1] // spec.window, in_shape[2] // spec.window)
    if spec.kind == "flatten":
        return (int(np.prod(in_shape)),)
    raise ShapeError(f"unknown layer kind {spec.kind!r}")


def infer_shapes(layers: tuple[LayerSpec, ...], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per-sample shapes after each layer; raises ShapeError on mismatch."""
    shapes = []
    shape = tuple(input_shape)
    for spec in layers:
        shape = output_shape(spec, shape)
        shapes.append(shape)
    return shapes


# --- per-layer forward/backward ------------------------------------------


def channels_last(x):
    """View of a batch with its axis 1 (channels) moved to the end."""
    return x.transpose(0, *range(2, x.ndim), 1)


def channels_first(x):
    """View of a channels-last batch in the caller's axis order."""
    return x.transpose(0, x.ndim - 1, *range(1, x.ndim - 1))


def dense_forward(x, w, b):
    """x: (N, K), the N = M*B samples of M clients one after another;
    w: (M, Cout, K); b: (M, Cout). Out: (N, Cout)."""
    m, cout, k = w.shape
    xs = x.reshape(m, -1, k)
    out = xs @ w.transpose(0, 2, 1)
    out += b[:, None]
    return out.reshape(-1, cout), xs


def dense_backward(gout, cache, w, need_gx=True):
    """(input grad, or None unless ``need_gx``; weight grad; bias grad),
    the parameter gradients with the weights' client axis."""
    xs = cache
    m, cout, k = w.shape
    gs = gout.reshape(m, -1, cout)
    gx = (gs @ w).reshape(-1, k) if need_gx else None
    gw = gs.transpose(0, 2, 1) @ xs
    gb = gs.sum(axis=1)
    return gx, gw, gb


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(gout, mask):
    return gout * mask


def flatten_forward(x):
    """Channels-last batch to (N, features), features in (C, H, W) order."""
    x = channels_first(x)
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(gout, shape):
    # contiguous, since strided gradients slow maxpool2d_backward about 2x
    return np.ascontiguousarray(channels_last(gout.reshape(shape)))


def conv2d_forward(x, w, b, padding):
    """Stride-1 2-D convolution via an im2col matmul.

    x: (N, H, W, Cin), the N = M*B samples of M clients one after another;
    w: (M, Cout, Cin, k, k); b: (M, Cout); out: (N, Ho, Wo, Cout).
    The column matrix, (N*Ho*Wo, Cin*k*k) with columns in (Cin, k, k)
    order, comes first in the cache; the weight gradient reads it.
    """
    n, h, wd, cin = x.shape
    m, cout, _, k, _ = w.shape
    if padding:
        xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + wd] = x
    else:
        xp = x
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    cols = np.empty((n, ho, wo, cin, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[..., i, j] = xp[:, i : i + ho, j : j + wo]
    cols = cols.reshape(n * ho * wo, cin * k * k)
    out = cols.reshape(m, -1, cin * k * k) @ w.reshape(m, cout, -1).transpose(0, 2, 1)
    out += b[:, None]
    return out.reshape(n, ho, wo, cout), (cols, xp.shape, (n, ho, wo))


def conv2d_backward(gout, cache, w, padding, need_gx=True):
    """(input grad, or None unless ``need_gx``; weight grad; bias grad),
    the parameter gradients with the weights' client axis. Gradients of
    activations are channels-last, like the activations."""
    cols, padded_shape, (n, ho, wo) = cache
    m, cout, cin, k, _ = w.shape
    gmat = gout.reshape(m, -1, cout)
    gw = (gmat.transpose(0, 2, 1) @ cols.reshape(m, -1, cin * k * k)).reshape(w.shape)
    # einsum adds each client's rows in order, as sum(axis=1) does for two
    # or more columns, and is several times faster; one column is a
    # contiguous reduction, which sum(axis=1) adds pairwise
    gb = np.einsum("mij->mj", gmat) if cout > 1 else gmat.sum(axis=1)
    if not need_gx:
        return None, gw, gb
    gcols = gmat @ w.reshape(m, cout, -1)
    gcols = gcols.reshape(n, ho, wo, cin, k, k)
    gx = np.zeros(padded_shape, dtype=gout.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, i : i + ho, j : j + wo] += gcols[..., i, j]
    if padding:
        gx = np.ascontiguousarray(gx[:, padding:-padding, padding:-padding])
    return gx, gw, gb


def maxpool2d_forward(x, window):
    """Max over each ``window``-square tile, stride ``window``, of an
    (N, H, W, C) batch.

    A tie goes to the first maximum in row-major window order, as argmax
    picks it. The cache holds one boolean mask per in-window offset, stacked
    as (window**2, N, Ho, Wo, C), marking where that offset won.
    """
    n, h, w, c = x.shape
    if h % window or w % window:
        raise ShapeError(f"maxpool2d window {window} does not divide ({h}, {w})")
    # one contiguous copy per in-window offset, so the strided reads happen once
    tiles = np.empty((window * window, n, h // window, w // window, c), dtype=x.dtype)
    for k in range(window * window):
        i, j = divmod(k, window)
        tiles[k] = x[:, i::window, j::window]
    top = tiles[0].copy()
    for t in tiles[1:]:
        np.maximum(top, t, out=top)
    masks = tiles == top
    seen = masks[0].copy()
    for m in masks[1:]:
        np.greater(m, seen, out=m)  # m and not seen
        seen |= m
    # np.maximum may settle a -0.0/+0.0 tie either way, so the output takes
    # the bits of the first maximum itself
    bits = tiles.view(f"u{x.itemsize}")
    bits *= masks
    out = np.bitwise_or.reduce(bits, axis=0).view(x.dtype)
    return out, (masks, x.shape, window)


def maxpool2d_backward(gout, cache):
    """Routes each output gradient to the input its window's max came from;
    other inputs get gout * 0, which is -0.0 where gout is negative."""
    masks, in_shape, window = cache
    gx = np.empty(in_shape, dtype=gout.dtype)
    for k, m in enumerate(masks):
        i, j = divmod(k, window)
        np.multiply(gout, m, out=gx[:, i::window, j::window])
    return gx


def softmax_cross_entropy(logits, labels, clients=None):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    logits: (N, C). With ``clients`` = M the N = M*B rows are M clients'
    batches, client by client: the loss is then one mean per client, an
    (M,) array, and the gradient divides by B, not N. Labels are class
    indices in [0, C); raises on out-of-range labels.
    """
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    picked = log_probs[np.arange(n), labels]
    if clients is not None:
        picked = picked.reshape(clients, -1)
    b = np.asarray(picked.shape[-1], dtype=logits.dtype)
    # the float32 sum and division np.mean does, without its Python wrapper
    loss = -(np.add.reduce(picked, axis=-1) / b)
    grad = exp / denom
    grad[np.arange(n), labels] -= 1
    grad /= b
    return loss.astype(logits.dtype), grad.astype(logits.dtype, copy=False)
