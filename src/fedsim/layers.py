"""Layer specifications and their forward/backward primitives.

All math is plain numpy in the dtype of the incoming arrays (float32 in
production paths). Each forward returns ``(output, cache)`` where the cache
holds exactly what the matching backward needs.

Layout: callers hand a network (N, C, H, W) batches and per-sample shapes
are (C, H, W), but inside the network every activation with more than two
axes is stored channels-last, (N, H, W, C), which is the layout the im2col
matmul reads and writes. A network checks a batch's per-sample shape
once, in the caller's axis order, and converts the batch once, with
``channels_last``; no dense or conv2d kernel checks a shape. ``flatten``
emits features in (C, H, W) order.

Stacks: a group of M clients that train in lockstep runs as one batch,
client by client (client-major), whose layout every dense, conv2d and loss
kernel takes as a run list, ``[(clients, b), ...]`` in client order, each
run a stretch of clients with b samples apiece (one client alone is
``[(1, b)]``); ``network._run_layers`` is the one place where a pass given
no list gets one, one run of M equal batches. The weight-free kernels see
the batch as any other. ``dense`` and ``conv2d`` take weights with a
leading client axis, (M, Cout, ...), M=1 for a single network, and multiply
each client's rows by its own weights, one batched GEMM per run; their bias
gradients sum per client, and ``softmax_cross_entropy`` takes one mean per
client. Each client's GEMM has the shape it has alone, so its result
equals, bit for bit, the same kernel run on that client alone. Their
backward computes the input gradient only with ``need_gx`` and the
parameter gradients only with ``need_gw``: a network's masked backward asks
for a layer's weight and bias gradients only where its mask trains that
layer, and leaves the gradient of an untrained segment zero.

Column copies: a conv builds its im2col matrix with k² strided copies, and
its input gradient (col2im) with k² strided adds. Both work on the batch
one chunk of samples at a time, about ``CHUNK_BYTES`` of columns, so a
chunk stays in cache through all k² passes instead of the whole batch
streaming through memory k² times. Chunks change only the order in which
memory is visited, so no bit can move: the GEMMs get the same C-contiguous
(N*Ho*Wo, Cin*k*k) matrix, and each input-gradient element adds its k²
terms in the same (i, j) order.

Fused relu and max-pool: ``maxpool2d_forward(x, window, relu=True)`` gives
the bits of pooling ``relu_forward(x)``'s output without building it or its
mask. Relu keeps every positive input and sends the rest to a zero, so a
window whose max ``top`` is positive outputs ``top`` from its first entry
equal to ``top``; any other window holds only relu's zeros, which tie, so
it outputs its first entry times 0, -0.0 where that entry is negative. A
mask is set only where the winner is positive, so ``maxpool2d_backward``
gives relu's gradient of the pool's gradient bit for bit: each is ``gout``
times 1 or 0, and one factor of 0 leaves what two do. A relu turns -inf
into a NaN, so a batch holding a NaN or -inf is pooled after a plain relu,
whose mask is ANDed into the pool's masks.

Ownership: a kernel writes into no array its caller keeps, except one the
caller hands it to fill. ``relu_forward`` writes into ``out``, which the
network passes as the input itself only where that input is the fresh
output of a dense or conv2d layer of the same pass: no cache holds such an
array, while flatten's output may be a view of the caller's batch.
``dense_backward`` and ``conv2d_backward`` write their parameter gradients
into ``out``, the layer's views of the network's gradient stack.
``softmax_cross_entropy`` takes exp and the gradient in its own buffer of
shifted logits. These choose only where a result is stored: each element
is the same IEEE operation on the same operands, so no bit can move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np


# One core's L2 cache (2 MiB on the 2-core Xeon the kernels were tuned on).
L2_BYTES = 2 << 20

# Column bytes per chunk of a conv's column copies ("Column copies" above):
# a quarter or a half of L2 timed fastest, while the whole L2 lost most of
# the gain.
CHUNK_BYTES = L2_BYTES // 4


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

    def param_count(self) -> int:
        """Weight entries plus one bias per output unit."""
        shape = self.weight_shape()
        return math.prod(shape) + shape[0] if shape else 0


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


def runs_of(sizes) -> list[tuple[int, int]]:
    """The runs of clients of ``sizes`` samples each, in order: one
    (clients, b) per stretch of equal sizes."""
    return [(len(list(same)), b) for b, same in groupby(sizes)]


def _spans(runs, per):
    """(client slice, row slice, rows per client) of each run of a batch
    whose samples span ``per`` rows each."""
    c = r = 0
    for clients, b in runs:
        rows = b * per
        yield slice(c, c + clients), slice(r, r + clients * rows), rows
        c, r = c + clients, r + clients * rows


@np.errstate(invalid="ignore")
def _client_affine(x, wt, b, runs, per):
    """Each client's rows of ``x`` (rows, K) times its matrix of ``wt``
    (M, K, C), plus its row of ``b`` (M, C): (rows, C), one batched GEMM
    per run. numpy runs a GEMM of one row or one column as an OpenBLAS
    GEMV, whose kernels may compute on lanes an earlier call left, which
    never reach the output: a signalling NaN there raises a spurious
    invalid flag, ignored here (the loss checks catch non-finite results)."""
    m, k, cout = wt.shape
    if len(runs) == 1:
        out = x.reshape(m, -1, k) @ wt
        _add_bias(out, b, per)
        return out.reshape(-1, cout)
    out = np.empty((len(x), cout), dtype=x.dtype)
    for c, r, rows in _spans(runs, per):
        part = out[r].reshape(-1, rows, cout)
        np.matmul(x[r].reshape(-1, rows, k), wt[c], out=part)
        _add_bias(part, b[c], per)
    return out


def _add_bias(out, b, per):
    """Adds each client's row of ``b`` (M, C) to its rows of ``out``
    (M, rows, C), a C-contiguous array whose samples span ``per`` rows
    each. A conv adds the bias tiled over each sample's per*C entries, the
    same adds as broadcasting the (1, C) row over every row, several times
    faster."""
    if per == 1:
        out += b[:, None]
        return
    samples = out.reshape(len(out), -1, per * out.shape[2])
    samples += np.tile(b, per)[:, None]


def _client_backward(g, x, w, runs, per, need_gx, bias_sum, out=None, need_gw=True):
    """The gradients of ``_client_affine`` from ``g`` (rows, C), its input
    ``x`` (rows, K) and ``w`` (M, C, K): (each client's g @ w, or None
    unless ``need_gx``; each client's g.T @ x, (M, C, K); ``bias_sum(gs,
    out)`` of each run's (clients, rows, C) view of ``g``, (M, C)). The
    two parameter gradients are written into ``out``, a (weight, bias)
    pair of arrays of those shapes, when it is given; without
    ``need_gw`` neither is computed, and both come back as None."""
    m, cout, k = w.shape
    if out is None and need_gw:
        out = np.empty((m, cout, k), dtype=g.dtype), np.empty((m, cout), dtype=g.dtype)
    gw, gb = out if need_gw else (None, None)
    if len(runs) == 1:
        gs = g.reshape(m, -1, cout)
        gx = (gs @ w).reshape(-1, k) if need_gx else None
        if need_gw:
            np.matmul(gs.transpose(0, 2, 1), x.reshape(m, -1, k), out=gw)
            bias_sum(gs, gb)
        return gx, gw, gb
    gx = np.empty((len(g), k), dtype=g.dtype) if need_gx else None
    for c, r, rows in _spans(runs, per):
        gs = g[r].reshape(-1, rows, cout)
        if need_gx:
            np.matmul(gs, w[c], out=gx[r].reshape(-1, rows, k))
        if need_gw:
            np.matmul(gs.transpose(0, 2, 1), x[r].reshape(-1, rows, k), out=gw[c])
            bias_sum(gs, gb[c])
    return gx, gw, gb


def dense_forward(x, w, b, runs):
    """x: (N, K), the samples of M clients one after another, in ``runs``;
    w: (M, Cout, K); b: (M, Cout). Out: (N, Cout)."""
    return _client_affine(x, w.transpose(0, 2, 1), b, runs, 1), x


def dense_backward(gout, cache, w, runs, need_gx=True, out=None, need_gw=True):
    """(input grad, or None unless ``need_gx``; weight grad; bias grad),
    the parameter gradients with the weights' client axis, written into
    ``out``, a (weight, bias) pair of arrays of their shapes, if given, and
    both None unless ``need_gw``."""
    # sum, not the conv's einsum, which raised peak memory here
    bias_sum = lambda g, o: g.sum(axis=1, out=o)
    return _client_backward(gout, cache, w, runs, 1, need_gx, bias_sum, out, need_gw)


def relu_forward(x, out=None):
    """(max(x, 0) as x * (x > 0), the mask), the product written into
    ``out`` if given; ``out=x`` is for an ``x`` no one else holds."""
    mask = x > 0
    return np.multiply(x, mask, out=out), mask


def relu_backward(gout, mask):
    return gout * mask


def flatten_forward(x):
    """Channels-last batch to (N, features), features in (C, H, W) order."""
    x = channels_first(x)
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(gout, shape):
    # contiguous, since strided gradients slow maxpool2d_backward about 2x
    return np.ascontiguousarray(channels_last(gout.reshape(shape)))


def _chunks(n, sample_bytes):
    """A batch of ``n`` samples, each with ``sample_bytes`` of columns, as
    slices in order of about CHUNK_BYTES each (at least one sample)."""
    step = max(1, CHUNK_BYTES // sample_bytes)
    return [slice(s, s + step) for s in range(0, n, step)]


def conv2d_forward(x, w, b, padding, runs):
    """Stride-1 2-D convolution via an im2col matmul.

    x: (N, H, W, Cin), the samples of M clients one after another, in
    ``runs``; w: (M, Cout, Cin, k, k); b: (M, Cout); out: (N, Ho, Wo, Cout).
    The column matrix, (N*Ho*Wo, Cin*k*k) with columns in (Cin, k, k)
    order, comes first in the cache; the weight gradient reads it. Its k²
    copies run one chunk of samples at a time, which leaves its bytes as
    they are.
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
    for s in _chunks(n, cols[0].nbytes):
        for i in range(k):
            for j in range(k):
                cols[s, ..., i, j] = xp[s, i : i + ho, j : j + wo]
    cols = cols.reshape(n * ho * wo, cin * k * k)
    out = _client_affine(cols, w.reshape(m, cout, -1).transpose(0, 2, 1), b, runs, ho * wo)
    return out.reshape(n, ho, wo, cout), (cols, xp.shape, (n, ho, wo))


def conv2d_backward(gout, cache, w, padding, runs, need_gx=True, out=None, need_gw=True):
    """The gradients ``dense_backward`` gives, of a conv. Gradients of
    activations are channels-last, like the activations. The col2im adds
    run one chunk of samples at a time, each element's k² terms in (i, j)
    order whatever the chunk."""
    cols, padded_shape, (n, ho, wo) = cache
    m, cout, cin, k, _ = w.shape
    if out is not None:
        out = out[0].reshape(m, cout, -1), out[1]
    gcols, gw, gb = _client_backward(
        gout.reshape(-1, cout), cols, w.reshape(m, cout, -1), runs, ho * wo, need_gx,
        _conv_bias_sum, out, need_gw,
    )
    gw = gw.reshape(w.shape) if need_gw else None
    if not need_gx:
        return None, gw, gb
    gcols = gcols.reshape(n, ho, wo, cin, k, k)
    gx = np.zeros(padded_shape, dtype=gout.dtype)
    for s in _chunks(n, gcols[0].nbytes):
        for i in range(k):
            for j in range(k):
                gx[s, i : i + ho, j : j + wo] += gcols[s, ..., i, j]
    if padding:
        gx = np.ascontiguousarray(gx[:, padding:-padding, padding:-padding])
    return gx, gw, gb


def _conv_bias_sum(g, out):
    # einsum adds each client's rows in order, as sum(axis=1) does for two
    # or more columns, and is several times faster; one column is a
    # contiguous reduction, which sum(axis=1) adds pairwise
    return np.einsum("mij->mj", g, out=out) if g.shape[2] > 1 else g.sum(axis=1, out=out)


def maxpool2d_forward(x, window, relu=False):
    """Max over each ``window``-square tile, stride ``window``, of an
    (N, H, W, C) batch; with ``relu``, of ``relu_forward(x)``'s output.

    A tie goes to the first maximum in row-major window order, and a window
    that holds a NaN yields its first NaN, bits and all, as argmax picks
    them. The cache holds one boolean mask per in-window offset, stacked
    as (window**2, N, Ho, Wo, C), marking where that offset won; with
    ``relu`` a mask is set only where the winning input is positive
    ("Fused relu and max-pool" above).
    """
    n, h, w, c = x.shape
    if h % window or w % window:
        raise ShapeError(f"maxpool2d window {window} does not divide ({h}, {w})")
    relu_mask = None
    if relu and not x.min(initial=np.inf) > -np.inf:
        # relu turns a -inf into a NaN (-inf * 0), which the fused path
        # never sees; with a NaN or -inf, pool relu's output instead
        x, relu_mask = relu_forward(x)
        relu = False
    # one contiguous copy per in-window offset, so the strided reads happen once
    tiles = np.empty((window * window, n, h // window, w // window, c), dtype=x.dtype)
    for k in range(window * window):
        i, j = divmod(k, window)
        tiles[k] = x[:, i::window, j::window]
    top = tiles[0].copy()
    for t in tiles[1:]:
        np.maximum(top, t, out=top)
    masks = tiles == top
    if relu:
        positive = top > 0
        masks &= positive
    elif np.isnan(top.max(initial=0)):
        # np.maximum carries a NaN into top, and a NaN equals nothing, so
        # its window has no mask yet; marking every NaN lets the first one
        # win, as argmax picks it (windows without a NaN have none to mark)
        masks |= np.isnan(tiles)
    seen = masks[0].copy()
    for m in masks[1:]:
        np.greater(m, seen, out=m)  # m and not seen
        seen |= m
    if relu:
        # a window of relu's zeros outputs its first entry times 0: top * 0
        # is that where top < 0, but a zero top may be either zero, so
        # those windows, few, take a masked copy (slow over a dense mask)
        zero = top == 0
        out = np.multiply(top, positive, out=top)
        if zero.any():
            np.copyto(out, tiles[0] * 0, where=zero)
    else:
        # np.maximum may settle a -0.0/+0.0 tie either way, so the output
        # takes the bits of the first maximum itself
        bits = tiles.view(f"u{x.itemsize}")
        bits *= masks
        out = np.bitwise_or.reduce(bits, axis=0).view(x.dtype)
    if relu_mask is not None:
        for k, m in enumerate(masks):
            i, j = divmod(k, window)
            m &= relu_mask[:, i::window, j::window]
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


def softmax_cross_entropy(logits, labels, clients):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    logits: (N, C), the batches of M clients one after another, in the
    run list ``clients``, ``[(clients, b), ...]`` ("Stacks"; one client
    alone is ``[(1, N)]``). The loss is one mean per client, an (M,)
    array, and each client's gradient rows divide by its own b, not N.
    Labels are class indices in [0, C); raises on out-of-range labels.
    """
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError(f"label out of range [0, {c})")
    # the row max, taken down the contiguous columns of the transpose,
    # which numpy reduces faster than across short rows. It is exact, but
    # a +0.0/-0.0 tie may settle on the other zero than a row-wise max;
    # the tie makes denom >= 2, so subtracting log(denom) erases that sign
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    # each row's label entry, by flat index, before exp overwrites ``shifted``
    flat = np.arange(n) * c + labels
    picked = shifted.reshape(-1)[flat]
    grad = np.exp(shifted, out=shifted)
    denom = grad.sum(axis=1, keepdims=True)
    picked -= np.log(denom).reshape(-1)
    grad /= denom
    grad.reshape(-1)[flat] -= 1
    loss = np.empty(sum(k for k, _ in clients), dtype=logits.dtype)
    for c, r, b in _spans(clients, 1):
        b32 = np.asarray(b, dtype=logits.dtype)
        # the float32 sum and division np.mean does, without its Python wrapper
        loss[c] = -(np.add.reduce(picked[r].reshape(-1, b), axis=-1) / b32)
        grad[r] /= b32
    return loss, grad.astype(logits.dtype, copy=False)
