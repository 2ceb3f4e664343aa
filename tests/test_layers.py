"""Forward-path checks against naive per-element loop oracles.

The oracles and the argmax reference kernel work on (N, C, H, W) arrays;
the kernels hold activations channels-last, so the tests transpose at the
kernel boundary with ``nhwc`` and ``nchw``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
from fedsim import layers
from fedsim.layers import (
    ShapeError,
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
    runs_of,
    softmax_cross_entropy,
)


def nhwc(x):
    return x.transpose(0, 2, 3, 1)


def nchw(x):
    return x.transpose(0, 3, 1, 2)


# --- loop oracles (independent of the vectorized implementations) ----------


def loop_dense(x, w, b):
    n, fin = x.shape
    fout = w.shape[0]
    out = np.zeros((n, fout), dtype=np.float64)
    for s in range(n):
        for o in range(fout):
            acc = 0.0
            for i in range(fin):
                acc += float(x[s, i]) * float(w[o, i])
            out[s, o] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def loop_conv2d(x, w, b, padding):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    ho = h + 2 * padding - k + 1
    wo = wd + 2 * padding - k + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for s in range(n):
        for o in range(cout):
            for y in range(ho):
                for z in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for dy in range(k):
                            for dz in range(k):
                                acc += float(xp[s, c, y + dy, z + dz]) * float(w[o, c, dy, dz])
                    out[s, o, y, z] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def loop_maxpool(x, window):
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for s in range(n):
        for ch in range(c):
            for y in range(ho):
                for z in range(wo):
                    out[s, ch, y, z] = x[
                        s, ch, y * window : (y + 1) * window, z * window : (z + 1) * window
                    ].max()
    return out


def argmax_maxpool_forward(x, window):
    """Tile transpose + argmax kernel: the first maximum of each window in
    row-major order wins."""
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    tiles = x.reshape(n, c, ho, window, wo, window).transpose(0, 1, 2, 4, 3, 5)
    tiles = tiles.reshape(n, c, ho, wo, window * window)
    arg = tiles.argmax(axis=-1)
    out = np.take_along_axis(tiles, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), arg


def argmax_maxpool_backward(gout, arg, in_shape, window):
    n, c, h, w = in_shape
    ho, wo = h // window, w // window
    gtiles = np.zeros((n, c, ho, wo, window * window), dtype=gout.dtype)
    np.put_along_axis(gtiles, arg[..., None], gout[..., None], axis=-1)
    gx = gtiles.reshape(n, c, ho, wo, window, window).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(gx.reshape(in_shape))


def test_dense_matches_loop_oracle(rng):
    x = rng.normal(size=(5, 7)).astype(np.float32)
    w = rng.normal(size=(4, 7)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out, _ = dense_forward(x, w[None], b[None])
    np.testing.assert_allclose(out, loop_dense(x, w, b), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_matches_loop_oracle(rng, padding):
    x = rng.normal(size=(3, 2, 5, 6)).astype(np.float32)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out, _ = conv2d_forward(nhwc(x), w[None], b[None], padding)
    np.testing.assert_allclose(nchw(out), loop_conv2d(x, w, b, padding), rtol=1e-4, atol=1e-5)


def test_maxpool_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 3, 6, 4)).astype(np.float32)
    out, _ = maxpool2d_forward(nhwc(x), 2)
    np.testing.assert_allclose(nchw(out), loop_maxpool(x, 2), rtol=0, atol=0)


def nan_with(payload):
    """A float32 NaN with the given bits."""
    return np.array(payload, dtype=np.uint32).view(np.float32)


def tie_heavy_pool_inputs(rng, window, pre_relu=False):
    """Post-ReLU activations (negatives become -0.0) with whole samples of
    exact +0.0, all-equal windows, windows mixing -0.0 and +0.0, small
    integers that tie often, and windows holding NaNs of distinct bits.
    ``pre_relu`` keeps the negatives, as a relu's input, and adds windows
    whose negative or -0.0 first entry ties relu's later +0.0, and -inf
    and +inf among positives and among zeros."""
    side = 4 * window
    x = rng.normal(size=(6, 3, side, side)).astype(np.float32)
    x[1] = 0.0
    x[2] = 1.5
    x[3, :, ::2] = 0.0
    x[4] = np.round(x[4])
    if pre_relu:
        x[1, 0, 0, 0] = -2.0
        x[1, 1, 0, 0] = -0.0
        x[2, 0, 0, 0] = -np.inf
        x[2, 1, 0, 1] = np.inf
        x[3, 2, 0, 0] = -np.inf
        x[3, 2, 0, 2 * window] = np.inf
    else:
        x, _ = relu_forward(x)
    x[5] = -np.abs(x[5]) - 1.0  # all-negative windows
    # one NaN after other values; two NaNs, the first in the window's second
    # row; a negative NaN among ties; a whole window of NaNs; a NaN in an
    # all-negative window
    x[0, 0, 0, 1] = nan_with(0x7FC00001)
    x[0, 1, 1, window] = nan_with(0x7FC00002)
    x[0, 1, window - 1, 2 * window - 1] = nan_with(0x7FC00003)
    x[4, 0, window - 1, 0] = nan_with(0xFFC00004)
    x[4, 2, :window, :window] = nan_with(0x7FA00005)
    x[5, 1, window - 1, window - 1] = nan_with(0x7FC00006)
    return x


@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_matches_argmax_kernel_bit_for_bit(rng, window):
    x = tie_heavy_pool_inputs(rng, window)
    assert np.any(np.signbit(x) & (x == 0)) and np.any(~np.signbit(x) & (x == 0))
    out, cache = maxpool2d_forward(nhwc(x), window)
    out = nchw(out)
    ref_out, arg = argmax_maxpool_forward(x, window)
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()

    gout = rng.normal(size=out.shape).astype(np.float32)
    gout[0, 0] = 0.0
    gout[0, 1] = -0.0
    gx = nchw(maxpool2d_backward(nhwc(gout), cache))
    ref_gx = argmax_maxpool_backward(gout, arg, x.shape, window)
    assert gx.dtype == ref_gx.dtype and gx.shape == ref_gx.shape
    # equal as numbers; where no gradient goes, a negative gout may leave -0.0
    assert np.array_equal(gx, ref_gx)


@pytest.mark.parametrize("window", [2, 3])
def test_maxpool_routes_each_window_to_exactly_one_input(rng, window):
    x = tie_heavy_pool_inputs(rng, window)
    out, cache = maxpool2d_forward(nhwc(x), window)
    gx = nchw(maxpool2d_backward(np.ones_like(out), cache))
    per_window = gx.reshape(6, 3, 4, window, 4, window).sum(axis=(3, 5))
    np.testing.assert_array_equal(per_window, np.ones_like(nchw(out)))


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("finite", [True, False])
def test_fused_relu_maxpool_equals_relu_then_maxpool_bit_for_bit(rng, window, finite):
    # without a NaN or -inf the fused kernel runs; with them it falls back
    # to a plain relu, and must still give the composition's bits
    x = nhwc(tie_heavy_pool_inputs(rng, window, pre_relu=True))
    if finite:
        x = np.where(np.isnan(x) | (x == -np.inf), np.float32(-3.0), x)
        assert np.isposinf(x).any()
    gout = rng.normal(size=(6, 4, 4, 3)).astype(np.float32)
    gout[0, 0] = 0.0
    gout[0, 1] = -0.0
    gout[1, :, :, 0] = np.inf
    gout[1, :, :, 1] = -np.inf
    gout[2, :, :, 1] = nan_with(0x7FC00011)
    gout[3, :, :, 2] = nan_with(0xFFC00012)
    with np.errstate(invalid="ignore"):  # relu's -inf * 0, and inf * 0 in backward
        r, relu_mask = relu_forward(x)
        ref_out, ref_cache = maxpool2d_forward(r, window)
        ref_gx = relu_backward(maxpool2d_backward(gout, ref_cache), relu_mask)
        out, cache = maxpool2d_forward(x, window, relu=True)
        gx = maxpool2d_backward(gout, cache)
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
    assert out.tobytes() == ref_out.tobytes()
    assert cache[0].dtype == ref_cache[0].dtype and cache[0].shape == ref_cache[0].shape
    assert gx.dtype == ref_gx.dtype and gx.shape == ref_gx.shape
    assert gx.tobytes() == ref_gx.tobytes()


def counted_relu_calls(monkeypatch):
    """A list that grows by one at each ``network.relu_forward`` call."""
    calls = []
    relu = fs.network.relu_forward
    monkeypatch.setattr(fs.network, "relu_forward", lambda *a: calls.append(1) or relu(*a))
    return calls


def test_ragged_conv_stack_equals_hand_composed_reference_kernels(monkeypatch):
    # two conv-relu-pool blocks over M = 3 clients in runs of 4, 4 and 2
    # samples: the network fuses each relu into its pool, and its loss and
    # gradient stack must equal, byte for byte, the plain kernels composed
    # by hand. Biases start at zero and sample 0 is all zeros, so relu's
    # zeros tie in whole windows
    layers = [
        fs.conv2d(2, 3, 3, padding=1), fs.relu(), fs.maxpool2d(2),
        fs.conv2d(3, 4, 3, padding=1), fs.relu(), fs.maxpool2d(2),
        fs.flatten(), fs.dense(4 * 2 * 2, 5),
    ]
    nets = [fs.init_network(layers, fs.InitScheme("he_uniform", s)) for s in (1, 2, 3)]
    net = nets[0].with_params(fs.ParamVector.stack([n.params for n in nets]))
    runs = [(2, 4), (1, 2)]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 2, 8, 8)).astype(np.float32)
    x[0] = 0.0
    labels = rng.integers(0, 5, size=10)

    relu_calls = counted_relu_calls(monkeypatch)
    logits, cache = fs.forward(net, x, runs)
    loss, grads = fs.backward(net, cache, labels)
    assert relu_calls == []

    (w0, b0), (w1, b1), (w2, b2) = (net.layer_params(i) for i in (0, 3, 7))
    h, conv0 = conv2d_forward(nhwc(x), w0, b0, 1, runs)
    h, relu0 = relu_forward(h)
    h, pool0 = maxpool2d_forward(h, 2)
    h, conv1 = conv2d_forward(h, w1, b1, 1, runs)
    h, relu1 = relu_forward(h)
    h, pool1 = maxpool2d_forward(h, 2)
    h, flat = flatten_forward(h)
    ref_logits, dense_cache = dense_forward(h, w2, b2, runs)
    ref_loss, g = softmax_cross_entropy(ref_logits, labels, runs)
    g, gw2, gb2 = dense_backward(g, dense_cache, w2, True, runs)
    g = relu_backward(maxpool2d_backward(flatten_backward(g, flat), pool1), relu1)
    g, gw1, gb1 = conv2d_backward(g, conv1, w1, 1, True, runs)
    g = relu_backward(maxpool2d_backward(g, pool0), relu0)
    _, gw0, gb0 = conv2d_backward(g, conv0, w0, 1, False, runs)
    ref_grads = np.concatenate([a.reshape(3, -1) for a in (gw0, gb0, gw1, gb1, gw2, gb2)], axis=1)
    assert_same_bytes([logits, loss, grads.data], [ref_logits, ref_loss, ref_grads])


@pytest.mark.parametrize(
    "specs, shape",
    [
        ([fs.dense(6, 5), fs.relu(), fs.dense(5, 3)], (6,)),
        ([fs.conv2d(1, 2, 3), fs.relu(), fs.flatten(), fs.dense(2 * 4 * 4, 3)], (1, 6, 6)),
    ],
)
def test_relu_not_feeding_a_pool_runs_its_own_kernel(monkeypatch, specs, shape):
    net = fs.init_network(specs, fs.InitScheme("he_uniform", 0))
    relu_calls = counted_relu_calls(monkeypatch)
    x = np.random.default_rng(0).normal(size=(4, *shape)).astype(np.float32)
    _, cache = fs.forward(net, x)
    fs.backward(net, cache, np.arange(4) % 3)
    assert len(relu_calls) == 1


def test_network_forward_matches_composed_loop_oracle():
    net = fs.init_network(
        [fs.conv2d(1, 2, 3, padding=1), fs.relu(), fs.maxpool2d(2), fs.flatten(), fs.dense(8, 3)],
        fs.InitScheme("he_uniform", 11),
    )
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 1, 4, 4)).astype(np.float32)
    logits, _ = fs.forward(net, x)

    w0, b0 = net.layer_params(0)
    w1, b1 = net.layer_params(4)
    ref = loop_conv2d(x, w0, b0, 1)
    ref = np.maximum(ref, 0)
    ref = loop_maxpool(ref, 2)
    ref = ref.reshape(4, -1)
    ref = loop_dense(ref, w1, b1)
    np.testing.assert_allclose(logits, ref, rtol=1e-4, atol=1e-5)


def test_conv_representations_equal_composed_loop_oracle_exactly():
    # integer-valued inputs, weights and biases keep every sum exact in any
    # order, so the channels-last kernels must match the NCHW oracle exactly
    # and flatten must emit features in (C, H, W) order; zeros compare by
    # value, since relu leaves -0.0 where its input was negative
    layers = [
        fs.conv2d(2, 3, 3, padding=1), fs.relu(), fs.maxpool2d(2),
        fs.conv2d(3, 4, 3, padding=1), fs.relu(), fs.maxpool2d(2),
        fs.flatten(), fs.dense(4 * 2 * 3, 5),
    ]
    net = fs.init_network(layers, fs.InitScheme("he_uniform", 3))
    rng = np.random.default_rng(8)
    net.params.data[:] = rng.integers(-3, 4, size=net.params.total_len)
    x = rng.integers(-4, 5, size=(5, 2, 8, 12)).astype(np.float32)

    ref = x
    for conv_index in (0, 3):
        w, b = net.layer_params(conv_index)
        ref = loop_conv2d(ref, w, b, 1)
        ref = loop_maxpool(ref * (ref > 0), 2)
    ref = ref.reshape(5, -1)

    rep = fs.representations(net, x)
    assert rep.dtype == np.float32 and rep.shape == ref.shape
    np.testing.assert_array_equal(rep, ref)
    logits, _ = fs.forward(net, x)
    np.testing.assert_array_equal(logits, loop_dense(ref, *net.layer_params(7)))


def test_conv_shape_error_names_the_callers_batch_shape():
    net = fs.init_network(
        [fs.conv2d(1, 2, 3), fs.relu(), fs.flatten(), fs.dense(2 * 4, 3)],
        fs.InitScheme("he_uniform", 0),
    )
    with pytest.raises(ShapeError, match=r"expects \(N, 1, H, W\), got \(2, 3, 6, 5\)"):
        fs.forward(net, np.ones((2, 3, 6, 5), dtype=np.float32))


@pytest.mark.parametrize("rows", [1, 7, 105, 39199])
@pytest.mark.parametrize("cols", [1, 8, 16])
def test_conv_bias_grad_equals_row_sum_bytes(rows, cols):
    # conv2d_backward sums each client's rows with einsum("mij->mj"), which
    # adds rows in order as sum(axis=0) does for two or more columns; one
    # column takes sum itself
    rng = np.random.default_rng(rows * cols)
    gmat = rng.normal(size=(rows, cols)).astype(np.float32)
    if cols > 1:
        assert np.einsum("ij->j", gmat).tobytes() == gmat.sum(axis=0).tobytes()
    x = rng.normal(size=(1, 1, rows, 2)).astype(np.float32)
    w = rng.normal(size=(1, cols, 2, 1, 1)).astype(np.float32)
    _, cache = conv2d_forward(x, w, np.zeros((1, cols), np.float32), 0)
    _, _, gb = conv2d_backward(gmat.reshape(1, 1, rows, cols), cache, w, 0)
    assert gb[0].tobytes() == gmat.sum(axis=0).tobytes()


def test_zero_weight_network_gives_zero_logits():
    net = fs.init_network([fs.dense(5, 4), fs.relu(), fs.dense(4, 3)], fs.InitScheme("he_uniform", 0))
    net.params.data[:] = 0
    logits, _ = fs.forward(net, np.ones((6, 5), dtype=np.float32))
    assert np.all(logits == 0)


def test_identity_dense_layer_passes_input_through():
    net = fs.init_network([fs.dense(4, 4)], fs.InitScheme("he_uniform", 0))
    w, b = net.layer_params(0)
    w[:] = np.eye(4, dtype=np.float32)
    b[:] = 0
    x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
    logits, _ = fs.forward(net, x)
    np.testing.assert_array_equal(logits, x)


def test_forward_shape_mismatch_raises(mlp_net):
    with pytest.raises(ShapeError):
        fs.forward(mlp_net, np.ones((2, 5), dtype=np.float32))


def test_logits_shape_and_finiteness(mlp_net, rng):
    x = rng.normal(size=(9, 6)).astype(np.float32)
    logits, _ = fs.forward(mlp_net, x)
    assert logits.shape == (9, 4)
    assert np.all(np.isfinite(logits))


def test_maxpool_indivisible_raises(rng):
    with pytest.raises(ShapeError):
        maxpool2d_forward(nhwc(rng.normal(size=(1, 1, 5, 4)).astype(np.float32)), 2)


def test_softmax_cross_entropy_rejects_bad_labels(rng):
    logits = rng.normal(size=(3, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([0, 1, 4]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([0, -1, 2]))


def softmax_xent_rowmax(logits, labels, clients=None):
    """softmax_cross_entropy as it was written with the row max taken
    across each row, ``logits.max(axis=1)``: the reference its
    transposed-max form must equal byte for byte."""
    n = len(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    picked = (shifted - np.log(denom))[np.arange(n), labels]
    if clients is not None:
        picked = picked.reshape(clients, -1)
    b = np.asarray(picked.shape[-1], dtype=logits.dtype)
    loss = -(np.add.reduce(picked, axis=-1) / b)
    grad = exp / denom
    grad[np.arange(n), labels] -= 1
    grad /= b
    return loss.astype(logits.dtype), grad.astype(logits.dtype, copy=False)


def softmax_cases(rng):
    """(logits, clients) pairs: random rows, tied rows, rows mixing +0.0 and
    -0.0 with far larger magnitudes, and client stacks."""
    yield rng.standard_normal((500, 10)).astype(np.float32), None
    yield (rng.standard_normal((1200, 10)) * 30).astype(np.float32), None
    yield rng.standard_normal((4 * 50, 10)).astype(np.float32), 4
    yield np.repeat(rng.standard_normal((60, 1)), 7, axis=1).astype(np.float32), 3
    signed_zeros = np.array([0.0, -0.0, -1.0, -3e38], dtype=np.float32)
    large = np.array([0.0, -0.0, 1.0, 3e38, -3e38, 1e-45], dtype=np.float32)
    for _ in range(100):  # a +0.0/-0.0 max tie settles either way in some shapes
        n, c = int(rng.integers(1, 400)), int(rng.integers(2, 20))
        yield rng.choice(signed_zeros, size=(n, c)), None
        mixed = rng.standard_normal((n, c)).astype(np.float32)
        yield np.where(rng.random((n, c)) < 0.5, rng.choice(large, size=(n, c)), mixed), None
    zeros = rng.choice(np.array([0.0, -0.0], dtype=np.float32), size=(6 * 25, 10))
    zeros[:, ::3] = -5.0
    yield zeros, 6


def test_softmax_transposed_row_max_equals_row_max_bytes(rng):
    for logits, clients in softmax_cases(rng):
        labels = rng.integers(0, logits.shape[1], size=len(logits))
        with np.errstate(all="ignore"):  # +-3e38 rows overflow to inf alike
            got = softmax_cross_entropy(logits, labels, clients)
            want = softmax_xent_rowmax(logits, labels, clients)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


# --- ragged batches: runs of clients of one batch size -------------------------

# (clients, b) runs with batches of one sample and partial batches; equal
# neighbouring runs are allowed, as a caller may split a stretch anywhere
RUNS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 7)), min_size=1, max_size=5)


def client_rows(runs, per=1):
    """(client, its slice of the batch rows) for every client of ``runs``."""
    sizes = [b * per for clients, b in runs for _ in range(clients)]
    starts = np.cumsum(sizes) - sizes
    return [(i, slice(s, s + n)) for i, (s, n) in enumerate(zip(starts, sizes))]


def assert_same_bytes(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def gradient_views(w_shape):
    """(weight, bias) views into one row-strided (M, P) array, laid out as
    ``network.backward`` hands them to a kernel: a segment with a column of
    padding on either side."""
    m, cout = w_shape[:2]
    size = int(np.prod(w_shape[1:]))
    wide = np.full((m, 1 + size + cout + 1), np.nan, dtype=np.float32)
    return wide[:, 1 : 1 + size].reshape(w_shape), wide[:, 1 + size : -1]


def check_gradient_views(out, gw, gb):
    """With ``out``, the kernel returned its views, and they are not copies."""
    if out is not None:
        assert gw.base is out[0].base and gb.base is out[1].base


@settings(max_examples=40, deadline=None, print_blob=True)
@given(runs=RUNS, into_views=st.booleans(), seed=st.integers(0, 2**16))
def test_dense_over_runs_equals_one_client_calls(runs, into_views, seed):
    # with ``into_views`` the stacked call writes its parameter gradients
    # into views of a wider array, as network.backward has it do
    rng = np.random.default_rng(seed)
    m, n = sum(c for c, _ in runs), sum(c * b for c, b in runs)
    x = rng.standard_normal((n, 5)).astype(np.float32)
    w = rng.standard_normal((m, 3, 5)).astype(np.float32)
    b = rng.standard_normal((m, 3)).astype(np.float32)
    g = rng.standard_normal((n, 3)).astype(np.float32)
    views = gradient_views(w.shape) if into_views else None
    out, cache = dense_forward(x, w, b, runs)
    gx, gw, gb = dense_backward(g, cache, w, True, runs, views)
    check_gradient_views(views, gw, gb)
    for i, rows in client_rows(runs):
        one, one_cache = dense_forward(x[rows], w[i : i + 1], b[i : i + 1])
        one_gx, one_gw, one_gb = dense_backward(g[rows], one_cache, w[i : i + 1], True)
        assert_same_bytes(
            [out[rows], gx[rows], gw[i], gb[i]], [one, one_gx, one_gw[0], one_gb[0]]
        )


@settings(max_examples=25, deadline=None, print_blob=True)
@given(
    runs=RUNS,
    padding=st.integers(0, 1),
    cout=st.sampled_from([1, 4]),
    chunk=st.sampled_from([1, 2, 3, None]),
    into_views=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_over_runs_equals_one_client_calls(runs, padding, cout, chunk, into_views, seed):
    # the stacked call copies columns ``chunk`` samples at a time (None: the
    # whole batch at once), whatever the run boundaries, and with
    # ``into_views`` writes its parameter gradients into views of a wider
    # array, as network.backward has it do; each client alone copies its
    # batch unchunked. Both add the bias tiled over each sample, which must
    # equal broadcasting it over every row of each client's GEMM
    rng = np.random.default_rng(seed)
    m, n = sum(c for c, _ in runs), sum(c * b for c, b in runs)
    x = rng.standard_normal((n, 4, 4, 2)).astype(np.float32)
    w = rng.standard_normal((m, cout, 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal((m, cout)).astype(np.float32)
    side = 2 + 2 * padding  # of the output
    g = rng.standard_normal((n, side, side, cout)).astype(np.float32)
    sample_bytes = side * side * 2 * 3 * 3 * 4  # one sample's float32 columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "CHUNK_BYTES", (chunk or n) * sample_bytes)
        views = gradient_views(w.shape) if into_views else None
        out, cache = conv2d_forward(x, w, b, padding, runs)
        gx, gw, gb = conv2d_backward(g, cache, w, padding, True, runs, views)
        check_gradient_views(views, gw, gb)
    wt = w.reshape(m, cout, -1).transpose(0, 2, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "CHUNK_BYTES", 1 << 40)
        for i, rows in client_rows(runs):
            one, one_cache = conv2d_forward(x[rows], w[i : i + 1], b[i : i + 1], padding)
            one_gx, one_gw, one_gb = conv2d_backward(g[rows], one_cache, w[i : i + 1], padding, True)
            assert_same_bytes(
                [out[rows], gx[rows], gw[i], gb[i]], [one, one_gx, one_gw[0], one_gb[0]]
            )
            broadcast = one_cache[0][None] @ wt[i : i + 1] + b[i : i + 1, None]
            assert_same_bytes([out[rows], one], [broadcast.reshape(one.shape)] * 2)


@settings(max_examples=40, deadline=None)
@given(runs=RUNS, seed=st.integers(0, 2**16))
def test_softmax_over_runs_equals_one_client_calls(runs, seed):
    rng = np.random.default_rng(seed)
    n = sum(c * b for c, b in runs)
    logits = rng.standard_normal((n, 6)).astype(np.float32)
    labels = rng.integers(0, 6, size=n)
    loss, grad = softmax_cross_entropy(logits, labels, runs)
    for i, rows in client_rows(runs):
        one_loss, one_grad = softmax_cross_entropy(logits[rows], labels[rows], 1)
        assert_same_bytes([loss[i : i + 1], grad[rows]], [one_loss, one_grad])


# --- masked backward: only what the mask trains -------------------------------

# an MLP, and a conv2 network whose relus run inside their max-pools, over
# (N, 5) and (N, 2, 4, 4) batches
MASKED_NETS = {
    "mlp": ([fs.dense(5, 6), fs.relu(), fs.dense(6, 4), fs.relu(), fs.dense(4, 3)], (5,)),
    "conv2": (
        [
            fs.conv2d(2, 3, 3, padding=1), fs.relu(), fs.maxpool2d(2),
            fs.conv2d(3, 4, 3, padding=1), fs.relu(), fs.maxpool2d(2),
            fs.flatten(), fs.dense(4, 3),
        ],
        (2, 4, 4),
    ),
}


def stacked_net(kind, m, seed):
    """A network over an (m, P) stack of differently drawn clients."""
    specs, _ = MASKED_NETS[kind]
    nets = [fs.init_network(specs, fs.InitScheme("he_uniform", seed + i)) for i in range(m)]
    return nets[0].with_params(fs.ParamVector.stack([n.params for n in nets]))


@settings(max_examples=20, deadline=None, print_blob=True)
@given(
    runs=RUNS,
    kind=st.sampled_from(sorted(MASKED_NETS)),
    part=st.sampled_from(["full", "body", "head"]),
    seed=st.integers(0, 2**16),
)
def test_masked_backward_equals_full_backward_on_trained_segments(runs, kind, part, seed):
    # the trained segments hold the full backward's bytes, the others exact
    # (+0.0) zeros; the loss does not depend on the mask
    m, n = sum(c for c, _ in runs), sum(c * b for c, b in runs)
    net = stacked_net(kind, m, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *MASKED_NETS[kind][1])).astype(np.float32)
    labels = rng.integers(0, 3, size=n)
    _, cache = fs.forward(net, x, runs)
    full_loss, full = fs.backward(net, cache, labels)
    mask = net.mask_for(part)
    loss, grads = fs.backward(net, cache, labels, mask)
    part = mask.scalars(net.params)
    outside = np.concatenate([grads.data[:, : part.start], grads.data[:, part.stop :]], axis=1)
    assert_same_bytes([loss, grads.data[:, part]], [full_loss, full.data[:, part]])
    assert outside.tobytes() == bytes(outside.nbytes)


def counted_backward_kernels(monkeypatch):
    """A list that grows by one (kernel, input grad computed, weight grad
    computed) at each backward kernel call of ``network.backward``."""
    calls = []
    for name in ("dense", "conv2d", "relu", "maxpool2d", "flatten"):
        kernel = getattr(fs.network, f"{name}_backward")

        def counted(*args, _name=name, _kernel=kernel):
            out = _kernel(*args)
            weighted = _name in ("dense", "conv2d")
            calls.append((_name, out[0] is not None, out[1] is not None) if weighted else (_name,))
            return out

        monkeypatch.setattr(fs.network, f"{name}_backward", counted)
    return calls


# (kernel, input grad, weight grad) per backward kernel call, head first
DENSE, DENSE_NO_GX, DENSE_NO_GW = ("dense", True, True), ("dense", False, True), ("dense", True, False)
CONV, CONV_NO_GX = ("conv2d", True, True), ("conv2d", False, True)
POOL, FLAT, RELU = ("maxpool2d",), ("flatten",), ("relu",)


@pytest.mark.parametrize(
    "kind, segments, want",
    [
        # full: every layer, and no input gradient of the first
        ("mlp", (0, 3), [DENSE, RELU, DENSE, RELU, DENSE_NO_GX]),
        ("conv2", (0, 3), [DENSE, FLAT, POOL, CONV, POOL, CONV_NO_GX]),
        # body: the frozen head's input gradient only
        ("mlp", (0, 2), [DENSE_NO_GW, RELU, DENSE, RELU, DENSE_NO_GX]),
        ("conv2", (0, 2), [DENSE_NO_GW, FLAT, POOL, CONV, POOL, CONV_NO_GX]),
        # head: one call, with no input gradient, and nothing below it
        ("mlp", (2, 3), [DENSE_NO_GX]),
        ("conv2", (2, 3), [DENSE_NO_GX]),
        # the middle layer and the head: nothing below the middle layer
        ("mlp", (1, 3), [DENSE, RELU, DENSE_NO_GX]),
        ("conv2", (1, 3), [DENSE, FLAT, POOL, CONV_NO_GX]),
    ],
)
def test_masked_backward_runs_no_kernel_whose_result_is_not_read(monkeypatch, kind, segments, want):
    net = stacked_net(kind, 3, 0)
    x = np.random.default_rng(5).standard_normal((12, *MASKED_NETS[kind][1])).astype(np.float32)
    _, cache = fs.forward(net, x, [(2, 5), (1, 2)])
    calls = counted_backward_kernels(monkeypatch)
    fs.backward(net, cache, np.arange(12) % 3, fs.ParamMask(*segments))
    assert calls == want


def test_runs_of_groups_neighbouring_equal_sizes():
    assert runs_of([5, 5, 3, 5, 1, 1]) == [(2, 5), (1, 3), (1, 5), (2, 1)]
    assert runs_of([]) == []
