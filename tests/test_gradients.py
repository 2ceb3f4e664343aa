"""Backward-pass checks against a central finite-difference oracle."""

import numpy as np
import pytest

import fedsim as fs
from fedsim.params import ParamVector

EPS = 1e-4


def to_float64(net):
    params = ParamVector(net.params.data.astype(np.float64), net.params.bounds)
    return net.with_params(params)


def ce_loss(net, x, y):
    """Cross-entropy computed from forward logits alone (no backward)."""
    logits, _ = fs.forward(net, x)
    logits = logits.astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(y)), y]))


def fd_gradient(net, x, y, indices=None):
    """Central finite differences over parameter components."""
    base = net.params.data
    if indices is None:
        indices = range(base.shape[0])
    grad = {}
    for i in indices:
        saved = base[i]
        base[i] = saved + EPS
        up = ce_loss(net, x, y)
        base[i] = saved - EPS
        down = ce_loss(net, x, y)
        base[i] = saved
        grad[i] = (up - down) / (2 * EPS)
    return grad


def relative_errors(analytic, fd):
    errs = []
    for i, g_fd in fd.items():
        g = analytic[i]
        scale = max(abs(g), abs(g_fd), 1e-4)
        errs.append(abs(g - g_fd) / scale)
    return np.array(errs)


def test_mlp_gradients_match_finite_differences(mlp_net, rng):
    net = to_float64(mlp_net)
    x = rng.normal(size=(7, 6))
    y = rng.integers(0, 4, size=7)
    _, cache = fs.forward(net, x)
    _, grads = fs.backward(net, cache, y)
    fd = fd_gradient(net, x, y)
    assert relative_errors(grads.data, fd).max() < 1e-3


def test_conv_gradients_match_finite_differences(conv_net, rng):
    net = to_float64(conv_net)
    x = rng.normal(size=(5, 2, 4, 4))
    y = rng.integers(0, 3, size=5)
    _, cache = fs.forward(net, x)
    _, grads = fs.backward(net, cache, y)
    fd = fd_gradient(net, x, y)
    assert relative_errors(grads.data, fd).max() < 1e-3


def test_uniform_logits_loss_is_log_c():
    net = fs.init_network([fs.dense(5, 10)], (5,), fs.InitScheme("he_uniform", 2))
    net.params.data[:] = 0
    x = np.random.default_rng(0).normal(size=(8, 5)).astype(np.float32)
    y = np.arange(8) % 10
    _, cache = fs.forward(net, x)
    loss, _ = fs.backward(net, cache, y)
    assert abs(loss - np.log(10)) < 1e-6


def test_loss_nonnegative(mlp_net, rng):
    x = rng.normal(size=(6, 6)).astype(np.float32)
    y = rng.integers(0, 4, size=6)
    _, cache = fs.forward(mlp_net, x)
    loss, _ = fs.backward(mlp_net, cache, y)
    assert loss >= 0


def test_duplicated_batch_gives_same_gradients(mlp_net, rng):
    x = rng.normal(size=(5, 6)).astype(np.float32)
    y = rng.integers(0, 4, size=5)
    _, cache = fs.forward(mlp_net, x)
    loss1, g1 = fs.backward(mlp_net, cache, y)

    x2 = np.concatenate([x, x])
    y2 = np.concatenate([y, y])
    _, cache2 = fs.forward(mlp_net, x2)
    loss2, g2 = fs.backward(mlp_net, cache2, y2)

    assert abs(loss1 - loss2) < 1e-6
    np.testing.assert_allclose(g1.data, g2.data, rtol=1e-5, atol=1e-7)


def test_backward_label_out_of_range(mlp_net, rng):
    x = rng.normal(size=(3, 6)).astype(np.float32)
    _, cache = fs.forward(mlp_net, x)
    with pytest.raises(ValueError):
        fs.backward(mlp_net, cache, np.array([0, 1, 4]))


def test_gradient_segmentation_matches_params(mlp_net, rng):
    x = rng.normal(size=(4, 6)).astype(np.float32)
    y = rng.integers(0, 4, size=4)
    _, cache = fs.forward(mlp_net, x)
    _, grads = fs.backward(mlp_net, cache, y)
    assert grads.bounds == mlp_net.params.bounds
    assert np.all(np.isfinite(grads.data))
