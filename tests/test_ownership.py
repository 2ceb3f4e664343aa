"""Kernels write only into arrays their caller does not keep: a pass over a
dataset leaves its samples as they were, and an SGD step leaves its
gradients and its prox anchor as they were."""

import numpy as np
import pytest

import fedsim as fs
from fedsim.datasets import LabeledDataset
from fedsim.evaluation import accuracy
from fedsim.network import forward, representations
from fedsim.optim import OptState, sgd_step
from fedsim.params import ParamMask, ParamVector


def dataset(shape, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((12, *shape)).astype(np.float32)  # half negative
    return LabeledDataset(samples, rng.integers(0, 3, size=12), 3)


NETWORKS = {
    # relu reads a dense layer's fresh output
    "dense-relu-dense": (lambda: [fs.dense(6, 5), fs.relu(), fs.dense(5, 3)], (6,)),
    # relu reads flatten's output, a view of the caller's (N, C, H, W) batch
    "flatten-relu-dense": (lambda: [fs.flatten(), fs.relu(), fs.dense(2 * 3 * 3, 3)], (2, 3, 3)),
}


@pytest.mark.parametrize("name", NETWORKS)
def test_passes_leave_the_samples_byte_equal(name):
    layers, shape = NETWORKS[name]
    net = fs.init_network(layers(), fs.InitScheme("he_uniform", 1))
    ds = dataset(shape)
    before = ds.samples.copy()
    forward(net, ds.samples)
    representations(net, ds.samples)
    accuracy(net, ds)
    stack = net.with_params(ParamVector(np.stack([net.params.data] * 2), net.params.bounds))
    accuracy(stack, ds, [5, 7])
    assert ds.samples.tobytes() == before.tobytes()


@pytest.mark.parametrize("path", ["plain", "prox", "column"])
def test_sgd_step_leaves_grads_and_anchor_byte_equal(path):
    rng = np.random.default_rng(2)
    bounds = ((0, 4), (4, 7))

    def stack():
        return ParamVector(rng.standard_normal((3, 7)).astype(np.float32), bounds)

    params, grads, anchor = stack(), stack(), stack()
    kept = grads.data.copy(), anchor.data.copy()
    lr = np.array([[0.1], [0.2], [0.3]], np.float32) if path == "column" else 0.1
    prox = None if path == "plain" else (0.5, anchor)
    opt = OptState.for_params(params)
    for _ in range(2):
        sgd_step(params, grads, opt, lr, ParamMask.full(2), prox)
    assert grads.data.tobytes() == kept[0].tobytes()
    assert anchor.data.tobytes() == kept[1].tobytes()
