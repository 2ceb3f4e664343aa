"""How fast this host runs right now, from a fixed reference task.

The benchmark's host is a share of a machine whose speed drops by up to
40% with the other tenants' load, for seconds at a time and at times for
minutes. Wall times taken minutes apart therefore move with the host as
much as with the program. So the benchmark runs this reference task right
before and right after each span it times, and scales the span's wall time
to the host speed at which the task takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(task time before, task time after)

The task is the benchmark's own numpy code and never calls fedsim, so a
change to fedsim cannot change it; it is the same for every workload and
seed. It mixes what the workloads spend their time on: small-array MLP
steps, bound by per-call Python and numpy overhead, and im2col convolution
matmuls on arrays larger than the L2 cache.
"""

from __future__ import annotations

import time

import numpy as np

# The task's time on the host the benchmark was defined on (2 vCPUs of a
# shared x86-64 host, numpy 2.4 with scipy-openblas on one thread) when it
# ran fast. It sets the scale only: reported times read as seconds there.
REFERENCE_S = 0.13

MLP_STEPS = 1500
CONV_STEPS = 8

_rng = np.random.default_rng(12345)
_X = _rng.normal(size=(50, 48))
_W1 = _rng.normal(size=(64, 48)) * 0.1
_W2 = _rng.normal(size=(10, 64)) * 0.1
_LABELS = _rng.integers(0, 10, size=50)
_IMG = _rng.normal(size=(50, 8, 14, 14))
_CW = _rng.normal(size=(16, 72)) * 0.1


def _mlp_step() -> float:
    h = _X @ _W1.T
    mask = h > 0
    r = h * mask
    logits = r @ _W2.T
    logits = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(_LABELS)), _LABELS] -= 1.0
    gw2 = p.T @ r
    gh = (p @ _W2) * mask
    gw1 = gh.T @ _X
    return float(gw1[0, 0] + gw2[0, 0])


def _conv_step() -> float:
    x = np.pad(_IMG, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 72)
    out = cols @ _CW.T
    gw = out.T @ cols
    gcols = out @ _CW
    return float(gw[0, 0] + gcols[0, 0])


def reference_s() -> float:
    """Wall time of one run of the reference task, in seconds."""
    t0 = time.perf_counter()
    for _ in range(MLP_STEPS):
        _mlp_step()
    for _ in range(CONV_STEPS):
        _conv_step()
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that scales a wall time to the reference host speed, from the
    reference task times right before and right after it."""
    return 2 * REFERENCE_S / (before + after)
