"""Momentum SGD with per-layer masks, proximal term, and step-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FLOAT, ParamMask, ParamVector


@dataclass(frozen=True)
class LRSchedule:
    """Step decay: base rate, then x0.1 at half and at three-quarters of
    the total update budget."""

    base_lr: float = 0.1
    total_updates: int = 1

    def rates(self, start: int, count: int) -> np.ndarray:
        """The float64 rates of updates start .. start + count - 1."""
        if count < 0 or start < 0 or start + count > self.total_updates:
            raise ValueError(
                f"updates {start}..{start + count - 1} outside [0, {self.total_updates})"
            )
        u = np.arange(start, start + count)
        decayed = np.where(u < (3 * self.total_updates) // 4, self.base_lr * 0.1, self.final_lr)
        return np.where(u < self.total_updates // 2, self.base_lr, decayed)

    def lr_at(self, update_index: int) -> float:
        return float(self.rates(update_index, 1)[0])

    @property
    def final_lr(self) -> float:
        """The rate of the last quarter, after both decays."""
        return self.base_lr * 0.1**2


@dataclass
class OptState:
    """Momentum buffers, zeroed on creation, one slot per parameter."""

    buffers: ParamVector
    momentum: float = 0.9

    @classmethod
    def for_params(cls, params: ParamVector, momentum: float = 0.9) -> "OptState":
        return cls(params.zeros_like(), momentum)


def sgd_step(
    params: ParamVector,
    grads: ParamVector,
    opt: OptState,
    lr: float | np.ndarray,
    mask: ParamMask,
    prox: tuple[float, ParamVector] | None = None,
    rows: slice | None = None,
) -> None:
    """One masked momentum-SGD step, in place, on the scalars of ``mask``'s
    segment range.

    Masked-out segments (and their momentum buffers) are left bit-untouched.
    With ``prox=(mu, anchor)`` the effective gradient on masked-in segments
    becomes ``g + mu * (params - anchor)``. On an (M, P) stack every row is
    its own client: its own gradient, momentum buffer and anchor row, and
    ``lr`` may be an (M, 1) float32 column of per-row rates. ``rows``, a
    slice, steps only those rows of the stacks ``params``, ``grads`` and
    ``opt.buffers``; a column ``lr`` and the anchor then hold one row per
    stepped row.
    """
    params.require_same_segmentation(grads)
    part = mask.scalars(params)
    at = (..., part) if rows is None else (rows, part)
    # a Python rate is converted once; a column's lowest entry is checked
    lr32 = FLOAT(lr) if isinstance(lr, (int, float)) else np.asarray(lr, dtype=FLOAT)
    if (lr32 if lr32.ndim == 0 else lr32.min()) < 0:
        raise ValueError("learning rate must be non-negative")
    m32 = FLOAT(opt.momentum)
    p = params.data[at]
    g = grads.data[at]
    buf = opt.buffers.data[at]
    scratch = None
    if prox is not None:
        mu, anchor = prox
        if mu < 0:
            raise ValueError("proximal coefficient must be non-negative")
        params.require_same_segmentation(anchor)
        # g + mu * (p - anchor), and later lr * buf, in one scratch buffer
        scratch = np.subtract(p, anchor.data[..., part])
        scratch *= FLOAT(mu)
        g = np.add(scratch, g, out=scratch)
    buf *= m32
    buf += g
    p -= np.multiply(buf, lr32, out=scratch)
