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

    def lr_at(self, update_index: int) -> float:
        if not 0 <= update_index < self.total_updates:
            raise ValueError(
                f"update index {update_index} outside [0, {self.total_updates})"
            )
        if update_index < self.total_updates // 2:
            return self.base_lr
        if update_index < (3 * self.total_updates) // 4:
            return self.base_lr * 0.1
        return self.final_lr

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
) -> None:
    """One masked momentum-SGD step, in place, on the scalars of ``mask``'s
    segment range.

    Masked-out segments (and their momentum buffers) are left bit-untouched.
    With ``prox=(mu, anchor)`` the effective gradient on masked-in segments
    becomes ``g + mu * (params - anchor)``. On an (M, P) stack every row is
    its own client: its own gradient, momentum buffer and anchor row, and
    ``lr`` may be an (M, 1) float32 column of per-row rates.
    """
    params.require_same_segmentation(grads)
    part = mask.scalars(params)
    lr32 = np.asarray(lr, dtype=FLOAT)
    if lr32.min() < 0:
        raise ValueError("learning rate must be non-negative")
    m32 = FLOAT(opt.momentum)
    p = params.data[..., part]
    g = grads.data[..., part]
    if prox is not None:
        mu, anchor = prox
        if mu < 0:
            raise ValueError("proximal coefficient must be non-negative")
        params.require_same_segmentation(anchor)
        g = g + FLOAT(mu) * (p - anchor.data[..., part])
    buf = opt.buffers.data[..., part]
    buf *= m32
    buf += g
    p -= lr32 * buf
