"""Momentum SGD with per-layer masks, proximal term, and step-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import FLOAT, ParamMask, ParamVector


@dataclass(frozen=True)
class LRSchedule:
    """Step decay: base rate, then x0.1 at half and at three-quarters of
    the total update budget."""

    base_lr: float = 0.1
    total_updates: int = 1
    decay_factor: float = 0.1

    @property
    def decay_points(self) -> tuple[int, int]:
        return (self.total_updates // 2, (3 * self.total_updates) // 4)

    def lr_at(self, update_index: int) -> float:
        if not 0 <= update_index < self.total_updates:
            raise ValueError(
                f"update index {update_index} outside [0, {self.total_updates})"
            )
        half, three_quarters = self.decay_points
        if update_index < half:
            return self.base_lr
        if update_index < three_quarters:
            return self.base_lr * self.decay_factor
        return self.base_lr * self.decay_factor**2


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
    lr: float,
    mask: ParamMask,
    prox: tuple[float, ParamVector] | None = None,
) -> None:
    """One masked momentum-SGD step, in place.

    Masked-out segments (and their momentum buffers) are left bit-untouched.
    With ``prox=(mu, anchor)`` the effective gradient on masked-in segments
    becomes ``g + mu * (params - anchor)``.
    """
    params.require_same_segmentation(grads)
    mask.check(params)
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    lr32 = FLOAT(lr)
    m32 = FLOAT(opt.momentum)
    mu32 = None
    if prox is not None:
        mu, anchor = prox
        if mu < 0:
            raise ValueError("proximal coefficient must be non-negative")
        params.require_same_segmentation(anchor)
        mu32 = FLOAT(mu)
    # masked-in segments merged into contiguous ranges; the update is
    # elementwise, so the bits equal those of a loop over segments
    runs: list[list[int]] = []
    for i in mask.selected():
        start, end = params.bounds[i]
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])
    for start, end in runs:
        p = params.data[start:end]
        g = grads.data[start:end]
        if mu32 is not None:
            g = g + mu32 * (p - prox[1].data[start:end])
        buf = opt.buffers.data[start:end]
        buf *= m32
        buf += g
        p -= lr32 * buf
