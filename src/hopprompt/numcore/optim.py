"""Adam with bias correction and decoupled weight decay, and the one
training loop built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (DegenerateRowError, DimensionError, DivergenceError, NumericError,
                      ParameterError)
from .tensor import Gradients, Tensor, backward


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


# entries per block of `adam_step`'s pass, 128 KiB temporaries that stay in L2
# (at 4,096, pre-training's 41k entries stepped 10 % slower than per parameter)
_ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """Per-parameter moments `m` and `v`, views of the two rows of one
    (2, entries) buffer `flat`, plus the learning rate and decay."""

    lr: float
    weight_decay: float
    flat: np.ndarray
    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor], lr: float,
                   weight_decay: float = 0.0) -> "AdamState":
        offsets = np.cumsum([0] + [p.data.size for p in params])
        flat = np.zeros((2, offsets[-1]))
        m, v = ([row[lo:hi].reshape(p.shape)
                 for p, lo, hi in zip(params, offsets, offsets[1:])] for row in flat)
        return cls(lr=lr, weight_decay=weight_decay, flat=flat, m=m, v=v)


def adam_step(params: list[Tensor], grads: Gradients, state: AdamState):
    """One Adam update; rebinds each param's data array (old arrays stay valid).

    Decay is decoupled and applied before the moment update:
    param <- param - lr * weight_decay * param. Adam is elementwise, so the
    moments and the step are one pass over every parameter's entries at once,
    block by block, with the per-parameter update's expressions in its order.
    """
    if len(state.m) != len(params):
        raise DimensionError(f"adam_step: state tracks {len(state.m)} params, got {len(params)}")
    gs = [grads.get(p) for p in params]
    for i, (p, g) in enumerate(zip(params, gs)):
        if g.shape != p.shape or state.m[i].shape != p.shape:
            raise DimensionError(
                f"adam_step: param {i} shape {p.shape} vs grad {g.shape} / moment {state.m[i].shape}"
            )
    state.step_count += 1
    if not params:
        return
    bc1, bc2 = 1.0 - BETA1**state.step_count, 1.0 - BETA2**state.step_count
    step = np.concatenate([g.ravel() for g in gs])
    for lo in range(0, step.size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        g, (m, v) = step[blk], state.flat[:, blk]
        # in place: m * BETA1 is BETA1 * m, and a + b is b + a, bit for bit
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # the block's gradients are read, and its step takes their place
        np.divide(state.lr * (m / bc1), np.sqrt(v / bc2) + EPS, out=g)
    end = 0
    for i, p in enumerate(params):
        start, end = end, end + p.data.size
        new = p.data
        if state.weight_decay:
            new = new - state.lr * state.weight_decay * new
        new = new - step[start:end].reshape(p.shape)
        if not np.isfinite(new).all():
            raise NumericError(f"adam_step: param {i} became non-finite")
        p.data = new


def fit(steps, trainables: list[Tensor], *, lr: float, weight_decay: float,
        epochs: int, patience: int | None, what: str) -> tuple[list[float], int]:
    """Adam for at most `epochs` epochs: one step per (loss, weight) pair
    that `steps(epoch)` yields, the epoch's loss being sum(loss * weight) /
    sum(weight).

    With `patience` set, stops once that loss has failed to improve (by more
    than 1e-12) for more than `patience` epochs in a row, then restores the
    best epoch's weights; with None every epoch runs and the last weights
    stay. A negative or non-finite `lr` or `weight_decay` raises
    ParameterError before any step; a non-finite value or a degenerate row
    raises DivergenceError naming `what`, the epoch and the learning rate.
    Returns the loss of every epoch run and the best epoch (-1 when none ran).
    """
    for name, value in (("lr", lr), ("weight_decay", weight_decay)):
        if not (np.isfinite(value) and value >= 0):
            raise ParameterError(f"{what}: {name} must be finite and >= 0, got {value}")
    state = AdamState.for_params(trainables, lr=lr, weight_decay=weight_decay)
    losses: list[float] = []
    best, best_epoch, saved, stale = np.inf, -1, None, 0
    for epoch in range(epochs):
        total, count = 0.0, 0
        try:
            for loss, weight in steps(epoch):
                adam_step(trainables, backward(loss), state)
                total += loss.item() * weight
                count += weight
        except (NumericError, DegenerateRowError) as e:
            raise DivergenceError(f"{what} diverged: {e}", epoch=epoch, lr=lr) from e
        value = total / count
        losses.append(value)
        if value < best - 1e-12:
            best, best_epoch, stale = value, epoch, 0
            if patience is not None:
                # by reference: no op and no step writes into a parameter's
                # array, and `adam_step` rebinds each one to a fresh array
                saved = [t.data for t in trainables]
        else:
            stale += 1
            if patience is not None and stale > patience:
                break
    if saved is not None:
        for t, data in zip(trainables, saved):
            t.data = data
    return losses, best_epoch
