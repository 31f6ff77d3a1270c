"""Adam with bias correction and decoupled weight decay, and the one
training loop built on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (DegenerateRowError, DimensionError, DivergenceError, NumericError,
                      ParameterError)
from .tensor import Gradients, Tensor, backward


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter moments plus the learning rate and decay."""

    lr: float
    weight_decay: float = 0.0
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor], lr: float,
                   weight_decay: float = 0.0) -> "AdamState":
        return cls(
            lr=lr, weight_decay=weight_decay,
            m=[np.zeros(p.shape) for p in params],
            v=[np.zeros(p.shape) for p in params],
        )


def adam_step(params: list[Tensor], grads: Gradients, state: AdamState):
    """One Adam update; rebinds each param's data array (old arrays stay valid).

    Decay is decoupled and applied before the moment update:
    param <- param - lr * weight_decay * param.
    """
    if len(state.m) != len(params):
        raise DimensionError(f"adam_step: state tracks {len(state.m)} params, got {len(params)}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for i, p in enumerate(params):
        g = grads.get(p)
        if g.shape != p.shape or state.m[i].shape != p.shape:
            raise DimensionError(
                f"adam_step: param {i} shape {p.shape} vs grad {g.shape} / moment {state.m[i].shape}"
            )
        new = p.data
        if state.weight_decay:
            new = new - state.lr * state.weight_decay * new
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        new = new - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
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
                saved = [t.data.copy() for t in trainables]
        else:
            stale += 1
            if patience is not None and stale > patience:
                break
    if saved is not None:
        for t, data in zip(trainables, saved):
            t.data = data
    return losses, best_epoch
