"""Adam with bias correction and decoupled weight decay, and the one
full-batch training loop built on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateRowError, DimensionError, DivergenceError, NumericError
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
    return params, state


def fit(loss_fn, trainables: list[Tensor], *, lr: float, weight_decay: float,
        epochs: int, patience: int | None, what: str) -> tuple[list[float], int]:
    """Adam on `loss_fn()` for at most `epochs` epochs.

    Stops once the training loss has failed to improve (by more than 1e-12)
    for more than `patience` epochs in a row (never when None), then restores
    the best epoch's weights. A non-finite value or a degenerate row raises
    DivergenceError naming `what`, the epoch and the learning rate. Returns
    the loss of every epoch run and the best epoch (-1 when none ran).
    """
    state = AdamState.for_params(trainables, lr=lr, weight_decay=weight_decay)
    losses: list[float] = []
    best, best_epoch, saved = np.inf, -1, None
    stale = 0
    for epoch in range(epochs):
        try:
            loss = loss_fn()
            grads = backward(loss)
            adam_step(trainables, grads, state)
        except (NumericError, DegenerateRowError) as e:
            raise DivergenceError(f"{what} diverged: {e}", epoch=epoch, lr=lr) from e
        value = loss.item()
        losses.append(value)
        if value < best - 1e-12:
            best, best_epoch, saved = value, epoch, [t.data.copy() for t in trainables]
            stale = 0
        else:
            stale += 1
            if patience is not None and stale > patience:
                break
    if saved is not None:
        for t, data in zip(trainables, saved):
            t.data = data
    return losses, best_epoch
