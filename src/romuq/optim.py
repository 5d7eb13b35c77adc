"""Adam optimiser with bias correction, operating on engine tensors."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .tensor import ShapeError, Tensor


class AdamState:
    """Flat first/second moments over all parameters, in order, plus work
    buffers of the same length and the shared timestep counter."""

    def __init__(self, params: Sequence[Tensor]):
        self.offsets = list(itertools.accumulate((p.data.size for p in params), initial=0))
        self.m, self.v, self.g, self.a, self.b = (np.zeros(self.offsets[-1]) for _ in range(5))
        self.t = 0


def adam_step(params: Sequence[Tensor], grads: Sequence[Optional[np.ndarray]],
              state: AdamState, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One in-place Adam update over ``params``, with their gradients
    gathered into one flat vector (a ``None`` gradient reads as zeros);
    returns the advanced state."""
    if not len(params) == len(grads) == len(state.offsets) - 1:
        raise ShapeError("adam_step", (len(params),), (len(grads),), (len(state.offsets) - 1,))
    spans = list(zip(params, grads, state.offsets, state.offsets[1:]))
    g, m, v, a, b = state.g, state.m, state.v, state.a, state.b
    for p, gi, lo, hi in spans:
        if (gi is not None and gi.shape != p.data.shape) or hi - lo != p.data.size:
            raise ShapeError("adam_step", p.data.shape, p.data.shape if gi is None else gi.shape)
        g[lo:hi] = 0.0 if gi is None else gi.ravel()
    state.t += 1
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=a)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, g, out=b), g, out=b)
    np.divide(m, 1.0 - beta1 ** state.t, out=a)
    np.sqrt(np.divide(v, 1.0 - beta2 ** state.t, out=b), out=b)
    b += eps
    a *= lr
    a /= b
    for p, _, lo, hi in spans:
        p.data -= a[lo:hi].reshape(p.data.shape)
    return state


class Adam:
    """Convenience wrapper binding parameters, state and hyperparameters."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = AdamState(self.params)

    def step(self):
        adam_step(self.params, [p.grad for p in self.params], self.state,
                  self.lr, self.beta1, self.beta2, self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
