"""Adam optimiser with bias correction, operating on engine tensors."""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor


class Adam:
    """Adam over a fixed parameter list: flat first/second moments over all
    parameters, in order, work buffers of the same length and the shared
    timestep counter ``t``."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.offsets = list(itertools.accumulate((p.data.size for p in self.params), initial=0))
        self.m, self.v, self.g, self.a, self.b = (np.zeros(self.offsets[-1]) for _ in range(5))
        self.t = 0

    def step(self):
        """One in-place update, with the gradients gathered into one flat
        vector (a ``None`` gradient reads as zeros)."""
        spans = list(zip(self.params, self.offsets, self.offsets[1:]))
        g, m, v, a, b = self.g, self.m, self.v, self.a, self.b
        for p, lo, hi in spans:
            gi = p.grad
            if (gi is not None and gi.shape != p.data.shape) or hi - lo != p.data.size:
                raise ShapeError("Adam.step", p.data.shape, p.data.shape if gi is None else gi.shape)
            g[lo:hi] = 0.0 if gi is None else gi.ravel()
        self.t += 1
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(1.0 - self.beta2, g, out=b), g, out=b)
        np.divide(m, 1.0 - self.beta1 ** self.t, out=a)
        np.sqrt(np.divide(v, 1.0 - self.beta2 ** self.t, out=b), out=b)
        b += self.eps
        a *= self.lr
        a /= b
        for p, lo, hi in spans:
            p.data -= a[lo:hi].reshape(p.data.shape)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
