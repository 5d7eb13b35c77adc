"""Adam optimiser with bias correction, operating on engine tensors."""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed parameter list: flat first/second moments over all
    parameters, in order, the gathered gradient and one work buffer of the
    same length, and the shared timestep counter ``t``."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.offsets = list(itertools.accumulate((p.data.size for p in self.params), initial=0))
        self.m, self.v, self.g, self.a = (np.zeros(self.offsets[-1]) for _ in range(4))
        self.t = 0

    def step(self):
        """One in-place update that consumes every parameter's ``grad``: a
        missing one raises ValueError, and a misshapen or resized one
        ShapeError, before anything moves; after the update each is None.
        Once the second moment is updated ``g`` holds the denominator."""
        spans = list(zip(self.params, self.offsets, self.offsets[1:]))
        g, m, v, a = self.g, self.m, self.v, self.a
        for i, (p, lo, hi) in enumerate(spans):
            gi = p.grad
            if gi is None:
                raise ValueError(f"Adam.step: parameter {i} of shape {p.data.shape} "
                                 "has no gradient")
            if gi.shape != p.data.shape or hi - lo != p.data.size:
                raise ShapeError("Adam.step", p.data.shape, gi.shape)
            g[lo:hi] = gi.ravel()
        self.t += 1
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(1.0 - BETA2, g, out=a), g, out=a)
        np.divide(m, 1.0 - BETA1 ** self.t, out=a)
        np.sqrt(np.divide(v, 1.0 - BETA2 ** self.t, out=g), out=g)
        g += EPS
        a *= self.lr
        a /= g
        for p, lo, hi in spans:
            p.data -= a[lo:hi].reshape(p.data.shape)
            p.grad = None
