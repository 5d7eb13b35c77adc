"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors hold float64 numpy arrays. Primitive ops record themselves on the
active :class:`Tape` whenever any input requires gradients; ``backward``
replays the tape in reverse and accumulates gradients additively.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import NonFiniteError


def _keep_temporaries_on_the_heap():
    """Fix glibc's mmap threshold at 4 MB and its trim threshold at 8 MB.
    glibc starts at 128 KB and raises them only after freeing a larger mapped
    block, so until then every ~1.3 MB training temporary took fresh
    zero-filled pages (README, Layout). Other C libraries are left alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_keep_temporaries_on_the_heap()


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class Tensor:
    """Dense float64 tensor with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def accumulate_grad(self, g: np.ndarray):
        """Keep the first gradient as given and add later ones out of place:
        no gradient is updated in place, so tensors may share one array."""
        self.grad = g if self.grad is None else self.grad + g


class _TapeEntry:
    __slots__ = ("name", "inputs", "output", "backward_fn")

    def __init__(self, name, inputs, output, backward_fn):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed primitives, in topological order."""

    def __init__(self):
        self.ops: list[_TapeEntry] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _all_finite(x: np.ndarray) -> bool:
    """True when every element of ``x`` is finite. A finite sum of squares
    proves it, so only a non-finite one needs the elementwise test; np.vdot
    (unlike a sum) raises no floating-point warning when it overflows."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _record(name: str, inputs: tuple, out_data: np.ndarray,
            backward_fn: Callable) -> Tensor:
    """Wrap a primitive's float64 output, refusing a non-finite one, and
    append it to the active tape when an input requires gradients."""
    if not _all_finite(out_data):
        raise NonFiniteError(name)
    out = object.__new__(Tensor)  # skips __init__'s cast: the output is float64
    # already, and a ufunc on a 0-d array returns the one non-array, a scalar
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out.requires_grad, out.grad = False, None
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _TAPE_STACK[-1].ops.append(_TapeEntry(name, inputs, out, backward_fn))
                break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape) from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record("scale", (a,), a.data * c, bwd)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a @ b``, plus ``bias`` (broadcast, added out of place) when given."""
    inputs = (a, b) if bias is None else (a, b, bias)
    a_shape, b_shape = a.data.shape, b.data.shape
    if not a_shape or len(b_shape) < 2 or a_shape[-1] != b_shape[-2]:
        raise ShapeError("matmul", *(t.shape for t in inputs))
    try:
        out = np.matmul(a.data, b.data)
        if bias is not None:
            out = out + bias.data
    except ValueError:
        raise ShapeError("matmul", *(t.shape for t in inputs)) from None

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if a.data.ndim > 2 and b.data.ndim == 2:
            # one GEMM over the flattened rows, not a stack of per-batch
            # products for _unbroadcast to sum
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb) if bias is None else (ga, gb, _unbroadcast(g, bias.shape))

    return _record("matmul", inputs, out, bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _record("exp", (a,), out, bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return _record("gelu", (a,), out, bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis."""
    shifted = a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=-1, keepdims=True)

    def bwd(g):
        dot = np.add.reduce(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", (a,), out, bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor,
               residual: Optional[Tensor] = None) -> Tensor:
    """Normalise the last axis to zero mean and unit variance (1e-9 is added
    to the variance), then scale by ``gamma`` and shift by ``beta``. With
    ``residual``, ``a + residual`` (broadcast) is normalised; a non-finite
    sum shows as a non-finite output."""
    x = a.data
    if residual is not None:
        try:
            x = x + residual.data
        except ValueError:
            raise ShapeError("layer_norm", a.data.shape, residual.data.shape) from None
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-9)
    norm = xc * inv

    def bwd(g):
        gn = g * gamma.data
        gm = np.add.reduce(gn, axis=-1, keepdims=True) / n
        gy = np.add.reduce(gn * norm, axis=-1, keepdims=True) / n
        gx = (gn - gm - norm * gy) * inv
        grads = (_unbroadcast(gx, a.shape), _unbroadcast(g * norm, gamma.shape),
                 _unbroadcast(g, beta.shape))
        return grads if residual is None else grads + (_unbroadcast(gx, residual.shape),)

    inputs = (a, gamma, beta) if residual is None else (a, gamma, beta, residual)
    return _record("layer_norm", inputs, norm * gamma.data + beta.data, bwd)


def _reshaped(op: str, x: np.ndarray, shape) -> np.ndarray:
    try:
        return x.reshape(shape)
    except ValueError:
        raise ShapeError(op, x.shape, tuple(shape)) from None


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.data.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _record("reshape", (a,), _reshaped("reshape", a.data, shape), bwd)


def transpose(a: Tensor, axes, shape=None) -> Tensor:
    """``a`` with its axes permuted; with ``shape``, reshaped to it first."""
    in_shape = a.data.shape
    x = a.data if shape is None else _reshaped("transpose", a.data, shape)
    axes = tuple(axes)

    def bwd(g):
        g = g.transpose(np.argsort(axes))
        return (g if shape is None else g.reshape(in_shape),)

    return _record("transpose", (a,), x.transpose(axes), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        s = list(t.shape)
        if len(s) != len(base) or any(x != y for i, (x, y) in enumerate(zip(s, base)) if i != axis % len(base)):
            raise ShapeError("concat", tensors[0].shape, t.shape)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors), initial=0))

    def bwd(g):
        return tuple(g[lead + (slice(start, stop),)]
                     for start, stop in zip(offsets, offsets[1:]))

    return _record("concat", tuple(tensors), out, bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    shape = a.data.shape
    if not (0 <= start < stop <= shape[axis]):
        raise ShapeError("slice", shape, (axis, start, stop))
    idx = (slice(None),) * (axis % len(shape)) + (slice(start, stop),)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _record("slice", (a,), a.data[idx], bwd)


def tensor_sum(a: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        def bwd(g):
            return (np.broadcast_to(g, a.shape).copy(),)

        return _record("sum", (a,), np.asarray(a.data.sum()), bwd)

    def bwd(g):
        return (np.repeat(np.expand_dims(g, axis), a.shape[axis], axis=axis),)

    return _record("sum", (a,), a.data.sum(axis=axis), bwd)


def tensor_mean(a: Tensor) -> Tensor:
    """Mean over all elements."""
    n = a.size

    def bwd(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record("mean", (a,), np.asarray(a.data.mean()), bwd)


def backward(tape: Tape, loss: Tensor):
    """Populate ``grad`` on every requires_grad tensor reachable from loss.

    Consumes the tape: each entry, once its gradient has been passed back,
    keeps only its ``name``, and its output drops its gradient, so the
    activations and intermediate gradients are freed as the replay goes.
    Call it once per tape."""
    if loss.data.ndim != 0 and loss.size != 1:
        raise ShapeError("backward", loss.shape)
    loss.accumulate_grad(np.ones_like(loss.data))
    for entry in reversed(tape.ops):
        out, inputs, fn = entry.output, entry.inputs, entry.backward_fn
        entry.output = entry.inputs = entry.backward_fn = None
        g, out.grad = out.grad, None
        if g is not None:
            for t, gi in zip(inputs, fn(g)):
                if t.requires_grad and gi is not None:
                    t.accumulate_grad(gi)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    d = sub(a, b)
    return tensor_mean(mul(d, d))


class Params:
    """A model's trainable tensors under dotted names, in registration
    order; linear weights are drawn from ``rng`` in that order."""

    def __init__(self, prefix: str, rng: np.random.Generator):
        self.prefix = prefix
        self.rng = rng
        self.named: list[tuple[str, Tensor]] = []

    def add(self, name: str, data) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self.named.append((self.prefix + name, t))
        return t

    def linear(self, name: str, n_in: int, n_out: int):
        """Glorot-normal weight and zero bias."""
        w = self.rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / (n_in + n_out))
        return self.add(f"{name}.w", w), self.add(f"{name}.b", np.zeros(n_out))

    def affine(self, name: str, dim: int):
        """Unit gain and zero shift: the affine pair of a layer norm."""
        return (self.add(f"{name}.gamma", np.ones(dim)),
                self.add(f"{name}.beta", np.zeros(dim)))
