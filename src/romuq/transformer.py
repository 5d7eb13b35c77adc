"""Latent-sequence forecaster: causal self-attention over the delay window,
conditioning on the external-parameter token, autoregressive rollout."""

from __future__ import annotations

from typing import Union

import numpy as np

from . import tensor as T
from .config import TransformerConfig
from .errors import RolloutDivergence
from .tensor import Tensor
from .vae import param_rows

MASK_FILL = -1e9


def sinusoidal_encoding(length: int, width: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(width // 2)[None, :]
    angles = pos / np.power(10000.0, 2 * i / width)
    enc = np.zeros((length, width))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc


def causal_mask(length: int) -> np.ndarray:
    return np.triu(np.full((length, length), MASK_FILL), k=1)


class AttentionBlock:
    """Masked self-attention, cross-attention to the parameter token, and a
    feed-forward sublayer; each followed by residual add + layer-norm."""

    def __init__(self, config: TransformerConfig, params: T.Params, index: int):
        d = config.width
        self.config = config
        self.mask = Tensor(causal_mask(config.lookback))

        def lin(name, n_in, n_out):
            return params.linear(f"block{index}.{name}", n_in, n_out)

        self.wq = lin("self_q", d, d)
        self.wk = lin("self_k", d, d)
        self.wv = lin("self_v", d, d)
        self.wo = lin("self_o", d, d)
        # the draws of the query and key projections that one-token
        # cross-attention never reads (see condition) keep later weights
        params.rng.standard_normal((2, d, d))
        self.cv = lin("cross_v", d, d)
        self.co = lin("cross_o", d, d)
        self.ff1 = lin("ff1", d, config.ff_mult * d)
        self.ff2 = lin("ff2", config.ff_mult * d, d)
        self.ln1 = params.affine(f"block{index}.ln1", d)
        self.ln2 = params.affine(f"block{index}.ln2", d)
        self.ln3 = params.affine(f"block{index}.ln3", d)

    def _heads_split(self, x: Tensor, batch: int, length: int,
                     axes=(0, 2, 1, 3)) -> Tensor:
        """``(B, L, width)`` to ``(B, H, L, dh)``, or the ``axes`` order of
        ``(B, L, H, dh)``. A length-1 axis moves by a reshape alone."""
        c = self.config
        shape = (batch, length, c.heads, c.width // c.heads)
        if length == 1:
            return T.reshape(x, [shape[a] for a in axes])
        return T.transpose(x, axes, shape)

    def _heads_join(self, x: Tensor, batch: int, length: int) -> Tensor:
        c = self.config
        if length > 1:
            x = T.transpose(x, (0, 2, 1, 3))
        return T.reshape(x, (batch, length, c.width))

    def _attend(self, q_in, kv_in, mask):
        """Multi-head self-attention of ``q_in`` over the window ``kv_in``."""
        c = self.config
        batch, q_len = q_in.shape[0], q_in.shape[1]
        kv_len = kv_in.shape[1]
        dh = c.width // c.heads
        q = self._heads_split(T.linear(q_in, self.wq), batch, q_len)
        k_t = self._heads_split(T.linear(kv_in, self.wk), batch, kv_len, (0, 2, 3, 1))
        v = self._heads_split(T.linear(kv_in, self.wv), batch, kv_len)
        scores = T.scale(T.matmul(q, k_t), 1.0 / np.sqrt(dh))
        if mask is not None:
            scores = T.add(scores, mask)
        weights = T.softmax(scores)
        ctx = self._heads_join(T.matmul(weights, v), batch, q_len)
        return T.linear(ctx, self.wo)

    def condition(self, xi_tokens: Tensor) -> Tensor:
        """The cross-attention output, ``(B, 1, width)``: a softmax over the
        one parameter token is exactly 1, so it is that token's value and
        output projections, the same at every position."""
        if xi_tokens.shape[1] != 1:
            raise T.ShapeError("attention_block", xi_tokens.shape, (1,))
        # two affine maps in a row, kept apart on purpose: see LatentTransformer.condition
        return T.linear(T.linear(xi_tokens, self.cv), self.co)

    def __call__(self, x: Tensor, cond: Tensor, last_only: bool = False) -> Tensor:
        """The block's output at every window position, or with
        ``last_only`` at the last one, whose keys and values still span the
        window (its causal-mask row is all zeros, so no mask is added).
        ``cond`` is the block's :meth:`condition` output."""
        q = self.config.lookback
        if x.shape[1] != q:
            raise T.ShapeError("attention_block", x.shape, (q,))
        rows, mask = (T.slice_axis(x, 1, q - 1, q), None) if last_only else (x, self.mask)
        x = T.layer_norm(rows, *self.ln1, residual=self._attend(rows, x, mask))
        x = T.layer_norm(x, *self.ln2, residual=cond)
        h = T.linear(T.gelu(T.linear(x, self.ff1)), self.ff2)
        return T.layer_norm(x, *self.ln3, residual=h)


class LatentTransformer:
    """Maps a lookback window of latents to the next ``horizon`` latents."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        self.config = c = config
        self.params = p = T.Params("transformer.", rng)
        self.forward_count = 0  # inference-cost probe
        self.in_proj = p.linear("in_proj", c.latent_dim, c.width)
        self.xi_proj = p.linear("xi_proj", c.param_dim, c.width)
        self.blocks = [AttentionBlock(c, p, i) for i in range(c.blocks)]
        self.out_head = p.linear("out_head", c.width, c.horizon * c.latent_dim)
        self.pos = Tensor(sinusoidal_encoding(c.lookback, c.width))

    def named_parameters(self):
        return list(self.params.named)

    def condition(self, xi, batch: int) -> list:
        """Each block's cross-attention output for the parameters ``xi``.
        It depends on the weights, so it is rebuilt per call, never kept."""
        rows = param_rows(xi, batch, self.config.param_dim)[:, None]  # (B, 1, param_dim)
        # xi_proj, cross_v, cross_o: one affine map of xi in three factors, kept. One map trains
        # to 5-100+ times the error at the farthest grid point (README, Parameter conditioning).
        xi_tokens = T.linear(Tensor(rows), self.xi_proj)
        return [block.condition(xi_tokens) for block in self.blocks]

    def forecast(self, window: Union[np.ndarray, Tensor], xi, cond=None) -> Tensor:
        """The next ``horizon`` latents, (B, h, Z), after (B, q, Z) windows.
        ``cond`` is :meth:`condition` of ``xi`` at this batch, built here
        when not given. Products over the batch rows run per sample, on
        ``(B, 1, n)`` stacks, so a forecast never depends on its batch."""
        c = self.config
        x = window if isinstance(window, Tensor) else Tensor(np.asarray(window))
        if x.data.ndim != 3 or x.shape[1:] != (c.lookback, c.latent_dim):
            raise T.ShapeError("forecast", x.shape, (c.lookback, c.latent_dim))
        self.forward_count += 1
        batch = x.shape[0]
        h = T.add(T.linear(x, self.in_proj), self.pos)
        if cond is None:
            cond = self.condition(xi, batch)
        for block, block_cond in zip(self.blocks[:-1], cond):
            h = block(h, block_cond)
        # only the last position feeds the head, so the final block computes no other
        last = self.blocks[-1](h, cond[-1], last_only=True)
        return T.reshape(T.linear(last, self.out_head), (batch, c.horizon, c.latent_dim))


@np.errstate(all="ignore")  # the tape reports non-finite values, by op
def rollout(model: LatentTransformer, initial_window: np.ndarray, xi,
            steps: int) -> np.ndarray:
    """Autoregressive latent trajectory of length ``steps``.

    Consumes one predicted step per forecast and slides the window, a view
    of one buffer that the predictions fill; the encoder is never re-invoked
    and the conditioning is built once. A forecast (or conditioning) the
    tape finds non-finite, or a latent above 1e6 in magnitude, raises
    RolloutDivergence for that step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    c = model.config
    q = c.lookback
    initial_window = np.asarray(initial_window, dtype=np.float64)
    if initial_window.shape != (q, c.latent_dim):
        raise T.ShapeError("rollout", initial_window.shape, (q, c.latent_dim))
    buf = np.empty((q + steps, c.latent_dim))
    buf[:q] = initial_window
    step = 0
    try:
        cond = model.condition(xi, 1)
        for step in range(steps):
            nxt = model.forecast(buf[None, step:step + q], xi, cond).data[0, 0]
            if np.abs(nxt).max() > 1e6:
                raise RolloutDivergence(step, "latent magnitude above 1e6")
            buf[q + step] = nxt
    except T.NonFiniteError as exc:
        raise RolloutDivergence(step, f"non-finite output of {exc.op}") from exc
    return buf[q:]
