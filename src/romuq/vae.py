"""Parameter-conditioned variational encoder/decoder over state snapshots.

Both halves are MLPs that see the external-parameter vector through a
learned linear embedding concatenated to their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import tensor as T
from .config import VaeConfig
from .datagen import ParamPoint
from .tensor import Tensor


@dataclass
class LatentDistribution:
    """Per-snapshot Gaussian over latent coordinates, sigma^2 = exp(log_var)."""

    mu: Tensor
    log_var: Tensor

    def sigma(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var.data)


def param_rows(xi, batch: int, param_dim: int) -> np.ndarray:
    """External parameters as ``(batch, param_dim)`` model input. A
    ParamPoint or a single vector is repeated on every row; a 2-D array is
    used as given."""
    arr = xi.vector() if isinstance(xi, ParamPoint) else np.asarray(xi, dtype=np.float64)
    if arr.shape[-1:] != (param_dim,):
        raise T.ShapeError("xi", arr.shape, (param_dim,))
    return np.tile(arr, (batch, 1)) if arr.ndim == 1 else arr


class Vae:
    """MLP encoder/decoder pair conditioned on the external parameters."""

    def __init__(self, config: VaeConfig, rng: np.random.Generator):
        self.config = c = config
        self.params = p = T.Params("vae.", rng)
        self.xi_embed = p.linear("xi_embed", c.param_dim, c.embed_dim)
        self.enc_layers = []
        n_in = c.state_dim + c.embed_dim
        for i, h in enumerate(c.hidden):
            self.enc_layers.append(p.linear(f"enc{i}", n_in, h))
            n_in = h
        self.mu_head = p.linear("mu_head", n_in, c.latent_dim)
        self.lv_head = p.linear("lv_head", n_in, c.latent_dim)

        self.dec_layers = []
        n_in = c.latent_dim + c.embed_dim
        for i, h in enumerate(reversed(c.hidden)):
            self.dec_layers.append(p.linear(f"dec{i}", n_in, h))
            n_in = h
        self.out_head = p.linear("out_head", n_in, c.state_dim)

    def named_parameters(self):
        return list(self.params.named)

    # ------------------------------------------------------------------

    def embed_xi(self, xi, batch: int) -> Tensor:
        # xi_embed then the first layer's rows: factored on purpose (README, Parameter conditioning)
        return T.matmul(Tensor(param_rows(xi, batch, self.config.param_dim)), *self.xi_embed)

    def encode(self, phi: Union[np.ndarray, Tensor], xi) -> LatentDistribution:
        """Map normalised snapshots (B, state_dim) to latent Gaussians."""
        x = phi if isinstance(phi, Tensor) else Tensor(phi)
        if x.shape[-1] != self.config.state_dim:
            raise T.ShapeError("encode", x.shape, (self.config.state_dim,))
        h = T.concat([x, self.embed_xi(xi, x.shape[0])], axis=1)
        for layer in self.enc_layers:
            h = T.gelu(T.matmul(h, *layer))
        return LatentDistribution(mu=T.matmul(h, *self.mu_head),
                                  log_var=T.matmul(h, *self.lv_head))

    def decode(self, z: Union[np.ndarray, Tensor], xi) -> Tensor:
        """Map latents (B, latent_dim) back to normalised snapshots."""
        h = z if isinstance(z, Tensor) else Tensor(z)
        if h.shape[-1] != self.config.latent_dim:
            raise T.ShapeError("decode", h.shape, (self.config.latent_dim,))
        h = T.concat([h, self.embed_xi(xi, h.shape[0])], axis=1)
        for layer in self.dec_layers:
            h = T.gelu(T.matmul(h, *layer))
        return T.matmul(h, *self.out_head)


def reparameterize(dist: LatentDistribution, noise: Union[np.ndarray, Tensor]) -> Tensor:
    """z = mu + sigma * noise, differentiable w.r.t. mu and log_var."""
    eps = noise if isinstance(noise, Tensor) else Tensor(noise)
    if eps.shape[-1] != dist.mu.shape[-1]:
        raise T.ShapeError("reparameterize", eps.shape, dist.mu.shape)
    sigma = T.exp(T.scale(dist.log_var, 0.5))
    return T.add(dist.mu, T.mul(sigma, eps))


def kld(dist: LatentDistribution) -> Tensor:
    """KL divergence to the standard-normal prior.

    0.5 * sum_i (sigma_i^2 + mu_i^2 - 1 - log sigma_i^2) of (B, Z)
    latents, summed over the latent axis and averaged over the batch.
    Non-negative, zero only at mu = 0, sigma = 1.
    """
    mu, lv = dist.mu, dist.log_var
    per_dim = T.sub(T.sub(T.add(T.exp(lv), T.mul(mu, mu)), Tensor(1.0)), lv)
    return T.scale(T.tensor_mean(T.tensor_sum(per_dim, axis=1)), 0.5)
