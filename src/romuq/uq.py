"""Second-pass ensemble uncertainty quantification.

The predicted trajectory is re-encoded snapshot by snapshot; each latent
Gaussian is sampled n times and decoded, and the ensemble standard
deviation gives the uncertainty field nu over (space, time).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datagen import ParamPoint
from .metrics import time_blocks, write_csv
from .training import ModelCheckpoint


# The member whose stream was read last: its (seed, member, dim), its
# generator and the rows drawn from it so far, swapped as one tuple.
_memo = (None, None, np.empty((0, 0)))


def member_noise(seed: int, member: int, t: int, dim: int) -> np.ndarray:
    """Row ``t`` of the member's standard-normal stream: the ``t``-th block of
    ``dim`` values of ``Generator(PCG64(SeedSequence((seed, member))))``. The
    last member read is kept with its rows, drawn in doubling chunks, so
    reading a member's rows in order draws each once."""
    global _memo
    if member < 0 or t < 0:
        raise ValueError(f"member and step must be >= 0, got {member} and {t}")
    key, gen, rows = _memo
    if key != (seed, member, dim):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, member))))
        rows = np.empty((0, dim))
    if t >= len(rows):
        rows = np.concatenate([rows, gen.standard_normal((max(t + 1 - len(rows), len(rows)), dim))])
    _memo = ((seed, member, dim), gen, rows)
    return rows[t].copy()


def ensemble_noise(seed: int, n: int, n_t: int, dim: int) -> np.ndarray:
    """(n, n_t, dim) member_noise rows, read-only: a LazyEnsemble decodes
    them again for every CRPS form."""
    noise = np.empty((n, n_t, dim))
    for i in range(n):
        for t in range(n_t):
            noise[i, t] = member_noise(seed, i, t, dim)
    noise.flags.writeable = False
    return noise


def check_ensemble_size(n: int):
    if n < 2:
        raise ValueError(f"ensemble size must be >= 2, got {n}")


class LazyEnsemble:
    """The decoded ensemble of a second pass, ``shape`` (n, n_t, n_xy), held
    as the latent means and scales, the read-only noise, the checkpoint and
    the parameters. ``block(s)`` decodes ``ensemble[:, s]`` for a slice of
    ``blocks`` (``time_blocks(n_t, n)``), the second pass's own decode
    calls, so it gives the same bits each time while the weights are
    unchanged. Nothing turns it into an array implicitly."""

    def __init__(self, mu, sigma, noise, ckpt: ModelCheckpoint, xi: ParamPoint,
                 n_xy: int):
        self.mu, self.sigma, self.noise, self.ckpt, self.xi = mu, sigma, noise, ckpt, xi
        n, n_t, _ = noise.shape
        self.shape = (n, n_t, n_xy)
        self.blocks = time_blocks(n_t, n)

    def block(self, s: slice) -> np.ndarray:
        if s not in self.blocks:
            raise ValueError(f"{s} is not one of the ensemble's time blocks")
        z = self.mu[None, s] + self.sigma[None, s] * self.noise[:, s]
        decoded = self.ckpt.vae.decode(z.reshape(-1, z.shape[-1]), self.xi).data
        n, _, n_xy = self.shape
        return self.ckpt.stats.inverse(decoded).reshape(n, -1, n_xy)


def second_pass(predicted_states: np.ndarray, ckpt: ModelCheckpoint,
                xi: ParamPoint, n: int = 64, seed: int = 0):
    """Ensemble UQ over a decoded prediction window (physical space).

    Returns the uncertainty field nu (n_t, n_xy), >= 0, and the ensemble
    (n, n_t, n_xy) as a LazyEnsemble, which CRPS decodes again block by
    block. Uses encoder/decoder only; the transformer is never invoked.
    Members are decoded in blocks of time steps, so beyond the noise the
    memory is one block's.
    """
    check_ensemble_size(n)
    states = np.asarray(predicted_states, dtype=np.float64)
    n_t, n_xy = states.shape

    dist = ckpt.vae.encode(ckpt.stats.forward(states), xi)
    noise = ensemble_noise(seed, n, n_t, ckpt.config.vae.latent_dim)
    ensemble = LazyEnsemble(dist.mu.data, dist.sigma(), noise, ckpt, xi, n_xy)
    nu = np.empty((n_t, n_xy))
    for s in ensemble.blocks:
        block = ensemble.block(s)
        mean = block.mean(axis=0)
        nu[s] = np.sqrt(np.mean((block - mean[None]) ** 2, axis=0))
    return nu, ensemble


def write_uq_csvs(directory, nu: np.ndarray):
    """Emit uq_field.csv (t, d, nu) and nu_t.csv (its spatial mean) for
    plotting; only one time step of nu is turned into Python floats at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(directory / "uq_field.csv", ("t", "d", "nu"),
              ((t, d, v) for t, row in enumerate(nu) for d, v in enumerate(row.tolist())))
    write_csv(directory / "nu_t.csv", ("t", "nu_t"), enumerate(nu.mean(axis=1)))

