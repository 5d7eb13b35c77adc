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


# (seed, dim) and the read-only (n, n_t, dim) array of the last ensemble_noise
# call, swapped as one tuple; the adaptive loop redraws it at every grid point.
_last_ensemble = ((None, None), np.empty((0, 0, 0)))


def member_noise(seed: int, member: int, t: int, dim: int) -> np.ndarray:
    """Reproducible per-(member, time) standard-normal stream. A row the last
    ensemble holds for this seed and dim is copied from it, not drawn again."""
    key, kept = _last_ensemble
    if key == (seed, dim) and 0 <= member < kept.shape[0] and 0 <= t < kept.shape[1]:
        return kept[member, t].copy()
    ss = np.random.SeedSequence((seed, member, t))
    return np.random.Generator(np.random.PCG64(ss)).standard_normal(dim)


def ensemble_noise(seed: int, n: int, n_t: int, dim: int) -> np.ndarray:
    """Read-only (n, n_t, dim) member_noise rows, kept as the last ensemble."""
    global _last_ensemble
    noise = np.empty((n, n_t, dim))
    for i in range(n):
        for t in range(n_t):
            noise[i, t] = member_noise(seed, i, t, dim)
    noise.flags.writeable = False
    _last_ensemble = ((seed, dim), noise)
    return noise


def check_ensemble_size(n: int):
    if n < 2:
        raise ValueError("ensemble size must be >= 2")


def second_pass(predicted_states: np.ndarray, ckpt: ModelCheckpoint,
                xi: ParamPoint, n: int = 64, seed: int = 0):
    """Ensemble UQ over a decoded prediction window (physical space).

    Returns the uncertainty field nu (n_t, n_xy), >= 0, and the decoded
    ensemble (n, n_t, n_xy), the latter feeding CRPS. Uses encoder/decoder
    only; the transformer is never invoked. Members are decoded in blocks
    of time steps, so beyond the ensemble itself the memory is one block's.
    """
    check_ensemble_size(n)
    states = np.asarray(predicted_states, dtype=np.float64)
    n_t, n_xy = states.shape
    z_dim = ckpt.config.vae.latent_dim

    norm = ckpt.stats.forward(states)
    dist = ckpt.vae.encode(norm, xi)
    mu, sigma = dist.mu.data, dist.sigma()

    noise = ensemble_noise(seed, n, n_t, z_dim)
    ensemble = np.empty((n, n_t, n_xy))
    nu = np.empty((n_t, n_xy))
    for s in time_blocks(n_t, n):
        z = mu[None, s] + sigma[None, s] * noise[:, s]
        decoded = ckpt.vae.decode(z.reshape(-1, z_dim), xi).data
        block = ckpt.stats.inverse(decoded).reshape(n, -1, n_xy)
        ensemble[:, s] = block
        mean = block.mean(axis=0)
        nu[s] = np.sqrt(np.mean((block - mean[None]) ** 2, axis=0))
    return nu, ensemble


def aggregate_time(nu: np.ndarray) -> np.ndarray:
    """Spatially averaged uncertainty per time step."""
    return nu.mean(axis=1)


def aggregate_param(nu: np.ndarray) -> float:
    """Uncertainty collapsed over space and time to one scalar per xi."""
    return float(nu.mean())


def confidence_interval(mean_traj: np.ndarray, nu: np.ndarray, k: float = 2.0):
    """Elementwise mean +/- k * nu bounds."""
    if k <= 0:
        raise ValueError("k must be positive")
    return mean_traj - k * nu, mean_traj + k * nu


def write_uq_csvs(directory, nu: np.ndarray):
    """Emit uq_field.csv (t, d, nu) and nu_t.csv for plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(directory / "uq_field.csv", ("t", "d", "nu"),
              ((t, d, v) for t, row in enumerate(nu.tolist()) for d, v in enumerate(row)))
    write_csv(directory / "nu_t.csv", ("t", "nu_t"), enumerate(aggregate_time(nu)))

