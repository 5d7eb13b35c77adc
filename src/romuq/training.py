"""Joint optimisation of the VAE and latent transformer, checkpointing,
and replay-based retraining."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate, zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .config import ConfigError, LossWeights, TrainConfig, parse
from .datagen import NormStats, ParamPoint, Trajectory, json_object, write_json
from .errors import NonFiniteError, TrainingDiverged
from .optim import Adam
from .tensor import Tape, Tensor
from .transformer import LatentTransformer, rollout
from .vae import Vae, kld, reparameterize


CHECKPOINT_VERSION = 1


def total_loss(vae: Vae, transformer: LatentTransformer,
               phi_window: np.ndarray, phi_target: np.ndarray,
               xi: np.ndarray, weights: LossWeights,
               noise: np.ndarray):
    """Composite loss over a batch of (lookback, target) windows.

    phi_window: (B, q, n_xy) normalised snapshots, phi_target: (B, h, n_xy),
    xi: (B, param_dim), noise: (B, q, latent_dim) standard normal draws.
    Returns the total scalar tensor and the three components: the weighted
    reconstruction+KLD branch, latent prediction, and decoded prediction.
    All norms are mean-squared per element.
    """
    b, q, n_xy = phi_window.shape
    h = phi_target.shape[1]
    z_dim = vae.config.latent_dim

    xi_q = np.repeat(xi, q, axis=0)
    xi_h = np.repeat(xi, h, axis=0)
    phi_lb = Tensor(phi_window.reshape(b * q, n_xy))
    phi_tg = Tensor(phi_target.reshape(b * h, n_xy))

    dist = vae.encode(phi_lb, xi_q)
    kl = kld(dist)
    z = reparameterize(dist, noise.reshape(b * q, z_dim))
    recon = vae.decode(z, xi_q)
    rec_term = T.mse(recon, phi_lb)

    target_mu = vae.encode(phi_tg, xi_h).mu
    z_pred = transformer.forecast(T.reshape(z, (b, q, z_dim)), xi)
    z_pred_flat = T.reshape(z_pred, (b * h, z_dim))
    latent_term = T.mse(z_pred_flat, target_mu)

    decoded_pred = vae.decode(z_pred_flat, xi_h)
    pred_term = T.mse(decoded_pred, phi_tg)

    first = T.scale(T.add(rec_term, T.scale(kl, weights.kld_weight)), weights.lam)
    total = T.add(T.add(first, latent_term), pred_term)
    components = {
        "reconstruction_kld": float(first.data),
        "latent_prediction": float(latent_term.data),
        "decoded_prediction": float(pred_term.data),
        "kld": float(kl.data),
    }
    return total, components


@dataclass
class ModelCheckpoint:
    """All weights plus the configuration and provenance needed to rerun."""

    vae: Vae
    transformer: LatentTransformer
    config: TrainConfig
    stats: NormStats
    seed: int
    lineage: list = field(default_factory=list)
    loss_curve: list = field(default_factory=list)

    def named_parameters(self):
        return self.vae.named_parameters() + self.transformer.named_parameters()

    def weight_list(self) -> list:
        """The manifest's ``weights``: name and shape, in ``weights.bin``'s order."""
        return [{"name": n, "shape": list(p.data.shape)} for n, p in self.named_parameters()]

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_json(directory / "manifest.json", {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "stats": self.stats.to_dict(),
            "seed": self.seed,
            "lineage": self.lineage,
            "loss_curve": self.loss_curve,
            "weights": self.weight_list(),
        })
        (directory / "weights.bin").write_bytes(
            b"".join(p.data.astype("<f8").tobytes() for _, p in self.named_parameters()))

    @classmethod
    def load(cls, directory) -> "ModelCheckpoint":
        """Rebuild a saved checkpoint. A manifest that is not JSON, lacks a key,
        is of another format version, or has an invalid ``config``, a seed
        that is not an integer >= 0, ``stats`` that are not finite numbers of
        length ``state_dim`` with a positive ``std``, ``weights`` that are not
        the model's list, in order, a ``lineage`` not a list of objects or a
        ``loss_curve`` not a list of finite numbers, or a weights file not of
        those weights' size, raises ValueError naming the file."""
        directory = Path(directory)
        path = directory / "manifest.json"
        with json_object(path) as manifest:
            version = manifest.get("format_version")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint format_version {version!r} in {path}")
            try:
                config = parse(TrainConfig, manifest["config"], "config", derived=True)
            except ConfigError as exc:  # a ValueError here: exit 5, not 3
                raise ValueError(f"config in {path} is invalid: {exc}") from exc
            seed = manifest["seed"]
            if type(seed) is not int or seed < 0:
                raise ValueError(f"seed {seed!r} in {path} is not a non-negative integer")
            try:
                stats = NormStats.from_dict(manifest["stats"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"stats in {path} are not numbers: {exc}") from exc
            if any(a.shape != (config.vae.state_dim,) for a in vars(stats).values()):
                raise ValueError(f"stats in {path} are not of length {config.vae.state_dim}")
            if not (np.isfinite([stats.mean, stats.std]).all() and (stats.std > 0).all()):
                raise ValueError(f"stats in {path} are not finite with a positive std")
            if not isinstance(manifest["weights"], list):
                raise ValueError(f"weights in {path} are not a list")
            lineage, loss_curve = manifest["lineage"], manifest["loss_curve"]
            if not (isinstance(lineage, list) and all(isinstance(e, dict) for e in lineage)):
                raise ValueError(f"lineage in {path} is not a list of objects")
            if not (isinstance(loss_curve, list) and all(
                    type(v) in (int, float) and abs(v) < np.inf for v in loss_curve)):
                raise ValueError(f"loss_curve in {path} is not a list of finite numbers")
            rng = np.random.default_rng(seed)
            ckpt = cls(vae=Vae(config.vae, rng),
                       transformer=LatentTransformer(config.transformer, rng), config=config,
                       stats=stats, seed=seed,
                       lineage=lineage, loss_curve=loss_curve)
            for listed, wanted in zip_longest(manifest["weights"], ckpt.weight_list()):
                if listed != wanted:
                    raise ValueError(f"{path} does not fit the model: it lists the weight "
                                     f"{listed} where the model has {wanted}")
        raw = (directory / "weights.bin").read_bytes()
        named = ckpt.named_parameters()
        sizes = [p.data.size for _, p in named]
        if len(raw) != 8 * sum(sizes):
            raise ValueError(f"{directory / 'weights.bin'} holds {len(raw)} bytes; "
                             f"the manifest's weights need {8 * sum(sizes)}")
        for (_, p), start in zip(named, accumulate(sizes, initial=0)):
            p.data = np.frombuffer(raw, "<f8", p.data.size, 8 * start).reshape(p.data.shape).copy()
        return ckpt


def extract_windows(trajs: Sequence[Trajectory], q: int, h: int):
    """The (trajectory, start) index of every (lookback, target) window in
    ``trajs``; a trajectory too short for one window raises ValueError."""
    for traj in trajs:
        if traj.n_t - q - h + 1 < 1:
            raise ValueError(
                f"trajectory too short for lookback {q} + horizon {h}: n_t={traj.n_t}")
    return [(ti, s) for ti, traj in enumerate(trajs) for s in range(traj.n_t - q - h + 1)]


def _gather_batch(trajs, windows, q, h, stats: NormStats):
    phi_w = np.stack([trajs[ti].states[s:s + q] for ti, s in windows])
    phi_t = np.stack([trajs[ti].states[s + q:s + q + h] for ti, s in windows])
    xi = np.stack([trajs[ti].param.vector() for ti, _ in windows])
    return stats.forward(phi_w), stats.forward(phi_t), xi


@np.errstate(all="ignore")  # the tape reports non-finite values, by op
def _run_epochs(ckpt: ModelCheckpoint, trajs, window_index, epochs,
                rng: np.random.Generator, dataset_id: str):
    """Appends each epoch's mean loss to the loss curve, then one lineage
    entry holding each epoch's means of the ``total_loss`` components."""
    cfg = ckpt.config
    q, h = cfg.transformer.lookback, cfg.transformer.horizon
    z_dim = cfg.vae.latent_dim
    params = [p for _, p in ckpt.named_parameters()]
    opt = Adam(params, lr=cfg.lr)
    n_windows = len(window_index)
    means = []
    for epoch in range(epochs):
        order = rng.permutation(n_windows)
        epoch_loss = 0.0
        sums: dict = {}
        n_batches = 0
        for start in range(0, n_windows, cfg.batch_size):
            windows = [window_index[i] for i in order[start:start + cfg.batch_size]]
            phi_w, phi_t, xi = _gather_batch(trajs, windows, q, h, ckpt.stats)
            noise = rng.standard_normal((len(windows), q, z_dim))
            opt.zero_grad()
            with Tape() as tape:
                try:
                    loss, components = total_loss(ckpt.vae, ckpt.transformer, phi_w,
                                                  phi_t, xi, cfg.loss, noise)
                except NonFiniteError as exc:
                    raise TrainingDiverged(epoch, n_batches, exc.op) from exc
                T.backward(tape, loss)
            opt.step()
            epoch_loss += float(loss.data)
            for name, value in components.items():
                sums[name] = sums.get(name, 0.0) + value
            n_batches += 1
        ckpt.loss_curve.append(epoch_loss / n_batches)
        means.append({name: total / n_batches for name, total in sums.items()})
    ckpt.lineage.append({"dataset": dataset_id, "epochs": epochs,
                         "loss_components": means})


def train(dataset: Sequence[Trajectory], config: TrainConfig, seed: int,
          dataset_id: str = "initial") -> ModelCheckpoint:
    """Joint Adam optimisation over shuffled windows; deterministic per seed."""
    if not dataset:
        raise ValueError("empty dataset")
    window_index = extract_windows(dataset, config.transformer.lookback,
                                   config.transformer.horizon)
    rng = np.random.default_rng(seed)
    vae = Vae(config.vae, rng)
    transformer = LatentTransformer(config.transformer, rng)
    ckpt = ModelCheckpoint(vae=vae, transformer=transformer, config=config,
                           stats=NormStats.fit(dataset), seed=seed)
    _run_epochs(ckpt, dataset, window_index, config.epochs, rng, dataset_id)
    return ckpt


def retrain(ckpt: ModelCheckpoint, new_data: Sequence[Trajectory],
            prior_data: Sequence[Trajectory], replay_fraction: float,
            epochs: int, seed: int, dataset_id: str = "retrain") -> ModelCheckpoint:
    """Continue optimisation on new data plus a replayed subsample of the
    prior windows; appends one lineage entry. Normalisation stats are kept
    from the initial fit so latent coordinates stay comparable."""
    if not 0.0 <= replay_fraction <= 1.0:
        raise ValueError("replay_fraction must lie in [0, 1]")
    cfg = ckpt.config
    rng = np.random.default_rng(seed)

    trajs = [*new_data, *prior_data]
    index = extract_windows(trajs, cfg.transformer.lookback, cfg.transformer.horizon)
    window_index = [w for w in index if w[0] < len(new_data)]
    prior_windows = [w for w in index if w[0] >= len(new_data)]
    n_replay = int(round(replay_fraction * len(prior_windows)))
    if n_replay > 0:
        chosen = rng.choice(len(prior_windows), size=n_replay, replace=False)
        window_index += [prior_windows[i] for i in sorted(chosen)]
    if not window_index:
        raise ValueError("no windows to retrain on: no new data and none replayed")

    _run_epochs(ckpt, trajs, window_index, epochs, rng, dataset_id)
    return ckpt


def predict_rollout(ckpt: ModelCheckpoint, init_states: np.ndarray,
                    xi: ParamPoint, steps: int):
    """Encode the first lookback window, roll out in latent space, decode.

    ``init_states`` are physical-space snapshots of shape (lookback, n_xy).
    Returns (decoded physical states (steps, n_xy), latent trajectory).
    """
    q = ckpt.config.transformer.lookback
    if init_states.shape[0] != q:
        raise ValueError(f"need {q} initial snapshots, got {init_states.shape[0]}")
    norm = ckpt.stats.forward(init_states)
    mu = ckpt.vae.encode(norm, xi).mu.data
    z_traj = rollout(ckpt.transformer, mu, xi, steps)
    decoded = ckpt.vae.decode(z_traj, xi).data
    return ckpt.stats.inverse(decoded), z_traj


def forecast_trajectory(ckpt: ModelCheckpoint, traj: Trajectory):
    """Roll out from the first lookback window of ``traj`` at its parameters
    over the rest of it; returns (predicted states, true states)."""
    q = ckpt.config.transformer.lookback
    if traj.n_t <= q:
        raise ValueError(f"trajectory too short for lookback {q}")
    predicted, _ = predict_rollout(ckpt, traj.states[:q], traj.param, traj.n_t - q)
    return predicted, traj.states[q:]
