import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import romuq
from romuq.datagen import NormStats, ParamPoint, Trajectory
from romuq.tensor import NonFiniteError
from romuq.training import (LossWeights, ModelCheckpoint, TrainConfig,
                            TrainingDiverged, predict_rollout, retrain,
                            total_loss, train)
from romuq.transformer import TransformerConfig
from romuq.vae import VaeConfig


def tiny_config(state_dim=8, latent_dim=2, q=3, h=3, epochs=2, param_dim=1):
    return TrainConfig(
        vae=VaeConfig(state_dim=state_dim, latent_dim=latent_dim, hidden=(12,),
                      param_dim=param_dim, embed_dim=3),
        transformer=TransformerConfig(lookback=q, horizon=h,
                                      latent_dim=latent_dim, width=8, heads=2,
                                      blocks=1, param_dim=param_dim),
        loss=LossWeights(lam=100.0, kld_weight=1e-4),
        epochs=epochs, batch_size=8, lr=1e-3)


def tiny_dataset(n_traj=2, n_t=30, n_xy=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_traj):
        phase = rng.uniform(0, 2 * np.pi)
        t = np.arange(n_t)[:, None] * 0.3
        x = np.arange(n_xy)[None, :]
        states = np.sin(t + phase) * np.cos(2 * np.pi * x / n_xy) + 0.1 * i
        out.append(Trajectory(states=states, dt=0.3, length=1.0,
                              param=ParamPoint.of(mu=0.2 * (i + 1))))
    return out


def zeroed_model_checkpoint(config):
    rng = np.random.default_rng(0)
    from romuq.transformer import LatentTransformer
    from romuq.vae import Vae

    vae = Vae(config.vae, rng)
    tf = LatentTransformer(config.transformer, rng)
    for _, p in vae.named_parameters() + tf.named_parameters():
        p.data[:] = 0.0
    stats = NormStats(mean=np.zeros(config.vae.state_dim),
                      std=np.ones(config.vae.state_dim))
    return ModelCheckpoint(vae=vae, transformer=tf, config=config, stats=stats,
                           seed=0, data={"dt": 0.3, "length": 1.0, "names": ["mu"]})


# ----------------------------------------------------------------- total_loss


def test_total_loss_zero_weight_model_closed_form():
    cfg = tiny_config()
    ckpt = zeroed_model_checkpoint(cfg)
    rng = np.random.default_rng(1)
    phi_w = rng.standard_normal((1, 3, 8))
    phi_t = rng.standard_normal((1, 3, 8))
    xi = np.zeros((1, 1))
    noise = rng.standard_normal((1, 3, 2))
    total, comps = total_loss(ckpt.vae, ckpt.transformer, phi_w, phi_t, xi,
                              cfg.loss, noise)
    # all-zero weights: mu=0, log_var=0 so KLD=0; every decode is 0, the
    # forecast is 0 and the teacher-forced targets are 0
    expected = 100.0 * np.mean(phi_w ** 2) + np.mean(phi_t ** 2)
    assert abs(float(total.data) - expected) < 1e-12
    assert comps["kld"] == 0.0
    assert comps["latent_prediction"] == 0.0


def test_total_loss_lambda_scales_only_first_component():
    cfg = tiny_config()
    ckpt = zeroed_model_checkpoint(cfg)
    rng = np.random.default_rng(2)
    phi_w = rng.standard_normal((2, 3, 8))
    phi_t = rng.standard_normal((2, 3, 8))
    xi = np.zeros((2, 1))
    noise = rng.standard_normal((2, 3, 2))
    _, c1 = total_loss(ckpt.vae, ckpt.transformer, phi_w, phi_t, xi,
                       LossWeights(lam=100.0, kld_weight=1e-4), noise)
    _, c2 = total_loss(ckpt.vae, ckpt.transformer, phi_w, phi_t, xi,
                       LossWeights(lam=200.0, kld_weight=1e-4), noise)
    assert c2["reconstruction_kld"] == pytest.approx(2 * c1["reconstruction_kld"])
    assert c2["latent_prediction"] == c1["latent_prediction"]
    assert c2["decoded_prediction"] == c1["decoded_prediction"]


def test_total_loss_components_non_negative():
    cfg = tiny_config()
    dataset = tiny_dataset()
    ckpt = train(dataset, cfg, seed=3)
    rng = np.random.default_rng(4)
    phi_w = rng.standard_normal((2, 3, 8))
    phi_t = rng.standard_normal((2, 3, 8))
    xi = np.full((2, 1), 0.2)
    noise = rng.standard_normal((2, 3, 2))
    total, comps = total_loss(ckpt.vae, ckpt.transformer, phi_w, phi_t, xi,
                              cfg.loss, noise)
    assert float(total.data) >= 0
    for key in ("reconstruction_kld", "latent_prediction", "decoded_prediction",
                "kld"):
        assert comps[key] >= 0


# ---------------------------------------------------------------------- train


def test_train_rejects_empty_and_short_data():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        train([], cfg, seed=0)
    short = tiny_dataset(n_t=5)
    with pytest.raises(ValueError):
        train(short, cfg, seed=0)


def test_train_same_seed_bit_identical(tmp_path):
    cfg = tiny_config()
    dataset = tiny_dataset()
    a = train(dataset, cfg, seed=11)
    b = train(dataset, tiny_config(), seed=11)
    a.save(tmp_path / "a")
    b.save(tmp_path / "b")
    assert (tmp_path / "a/weights.bin").read_bytes() == (tmp_path / "b/weights.bin").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()


def test_train_records_lineage_and_curve():
    ckpt = train(tiny_dataset(), tiny_config(), seed=0, dataset_id="toy")
    assert [(e["dataset"], e["epochs"]) for e in ckpt.lineage] == [("toy", 2)]
    assert len(ckpt.lineage[0]["loss_components"]) == 2
    assert len(ckpt.loss_curve) == 2


def test_lineage_loss_components_sum_to_the_logged_loss(tmp_path):
    dataset = tiny_dataset()
    ckpt = train(dataset, tiny_config(epochs=3), seed=4)
    retrain(ckpt, tiny_dataset(n_traj=1, seed=42), dataset, replay_fraction=0.5,
            epochs=2, seed=5)
    retrain(ckpt, [dataset[0]], dataset, replay_fraction=1.0, epochs=0, seed=6)
    per_epoch = [c for entry in ckpt.lineage for c in entry["loss_components"]]
    assert [len(e["loss_components"]) for e in ckpt.lineage] == [3, 2, 0]
    assert len(per_epoch) == len(ckpt.loss_curve) == 5
    for c, total in zip(per_epoch, ckpt.loss_curve):
        assert set(c) == {"reconstruction_kld", "latent_prediction",
                          "decoded_prediction", "kld"}
        parts = c["reconstruction_kld"] + c["latent_prediction"] + c["decoded_prediction"]
        assert parts == pytest.approx(total, rel=1e-12, abs=0)
    ckpt.save(tmp_path / "ck")
    assert ModelCheckpoint.load(tmp_path / "ck").lineage == ckpt.lineage


def test_train_non_finite_forward_raises_diverged_from_the_tape():
    cfg = tiny_config(epochs=3)
    cfg.lr = 1e12
    with pytest.raises(TrainingDiverged) as err:
        train(tiny_dataset(), cfg, seed=0)
    cause = err.value.__cause__
    assert isinstance(cause, NonFiniteError)
    assert f"epoch {err.value.epoch}, step {err.value.step}" in str(err.value)
    assert cause.op in str(err.value)


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_preserves_inference(tmp_path):
    dataset = tiny_dataset()
    ckpt = train(dataset, tiny_config(), seed=5)
    ckpt.save(tmp_path / "ck")
    again = ModelCheckpoint.load(tmp_path / "ck")
    init = dataset[0].states[:3]
    xi = dataset[0].param
    pred_a, z_a = predict_rollout(ckpt, init, xi, steps=10)
    pred_b, z_b = predict_rollout(again, init, xi, steps=10)
    assert pred_a.tobytes() == pred_b.tobytes()
    assert z_a.tobytes() == z_b.tobytes()
    # and a save of the loaded checkpoint is byte-identical
    again.save(tmp_path / "ck2")
    assert (tmp_path / "ck/weights.bin").read_bytes() == (tmp_path / "ck2/weights.bin").read_bytes()


# -------------------------------------------------------------------- retrain


def test_retrain_zero_epochs_keeps_weights_and_appends_lineage(tmp_path):
    dataset = tiny_dataset()
    ckpt = train(dataset, tiny_config(), seed=6)
    before = np.concatenate([p.data.ravel() for _, p in ckpt.named_parameters()]).copy()
    retrain(ckpt, [dataset[0]], dataset, replay_fraction=1.0, epochs=0, seed=7)
    after = np.concatenate([p.data.ravel() for _, p in ckpt.named_parameters()])
    np.testing.assert_array_equal(before, after)
    assert len(ckpt.lineage) == 2


def test_retrain_validates_replay_fraction():
    ckpt = train(tiny_dataset(), tiny_config(), seed=8)
    with pytest.raises(ValueError):
        retrain(ckpt, tiny_dataset(), [], replay_fraction=1.5, epochs=1, seed=0)


def test_retrain_refuses_an_empty_window_set():
    ckpt = train(tiny_dataset(), tiny_config(), seed=8)
    curve, lineage = list(ckpt.loss_curve), json.dumps(ckpt.lineage)
    before = [p.data.copy() for _, p in ckpt.named_parameters()]
    with pytest.raises(ValueError, match="no windows"):
        retrain(ckpt, [], tiny_dataset(), replay_fraction=0.0, epochs=2, seed=1)
    assert ckpt.loss_curve == curve and json.dumps(ckpt.lineage) == lineage
    for want, (_, p) in zip(before, ckpt.named_parameters()):
        assert p.data.tobytes() == want.tobytes()


def test_retrain_improves_loss_on_new_data():
    dataset = tiny_dataset()
    ckpt = train(dataset, tiny_config(epochs=5), seed=9)
    new = tiny_dataset(n_traj=1, seed=42)
    n_before = len(ckpt.loss_curve)
    retrain(ckpt, new, dataset, replay_fraction=0.25, epochs=5, seed=10)
    assert len(ckpt.loss_curve) == n_before + 5
    assert len(ckpt.lineage) == 2


def saved_checkpoint(tmp_path):
    ckpt = train(tiny_dataset(), tiny_config(epochs=1), seed=5)
    ckpt.save(tmp_path / "ck")
    return tmp_path / "ck"


@pytest.mark.parametrize("change", [b"\0" * 8, b"\0", -8],
                         ids=["extra_weight", "extra_byte", "short"])
def test_checkpoint_load_refuses_weights_of_wrong_size(tmp_path, change):
    ck = saved_checkpoint(tmp_path)
    weights = ck / "weights.bin"
    raw = weights.read_bytes()
    weights.write_bytes(raw[:change] if isinstance(change, int) else raw + change)
    with pytest.raises(ValueError, match="weights.bin") as err:
        ModelCheckpoint.load(ck)
    assert "bytes" in str(err.value)


@pytest.mark.parametrize("version", [1, 3, 0, None])
def test_checkpoint_load_refuses_other_format_versions(tmp_path, version):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["format_version"] = version
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format_version"):
        ModelCheckpoint.load(ck)


def test_checkpoint_load_refuses_weight_shapes_the_model_lacks(tmp_path):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    first, second = manifest["weights"][:2]
    first["shape"], second["shape"] = second["shape"], first["shape"]
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="does not fit"):
        ModelCheckpoint.load(ck)


def test_checkpoint_load_refuses_the_weights_in_another_order(tmp_path):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    weights = manifest["weights"]
    weights[0], weights[1] = weights[1], weights[0]
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="does not fit") as err:
        ModelCheckpoint.load(ck)
    assert weights[1]["name"] in str(err.value) and "manifest.json" in str(err.value)


@pytest.mark.parametrize("key", ["mean", "std"])
def test_checkpoint_load_refuses_stats_of_another_length(tmp_path, key):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["stats"][key].pop()
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="stats in .*manifest.json are not of length"):
        ModelCheckpoint.load(ck)


def test_checkpoint_whose_stats_still_carry_floored_loads(tmp_path):
    # manifests written before the floored mask was dropped carry it in stats
    ck = saved_checkpoint(tmp_path)
    want = ModelCheckpoint.load(ck)
    manifest = json.loads((ck / "manifest.json").read_text())
    assert sorted(manifest["stats"]) == ["mean", "std"]
    manifest["stats"]["floored"] = [0] * len(manifest["stats"]["mean"])
    (ck / "manifest.json").write_text(json.dumps(manifest))
    got = ModelCheckpoint.load(ck)
    assert [p.data.tobytes() for _, p in got.named_parameters()] == \
        [p.data.tobytes() for _, p in want.named_parameters()]
    assert got.stats.mean.tobytes() == want.stats.mean.tobytes()
    assert got.stats.std.tobytes() == want.stats.std.tobytes()


@pytest.mark.parametrize("seed", [1.5, "5", None, True, -1])
def test_checkpoint_load_refuses_a_seed_that_is_not_a_natural_number(tmp_path, seed):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["seed"] = seed
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="seed .* in .*manifest.json"):
        ModelCheckpoint.load(ck)


def test_a_one_bit_flip_anywhere_in_the_weights_is_refused(tmp_path):
    """The manifest's CRC32 of ``weights.bin`` catches every single-bit
    change, here one at every byte of a checkpoint with the smallest sizes."""
    cfg = TrainConfig(
        vae=VaeConfig(state_dim=2, latent_dim=1, hidden=(2,), param_dim=1, embed_dim=1),
        transformer=TransformerConfig(lookback=2, horizon=1, latent_dim=1, width=2,
                                      heads=1, blocks=1, param_dim=1, ff_mult=1),
        epochs=1, batch_size=8)
    ck = tmp_path / "ck"
    train(tiny_dataset(n_traj=1, n_t=6, n_xy=2), cfg, seed=5).save(ck)
    weights = ck / "weights.bin"
    good = weights.read_bytes()
    assert len(good) == 792
    for i, byte in enumerate(good):
        weights.write_bytes(good[:i] + bytes([byte ^ (1 << i % 8)]) + good[i + 1:])
        with pytest.raises(ValueError, match="checksum mismatch in .*weights.bin"):
            ModelCheckpoint.load(ck)
    weights.write_bytes(good)
    ModelCheckpoint.load(ck)


def test_checkpoint_keeps_the_fitted_data_contract(tmp_path):
    dataset = tiny_dataset()
    ckpt = train(dataset, tiny_config(epochs=1), seed=5)
    assert ckpt.data == {"dt": dataset[0].dt, "length": 1.0, "names": ["mu"]}
    ckpt.save(tmp_path / "ck")
    assert ModelCheckpoint.load(tmp_path / "ck").data == ckpt.data


@pytest.mark.parametrize("data", [
    None, [], {"dt": 0.3, "length": 1.0}, {"dt": 0.3, "length": 1.0, "names": ["mu"], "x": 1},
    {"dt": 0.0, "length": 1.0, "names": ["mu"]}, {"dt": 0.3, "length": -1.0, "names": ["mu"]},
    {"dt": float("nan"), "length": 1.0, "names": ["mu"]},
    {"dt": 0.3, "length": float("inf"), "names": ["mu"]},
    {"dt": "0.3", "length": 1.0, "names": ["mu"]}, {"dt": True, "length": 1.0, "names": ["mu"]},
    {"dt": 0.3, "length": 1.0, "names": []}, {"dt": 0.3, "length": 1.0, "names": ["mu", "x"]},
    {"dt": 0.3, "length": 1.0, "names": [1]}, {"dt": 0.3, "length": 1.0, "names": "mu"},
])
def test_checkpoint_load_refuses_a_malformed_data_contract(tmp_path, data):
    ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["data"] = data
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="data in .*manifest.json is not"):
        ModelCheckpoint.load(ck)


@pytest.mark.parametrize("change, message", [
    (dict(dt=0.15), None), (dict(dt=0.1), None), (dict(dt=0.3), None),
    (dict(dt=0.6), "dt 0.6 does not divide the checkpoint's dt 0.3"),
    (dict(dt=0.2), "dt 0.2 does not divide the checkpoint's dt 0.3"),
    (dict(length=2.0), "domain length 2.0 differs from the checkpoint's 1.0"),
    (dict(param=ParamPoint.of(nu=0.2)), "parameter names ['nu'] differs from the checkpoint's"),
    (dict(states=np.zeros((30, 16))), "grid width 16 differs from the checkpoint's 8"),
])
def test_check_fits_refuses_data_the_model_was_not_fitted_on(change, message):
    dataset = tiny_dataset()
    ckpt = zeroed_model_checkpoint(tiny_config())
    traj = Trajectory(**{**vars(dataset[0]), **change})
    if message is None:
        ckpt.check_fits(traj, "file.updr")
    else:
        with pytest.raises(ValueError, match=re.escape(f"file.updr: {message}")):
            ckpt.check_fits(traj, "file.updr")


# ---------------------------------------------------------------- determinism

TRAIN_AND_SAVE = """
import sys
from romuq import datagen, training
from romuq.config import LossWeights, TrainConfig, TransformerConfig, VaeConfig

data = [datagen.solve_hopf_surrogate(mu, n_x=64, dt=0.2, n_t=80) for mu in (0.3, 0.4)]
cfg = TrainConfig(
    vae=VaeConfig(state_dim=64, latent_dim=4, hidden=(64,), param_dim=2, embed_dim=8),
    transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=4, width=64,
                                  heads=4, blocks=1, param_dim=2),
    loss=LossWeights(), epochs=2, batch_size=32, lr=1e-3)
training.train(data, cfg, seed=3).save(sys.argv[1])
"""


def test_trained_weights_are_bit_identical_across_processes_and_thread_counts(tmp_path):
    """The determinism contract in fresh interpreters: two epochs at the Hopf
    adaptive fixture's model sizes, whose larger GEMMs a BLAS splits over
    threads, trained twice with one BLAS thread and once with two."""
    path = os.pathsep.join(filter(None, [str(Path(romuq.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    procs = []
    try:
        for i, threads in enumerate(("1", "1", "2")):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            procs.append(subprocess.Popen(
                [sys.executable, "-c", TRAIN_AND_SAVE, str(tmp_path / str(i))], env=env))
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0, 0]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    one, again, two = [(tmp_path / str(i) / "weights.bin").read_bytes() for i in range(3)]
    assert one == again  # same thread count, another process
    assert one == two  # independent of the thread count
