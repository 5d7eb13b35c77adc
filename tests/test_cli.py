import copy
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import romuq
from romuq.adaptive import evaluate_grid
from romuq.cli import main
from romuq.datagen import (ParamPoint, read_trajectory, solve_hopf_surrogate,
                           write_trajectory)
from romuq.training import ModelCheckpoint, predict_rollout
from romuq.uq import second_pass


SMALL_CONFIG = {
    "datagen": {"case": "hopf", "n_x": 16, "dt": 0.1, "n_t": 40},
    "vae": {"latent_dim": 2, "hidden": [12], "embed_dim": 3},
    "transformer": {"lookback": 3, "horizon": 3, "width": 8, "heads": 2},
    "training": {"epochs": 2, "batch_size": 16, "retrain_epochs": 1},
    "uq": {"ensemble_n": 4},
    "adaptive": {"budget": 1, "threshold": 0.0,
                 "grid": [{"mu": 0.2, "omega": 1.0},
                          {"mu": 0.3, "omega": 1.0},
                          {"mu": 0.5, "omega": 1.0}]},
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(path):
    with open(path, "w") as f:
        json.dump(SMALL_CONFIG, f)


def assert_csvs_load(directory):
    """Every CSV under ``directory`` parses as a plain numeric table."""
    paths = sorted(Path(directory).rglob("*.csv"))
    assert paths
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.size and np.all(np.isfinite(table)), path


def run_generate(runner, tmp, out="data"):
    cfg = tmp / "config.json"
    write_config(cfg)
    res = runner.invoke(main, ["generate", "--config", str(cfg),
                              "--sweep", "mu=0.3,0.5", "--seed", "1",
                              "--out", str(tmp / out)])
    assert res.exit_code == 0, res.output
    return tmp / out


def run_train(runner, tmp, data_dir, out="train"):
    cfg = tmp / "config.json"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                              str(data_dir), "--seed", "1",
                              "--out", str(tmp / out)])
    assert res.exit_code == 0, res.output
    return tmp / out / "checkpoint"


# ------------------------------------------------------------------- generate


def test_generate_writes_expected_artifacts(runner, tmp_path):
    out = run_generate(runner, tmp_path)
    assert (out / "hopf_mu0.3.updr").exists()
    assert (out / "hopf_mu0.5.updr").exists()
    assert (out / "resolved_config.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["hopf_mu0.3.updr", "hopf_mu0.5.updr"]
    assert manifest["sweep"] == {"mu": [0.3, 0.5]}


def test_generate_is_byte_deterministic(runner, tmp_path):
    a = run_generate(runner, tmp_path, out="a")
    b = run_generate(runner, tmp_path, out="b")
    for name in ("hopf_mu0.3.updr", "manifest.json", "resolved_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_seed_follows_config(runner, tmp_path):
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, seed=7,
                                   datagen={"case": "ks", "n_x": 16, "n_t": 20})))

    def generate(out, *seed):
        res = runner.invoke(main, ["generate", "--config", str(cfg), "--sweep",
                                  "nu=1.0", *seed, "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
        return tmp_path / out

    def recorded(out):
        return (json.loads((out / "manifest.json").read_text())["seed"],
                json.loads((out / "resolved_config.json").read_text())["seed"])

    implicit = generate("implicit")
    assert recorded(implicit) == (7, 7)
    assert (implicit / "ks_nu1.updr").read_bytes() == \
        (generate("seven", "--seed", "7") / "ks_nu1.updr").read_bytes()
    explicit = generate("three", "--seed", "3")
    assert recorded(explicit) == (3, 3)  # an explicit --seed still wins
    assert (explicit / "ks_nu1.updr").read_bytes() != \
        (implicit / "ks_nu1.updr").read_bytes()


def test_generate_ks_nu_spellings_write_the_same_files(runner, tmp_path):
    # a KS trajectory names nu ``ks_nu``; a sweep may use either name
    cfg = tmp_path / "config.json"
    write_config(cfg)
    outs = [tmp_path / name for name in ("nu", "ks_nu")]
    for out in outs:
        res = runner.invoke(main, ["generate", "--config", str(cfg), "--case", "ks",
                                  "--sweep", f"{out.name}=0.9", "--out", str(out)])
        assert res.exit_code == 0, res.output
    listings = [sorted(p.name for p in out.iterdir()) for out in outs]
    assert listings[0] == listings[1]
    assert "ks_nu0.9.updr" in listings[0]
    for name in listings[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_generate_rejects_malformed_sweep(runner, tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    for sweep in ("mu", "mu=", ""):
        res = runner.invoke(main, ["generate", "--config", str(cfg),
                                  "--sweep", sweep, "--out", str(tmp_path / "x")])
        assert res.exit_code == 5


def test_generate_rejects_wrong_sweep_name(runner, tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    res = runner.invoke(main, ["generate", "--config", str(cfg),
                              "--sweep", "nu=0.3", "--out", str(tmp_path / "x")])
    assert res.exit_code == 5
    assert "the hopf solver sweeps 'mu', got 'nu'" in res.output
    assert not (tmp_path / "x").exists()  # refused before --out is created


@pytest.mark.parametrize("command", [
    ["generate", "--sweep", "mu=0.3", "--seed", "-3"],
    ["train", "--data", "{tmp}/data", "--seed", "-2"],
    ["uq", "--checkpoint", "{tmp}/ckpt", "--data", "{tmp}/a.updr", "--seed", "-1"],
    ["adapt", "--checkpoint", "{tmp}/ckpt", "--data", "{tmp}/data", "--seed", "-5"],
])
def test_negative_seed_option_exit_5_before_anything_is_read(runner, tmp_path, command):
    # none of the inputs exists: the seed is refused first
    out = tmp_path / "out"
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in command] + ["--out", str(out)])
    assert res.exit_code == 5, res.output
    assert "--seed must be >= 0" in res.output
    assert not out.exists()


def test_negative_config_seed_exit_3_naming_the_file(runner, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, seed=-4)))
    res = runner.invoke(main, ["generate", "--config", str(cfg), "--sweep", "mu=0.3",
                              "--out", str(tmp_path / "x")])
    assert res.exit_code == 3, res.output
    assert f"invalid config: {cfg}: seed must be >= 0" in res.output
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section, key, value", [
    ("adaptive", "threshold", "NaN"),
    ("loss", "kld_weight", "NaN"),
    ("training", "lr", "Infinity"),
    ("adaptive", "grid", '[{"mu": -Infinity}]'),
], ids=["threshold", "kld_weight", "lr", "grid"])
def test_non_finite_config_value_exit_3_naming_the_file_and_key(runner, tmp_path,
                                                                section, key, value):
    # the config is refused before --data, which does not exist, is read
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"{section}": {{"{key}": {value}}}}}')
    out = tmp_path / "train"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                              "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert f"invalid config: {cfg}: [{section}] {key} must be finite" in res.output
    assert not out.exists()


def test_missing_config_file_exit_code(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--config", str(tmp_path / "no.json"),
                              "--sweep", "mu=0.3"])
    assert res.exit_code == 2


def test_invalid_config_exit_code(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"not_a_section": {}}')
    res = runner.invoke(main, ["generate", "--config", str(cfg),
                              "--sweep", "mu=0.3"])
    assert res.exit_code == 3
    cfg.write_text('{"vae": {"latent_dimension": 2}}')
    res = runner.invoke(main, ["generate", "--config", str(cfg),
                              "--sweep", "mu=0.3"])
    assert res.exit_code == 3
    for text in ('not json', '{"vae": {"hidden": ["a"]}}',
                 '{"vae": {"latent_dim": "x"}}', '{"datagen": {"n_t": "x"}}',
                 '{"training": {"epochs": 0}}', '{"training": {"retrain_epochs": 0}}',
                 '{"training": {"replay_fraction": -0.1}}',
                 '{"training": {"replay_fraction": 1.5}}',
                 '{"uq": {"ensemble_n": 1}}', '{"adaptive": {"budget": 0}}',
                 '{"datagen": {"case": "foo"}}', '{"datagen": {"dt": 0}}',
                 '{"datagen": {"dt": -0.05}}', '{"datagen": {"dt": NaN}}',
                 '{"datagen": {"domain_length": 0}}',
                 '{"datagen": {"domain_length": -22.0}}'):
        cfg.write_text(text)
        res = runner.invoke(main, ["generate", "--config", str(cfg),
                                  "--sweep", "mu=0.3", "--out", str(tmp_path / "x")])
        assert res.exit_code == 3, text
        assert "invalid config" in res.output, text
        assert not (tmp_path / "x").exists(), text


def test_length_round_trips_through_the_header_alone(runner, tmp_path):
    # no sidecar is present when any of these files is read
    cfg = tmp_path / "ks.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, datagen={"case": "ks", "n_x": 16, "n_t": 20})))
    res = runner.invoke(main, ["generate", "--config", str(cfg), "--sweep", "nu=1.0",
                              "--out", str(tmp_path / "ks")])
    assert res.exit_code == 0, res.output
    data = run_generate(runner, tmp_path)
    for sidecar in [*data.glob("*.meta.json"), *(tmp_path / "ks").glob("*.meta.json")]:
        sidecar.unlink()
    assert read_trajectory(tmp_path / "ks" / "ks_nu1.updr").length == 22.0
    assert read_trajectory(data / "hopf_mu0.3.updr").length == 2 * np.pi
    ckpt = run_train(runner, tmp_path, data)
    res = runner.invoke(main, ["infer", "--checkpoint", str(ckpt), "--data",
                              str(data / "hopf_mu0.3.updr"), "--out", str(tmp_path / "infer")])
    assert res.exit_code == 0, res.output
    (tmp_path / "infer" / "prediction.updr.meta.json").unlink()
    assert read_trajectory(tmp_path / "infer" / "prediction.updr").length == 2 * np.pi


@pytest.mark.parametrize("section,key,value", [
    ("transformer", "heads", 3),      # width 8 is not a multiple of 3
    ("loss", "lam", -1),
    ("vae", "latent_dim", 16),        # the data's state dim is 16
    ("vae", "hidden", 64),
    ("training", "batch_size", 0),
])
def test_train_bad_config_value_exit_code(runner, tmp_path, section, key, value):
    data = run_generate(runner, tmp_path)
    bad = copy.deepcopy(SMALL_CONFIG)
    bad.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data", str(data),
                              "--out", str(tmp_path / "train")])
    assert res.exit_code == 3, res.output
    assert "invalid config" in res.output


# ------------------------------------------------------------ train and infer


def test_train_infer_uq_pipeline(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    assert (ckpt / "manifest.json").exists()
    assert (ckpt / "weights.bin").exists()
    summary = json.loads((ckpt.parent / "train_summary.json").read_text())
    assert summary["epochs"] == 2
    final = summary["final_loss_components"]
    assert (final["reconstruction_kld"] + final["latent_prediction"]
            + final["decoded_prediction"]) == pytest.approx(summary["final_loss"],
                                                            rel=1e-12, abs=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["lineage"][-1]["loss_components"][-1] == final

    res = runner.invoke(main, ["infer", "--checkpoint", str(ckpt), "--data",
                              str(data / "hopf_mu0.3.updr"),
                              "--out", str(tmp_path / "infer")])
    assert res.exit_code == 0, res.output
    ke = (tmp_path / "infer/kinetic_energy.csv").read_text().strip().split("\n")
    assert ke[0] == "t,k_pred,k_true"
    assert len(ke) == 1 + 40 - 3  # n_t minus lookback rows
    assert (tmp_path / "infer/prediction.updr").exists()
    metrics = json.loads((tmp_path / "infer/metrics.json").read_text())
    assert metrics["relative_mse_percent"] >= 0

    res = runner.invoke(main, ["uq", "--checkpoint", str(ckpt), "--data",
                              str(data / "hopf_mu0.3.updr"), "--n", "4",
                              "--seed", "0", "--out", str(tmp_path / "uq")])
    assert res.exit_code == 0, res.output
    for name in ("uq_field.csv", "nu_t.csv", "nu_xi.csv", "metrics.csv"):
        assert (tmp_path / "uq" / name).exists()
    header = (tmp_path / "uq/metrics.csv").read_text().split("\n")[0]
    assert header == ("mu,omega,relative_mse_percent,crps_printed,crps_abs,"
                      "scaled_mse_mean")
    assert_csvs_load(tmp_path / "infer")
    assert_csvs_load(tmp_path / "uq")


def test_uq_output_deterministic(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    for out in ("u1", "u2"):
        res = runner.invoke(main, ["uq", "--checkpoint", str(ckpt), "--data",
                                  str(data / "hopf_mu0.5.updr"), "--n", "4",
                                  "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output
    for name in ("uq_field.csv", "nu_t.csv", "metrics.csv"):
        assert (tmp_path / "u1" / name).read_bytes() == (tmp_path / "u2" / name).read_bytes()


def test_uq_tables_hold_the_library_nu_bit_for_bit(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt_dir = run_train(runner, tmp_path, data)
    res = runner.invoke(main, ["uq", "--checkpoint", str(ckpt_dir), "--data",
                              str(data / "hopf_mu0.5.updr"), "--n", "4",
                              "--seed", "3", "--out", str(tmp_path / "uq")])
    assert res.exit_code == 0, res.output

    ckpt = ModelCheckpoint.load(ckpt_dir)
    traj = read_trajectory(data / "hopf_mu0.5.updr")
    q = ckpt.config.transformer.lookback
    pred, _ = predict_rollout(ckpt, traj.states[:q], traj.param, traj.n_t - q)
    nu, _ = second_pass(pred, ckpt, traj.param, n=4, seed=3)

    header, *lines = (tmp_path / "uq/uq_field.csv").read_text().splitlines()
    assert header == "t,d,nu"
    rows = [line.split(",") for line in lines]
    assert [(int(t), int(d)) for t, d, _ in rows] == list(np.ndindex(nu.shape))
    assert np.array([float(v) for *_, v in rows]).tobytes() == nu.tobytes()
    header, row = (tmp_path / "uq/nu_xi.csv").read_text().splitlines()
    assert header == "mu,omega,nu_xi"
    assert float(row.split(",")[-1]) == float(nu.mean())


def test_uq_tiny_ensemble_exit_5_before_loading_anything(runner, tmp_path):
    # neither input exists: the size is refused before either is read
    res = runner.invoke(main, ["uq", "--checkpoint", str(tmp_path / "no"),
                              "--data", str(tmp_path / "no.updr"), "--n", "1"])
    assert res.exit_code == 5, res.output
    assert "ensemble size must be >= 2" in res.output


def test_train_missing_data_exit_code(runner, tmp_path):
    (tmp_path / "empty").mkdir()
    res = runner.invoke(main, ["train", "--data", str(tmp_path / "empty")])
    assert res.exit_code == 2


def write_disagreeing_data(directory, change):
    """Two Hopf trajectories, the second (b.updr) changed by ``change``."""
    directory.mkdir()
    first = solve_hopf_surrogate(mu=0.3, n_x=16, dt=0.1, n_t=40)
    write_trajectory(directory / "a.updr", first)
    write_trajectory(directory / "b.updr", dataclasses.replace(first, **change(first)))
    return directory / "b.updr"


DISAGREEMENTS = [
    ("dt", lambda t: {"dt": 0.2}),
    ("domain length", lambda t: {"length": 11.0}),
    ("grid width", lambda t: {"states": t.states[:, :8]}),
    ("parameter names", lambda t: {"param": ParamPoint.of(mu=0.5)}),
]


@pytest.mark.parametrize("field, change", DISAGREEMENTS)
def test_train_refuses_trajectories_that_disagree_exit_5(runner, tmp_path, field, change):
    bad = write_disagreeing_data(tmp_path / "data", change)
    cfg = tmp_path / "config.json"
    write_config(cfg)
    out = tmp_path / "train"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                              str(tmp_path / "data"), "--out", str(out)])
    assert res.exit_code == 5, res.output
    assert f"{bad}: {field} " in res.output
    assert not out.exists()


def test_adapt_refuses_trajectories_that_disagree_exit_5(runner, tmp_path):
    ckpt = run_train(runner, tmp_path, run_generate(runner, tmp_path))
    bad = write_disagreeing_data(tmp_path / "mixed", DISAGREEMENTS[0][1])
    out = tmp_path / "adapt"
    res = runner.invoke(main, ["adapt", "--config", str(tmp_path / "config.json"),
                              "--checkpoint", str(ckpt), "--data", str(tmp_path / "mixed"),
                              "--out", str(out)])
    assert res.exit_code == 5, res.output
    assert f"{bad}: dt 0.2 differs from 0.1" in res.output
    assert not out.exists()


@pytest.mark.parametrize("datagen, message", [
    ({"dt": 0.2}, "dt 0.2 differs from 0.1"),
    ({"n_x": 32}, "grid width 32 differs from 16"),
], ids=["dt", "n_x"])
def test_adapt_refuses_grid_solves_that_disagree_with_the_data_exit_5(runner, tmp_path,
                                                                      datagen, message):
    ckpt = run_train(runner, tmp_path, run_generate(runner, tmp_path))
    cfg = tmp_path / "changed.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG,
                                   datagen={**SMALL_CONFIG["datagen"], **datagen})))
    res = runner.invoke(main, ["adapt", "--config", str(cfg), "--checkpoint", str(ckpt),
                              "--data", str(tmp_path / "data"),
                              "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 5, res.output
    assert f"grid point {{'mu': 0.2, 'omega': 1.0}}: {message} in {tmp_path / 'data'}" \
        in res.output
    assert not (tmp_path / "adapt" / "checkpoint").exists()


@pytest.mark.parametrize("change, message", [
    (lambda t: {"states": np.tile(t.states, 2)}, "grid width 32 differs from the checkpoint's 16"),
    (lambda t: {"length": 2 * t.length},
     "domain length {} differs from the checkpoint's {}"),
    (lambda t: {"param": ParamPoint.of(nu=0.3)},
     "parameter names ['nu'] differs from the checkpoint's ['mu', 'omega']"),
    (lambda t: {"dt": 0.15}, "dt 0.15 does not divide the checkpoint's dt 0.2 a whole number"),
], ids=["grid_width", "length", "names", "dt"])
def test_data_the_checkpoint_was_not_fitted_on_exit_5_before_out(runner, tmp_path,
                                                                 change, message):
    """The checkpoint was fitted on the even-index split of 16-wide Hopf
    files at dt 0.1, so at dt 0.2; infer, uq and adapt refuse a file of
    another grid width, length or parameter names, or a dt that does not
    divide 0.2 a whole number of times, naming the file, the field and both
    values."""
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    good = read_trajectory(data / "hopf_mu0.3.updr")
    (tmp_path / "bad").mkdir()
    bad = tmp_path / "bad" / "b.updr"
    write_trajectory(bad, dataclasses.replace(good, **change(good)))
    message = message.format(2 * good.length, good.length)
    out = tmp_path / "out"
    for args in (["infer", "--checkpoint", str(ckpt), "--data", str(bad)],
                 ["uq", "--checkpoint", str(ckpt), "--data", str(bad), "--n", "2"],
                 ["adapt", "--config", str(tmp_path / "config.json"), "--checkpoint",
                  str(ckpt), "--data", str(bad.parent)]):
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 5, res.output
        assert f"{bad}: {message}" in res.output
        assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_adapt_non_finite_threshold_exit_5_before_anything_is_read(runner, tmp_path,
                                                                   threshold):
    out = tmp_path / "adapt"
    res = runner.invoke(main, ["adapt", "--checkpoint", str(tmp_path / "ckpt"),
                              "--data", str(tmp_path / "data"),
                              "--threshold", threshold, "--out", str(out)])
    assert res.exit_code == 5, res.output
    assert "--threshold must be finite" in res.output
    assert not out.exists()


def test_malformed_inputs_exit_5_naming_the_file(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    traj = data / "hopf_mu0.3.updr"
    cfg = str(tmp_path / "config.json")
    out = ["--out", str(tmp_path / "out")]
    commands = [
        ["infer", "--checkpoint", str(ckpt), "--data", str(traj), *out],
        ["uq", "--checkpoint", str(ckpt), "--data", str(traj), "--n", "2", *out],
        ["adapt", "--config", cfg, "--checkpoint", str(ckpt), "--data", str(data), *out],
    ]

    def assert_exit_5(args, bad, message):
        res = runner.invoke(main, args)
        assert res.exit_code == 5, res.output
        assert str(bad) in res.output and message in res.output

    good = traj.read_bytes()
    huge_n_t = good[:8] + (2 ** 62).to_bytes(8, "little") + good[16:]
    crc = good[-4:]  # the checksum ends the file, after the payload
    nan_payload = good[:-8] + b"\x01\x00\x80\x7f" + crc  # a float32 signalling NaN
    n_t, n_xy = struct.unpack("<QQ", good[8:24])
    header = len(good) - 4 - 4 * n_t * n_xy
    one_step = good[:8] + (1).to_bytes(8, "little") + good[16:header + 4 * n_xy] + crc
    mu = good.index(b"\x02\x00mu") + 4  # the value after the name "mu"
    nan_mu = good[:mu] + struct.pack("<d", float("nan")) + good[mu + 8:]
    zero_width = good[:16] + (0).to_bytes(8, "little") + good[24:header] + crc
    bad_name = good[:mu - 2] + b"\xffu" + good[mu:]
    for content, message in ((good[:-4], "truncated"), (good + b"\0", "trailing"),
                             (huge_n_t, "truncated"), (nan_payload, "non-finite"),
                             (one_step, "n_t>=2"), (nan_mu, "non-finite parameter mu"),
                             (zero_width, "n_xy>=1"), (bad_name, "not UTF-8")):
        traj.write_bytes(content)
        for args in commands + [["report", "--out", str(data)]]:
            assert_exit_5(args, traj, message)
    traj.write_bytes(good)

    weights = ckpt / "weights.bin"
    weights.write_bytes(weights.read_bytes() + b"\0" * 8)
    for args in commands:
        assert_exit_5(args, weights, "bytes")
    weights.write_bytes(weights.read_bytes()[:-8])
    good_weights = weights.read_bytes()
    weights.write_bytes(good_weights[:-1] + bytes([good_weights[-1] ^ 1]))
    for args in commands:
        assert_exit_5(args, weights, "checksum mismatch")
    weights.write_bytes(good_weights)
    manifest = ckpt / "manifest.json"
    for version in ("1", "3"):
        manifest.write_text(manifest.read_text().replace('"format_version": 2',
                                                         f'"format_version": {version}'))
        for args in commands:
            assert_exit_5(args, manifest, f"unsupported checkpoint format_version {version}")
        manifest.write_text(manifest.read_text().replace(f'"format_version": {version}',
                                                         '"format_version": 2'))

    # a seed that is not an integer; stats narrower than the state, not
    # numbers, not finite or with a zero std; weights that are not a list
    text = manifest.read_text()
    float_seed, short_stats, text_mean, null_mean, zero_std, int_weights = (
        json.loads(text) for _ in range(6))
    float_seed["seed"] = 0.5
    short_stats["stats"]["std"].pop()
    text_mean["stats"]["mean"] = "abc"
    null_mean["stats"]["mean"][0] = None
    zero_std["stats"]["std"] = [0.0] * len(zero_std["stats"]["std"])
    int_weights["weights"] = 3
    for entries, message in ((float_seed, "seed"), (short_stats, "stats"),
                             (text_mean, "not numbers"), (null_mean, "not finite"),
                             (zero_std, "positive std"), (int_weights, "not a list")):
        manifest.write_text(json.dumps(entries))
        for args in commands:
            assert_exit_5(args, manifest, message)
    manifest.write_text(text)

    # a manifest without one of its keys, or that is not JSON
    for content, message in ((json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != "stats"}), "stats"),
                             ("{", "not valid JSON")):
        manifest.write_text(content)
        for args in commands:
            assert_exit_5(args, manifest, message)
    manifest.write_text(text)

    # a checkpoint without its last weight, in the manifest and the weights
    entries = json.loads(manifest.read_text())
    dropped = entries["weights"].pop()
    assert dropped["name"] == "transformer.out_head.b"
    manifest.write_text(json.dumps(entries))
    weights.write_bytes(weights.read_bytes()[:-8 * int(np.prod(dropped["shape"]))])
    for args in commands:
        assert_exit_5(args, manifest, dropped["name"])


def test_trajectory_format_1_bad_header_or_checksum_exit_5(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    traj = data / "hopf_mu0.3.updr"
    good = traj.read_bytes()
    # format 1: version 1, no length after dt, no checksum
    format_1 = good[:4] + struct.pack("<I", 1) + good[8:32] + good[40:-4]
    zero_dt = good[:24] + struct.pack("<d", 0.0) + good[32:]
    nan_length = good[:32] + struct.pack("<d", float("nan")) + good[40:]
    flipped = good[:-8] + bytes([good[-8] ^ 1]) + good[-7:]  # a state's last mantissa bit
    for content, message in ((format_1, "unsupported format version 1"),
                             (zero_dt, "must be finite and positive"),
                             (nan_length, "must be finite and positive"),
                             (flipped, "checksum mismatch")):
        traj.write_bytes(content)
        for args in (["infer", "--checkpoint", str(ckpt), "--data", str(traj),
                      "--out", str(tmp_path / "out")], ["report", "--out", str(data)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 5, res.output
            assert str(traj) in res.output and message in res.output


def test_bad_manifest_config_lineage_or_loss_curve_exit_5(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    manifest = ckpt / "manifest.json"
    good = json.loads(manifest.read_text())
    bad_config = copy.deepcopy(good)
    bad_config["config"]["vae"]["latent_dim"] = "x"
    nan_config = copy.deepcopy(good)
    nan_config["config"]["loss"]["kld_weight"] = float("nan")
    cases = [(bad_config, "latent_dim must be of type int"),
             (nan_config, "kld_weight must be finite")] + [
        ({**good, key: value}, key)
        for key, value in (("lineage", 3), ("lineage", [1]), ("loss_curve", "abc"),
                           ("loss_curve", [0.5, float("nan")]), ("loss_curve", [True]))]
    for entries, message in cases:
        manifest.write_text(json.dumps(entries))
        for args in (["infer", "--checkpoint", str(ckpt), "--data", str(data / "hopf_mu0.3.updr")],
                     ["adapt", "--config", str(tmp_path / "config.json"),
                      "--checkpoint", str(ckpt), "--data", str(data)]):
            res = runner.invoke(main, args + ["--out", str(tmp_path / args[0])])
            assert res.exit_code == 5, res.output
            assert str(manifest) in res.output and message in res.output


def test_train_divergence_exit_4_naming_epoch_and_step(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    hot = copy.deepcopy(SMALL_CONFIG)
    hot["training"]["lr"] = 1e12
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps(hot))
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data", str(data),
                              "--out", str(tmp_path / "train")])
    assert res.exit_code == 4, res.output
    assert re.search(r"diverged at epoch \d+, step \d+", res.output), res.output


def test_non_finite_rollout_exit_4(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    model = ModelCheckpoint.load(ckpt)
    dict(model.named_parameters())["transformer.in_proj.w"].data[:] = 1e300
    model.save(ckpt)
    traj = str(data / "hopf_mu0.3.updr")
    for args in (["infer", "--checkpoint", str(ckpt), "--data", traj],
                 ["uq", "--checkpoint", str(ckpt), "--data", traj, "--n", "2"],
                 ["adapt", "--config", str(tmp_path / "config.json"),
                  "--checkpoint", str(ckpt), "--data", str(data)]):
        res = runner.invoke(main, args + ["--out", str(tmp_path / args[0])])
        assert res.exit_code == 4, res.output
        assert "rollout diverged at step 0" in res.output


def test_infer_missing_inputs_exit_codes(runner, tmp_path):
    res = runner.invoke(main, ["infer", "--checkpoint", str(tmp_path / "no"),
                              "--data", str(tmp_path / "no.updr")])
    assert res.exit_code == 2


# ---------------------------------------------------------------------- adapt


def test_adapt_runs_one_iteration(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    cfg = tmp_path / "config.json"
    res = runner.invoke(main, ["adapt", "--config", str(cfg),
                              "--checkpoint", str(ckpt), "--data", str(data),
                              "--budget", "1", "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 0, res.output
    hist = json.loads((tmp_path / "adapt/adaptive_history.json").read_text())
    assert len(hist["history"]) == 2  # iteration 0 acquisition + final sweep
    assert (tmp_path / "adapt/iter0_nu.csv").exists()
    assert (tmp_path / "adapt/iter1_nu.csv").exists()
    assert (tmp_path / "adapt/checkpoint/manifest.json").exists()
    assert_csvs_load(tmp_path / "adapt")


def test_adapt_resolved_config_records_overrides(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    res = runner.invoke(main, ["adapt", "--config", str(tmp_path / "config.json"),
                              "--checkpoint", str(ckpt), "--data", str(data),
                              "--budget", "2", "--threshold", "0.5", "--seed", "4",
                              "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 0, res.output
    resolved = tmp_path / "adapt/resolved_config.json"
    recorded = json.loads(resolved.read_text())
    assert recorded["adaptive"]["budget"] == 2
    assert recorded["adaptive"]["threshold"] == 0.5
    assert recorded["seed"] == 4
    # the record is a valid config that resolves to itself
    res = runner.invoke(main, ["generate", "--config", str(resolved),
                              "--sweep", "mu=0.3", "--seed", "4",
                              "--out", str(tmp_path / "again")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "again/resolved_config.json").read_bytes() == resolved.read_bytes()


def test_adapt_grid_names_must_match_the_data_exit_3(runner, tmp_path):
    # KS trajectories carry ``ks_nu``; a grid keyed ``nu`` never matches them
    ks = dict(SMALL_CONFIG, datagen={"case": "ks", "n_x": 16, "n_t": 20},
              adaptive={"budget": 1, "threshold": 0.0,
                        "grid": [{"nu": 1.0}, {"nu": 1.1}]})
    cfg = tmp_path / "ks.json"
    cfg.write_text(json.dumps(ks))
    res = runner.invoke(main, ["generate", "--config", str(cfg), "--sweep",
                              "nu=0.9,1.0", "--out", str(tmp_path / "data")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                              str(tmp_path / "data"), "--out", str(tmp_path / "train")])
    assert res.exit_code == 0, res.output
    out = tmp_path / "adapt"
    res = runner.invoke(main, ["adapt", "--config", str(cfg), "--checkpoint",
                              str(tmp_path / "train/checkpoint"), "--data",
                              str(tmp_path / "data"), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "adaptive.grid" in res.output and "ks_nu" in res.output
    assert not out.exists()


def test_adapt_case_must_solve_the_data_exit_3(runner, tmp_path):
    # Hopf data with datagen.case left at its default, ks
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    cfg = tmp_path / "ks_case.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, datagen={"n_x": 16, "dt": 0.1, "n_t": 40})))
    out = tmp_path / "adapt"
    res = runner.invoke(main, ["adapt", "--config", str(cfg), "--checkpoint",
                              str(ckpt), "--data", str(data), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "datagen.case" in res.output and "'ks'" in res.output
    assert not out.exists()


def test_adapt_solves_at_every_grid_value(runner, tmp_path):
    # omega 2.0 is not datagen.omega: the point must be solved at 2.0, or
    # the loop refuses the trajectory the generator returns
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    cfg = tmp_path / "omega.json"
    cfg.write_text(json.dumps(dict(SMALL_CONFIG, adaptive={
        "budget": 1, "threshold": 0.0,
        "grid": [{"mu": 0.2, "omega": 2.0}, {"mu": 0.3, "omega": 1.0}]})))
    res = runner.invoke(main, ["adapt", "--config", str(cfg), "--checkpoint",
                              str(ckpt), "--data", str(data),
                              "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 0, res.output
    hist = json.loads((tmp_path / "adapt/adaptive_history.json").read_text())
    assert hist["trained_set"][-1] == {"mu": 0.2, "omega": 2.0}
    # the first sweep's error at the point is the one against omega 2.0
    point = ParamPoint.of(mu=0.2, omega=2.0)
    truth = solve_hopf_surrogate(0.2, omega=2.0, n_x=16, dt=0.1, n_t=40)
    _, (mse,), _ = evaluate_grid(ModelCheckpoint.load(ckpt), {point: truth}, [point], 2, 0)
    rows = (tmp_path / "adapt/iter0_mse.csv").read_text().split("\n")
    assert rows[1] == f"0.2,2.0,{mse!r}"


def test_every_json_file_has_one_layout(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    for args in (["infer", "--checkpoint", str(ckpt), "--data",
                  str(data / "hopf_mu0.3.updr"), "--out", str(tmp_path / "infer")],
                 ["adapt", "--config", str(tmp_path / "config.json"), "--checkpoint",
                  str(ckpt), "--data", str(data), "--out", str(tmp_path / "adapt")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    written = sorted(p for d in ("data", "train", "infer", "adapt")
                     for p in (tmp_path / d).rglob("*.json"))
    assert {p.relative_to(tmp_path).as_posix() for p in written} >= {
        "data/manifest.json", "data/hopf_mu0.3.updr.meta.json",
        "data/resolved_config.json", "train/train_summary.json",
        "train/checkpoint/manifest.json", "infer/metrics.json",
        "adapt/adaptive_history.json", "adapt/checkpoint/manifest.json"}
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


def test_adapt_empty_grid_exit_code(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    cfg = tmp_path / "nogrid.json"
    # an empty grid, and a one-point grid with no correlation to compute
    for grid in ([], [{"mu": 0.2, "omega": 1.0}]):
        bare = dict(SMALL_CONFIG)
        bare["adaptive"] = {"budget": 1, "threshold": 0.0, "grid": grid}
        cfg.write_text(json.dumps(bare))
        out = tmp_path / f"adapt{len(grid)}"
        res = runner.invoke(main, ["adapt", "--config", str(cfg), "--checkpoint",
                                  str(ckpt), "--data", str(data), "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "at least two points" in res.output
        assert not out.exists()


# --------------------------------------------------------------------- report


def test_report_emits_ke_tables(runner, tmp_path):
    data = run_generate(runner, tmp_path)
    res = runner.invoke(main, ["report", "--out", str(data)])
    assert res.exit_code == 0, res.output
    assert (data / "ke_hopf_mu0.3.csv").exists()
    lines = (data / "ke_hopf_mu0.3.csv").read_text().strip().split("\n")
    assert lines[0] == "t,kinetic_energy"
    assert len(lines) == 41
    assert_csvs_load(data)


def test_report_exit_codes(runner, tmp_path):
    res = runner.invoke(main, ["report", "--out", str(tmp_path / "missing")])
    assert res.exit_code == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    res = runner.invoke(main, ["report", "--out", str(empty)])
    assert res.exit_code == 2


GENERATE_AND_REPORT = """
import sys
from romuq.cli import main
main(["generate", "--config", sys.argv[1], "--sweep", "mu=0.3", "--out", sys.argv[2]],
     standalone_mode=False)
main(["report", "--out", sys.argv[2]], standalone_mode=False)
print(sorted(m for m in ("scipy", "romuq.tensor", "romuq.training", "romuq.uq",
                         "romuq.adaptive") if m in sys.modules))
"""


def test_generate_and_report_leave_the_model_stack_unloaded(tmp_path):
    """In a fresh interpreter, the commands that run no model import neither
    the model stack nor scipy."""
    cfg = tmp_path / "config.json"
    write_config(cfg)
    path = os.pathsep.join(filter(None, [str(Path(romuq.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", GENERATE_AND_REPORT, str(cfg),
                          str(tmp_path / "data")], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "data/ke_hopf_mu0.3.csv").exists()
    assert res.stdout.splitlines()[-1] == "[]"
