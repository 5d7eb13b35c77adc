import copy
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
from romuq.datagen import ParamPoint, read_trajectory, solve_hopf_surrogate
from romuq.training import ModelCheckpoint, predict_rollout
from romuq.uq import aggregate_param, second_pass


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
                 '{"datagen": {"case": "foo"}}'):
        cfg.write_text(text)
        res = runner.invoke(main, ["generate", "--config", str(cfg),
                                  "--sweep", "mu=0.3", "--out", str(tmp_path / "x")])
        assert res.exit_code == 3, text
        assert "invalid config" in res.output, text
        assert not (tmp_path / "x").exists(), text


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
    assert float(row.split(",")[-1]) == aggregate_param(nu)


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
    nan_payload = good[:-4] + b"\x01\x00\x80\x7f"  # a float32 signalling NaN
    n_t, n_xy = struct.unpack("<QQ", good[8:24])
    header = len(good) - 4 * n_t * n_xy
    one_step = good[:8] + (1).to_bytes(8, "little") + good[16:header + 4 * n_xy]
    mu = good.index(b"\x02\x00mu") + 4  # the value after the name "mu"
    nan_mu = good[:mu] + struct.pack("<d", float("nan")) + good[mu + 8:]
    zero_width = good[:16] + (0).to_bytes(8, "little") + good[24:header]
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
    manifest = ckpt / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"format_version": 1',
                                                     '"format_version": 2'))
    for args in commands:
        assert_exit_5(args, manifest, "format_version")
    manifest.write_text(manifest.read_text().replace('"format_version": 2',
                                                     '"format_version": 1'))

    # a seed that is not an integer, stats narrower than the state
    text = manifest.read_text()
    float_seed, short_stats = json.loads(text), json.loads(text)
    float_seed["seed"] = 0.5
    short_stats["stats"]["std"].pop()
    for entries, message in ((float_seed, "seed"), (short_stats, "stats")):
        manifest.write_text(json.dumps(entries))
        for args in commands:
            assert_exit_5(args, manifest, message)
    manifest.write_text(text)

    # a manifest or sidecar without one of its keys, or that is not JSON
    sidecar = data / "hopf_mu0.3.updr.meta.json"
    for path, key, cmds in ((manifest, "stats", commands),
                            (sidecar, "grid", commands + [["report", "--out", str(data)]])):
        text = path.read_text()
        for content, message in ((json.dumps({k: v for k, v in json.loads(text).items()
                                              if k != key}), key),
                                 ("{", "not valid JSON")):
            path.write_text(content)
            for args in cmds:
                assert_exit_5(args, path, message)
        path.write_text(text)

    # a checkpoint without its last weight, in the manifest and the weights
    entries = json.loads(manifest.read_text())
    dropped = entries["weights"].pop()
    assert dropped["name"] == "transformer.out_head.b"
    manifest.write_text(json.dumps(entries))
    weights.write_bytes(weights.read_bytes()[:-8 * int(np.prod(dropped["shape"]))])
    for args in commands:
        assert_exit_5(args, manifest, dropped["name"])


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
