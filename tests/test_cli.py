import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import romuq
from refusals import CFG, HOPF, REFUSALS, flow_commands, make_error_inputs, run_cli
from romuq.adaptive import evaluate_grid
from romuq.cli import _check_datagen, _generate_one, main
from romuq.config import ConfigError, DatagenSection, RunConfig, TrainingSection
from romuq.datagen import ParamPoint, read_trajectory, solve_hopf_surrogate, split_even_odd
from romuq.errors import TrainingDiverged
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


@pytest.mark.parametrize("datagen", [
    {"case": "ks", "n_x": 16, "dt": 0.05, "domain_length": 22.0},
    {"case": "ks", "n_x": 32, "dt": 0.1, "domain_length": 11.0},
    {"case": "hopf", "n_x": 16, "dt": 0.1},
    {"case": "hopf", "n_x": 32, "dt": 0.3, "domain_length": 5.0},
], ids=["ks-16", "ks-32", "hopf-16", "hopf-32"])
def test_a_solve_passes_the_data_check_of_the_config_that_made_it(datagen):
    # so adapt's grid solves need no check of their own: they are made at
    # the datagen the initial files were checked against
    config = RunConfig(datagen=DatagenSection(n_t=8, **datagen))
    grid = ([{"ks_nu": 0.9}, {"nu": 1.2}] if datagen["case"] == "ks"
            else [{"mu": 0.2, "omega": 2.0}, {"mu": -0.1}])
    for params in grid:
        _check_datagen(config, "cfg.json", _generate_one(config, params), "solve.updr")


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
    assert hist["param_grid"] == SMALL_CONFIG["adaptive"]["grid"]
    assert hist["trained_set"][2:] == [hist["history"][0]["chosen"]]  # after the two files
    # each iteration's tables hold its history record's values, in grid order
    for i, rec in enumerate(hist["history"]):
        assert rec["iteration"] == i
        for table, key, column in (("nu", "nu_xi", "nu"), ("mse", "scaled_mse", "mse")):
            rows = [f"{e['param']['mu']!r},{e['param']['omega']!r},{e[column]!r}"
                    for e in rec[key]]
            assert (tmp_path / f"adapt/iter{i}_{table}.csv").read_text() == \
                "\n".join([f"mu,omega,{key}", *rows, ""])
    assert not list((tmp_path / "adapt").glob("iter2_*"))
    assert (tmp_path / "adapt/checkpoint/manifest.json").exists()
    assert_csvs_load(tmp_path / "adapt")


def test_adapt_failing_inside_the_loop_leaves_no_out(runner, tmp_path, monkeypatch):
    # the loop's first retrain diverges after iteration 0 has been scored
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)

    def diverging(*args, **kwargs):
        raise TrainingDiverged(0, 0, "exp")

    monkeypatch.setattr(romuq.adaptive, "retrain", diverging)
    res = runner.invoke(main, ["adapt", "--config", str(tmp_path / "config.json"),
                              "--checkpoint", str(ckpt), "--data", str(data),
                              "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 4, res.output
    assert "training diverged at epoch 0, step 0" in res.output
    assert not (tmp_path / "adapt").exists()


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
    # the first sweep's error at the point is the one against omega 2.0, at
    # the trained dt
    point = ParamPoint.of(mu=0.2, omega=2.0)
    truth, _ = split_even_odd(solve_hopf_surrogate(0.2, omega=2.0, n_x=16, dt=0.1, n_t=40))
    _, (mse,), _ = evaluate_grid(ModelCheckpoint.load(ckpt), {point: truth}, [point], 2, 0)
    rows = (tmp_path / "adapt/iter0_mse.csv").read_text().split("\n")
    assert rows[1] == f"0.2,2.0,{mse!r}"


def test_adapt_runs_the_loop_at_the_trained_dt(runner, tmp_path, monkeypatch):
    # every truth the loop scores and retrains on, and every replayed
    # trajectory, is at the checkpoint's dt, twice the files' dt
    data = run_generate(runner, tmp_path)
    ckpt = run_train(runner, tmp_path, data)
    trained_dt = ModelCheckpoint.load(ckpt).data["dt"]
    assert trained_dt == 2 * read_trajectory(data / "hopf_mu0.3.updr").dt
    run_loop, dts = romuq.adaptive.run_loop, []

    def recording_loop(ckpt, generator, grid, budget, threshold, initial_data, **kwargs):
        def recording_generator(point):
            truth = generator(point)
            dts.append(truth.dt)
            return truth

        dts.extend(t.dt for t in initial_data)
        return run_loop(ckpt, recording_generator, grid, budget, threshold,
                        initial_data=initial_data, **kwargs)

    monkeypatch.setattr(romuq.adaptive, "run_loop", recording_loop)
    res = runner.invoke(main, ["adapt", "--config", str(tmp_path / "config.json"),
                              "--checkpoint", str(ckpt), "--data", str(data),
                              "--out", str(tmp_path / "adapt")])
    assert res.exit_code == 0, res.output
    assert dts == [trained_dt] * (2 + len(SMALL_CONFIG["adaptive"]["grid"]))


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


GENERATE_AND_REPORT = """
import sys
from romuq.cli import main
main(["generate", "--config", sys.argv[1], "--sweep", "mu=0.3", "--out", sys.argv[2]],
     standalone_mode=False)
main(["report", "--out", sys.argv[2]], standalone_mode=False)
print(sorted(m for m in ("scipy", "romuq.tensor", "romuq.training", "romuq.uq",
                         "romuq.adaptive") if m in sys.modules))
"""


def fresh_interpreter(*args, cwd=None):
    """``python args`` run in a fresh interpreter that imports this romuq."""
    path = os.pathsep.join(filter(None, [str(Path(romuq.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_generate_and_report_leave_the_model_stack_unloaded(tmp_path):
    """In a fresh interpreter, the commands that run no model import neither
    the model stack nor scipy."""
    cfg = tmp_path / "config.json"
    write_config(cfg)
    res = fresh_interpreter("-c", GENERATE_AND_REPORT, str(cfg), str(tmp_path / "data"))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "data/ke_hopf_mu0.3.csv").exists()
    assert res.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------------- refusals


@pytest.fixture(scope="module")
def refusal_work(tmp_path_factory):
    """A work directory with the Hopf flow's data and checkpoint and every
    other input of the refusal table."""
    work = tmp_path_factory.mktemp("refusals")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        (work / "hopf").mkdir()
        (work / CFG).write_text(json.dumps(HOPF))
        for argv in flow_commands("hopf")[:2]:  # generate, train
            code, stderr = run_cli(argv)
            assert code == 0, stderr
        make_error_inputs(work)
    return work


def check_refusals(cases, work, monkeypatch):
    monkeypatch.chdir(work)
    failures = []
    for case in cases:
        code, stderr = run_cli(case.argv)
        failures += [f"{case.id}: {difference}\n{stderr}"
                     for difference in case.differences(code, stderr, Path(case.out).exists())]
    assert not failures, "\n".join(failures)


def refusal_test(cases_by_param):
    """The test of the table cases ``cases_by_param`` holds by the ``[param]``
    of their ids: parametrized by it, unless their ids have none."""
    if list(cases_by_param) == [None]:
        def test(refusal_work, monkeypatch):
            check_refusals(cases_by_param[None], refusal_work, monkeypatch)
        return test

    @pytest.mark.parametrize("cases", list(cases_by_param.values()), ids=list(cases_by_param))
    def test(cases, refusal_work, monkeypatch):
        check_refusals(cases, refusal_work, monkeypatch)
    return test


def refusal_tests() -> dict:
    """``test_<name>`` for each ``name`` of the table's ids, which runs that
    name's cases in table order."""
    groups = {}  # test name -> [param] or None -> cases
    for case in REFUSALS:
        name, _, param = case.id.split("/")[0].partition("[")
        groups.setdefault(f"test_{name}", {}).setdefault(param[:-1] or None, []).append(case)
    return {name: refusal_test(cases_by_param) for name, cases_by_param in groups.items()}


globals().update(refusal_tests())


def test_a_romuq_process_exits_and_prints_what_run_cli_returns(refusal_work, monkeypatch):
    """The first case of each exit code, run as its own ``python -m
    romuq.cli`` process, gives the exit code and stderr ``run_cli`` gives."""
    monkeypatch.chdir(refusal_work)
    first = {}
    for case in REFUSALS:
        first.setdefault(case.code, case)
    assert sorted(first) == [2, 3, 4, 5]
    for case in first.values():
        res = fresh_interpreter("-m", "romuq.cli", *case.argv, cwd=refusal_work)
        assert (res.returncode, res.stderr) == run_cli(case.argv), case.id


def test_the_readme_lists_the_exit_codes_of_the_refusal_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\nExit codes:\n", 1)[1].split("\nAny other failure", 1)[0]
    listed = {int(code) for code in re.findall(r"^- (\d+):", section, re.M)}
    assert listed == {case.code for case in REFUSALS} == {2, 3, 4, 5}


def test_sections_refuse_a_grid_below_two_points_and_a_non_positive_lr():
    # the checks the refusal table reaches through config files live in the
    # sections, so a section built in code refuses the same values
    for case in ("hopf", "ks"):
        for key, value in (("n_x", 0), ("n_x", 1), ("n_t", 0), ("n_t", 1), ("n_t", -3)):
            with pytest.raises(ConfigError, match=f"datagen.{key} must be >= 2, got {value}"):
                DatagenSection(case=case, **{key: value})
    for lr in (0, 0.0, -0.5):
        with pytest.raises(ConfigError, match=f"lr must be > 0, got {lr}"):
            TrainingSection(lr=lr)
