import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import romuq
from refusals import (CFG, CKPT, DATA, FLOWS, HOPF, REFUSALS, flow_commands, hopf,
                      make_error_inputs, run_cli, run_flows, run_ok)
from romuq.adaptive import evaluate_grid
from romuq.cli import _check_datagen, _generate_one
from romuq.config import ConfigError, DatagenSection, RunConfig, TrainingSection
from romuq.datagen import ParamPoint, read_trajectory, solve_hopf_surrogate, split_even_odd
from romuq.errors import TrainingDiverged
from romuq.training import ModelCheckpoint, predict_rollout
from romuq.uq import second_pass


@pytest.fixture(scope="module")
def flow_work(tmp_path_factory):
    """The work directory tools/flow_digest.py builds: both ``FLOWS``, then
    every other input of the refusal table. A test that uses it runs in it,
    with paths relative to it; a command a test runs itself writes under
    ``runs/``, never under ``out/``, whose paths the refusal cases check."""
    work = tmp_path_factory.mktemp("flows")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        run_flows(work)
        make_error_inputs(work)
        (work / "runs").mkdir()
        yield work


def rerun(case: str, command: str, out: str) -> list:
    """The ``case`` flow's ``command`` line, writing to ``out``."""
    argv = next(argv for argv in flow_commands(case) if argv[0] == command)
    return [*argv[:-1], out]  # --out comes last


def copy_trajectories(src, dst: str) -> Path:
    """The new directory ``dst`` holding the .updr files of ``src``, without
    their sidecars."""
    Path(dst).mkdir()
    for path in Path(src).glob("*.updr"):
        shutil.copyfile(path, Path(dst, path.name))
    return Path(dst)


def assert_csvs_load(directory):
    """Every CSV under ``directory`` parses as a plain numeric table."""
    paths = sorted(Path(directory).rglob("*.csv"))
    assert paths
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.size and np.all(np.isfinite(table)), path


# ------------------------------------------------------------------- generate


def test_generate_writes_expected_artifacts(flow_work):
    assert Path(DATA, "hopf_mu0.2.updr").exists()
    assert Path(DATA, "hopf_mu0.4.updr").exists()
    assert Path(DATA, "resolved_config.json").exists()
    manifest = json.loads(Path(DATA, "manifest.json").read_text())
    assert manifest["files"] == ["hopf_mu0.2.updr", "hopf_mu0.4.updr"]
    assert manifest["sweep"] == {"mu": [0.2, 0.4]}


def test_generate_is_byte_deterministic(flow_work):
    run_ok(*rerun("hopf", "generate", "runs/generate_again"))
    for name in ("hopf_mu0.2.updr", "manifest.json", "resolved_config.json"):
        assert Path(DATA, name).read_bytes() == Path("runs/generate_again", name).read_bytes()


def test_generate_seed_follows_config(flow_work):
    # the KS flow's generate gives no --seed; its config's seed is 4
    def generate(seed):
        out = f"runs/generate_seed{seed}"
        run_ok(*rerun("ks", "generate", out), "--seed", str(seed))
        return Path(out)

    def recorded(out):
        return (json.loads(Path(out, "manifest.json").read_text())["seed"],
                json.loads(Path(out, "resolved_config.json").read_text())["seed"])

    implicit = Path("ks/data")
    assert recorded(implicit) == (4, 4)
    assert (implicit / "ks_nu1.updr").read_bytes() == (generate(4) / "ks_nu1.updr").read_bytes()
    explicit = generate(3)
    assert recorded(explicit) == (3, 3)  # an explicit --seed still wins
    assert (explicit / "ks_nu1.updr").read_bytes() != \
        (implicit / "ks_nu1.updr").read_bytes()


def test_generate_ks_nu_spellings_write_the_same_files(flow_work):
    # a KS trajectory names nu ``ks_nu``; a sweep may use either name, and
    # the flow's uses nu
    run_ok("generate", "--config", "ks/config.json", "--sweep", "ks_" + FLOWS["ks"]["sweep"],
           "--out", "runs/ks_nu")
    listing = sorted(p.name for p in Path("runs/ks_nu").iterdir())
    # the flow's report wrote the ke_ tables
    assert listing == sorted(p.name for p in Path("ks/data").iterdir()
                             if not p.name.startswith("ke_"))
    assert "ks_nu1.2.updr" in listing
    for name in listing:
        assert Path("runs/ks_nu", name).read_bytes() == Path("ks/data", name).read_bytes(), name


def test_length_round_trips_through_the_header_alone(flow_work):
    # no sidecar is present when any of these files is read
    ks = copy_trajectories("ks/data", "runs/bare_ks")
    data = copy_trajectories(DATA, "runs/bare_hopf")
    assert read_trajectory(ks / "ks_nu1.updr").length == 22.0
    assert read_trajectory(data / "hopf_mu0.2.updr").length == 2 * np.pi
    run_ok("train", "--config", CFG, "--data", str(data), "--out", "runs/bare_train")
    run_ok("infer", "--checkpoint", "runs/bare_train/checkpoint", "--data",
           str(data / "hopf_mu0.2.updr"), "--out", "runs/bare_infer")
    Path("runs/bare_infer/prediction.updr.meta.json").unlink()
    assert read_trajectory("runs/bare_infer/prediction.updr").length == 2 * np.pi


# ------------------------------------------------------------ train and infer


@pytest.mark.parametrize("case, names", [("hopf", "mu,omega"), ("ks", "ks_nu")],
                         ids=["hopf", "ks"])
def test_train_infer_uq_pipeline(flow_work, case, names):
    ckpt = Path(case, "train/checkpoint")
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

    ke = Path(case, "infer/kinetic_energy.csv").read_text().strip().split("\n")
    assert ke[0] == "t,k_pred,k_true"
    assert len(ke) == 1 + 40 - 4  # n_t minus lookback rows
    assert Path(case, "infer/prediction.updr").exists()
    metrics = json.loads(Path(case, "infer/metrics.json").read_text())
    assert metrics["relative_mse_percent"] >= 0

    for name in ("uq_field.csv", "nu_t.csv", "nu_xi.csv", "metrics.csv"):
        assert Path(case, "uq", name).exists()
    header = Path(case, "uq/metrics.csv").read_text().split("\n")[0]
    assert header == f"{names},relative_mse_percent,crps_printed,crps_abs,scaled_mse_mean"
    assert_csvs_load(Path(case, "infer"))
    assert_csvs_load(Path(case, "uq"))


def test_uq_output_deterministic(flow_work):
    run_ok(*rerun("hopf", "uq", "runs/uq_again"))
    for name in ("uq_field.csv", "nu_t.csv", "metrics.csv"):
        assert Path("hopf/uq", name).read_bytes() == Path("runs/uq_again", name).read_bytes()


def test_uq_tables_hold_the_library_nu_bit_for_bit(flow_work):
    # the flow's uq ran at --n 4 --seed 1
    ckpt = ModelCheckpoint.load(CKPT)
    traj = read_trajectory(Path(DATA, FLOWS["hopf"]["infer"]))
    q = ckpt.config.transformer.lookback
    pred, _ = predict_rollout(ckpt, traj.states[:q], traj.param, traj.n_t - q)
    nu, _ = second_pass(pred, ckpt, traj.param, n=4, seed=1)

    header, *lines = Path("hopf/uq/uq_field.csv").read_text().splitlines()
    assert header == "t,d,nu"
    rows = [line.split(",") for line in lines]
    assert [(int(t), int(d)) for t, d, _ in rows] == list(np.ndindex(nu.shape))
    assert np.array([float(v) for *_, v in rows]).tobytes() == nu.tobytes()
    header, row = Path("hopf/uq/nu_xi.csv").read_text().splitlines()
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


def test_adapt_runs_one_iteration(flow_work):
    hist = json.loads(Path("hopf/adapt/adaptive_history.json").read_text())
    assert len(hist["history"]) == 2  # iteration 0 acquisition + final sweep
    assert hist["param_grid"] == HOPF["adaptive"]["grid"]
    assert hist["trained_set"][2:] == [hist["history"][0]["chosen"]]  # after the two files
    # each iteration's tables hold its history record's values, in grid order
    for i, rec in enumerate(hist["history"]):
        assert rec["iteration"] == i
        for table, key, column in (("nu", "nu_xi", "nu"), ("mse", "scaled_mse", "mse")):
            rows = [f"{e['param']['mu']!r},{e['param']['omega']!r},{e[column]!r}"
                    for e in rec[key]]
            assert Path(f"hopf/adapt/iter{i}_{table}.csv").read_text() == \
                "\n".join([f"mu,omega,{key}", *rows, ""])
    assert not list(Path("hopf/adapt").glob("iter2_*"))
    assert Path("hopf/adapt/checkpoint/manifest.json").exists()
    assert_csvs_load("hopf/adapt")


def test_adapt_failing_inside_the_loop_leaves_no_out(flow_work, monkeypatch):
    # the loop's first retrain diverges after iteration 0 has been scored
    def diverging(*args, **kwargs):
        raise TrainingDiverged(0, 0, "exp")

    monkeypatch.setattr(romuq.adaptive, "retrain", diverging)
    code, stderr = run_cli(rerun("hopf", "adapt", "runs/adapt_diverged"))
    assert code == 4, stderr
    assert "training diverged at epoch 0, step 0" in stderr
    assert not Path("runs/adapt_diverged").exists()


def test_adapt_resolved_config_records_overrides(flow_work):
    run_ok(*rerun("hopf", "adapt", "runs/adapt_overrides"),
           "--budget", "2", "--threshold", "0.5", "--seed", "4")
    resolved = Path("runs/adapt_overrides/resolved_config.json")
    recorded = json.loads(resolved.read_text())
    assert recorded["adaptive"]["budget"] == 2
    assert recorded["adaptive"]["threshold"] == 0.5
    assert recorded["seed"] == 4
    # the record is a valid config that resolves to itself
    run_ok("generate", "--config", str(resolved), "--sweep", "mu=0.3", "--seed", "4",
           "--out", "runs/adapt_overrides_again")
    assert Path("runs/adapt_overrides_again/resolved_config.json").read_bytes() == \
        resolved.read_bytes()


def test_adapt_solves_at_every_grid_value(flow_work):
    # omega 2.0 is not datagen.omega: the point must be solved at 2.0, or
    # the loop refuses the trajectory the generator returns. mu 0.4 is
    # trained on, so the omega-2 point is the one the loop can pick.
    cfg = Path("runs/adapt_omega.json")
    cfg.write_text(json.dumps(hopf(adaptive={"threshold": 0.0, "grid": [
        {"mu": 0.2, "omega": 2.0}, {"mu": 0.4, "omega": 1.0}]})))
    run_ok("adapt", "--config", str(cfg), "--checkpoint", CKPT, "--data", DATA,
           "--out", "runs/adapt_omega")
    hist = json.loads(Path("runs/adapt_omega/adaptive_history.json").read_text())
    assert hist["trained_set"][-1] == {"mu": 0.2, "omega": 2.0}
    # the first sweep's error at the point is the one against omega 2.0, at
    # the trained dt
    point = ParamPoint.of(mu=0.2, omega=2.0)
    truth, _ = split_even_odd(solve_hopf_surrogate(0.2, omega=2.0, n_x=16, dt=0.1, n_t=40))
    _, (mse,), _ = evaluate_grid(ModelCheckpoint.load(CKPT), {point: truth}, [point], 2, 0)
    rows = Path("runs/adapt_omega/iter0_mse.csv").read_text().split("\n")
    assert rows[1] == f"0.2,2.0,{mse!r}"


def test_adapt_runs_the_loop_at_the_trained_dt(flow_work, monkeypatch):
    # every truth the loop scores and retrains on, and every replayed
    # trajectory, is at the checkpoint's dt, twice the files' dt
    trained_dt = ModelCheckpoint.load(CKPT).data["dt"]
    assert trained_dt == 2 * read_trajectory(Path(DATA, "hopf_mu0.2.updr")).dt
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
    run_ok(*rerun("hopf", "adapt", "runs/adapt_dt"))
    assert dts == [trained_dt] * (2 + len(HOPF["adaptive"]["grid"]))


def test_every_json_file_has_one_layout(flow_work):
    # every JSON file the flows' commands wrote; <case>/config.json is their input
    written = sorted(p for case in FLOWS for p in Path(case).glob("*/**/*.json"))
    assert {p.as_posix() for p in written} >= {
        f"{case}/{name}" for case in FLOWS for name in (
            "data/manifest.json", "data/resolved_config.json", "train/train_summary.json",
            "train/checkpoint/manifest.json", "infer/metrics.json",
            "adapt/adaptive_history.json", "adapt/checkpoint/manifest.json")} | {
        "hopf/data/hopf_mu0.2.updr.meta.json"}
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


# --------------------------------------------------------------------- report


def test_report_emits_ke_tables(flow_work):
    lines = Path(DATA, "ke_hopf_mu0.2.csv").read_text().strip().split("\n")
    assert lines[0] == "t,kinetic_energy"
    assert len(lines) == 41
    assert_csvs_load(DATA)


def test_report_failing_on_a_file_writes_no_table(flow_work):
    # report reads every file before it writes a table: the first file is
    # well-formed, the second truncated
    data = copy_trajectories(DATA, "runs/report_truncated")
    second = data / "hopf_mu0.4.updr"
    second.write_bytes(second.read_bytes()[:-4])
    code, stderr = run_cli(["report", "--out", str(data)])
    assert code == 5, stderr
    assert f"truncated trajectory file {second}" in stderr
    assert not list(data.glob("ke_*"))


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


def test_generate_and_report_leave_the_model_stack_unloaded(flow_work):
    """In a fresh interpreter, the commands that run no model import neither
    the model stack nor scipy."""
    res = fresh_interpreter("-c", GENERATE_AND_REPORT, CFG, "runs/unloaded", cwd=flow_work)
    assert res.returncode == 0, res.stderr
    assert Path("runs/unloaded/ke_hopf_mu0.3.csv").exists()
    assert res.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------------- refusals


def check_refusals(cases):
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
        def test(flow_work):
            check_refusals(cases_by_param[None])
        return test

    @pytest.mark.parametrize("cases", list(cases_by_param.values()), ids=list(cases_by_param))
    def test(cases, flow_work):
        check_refusals(cases)
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


def test_a_romuq_process_exits_and_prints_what_run_cli_returns(flow_work):
    """The first case of each exit code, run as its own ``python -m
    romuq.cli`` process, gives the exit code and stderr ``run_cli`` gives."""
    first = {}
    for case in REFUSALS:
        first.setdefault(case.code, case)
    assert sorted(first) == [2, 3, 4, 5]
    for case in first.values():
        res = fresh_interpreter("-m", "romuq.cli", *case.argv, cwd=flow_work)
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
