"""Command-line surface for the pipeline: generate, train, infer, uq,
adapt, report. Figure data is emitted as plot-ready CSV, not images."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .adaptive import run_loop
from .config import ConfigError, RunConfig, write_resolved
from .datagen import (ParamPoint, SolverError, Trajectory, read_trajectory,
                      solve_hopf_surrogate, solve_ks, split_even_odd,
                      write_trajectory)
from .metrics import (MetricReport, crps, kinetic_energy, relative_mse, scaled_mse,
                      write_csv)
from .training import ModelCheckpoint, TrainingDiverged, predict_rollout, train
from .transformer import RolloutDivergence
from .uq import second_pass, write_nu_xi_csv, write_uq_csvs

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_CONFIG = 3
EXIT_DIVERGENCE = 4
EXIT_BAD_ARGS = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    if not Path(path).exists():
        _fail(EXIT_MISSING_INPUT, f"config file not found: {path}")
    try:
        return RunConfig.load(path)
    except (ValueError, TypeError) as exc:  # ConfigError, JSONDecodeError
        _fail(EXIT_CONFIG, f"invalid config: {exc}")


def _resolve_seed(config: RunConfig, seed) -> int:
    """An explicit --seed wins over the config's ``seed``."""
    if seed is not None:
        config.seed = seed
    return config.seed


def _parse_sweep(sweep: str):
    if not sweep or "=" not in sweep:
        _fail(EXIT_BAD_ARGS, f"sweep must look like name=v1,v2,... got {sweep!r}")
    name, _, rest = sweep.partition("=")
    values = [v for v in rest.split(",") if v.strip()]
    if not values:
        _fail(EXIT_BAD_ARGS, "empty sweep")
    try:
        return name.strip(), [float(v) for v in values]
    except ValueError as exc:
        _fail(EXIT_BAD_ARGS, f"bad sweep value: {exc}")


def _generate_one(config: RunConfig, case: str, name: str, value: float,
                  seed: int) -> Trajectory:
    dg = config.datagen
    if case == "ks":
        if name not in ("nu", "ks_nu"):
            _fail(EXIT_BAD_ARGS, f"ks sweeps over 'nu', got {name!r}")
        return solve_ks(nu=value, n_x=dg.n_x, domain_length=dg.domain_length,
                        dt=dg.dt, n_t=dg.n_t, seed=seed, init_scale=dg.init_scale)
    if case == "hopf":
        if name != "mu":
            _fail(EXIT_BAD_ARGS, f"hopf sweeps over 'mu', got {name!r}")
        return solve_hopf_surrogate(mu=value, omega=dg.omega, n_x=dg.n_x,
                                    dt=dg.dt, n_t=dg.n_t,
                                    init_amplitude=dg.init_amplitude)
    _fail(EXIT_BAD_ARGS, f"unknown case {case!r}")


def _load_dataset(data_dir: Path):
    files = sorted(data_dir.glob("*.updr"))
    if not files:
        _fail(EXIT_MISSING_INPUT, f"no .updr trajectory files in {data_dir}")
    return [_read_trajectory(f) for f in files]


def _read_trajectory(path) -> Trajectory:
    try:
        return read_trajectory(path)
    except ValueError as exc:
        _fail(EXIT_BAD_ARGS, str(exc))


def _load_checkpoint(path: Path) -> ModelCheckpoint:
    if not (path / "manifest.json").exists():
        _fail(EXIT_MISSING_INPUT, f"no checkpoint manifest in {path}")
    try:
        return ModelCheckpoint.load(path)
    except ValueError as exc:
        _fail(EXIT_BAD_ARGS, str(exc))


@click.group()
def main():
    """Reduced-order modelling with latent forecasting, UQ and adaptive
    sampling."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--case", type=click.Choice(["ks", "hopf"]), default=None)
@click.option("--sweep", required=True, help="name=v1,v2,... parameter sweep")
@click.option("--seed", type=int, default=None, help="overrides the config's seed")
@click.option("--out", "out_dir", type=click.Path(), default="runs/data")
def generate(config_path, case, sweep, seed, out_dir):
    """Generate one trajectory file per sweep value."""
    config = _load_config(config_path)
    seed = _resolve_seed(config, seed)
    case = config.datagen.case = case or config.datagen.case
    name, values = _parse_sweep(sweep)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for value in values:
        try:
            traj = _generate_one(config, case, name, value, seed)
        except SolverError as exc:
            _fail(EXIT_DIVERGENCE, f"solver failed at {name}={value}: {exc}")
        fname = f"{case}_{name}{value:g}.updr"
        write_trajectory(out / fname, traj)
        files.append(fname)
    with open(out / "manifest.json", "w") as f:
        json.dump({"case": case, "sweep": {name: values}, "files": files,
                   "seed": seed}, f, indent=2, sort_keys=True)
        f.write("\n")
    write_resolved(config, out)
    click.echo(f"wrote {len(files)} trajectories to {out}")


@main.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="overrides the config's seed")
@click.option("--out", "out_dir", type=click.Path(), default="runs/train")
def cmd_train(config_path, data_dir, seed, out_dir):
    """Train on the even-index split of every trajectory in --data."""
    config = _load_config(config_path)
    seed = _resolve_seed(config, seed)
    dataset = _load_dataset(Path(data_dir))
    train_set = [split_even_odd(t)[0] for t in dataset]
    try:
        tc = config.train_config(train_set[0].n_xy, len(train_set[0].param.names()))
    except ConfigError as exc:
        _fail(EXIT_CONFIG, f"invalid config: {exc}")
    try:
        ckpt = train(train_set, tc, seed, dataset_id=str(data_dir))
    except TrainingDiverged as exc:
        _fail(EXIT_DIVERGENCE, str(exc))
    out = Path(out_dir)
    ckpt.save(out / "checkpoint")
    write_resolved(config, out)
    with open(out / "train_summary.json", "w") as f:
        json.dump({"final_loss": ckpt.loss_curve[-1],
                   "epochs": len(ckpt.loss_curve)}, f, indent=2, sort_keys=True)
        f.write("\n")
    click.echo(f"checkpoint saved to {out / 'checkpoint'}")


def _predict_for(ckpt: ModelCheckpoint, traj: Trajectory):
    q = ckpt.config.transformer.lookback
    steps = traj.n_t - q
    if steps < 1:
        _fail(EXIT_BAD_ARGS, f"trajectory too short for lookback {q}")
    try:
        predicted, _ = predict_rollout(ckpt, traj.states[:q], traj.param, steps)
    except RolloutDivergence as exc:
        _fail(EXIT_DIVERGENCE, str(exc))
    return predicted, traj.states[q:q + steps]


@main.command("infer")
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_file", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), default="runs/infer")
def cmd_infer(ckpt_dir, data_file, out_dir):
    """Roll out at the trajectory's parameters; emit kinetic-energy CSV."""
    if not Path(data_file).exists():
        _fail(EXIT_MISSING_INPUT, f"data file not found: {data_file}")
    ckpt = _load_checkpoint(Path(ckpt_dir))
    traj = _read_trajectory(data_file)
    predicted, truth = _predict_for(ckpt, traj)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k_pred = kinetic_energy(predicted)
    write_csv(out / "kinetic_energy.csv", ("t", "k_pred", "k_true"),
              zip(range(len(k_pred)), k_pred, kinetic_energy(truth)))
    write_trajectory(out / "prediction.updr",
                     Trajectory(states=predicted, dt=traj.dt, grid=traj.grid,
                                param=traj.param))
    rel = relative_mse(predicted, truth)
    with open(out / "metrics.json", "w") as f:
        json.dump({"relative_mse_percent": rel}, f, indent=2, sort_keys=True)
        f.write("\n")
    click.echo(f"relative MSE {rel:.4f}% -> {out}")


@main.command("uq")
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_file", type=click.Path(), required=True)
@click.option("--n", "ensemble_n", type=int, default=64)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(), default="runs/uq")
def cmd_uq(ckpt_dir, data_file, ensemble_n, seed, out_dir):
    """Second-pass ensemble UQ over a rollout; emit nu CSV tables."""
    if not Path(data_file).exists():
        _fail(EXIT_MISSING_INPUT, f"data file not found: {data_file}")
    ckpt = _load_checkpoint(Path(ckpt_dir))
    traj = _read_trajectory(data_file)
    predicted, truth = _predict_for(ckpt, traj)
    field, ensemble = second_pass(predicted, ckpt, traj.param, n=ensemble_n,
                                  seed=seed)
    out = Path(out_dir)
    write_uq_csvs(out, field)
    write_nu_xi_csv(out / "nu_xi.csv", [(traj.param, float(field.nu.mean()))])
    report = MetricReport()
    _, smse = scaled_mse(predicted, truth)
    report.add(traj.param, relative_mse(predicted, truth),
               crps(ensemble, truth, form="printed"),
               crps(ensemble, truth, form="abs"), smse)
    report.write_csv(out / "metrics.csv")
    click.echo(f"UQ tables written to {out}")


@main.command("adapt")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_dir", type=click.Path(), required=True,
              help="directory with the initial training trajectories")
@click.option("--budget", type=int, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--seed", type=int, default=None, help="overrides the config's seed")
@click.option("--out", "out_dir", type=click.Path(), default="runs/adapt")
def cmd_adapt(config_path, ckpt_dir, data_dir, budget, threshold, seed, out_dir):
    """Uncertainty-driven adaptive sampling over the configured grid."""
    config = _load_config(config_path)
    seed = _resolve_seed(config, seed)
    if budget is not None:
        config.adaptive.budget = budget
    if threshold is not None:
        config.adaptive.threshold = threshold
    ckpt = _load_checkpoint(Path(ckpt_dir))
    initial = _load_dataset(Path(data_dir))
    if not config.adaptive.grid:
        _fail(EXIT_CONFIG, "adaptive.grid is empty in the config")
    try:
        grid = [ParamPoint.of(**g) for g in config.adaptive.grid]
    except (TypeError, ValueError) as exc:
        _fail(EXIT_CONFIG, f"bad adaptive.grid entry: {exc}")
    name = grid[0].names()[0]

    def generator(point: ParamPoint) -> Trajectory:
        return _generate_one(config, config.datagen.case, name,
                             point[name], seed)

    out = Path(out_dir)
    try:
        run_loop(ckpt, generator, grid, config.adaptive.budget,
                 config.adaptive.threshold,
                 initial_data=[split_even_odd(t)[0] for t in initial],
                 retrain_epochs=config.training.retrain_epochs,
                 replay_fraction=config.training.replay_fraction,
                 ensemble_n=config.uq.ensemble_n, seed=seed, out_dir=out)
    except (SolverError, TrainingDiverged, RolloutDivergence) as exc:
        _fail(EXIT_DIVERGENCE, str(exc))
    ckpt.save(out / "checkpoint")
    write_resolved(config, out)
    click.echo(f"adaptive history written to {out}")


@main.command("report")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_report(out_dir):
    """Emit plot-ready kinetic-energy CSVs for every trajectory artifact."""
    out = Path(out_dir)
    if not out.exists():
        _fail(EXIT_MISSING_INPUT, f"no such directory: {out}")
    files = sorted(out.rglob("*.updr"))
    if not files:
        _fail(EXIT_MISSING_INPUT, f"no trajectory artifacts under {out}")
    for path in files:
        traj = _read_trajectory(path)
        write_csv(path.parent / f"ke_{path.stem}.csv", ("t", "kinetic_energy"),
                  enumerate(kinetic_energy(traj.states)))
    click.echo(f"wrote kinetic-energy tables for {len(files)} trajectories")


if __name__ == "__main__":
    main()
