"""Command-line surface for the pipeline: generate, train, infer, uq,
adapt, report. Figure data is emitted as plot-ready CSV, not images."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .adaptive import run_loop
from .config import ConfigError, RunConfig, write_resolved
from .datagen import (ParamPoint, SolverError, Trajectory, read_trajectory,
                      solve_hopf_surrogate, solve_ks, split_even_odd,
                      write_trajectory)
from .metrics import (MetricReport, crps, kinetic_energy, relative_mse, scaled_mse,
                      write_csv)
from .tensor import NonFiniteError
from .training import ModelCheckpoint, TrainingDiverged, predict_rollout, train
from .transformer import RolloutDivergence
from .uq import second_pass, write_nu_xi_csv, write_uq_csvs

# Every failure a command reports instead of a traceback: the first entry
# whose exception types match gives the exit code and the message prefix.
# ConfigError subclasses ValueError, so it must come before it.
EXIT_CODES = (
    (FileNotFoundError, 2, ""),
    (ConfigError, 3, "invalid config: "),
    ((SolverError, TrainingDiverged, RolloutDivergence, NonFiniteError), 4, ""),
    (ValueError, 5, ""),
)


class _Cli(click.Group):
    """Runs a command and turns a failure listed in EXIT_CODES into its
    exit code and a one-line message; anything else keeps its traceback.
    Numpy's floating-point warnings are off: the tape and the solvers
    detect non-finite values and say where."""

    def invoke(self, ctx):
        try:
            with np.errstate(all="ignore"):
                return super().invoke(ctx)
        except Exception as exc:
            for kinds, code, prefix in EXIT_CODES:
                if isinstance(exc, kinds):
                    click.echo(f"error: {prefix}{exc}", err=True)
                    sys.exit(code)
            raise


def _load_config(path) -> RunConfig:
    return RunConfig() if path is None else RunConfig.load(path)


def _resolve_seed(config: RunConfig, seed) -> int:
    """An explicit --seed wins over the config's ``seed``."""
    if seed is not None:
        config.seed = seed
    return config.seed


def _parse_sweep(sweep: str):
    name, _, rest = sweep.partition("=")
    values = [v for v in rest.split(",") if v.strip()]
    if not name.strip() or not values:
        raise ValueError(f"sweep must look like name=v1,v2,... got {sweep!r}")
    return name.strip(), [float(v) for v in values]


def _generate_one(config: RunConfig, case: str, name: str, value: float,
                  seed: int) -> Trajectory:
    dg = config.datagen
    if case == "ks":
        if name not in ("nu", "ks_nu"):
            raise ValueError(f"ks sweeps over 'nu', got {name!r}")
        return solve_ks(nu=value, n_x=dg.n_x, domain_length=dg.domain_length,
                        dt=dg.dt, n_t=dg.n_t, seed=seed, init_scale=dg.init_scale)
    if case == "hopf":
        if name != "mu":
            raise ValueError(f"hopf sweeps over 'mu', got {name!r}")
        return solve_hopf_surrogate(mu=value, omega=dg.omega, n_x=dg.n_x,
                                    dt=dg.dt, n_t=dg.n_t,
                                    init_amplitude=dg.init_amplitude)
    raise ValueError(f"unknown case {case!r}")


def _load_dataset(data_dir: Path):
    files = sorted(data_dir.glob("*.updr"))
    if not files:
        raise FileNotFoundError(f"no .updr trajectory files in {data_dir}")
    return [read_trajectory(f) for f in files]


def _grid(config: RunConfig) -> list:
    if not config.adaptive.grid:
        raise ConfigError("adaptive.grid is empty")
    try:
        return [ParamPoint.of(**g) for g in config.adaptive.grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad adaptive.grid entry: {exc}") from exc


@click.group(cls=_Cli)
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
        traj = _generate_one(config, case, name, value, seed)
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
    tc = config.train_config(train_set[0].n_xy, len(train_set[0].param.names()))
    ckpt = train(train_set, tc, seed, dataset_id=str(data_dir))
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
        raise ValueError(f"trajectory too short for lookback {q}")
    predicted, _ = predict_rollout(ckpt, traj.states[:q], traj.param, steps)
    return predicted, traj.states[q:q + steps]


@main.command("infer")
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_file", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), default="runs/infer")
def cmd_infer(ckpt_dir, data_file, out_dir):
    """Roll out at the trajectory's parameters; emit kinetic-energy CSV."""
    ckpt = ModelCheckpoint.load(ckpt_dir)
    traj = read_trajectory(data_file)
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
    ckpt = ModelCheckpoint.load(ckpt_dir)
    traj = read_trajectory(data_file)
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
    ckpt = ModelCheckpoint.load(ckpt_dir)
    initial = _load_dataset(Path(data_dir))
    grid = _grid(config)
    name = grid[0].names()[0]

    def generator(point: ParamPoint) -> Trajectory:
        return _generate_one(config, config.datagen.case, name,
                             point[name], seed)

    out = Path(out_dir)
    run_loop(ckpt, generator, grid, config.adaptive.budget,
             config.adaptive.threshold,
             initial_data=[split_even_odd(t)[0] for t in initial],
             retrain_epochs=config.training.retrain_epochs,
             replay_fraction=config.training.replay_fraction,
             ensemble_n=config.uq.ensemble_n, seed=seed, out_dir=out)
    ckpt.save(out / "checkpoint")
    write_resolved(config, out)
    click.echo(f"adaptive history written to {out}")


@main.command("report")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_report(out_dir):
    """Emit plot-ready kinetic-energy CSVs for every trajectory artifact."""
    out = Path(out_dir)
    files = sorted(out.rglob("*.updr"))
    if not files:
        raise FileNotFoundError(f"no trajectory artifacts under {out}")
    for path in files:
        traj = read_trajectory(path)
        write_csv(path.parent / f"ke_{path.stem}.csv", ("t", "kinetic_energy"),
                  enumerate(kinetic_energy(traj.states)))
    click.echo(f"wrote kinetic-energy tables for {len(files)} trajectories")


if __name__ == "__main__":
    main()
