"""Command-line surface for the pipeline: generate, train, infer, uq,
adapt, report. Figure data is emitted as plot-ready CSV, not images; only
the commands that run a model import the model stack and scipy under it."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, RunConfig, _has_type, write_resolved
from .datagen import (HOPF_LENGTH, SOLVER_PARAMS, ParamPoint, SolverError, Trajectory,
                      read_trajectory, solve_hopf_surrogate, solve_ks, split_even_odd,
                      write_json, write_trajectory)
from .errors import NonFiniteError, RolloutDivergence, TrainingDiverged
from .metrics import (ZeroVarianceError, crps, kinetic_energy, relative_mse, scaled_mse,
                      write_csv, write_param_csv)

# Every failure a command reports instead of a traceback: the first entry
# whose exception types match gives the exit code and the message prefix.
# ConfigError subclasses ValueError, so it must come before it.
EXIT_CODES = (
    ((FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError), 2, ""),
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


def _check_seed(seed: int):
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _load_config(path, seed) -> RunConfig:
    """The config at ``path`` (the defaults without one); --seed wins over its seed."""
    config = RunConfig() if path is None else RunConfig.load(path)
    if seed is not None:
        _check_seed(seed)
        config.seed = seed
    return config


def _parse_sweep(sweep: str):
    name, _, rest = sweep.partition("=")
    try:
        values = [float(v) for v in rest.split(",") if v.strip()]
    except ValueError:
        values = []
    if not name.strip() or not values:
        raise ValueError(f"sweep must look like name=v1,v2,... got {sweep!r}")
    return name.strip(), values


def _generate_one(config: RunConfig, params: dict) -> Trajectory:
    """Solve ``datagen.case`` at ``params``."""
    dg = config.datagen
    if dg.case == "ks":
        (nu,) = params.values()
        return solve_ks(nu=nu, n_x=dg.n_x, domain_length=dg.domain_length,
                        dt=dg.dt, n_t=dg.n_t, seed=config.seed, init_scale=dg.init_scale)
    return solve_hopf_surrogate(mu=params["mu"], omega=params.get("omega", dg.omega),
                                n_x=dg.n_x, dt=dg.dt, n_t=dg.n_t,
                                init_amplitude=dg.init_amplitude)


def _check_datagen(config: RunConfig, config_path, traj: Trajectory, path):
    """Refuse ``traj``, read from ``path``, unless a solve at the ``datagen``
    section of ``config_path`` (or the defaults) writes it: the solver's
    parameter names, n_x, dt and length (for Hopf the surrogate's own)."""
    dg, name = config.datagen, config_path or "the default config"
    if traj.param.names() != SOLVER_PARAMS[dg.case][-1]:
        raise ValueError(f"{name}: datagen.case {dg.case!r} cannot solve at the "
                         f"parameters {list(traj.param.names())} of {path}")
    length = (("datagen.domain_length", dg.domain_length) if dg.case == "ks"
              else ("datagen.case 'hopf' length", HOPF_LENGTH))
    for field, value, want in (("datagen.n_x", dg.n_x, traj.n_xy),
                               ("datagen.dt", dg.dt, traj.dt), (*length, traj.length)):
        if value != want:
            raise ValueError(f"{name}: {field} {value} differs from {want} in {path}")


def _check_window(n_t: int, label: str, transformer):
    """Refuse ``n_t`` snapshots, which ``label`` names, unless their even-index
    split holds a training window of ``transformer``'s lookback and horizon."""
    q, h = transformer.lookback, transformer.horizon
    need = max(4, 2 * (q + h) - 1)  # both halves of a split hold two snapshots
    if n_t < need:
        raise ValueError(f"{label} {n_t} is too short for lookback {q} + horizon {h}: "
                         f"training needs n_t >= {need}")


def _load_dataset(data_dir: Path, config: RunConfig, config_path) -> dict:
    """The even-index split of every trajectory in ``data_dir``, by path; each file
    must be what a solve at ``config``'s ``datagen`` writes, and hold a training window."""
    files = sorted(data_dir.glob("*.updr"))
    if not files:
        raise FileNotFoundError(f"no .updr trajectory files in {data_dir}")
    dataset = {}
    for path in files:
        traj = read_trajectory(path)
        _check_datagen(config, config_path, traj, path)
        _check_window(traj.n_t, f"{path}: n_t", config.transformer)
        dataset[path] = split_even_odd(traj)[0]
    return dataset


def _grid(config: RunConfig) -> list:
    """The adaptive grid, whose every point names exactly the parameters
    ``datagen.case``'s solver writes."""
    names = SOLVER_PARAMS[config.datagen.case][-1]
    if len(config.adaptive.grid) < 2:
        raise ConfigError(f"adaptive.grid needs at least two points, "
                          f"got {len(config.adaptive.grid)}")
    for g in config.adaptive.grid:
        for key, value in g.items() if isinstance(g, dict) else ():
            if not _has_type(value, float):  # as parse checks every float field
                raise ConfigError(f"adaptive.grid point {g} has {key} {value!r}, not a number")
    try:
        grid = [ParamPoint.of(**g) for g in config.adaptive.grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad adaptive.grid entry: {exc}") from exc
    for point in grid:
        if point.names() != names:
            raise ConfigError(f"adaptive.grid point {point.as_dict()} does not name the "
                              f"{config.datagen.case} solver's parameters {list(names)}")
    return grid


@click.group(cls=_Cli)
def main():
    """Reduced-order modelling with latent forecasting, UQ and adaptive
    sampling."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--case", type=click.Choice(list(SOLVER_PARAMS)), default=None)
@click.option("--sweep", required=True, help="name=v1,v2,... parameter sweep")
@click.option("--seed", type=int, default=None, help="overrides the config's seed")
@click.option("--out", "out_dir", type=click.Path(), default="runs/data")
def generate(config_path, case, sweep, seed, out_dir):
    """Generate one trajectory file per sweep value."""
    config = _load_config(config_path, seed)
    config.datagen = replace(config.datagen, case=case or config.datagen.case)
    case = config.datagen.case
    name, values = _parse_sweep(sweep)
    if (case, name) == ("ks", "ks_nu"):  # both spellings write ks_nu<value>.updr
        name = "nu"
    if (name,) not in SOLVER_PARAMS[case]:
        raise ValueError(f"the {case} solver sweeps {SOLVER_PARAMS[case][0][0]!r}, got {name!r}")
    files = {}  # file name -> sweep value
    for value in values:
        fname = f"{case}_{name}{value:g}.updr"
        if not np.isfinite(value):
            raise ValueError(f"--sweep values must be finite, got {name}={value}")
        if case == "ks" and value <= 0:
            raise ValueError(f"--sweep values must be positive, got {name}={value}")
        if fname in files:
            raise ValueError(f"--sweep values {files[fname]!r} and {value!r} both "
                             f"write {fname}")
        files[fname] = value
    # every value is solved before --out exists, so a solver blow-up writes nothing
    trajs = {fname: _generate_one(config, {name: value}) for fname, value in files.items()}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, traj in trajs.items():
        write_trajectory(out / fname, traj)
    write_json(out / "manifest.json", {"case": case, "sweep": {name: values},
                                       "files": list(files), "seed": config.seed})
    write_resolved(config, out)
    click.echo(f"wrote {len(files)} trajectories to {out}")


@main.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--data", "data_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="overrides the config's seed")
@click.option("--out", "out_dir", type=click.Path(), default="runs/train")
def cmd_train(config_path, data_dir, seed, out_dir):
    """Train on the even-index split of every trajectory in --data."""
    from .training import train
    config = _load_config(config_path, seed)
    train_set = list(_load_dataset(Path(data_dir), config, config_path).values())
    tc = config.train_config(train_set[0].n_xy, len(train_set[0].param.names()))
    ckpt = train(train_set, tc, config.seed, dataset_id=str(data_dir))
    out = Path(out_dir)
    ckpt.save(out / "checkpoint")
    write_resolved(config, out)
    write_json(out / "train_summary.json",
               {"final_loss": ckpt.loss_curve[-1],
                "final_loss_components": ckpt.lineage[-1]["loss_components"][-1],
                "epochs": len(ckpt.loss_curve)})
    click.echo(f"checkpoint saved to {out / 'checkpoint'}")


def _predict_for(ckpt_dir, data_file):
    """(checkpoint, trajectory, rollout past its lookback, the states forecast,
    its relative MSE); a file whose forecast states have zero energy is refused"""
    from .training import ModelCheckpoint, forecast_trajectory
    ckpt = ModelCheckpoint.load(ckpt_dir)
    traj = read_trajectory(data_file)
    ckpt.check_fits(traj, data_file)
    predicted, truth = forecast_trajectory(ckpt, traj)
    try:
        return ckpt, traj, predicted, truth, relative_mse(predicted, truth)
    except ZeroVarianceError as exc:
        raise ValueError(f"{data_file}: {exc}") from None


@main.command("infer")
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_file", type=click.Path(), required=True)
@click.option("--out", "out_dir", type=click.Path(), default="runs/infer")
def cmd_infer(ckpt_dir, data_file, out_dir):
    """Roll out at the trajectory's parameters; emit kinetic-energy CSV."""
    _, traj, predicted, truth, rel = _predict_for(ckpt_dir, data_file)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k_pred = kinetic_energy(predicted)
    write_csv(out / "kinetic_energy.csv", ("t", "k_pred", "k_true"),
              zip(range(len(k_pred)), k_pred, kinetic_energy(truth)))
    write_trajectory(out / "prediction.updr",
                     Trajectory(states=predicted, dt=traj.dt, length=traj.length,
                                param=traj.param))
    write_json(out / "metrics.json", {"relative_mse_percent": rel})
    click.echo(f"relative MSE {rel:.4f}% -> {out}")


@main.command("uq")
@click.option("--checkpoint", "ckpt_dir", type=click.Path(), required=True)
@click.option("--data", "data_file", type=click.Path(), required=True)
@click.option("--n", "ensemble_n", type=int, default=64)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_dir", type=click.Path(), default="runs/uq")
def cmd_uq(ckpt_dir, data_file, ensemble_n, seed, out_dir):
    """Second-pass ensemble UQ over a rollout; emit nu CSV tables."""
    _check_seed(seed)
    from .uq import check_ensemble_size, second_pass, write_uq_csvs
    check_ensemble_size(ensemble_n)
    ckpt, traj, predicted, truth, rel = _predict_for(ckpt_dir, data_file)
    nu, ensemble = second_pass(predicted, ckpt, traj.param, n=ensemble_n, seed=seed)
    scores = {"relative_mse_percent": [rel],
              "crps_printed": [crps(ensemble, truth, form="printed")],
              "crps_abs": [crps(ensemble, truth, form="abs")],
              "scaled_mse_mean": [scaled_mse(predicted, truth)[1]]}
    out = Path(out_dir)
    write_uq_csvs(out, nu)
    write_param_csv(out / "nu_xi.csv", [traj.param], nu_xi=[float(nu.mean())])
    write_param_csv(out / "metrics.csv", [traj.param], **scores)
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
    from .adaptive import run_loop
    from .training import ModelCheckpoint
    config = _load_config(config_path, seed)
    overrides = {"budget": budget, "threshold": threshold}
    config.adaptive = replace(config.adaptive,
                              **{k: v for k, v in overrides.items() if v is not None})
    ckpt = ModelCheckpoint.load(ckpt_dir)
    # the loop runs at the fitted dt and windows, so the files, and with them
    # every grid solve at the same datagen, must be at half that dt
    initial = _load_dataset(Path(data_dir), replace(config, transformer=ckpt.config.transformer),
                            config_path)
    for path, split in initial.items():
        if split.dt != ckpt.data["dt"]:
            raise ValueError(f"{path}: dt {split.dt / 2} differs from {ckpt.data['dt'] / 2}, "
                             f"the dt of the files {ckpt_dir} was trained on")
        ckpt.check_fits(split, path)
    # the loop retrains on the even-index split of every grid solve
    _check_window(config.datagen.n_t, f"{config_path or 'the default config'}: datagen.n_t",
                  ckpt.config.transformer)
    grid = _grid(config)

    def generator(point: ParamPoint) -> Trajectory:
        """The even-index split of the solve at ``point``: the trained dt."""
        return split_even_odd(_generate_one(config, point.as_dict()))[0]

    state, _ = run_loop(ckpt, generator, grid, config.adaptive.budget,
                        config.adaptive.threshold, initial_data=list(initial.values()),
                        retrain_epochs=config.training.retrain_epochs,
                        replay_fraction=config.training.replay_fraction,
                        ensemble_n=config.uq.ensemble_n, seed=config.seed)
    # --out appears only once the loop has succeeded; history owns every table value
    out = Path(out_dir)
    ckpt.save(out / "checkpoint")
    for i, rec in enumerate(state.history):
        write_param_csv(out / f"iter{i}_nu.csv", grid, nu_xi=[e["nu"] for e in rec["nu_xi"]])
        write_param_csv(out / f"iter{i}_mse.csv", grid,
                        scaled_mse=[e["mse"] for e in rec["scaled_mse"]])
    write_json(out / "adaptive_history.json", state.to_dict())
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
    # every file is read before a table is written, so a bad one writes none
    energies = {path: kinetic_energy(read_trajectory(path).states) for path in files}
    for path, energy in energies.items():
        write_csv(path.parent / f"ke_{path.stem}.csv", ("t", "kinetic_energy"), enumerate(energy))
    click.echo(f"wrote kinetic-energy tables for {len(files)} trajectories")


if __name__ == "__main__":
    main()
