"""The three benchmark workloads.

Each workload derives all of its inputs from the seed and runs one *pass*
of its pipeline per ``run_pass`` call: a closed loop with one client, where
each stage call starts after the previous one returns. A pass returns the
raw numbers the end-to-end metrics are computed from, the output checks,
a fingerprint of its deterministic outputs, and the call counts the traced
run's self-check expects.

Stage functions are always looked up on their module at call time, so the
tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import STAGES, Tracer, merge_dumps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _stage_errors():
    """Errors a stage call may raise that count as a failed operation."""
    from romuq.datagen import SolverError
    from romuq.tensor import NonFiniteError
    from romuq.training import TrainingDiverged
    from romuq.transformer import RolloutDivergence
    return SolverError, TrainingDiverged, RolloutDivergence, NonFiniteError


def _seeds(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=n)]


def _windows(n_t: int, q: int, h: int) -> int:
    return n_t - q - h + 1


def _fingerprint(weights: bytes, loss_curve) -> dict:
    digest = hashlib.sha256(weights)
    digest.update(repr([float(x) for x in loss_curve]).encode())
    return {"hash": digest.hexdigest()[:16],
            "loss_curve": [float(f"{x:.6g}") for x in loss_curve]}


def _ckpt_fingerprint(ckpt) -> dict:
    blob = b"".join(p.data.astype("<f8").tobytes()
                    for _, p in ckpt.named_parameters())
    return _fingerprint(blob, ckpt.loss_curve)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


class Pass:
    """What one pass of a workload produced: its wall time, per-pass
    figures in ``values``, and in ``dump`` the tracer statistics the
    stage throughputs are computed from."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict = {}
        self.expected: dict = {}
        self.fingerprint: dict = {}
        self.dump: dict = {}

    def call(self, fn, *args, **kwargs):
        """Issue one stage call; count it and its failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except _stage_errors() as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            raise

    def check(self, ok: bool, what: str):
        if not ok:
            self.errors.append(f"check failed: {what}")


def _in_process(body):
    """Run ``body(p, tracer)`` under a tracer: the full one when traced,
    else only the stage timers."""

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        tracer = Tracer(None if traced else STAGES)
        tracer.install()
        t0 = time.perf_counter()
        try:
            body(self, p, tracer)
        except _stage_errors():
            pass
        finally:
            p.wall = time.perf_counter() - t0
            tracer.uninstall()
        p.dump = tracer.dump()
        return p

    return run_pass


# ---------------------------------------------------------------- ks_train

KS_NUS = (0.8, 0.9, 1.0, 1.1, 1.2, 1.3)
KS_ROLLOUT_NUS = (0.9, 1.1)
KS_NT, KS_NX = 1000, 64


def ks_model_config(epochs: int, param_dim: int = 1):
    from romuq.training import LossWeights, TrainConfig
    from romuq.transformer import TransformerConfig
    from romuq.vae import VaeConfig
    return TrainConfig(
        vae=VaeConfig(state_dim=KS_NX, latent_dim=8, hidden=(128,),
                      param_dim=param_dim, embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=8,
                                      width=64, heads=4, blocks=1,
                                      param_dim=param_dim),
        loss=LossWeights(), epochs=epochs, batch_size=32, lr=1e-3)


class KsTrain:
    """KS sweep solve, one training epoch on the even splits of every
    trajectory, then a windowed rollout over two test splits."""

    name = "ks_train"
    epochs = 1

    def __init__(self, seed: int, workdir: Path):
        *self.solve_seeds, self.train_seed = _seeds(seed, len(KS_NUS) + 1)

    @_in_process
    def run_pass(self, p: Pass, tracer):
        from romuq import datagen, metrics, training
        cfg = ks_model_config(self.epochs)
        q, h = cfg.transformer.lookback, cfg.transformer.horizon

        t0 = time.perf_counter()
        trajs = [p.call(datagen.solve_ks, nu, n_x=KS_NX, n_t=KS_NT, seed=s)
                 for nu, s in zip(KS_NUS, self.solve_seeds)]
        p.values["solve_s"] = time.perf_counter() - t0
        p.check(all(t.states.shape == (KS_NT, KS_NX) and _finite(t.states)
                    for t in trajs), "KS trajectories finite, (n_t, n_x)")
        splits = [datagen.split_even_odd(t) for t in trajs]

        ckpt = p.call(training.train, [s[0] for s in splits], cfg,
                      self.train_seed)
        p.check(_finite(ckpt.loss_curve, *[w.data for _, w in ckpt.named_parameters()]),
                "loss curve and weights finite")

        preds, truths, n_steps = [], [], 0
        for nu, (_, test) in zip(KS_NUS, splits):
            if nu not in KS_ROLLOUT_NUS:
                continue
            for s in range(0, _windows(test.n_t, q, h), h):
                pred, _ = p.call(training.predict_rollout, ckpt,
                                 test.states[s:s + q], test.param, h)
                preds.append(pred)
                truths.append(test.states[s + q:s + q + h])
                n_steps += h
        p.check(all(x.shape == (h, KS_NX) for x in preds) and _finite(*preds),
                "rollout predictions finite, (h, n_x)")
        p.values["rel_mse_pct"] = metrics.relative_mse(np.concatenate(preds),
                                                       np.concatenate(truths))
        p.fingerprint = _ckpt_fingerprint(ckpt)

        windows = len(KS_NUS) * _windows(KS_NT // 2, q, h)
        steps = self.epochs * math.ceil(windows / cfg.batch_size)
        p.expected = {
            "optim.step.calls": steps,
            "transformer.forecast.calls": steps + n_steps,
            "uq.member_noise.calls": 0,
            "datagen.solve_ks.calls": len(KS_NUS),
            "training.train.calls": 1,
            "training.predict_rollout.calls": n_steps // h,
            "metrics.relative_mse.calls": 1,
        }


# -------------------------------------------------------------- hopf_adapt

HOPF_GRID_MU = [round(-0.5 + 0.1 * i, 1) for i in range(10)]
HOPF_TRAIN_MU = (0.3, 0.4)
HOPF_NX, HOPF_DT, HOPF_NT = 64, 0.2, 80
HOPF_BUDGET, HOPF_EPOCHS, HOPF_RETRAIN_EPOCHS = 5, 60, 10
HOPF_ENSEMBLE, HOPF_REPLAY = 64, 0.25


def hopf_model_config():
    from romuq.training import LossWeights, TrainConfig
    from romuq.transformer import TransformerConfig
    from romuq.vae import VaeConfig
    return TrainConfig(
        vae=VaeConfig(state_dim=HOPF_NX, latent_dim=4, hidden=(64,),
                      param_dim=2, embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=4,
                                      width=64, heads=4, blocks=1,
                                      param_dim=2),
        loss=LossWeights(), epochs=HOPF_EPOCHS, batch_size=32, lr=1e-3)


class HopfAdapt:
    """The acceptance adaptive fixture: 2 initial Hopf trajectories, a
    60-epoch initial train, then the adaptive loop over a 10-point mu grid
    with budget 5, 10 retrain epochs and an ensemble of 64."""

    name = "hopf_adapt"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.init_amplitude = 0.08 + 0.04 * float(rng.random())
        self.train_seed, self.adapt_seed = _seeds(seed + 1, 2)

    @_in_process
    def run_pass(self, p: Pass, tracer):
        from romuq import adaptive, datagen, metrics, training
        from romuq.datagen import ParamPoint
        grid = [ParamPoint.of(mu=mu, omega=1.0) for mu in HOPF_GRID_MU]

        t0 = time.perf_counter()
        truths = {pt: p.call(datagen.solve_hopf_surrogate, pt["mu"], omega=1.0,
                             n_x=HOPF_NX, dt=HOPF_DT, n_t=HOPF_NT,
                             init_amplitude=self.init_amplitude)
                  for pt in grid}
        p.values["solve_s"] = time.perf_counter() - t0
        p.check(all(t.states.shape == (HOPF_NT, HOPF_NX) and _finite(t.states)
                    for t in truths.values()), "Hopf trajectories finite")
        initial = [truths[pt] for pt in grid if pt["mu"] in HOPF_TRAIN_MU]

        cfg = hopf_model_config()
        ckpt = p.call(training.train, initial, cfg, self.train_seed)
        t0 = time.perf_counter()
        state, ckpt = p.call(adaptive.run_loop, ckpt, truths.__getitem__,
                             grid, budget=HOPF_BUDGET, threshold=0.0,
                             initial_data=initial,
                             retrain_epochs=HOPF_RETRAIN_EPOCHS,
                             replay_fraction=HOPF_REPLAY,
                             ensemble_n=HOPF_ENSEMBLE, seed=self.adapt_seed)
        p.values["adapt_s"] = time.perf_counter() - t0

        rs = [rec["pearson_r"] for rec in state.history]
        p.values["uq_err_pearson"] = min(rs)
        p.check(len(state.history) == HOPF_BUDGET + 1,
                f"{HOPF_BUDGET + 1} adaptive iterations")
        p.check(_finite(rs, *[[e["nu"] for e in rec["nu_xi"]] for rec in state.history])
                and all(e["nu"] >= 0 for rec in state.history for e in rec["nu_xi"]),
                "uncertainty and correlation finite, nu >= 0")

        q = cfg.transformer.lookback
        steps = HOPF_NT - q
        _, _, preds = tracer.last["adaptive.evaluate_grid"]
        p.check(all(preds[pt].shape == (steps, HOPF_NX) for pt in grid)
                and _finite(*preds.values()), "grid predictions finite")
        p.values["rel_mse_pct"] = metrics.relative_mse(
            np.concatenate([preds[pt] for pt in grid]),
            np.concatenate([truths[pt].states[q:q + steps] for pt in grid]))
        p.fingerprint = _ckpt_fingerprint(ckpt)

        w = _windows(HOPF_NT, q, cfg.transformer.horizon)
        batches = math.ceil(len(initial) * w / cfg.batch_size) * HOPF_EPOCHS
        for k in range(HOPF_BUDGET):
            replay = int(round(HOPF_REPLAY * w * (len(initial) + k)))
            batches += HOPF_RETRAIN_EPOCHS * math.ceil((w + replay) / cfg.batch_size)
        iters = len(state.history)
        p.expected = {
            "optim.step.calls": batches,
            "transformer.forecast.calls": batches + iters * len(grid) * steps,
            "uq.member_noise.calls": HOPF_ENSEMBLE * steps * len(grid) * iters,
            "datagen.solve_hopf.calls": len(grid),
            "training.train.calls": 1,
            "training.retrain.calls": iters - 1,
            "adaptive.evaluate_grid.calls": iters,
            "adaptive.select_next.calls": iters - 1,
            "training.predict_rollout.calls": iters * len(grid),
            "uq.second_pass.calls": iters * len(grid),
            "metrics.scaled_mse.calls": iters * len(grid),
            "metrics.pearson.calls": iters,
        }


# ------------------------------------------------------------------ ks_cli

CLI_NUS = (0.9, 1.0, 1.1)
CLI_INFER = "ks_nu1.updr"
CLI_ENSEMBLE = 64
CLI_TIMEOUT_S = 120
CLI_CONFIG = {
    "datagen": {"case": "ks", "n_x": KS_NX, "n_t": KS_NT, "dt": 0.05},
    "vae": {"latent_dim": 8, "hidden": [128], "embed_dim": 8},
    "transformer": {"lookback": 10, "horizon": 10, "width": 64, "heads": 4,
                    "blocks": 1},
    "training": {"epochs": 1, "batch_size": 32},
}

# Files each command documents, relative to its --out directory.
CLI_FILES = {
    "generate": ["manifest.json", "resolved_config.json"]
                + [f"ks_nu{nu:g}.updr" for nu in CLI_NUS]
                + [f"ks_nu{nu:g}.updr.meta.json" for nu in CLI_NUS],
    "train": ["checkpoint/manifest.json", "checkpoint/weights.bin",
              "train_summary.json", "resolved_config.json"],
    "infer": ["kinetic_energy.csv", "prediction.updr", "metrics.json"],
    "uq": ["uq_field.csv", "nu_t.csv", "nu_xi.csv", "metrics.csv"],
}


class KsCli:
    """The documented CLI flow, one ``romuq`` process per command:
    generate -> train -> infer -> uq -> report."""

    name = "ks_cli"

    def __init__(self, seed: int, workdir: Path):
        self.seed = _seeds(seed, 1)[0]
        self.workdir = workdir

    def _commands(self, w: Path):
        ck = str(w / "train" / "checkpoint")
        data = str(w / "data" / CLI_INFER)
        seed = str(self.seed)
        return [
            ("generate", ["generate", "--config", str(w / "config.json"),
                          "--case", "ks", "--sweep",
                          "nu=" + ",".join(f"{nu:g}" for nu in CLI_NUS),
                          "--seed", seed, "--out", str(w / "data")]),
            ("train", ["train", "--config", str(w / "config.json"),
                       "--data", str(w / "data"), "--seed", seed,
                       "--out", str(w / "train")]),
            ("infer", ["infer", "--checkpoint", ck, "--data", data,
                       "--out", str(w / "infer")]),
            ("uq", ["uq", "--checkpoint", ck, "--data", data,
                    "--n", str(CLI_ENSEMBLE), "--seed", seed,
                    "--out", str(w / "uq")]),
            ("report", ["report", "--out", str(w)]),
        ]

    def run_pass(self, traced: bool) -> Pass:
        """Each command runs under cli_shim.py, traced or with the stage
        timers; its wall time includes the interpreter start and imports."""
        p = Pass()
        w = self.workdir / f"pass{os.getpid()}"
        shutil.rmtree(w, ignore_errors=True)
        w.mkdir(parents=True)
        (w / "config.json").write_text(json.dumps(CLI_CONFIG))
        dumps = []
        try:
            for step, args in self._commands(w):
                dump_path = w / f"trace_{step}.json"
                argv = [sys.executable, str(HERE / "cli_shim.py"),
                        "--trace" if traced else "--stages", str(dump_path),
                        *args]
                p.attempted += 1
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
                p.values[f"cli.{step}_s"] = time.perf_counter() - t0
                if dump_path.is_file():
                    dumps.append(json.loads(dump_path.read_text()))
                if proc.returncode != 0:
                    p.failed += 1
                    p.errors.append(f"romuq {step} exited {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
                    break
                out = w / ("data" if step == "generate" else step)
                missing = [f for f in CLI_FILES.get(step, []) if not (out / f).is_file()]
                p.check(not missing, f"romuq {step} wrote {missing}")
            p.wall = sum(v for k, v in p.values.items() if k.startswith("cli."))
            p.dump = merge_dumps(dumps)
            if not p.errors:
                self._summarise(p, w)
        finally:
            shutil.rmtree(w, ignore_errors=True)
        return p

    def _summarise(self, p: Pass, w: Path):
        from romuq.datagen import read_trajectory
        updr = sorted(w.rglob("*.updr"))
        p.check(all((f.parent / f"ke_{f.stem}.csv").is_file() for f in updr),
                "romuq report wrote ke_<name>.csv for every .updr")
        truth = read_trajectory(w / "data" / CLI_INFER)
        pred = read_trajectory(w / "infer" / "prediction.updr")
        steps = truth.n_t - CLI_CONFIG["transformer"]["lookback"]
        p.check(pred.states.shape == (steps, KS_NX) and _finite(pred.states),
                "prediction finite, (n_t - q, n_x)")
        nu = np.loadtxt(w / "uq" / "uq_field.csv", delimiter=",", skiprows=1)
        p.check(nu.shape == (steps * KS_NX, 3) and _finite(nu)
                and bool(np.all(nu[:, 2] >= 0)), "uq_field.csv finite, nu >= 0")
        manifest = json.loads((w / "train" / "checkpoint" / "manifest.json").read_text())
        p.fingerprint = _fingerprint(
            (w / "train" / "checkpoint" / "weights.bin").read_bytes(),
            manifest["loss_curve"])

        windows = len(CLI_NUS) * _windows(KS_NT // 2, 10, 10)
        train_steps = CLI_CONFIG["training"]["epochs"] * math.ceil(windows / 32)
        p.values["solve_s"] = p.values["cli.generate_s"]
        p.values["rel_mse_pct"] = json.loads(
            (w / "infer" / "metrics.json").read_text())["relative_mse_percent"]
        # infer, then uq, each load the checkpoint and roll it out once;
        # report reads every .updr
        p.expected = {
            "optim.step.calls": train_steps,
            "transformer.forecast.calls": train_steps + 2 * steps,
            "uq.member_noise.calls": CLI_ENSEMBLE * steps,
            "config.load.calls": 2,
            "datagen.solve_ks.calls": len(CLI_NUS),
            "datagen.write_trajectory.calls": len(CLI_NUS) + 1,
            "datagen.read_trajectory.calls": 2 * len(CLI_NUS) + 3,
            "training.train.calls": 1,
            "training.save.calls": 1,
            "training.load.calls": 2,
            "training.predict_rollout.calls": 2,
            "uq.second_pass.calls": 1,
            "uq.write_csvs.calls": 1,
            "metrics.crps.calls": 2,
        }


WORKLOADS = {w.name: w for w in (KsTrain, HopfAdapt, KsCli)}
