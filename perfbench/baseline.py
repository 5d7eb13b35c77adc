"""Reproduce the single-run baseline figures recorded in ROADMAP.md.

    python3 perfbench/run.py --baseline

Times, with one BLAS thread: KS training at the acceptance config for 10
epochs, a 490-step ``predict_rollout`` and ``second_pass`` with n=64 over
490 steps (and its ``ensemble_noise`` share), each the median of three
runs, and one run of the acceptance adaptive loop (and its
``evaluate_grid`` share). Writes perfbench/results/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from tracer import Tracer
from worker import environment
from workloads import (HERE, HOPF_BUDGET, HOPF_ENSEMBLE, HOPF_REPLAY,
                       HOPF_RETRAIN_EPOCHS, hopf_model_config, ks_model_config)

# (figure, ROADMAP value in seconds)
ROADMAP = {
    "ks_train_10_epochs_s": 4.69,
    "predict_rollout_490_s": 0.71,
    "second_pass_n64_490_s": 1.12,
    "ensemble_noise_n64_490_s": 0.85,
    "adaptive_loop_s": 23.0,
    "evaluate_grid_total_s": 18.5,
}
REPEATS = 3


def main() -> int:
    from romuq import adaptive, datagen, training, uq
    from romuq.datagen import ParamPoint

    tracer = Tracer({"uq.ensemble_noise", "adaptive.evaluate_grid",
                     "adaptive.run_loop"})
    tracer.install()
    got = {k: [] for k in ROADMAP}  # figure -> seconds of each run

    def layer(name):
        return tracer.stat(name).total

    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    try:
        traj = datagen.solve_ks(1.0, n_x=64, domain_length=22.0, dt=0.05,
                                n_t=1000, seed=0)
        train_traj, test_traj = datagen.split_even_odd(traj)
        q = 10
        for _ in range(REPEATS):
            ckpt, dt = timed(training.train, [train_traj], ks_model_config(10),
                             seed=0)
            got["ks_train_10_epochs_s"].append(dt)
            (pred, _), dt = timed(training.predict_rollout, ckpt,
                                  test_traj.states[:q], test_traj.param, 490)
            got["predict_rollout_490_s"].append(dt)
            before = layer("uq.ensemble_noise")
            _, dt = timed(uq.second_pass, pred, ckpt, test_traj.param, n=64,
                          seed=0)
            got["second_pass_n64_490_s"].append(dt)
            got["ensemble_noise_n64_490_s"].append(
                layer("uq.ensemble_noise") - before)

        grid = [ParamPoint.of(mu=round(-0.5 + 0.1 * i, 1), omega=1.0)
                for i in range(10)]

        def gen(point):
            return datagen.solve_hopf_surrogate(point["mu"], n_x=64, dt=0.2,
                                                n_t=80)

        initial = [gen(ParamPoint.of(mu=mu, omega=1.0)) for mu in (0.3, 0.4)]
        hopf = training.train(initial, hopf_model_config(), seed=2)
        adaptive.run_loop(hopf, gen, grid, budget=HOPF_BUDGET, threshold=0.0,
                          initial_data=initial,
                          retrain_epochs=HOPF_RETRAIN_EPOCHS,
                          replay_fraction=HOPF_REPLAY,
                          ensemble_n=HOPF_ENSEMBLE, seed=0)
        got["adaptive_loop_s"].append(layer("adaptive.run_loop"))
        got["evaluate_grid_total_s"].append(layer("adaptive.evaluate_grid"))
    finally:
        tracer.uninstall()

    rows = {}
    for k, v in ROADMAP.items():
        measured = statistics.median(got[k])
        rows[k] = {"measured_s": measured, "runs_s": got[k], "roadmap_s": v,
                   "gap_pct": 100.0 * (measured - v) / v}
        flag = "  (gap over 20%)" if abs(rows[k]["gap_pct"]) > 20 else ""
        print(f"{k:26s} {measured:7.3f} s  roadmap {v:5.2f} s  "
              f"{rows[k]['gap_pct']:+6.1f}%{flag}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "baseline.json").write_text(json.dumps(
        {"env": environment(), "figures": rows}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
