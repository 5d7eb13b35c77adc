"""Uncertainty-driven adaptive sampling over a parameter grid.

Each iteration rolls the model out at every grid point, aggregates the
uncertainty per point, and retrains with replay at the most uncertain
untrained point until the uncertainty converges or the budget runs out.
Validation error is recorded for diagnostics only and never influences
selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .datagen import ParamPoint, Trajectory
from .metrics import ZeroVarianceError, pearson, scaled_mse
from .training import ModelCheckpoint, forecast_trajectory, retrain
from .uq import check_ensemble_size, second_pass


@dataclass
class AdaptiveState:
    param_grid: list
    trained_set: list
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "param_grid": [p.as_dict() for p in self.param_grid],
            "trained_set": [p.as_dict() for p in self.trained_set],
            "history": self.history,
        }


def select_next(candidates: Sequence) -> ParamPoint:
    """Argmax of nu over the untrained grid points ``candidates``, a
    sequence of (ParamPoint, nu_xi) pairs; ties break to the smallest
    parameter vector in lexicographic order."""
    if not candidates:
        raise ValueError("no untrained grid points left")
    best = max(candidates, key=lambda pv: (pv[1], tuple(-x for x in pv[0].vector())))
    return best[0]


def evaluate_grid(ckpt: ModelCheckpoint, truths: dict, grid, ensemble_n: int,
                  seed: int):
    """Rollout + second-pass UQ at every grid point.

    Returns per-point lists of (nu_xi, scaled mse, predicted states).
    """
    nu_list, mse_list, preds = [], [], {}
    for point in grid:
        predicted, truth = forecast_trajectory(ckpt, truths[point])
        nu, _ = second_pass(predicted, ckpt, point, n=ensemble_n, seed=seed)
        nu_list.append(float(nu.mean()))
        mse_list.append(scaled_mse(predicted, truth)[1])
        preds[point] = predicted
    return nu_list, mse_list, preds


def run_loop(ckpt: ModelCheckpoint, generator: Callable[[ParamPoint], Trajectory],
             grid: Sequence[ParamPoint], budget: int, threshold: float,
             initial_data: Sequence[Trajectory], retrain_epochs: int = 40,
             replay_fraction: float = 0.25, ensemble_n: int = 64,
             seed: int = 0):
    """Adaptive sampling loop; returns (AdaptiveState, final checkpoint).

    ``generator`` supplies each grid point's ground truth, all solved once
    before the first iteration; one whose ``param`` is not the requested
    point raises ValueError. Stops when the maximum uncertainty over
    untrained points falls below ``threshold`` or after ``budget`` iterations.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    check_ensemble_size(ensemble_n)
    grid = list(grid)
    if len(grid) < 2:  # the uncertainty-error correlation needs two points
        raise ValueError(f"the grid needs at least two points, got {len(grid)}")
    state = AdaptiveState(param_grid=grid,
                          trained_set=[t.param for t in initial_data])
    replay_pool = list(initial_data)
    truths: dict = {}
    for point in grid:
        if point not in truths:
            traj = truths[point] = generator(point)
            if traj.param != point:
                raise ValueError(f"the generator returned a trajectory at "
                                 f"{traj.param.as_dict()} for {point.as_dict()}")

    for iteration in range(budget + 1):
        nu_list, mse_list, _ = evaluate_grid(ckpt, truths, grid, ensemble_n,
                                             seed + iteration)
        try:
            r = pearson(np.array(nu_list), np.array(mse_list))
        except ZeroVarianceError:
            r = float("nan")

        trained = set(state.trained_set)
        untrained = [(p, v) for p, v in zip(grid, nu_list) if p not in trained]
        record = {
            "iteration": iteration,
            "nu_xi": [{"param": p.as_dict(), "nu": v} for p, v in zip(grid, nu_list)],
            "scaled_mse": [{"param": p.as_dict(), "mse": v} for p, v in zip(grid, mse_list)],
            "pearson_r": r,
            "chosen": None,
        }
        state.history.append(record)

        converged = not untrained or max(v for _, v in untrained) < threshold
        if converged or iteration == budget:
            break

        chosen = select_next(untrained)
        record["chosen"] = chosen.as_dict()
        retrain(ckpt, [truths[chosen]], replay_pool, replay_fraction, retrain_epochs,
                seed=seed + 1000 + iteration,
                dataset_id=f"adaptive_iter{iteration}")
        replay_pool.append(truths[chosen])
        state.trained_set.append(chosen)
    return state, ckpt
