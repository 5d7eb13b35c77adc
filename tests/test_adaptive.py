import json

import numpy as np
import pytest

from romuq.adaptive import AdaptiveState, evaluate_grid, run_loop, select_next
from romuq.datagen import solve_hopf_surrogate, ParamPoint, write_json
from romuq.training import LossWeights, TrainConfig, train
from romuq.transformer import TransformerConfig
from romuq.vae import VaeConfig


def P(mu):
    return ParamPoint.of(mu=mu)


def H(mu):
    # grid points matching the hopf surrogate's (mu, omega) parameters
    return ParamPoint.of(mu=mu, omega=1.0)


# ---------------------------------------------------------------- select_next


def test_select_next_argmax_and_exclusion():
    nu_grid = [(P(0.1), 0.5), (P(0.2), 0.9), (P(0.3), 0.7)]
    assert select_next(nu_grid) == P(0.2)
    # run_loop passes only the untrained points
    assert select_next([nu_grid[0], nu_grid[2]]) == P(0.3)
    assert select_next(nu_grid[:1]) == P(0.1)
    with pytest.raises(ValueError):
        select_next([])


def test_select_next_tie_breaks_lexicographically():
    nu_grid = [(P(0.3), 1.0), (P(0.1), 1.0), (P(0.2), 1.0)]
    assert select_next(nu_grid) == P(0.1)
    two = [(ParamPoint.of(a=1.0, b=2.0), 1.0), (ParamPoint.of(a=1.0, b=1.0), 1.0)]
    assert select_next(two) == ParamPoint.of(a=1.0, b=1.0)


def test_select_next_single_candidate():
    assert select_next([(P(0.5), 0.0)]) == P(0.5)


# -------------------------------------------------------------- state on disk


def test_adaptive_state_round_trip(tmp_path):
    state = AdaptiveState(param_grid=[P(0.1), P(0.2)], trained_set=[P(0.2)],
                          history=[{"iteration": 0, "chosen": {"mu": 0.1}}])
    path = tmp_path / "state.json"
    write_json(path, state.to_dict())
    with open(path) as f:
        raw = json.load(f)
    assert raw == state.to_dict()
    assert set(raw) == {"param_grid", "trained_set", "history"}


# ------------------------------------------------------------------- run_loop


def small_config(epochs=3):
    return TrainConfig(
        vae=VaeConfig(state_dim=16, latent_dim=2, hidden=(12,), param_dim=2,
                      embed_dim=3),
        transformer=TransformerConfig(lookback=3, horizon=3, latent_dim=2,
                                      width=8, heads=2, blocks=1, param_dim=2),
        loss=LossWeights(), epochs=epochs, batch_size=16, lr=1e-3)


def generator(point):
    return solve_hopf_surrogate(point.as_dict()["mu"], n_x=16, n_t=24, dt=0.1)


@pytest.fixture(scope="module")
def trained_pair():
    initial = [generator(H(0.4)), generator(H(0.5))]
    ckpt = train(initial, small_config(), seed=0)
    return ckpt, initial


def test_run_loop_infinite_threshold_stops_immediately(tmp_path, trained_pair):
    ckpt, initial = trained_pair
    lineage_before = len(ckpt.lineage)
    grid = [H(0.2), H(0.4), H(0.5)]
    state, out = run_loop(ckpt, generator, grid, budget=3,
                          threshold=float("inf"), initial_data=initial,
                          retrain_epochs=1, ensemble_n=4, seed=1,
                          out_dir=tmp_path)
    assert out is ckpt
    assert len(ckpt.lineage) == lineage_before  # no retraining happened
    assert len(state.history) == 1
    assert state.history[0]["chosen"] is None
    assert (tmp_path / "iter0_nu.csv").exists()
    assert (tmp_path / "iter0_mse.csv").exists()
    assert (tmp_path / "adaptive_history.json").exists()
    assert not (tmp_path / "iter1_nu.csv").exists()


def test_run_loop_budget_exhaustion_grows_trained_set(tmp_path):
    initial = [generator(H(0.5))]
    ckpt = train(initial, small_config(epochs=2), seed=2)
    grid = [H(0.2), H(0.3), H(0.5)]
    state, _ = run_loop(ckpt, generator, grid, budget=2, threshold=0.0,
                        initial_data=initial, retrain_epochs=1,
                        ensemble_n=4, seed=3, out_dir=tmp_path)
    # threshold 0 never converges; budget 2 means two acquisitions
    assert len(state.trained_set) == 3
    assert set(state.trained_set) == {H(0.2), H(0.3), H(0.5)}
    assert len(state.history) == 3
    assert state.history[-1]["chosen"] is None
    assert len(ckpt.lineage) == 3  # initial fit + two retrains
    for i in range(3):
        assert (tmp_path / f"iter{i}_nu.csv").exists()
    with open(tmp_path / "adaptive_history.json") as f:
        assert json.load(f) == state.to_dict()


def test_run_loop_writes_nothing_when_generator_fails(tmp_path, trained_pair):
    ckpt, initial = trained_pair

    def broken(point):
        raise RuntimeError("solver blew up")

    with pytest.raises(RuntimeError):
        run_loop(ckpt, broken, [H(0.9), H(1.0)], budget=1, threshold=0.0,
                 initial_data=initial, ensemble_n=4, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_loop_rejects_a_trajectory_at_another_point(tmp_path, trained_pair):
    ckpt, initial = trained_pair

    def elsewhere(point):  # solves at mu, ignoring the point's omega
        return solve_hopf_surrogate(point["mu"], omega=1.0, n_x=16, n_t=24, dt=0.1)

    with pytest.raises(ValueError, match="generator returned a trajectory at"):
        run_loop(ckpt, elsewhere, [H(0.2), ParamPoint.of(mu=0.9, omega=2.0)],
                 budget=1, threshold=0.0, initial_data=initial, ensemble_n=4,
                 out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_loop_rejects_bad_budget(trained_pair):
    ckpt, initial = trained_pair
    with pytest.raises(ValueError):
        run_loop(ckpt, generator, [H(0.2)], budget=0, threshold=0.0,
                 initial_data=initial)


def test_run_loop_rejects_one_point_grid_before_generating(tmp_path, trained_pair):
    # the uncertainty-error correlation of an iteration needs two grid points
    ckpt, initial = trained_pair
    calls = []

    def counting(point):
        calls.append(point)
        return generator(point)

    for grid in ([], [H(0.2)]):
        with pytest.raises(ValueError, match="at least two points"):
            run_loop(ckpt, counting, grid, budget=1, threshold=0.0,
                     initial_data=initial, ensemble_n=4, out_dir=tmp_path)
    assert calls == []
    assert not (tmp_path / "iter0_nu.csv").exists()


def test_run_loop_rejects_tiny_ensemble_before_generating(tmp_path, trained_pair):
    ckpt, initial = trained_pair
    calls = []

    def counting(point):
        calls.append(point)
        return generator(point)

    with pytest.raises(ValueError, match="ensemble size must be >= 2"):
        run_loop(ckpt, counting, [H(0.2), H(0.9)], budget=1, threshold=0.0,
                 initial_data=initial, ensemble_n=1, out_dir=tmp_path)
    assert calls == []


def test_evaluate_grid_shapes(trained_pair):
    ckpt, initial = trained_pair
    grid = [H(0.4), H(0.5)]
    truths = {p: generator(p) for p in grid}
    nu_list, mse_list, preds = evaluate_grid(ckpt, truths, grid, ensemble_n=4,
                                             seed=0)
    assert len(nu_list) == len(mse_list) == 2
    assert all(v >= 0 for v in nu_list)
    assert all(v >= 0 for v in mse_list)
    q = ckpt.config.transformer.lookback
    assert preds[H(0.4)].shape == (truths[H(0.4)].n_t - q, 16)
