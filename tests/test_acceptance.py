"""End-to-end acceptance experiments.

Each test covers one numbered criterion and reports a single pass/fail
line (collected in the terminal summary). The heavy model fixtures are
session-scoped: one Kuramoto-Sivashinsky training run, one bifurcation
surrogate ensemble, and one adaptive-sampling loop.
"""

import numpy as np
import pytest

from romuq import tensor as T
from romuq.adaptive import run_loop
from romuq.datagen import (ParamPoint, hopf_mode_shapes, solve_hopf_surrogate,
                           solve_ks, split_even_odd, stuart_landau,
                           write_trajectory)
from romuq.metrics import crps, kinetic_energy, relative_mse, scaled_mse
from romuq.tensor import Tape, Tensor, backward
from romuq.training import (LossWeights, ModelCheckpoint, TrainConfig,
                            predict_rollout, train)
from romuq.transformer import TransformerConfig
from romuq.uq import aggregate_time, second_pass, write_uq_csvs
from romuq.vae import LatentDistribution, Vae, VaeConfig, kld

# ---------------------------------------------------------------- fixtures

KS_NU = 1.0
HOPF_GRID_MU = [round(-0.5 + 0.1 * i, 1) for i in range(10)]
HOPF_TRAIN_MU = (0.3, 0.4)
HOPF_NX, HOPF_DT, HOPF_NT = 64, 0.1, 400


def hopf_point(mu):
    return ParamPoint.of(mu=mu, omega=1.0)


def hopf_truth(point):
    return solve_hopf_surrogate(point["mu"], n_x=HOPF_NX, dt=HOPF_DT,
                                n_t=HOPF_NT)


@pytest.fixture(scope="session")
def ks_run():
    """KS toy training: n_x=64, latent 8, q=h=10, 200 epochs, single nu."""
    traj = solve_ks(KS_NU, n_x=64, domain_length=22.0, dt=0.05, n_t=1000,
                    seed=0)
    train_traj, test_traj = split_even_odd(traj)
    config = TrainConfig(
        vae=VaeConfig(state_dim=64, latent_dim=8, hidden=(128,), param_dim=1,
                      embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=8,
                                      width=64, heads=4, blocks=1,
                                      param_dim=1),
        loss=LossWeights(), epochs=200, batch_size=32, lr=1e-3)
    ckpt = train([train_traj], config, seed=0)
    return ckpt, train_traj, test_traj


@pytest.fixture(scope="session")
def hopf_run():
    """Surrogate ensemble trained at two post-critical grid points."""
    initial = [hopf_truth(hopf_point(mu)) for mu in HOPF_TRAIN_MU]
    config = TrainConfig(
        vae=VaeConfig(state_dim=HOPF_NX, latent_dim=4, hidden=(64,),
                      param_dim=2, embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=4,
                                      width=64, heads=4, blocks=1,
                                      param_dim=2),
        loss=LossWeights(), epochs=60, batch_size=32, lr=1e-3)
    ckpt = train(initial, config, seed=1)
    return ckpt, initial


@pytest.fixture(scope="session")
def adaptive_run(tmp_path_factory):
    """Five-iteration adaptive loop on short, transient-dominated
    trajectories, where every grid point's dynamics stay distinct."""

    def gen(point):
        return solve_hopf_surrogate(point["mu"], n_x=HOPF_NX, dt=0.2, n_t=80)

    initial = [gen(hopf_point(mu)) for mu in HOPF_TRAIN_MU]
    config = TrainConfig(
        vae=VaeConfig(state_dim=HOPF_NX, latent_dim=4, hidden=(64,),
                      param_dim=2, embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=4,
                                      width=64, heads=4, blocks=1,
                                      param_dim=2),
        loss=LossWeights(), epochs=60, batch_size=32, lr=1e-3)
    ckpt = train(initial, config, seed=2)
    out = tmp_path_factory.mktemp("adaptive")
    state, final = run_loop(ckpt, gen,
                            [hopf_point(mu) for mu in HOPF_GRID_MU],
                            budget=5, threshold=0.0, initial_data=initial,
                            retrain_epochs=10, replay_fraction=0.25,
                            ensemble_n=64, seed=0, out_dir=out)
    return state, final, out


# ----------------------------------------------------- 1: autodiff soundness


def _fd_grad(f, x, h=1e-5):
    g = np.empty_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def _check_grad(build, x0, tol):
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        backward(tape, build(x))
    num = _fd_grad(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    denom = max(np.max(np.abs(num)), 1e-8)
    return np.max(np.abs(x.grad - num)) / denom


def test_criterion_1_autodiff(criterion):
    rng = np.random.default_rng(0)
    w_const = Tensor(rng.standard_normal((4, 3)))
    ln_affine = (Tensor(np.linspace(0.5, 2.0, 4)), Tensor(np.linspace(-1.0, 1.0, 4)))
    ops = {
        "matmul": lambda x: T.tensor_sum(T.mul(T.matmul(x, w_const),
                                               T.matmul(x, w_const))),
        "add_mul": lambda x: T.tensor_sum(T.mul(T.add(x, x), x)),
        "exp": lambda x: T.tensor_sum(T.exp(x)),
        "log": lambda x: T.tensor_sum(T.log(x)),
        "tanh": lambda x: T.tensor_sum(T.tanh(x)),
        "gelu": lambda x: T.tensor_sum(T.gelu(x)),
        "softmax": lambda x: T.tensor_sum(T.mul(T.softmax(x), x)),
        "layer_norm": lambda x: T.tensor_sum(T.mul(T.layer_norm(x, *ln_affine), x)),
        "mean": lambda x: T.tensor_mean(x),
    }
    worst = 0.0
    for name, build in ops.items():
        for trial in range(10):
            x0 = rng.standard_normal((3, 4))
            if name == "log":
                x0 = np.abs(x0) + 0.5
            worst = max(worst, _check_grad(build, x0, 1e-4))
    prim_ok = worst < 1e-4

    # 2-layer toy network end to end
    w1 = rng.standard_normal((4, 6)) * 0.5
    w2 = rng.standard_normal((6, 2)) * 0.5
    target = rng.standard_normal((5, 2))
    x_in = rng.standard_normal((5, 4))

    def net(w1_arr):
        h = T.tanh(T.matmul(Tensor(x_in), Tensor(w1_arr) if not isinstance(w1_arr, Tensor) else w1_arr))
        out = T.matmul(h, Tensor(w2))
        return T.mse(out, Tensor(target))

    net_err = _check_grad(net, w1, 1e-3)
    criterion(1, "autodiff gradients", prim_ok and net_err < 1e-3,
              f"worst primitive rel err {worst:.2e}, net {net_err:.2e}")


# ------------------------------------------------------------ 2: KLD oracle


def test_criterion_2_kld(criterion):
    def k(mu, lv):
        return float(kld(LatentDistribution(mu=Tensor(np.atleast_2d(mu)),
                                            log_var=Tensor(np.atleast_2d(lv)))).data)

    exact_zero = k(np.zeros(4), np.zeros(4)) == 0.0
    half = abs(k([1.0], [0.0]) - 0.5) < 1e-12
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((10_000, 3)) * 3
    lv = rng.standard_normal((10_000, 3)) * 2
    nonneg = bool(np.all(0.5 * (np.exp(lv) + mu ** 2 - 1 - lv).sum(axis=1) >= 0))
    criterion(2, "KLD oracle", exact_zero and half and nonneg)


# ------------------------------------------------------- 3: KS solver physics


def test_criterion_3_ks_physics(criterion):
    n_x, length = 64, 22.0
    x = length * np.arange(n_x) / n_x
    k = 2 * np.pi / length
    rate_expected = k ** 2 - KS_NU * k ** 4
    traj = solve_ks(KS_NU, n_x=n_x, domain_length=length, dt=0.01, n_t=201,
                    init=1e-6 * np.cos(k * x))
    amps = np.abs(np.fft.fft(traj.states, axis=1)[:, 1])
    rate = np.log(amps[-1] / amps[0]) / (0.01 * 200)
    growth_ok = abs(rate - rate_expected) < 0.02 * abs(rate_expected)

    a = solve_ks(4.0, n_x=64, domain_length=22.0, dt=0.05, n_t=401, seed=2)
    b = solve_ks(4.0, n_x=64, domain_length=22.0, dt=0.025, n_t=801, seed=2)
    rms = float(np.sqrt(np.mean((a.states[-1] - b.states[-1]) ** 2)))
    criterion(3, "KS solver physics", growth_ok and rms < 1e-5,
              f"rate err {abs(rate - rate_expected) / abs(rate_expected):.2%}, "
              f"dt-halving RMS {rms:.2e}")


# --------------------------------------------------- 4: Hopf surrogate oracle


def test_criterion_4_hopf_oracle(criterion):
    amp_ok = True
    for mu in (0.25, 0.5, 1.0):
        amps = stuart_landau(mu, 1.0, 0.05, 2000, 0.1)
        amp_ok &= abs(abs(amps[-1]) - np.sqrt(mu)) < 0.01 * np.sqrt(mu)
    decay = abs(stuart_landau(-0.5, 1.0, 0.05, 600, 0.1)[-1])
    criterion(4, "Hopf surrogate oracle", amp_ok and decay < 1e-4,
              f"pre-critical residual {decay:.1e}")


# ------------------------------------------------------- 5: KS toy training


def test_criterion_5_ks_training(criterion, ks_run):
    ckpt, _, test_traj = ks_run
    q = h = 10
    preds, truths = [], []
    for s in range(0, test_traj.n_t - q - h + 1, h):
        p, _ = predict_rollout(ckpt, test_traj.states[s:s + q],
                               test_traj.param, h)
        preds.append(p)
        truths.append(test_traj.states[s + q:s + q + h])
    rel = relative_mse(np.concatenate(preds), np.concatenate(truths))

    rolled, _ = predict_rollout(ckpt, test_traj.states[:q], test_traj.param,
                                200)
    bounded = bool(np.all(np.isfinite(rolled))) and np.max(np.abs(rolled)) < 100
    criterion(5, "KS toy training", rel < 5.0 and bounded,
              f"test relative MSE {rel:.3f}%, rollout max "
              f"{np.max(np.abs(rolled)):.2f}")


# ------------------------------------------- 6: bifurcation trend distinction


def _fluct_trend(ckpt, mu):
    point = hopf_point(mu)
    truth = hopf_truth(point)
    q = ckpt.config.transformer.lookback
    pred, _ = predict_rollout(ckpt, truth.states[:q], point, HOPF_NT - q)
    _, _, base = hopf_mode_shapes(HOPF_NX)
    k_base = kinetic_energy(base[None])[0]
    fluct = np.abs(kinetic_energy(pred) - k_base)
    return fluct[:50].mean(), fluct[-100:].mean()


def test_criterion_6_bifurcation_trend(criterion, hopf_run):
    ckpt, _ = hopf_run
    pre_ok = True
    for mu in (-0.5, -0.3):
        early, late = _fluct_trend(ckpt, mu)
        pre_ok &= late < early  # decaying signal at unseen pre-critical mu
    early, late = _fluct_trend(ckpt, 0.3)
    post_ok = late > 0.8 * early  # sustained oscillation where trained
    criterion(6, "bifurcation trend sign", pre_ok and post_ok,
              f"post-critical late/early {late / early:.2f}")


# ------------------------------------------------- 7: UQ - error correlation


def test_criterion_7_uq_error_correlation(criterion, adaptive_run):
    state, _, _ = adaptive_run
    rs = [rec["pearson_r"] for rec in state.history]
    criterion(7, "UQ-error correlation", all(r >= 0.5 for r in rs),
              "r per iteration: " + ", ".join(f"{r:.2f}" for r in rs))


# ----------------------------------------------------- 8: adaptive improvement


def test_criterion_8_adaptive_improvement(criterion, adaptive_run):
    state, _, _ = adaptive_run
    max_mse = [max(e["mse"] for e in rec["scaled_mse"])
               for rec in state.history]
    improved = max_mse[-1] < max_mse[0]
    first_pick = state.history[0]["chosen"]
    extreme = first_pick is not None and first_pick["mu"] == min(HOPF_GRID_MU)
    criterion(8, "adaptive improvement", improved and extreme,
              f"max scaled MSE {max_mse[0]:.3f} -> {max_mse[-1]:.3f}, "
              f"first pick mu={first_pick and first_pick['mu']}")


# --------------------------------------------------- 9: UQ temporal structure


def test_criterion_9_uq_temporal_structure(criterion, hopf_run):
    ckpt, _ = hopf_run
    point = hopf_point(HOPF_TRAIN_MU[0])
    truth = hopf_truth(point)
    q = ckpt.config.transformer.lookback
    pred, _ = predict_rollout(ckpt, truth.states[:q], point, HOPF_NT - q)
    nu, _ = second_pass(pred, ckpt, point, n=64, seed=0)
    nu_t = aggregate_time(nu)
    n = len(nu_t)
    transient_max = float(nu_t[: int(0.4 * n)].max())
    plateau_mean = float(nu_t[int(0.7 * n):].mean())
    criterion(9, "UQ temporal structure", transient_max > plateau_mean,
              f"transient max {transient_max:.4f} vs plateau mean "
              f"{plateau_mean:.4f}")


# ------------------------------------------------------------ 10: CRPS oracle


def test_criterion_10_crps(criterion):
    truth = np.array([0.7])
    identical = crps(np.array([[0.7], [0.7], [0.7]]), truth)
    sym = crps(np.array([[0.3], [-0.3]]), np.array([0.0]))
    delta = crps(np.array([[0.3], [0.3]]), np.array([0.0]))
    exact = (abs(identical) < 1e-12 and abs(sym) < 1e-12
             and abs(delta - 0.09) < 1e-12)

    rng = np.random.default_rng(2)
    truth = rng.standard_normal(20)
    tight = truth[None] + 0.01 * rng.standard_normal((16, 20))
    loose = truth[None] + 1.0 * rng.standard_normal((16, 20))
    ordered = crps(tight, truth, form="abs") < crps(loose, truth, form="abs")
    criterion(10, "CRPS oracles", exact and ordered)


# ----------------------------------------- 11: determinism and persistence


def test_criterion_11_determinism(criterion, tmp_path):
    # trajectory files
    for sub in ("a", "b"):
        write_trajectory(tmp_path / f"{sub}.updr",
                         solve_ks(1.0, n_x=32, n_t=50, seed=3))
    traj_ok = (tmp_path / "a.updr").read_bytes() == (tmp_path / "b.updr").read_bytes()

    # checkpoints from repeated seeded runs
    dataset = [solve_hopf_surrogate(0.4, n_x=16, n_t=40, dt=0.1)]
    config = TrainConfig(
        vae=VaeConfig(state_dim=16, latent_dim=2, hidden=(12,), param_dim=2,
                      embed_dim=3),
        transformer=TransformerConfig(lookback=3, horizon=3, latent_dim=2,
                                      width=8, heads=2, blocks=1, param_dim=2),
        loss=LossWeights(), epochs=3, batch_size=16, lr=1e-3)
    for sub in ("c1", "c2"):
        train(dataset, config, seed=4).save(tmp_path / sub)
    ckpt_ok = all(
        (tmp_path / "c1" / f).read_bytes() == (tmp_path / "c2" / f).read_bytes()
        for f in ("manifest.json", "weights.bin"))

    # round trip preserves inference bit-for-bit, and CSVs are byte-stable
    ckpt = ModelCheckpoint.load(tmp_path / "c1")
    again = ModelCheckpoint.load(tmp_path / "c1")
    xi = dataset[0].param
    pred_a, _ = predict_rollout(ckpt, dataset[0].states[:3], xi, 10)
    pred_b, _ = predict_rollout(again, dataset[0].states[:3], xi, 10)
    rt_ok = pred_a.tobytes() == pred_b.tobytes()

    nu, _ = second_pass(pred_a, ckpt, xi, n=8, seed=0)
    write_uq_csvs(tmp_path / "u1", nu)
    write_uq_csvs(tmp_path / "u2", nu)
    csv_ok = ((tmp_path / "u1/uq_field.csv").read_bytes()
              == (tmp_path / "u2/uq_field.csv").read_bytes())
    criterion(11, "determinism and persistence",
              traj_ok and ckpt_ok and rt_ok and csv_ok)
