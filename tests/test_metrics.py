import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romuq.datagen import ParamPoint
from romuq.metrics import (BLOCK_ROWS, ZeroVarianceError, crps, kinetic_energy,
                           pearson, relative_mse, scaled_mse, time_blocks,
                           write_param_csv)

# ------------------------------------------------------------- kinetic energy


def test_kinetic_energy_constant_field():
    # u = c everywhere: k = c^2 / 2
    states = np.full((5, 8), 3.0)
    np.testing.assert_allclose(kinetic_energy(states), 4.5)


def test_kinetic_energy_unit_sine_mean():
    x = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    k = kinetic_energy(np.sin(x)[None, :])
    assert abs(k[0] - 0.25) < 1e-12


def test_kinetic_energy_non_negative_and_scales_quadratically():
    rng = np.random.default_rng(0)
    states = rng.standard_normal((10, 16))
    k1 = kinetic_energy(states)
    k2 = kinetic_energy(2 * states)
    assert np.all(k1 >= 0)
    np.testing.assert_allclose(k2, 4 * k1)


# --------------------------------------------------------------- relative MSE


def test_relative_mse_exact_match_is_zero():
    truth = np.random.default_rng(1).standard_normal((4, 4))
    assert relative_mse(truth, truth) == 0.0


def test_relative_mse_one_percent_perturbation():
    # pred = 1.01 * truth gives exactly 0.01% relative MSE... no: the error
    # energy is (0.01)^2 of the truth energy, so 0.01 percent
    truth = np.random.default_rng(2).standard_normal((6, 3)) + 5
    val = relative_mse(1.01 * truth, truth)
    assert val == pytest.approx(0.01, rel=1e-10)


def test_relative_mse_orthogonal_error_energy():
    truth = np.array([1.0, 0.0])
    pred = np.array([1.0, 0.5])
    assert relative_mse(pred, truth) == pytest.approx(25.0)


def test_relative_mse_zero_truth_raises():
    with pytest.raises(ZeroVarianceError):
        relative_mse(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        relative_mse(np.ones(3), np.ones(4))


# ----------------------------------------------------------------- scaled MSE


def test_scaled_mse_known_values():
    truth = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
    pred = truth + np.array([[1.0, 0.0]] * 3)
    per_point, mean = scaled_mse(pred, truth)
    # point 0: mse 1, range 4 -> 1/16; point 1: constant truth, zero error
    assert per_point[0] == pytest.approx(1.0 / (16.0 + 1e-8))
    assert per_point[1] == pytest.approx(0.0)
    assert mean == pytest.approx(per_point.mean())


def test_scaled_mse_constant_truth_uses_floor():
    truth = np.full((4, 1), 2.0)
    pred = truth + 1e-3
    per_point, _ = scaled_mse(pred, truth)
    assert per_point[0] == pytest.approx(1e-6 / 1e-8)


def test_scaled_mse_scale_invariance_away_from_floor():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((20, 5))
    pred = truth + 0.1 * rng.standard_normal((20, 5))
    _, m1 = scaled_mse(pred, truth)
    _, m2 = scaled_mse(1e3 * pred, 1e3 * truth)
    assert m2 == pytest.approx(m1, rel=1e-6)


# ----------------------------------------------------------------------- CRPS


def test_crps_symmetric_pair_printed_form():
    # members {t + d, t - d}: term1 = d^2, pair spread term = d^2 -> 0
    ens = np.array([[1.5], [0.5]])
    truth = np.array([1.0])
    assert crps(ens, truth, form="printed") == pytest.approx(0.0, abs=1e-12)
    # abs form: term1 = d, spread term = d/2 -> d/2
    assert crps(ens, truth, form="abs") == pytest.approx(0.25)


def test_crps_degenerate_ensemble():
    # all members equal e: printed (e-t)^2, abs |e-t|
    ens = np.full((8, 3), 2.0)
    truth = np.full(3, 0.5)
    assert crps(ens, truth, form="printed") == pytest.approx(2.25)
    assert crps(ens, truth, form="abs") == pytest.approx(1.5)


def test_crps_printed_matches_brute_force():
    rng = np.random.default_rng(4)
    ens = rng.standard_normal((7, 5))
    truth = rng.standard_normal(5)
    got = crps(ens, truth, form="printed")
    n = 7
    t1 = np.mean((ens - truth[None]) ** 2, axis=0)
    t2 = np.zeros(5)
    for i in range(n):
        for j in range(n):
            t2 += (ens[i] - ens[j]) ** 2
    expected = np.mean(t1 - t2 / (2 * n * n))
    assert got == pytest.approx(expected, rel=1e-12)


def test_crps_abs_matches_brute_force():
    rng = np.random.default_rng(5)
    ens = rng.standard_normal((6, 4))
    truth = rng.standard_normal(4)
    got = crps(ens, truth, form="abs")
    n = 6
    t1 = np.mean(np.abs(ens - truth[None]), axis=0)
    t2 = np.zeros(4)
    for i in range(n):
        for j in range(n):
            t2 += np.abs(ens[i] - ens[j])
    expected = np.mean(t1 - t2 / (2 * n * n))
    assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12),
       st.floats(-50, 50))
def test_crps_abs_non_negative_property(members, truth):
    val = crps(np.array(members)[:, None], np.array([truth]), form="abs")
    assert val >= -1e-9


def test_crps_validates_input():
    with pytest.raises(ValueError):
        crps(np.zeros((1, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        crps(np.zeros((4, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        crps(np.zeros((4, 3)), np.zeros(3), form="nope")


def one_shot_crps(ensemble, truth, form):
    """CRPS with every element's terms in one pass: the reference the
    blocked crps must match bit for bit."""
    n = ensemble.shape[0]
    if form == "printed":
        term1 = np.mean((ensemble - truth[None]) ** 2, axis=0)
        s1 = ensemble.sum(axis=0)
        s2 = (ensemble ** 2).sum(axis=0)
        pair = 2.0 * n * s2 - 2.0 * s1 ** 2
    else:
        term1 = np.mean(np.abs(ensemble - truth[None]), axis=0)
        k = np.arange(n).reshape((n,) + (1,) * truth.ndim)
        pair = 2.0 * np.sum(np.sort(ensemble, axis=0) * (2 * k - n + 1), axis=0)
    return float(np.mean(term1 - pair / (2.0 * n * n)))


STEPS = BLOCK_ROWS // 16  # time steps in one block of a 16-member ensemble


@pytest.mark.parametrize("form", ["printed", "abs"])
@pytest.mark.parametrize("shape", [
    (), (1,), (5,), (STEPS + 1,), (2 * STEPS + 1,), (3 * STEPS + 7,),
    (5, 3), (2 * STEPS + 1, 1), (2 * STEPS + 1, 3), (3 * STEPS + 7, 4),
])
def test_crps_blocks_are_bit_identical_to_one_pass(form, shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    # unit spread about 1e6: the pair sums cancel to a few digits, so a sum
    # over the members in any other order changes the score
    ensemble = 1e6 + rng.standard_normal((16,) + shape)
    truth = np.asarray(1e6 + rng.standard_normal(shape))
    assert (crps(ensemble, truth, form=form).hex()
            == one_shot_crps(ensemble, truth, form).hex())


@pytest.mark.parametrize("n_t", [0, 1, 2, 3, 127, 128, 129, 130, 300])
@pytest.mark.parametrize("n", [2, 16, 64, BLOCK_ROWS + 1])
def test_time_blocks_cover_the_steps_with_no_lone_step(n_t, n):
    blocks = time_blocks(n_t, n)
    steps = [t for s in blocks for t in range(n_t)[s]]
    assert steps == list(range(n_t))
    assert all(s.stop - s.start >= 2 for s in blocks) or n_t == 1
    assert all(s.stop - s.start <= max(2, BLOCK_ROWS // n) + 1 for s in blocks)


# -------------------------------------------------------------------- Pearson


def test_pearson_perfect_and_inverted():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert pearson(x, 5 * x + 2) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_known_intermediate_value():
    x = np.array([-1.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 1.0])
    # cov terms: sum xc*yc = 1, |xc| = sqrt 2, |yc| = sqrt(2/3)
    assert pearson(x, y) == pytest.approx(np.sqrt(3) / 2)


def test_pearson_zero_variance_raises():
    with pytest.raises(ZeroVarianceError):
        pearson(np.ones(4), np.arange(4.0))
    with pytest.raises(ValueError):
        pearson(np.arange(3.0), np.arange(4.0))


def test_pearson_clipped_to_unit_interval():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert -1.0 <= pearson(x, y) <= 1.0


# --------------------------------------------------------------------- report


def test_metric_report_csv(tmp_path):
    write_param_csv(tmp_path / "metrics.csv", [ParamPoint.of(nu=0.9)],
                    relative_mse_percent=[1.5], crps_printed=[0.01], crps_abs=[0.02],
                    scaled_mse_mean=[0.003])
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "nu,relative_mse_percent,crps_printed,crps_abs,scaled_mse_mean"
    assert lines[1] == "0.9,1.5,0.01,0.02,0.003"
    with pytest.raises(ValueError):
        write_param_csv(tmp_path / "empty.csv", [], relative_mse_percent=[])
