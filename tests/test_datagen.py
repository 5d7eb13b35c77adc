import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from romuq.datagen import (VARIANCE_FLOOR, NormStats, ParamPoint, SolverError,
                           Trajectory, read_trajectory, solve_ks,
                           solve_hopf_surrogate, split_even_odd,
                           stuart_landau, write_trajectory)


def make_traj(states, dt=0.1, **params):
    return Trajectory(states=np.asarray(states, dtype=float), dt=dt, length=1.0,
                      param=ParamPoint.of(**params))


# ---------------------------------------------------------------- KS solver


def test_ks_zero_init_stays_zero():
    traj = solve_ks(1.0, n_x=32, n_t=50, init=np.zeros(32))
    np.testing.assert_array_equal(traj.states, 0.0)


def test_ks_single_mode_linear_growth_rate():
    # amplitude small enough that the nonlinear term is negligible; the
    # measured exponential rate must match k^2 - nu k^4 within 2%.
    n_x, length, nu = 64, 22.0, 1.0
    x = length * np.arange(n_x) / n_x
    for m in (1, 2):
        k = 2 * np.pi * m / length
        rate_expected = k ** 2 - nu * k ** 4
        init = 1e-6 * np.cos(k * x)
        traj = solve_ks(nu, n_x=n_x, domain_length=length, dt=0.01, n_t=201,
                        init=init)
        amps = np.abs(np.fft.fft(traj.states, axis=1)[:, m])
        rate = np.log(amps[-1] / amps[0]) / (0.01 * 200)
        assert abs(rate - rate_expected) < 0.02 * abs(rate_expected)


def test_ks_chaotic_regime_stays_bounded():
    traj = solve_ks(1.0, n_x=64, domain_length=22.0, dt=0.05, n_t=2000, seed=1)
    tail = traj.states[500:]
    assert 0 < np.max(np.abs(tail)) < 10.0
    # cross-check against a low-dt reference run of the same solver
    ref = solve_ks(1.0, n_x=64, domain_length=22.0, dt=0.0125, n_t=8000, seed=1)
    assert 0 < np.max(np.abs(ref.states[2000:])) < 10.0


def test_ks_dt_halving_convergence():
    # stable (single unstable mode) regime reaches a smooth attractor where
    # 4th-order convergence makes dt halving nearly invisible
    kwargs = dict(nu=4.0, n_x=64, domain_length=22.0, seed=2)
    a = solve_ks(dt=0.05, n_t=401, **kwargs)
    b = solve_ks(dt=0.025, n_t=801, **kwargs)
    rms = np.sqrt(np.mean((a.states[-1] - b.states[-1]) ** 2))
    assert rms < 1e-5


def test_ks_requires_power_of_two_grid():
    with pytest.raises(ValueError):
        solve_ks(1.0, n_x=48)


@pytest.mark.parametrize("size, match", [
    (dict(n_x=0), "n_x must be a power of two >= 2, got 0"),
    (dict(n_x=1), "n_x must be a power of two >= 2, got 1"),
    (dict(n_t=0), "n_t must be >= 2, got 0"),
    (dict(n_t=1), "n_t must be >= 2, got 1"),
    (dict(n_t=-3), "n_t must be >= 2, got -3"),
])
def test_ks_refuses_grids_below_two_points(size, match):
    # 0 and 1 pass the power-of-two test; none may reach the integrator
    with pytest.raises(ValueError, match=match):
        solve_ks(1.0, **{"n_x": 16, "n_t": 10, **size})


def test_ks_blow_up_reports_step():
    x = 22.0 * np.arange(32) / 32
    with pytest.raises(SolverError) as err:
        solve_ks(1e-4, n_x=32, domain_length=22.0, dt=1.0, n_t=100,
                 init=1e5 * np.sin(2 * np.pi * x / 22.0))
    assert err.value.step >= 1


# ------------------------------------------------------------ Hopf surrogate


def test_hopf_pre_bifurcation_decays():
    amps = stuart_landau(-0.5, 1.0, 0.05, 600, 0.1)
    assert abs(amps[-1]) < 1e-4


def test_hopf_limit_cycle_amplitude_matches_sqrt_mu():
    for mu in (0.25, 0.5, 1.0):
        amps = stuart_landau(mu, 1.0, 0.05, 2000, 0.1)
        assert abs(abs(amps[-1]) - np.sqrt(mu)) < 0.01 * np.sqrt(mu)


def test_hopf_critical_mu_algebraic_decay():
    dt, n_t, a0 = 0.01, 1000, 0.1
    amps = np.abs(stuart_landau(0.0, 1.0, dt, n_t, a0))
    t = dt * np.arange(n_t)
    closed_form = np.sqrt(1.0 / (2 * t + 1.0 / a0 ** 2))
    np.testing.assert_allclose(amps, closed_form, rtol=1e-6)
    assert np.all(np.diff(amps) <= 1e-12)


def test_hopf_limit_cycle_energy_plateau():
    from romuq.datagen import hopf_mode_shapes

    traj = solve_hopf_surrogate(0.5, n_t=3000)
    _, _, base = hopf_mode_shapes(traj.n_xy)
    fluct = traj.states - base[None, :]
    energy = np.mean(fluct ** 2, axis=1)
    plateau = energy[2000:]
    assert np.max(plateau) - np.min(plateau) < 0.01 * np.mean(plateau) + 1e-12


def test_hopf_rejects_nonpositive_init():
    with pytest.raises(ValueError):
        solve_hopf_surrogate(0.5, init_amplitude=0.0)


@pytest.mark.parametrize("n_t", [1, 0, -3])
def test_hopf_refuses_fewer_than_two_steps(n_t):
    with pytest.raises(ValueError, match=f"n_t must be >= 2, got {n_t}"):
        stuart_landau(0.5, 1.0, 0.05, n_t, 0.1)
    with pytest.raises(ValueError, match=f"n_t must be >= 2, got {n_t}"):
        solve_hopf_surrogate(0.5, n_x=8, n_t=n_t)


# ----------------------------------------------------------------- splitting


def test_split_even_odd_indices():
    traj = make_traj(np.arange(6)[:, None] * np.ones((6, 3)), dt=0.1, mu=1.0)
    train, test = split_even_odd(traj)
    np.testing.assert_array_equal(train.states[:, 0], [0, 2, 4])
    np.testing.assert_array_equal(test.states[:, 0], [1, 3, 5])
    assert train.dt == test.dt == pytest.approx(0.2)
    assert train.param == traj.param


def test_split_partition_reconstructs_input():
    rng = np.random.default_rng(0)
    traj = make_traj(rng.standard_normal((10, 4)), mu=0.5)
    train, test = split_even_odd(traj)
    rebuilt = np.empty_like(traj.states)
    rebuilt[0::2] = train.states
    rebuilt[1::2] = test.states
    np.testing.assert_array_equal(rebuilt, traj.states)


def test_split_paper_scale_counts():
    traj = make_traj(np.zeros((3033, 2)) + np.arange(2), mu=0.0)
    train, test = split_even_odd(traj)
    assert train.n_t == 1517
    assert test.n_t == 1516


def test_split_requires_four_snapshots():
    with pytest.raises(ValueError):
        split_even_odd(make_traj(np.ones((3, 2)), mu=0.0))


# ------------------------------------------------------------- normalisation


def test_normalize_constant_feature_flagged_and_zeroed():
    traj = make_traj(np.full((8, 3), 2.5), mu=0.0)
    stats = NormStats.fit([traj])
    np.testing.assert_allclose(stats.forward(traj.states), 0.0)
    np.testing.assert_array_equal(stats.std, np.sqrt(VARIANCE_FLOOR))


def test_normalize_standardised_data_stats():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((5000, 4))
    data = (data - data.mean(axis=0)) / data.std(axis=0)
    stats = NormStats.fit([make_traj(data, mu=0.0)])
    np.testing.assert_allclose(stats.mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(stats.std, 1.0, atol=1e-12)


def test_normalize_round_trip():
    rng = np.random.default_rng(2)
    traj = make_traj(rng.standard_normal((50, 6)) * 3 + 1, mu=0.0)
    stats = NormStats.fit([traj])
    back = stats.inverse(stats.forward(traj.states))
    assert np.max(np.abs(back - traj.states)) < 1e-10


def test_norm_stats_dict_round_trip():
    stats = NormStats.fit([make_traj(np.random.default_rng(3).standard_normal((9, 3)), mu=0.0)])
    again = NormStats.from_dict(stats.to_dict())
    np.testing.assert_array_equal(stats.mean, again.mean)
    np.testing.assert_array_equal(stats.std, again.std)


# ------------------------------------------------------------------- file IO


def test_trajectory_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    traj = make_traj(rng.standard_normal((12, 5)).astype(np.float32), dt=0.25,
                     mu=0.5, omega=1.5)
    path = tmp_path / "traj.updr"
    write_trajectory(path, traj)
    again = read_trajectory(path)
    assert again.n_t == 12 and again.n_xy == 5
    assert again.dt == 0.25
    assert again.param.as_dict() == {"mu": 0.5, "omega": 1.5}
    np.testing.assert_array_equal(again.states, traj.states)  # f32 payload


def test_trajectory_file_bytes_deterministic(tmp_path):
    traj = solve_hopf_surrogate(0.3, n_t=20, n_x=8)
    write_trajectory(tmp_path / "a.updr", traj)
    write_trajectory(tmp_path / "b.updr", traj)
    assert (tmp_path / "a.updr").read_bytes() == (tmp_path / "b.updr").read_bytes()
    assert (tmp_path / "a.updr").read_bytes()[:4] == b"UPDR"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(lambda n_t: st.integers(1, 5).flatmap(
           lambda n_xy: hnp.arrays(np.float32, (n_t, n_xy),
                                   elements=st.floats(width=32, allow_nan=False,
                                                      allow_infinity=False)))),
       st.dictionaries(st.text(max_size=6), st.floats(allow_nan=False, allow_infinity=False),
                       max_size=3),
       st.floats(min_value=0, exclude_min=True, allow_infinity=False),
       st.floats(min_value=0, exclude_min=True, allow_infinity=False))
def test_trajectory_file_round_trip_is_exact(tmp_path_factory, states, params, dt, length):
    traj = Trajectory(states=states.astype(float), dt=dt, length=length,
                      param=ParamPoint.of(**params))
    path = tmp_path_factory.mktemp("rt") / "traj.updr"
    write_trajectory(path, traj)
    raw = path.read_bytes()
    again = read_trajectory(path)
    assert again.states.tobytes() == traj.states.tobytes()  # keeps -0.0 apart
    assert (again.dt, again.length, again.param) == (traj.dt, traj.length, traj.param)
    write_trajectory(path, again)
    assert path.read_bytes() == raw


def test_trajectory_file_bad_magic(tmp_path):
    path = tmp_path / "bad.updr"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="bad magic") as err:
        read_trajectory(path)
    assert str(path) in str(err.value)


def test_trajectory_file_truncated_payload_names_path(tmp_path):
    path = tmp_path / "short.updr"
    write_trajectory(path, make_traj(np.ones((2, 3)), mu=0.5, omega=1.0))
    raw = path.read_bytes()
    for cut in range(len(raw)):  # every strict prefix: header, names, values, payload
        path.write_bytes(raw[:cut])
        # anchored: the test's tmp_path holds the word "truncated" too
        with pytest.raises(ValueError, match="^truncated trajectory file") as err:
            read_trajectory(path)
        assert str(path) in str(err.value)


def test_trajectory_file_huge_count_fields_raise_before_reading(tmp_path):
    path = tmp_path / "huge.updr"
    write_trajectory(path, solve_hopf_surrogate(0.3, n_t=20, n_x=8))
    raw = bytearray(path.read_bytes())
    raw[8:16] = (2 ** 62).to_bytes(8, "little")  # n_t field of the header
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated") as err:
        read_trajectory(path)
    assert str(path) in str(err.value)


def test_trajectory_file_trailing_bytes_names_path(tmp_path):
    path = tmp_path / "long.updr"
    write_trajectory(path, solve_hopf_surrogate(0.3, n_t=20, n_x=8))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes") as err:
        read_trajectory(path)
    assert str(path) in str(err.value)


SIGNALLING_NAN = b"\x01\x00\x80\x7f"  # float32 0x7f800001, little-endian


def test_trajectory_file_non_finite_payload_names_path(tmp_path):
    path = tmp_path / "nan.updr"
    write_trajectory(path, solve_hopf_surrogate(0.3, n_t=20, n_x=8))
    raw = path.read_bytes()  # the last state sits before the 4-byte CRC
    path.write_bytes(raw[:-8] + SIGNALLING_NAN + raw[-4:])
    with pytest.raises(ValueError, match="non-finite") as err:
        read_trajectory(path)
    assert str(path) in str(err.value)


def test_trajectory_grid_width_is_the_payload_width(tmp_path):
    # width and length come from the .updr alone: a sidecar that contradicts
    # them, is not JSON or is missing changes nothing
    path = tmp_path / "wide.updr"
    write_trajectory(path, Trajectory(states=np.ones((4, 16)), dt=0.1, length=22.0,
                                      param=ParamPoint.of(mu=0.0)))
    sidecar = path.with_suffix(".updr.meta.json")
    meta = json.loads(sidecar.read_text())
    assert meta["grid"] == {"length": 22.0, "n_points": 16}
    meta["grid"] = {"length": 1.0, "n_points": 3}
    for text in (json.dumps(meta), "{", None):
        if text is None:
            sidecar.unlink()
        else:
            sidecar.write_text(text)
        again = read_trajectory(path)
        assert again.n_xy == 16 and (again.dt, again.length) == (0.1, 22.0)
        assert again.param == ParamPoint.of(mu=0.0)
        np.testing.assert_array_equal(again.states, 1.0)


@pytest.mark.parametrize("field", ["dt", "length"])
@pytest.mark.parametrize("value", [0.0, -0.05, float("nan"), float("inf")])
def test_trajectory_refuses_a_step_or_length_not_finite_and_positive(field, value):
    kwargs = dict(states=np.ones((2, 3)), dt=0.1, length=1.0)
    Trajectory(**kwargs)
    with pytest.raises(ValueError, match="must be finite and positive"):
        Trajectory(**{**kwargs, field: value})


def test_trajectory_file_refuses_every_changed_byte(tmp_path):
    # 0x00, 0xFF and a one-bit flip at every byte of header, parameters,
    # payload and checksum: each changed file is refused, none loads
    path = tmp_path / "small.updr"
    write_trajectory(path, solve_hopf_surrogate(0.3, n_t=6, n_x=4))
    good = path.read_bytes()
    read_trajectory(path)
    refused = 0
    for i, byte in enumerate(good):
        for changed in sorted({0x00, 0xFF, byte ^ 1 << i % 8} - {byte}):
            path.write_bytes(good[:i] + bytes([changed]) + good[i + 1:])
            with pytest.raises(ValueError) as err:
                read_trajectory(path)
            assert str(path) in str(err.value)
            refused += 1
    assert refused > 2 * len(good)
