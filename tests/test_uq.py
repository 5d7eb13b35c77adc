import tracemalloc

import numpy as np
import pytest

from romuq.datagen import NormStats, ParamPoint, Trajectory
from romuq.metrics import BLOCK_ROWS, crps, time_blocks, write_param_csv
from romuq.training import ModelCheckpoint, TrainConfig, train
from romuq.transformer import LatentTransformer, TransformerConfig
from romuq.uq import ensemble_noise, member_noise, second_pass, write_uq_csvs
from romuq.vae import Vae, VaeConfig
from romuq.training import LossWeights


def make_checkpoint(seed=0, state_dim=8, latent_dim=2, hidden=(12,)):
    cfg = TrainConfig(
        vae=VaeConfig(state_dim=state_dim, latent_dim=latent_dim, hidden=hidden,
                      param_dim=1, embed_dim=3),
        transformer=TransformerConfig(lookback=3, horizon=3,
                                      latent_dim=latent_dim, width=8, heads=2,
                                      blocks=1, param_dim=1),
        loss=LossWeights(), epochs=1, batch_size=8, lr=1e-3)
    rng = np.random.default_rng(seed)
    vae = Vae(cfg.vae, rng)
    tf = LatentTransformer(cfg.transformer, rng)
    stats = NormStats(mean=np.zeros(state_dim), std=np.ones(state_dim))
    return ModelCheckpoint(vae=vae, transformer=tf, config=cfg, stats=stats,
                           seed=seed, data={"dt": 0.2, "length": 1.0, "names": ["mu"]})


XI = ParamPoint.of(mu=0.4)


def materialise(ensemble):
    """The lazy ensemble as one (n, n_t, n_xy) array, block by block."""
    n, n_t, _ = ensemble.shape
    return np.concatenate([ensemble.block(s) for s in time_blocks(n_t, n)], axis=1)


# -------------------------------------------------------------- noise streams


def test_member_noise_is_reproducible_and_stream_separated():
    a = member_noise(7, 3, 11, 5)
    b = member_noise(7, 3, 11, 5)
    assert a.tobytes() == b.tobytes()
    assert member_noise(7, 4, 11, 5).tobytes() != a.tobytes()
    assert member_noise(7, 3, 12, 5).tobytes() != a.tobytes()
    assert member_noise(8, 3, 11, 5).tobytes() != a.tobytes()


def test_ensemble_noise_matches_member_streams():
    noise = ensemble_noise(1, 3, 4, 2)
    assert noise.shape == (3, 4, 2)
    np.testing.assert_array_equal(noise[2, 3], member_noise(1, 2, 3, 2))


def reference_row(seed, member, t, dim):
    """Row t of the documented (seed, member) stream, built without
    member_noise and drawn in one call."""
    ss = np.random.SeedSequence((seed, member))
    return np.random.Generator(np.random.PCG64(ss)).standard_normal((t + 1) * dim)[t * dim:]


def reference_noise(seed, n, n_t, dim):
    return np.array([[reference_row(seed, i, t, dim) for t in range(n_t)]
                     for i in range(n)]).reshape(n, n_t, dim)


def test_ensemble_noise_reuse_is_bit_identical_across_call_sequences():
    # grow n, grow n_t, shrink both, switch seed, switch dim, then go back:
    # rows come from the memo or fresh streams, values never differ
    calls = [(3, 2, 4, 2), (3, 5, 4, 2), (3, 5, 7, 2), (3, 2, 3, 2),
             (4, 5, 7, 2), (3, 5, 7, 3), (3, 5, 7, 2), (3, 0, 7, 2),
             (3, 5, 7, 2)]
    for seed, n, n_t, dim in calls:
        noise = ensemble_noise(seed, n, n_t, dim)
        assert noise.shape == (n, n_t, dim)
        assert noise.tobytes() == reference_noise(seed, n, n_t, dim).tobytes()
        # rows inside and just outside the last ensemble
        for i, t in ((0, 0), (n - 1, n_t - 1), (n, 0), (0, n_t)):
            if i >= 0:
                assert (member_noise(seed, i, t, dim).tobytes()
                        == reference_row(seed, i, t, dim).tobytes())


def test_ensemble_noise_seeds_one_stream_per_member(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda entropy: built.append(entropy) or seed_sequence(entropy))
    noise = ensemble_noise(21, 5, 40, 3)
    assert built == [(21, i) for i in range(5)]
    assert noise.tobytes() == reference_noise(21, 5, 40, 3).tobytes()


def test_member_rows_do_not_depend_on_the_read_order():
    in_order = ensemble_noise(22, 2, 37, 3)
    # the memo holds member 1, so member 0's stream starts again at its last row
    backwards = [member_noise(22, 0, t, 3) for t in reversed(range(37))][::-1]
    assert np.array(backwards).tobytes() == in_order[0].tobytes()
    interleaved = np.array([[member_noise(22, i, t, 3) for i in (0, 1)] for t in range(37)])
    assert interleaved.transpose(1, 0, 2).tobytes() == in_order.tobytes()


def test_ensemble_noise_is_read_only_and_rows_are_fresh_copies():
    noise = ensemble_noise(5, 2, 3, 4)
    with pytest.raises(ValueError):
        noise[0, 0, 0] = 1.0
    row = member_noise(5, 1, 2, 4)
    row[:] = 0.0  # a served row is the caller's own array
    assert ensemble_noise(5, 2, 3, 4).tobytes() == reference_noise(5, 2, 3, 4).tobytes()


def test_member_noise_rejects_negative_indices_after_a_kept_draw():
    ensemble_noise(6, 3, 3, 2)  # the memo holds member 2's rows
    for member, t in ((-1, 0), (0, -1), (2, -1)):
        with pytest.raises(ValueError, match="member and step must be >= 0"):
            member_noise(6, member, t, 2)


# ---------------------------------------------------------------- second_pass


def test_degenerate_encoder_gives_zero_uncertainty():
    ckpt = make_checkpoint()
    # force sigma -> 0 everywhere: zero weights, strongly negative bias
    ckpt.vae.lv_head[0].data[:] = 0.0
    ckpt.vae.lv_head[1].data[:] = -80.0
    states = np.random.default_rng(2).standard_normal((6, 8))
    nu, lazy = second_pass(states, ckpt, XI, n=16, seed=0)
    ensemble = materialise(lazy)
    np.testing.assert_allclose(nu, 0.0, atol=1e-12)
    # every member decodes the same latent mean
    assert np.max(np.abs(ensemble - ensemble[0][None])) < 1e-12


def test_second_pass_matches_direct_monte_carlo_recompute():
    ckpt = make_checkpoint(seed=3)
    states = np.random.default_rng(4).standard_normal((5, 8))
    n, seed = 12, 9
    nu, ensemble = second_pass(states, ckpt, XI, n=n, seed=seed)
    assert ensemble.shape == (n, 5, 8)

    # independent recompute: same noise streams, member-by-member decode,
    # two-pass population variance
    dist = ckpt.vae.encode(ckpt.stats.forward(states), XI)
    mu, sigma = dist.mu.data, dist.sigma()
    members = np.empty((n, 5, 8))
    for i in range(n):
        for t in range(5):
            z = mu[t] + sigma[t] * member_noise(seed, i, t, 2)
            members[i, t] = ckpt.stats.inverse(
                ckpt.vae.decode(z[None], XI).data[0])
    np.testing.assert_allclose(materialise(ensemble), members, atol=1e-12)
    mean = members.mean(axis=0)
    var = np.mean((members - mean[None]) ** 2, axis=0)
    np.testing.assert_allclose(nu, np.sqrt(var), atol=1e-12)


def test_second_pass_deterministic_and_transformer_free():
    ckpt = make_checkpoint(seed=5)
    states = np.random.default_rng(6).standard_normal((4, 8))
    before = ckpt.transformer.forward_count
    f1, e1 = second_pass(states, ckpt, XI, n=8, seed=1)
    f2, e2 = second_pass(states, ckpt, XI, n=8, seed=1)
    assert ckpt.transformer.forward_count == before
    assert f1.tobytes() == f2.tobytes()
    assert materialise(e1).tobytes() == materialise(e2).tobytes()


def test_second_pass_seed_changes_ensemble():
    ckpt = make_checkpoint(seed=5)
    states = np.random.default_rng(6).standard_normal((4, 8))
    f1, _ = second_pass(states, ckpt, XI, n=8, seed=1)
    f2, _ = second_pass(states, ckpt, XI, n=8, seed=2)
    assert f1.tobytes() != f2.tobytes()


def test_second_pass_spread_shrinks_with_ensemble_size():
    # the across-seed scatter of nu_xi decreases as n grows
    ckpt = make_checkpoint(seed=7)
    states = np.random.default_rng(8).standard_normal((4, 8))

    def scatter(n):
        vals = [second_pass(states, ckpt, XI, n=n, seed=s)[0].mean()
                for s in range(6)]
        return np.std(vals)

    assert scatter(256) < scatter(8)


def test_second_pass_rejects_tiny_ensemble():
    ckpt = make_checkpoint()
    with pytest.raises(ValueError):
        second_pass(np.zeros((3, 8)), ckpt, XI, n=1)


# ------------------------------------------------- second_pass in time blocks


def one_shot_second_pass(states, ckpt, n, seed):
    """The second pass as one decode over all n * n_t rows: the reference
    the blocked second_pass must match bit for bit."""
    n_t, n_xy = states.shape
    z_dim = ckpt.config.vae.latent_dim
    dist = ckpt.vae.encode(ckpt.stats.forward(states), XI)
    z = dist.mu.data[None] + dist.sigma()[None] * ensemble_noise(seed, n, n_t, z_dim)
    decoded = ckpt.vae.decode(z.reshape(n * n_t, z_dim), XI).data
    ensemble = ckpt.stats.inverse(decoded).reshape(n, n_t, n_xy)
    mean = ensemble.mean(axis=0)
    return np.sqrt(np.mean((ensemble - mean[None]) ** 2, axis=0)), ensemble


STEPS = BLOCK_ROWS // 8  # time steps in one block of an 8-member ensemble


LAYOUTS = pytest.mark.parametrize("n,n_t,blocks,wide", [
    (8, 5, 1, False),                 # below one block
    (8, STEPS, 1, False),             # exactly one block
    (8, 2 * STEPS + 37, 3, False),    # several blocks and a remainder
    (8, 2 * STEPS + 1, 2, False),     # a one-step remainder joins the last block
    (4 * BLOCK_ROWS + 3, 5, 2, False),  # n above the row budget: two steps a block
    (64, 3 * BLOCK_ROWS // 64 + 5, 4, True),  # ks_cli's model widths
])


def layout(n_t, wide):
    ckpt = (make_checkpoint(seed=11, state_dim=64, latent_dim=8, hidden=(128,))
            if wide else make_checkpoint(seed=11))
    states = np.random.default_rng(12).standard_normal((n_t, ckpt.config.vae.state_dim))
    return ckpt, states


@LAYOUTS
def test_second_pass_blocks_are_bit_identical_to_one_decode(monkeypatch, n, n_t,
                                                            blocks, wide):
    ckpt, states = layout(n_t, wide)
    ref_nu, ref = one_shot_second_pass(states, ckpt, n, 4)
    decode, rows = ckpt.vae.decode, []
    monkeypatch.setattr(ckpt.vae, "decode", lambda z, xi: rows.append(len(z)) or decode(z, xi))
    nu, ensemble = second_pass(states, ckpt, XI, n=n, seed=4)
    assert len(rows) == blocks and sum(rows) == n * n_t
    assert nu.tobytes() == ref_nu.tobytes()
    # the lazy ensemble decodes the same rows again, each time with the same bits
    assert ensemble.shape == ref.shape
    first, again = materialise(ensemble), materialise(ensemble)
    assert first.tobytes() == again.tobytes() == ref.tobytes()
    assert len(rows) == 3 * blocks and sum(rows) == 3 * n * n_t


@LAYOUTS
def test_crps_of_the_lazy_ensemble_is_that_of_its_array(n, n_t, blocks, wide):
    ckpt, states = layout(n_t, wide)
    _, ensemble = second_pass(states, ckpt, XI, n=n, seed=4)
    truth = np.random.default_rng(13).standard_normal(states.shape)
    for form in ("printed", "abs"):
        assert (crps(ensemble, truth, form=form).hex()
                == crps(materialise(ensemble), truth, form=form).hex())


def test_later_noise_draws_leave_an_earlier_ensemble_unchanged():
    ckpt, states = layout(2 * STEPS + 37, False)
    _, ensemble = second_pass(states, ckpt, XI, n=8, seed=4)
    before = materialise(ensemble).tobytes()
    ensemble_noise(5, 8, len(states), 2)  # another seed
    ensemble_noise(4, 8, len(states), 3)  # another dim
    assert materialise(ensemble).tobytes() == before
    with pytest.raises(ValueError, match="time blocks"):
        ensemble.block(slice(0, 1))  # a one-step decode would take other bits


def test_second_pass_and_crps_hold_the_noise_plus_a_bounded_block():
    # 16 members x 1,024 steps: the decoded ensemble is 2 MB, and one decode
    # of all 16,384 rows makes 8 MB hidden temporaries, 32x those of a
    # 512-row block; neither is ever held. The noise (256 kB) is drawn inside
    # the trace, one member's stream at a time
    n, n_t = 16, 1024
    ckpt = make_checkpoint(seed=13, state_dim=16, hidden=(64,))
    states = np.random.default_rng(14).standard_normal((n_t, 16))
    tracemalloc.start()
    try:
        _, ensemble = second_pass(states, ckpt, XI, n=n, seed=0)
        for form in ("printed", "abs"):
            crps(ensemble, states, form=form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_uq_field_csv_holds_one_time_step_of_floats(tmp_path):
    # a (990, 64) field as 63,360 Python floats in nested lists is about
    # 2 MB; formatted one step at a time it stays under an eighth of that
    nu = np.random.default_rng(15).random((990, 64))
    tracemalloc.start()
    try:
        write_uq_csvs(tmp_path, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, peak
    rows = (tmp_path / "uq_field.csv").read_text().splitlines()
    assert len(rows) == 1 + nu.size and rows[-1] == f"989,63,{float(nu[-1, -1])!r}"


# --------------------------------------------------------------- aggregations


def test_aggregations_on_known_field(tmp_path):
    # nu_t.csv holds the spatial mean of nu at every step
    nu = np.array([[1.0, 3.0], [2.0, 2.0], [0.0, 4.0]])
    write_uq_csvs(tmp_path, nu)
    header, *rows = (tmp_path / "nu_t.csv").read_text().splitlines()
    assert header == "t,nu_t" and rows == ["0,2.0", "1,2.0", "2,2.0"]


# ------------------------------------------------------------------ CSV files


def test_uq_csvs_deterministic_and_well_formed(tmp_path):
    nu = np.array([[0.5, 1.5], [2.5, 3.5]])
    write_uq_csvs(tmp_path / "a", nu)
    write_uq_csvs(tmp_path / "b", nu)
    a = (tmp_path / "a/uq_field.csv").read_bytes()
    assert a == (tmp_path / "b/uq_field.csv").read_bytes()
    lines = a.decode().strip().split("\n")
    assert lines[0] == "t,d,nu"
    assert len(lines) == 1 + 4
    assert lines[1] == "0,0,0.5"
    nu_t = (tmp_path / "a/nu_t.csv").read_text().strip().split("\n")
    assert nu_t[0] == "t,nu_t"
    assert nu_t[1] == "0,1.0"


def test_nu_xi_csv(tmp_path):
    write_param_csv(tmp_path / "nu_xi.csv", [ParamPoint.of(mu=0.1), ParamPoint.of(mu=0.2)],
                    nu_xi=[0.25, 0.5])
    lines = (tmp_path / "nu_xi.csv").read_text().strip().split("\n")
    assert lines[0] == "mu,nu_xi"
    assert lines[1] == "0.1,0.25"
