import numpy as np
import pytest

from romuq import tensor as T
from romuq.optim import Adam
from romuq.tensor import Tape, Tensor, backward
from romuq.transformer import (LatentTransformer, RolloutDivergence,
                               TransformerConfig, rollout, sinusoidal_encoding)


def make_model(seed=0, lookback=6, horizon=3, latent_dim=2, width=16, heads=2,
               blocks=1, param_dim=1):
    cfg = TransformerConfig(lookback=lookback, horizon=horizon,
                            latent_dim=latent_dim, width=width, heads=heads,
                            blocks=blocks, param_dim=param_dim)
    return LatentTransformer(cfg, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(lookback=4, horizon=4, latent_dim=2, width=10, heads=4)
    with pytest.raises(ValueError):
        TransformerConfig(lookback=0, horizon=4, latent_dim=2)


def test_block_causality():
    model = make_model(lookback=6)
    block = model.blocks[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 6, 16))
    xi_tokens = Tensor(rng.standard_normal((1, 1, 16)))
    base = block(Tensor(x), xi_tokens).data
    for j in range(1, 6):
        xp = x.copy()
        xp[0, j] += 1.0
        out = block(Tensor(xp), xi_tokens).data
        # positions strictly before the perturbed token are unchanged
        np.testing.assert_array_equal(out[0, :j], base[0, :j])
        assert np.max(np.abs(out[0, j:] - base[0, j:])) > 0


def test_block_refuses_window_other_than_lookback():
    model = make_model(lookback=6)
    xi_tokens = Tensor(np.zeros((1, 1, 16)))
    for length in (1, 5, 7):
        with pytest.raises(T.ShapeError, match="attention_block"):
            model.blocks[0](Tensor(np.zeros((1, length, 16))), xi_tokens)


def test_block_zero_value_projection_reduces_to_feedforward_path():
    model = make_model(heads=1)
    block = model.blocks[0]
    for proj in (block.wv, block.cv):
        proj[0].data[:] = 0.0
        proj[1].data[:] = 0.0
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 6, 16)))
    xi_tokens = Tensor(rng.standard_normal((1, 1, 16)))
    out = block(x, xi_tokens).data

    # with both value paths zeroed the output projections see zero context,
    # so only their biases enter the residual stream
    def bias_tok(proj):
        return Tensor(np.broadcast_to(proj[1].data, (1, 6, 16)).copy())

    h = block._ln(T.add(x, bias_tok(block.wo)), block.ln1)
    h = block._ln(T.add(h, bias_tok(block.co)), block.ln2)
    ff = T.add(T.matmul(T.gelu(T.add(T.matmul(h, block.ff1[0]), block.ff1[1])),
                        block.ff2[0]), block.ff2[1])
    expected = block._ln(T.add(h, ff), block.ln3).data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_forecast_shape_and_determinism():
    model = make_model()
    window = np.random.default_rng(5).standard_normal((6, 2))
    a = model.forecast(window, np.array([0.5])).data
    b = model.forecast(window, np.array([0.5])).data
    assert a.shape == (1, 3, 2)
    assert a.tobytes() == b.tobytes()


def test_forecast_wrong_window_length():
    model = make_model()
    with pytest.raises(T.ShapeError):
        model.forecast(np.zeros((5, 2)), np.array([0.0]))


def test_forecast_positional_sensitivity():
    model = make_model()
    rng = np.random.default_rng(6)
    window = rng.standard_normal((6, 2))
    shuffled = window[::-1].copy()
    a = model.forecast(window, np.array([0.0])).data
    b = model.forecast(shuffled, np.array([0.0])).data
    assert np.max(np.abs(a - b)) > 1e-8


def test_xi_pathway_zeroed_makes_output_xi_invariant():
    model = make_model()
    model.xi_proj[0].data[:] = 0.0
    model.xi_proj[1].data[:] = 0.0
    window = np.random.default_rng(7).standard_normal((6, 2))
    a = model.forecast(window, np.array([0.0])).data
    b = model.forecast(window, np.array([123.0])).data
    np.testing.assert_array_equal(a, b)


def test_xi_conditioning_changes_output():
    model = make_model()
    window = np.random.default_rng(8).standard_normal((6, 2))
    a = model.forecast(window, np.array([0.0])).data
    b = model.forecast(window, np.array([1.0])).data
    assert np.max(np.abs(a - b)) > 1e-8


def test_rollout_h1_first_step_matches_forecast():
    model = make_model(horizon=1)
    window = np.random.default_rng(9).standard_normal((6, 2))
    xi = np.array([0.3])
    single = model.forecast(window, xi).data[0, 0]
    rolled = rollout(model, window, xi, steps=1)
    np.testing.assert_array_equal(rolled[0], single)


def test_rollout_validates_args():
    model = make_model()
    with pytest.raises(ValueError):
        rollout(model, np.zeros((6, 2)), np.array([0.0]), steps=0)
    with pytest.raises(T.ShapeError):
        rollout(model, np.zeros((5, 2)), np.array([0.0]), steps=3)


def test_rollout_divergence_guard():
    model = make_model()
    model.out_head[1].data[:] = 1e7
    with pytest.raises(RolloutDivergence) as err:
        rollout(model, np.zeros((6, 2)), np.array([0.0]), steps=5)
    assert err.value.step == 0


def test_rollout_non_finite_forecast_raises_divergence_from_the_tape():
    model = make_model()
    model.in_proj[0].data[:] = 1e300
    with pytest.raises(RolloutDivergence) as err:
        rollout(model, np.ones((6, 2)), np.array([0.0]), steps=5)
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, T.NonFiniteError)
    assert err.value.__cause__.op in str(err.value)


def test_forward_count_probe():
    model = make_model()
    window = np.zeros((6, 2))
    before = model.forward_count
    model.forecast(window, np.array([0.0]))
    rollout(model, window, np.array([0.0]), steps=4)
    assert model.forward_count == before + 5


def test_sinusoidal_encoding_shape_and_range():
    enc = sinusoidal_encoding(10, 16)
    assert enc.shape == (10, 16)
    assert np.max(np.abs(enc)) <= 1.0
    assert np.max(np.abs(enc[1] - enc[0])) > 0


def test_constant_latent_training_learns_identity_dynamics():
    # tiny supervised run on constant latent windows; the learned map must
    # forecast (and roll out) the constant within tight tolerance
    model = make_model(seed=1, lookback=4, horizon=2, latent_dim=2, width=16,
                       heads=2)
    const = np.array([0.4, -0.7])
    window = np.tile(const, (4, 1))
    target = Tensor(np.tile(const, (1, 2, 1)).reshape(1, 2, 2))
    xi = np.array([0.0])
    opt = Adam(model.parameters(), lr=3e-3)
    for _ in range(300):
        opt.zero_grad()
        with Tape() as tape:
            loss = T.mse(model.forecast(window[None], xi), target)
            backward(tape, loss)
        opt.step()
    pred = model.forecast(window[None], xi).data[0]
    assert np.max(np.abs(pred - const)) < 1e-3
    rolled = rollout(model, window, xi, steps=100)
    assert np.max(np.abs(rolled - const)) < 1e-2
