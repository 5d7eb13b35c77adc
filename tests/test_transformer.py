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


def test_block_refuses_more_than_one_parameter_token():
    model = make_model(lookback=6)
    with pytest.raises(T.ShapeError, match="attention_block"):
        model.blocks[0](Tensor(np.zeros((1, 6, 16))), Tensor(np.zeros((1, 2, 16))))


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

    h = T.layer_norm(T.add(x, bias_tok(block.wo)), *block.ln1)
    h = T.layer_norm(T.add(h, bias_tok(block.co)), *block.ln2)
    ff = T.add(T.matmul(T.gelu(T.add(T.matmul(h, block.ff1[0]), block.ff1[1])),
                        block.ff2[0]), block.ff2[1])
    expected = T.layer_norm(T.add(h, ff), *block.ln3).data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_forecast_shape_and_determinism():
    model = make_model()
    window = np.random.default_rng(5).standard_normal((6, 2))
    a = model.forecast(window, np.array([0.5])).data
    b = model.forecast(window, np.array([0.5])).data
    assert a.shape == (1, 3, 2)
    assert a.tobytes() == b.tobytes()


def full_window_forecast(model, window, xi):
    """Every block on every window position, then the last position through
    the head: the reference for a forecast whose final block computes only
    the last position."""
    c = model.config
    batch = window.shape[0]
    h = T.add(T.linear(Tensor(window), model.in_proj), model.pos)
    xi_tokens = T.reshape(T.linear(Tensor(xi), model.xi_proj), (batch, 1, c.width))
    for block in model.blocks:
        h = block(h, xi_tokens)
    last = T.reshape(T.slice_axis(h, 1, c.lookback - 1, c.lookback), (batch, c.width))
    return T.reshape(T.linear(last, model.out_head), (batch, c.horizon, c.latent_dim))


def outputs_and_grads(model, reference, rng, batch):
    """Forecast output and parameter gradients (of a random weighted sum of
    the output) from the model, then from ``reference(model, window, xi)``."""
    window = rng.standard_normal((batch, 6, 2))
    xi = rng.standard_normal((batch, 2))
    weights = Tensor(rng.standard_normal((batch, 3, 2)))
    results = []
    for run in (model.forecast, lambda w, x: reference(model, w, x)):
        for _, p in model.named_parameters():
            p.zero_grad()
        with Tape() as tape:
            out = run(window, xi)
            backward(tape, T.tensor_sum(T.mul(out, weights)))
        results.append((out.data, [p.grad for _, p in model.named_parameters()]))
    return results


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_forecast_matches_full_window_reference(blocks, batch):
    model = make_model(blocks=blocks, param_dim=2)
    (fast, fast_grads), (ref, ref_grads) = outputs_and_grads(
        model, full_window_forecast, np.random.default_rng(10), batch)
    np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)
    for (name, _), got, want in zip(model.named_parameters(), fast_grads, ref_grads):
        if is_cross_qk(name):  # never read
            assert got is None and want is None
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def is_cross_qk(name):
    return ".cross_q." in name or ".cross_k." in name


def multi_head_attention(block, q_in, kv_in, proj_q, proj_k, proj_v, proj_o,
                         mask=None):
    """General scaled dot-product attention of ``q_in`` over ``kv_in``."""
    c = block.config
    batch, q_len, kv_len = q_in.shape[0], q_in.shape[1], kv_in.shape[1]
    q = block._heads_split(T.linear(q_in, proj_q), batch, q_len)
    k = block._heads_split(T.linear(kv_in, proj_k), batch, kv_len)
    v = block._heads_split(T.linear(kv_in, proj_v), batch, kv_len)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                     1.0 / np.sqrt(c.width // c.heads))
    if mask is not None:
        scores = T.add(scores, mask)
    ctx = block._heads_join(T.matmul(T.softmax(scores), v), batch, q_len)
    return T.linear(ctx, proj_o)


def cross_attention_forecast(model, window, xi):
    """The forecast with every block's conditioning as general multi-head
    cross-attention from its rows to the parameter token, through the
    cross_q/cross_k projections that the model itself never reads."""
    c = model.config
    batch = window.shape[0]
    named = dict(model.named_parameters())
    h = T.add(T.linear(Tensor(window), model.in_proj), model.pos)
    xi_tokens = T.reshape(T.linear(Tensor(xi), model.xi_proj), (batch, 1, c.width))
    for i, block in enumerate(model.blocks):
        cq, ck = ((named[f"transformer.block{i}.cross_{p}.w"],
                   named[f"transformer.block{i}.cross_{p}.b"]) for p in "qk")
        q = c.lookback
        rows, mask = ((T.slice_axis(h, 1, q - 1, q), None) if i == c.blocks - 1
                      else (h, block.mask))
        x = T.layer_norm(T.add(rows, multi_head_attention(
            block, rows, h, block.wq, block.wk, block.wv, block.wo, mask)), *block.ln1)
        x = T.layer_norm(T.add(x, multi_head_attention(
            block, x, xi_tokens, cq, ck, block.cv, block.co)), *block.ln2)
        ff = T.linear(T.gelu(T.linear(x, block.ff1)), block.ff2)
        h = T.layer_norm(T.add(x, ff), *block.ln3)
    out = T.linear(T.reshape(h, (batch, c.width)), model.out_head)
    return T.reshape(out, (batch, c.horizon, c.latent_dim))


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_forecast_equals_general_cross_attention(blocks, batch):
    """A softmax over one key is exactly 1 and its backward exactly 0, so the
    value path alone gives the cross-attention's output and every gradient:
    bit for bit when only the last position is computed (blocks=1)."""
    model = make_model(blocks=blocks, param_dim=2)
    rng = np.random.default_rng(11)
    for name, p in model.named_parameters():
        if is_cross_qk(name):
            p.data[:] = rng.standard_normal(p.shape)
    (fast, fast_grads), (ref, ref_grads) = outputs_and_grads(
        model, cross_attention_forecast, rng, batch)

    def same(got, want, name):
        if blocks == 1:
            assert got.tobytes() == want.tobytes(), name
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    same(fast, ref, "forecast")
    for (name, _), got, want in zip(model.named_parameters(), fast_grads, ref_grads):
        if is_cross_qk(name):
            assert got is None and not np.any(want)
        else:
            same(got, want, name)


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
    opt = Adam([p for _, p in model.named_parameters()], lr=3e-3)
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
