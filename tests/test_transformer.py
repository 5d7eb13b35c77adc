import contextlib
from unittest import mock

import numpy as np
import pytest

from romuq import tensor as T
from romuq.optim import Adam
from romuq.tensor import Tape, Tensor, backward
from romuq.transformer import (AttentionBlock, LatentTransformer, RolloutDivergence,
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
    cond = block.condition(Tensor(rng.standard_normal((1, 1, 16))))
    base = block(Tensor(x), cond).data
    for j in range(1, 6):
        xp = x.copy()
        xp[0, j] += 1.0
        out = block(Tensor(xp), cond).data
        # positions strictly before the perturbed token are unchanged
        np.testing.assert_array_equal(out[0, :j], base[0, :j])
        assert np.max(np.abs(out[0, j:] - base[0, j:])) > 0


def test_block_refuses_window_other_than_lookback():
    model = make_model(lookback=6)
    cond = model.blocks[0].condition(Tensor(np.zeros((1, 1, 16))))
    for length in (1, 5, 7):
        with pytest.raises(T.ShapeError, match="attention_block"):
            model.blocks[0](Tensor(np.zeros((1, length, 16))), cond)


def test_block_refuses_more_than_one_parameter_token():
    model = make_model(lookback=6)
    block = model.blocks[0]
    with pytest.raises(T.ShapeError, match="attention_block"):
        block(Tensor(np.zeros((1, 6, 16))), block.condition(Tensor(np.zeros((1, 2, 16)))))


def test_block_zero_value_projection_reduces_to_feedforward_path():
    model = make_model(heads=1)
    block = model.blocks[0]
    for proj in (block.wv, block.cv):
        proj[0].data[:] = 0.0
        proj[1].data[:] = 0.0
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 6, 16)))
    xi_tokens = Tensor(rng.standard_normal((1, 1, 16)))
    out = block(x, block.condition(xi_tokens)).data

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
    a = model.forecast(window[None], np.array([0.5])).data
    b = model.forecast(window[None], np.array([0.5])).data
    assert a.shape == (1, 3, 2)
    assert a.tobytes() == b.tobytes()


def full_window_forecast(model, window, xi):
    """Every block on every window position, then the last position through
    the head: the reference for a forecast whose final block computes only
    the last position."""
    c = model.config
    batch = window.shape[0]
    h = T.add(T.matmul(Tensor(window), *model.in_proj), model.pos)
    xi_tokens = T.reshape(T.matmul(Tensor(xi), *model.xi_proj), (batch, 1, c.width))
    for block in model.blocks:
        h = block(h, block.condition(xi_tokens))
    last = T.reshape(T.slice_axis(h, 1, c.lookback - 1, c.lookback), (batch, c.width))
    return T.reshape(T.matmul(last, *model.out_head), (batch, c.horizon, c.latent_dim))


def outputs_and_grads(model, reference, rng, batch):
    """Forecast output and parameter gradients (of a random weighted sum of
    the output) from the model, then from ``reference(model, window, xi)``."""
    window = rng.standard_normal((batch, 6, 2))
    xi = rng.standard_normal((batch, 2))
    weights = Tensor(rng.standard_normal((batch, 3, 2)))
    results = []
    for run in (model.forecast, lambda w, x: reference(model, w, x)):
        for _, p in model.named_parameters():
            p.grad = None
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
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def multi_head_attention(block, q_in, kv_in, proj_q, proj_k, proj_v, proj_o,
                         mask=None):
    """General scaled dot-product attention of ``q_in`` over ``kv_in``."""
    c = block.config
    batch, q_len, kv_len = q_in.shape[0], q_in.shape[1], kv_in.shape[1]
    q = block._heads_split(T.matmul(q_in, *proj_q), batch, q_len)
    k = block._heads_split(T.matmul(kv_in, *proj_k), batch, kv_len)
    v = block._heads_split(T.matmul(kv_in, *proj_v), batch, kv_len)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                     1.0 / np.sqrt(c.width // c.heads))
    if mask is not None:
        scores = T.add(scores, mask)
    ctx = block._heads_join(T.matmul(T.softmax(scores), v), batch, q_len)
    return T.matmul(ctx, *proj_o)


def cross_attention_forecast(model, window, xi, cross_qk):
    """The forecast with every block's conditioning as general multi-head
    cross-attention from its rows to the parameter token, through the
    query and key projections ``cross_qk[i]`` of block i, which the model
    itself does not have. The parameter projection and the head run on
    ``(B, 1, n)`` stacks, as in the model, so that their products sum in
    the model's order."""
    c = model.config
    batch = window.shape[0]
    h = T.add(T.matmul(Tensor(window), *model.in_proj), model.pos)
    xi_tokens = T.matmul(Tensor(xi[:, None]), *model.xi_proj)
    for i, (block, (cq, ck)) in enumerate(zip(model.blocks, cross_qk)):
        q = c.lookback
        rows, mask = ((T.slice_axis(h, 1, q - 1, q), None) if i == c.blocks - 1
                      else (h, block.mask))
        x = T.layer_norm(T.add(rows, multi_head_attention(
            block, rows, h, block.wq, block.wk, block.wv, block.wo, mask)), *block.ln1)
        x = T.layer_norm(T.add(x, multi_head_attention(
            block, x, xi_tokens, cq, ck, block.cv, block.co)), *block.ln2)
        ff = T.matmul(T.gelu(T.matmul(x, *block.ff1)), *block.ff2)
        h = T.layer_norm(T.add(x, ff), *block.ln3)
    return T.reshape(T.matmul(h, *model.out_head), (batch, c.horizon, c.latent_dim))


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("batch", [1, 3])
def test_forecast_equals_general_cross_attention(blocks, batch):
    """A softmax over one key is exactly 1 and its backward exactly 0, so the
    value path alone gives the cross-attention's output and every gradient:
    bit for bit when only the last position is computed (blocks=1)."""
    model = make_model(blocks=blocks, param_dim=2)
    rng = np.random.default_rng(11)
    d = model.config.width
    cross_qk = [[(Tensor(rng.standard_normal((d, d)), requires_grad=True),
                  Tensor(rng.standard_normal(d), requires_grad=True)) for _ in "qk"]
                for _ in model.blocks]
    (fast, fast_grads), (ref, ref_grads) = outputs_and_grads(
        model, lambda m, w, x: cross_attention_forecast(m, w, x, cross_qk), rng, batch)

    def same(got, want, name):
        if blocks == 1:
            assert got.tobytes() == want.tobytes(), name
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    same(fast, ref, "forecast")
    for (name, _), got, want in zip(model.named_parameters(), fast_grads, ref_grads):
        same(got, want, name)
    for w, b in (pair for block_qk in cross_qk for pair in block_qk):
        assert w.grad is not None and not np.any(w.grad) and not np.any(b.grad)


def test_forecast_wrong_window_length():
    """A window of another length, or one without its batch axis, is refused."""
    model = make_model()
    for shape in [(5, 2), (1, 5, 2), (6, 2)]:
        with pytest.raises(T.ShapeError, match="forecast"):
            model.forecast(np.zeros(shape), np.array([0.0]))


def test_forecast_positional_sensitivity():
    model = make_model()
    rng = np.random.default_rng(6)
    window = rng.standard_normal((6, 2))
    shuffled = window[::-1].copy()
    a = model.forecast(window[None], np.array([0.0])).data
    b = model.forecast(shuffled[None], np.array([0.0])).data
    assert np.max(np.abs(a - b)) > 1e-8


def test_xi_pathway_zeroed_makes_output_xi_invariant():
    model = make_model()
    model.xi_proj[0].data[:] = 0.0
    model.xi_proj[1].data[:] = 0.0
    window = np.random.default_rng(7).standard_normal((6, 2))
    a = model.forecast(window[None], np.array([0.0])).data
    b = model.forecast(window[None], np.array([123.0])).data
    np.testing.assert_array_equal(a, b)


def test_xi_conditioning_changes_output():
    model = make_model()
    window = np.random.default_rng(8).standard_normal((6, 2))
    a = model.forecast(window[None], np.array([0.0])).data
    b = model.forecast(window[None], np.array([1.0])).data
    assert np.max(np.abs(a - b)) > 1e-8


def test_rollout_h1_first_step_matches_forecast():
    model = make_model(horizon=1)
    window = np.random.default_rng(9).standard_normal((6, 2))
    xi = np.array([0.3])
    single = model.forecast(window[None], xi).data[0, 0]
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


@pytest.mark.parametrize("blocks, weight", [
    (1, "xi_proj.w"), (1, "block0.cross_v.w"), (1, "block0.cross_o.w"),
    (2, "xi_proj.w"), (2, "block0.cross_v.w"), (2, "block0.cross_o.w"),
    (2, "block1.cross_v.w"), (2, "block1.cross_o.w")])
def test_rollout_non_finite_conditioning_raises_divergence_at_step_0(blocks, weight):
    """The conditioning is built before the first step's forecast, still
    inside the rollout's failure contract."""
    model = make_model(blocks=blocks, param_dim=2)
    dict(model.named_parameters())["transformer." + weight].data[:] = 1e300
    with pytest.raises(RolloutDivergence) as err:
        rollout(model, np.ones((6, 2)), np.array([1e10, -1e10]), steps=5)
    assert err.value.step == 0
    assert isinstance(err.value.__cause__, T.NonFiniteError)
    assert f"non-finite output of {err.value.__cause__.op}" in str(err.value)


def transposed_heads_split(block, x, batch, length, axes=(0, 2, 1, 3)):
    c = block.config
    return T.transpose(T.reshape(x, (batch, length, c.heads, c.width // c.heads)), axes)


def transposed_heads_join(block, x, batch, length):
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (batch, length, block.config.width))


def reference_rollout(model, window, xi, steps):
    """The rollout as one full forecast(window, xi) per step, heads always
    split and joined by a transpose, and the window rebuilt by
    np.concatenate: the reference for the rollout's hoisted conditioning,
    window view and single-query reshapes."""
    with mock.patch.object(AttentionBlock, "_heads_split", transposed_heads_split), \
            mock.patch.object(AttentionBlock, "_heads_join", transposed_heads_join):
        window = np.asarray(window, dtype=np.float64).copy()
        out = np.empty((steps, window.shape[1]))
        for step in range(steps):
            out[step] = model.forecast(window[None, :, :], xi).data[0, 0]
            window = np.concatenate([window[1:], out[step][None, :]], axis=0)
    return out


# the transformer and VAE sizes of the hopf_adapt and ks_cli benchmark models
MODEL_SIZES = {
    "hopf_adapt": dict(state_dim=64, latent_dim=4, hidden=(64,), param=dict(mu=0.3, omega=1.0)),
    "ks_cli": dict(state_dim=64, latent_dim=8, hidden=(128,), param=dict(nu=0.9)),
}


def sized_checkpoint(size, blocks, seed=0):
    from romuq.datagen import NormStats
    from romuq.training import ModelCheckpoint, TrainConfig
    from romuq.vae import Vae, VaeConfig

    s = MODEL_SIZES[size]
    n_param = len(s["param"])
    config = TrainConfig(
        vae=VaeConfig(state_dim=s["state_dim"], latent_dim=s["latent_dim"],
                      hidden=s["hidden"], param_dim=n_param, embed_dim=8),
        transformer=TransformerConfig(lookback=10, horizon=10, latent_dim=s["latent_dim"],
                                      width=64, heads=4, blocks=blocks, param_dim=n_param))
    rng = np.random.default_rng(seed)
    vae = Vae(config.vae, rng)
    model = LatentTransformer(config.transformer, rng)
    for _, p in model.named_parameters():  # biases and norms off their init too
        p.data += 0.1 * rng.standard_normal(p.shape)
    stats = NormStats(mean=rng.standard_normal(s["state_dim"]),
                      std=rng.uniform(0.5, 2.0, s["state_dim"]))
    return ModelCheckpoint(vae=vae, transformer=model, config=config, stats=stats,
                           seed=seed, data={"dt": 0.2, "length": 1.0,
                                            "names": sorted(s["param"])})


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
def test_rollout_and_predict_rollout_bit_identical_to_full_forecast_loop(size, blocks):
    from romuq.datagen import ParamPoint
    from romuq.training import predict_rollout

    ckpt = sized_checkpoint(size, blocks)
    model, point = ckpt.transformer, ParamPoint.of(**MODEL_SIZES[size]["param"])
    rng = np.random.default_rng(12)
    window = rng.standard_normal((10, model.config.latent_dim))
    want = reference_rollout(model, window, point, 40)
    assert rollout(model, window, point, 40).tobytes() == want.tobytes()

    states = rng.standard_normal((10, ckpt.config.vae.state_dim))
    pred, z = predict_rollout(ckpt, states, point, 40)
    mu = ckpt.vae.encode(ckpt.stats.forward(states), point).mu.data
    z_want = reference_rollout(model, mu, point, 40)
    pred_want = ckpt.stats.inverse(ckpt.vae.decode(z_want, point).data)
    assert z.tobytes() == z_want.tobytes()
    assert pred.tobytes() == pred_want.tobytes()


@pytest.mark.parametrize("blocks", [1, 2])
def test_rollout_conditions_once_and_never_reuses_stale_weights(blocks):
    ckpt = sized_checkpoint("hopf_adapt", blocks)
    model = ckpt.transformer
    xi = np.array([0.3, 1.0])
    window = np.random.default_rng(13).standard_normal((10, 4))
    calls = []

    def counted_rollout():
        before = model.forward_count
        with mock.patch.object(model, "condition",
                               side_effect=model.condition) as condition:
            out = rollout(model, window, xi, 7)
        calls.append((condition.call_count, model.forward_count - before))
        return out

    first = counted_rollout()
    named = dict(model.named_parameters())
    for weight in ("xi_proj.w", f"block{blocks - 1}.cross_v.w", "block0.cross_o.w"):
        named["transformer." + weight].data *= 1.5  # in place, as retrain updates
        again = counted_rollout()
        assert again.tobytes() == reference_rollout(model, window, xi, 7).tobytes()
        assert again.tobytes() != first.tobytes()
        first = again
    assert calls == [(1, 7)] * 4


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("blocks", [1, 2])
def test_batched_forecast_equals_per_sample_forecasts(blocks, taped):
    """A forecast over a batch equals the per-sample forecasts bit for bit,
    so no forecast depends on the batch it is in. This pins a BLAS
    behaviour: a product over a ``(B, L, n)`` stack gives each sample the
    rows it gets alone, while a 2-D product sums one row (GEMV in OpenBLAS)
    in another order than many rows (GEMM). A platform where stacked
    products differ per sample fails here."""
    model = sized_checkpoint("hopf_adapt", blocks).transformer
    rng = np.random.default_rng(16)
    for batch in (2, 10, 32):
        window = rng.standard_normal((batch, 10, 4))
        xi = rng.standard_normal((batch, 2))
        with Tape() if taped else contextlib.nullcontext():
            batched = model.forecast(window, xi).data
            alone = np.concatenate([model.forecast(window[i:i + 1], xi[i:i + 1]).data
                                    for i in range(batch)])
        assert batched.tobytes() == alone.tobytes(), batch


@pytest.mark.parametrize("axes", [(0, 2, 1, 3), (0, 2, 3, 1)])
def test_single_position_heads_reshape_equals_transpose(axes):
    block = make_model(width=16, heads=4).blocks[0]
    x = Tensor(np.random.default_rng(14).standard_normal((3, 1, 16)))
    split = block._heads_split(x, 3, 1, axes)
    assert split.data.tobytes() == transposed_heads_split(block, x, 3, 1, axes).data.tobytes()
    heads = Tensor(np.random.default_rng(15).standard_normal((3, 4, 1, 4)))
    assert (block._heads_join(heads, 3, 1).data.tobytes()
            == transposed_heads_join(block, heads, 3, 1).data.tobytes())


def test_forward_count_probe():
    model = make_model()
    window = np.zeros((6, 2))
    before = model.forward_count
    model.forecast(window[None], np.array([0.0]))
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
        with Tape() as tape:
            loss = T.mse(model.forecast(window[None], xi), target)
            backward(tape, loss)
        opt.step()
    pred = model.forecast(window[None], xi).data[0]
    assert np.max(np.abs(pred - const)) < 1e-3
    rolled = rollout(model, window, xi, steps=100)
    assert np.max(np.abs(rolled - const)) < 1e-2
