import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romuq import tensor as T
from romuq.tensor import NonFiniteError, ShapeError, Tape, Tensor, backward


def finite_difference(f, arrays, index, h=1e-5):
    """Central-difference gradient of scalar f w.r.t. arrays[index]."""
    x = arrays[index]
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(*arrays)
        x[idx] = orig - h
        fm = f(*arrays)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def analytic_grads(build, arrays):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
        backward(tape, loss)
    return [t.grad for t in tensors]


def check_grads(build, arrays, tol=1e-4):
    """Compare autodiff grads against central differences for each input."""
    grads = analytic_grads(build, arrays)

    def scalar_f(*arrs):
        ts = [Tensor(a) for a in arrs]
        return float(build(*ts).data)

    for i, g in enumerate(grads):
        fd = finite_difference(scalar_f, [a.copy() for a in arrays], i)
        denom = np.maximum(np.abs(fd), 1e-6)
        rel = np.max(np.abs(g - fd) / denom)
        assert rel < tol, f"input {i}: max relative error {rel}"


RNG = np.random.default_rng(42)

PRIMITIVE_CASES = {
    "matmul": lambda a, b: T.tensor_sum(T.mul(T.matmul(a, b), T.matmul(a, b))),
    "add": lambda a, b: T.tensor_sum(T.mul(T.add(a, b), T.add(a, b))),
    "sub": lambda a, b: T.tensor_sum(T.mul(T.sub(a, b), T.sub(a, b))),
    "mul": lambda a, b: T.tensor_sum(T.mul(T.mul(a, b), a)),
    "scale": lambda a: T.tensor_sum(T.mul(T.scale(a, 1.7), a)),
    "exp": lambda a: T.tensor_sum(T.mul(T.exp(a), a)),
    "gelu": lambda a: T.tensor_sum(T.mul(T.gelu(a), a)),
    "softmax": lambda a: T.tensor_sum(T.mul(T.softmax(a), a)),
    "layer_norm": lambda a, gamma, beta: T.tensor_sum(T.mul(T.layer_norm(a, gamma, beta), a)),
    "layer_norm:residual": lambda a, gamma, beta, r: T.tensor_sum(
        T.mul(T.layer_norm(a, gamma, beta, residual=r), a)),
    "layer_norm:broadcast_residual": lambda a, gamma, beta, r: T.tensor_sum(
        T.mul(T.layer_norm(a, gamma, beta, residual=r), a)),
    "reshape": lambda a: T.tensor_sum(T.mul(T.reshape(a, (a.size,)), T.reshape(a, (a.size,)))),
    "transpose": lambda a: T.tensor_sum(T.mul(T.transpose(a, (1, 0)), T.transpose(a, (1, 0)))),
    "transpose:shape": lambda a: T.tensor_sum(T.mul(T.transpose(a, (1, 0, 2), (2, 2, 4)),
                                                    T.transpose(a, (1, 0, 2), (2, 2, 4)))),
    "concat": lambda a, b: T.tensor_sum(T.mul(T.concat([a, b], axis=0), T.concat([a, b], axis=0))),
    "slice": lambda a: T.tensor_sum(T.mul(T.slice_axis(a, 0, 1, 3), T.slice_axis(a, 0, 1, 3))),
    "sum": lambda a: T.mul(T.tensor_sum(a), T.tensor_sum(a)),
    "mean": lambda a: T.mul(T.tensor_mean(a), T.tensor_mean(a)),
    "sum_axis": lambda a: T.tensor_sum(T.mul(T.tensor_sum(a, axis=1), T.tensor_sum(a, axis=1))),
}

TWO_ARG = {"matmul", "add", "sub", "mul", "concat"}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    build = PRIMITIVE_CASES[name]
    for _ in range(10):
        if name == "layer_norm":
            arrays = [RNG.standard_normal((4, 4)), RNG.standard_normal(4), RNG.standard_normal(4)]
        elif name == "layer_norm:residual":
            arrays = [RNG.standard_normal((4, 4)), RNG.standard_normal(4), RNG.standard_normal(4),
                      RNG.standard_normal((4, 4))]
        elif name == "layer_norm:broadcast_residual":  # a (B, 1, W) residual, as the conditioning
            arrays = [RNG.standard_normal((2, 3, 4)), RNG.standard_normal(4),
                      RNG.standard_normal(4), RNG.standard_normal((2, 1, 4))]
        elif name in TWO_ARG:
            arrays = [RNG.standard_normal((4, 4)), RNG.standard_normal((4, 4))]
        else:
            arrays = [RNG.standard_normal((4, 4))]
        check_grads(build, arrays)


def test_matmul_identity():
    a = RNG.standard_normal((3, 3))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


@pytest.mark.parametrize("a_shape", [(3, 10, 4), (3, 1, 4), (2, 3, 5, 4), (5, 4)])
def test_matmul_weight_gradient_matches_batched_sum(a_shape):
    """A >=3-D activation times a 2-D weight gives the weight gradient of
    the per-batch products summed; a 2-D activation gives a.T @ g exactly."""
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    g = rng.standard_normal(a_shape[:-1] + (6,))
    with Tape() as tape:
        backward(tape, T.tensor_sum(T.mul(T.matmul(a, w), Tensor(g))))
    per_batch = np.matmul(np.swapaxes(a.data, -1, -2), g)
    if len(a_shape) == 2:
        np.testing.assert_array_equal(w.grad, per_batch)
    else:
        np.testing.assert_allclose(w.grad, per_batch.reshape(-1, 4, 6).sum(axis=0),
                                   rtol=0, atol=1e-12)
    np.testing.assert_array_equal(a.grad, np.matmul(g, w.data.T))


def test_softmax_symmetry():
    out = T.softmax(Tensor([2.5, 2.5, 2.5]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    x = RNG.standard_normal((20, 7)) * 5
    out = T.softmax(Tensor(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out > 0)


def test_layer_norm_moments():
    x = RNG.standard_normal((16, 33)) * 3 + 1.5
    out = T.layer_norm(Tensor(x), Tensor(np.ones(33)), Tensor(np.zeros(33))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-8


def test_square_derivative_at_three():
    x = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        backward(tape, T.mul(x, x))
    h = 1e-5
    fd = ((3 + h) ** 2 - (3 - h) ** 2) / (2 * h)
    assert abs(float(x.grad) - fd) < 1e-8


def test_backward_linear_sum_gives_ones():
    w = Tensor(np.ones((3, 4)), requires_grad=True)
    with Tape() as tape:
        backward(tape, T.tensor_sum(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_regression_loss_matches_fd():
    w = RNG.standard_normal((4, 4))
    x = RNG.standard_normal((4, 4))
    y = RNG.standard_normal((4, 4))

    def build(wt):
        return T.mse(T.matmul(wt, Tensor(x)), Tensor(y))

    grads = analytic_grads(build, [w])
    fd = finite_difference(lambda a: float(build(Tensor(a)).data), [w.copy()], 0)
    assert np.max(np.abs(grads[0] - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-4


def test_fanout_grads_accumulate():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        backward(tape, T.add(T.tensor_sum(T.mul(x, x)), T.tensor_sum(x)))
    np.testing.assert_allclose(x.grad, 2 * x.data + 1.0)


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        with pytest.raises(ShapeError):
            backward(tape, y)


def test_shape_mismatch_names_primitive_and_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(err.value)
    assert "(2, 3)" in str(err.value)


def test_non_finite_output_names_op():
    x = Tensor(np.array([1000.0]), requires_grad=True)
    with Tape():
        with pytest.raises(NonFiniteError) as err:
            T.exp(x)
    assert err.value.op == "exp"
    assert str(err.value) == "exp: non-finite output"


def test_replay_determinism():
    def run():
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        with Tape() as tape:
            loss = T.mse(T.gelu(T.matmul(a, b)), Tensor(np.zeros((5, 5))))
            backward(tape, loss)
        return loss.data.tobytes(), a.grad.tobytes()

    assert run() == run()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_normalisation_property(row):
    out = T.softmax(Tensor(row)).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out > 0)


# ------------------------------------------------------- fast-path guards

PRIMITIVE_LABELS = {"matmul", "add", "sub", "mul", "scale", "exp", "gelu",
                    "softmax", "layer_norm", "reshape", "transpose", "concat",
                    "slice", "sum", "mean"}

# Primitives whose own arithmetic raises no floating-point warning on
# inf/nan inputs, so any warning would come from the finiteness check;
# each with the numpy expression of its output. A key is the op label,
# then ":" and the variant when there is one.
COPYING_PRIMITIVES = {
    "scale": (lambda a: T.scale(a, 1.0), lambda x: x * 1.0),
    "reshape": (lambda a: T.reshape(a, (-1,)), lambda x: x.reshape(-1)),
    "transpose": (lambda a: T.transpose(a, (1, 0)), lambda x: x.T),
    "transpose:shape": (lambda a: T.transpose(a, (1, 0), (3, 2)), lambda x: x.reshape(3, 2).T),
    "slice": (lambda a: T.slice_axis(a, 1, 1, 3), lambda x: x[:, 1:]),
    "concat": (lambda a: T.concat([a, a], axis=1),
               lambda x: np.concatenate([x, x], axis=1)),
}

special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e200, -1e200, 1e154, np.inf, -np.inf, np.nan]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(special_floats, min_size=6, max_size=6),
       st.sampled_from(sorted(COPYING_PRIMITIVES)),
       st.integers(0, 3), st.booleans())
def test_non_finite_raised_exactly_when_an_element_is(values, name, before, taped):
    """The finiteness check answers as the elementwise test does, names the
    op, leaves the tape as it was, and adds no floating-point warning."""
    data = np.array(values).reshape(2, 3)
    a = Tensor(data, requires_grad=True)
    w = Tensor(np.ones(2), requires_grad=True)
    primitive, reference = COPYING_PRIMITIVES[name]
    expect_raise = not np.isfinite(reference(data)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if taped:
            with Tape() as tape:
                for _ in range(before):
                    T.scale(w, 2.0)
                if expect_raise:
                    with pytest.raises(NonFiniteError) as err:
                        primitive(a)
                    assert err.value.op == name.split(":")[0]
                    assert len(tape.ops) == before
                else:
                    primitive(a)
                    assert len(tape.ops) == before + 1
        elif expect_raise:
            with pytest.raises(NonFiniteError) as err:
                primitive(a)
            assert err.value.op == name.split(":")[0]
        else:
            primitive(a)


def test_finite_output_whose_sum_overflows_is_accepted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.scale(Tensor([1e308, 1e308]), 1.0)
        np.testing.assert_array_equal(out.data, [1e308, 1e308])
        T.add(Tensor([1e200, -1e200]), Tensor([1e200, -1e200]))


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_elementwise_shape_error_names_op_and_both_shapes(op):
    with pytest.raises(ShapeError) as err:
        getattr(T, op)(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 1, 2))))
    assert err.value.op == op
    assert err.value.shapes == ((2, 3), (4, 1, 2))
    assert str(err.value) == f"{op}: incompatible shapes (2, 3) vs (4, 1, 2)"


def hopf_adapt_models():
    """The transformer and VAE sizes of the Hopf adaptive fixture."""
    from romuq.config import TransformerConfig, VaeConfig
    from romuq.transformer import LatentTransformer
    from romuq.vae import Vae

    rng = np.random.default_rng(0)
    vae = Vae(VaeConfig(state_dim=64, latent_dim=4, hidden=(64,), param_dim=2,
                        embed_dim=8), rng)
    transformer = LatentTransformer(
        TransformerConfig(lookback=10, horizon=10, latent_dim=4, width=64,
                          heads=4, blocks=1, param_dim=2), rng)
    return vae, transformer


def test_forecast_without_tape_records_nothing():
    _, transformer = hopf_adapt_models()
    window = np.random.default_rng(1).standard_normal((1, 10, 4))
    with Tape() as tape:
        taped = transformer.forecast(window, np.zeros(2))
    assert len(tape.ops) == 26
    out = transformer.forecast(window, np.zeros(2))
    assert len(tape.ops) == 26 and not T._TAPE_STACK
    assert not out.requires_grad
    assert out.data.tobytes() == taped.data.tobytes()


def test_training_step_records_every_op_by_a_primitive():
    from romuq.config import LossWeights
    from romuq.training import total_loss

    vae, transformer = hopf_adapt_models()
    rng = np.random.default_rng(2)
    with Tape() as tape:
        loss, _ = total_loss(vae, transformer, rng.standard_normal((3, 10, 64)),
                             rng.standard_normal((3, 10, 64)),
                             rng.standard_normal((3, 2)), LossWeights(),
                             rng.standard_normal((3, 10, 4)))
        backward(tape, loss)
    assert len(tape.ops) == 76
    assert {entry.name for entry in tape.ops} <= PRIMITIVE_LABELS


def test_backward_frees_the_tape_as_it_goes():
    """A Hopf-size training step (batch 32): backward releases each tape
    entry once it has used it, so its peak stays near the forward pass's
    live memory and only the parameter gradients outlive it."""
    from romuq.config import LossWeights
    from romuq.training import total_loss

    vae, transformer = hopf_adapt_models()
    rng = np.random.default_rng(3)
    args = (rng.standard_normal((32, 10, 64)), rng.standard_normal((32, 10, 64)),
            rng.standard_normal((32, 2)), LossWeights(), rng.standard_normal((32, 10, 4)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss, _ = total_loss(vae, transformer, *args)
            forward_live = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
        after_live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = vae.named_parameters() + transformer.named_parameters()
    grads = sum(p.grad.nbytes for _, p in params if p.grad is not None)
    assert peak <= 1.25 * forward_live, (peak, forward_live)
    assert after_live <= grads + 0.25 * 2**20, (after_live, grads)


def test_reshape_to_an_impossible_shape_raises_shape_error():
    for shape in [(-1, 3), (-1, -1), (2, 3)]:
        with pytest.raises(ShapeError) as err:
            T.reshape(Tensor(np.zeros(7)), shape)
        assert err.value.op == "reshape"
        assert err.value.shapes == ((7,), shape)


# ------------------------------------------------------- fused primitives


def grads_of(build, arrays, weights):
    """Output bytes and the gradients of sum(output * weights) w.r.t. every
    input of ``build``."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*tensors)
        backward(tape, T.tensor_sum(T.mul(out, Tensor(weights))))
    return out.data.tobytes(), [t.grad.tobytes() for t in tensors], len(tape.ops)


@pytest.mark.parametrize("a_shape", [(5, 4), (3, 7, 4)])
def test_matmul_bias_equals_matmul_then_add(a_shape):
    rng = np.random.default_rng(21)
    arrays = [rng.standard_normal(a_shape), rng.standard_normal((4, 6)),
              rng.standard_normal(6)]
    weights = rng.standard_normal(a_shape[:-1] + (6,))
    fused = grads_of(T.matmul, arrays, weights)
    chain = grads_of(lambda a, b, bias: T.add(T.matmul(a, b), bias), arrays, weights)
    assert fused[:2] == chain[:2]
    assert (fused[2], chain[2]) == (3, 4)  # the closing mul and sum included


def test_matmul_bias_shape_error_names_all_three_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    assert err.value.shapes == ((2, 3), (3, 4), (3,))


def old_layer_norm(a, eps=1e-9):
    """The layer norm without gain and shift, as it was before the affine
    pair moved inside the primitive."""
    x = a.data
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    out = xc * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * out).mean(axis=-1, keepdims=True)
        return ((g - gm - out * gy) * inv,)

    return T._record("layer_norm", (a,), out, bwd)


@pytest.mark.parametrize("shape", [(6, 8), (2, 5, 8)])
def test_layer_norm_affine_equals_the_three_op_chain(shape):
    rng = np.random.default_rng(22)
    arrays = [rng.standard_normal(shape) * 3 + 1, rng.standard_normal(8),
              rng.standard_normal(8)]
    weights = rng.standard_normal(shape)
    fused = grads_of(T.layer_norm, arrays, weights)
    chain = grads_of(lambda a, gamma, beta: T.add(T.mul(old_layer_norm(a), gamma), beta),
                     arrays, weights)
    assert fused[:2] == chain[:2]
    assert (fused[2], chain[2]) == (3, 5)


FUSED_FORMS = {  # fused call, the op chain it replaces, input shapes, output shape
    "layer_norm:residual": (lambda a, g, b, r: T.layer_norm(a, g, b, residual=r),
                            lambda a, g, b, r: T.layer_norm(T.add(a, r), g, b),
                            [(6, 8), (8,), (8,), (6, 8)], (6, 8)),
    "layer_norm:broadcast_residual": (
        lambda a, g, b, r: T.layer_norm(a, g, b, residual=r),
        lambda a, g, b, r: T.layer_norm(T.add(a, r), g, b),
        [(2, 5, 8), (8,), (8,), (2, 1, 8)], (2, 5, 8)),
    "transpose:shape": (lambda a: T.transpose(a, (0, 2, 1, 3), (3, 5, 4, 2)),
                        lambda a: T.transpose(T.reshape(a, (3, 5, 4, 2)), (0, 2, 1, 3)),
                        [(3, 5, 8)], (3, 4, 5, 2)),
}


@pytest.mark.parametrize("name", sorted(FUSED_FORMS))
def test_fused_form_equals_its_op_chain_bit_for_bit(name):
    fused_op, chain_op, shapes, out_shape = FUSED_FORMS[name]
    rng = np.random.default_rng(24)
    arrays = [rng.standard_normal(s) for s in shapes]
    weights = rng.standard_normal(out_shape)
    fused, chain = grads_of(fused_op, arrays, weights), grads_of(chain_op, arrays, weights)
    assert fused[:2] == chain[:2]
    assert (fused[2], chain[2]) == (3, 4)  # one op fewer


def test_fused_form_failures_name_the_fused_op():
    a, gamma, beta = Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
    with pytest.raises(ShapeError) as err:
        T.layer_norm(a, gamma, beta, residual=Tensor(np.ones((2, 4))))
    assert err.value.op == "layer_norm"
    assert err.value.shapes == ((2, 3), (2, 4))
    with pytest.raises(ShapeError) as err:
        T.transpose(a, (1, 0), (4, 2))
    assert (err.value.op, err.value.shapes) == ("transpose", ((2, 3), (4, 2)))
    # a sum that overflows is reported as the layer norm's (non-finite) output
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
        T.layer_norm(Tensor(np.full((2, 3), 1e308)), gamma, beta,
                     residual=Tensor(np.full((2, 3), 1e308)))
    assert err.value.op == "layer_norm"


def test_shared_gradients_are_never_updated_in_place(monkeypatch):
    """x feeds one add twice and a reshape, so its gradients are views of
    one another; every stored gradient must keep its values to the end."""
    rng = np.random.default_rng(23)
    x0, w0 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))

    def run():
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        with Tape() as tape:
            u = T.add(T.add(x, x), w)
            r = T.mul(T.reshape(x, (3, 2)), T.reshape(u, (3, 2)))
            backward(tape, T.add(T.tensor_sum(T.mul(u, u)), T.tensor_sum(r)))
        return x.grad.tobytes(), w.grad.tobytes()

    stored = []
    accumulate = Tensor.accumulate_grad

    def recording(self, g):
        accumulate(self, g)
        stored.append((self.grad, self.grad.copy()))

    monkeypatch.setattr(Tensor, "accumulate_grad", recording)
    got = run()
    assert all(np.array_equal(arr, snapshot) for arr, snapshot in stored)

    def copying(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    monkeypatch.setattr(Tensor, "accumulate_grad", copying)
    assert got == run()
