import numpy as np
import pytest

from romuq.optim import EPS, Adam
from romuq.tensor import ShapeError, Tensor


def test_zero_grad_from_zero_state_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert opt.t == 1


def test_zero_grad_decays_existing_moments():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.m[:] = [0.5, 0.5]
    opt.v[:] = [0.25, 0.25]
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_allclose(opt.m, 0.9 * 0.5)
    np.testing.assert_allclose(opt.v, 0.999 * 0.25)


def test_first_step_from_zero_state_matches_symbolic_expansion():
    # constant grad g, zero state, t=1: m_hat = g, v_hat = g^2,
    # update = -lr * g / (|g| + eps)
    g = np.array([0.3, -1.2, 4.0])
    p = Tensor(np.zeros(3), requires_grad=True)
    lr = 1e-3
    opt = Adam([p], lr=lr)
    p.grad = g.copy()
    opt.step()
    expected = -lr * g / (np.abs(g) + EPS)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert opt.t == 1


def test_shape_mismatch_raises():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(4)
    with pytest.raises(ShapeError):
        opt.step()
    assert opt.t == 0 and not p.data.any()


def test_resized_parameter_raises():
    # a parameter whose array no longer fits the moments built for it
    p = Tensor(np.zeros(3), requires_grad=True)
    q = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p, q])
    q.data = np.zeros(4)
    for grad in (None, np.zeros(4)):
        q.grad = grad
        with pytest.raises(ShapeError):
            opt.step()
    assert opt.t == 0 and not p.data.any() and not q.data.any()


def test_identical_runs_are_bit_identical():
    def run():
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal(5), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(20):
            p.grad = p.data * 2.0
            opt.step()
            opt.zero_grad()
        return p.data.tobytes()

    assert run() == run()


def reference_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop that the flat update replaced: one moment
    pair per parameter."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            p -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    return params


def test_flat_update_is_byte_equal_to_the_per_parameter_loop():
    rng = np.random.default_rng(5)
    shapes = [(3, 4), (4,), (), (2, 3, 2), (5,)]
    start = [rng.standard_normal(s) for s in shapes]
    # gradients over nine orders of magnitude, and parameter 1's all zero
    grad_steps = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) * (i != 1)
                   for i, s in enumerate(shapes)] for t in range(20)]
    params = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam(params, lr=0.01)
    for grads in grad_steps:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
    want = reference_adam([x.copy() for x in start], grad_steps, lr=0.01)
    for got, ref in zip(params, want):
        assert got.data.tobytes() == ref.tobytes()
    assert params[1].data.tobytes() == start[1].tobytes()


def test_parameter_without_gradient_is_unchanged_while_its_moments_are_zero():
    # a missing gradient is refused, not read as zeros: nothing moves
    p = Tensor(np.array([1.5, -0.0, 0.0, 3e-300]), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    before = [p.data.tobytes(), q.data.tobytes()]
    for grads in ((None, np.full(3, 0.5)), (np.full(4, 0.5), None)):
        p.grad, q.grad = grads
        with pytest.raises(ShapeError, match="Adam.step"):
            opt.step()
    assert opt.t == 0 and [p.data.tobytes(), q.data.tobytes()] == before
    assert not opt.m.any() and not opt.v.any()
