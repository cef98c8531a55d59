import numpy as np
import pytest
from gradcheck import grad_check

from mcbyol.autodiff import Tape, Tensor
from mcbyol.errors import ContractError, DimensionError, NumericError


def naive_matmul(a, b):
    """Triple-loop oracle, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def central_diff(f, x, h=1e-5):
    """Independent finite-difference gradient, coordinate by coordinate."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_l2_normalize_345_triangle():
    t = Tape()
    out = t.l2_normalize(Tensor([3.0, 4.0]))
    assert np.allclose(out.values, [0.6, 0.8], atol=1e-9)


def test_dot_orthogonal_is_zero():
    t = Tape()
    out = t.dot(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert float(out.values) == 0.0


def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4))
    t = Tape()
    out = t.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 4)
    assert np.allclose(out.values, naive_matmul(a, b), atol=1e-12)


def test_backward_sum_gives_ones():
    t = Tape()
    x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
    t.backward(t.sum(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_dot_quadratic():
    t = Tape()
    x = Tensor([2.0, -1.0], requires_grad=True)
    t.backward(t.dot(x, x))
    assert np.allclose(x.grad, [4.0, -2.0])


def test_two_layer_tanh_network_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    w1 = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 2)) * 0.5, requires_grad=True)

    def forward():
        t = Tape()
        h = t.tanh(t.bias_add(t.matmul(Tensor(x), w1), b1))
        return t, t.sum(t.matmul(h, w2))

    t, loss = forward()
    t.backward(loss)
    for p in (w1, b1, w2):
        orig = p.values.copy()

        def f(v, p=p):
            p.values = v.reshape(p.shape)
            _, out = forward()
            p.values = orig
            return float(out.values)

        numeric = central_diff(f, orig.copy())
        assert rel_err(p.grad, numeric) < 1e-4


# kind: (input shapes, output width, the Tape method applied to the inputs)
PRIMITIVES = {
    "matmul": ([(2, 3), (3, 2)], 2, Tape.matmul),
    "add": ([(2, 3), (2, 3)], 3, Tape.add),
    "bias_add": ([(2, 3), (3,)], 3, Tape.bias_add),
    "elementwise_tanh": ([(2, 3)], 3, Tape.tanh),
    "elementwise_relu": ([(2, 3)], 3, Tape.relu),
    "scale": ([(2, 3)], 3, lambda tape, x: tape.scale(x, 2.0)),
    "sum": ([(2, 3)], 1, Tape.sum),
    "dot": ([(4,), (4,)], 1, Tape.dot),
    "l2_normalize": ([(2, 3)], 3, Tape.l2_normalize),
    "mse": ([(2, 3), (2, 3)], 1, Tape.mse),
}


@pytest.mark.parametrize("kind", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(kind):
    """VJP of every primitive against central differences, 100 seeds."""
    shapes, out_width, op = PRIMITIVES[kind]

    def scalar_loss(tape, vals, weights):
        tensors = [Tensor(v, requires_grad=True) for v in vals]
        out = op(tape, *tensors)
        if out.values.ndim == 2:  # fold matrix outputs with a random cotangent
            out = tape.sum(tape.matmul(out, Tensor(weights)))
        elif out.values.ndim == 1:
            out = tape.dot(out, Tensor(weights[: out.values.size, 0]))
        return out, tensors

    for seed in range(100):
        rng = np.random.default_rng(seed)
        # keep relu inputs away from the kink where FD is meaningless
        inputs = [rng.normal(size=s) + (0.3 if kind == "elementwise_relu" else 0.0)
                  for s in shapes]
        weights = rng.normal(size=(out_width, 1))

        tape = Tape()
        out, tensors = scalar_loss(tape, inputs, weights)
        tape.backward(out)

        for i, tensor in enumerate(tensors):
            def f(v, i=i):
                vals = [u.copy() for u in inputs]
                vals[i] = v.reshape(vals[i].shape)
                t2 = Tape()
                o, _ = scalar_loss(t2, vals, weights)
                return float(o.values)

            numeric = central_diff(f, inputs[i].copy())
            assert rel_err(tensor.grad, numeric) < 1e-4, f"{kind} seed {seed} input {i}"


def test_softmax_cross_entropy_gradient_matches_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        tape = Tape()
        lt = Tensor(logits, requires_grad=True)
        tape.backward(tape.softmax_cross_entropy(lt, labels))

        def f(v):
            t = Tape()
            return float(t.softmax_cross_entropy(Tensor(v.reshape(4, 3)), labels).values)

        numeric = central_diff(f, logits.copy())
        assert rel_err(lt.grad, numeric) < 1e-4


def test_stop_gradient_leaves_without_requires_grad():
    t = Tape()
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w_frozen = Tensor([[1.0], [1.0]], requires_grad=False)
    loss = t.sum(t.matmul(x, w_frozen))
    t.backward(loss)
    assert x.grad is not None
    assert w_frozen.grad is None


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    x_vals = rng.normal(size=(4, 3))
    w_vals = rng.normal(size=(3, 3))

    def run():
        t = Tape()
        w = Tensor(w_vals, requires_grad=True)
        h = t.tanh(t.matmul(Tensor(x_vals), w))
        t.backward(t.mse(h, t.relu(h)))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_l2_normalize_output_norm_close_to_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=6) * 10.0 ** rng.uniform(-5, 2)
        if np.linalg.norm(v) <= 1e-6:
            continue
        t = Tape()
        out = t.l2_normalize(Tensor(v))
        assert abs(np.linalg.norm(out.values) - 1.0) < 1e-9


def test_grad_check_quadratic():
    def loss(v):
        return float(v @ v)

    x0 = np.array([1.0, 2.0, 3.0])
    assert grad_check(loss, x0, 2 * x0, h=1e-5) < 1e-7


def test_grad_check_constant_loss_is_zero():
    x0 = np.array([0.5, -0.5])
    assert grad_check(lambda v: 1.0, x0, np.zeros(2), h=1e-5) == 0.0


def test_shape_mismatch_raises():
    t = Tape()
    with pytest.raises(DimensionError):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        t.add(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        t.dot(Tensor(np.ones((2, 2))), Tensor(np.ones(4)))


def test_nonfinite_leaf_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf])


def test_backward_requires_scalar_loss():
    t = Tape()
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = t.tanh(x)
    with pytest.raises(ContractError):
        t.backward(y)
