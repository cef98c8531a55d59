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


# ---- Tape.mlp against its per-op composition --------------------------------


def per_op_mlp(tape, x, layers, activation):
    """The oracle: one matmul -> bias_add -> tanh|relu record per layer."""
    act = tape.tanh if activation == "tanh" else tape.relu
    h = x
    for i, (w, b) in enumerate(layers):
        h = tape.bias_add(tape.matmul(h, w), b)
        if i < len(layers) - 1:
            h = act(h)
    return h


def mlp_case(seed, n_layers, activation, x_grad, frozen_first):
    """Inputs, layers and a target of one random network; for relu, the
    first hidden layer gets pre-activations of exactly +0.0 (a zero weight
    column) and -0.0 (a product that underflows, then a -0.0 bias)."""
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(3, 7, size=n_layers + 1)]
    xs = [rng.normal(size=(5, widths[0])) for _ in range(2)]
    ws = [rng.normal(size=(i, o)) for i, o in zip(widths[:-1], widths[1:])]
    bs = [rng.normal(size=o) for o in widths[1:]]
    if activation == "relu" and n_layers > 1:
        ws[0][:, 0] = 0.0
        bs[0][0] = 0.0
        ws[0][:, 1] = 1e-200
        bs[0][1] = -0.0
        for x in xs:
            x[2] = -1e-200
    target = rng.normal(size=(5, widths[-1]))

    def tensors():
        x_t = [Tensor(x, requires_grad=x_grad) for x in xs]
        layers = [(Tensor(w, requires_grad=not (frozen_first and i == 0)),
                   Tensor(b, requires_grad=not (frozen_first and i == 0)))
                  for i, (w, b) in enumerate(zip(ws, bs))]
        return x_t, layers

    return tensors, target


def run_mlp(forward, tensors, target, activation):
    """Two inputs through one network, as the symmetrized loss uses it."""
    tape = Tape()
    xs, layers = tensors()
    outs = [forward(tape, x, layers, activation) for x in xs]
    loss = tape.add(*(tape.mse(out, Tensor(target)) for out in outs))
    tape.backward(loss)
    leaves = [*xs, *(t for layer in layers for t in layer)]
    return tape, outs, loss, leaves


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("frozen_first", [False, True])
def test_mlp_is_bit_identical_to_per_op_composition(n_layers, activation, x_grad, frozen_first):
    for seed in range(5):
        tensors, target = mlp_case(seed, n_layers, activation, x_grad, frozen_first)
        fused = run_mlp(lambda t, x, layers, act: t.mlp(x, layers, act),
                        tensors, target, activation)
        oracle = run_mlp(per_op_mlp, tensors, target, activation)
        for out, ref in zip(fused[1], oracle[1]):
            assert out.values.tobytes() == ref.values.tobytes()
            assert out.requires_grad == ref.requires_grad
        assert fused[2].values.tobytes() == oracle[2].values.tobytes()
        for leaf, ref in zip(fused[3], oracle[3]):
            assert (leaf.grad is None) == (ref.grad is None)
            if ref.grad is not None:
                assert leaf.grad.tobytes() == ref.grad.tobytes()
        assert (fused[3][0].grad is not None) == x_grad
        # one record per network pass, plus the two mse and the add; none
        # when no input of the single frozen layer needs a gradient
        needs_grad = x_grad or n_layers > 1 or not frozen_first
        assert len(fused[0]._records) == (5 if needs_grad else 0)


def test_relu_case_has_both_signed_zero_pre_activations():
    tensors, _ = mlp_case(0, 2, "relu", False, False)
    xs, layers = tensors()
    w, b = layers[0]
    pre = xs[0].values @ w.values + b.values
    zeros = pre[pre == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    shapes = [(3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
    flat0 = np.concatenate([rng.normal(size=s).ravel() for s in shapes])
    target = rng.normal(size=(4, 2))

    def build(flat, requires_grad):
        parts, at = [], 0
        for s in shapes:
            n = int(np.prod(s))
            parts.append(Tensor(flat[at:at + n].reshape(s), requires_grad))
            at += n
        return list(zip(parts[::2], parts[1::2]))

    def loss_at(flat):
        t = Tape()
        return float(t.mse(t.mlp(Tensor(x), build(flat, False), activation),
                           Tensor(target)).values)

    t = Tape()
    layers = build(flat0, True)
    t.backward(t.mse(t.mlp(Tensor(x), layers, activation), Tensor(target)))
    analytic = np.concatenate([p.grad.ravel() for layer in layers for p in layer])
    assert grad_check(loss_at, flat0, analytic) < 1e-4


def test_mlp_rejects_bad_shapes_and_activation():
    t = Tape()
    good = (Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        t.mlp(Tensor(np.ones((4, 3))), [good], "tanh")
    with pytest.raises(DimensionError):
        t.mlp(Tensor(np.ones((4, 2))), [good, good], "tanh")
    with pytest.raises(DimensionError):
        t.mlp(Tensor(np.ones((4, 2))), [(good[0], Tensor(np.zeros(2)))], "tanh")
    with pytest.raises(DimensionError):
        t.mlp(Tensor(np.ones(2)), [good], "tanh")
    with pytest.raises(DimensionError):
        t.mlp(Tensor(np.ones((4, 2))), [], "tanh")
    with pytest.raises(ContractError):
        t.mlp(Tensor(np.ones((4, 2))), [good], "sigmoid")
