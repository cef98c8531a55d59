import numpy as np
import pytest
from gradcheck import grad_check

from mcbyol.autodiff import Tape, Tensor, mlp_backward, mlp_layers
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
    out = t.l2_normalize(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.values, [[0.6, 0.8]], atol=1e-9)


def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4))
    t = Tape()
    out = t.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 4)
    assert np.allclose(out.values, naive_matmul(a, b), atol=1e-12)


def test_two_layer_tanh_network_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    w1 = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 2)) * 0.5, requires_grad=True)
    target = Tensor(rng.normal(size=(5, 2)))

    def forward():
        t = Tape()
        h = t.tanh(t.bias_add(t.matmul(Tensor(x), w1), b1))
        return t, t.mse(t.matmul(h, w2), target)

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


# kind: (input shapes, output shape or None for a scalar, the Tape method)
PRIMITIVES = {
    "matmul": ([(2, 3), (3, 2)], (2, 2), Tape.matmul),
    "add": ([(2, 3), (2, 3)], (2, 3), Tape.add),
    "bias_add": ([(2, 3), (3,)], (2, 3), Tape.bias_add),
    "elementwise_tanh": ([(2, 3)], (2, 3), Tape.tanh),
    "elementwise_relu": ([(2, 3)], (2, 3), Tape.relu),
    "l2_normalize": ([(2, 3)], (2, 3), Tape.l2_normalize),
    "mse": ([(2, 3), (2, 3)], None, Tape.mse),
}


@pytest.mark.parametrize("kind", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(kind):
    """VJP of every primitive against central differences, 100 seeds."""
    shapes, out_shape, op = PRIMITIVES[kind]

    def scalar_loss(tape, vals, target):
        tensors = [Tensor(v, requires_grad=True) for v in vals]
        out = op(tape, *tensors)
        if out_shape is not None:  # fold matrix outputs with mse against a fixed target
            out = tape.mse(out, Tensor(target))
        return out, tensors

    for seed in range(100):
        rng = np.random.default_rng(seed)
        # keep relu inputs away from the kink where FD is meaningless
        inputs = [rng.normal(size=s) + (0.3 if kind == "elementwise_relu" else 0.0)
                  for s in shapes]
        target = rng.normal(size=out_shape) if out_shape is not None else None

        tape = Tape()
        out, tensors = scalar_loss(tape, inputs, target)
        tape.backward(out)

        for i, tensor in enumerate(tensors):
            def f(v, i=i):
                vals = [u.copy() for u in inputs]
                vals[i] = v.reshape(vals[i].shape)
                t2 = Tape()
                o, _ = scalar_loss(t2, vals, target)
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
    loss = t.mse(t.matmul(x, w_frozen), Tensor([[0.0]]))
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
        v = rng.normal(size=(1, 6)) * 10.0 ** rng.uniform(-5, 2)
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
        t.l2_normalize(Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        t.mse(Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        t.mse(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3))))


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


# ---- mlp_layers and mlp_backward against the per-op tape ---------------------


def per_op_mlp(tape, x, layers, activation):
    """The oracle: one matmul -> bias_add -> tanh|relu record per layer."""
    act = tape.tanh if activation == "tanh" else tape.relu
    h = x
    for i, (w, b) in enumerate(layers):
        h = tape.bias_add(tape.matmul(h, w), b)
        if i < len(layers) - 1:
            h = act(h)
    return h


def mlp_case(seed, n_layers, activation, rows=5):
    """Two inputs of `rows` rows, the layers and a target of one random
    network; for relu, the first hidden layer gets pre-activations of
    exactly +0.0 (a zero weight column) and -0.0 (a product that
    underflows, then a -0.0 bias)."""
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(3, 7, size=n_layers + 1)]
    xs = [rng.normal(size=(rows, widths[0])) for _ in range(2)]
    ws = [rng.normal(size=(i, o)) for i, o in zip(widths[:-1], widths[1:])]
    bs = [rng.normal(size=o) for o in widths[1:]]
    if activation == "relu" and n_layers > 1:
        ws[0][:, 0] = 0.0
        bs[0][0] = 0.0
        ws[0][:, 1] = 1e-200
        bs[0][1] = -0.0
        for x in xs:
            x[min(2, rows - 1)] = -1e-200
    target = rng.normal(size=(rows, widths[-1]))
    return xs, list(zip(ws, bs)), target


def tape_mlp_grads(xs, layers, target, activation, input_grad):
    """Both inputs through one network, as the symmetrized loss uses it, on
    the per-op tape: the two outputs, the loss, and the gradients of the
    two inputs and of [W0, b0, W1, b1, ...]."""
    tape = Tape()
    x_t = [Tensor(x, requires_grad=input_grad) for x in xs]
    leaves = [Tensor(a, requires_grad=True) for layer in layers for a in layer]
    pairs = list(zip(leaves[::2], leaves[1::2]))
    outs = [per_op_mlp(tape, x, pairs, activation) for x in x_t]
    loss = tape.add(*(tape.mse(out, Tensor(target)) for out in outs))
    tape.backward(loss)
    return ([o.values for o in outs], loss.values, [x.grad for x in x_t],
            [leaf.grad for leaf in leaves])


def closed_form_mlp_grads(xs, layers, target, activation, input_grad):
    """The same from mlp_layers and mlp_backward: mse's adjoint of each
    output, each weight's two gradients summed and, like every tape leaf's,
    added to 0.0."""
    outs, losses, x_grads, weight_grads = [], [], [], []
    for x in xs:
        out = mlp_layers(x, layers, activation)
        d = out[-1] - target
        gx, grads = mlp_backward(x, layers, out, (2.0 / len(d)) * d, activation, input_grad)
        outs.append(out[-1])
        losses.append((d * d).sum() / len(d))
        x_grads.append(None if gx is None else gx + 0.0)
        weight_grads.append(grads)
    summed = [a + b + 0.0 for a, b in zip(*weight_grads)]
    return outs, np.asarray(losses[0] + losses[1]), x_grads, summed


# a small batch, the tests' usual one and the pretraining batch of
# configs/default.cfg, where the weight gradients' products and the bias
# gradients' column sums run over many rows (one row does not do: numpy's
# product of a single row sums the underflowing -0.0 products to +0.0)
BATCH_ROWS = [2, 5, 256]


@pytest.mark.parametrize("rows", BATCH_ROWS)
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("input_grad", [False, True])
def test_mlp_is_bit_identical_to_per_op_composition(n_layers, activation, input_grad, rows):
    for seed in range(5):
        case = mlp_case(seed, n_layers, activation, rows)
        closed = closed_form_mlp_grads(*case, activation, input_grad)
        oracle = tape_mlp_grads(*case, activation, input_grad)
        assert [o.tobytes() for o in closed[0]] == [o.tobytes() for o in oracle[0]]
        assert closed[1].tobytes() == oracle[1].tobytes()
        assert all((g is None) == (not input_grad) for g in closed[2] + oracle[2])
        if input_grad:
            assert [g.tobytes() for g in closed[2]] == [g.tobytes() for g in oracle[2]]
        assert len(closed[3]) == len(oracle[3]) == 2 * n_layers
        assert [g.tobytes() for g in closed[3]] == [g.tobytes() for g in oracle[3]]


@pytest.mark.parametrize("rows", BATCH_ROWS)
def test_relu_case_has_both_signed_zero_pre_activations(rows):
    xs, layers, _ = mlp_case(0, 2, "relu", rows)
    w, b = layers[0]
    pre = xs[0] @ w + b
    zeros = pre[pre == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_backward_matches_finite_differences(activation, n_layers):
    """The input's and every weight's gradient of an mse loss."""
    rng = np.random.default_rng(3)
    widths = [3, 5, 4, 2][-(n_layers + 1):]
    shapes = [(4, widths[0])] + [s for i, o in zip(widths[:-1], widths[1:]) for s in ((i, o), (o,))]
    flat0 = np.concatenate([rng.normal(size=s).ravel() for s in shapes])
    target = rng.normal(size=(4, widths[-1]))

    def split(flat):
        parts, at = [], 0
        for s in shapes:
            n = int(np.prod(s))
            parts.append(flat[at:at + n].reshape(s))
            at += n
        return parts[0], list(zip(parts[1::2], parts[2::2]))

    def loss_at(flat):
        x, layers = split(flat)
        d = mlp_layers(x, layers, activation)[-1] - target
        return float((d * d).sum() / len(d))

    x, layers = split(flat0)
    outs = mlp_layers(x, layers, activation)
    gx, grads = mlp_backward(x, layers, outs, (2.0 / len(x)) * (outs[-1] - target),
                             activation, input_grad=True)
    analytic = np.concatenate([gx.ravel(), *(g.ravel() for g in grads)])
    assert grad_check(loss_at, flat0, analytic) < 1e-4


# ---- mlp_layers into caller-given buffers -------------------------------------


@pytest.mark.parametrize("rows", [1, 7, 2000])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_layers_into_buffers_keeps_the_bits_of_fresh_arrays(activation, rows):
    rng = np.random.default_rng(rows)
    widths = [10, 64, 64, 16]
    layers = [(rng.standard_normal((m, n)) / np.sqrt(m), rng.standard_normal(n))
              for m, n in zip(widths[:-1], widths[1:])]
    x = rng.standard_normal((rows, widths[0]))
    fresh = mlp_layers(x, layers, activation)
    bufs = [np.full((rows, n), np.nan) for n in widths[1:]]
    outs = mlp_layers(x, layers, activation, out=bufs)
    assert all(o is b for o, b in zip(outs, bufs)) and len(outs) == len(bufs)
    assert [o.tobytes() for o in outs] == [f.tobytes() for f in fresh]
    again = mlp_layers(x[::-1].copy(), layers, activation, out=bufs)  # the buffers' second use
    assert [o.tobytes() for o in again] == [f.tobytes() for f in
                                            mlp_layers(x[::-1].copy(), layers, activation)]
