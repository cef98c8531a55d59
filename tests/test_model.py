import copy
import dataclasses

import numpy as np
import pytest
from gradcheck import grad_check, requires_grad, tape_online_grad

from mcbyol.autodiff import Tape, Tensor
from mcbyol.config import ModelSection
from mcbyol.errors import ConfigError, ContractError, DimensionError
from mcbyol.model import (byol_loss_one_direction, byol_loss_symmetrized, ema_update,
                          init_twin, mlp_forward_np)
from mcbyol.params import ParamVector
from mcbyol.sampler import direction_grad

TINY = ModelSection(encoder_hidden=[4], embed_dim=3, proj_hidden=3, proj_dim=2, pred_hidden=3)


def tiny_model(seed=0, tau=0.99):
    return init_twin(dataclasses.replace(TINY, tau=tau), 3, seed)


def test_init_target_copies_online():
    m = tiny_model()
    assert np.array_equal(m.online_encoder.flatten(), m.target_encoder.flatten())
    assert np.array_equal(m.online_projector.flatten(), m.target_projector.flatten())


def test_init_passes_tau_through():
    assert tiny_model(0, tau=0.7).cfg.tau == 0.7
    # tau does not touch init
    assert np.array_equal(tiny_model(0, tau=0.7).online_encoder.flatten(),
                          tiny_model(0, tau=0.2).online_encoder.flatten())


def test_init_same_seed_is_bit_identical():
    a, b = tiny_model(5), tiny_model(5)
    assert np.array_equal(a.online_flat(), b.online_flat())


def test_init_different_seeds_differ():
    a, b = tiny_model(5), tiny_model(6)
    assert np.any(a.online_flat() != b.online_flat())


def test_target_never_requires_grad():
    m = tiny_model()
    assert all(not t.requires_grad for _, t in m.target_encoder.items())
    assert all(not t.requires_grad for _, t in m.target_projector.items())


def test_inconsistent_widths_rejected():
    with pytest.raises(ConfigError):
        ModelSection(encoder_hidden=[0], embed_dim=3)
    with pytest.raises(ConfigError):
        ModelSection(activation="sigmoid")


def test_flatten_roundtrip_is_bit_exact():
    m = tiny_model(2)
    flat = m.online_flat()
    m2 = tiny_model(3)
    m2.set_online_flat(flat)
    assert np.array_equal(m2.online_flat(), flat)
    seg = m.online_encoder
    vec = seg.flatten()
    seg.set_flat(vec)
    assert np.array_equal(seg.flatten(), vec)


# ---- ParamVector ------------------------------------------------------------


def test_param_vector_wraps_a_float64_array_without_copying_it():
    w, b = np.zeros((2, 3)), np.zeros(3)
    pv = ParamVector({"w": w, "b": b})
    pv["w"].values[1, 2] = 5.0
    assert w[1, 2] == 5.0 and pv["b"].values is b
    assert pv.names == ["w", "b"] and not pv["w"].requires_grad and pv["w"].grad is None


def test_param_vector_keeps_a_given_tensor():
    t = Tensor(np.ones(3), requires_grad=True)
    pv = ParamVector({"a": np.ones(2), "t": t})
    assert pv["t"] is t and pv["t"].requires_grad


def test_param_vector_copy_has_arrays_of_its_own_and_no_gradient():
    m = tiny_model(4)
    a, b = np.random.default_rng(6).normal(size=(2, 5, 3))
    tape_online_grad(byol_loss_symmetrized, m, a, b)
    pv = m.online_encoder
    assert all(t.requires_grad and t.grad is not None for _, t in pv.items())
    c = pv.copy()
    assert c.names == pv.names and c.flatten().tobytes() == pv.flatten().tobytes()
    for (_, t), (_, orig) in zip(c.items(), pv.items()):
        assert not np.shares_memory(t.values, orig.values)
        assert t.grad is None and not t.requires_grad
    before = pv.flatten()
    c.set_flat(c.flatten() + 1.0)
    assert pv.flatten().tobytes() == before.tobytes()


# ---- loss values ------------------------------------------------------------


def _loss_for_unit_vectors(q_unit, y_unit):
    """Per-sample loss when the normalized branches equal the given unit rows."""
    t = Tape()
    return float(t.mse(Tensor(q_unit), Tensor(y_unit)).values)


def test_identical_directions_give_zero_loss():
    v = np.array([[1.0, 0.0]])
    assert _loss_for_unit_vectors(v, v) == 0.0


def test_orthogonal_directions_give_loss_two():
    q = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1.0]])
    assert _loss_for_unit_vectors(q, y) == 2.0


def test_antipodal_directions_give_loss_four():
    q = np.array([[1.0, 0.0]])
    assert _loss_for_unit_vectors(q, -q) == 4.0


def byol_loss_cosine_form(model, view_a, view_b):
    """Independent numpy evaluation of the one-direction loss as
    2 - 2<q_bar, y_bar>, averaged over the batch."""
    act = model.cfg.activation
    q = mlp_forward_np(model.online_predictor,
                       mlp_forward_np(model.online_projector,
                                      mlp_forward_np(model.online_encoder, view_a, act), act), act)
    y = mlp_forward_np(model.target_projector,
                       mlp_forward_np(model.target_encoder, view_b, act), act)
    q_bar = q / (np.linalg.norm(q, axis=1, keepdims=True) + 1e-12)
    y_bar = y / (np.linalg.norm(y, axis=1, keepdims=True) + 1e-12)
    cos = (q_bar * y_bar).sum(axis=1)
    return float(np.mean(2.0 - 2.0 * cos))


def test_mse_form_equals_cosine_form():
    rng = np.random.default_rng(0)
    for seed in range(20):
        m = tiny_model(seed)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        t = Tape()
        mse_val = float(byol_loss_one_direction(t, m, a, b).values)
        assert mse_val == pytest.approx(byol_loss_cosine_form(m, a, b), abs=1e-9)


def test_one_direction_loss_range():
    rng = np.random.default_rng(1)
    for seed in range(30):
        m = tiny_model(seed)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        t = Tape()
        v = float(byol_loss_one_direction(t, m, a, b).values)
        assert 0.0 <= v <= 4.0
        t = Tape()
        s = float(byol_loss_symmetrized(t, m, a, b).values)
        assert 0.0 <= s <= 8.0


def test_symmetrized_equals_sum_of_directions():
    rng = np.random.default_rng(2)
    m = tiny_model(7)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    t = Tape()
    total = float(byol_loss_symmetrized(t, m, a, b).values)
    t1, t2 = Tape(), Tape()
    parts = (float(byol_loss_one_direction(t1, m, a, b).values)
             + float(byol_loss_one_direction(t2, m, b, a).values))
    assert total == pytest.approx(parts, abs=1e-12)


def test_symmetrized_is_view_order_invariant():
    rng = np.random.default_rng(3)
    m = tiny_model(8)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    ta, tb = Tape(), Tape()
    v1 = float(byol_loss_symmetrized(ta, m, a, b).values)
    v2 = float(byol_loss_symmetrized(tb, m, b, a).values)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_batch_size_mismatch_rejected():
    m = tiny_model()
    with pytest.raises(DimensionError):
        byol_loss_one_direction(Tape(), m, np.ones((3, 3)), np.ones((4, 3)))


# ---- gradients --------------------------------------------------------------


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    m = tiny_model(9)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    analytic = tape_online_grad(byol_loss_symmetrized, m, a, b)

    def loss_at(flat):
        probe = copy.deepcopy(m)
        probe.set_online_flat(flat)
        return float(byol_loss_symmetrized(Tape(), probe, a, b).values)

    assert grad_check(loss_at, m.online_flat(), analytic, h=1e-5) < 1e-4


def test_stop_gradient_on_target_network():
    rng = np.random.default_rng(5)
    for seed in range(5):
        m = tiny_model(seed)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        online = tape_online_grad(byol_loss_symmetrized, m, a, b)
        for pv in (m.target_encoder, m.target_projector):
            assert all(tt.grad is None for _, tt in pv.items())
        assert np.any(online != 0.0)


# ---- EMA --------------------------------------------------------------------


def test_ema_tau_one_keeps_target():
    m = tiny_model(0, tau=1.0)
    before = m.target_encoder.flatten().copy()
    m.set_online_flat(m.online_flat() + 1.0)
    ema_update(m)
    assert np.array_equal(m.target_encoder.flatten(), before)


def test_ema_tau_zero_copies_online():
    m = tiny_model(0, tau=0.0)
    m.set_online_flat(m.online_flat() + 0.5)
    ema_update(m)
    assert np.array_equal(m.target_encoder.flatten(), m.online_encoder.flatten())
    assert np.array_equal(m.target_projector.flatten(), m.online_projector.flatten())


def test_ema_arithmetic_anchor():
    m = tiny_model(0, tau=0.99)
    name = m.target_encoder.names[0]
    m.target_encoder[name].values[...] = 1.0
    m.online_encoder[name].values[...] = 0.0
    ema_update(m)
    assert np.allclose(m.target_encoder[name].values, 0.99)


def test_ema_is_convex_combination():
    rng = np.random.default_rng(6)
    for seed in range(10):
        m = tiny_model(seed, tau=float(rng.uniform(0, 1)))
        m.set_online_flat(rng.normal(size=m.online_dim))
        lo_e = np.minimum(m.target_encoder.flatten(), m.online_encoder.flatten())
        hi_e = np.maximum(m.target_encoder.flatten(), m.online_encoder.flatten())
        ema_update(m)
        after = m.target_encoder.flatten()
        assert np.all(after >= lo_e - 1e-12) and np.all(after <= hi_e + 1e-12)


def test_predictor_has_no_target_counterpart():
    m = tiny_model()
    before = m.online_predictor.flatten().copy()
    ema_update(m)
    assert np.array_equal(m.online_predictor.flatten(), before)
    assert not hasattr(m, "target_predictor")


# ---- encoder features (what BMA and linear evaluation run) -------------------


def test_zero_weight_encoder_embeds_to_zero():
    m = tiny_model()
    for _, t in m.online_encoder.items():
        t.values[...] = 0.0
    x = np.random.default_rng(0).normal(size=(4, 3))
    z = mlp_forward_np(m.online_encoder, x, m.cfg.activation)
    assert np.array_equal(z, np.zeros((4, 3)))


def test_embed_batch_independence():
    # BLAS picks different kernels per batch shape, so equality is to 1 ulp
    rng = np.random.default_rng(7)
    m = tiny_model(1)
    batch = rng.normal(size=(8, 3))
    full = mlp_forward_np(m.online_encoder, batch, m.cfg.activation)
    row = mlp_forward_np(m.online_encoder, batch[2:3], m.cfg.activation)
    assert np.allclose(full[2], row[0], rtol=0, atol=1e-12)


def test_embed_dim_matches_config():
    rng = np.random.default_rng(8)
    for seed in range(5):
        input_dim = int(rng.integers(2, 6))
        dims = dict(encoder_hidden=[int(rng.integers(3, 9))],
                    embed_dim=int(rng.integers(2, 7)))
        arch = ModelSection(**dims)
        m = init_twin(arch, input_dim, seed)
        x = rng.normal(size=(3, input_dim))
        z = mlp_forward_np(m.online_encoder, x, arch.activation)
        assert z.shape == (3, dims["embed_dim"])


def test_tape_and_numpy_forward_agree():
    from mcbyol.model import mlp_forward
    rng = np.random.default_rng(9)
    m = tiny_model(3)
    x = rng.normal(size=(6, 3))
    t = Tape()
    via_tape = mlp_forward(t, m.online_encoder, Tensor(x), "tanh").values
    via_np = mlp_forward_np(m.online_encoder, x, "tanh")
    assert np.array_equal(via_tape, via_np)
    relu_tape = mlp_forward(Tape(), m.online_encoder, Tensor(x), "relu").values
    assert relu_tape.tobytes() == mlp_forward_np(m.online_encoder, x, "relu").tobytes()


def test_tape_forward_rejects_an_unknown_activation_and_a_bad_width():
    from mcbyol.model import mlp_forward
    m = tiny_model(3)
    with pytest.raises(ContractError):
        mlp_forward(Tape(), m.online_encoder, Tensor(np.ones((4, 3))), "sigmoid")
    with pytest.raises(DimensionError):
        mlp_forward(Tape(), m.online_encoder, Tensor(np.ones((4, 2))), "tanh")


def test_symmetrized_loss_records_each_layer_op_by_op():
    """Per direction: each of the three two-layer online networks as
    matmul -> bias_add -> tanh -> matmul -> bias_add, then l2_normalize and
    mse; the target branch records nothing, and no record reads a target
    tensor.  Then one add: 35 records in all."""
    rng = np.random.default_rng(4)
    m = tiny_model(2)
    for p in m.online_parts():
        requires_grad(p)
    t = Tape()
    byol_loss_symmetrized(t, m, rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    kinds = [fn.__qualname__.split(".")[1] for _, _, fn in t._records]
    network = ["matmul", "bias_add", "tanh", "matmul", "bias_add"]
    direction = network * 3 + ["l2_normalize", "mse"]
    assert kinds == direction * 2 + ["add"]
    target = {id(tensor) for p in (m.target_encoder, m.target_projector)
              for _, tensor in p.items()}
    assert not any(id(tensor) in target for _, inputs, _ in t._records for tensor in inputs)


# ---- the two shared weight arrays -------------------------------------------


def weight_arrays(m):
    """The model's two flat arrays and every tensor's values."""
    parts = (*m.online_parts(), m.target_encoder, m.target_projector)
    return [m.online, m.target] + [t.values for p in parts for _, t in p.items()]


def test_every_tensor_views_one_of_the_two_arrays():
    m = tiny_model(1)
    targets = (m.target_encoder, m.target_projector)
    for parts, flat in ((m.online_parts(), m.online), (targets, m.target)):
        assert flat.tobytes() == np.concatenate([p.flatten() for p in parts]).tobytes()
        assert all(t.values.base is flat for p in parts for _, t in p.items())
    assert m.target.size == m.online_encoder.total_dim + m.online_projector.total_dim


def test_mutating_online_flat_leaves_the_model_unchanged():
    m = tiny_model(1)
    before = [a.copy() for a in weight_arrays(m)]
    flat = m.online_flat()
    flat += 1.0
    flat[0] = np.nan
    assert all(a.tobytes() == b.tobytes() for a, b in zip(weight_arrays(m), before))


def test_a_part_set_flat_shows_in_online_flat_and_direction_grad():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 5, 3))
    m = tiny_model(1)
    oracle = copy.deepcopy(m)
    start = m.encoder_dim
    stop = start + m.online_projector.total_dim
    vec = rng.normal(size=stop - start)
    m.online_projector.set_flat(vec)
    assert m.online_flat()[start:stop].tobytes() == vec.tobytes()
    assert all(t.values.base is m.online for _, t in m.online_projector.items())
    # the oracle takes the same weights through set_online_flat
    flat = oracle.online_flat()
    unchanged = direction_grad(oracle, a, b)[0]
    flat[start:stop] = vec
    oracle.set_online_flat(flat)
    assert m.online_flat().tobytes() == flat.tobytes()
    grad = direction_grad(m, a, b)[0]
    assert grad.tobytes() == direction_grad(oracle, a, b)[0].tobytes()
    assert grad.tobytes() != unchanged.tobytes()


def test_a_deepcopy_has_arrays_of_its_own():
    m = tiny_model(2)
    probe = copy.deepcopy(m)
    assert probe.cfg == m.cfg and probe.cfg is not m.cfg
    assert all(x.tobytes() == y.tobytes() for x, y in zip(weight_arrays(probe), weight_arrays(m)))
    assert not any(np.shares_memory(x, y) for x in weight_arrays(probe) for y in weight_arrays(m))
    assert all(t.values.base is probe.online for p in probe.online_parts() for _, t in p.items())
    before = [x.copy() for x in weight_arrays(m)]
    probe.set_online_flat(probe.online_flat() + 1.0)
    ema_update(probe)
    assert probe.online_encoder.flatten().tobytes() == (before[0][:m.encoder_dim] + 1.0).tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(weight_arrays(m), before))


def per_tensor_ema(model):
    """The EMA as a loop over the target tensors, each rebound to a new
    array: the oracle for ema_update's one expression."""
    tau = model.cfg.tau
    for target, online in ((model.target_encoder, model.online_encoder),
                           (model.target_projector, model.online_projector)):
        for name, t in target.items():
            t.values = tau * t.values + (1.0 - tau) * online[name].values


@pytest.mark.parametrize("tau", [0.0, 0.5, 0.9, 0.99, 0.996, 1.0])
def test_ema_update_equals_the_per_tensor_loop(tau):
    rng = np.random.default_rng(int(tau * 1000))
    m = tiny_model(4, tau=tau)
    oracle = copy.deepcopy(m)
    for _ in range(6):
        step = rng.normal(scale=rng.choice([1e-8, 1e-2, 10.0]), size=m.online_dim)
        m.set_online_flat(m.online_flat() + step)
        oracle.set_online_flat(oracle.online_flat() + step)
        ema_update(m)
        per_tensor_ema(oracle)
        expected = np.concatenate([oracle.target_encoder.flatten(),
                                   oracle.target_projector.flatten()])
        assert m.target.tobytes() == expected.tobytes()
        assert m.target_encoder.flatten().tobytes() == oracle.target_encoder.flatten().tobytes()


def test_targets_must_match_the_online_layout():
    m = tiny_model(0)
    parts = (m.online_encoder, m.online_projector, m.online_predictor)
    with pytest.raises(DimensionError, match="target networks must match"):
        type(m)(m.cfg, *parts, m.online_projector.copy(), m.target_projector)
