import copy
import math

import numpy as np
import pytest
from gradcheck import grad_check, tape_online_grad

from mcbyol.autodiff import Tape
from mcbyol.config import ModelSection, SamplerSection
from mcbyol.errors import ConfigError, ContractError, DivergenceError, NumericError
from mcbyol.model import byol_loss_one_direction, byol_loss_symmetrized, init_twin
from mcbyol.sampler import (DIVERGENCE_LIMIT, cyclic_lr, direction_grad, diverged,
                            divergence_error, make_state, noise_active, noise_scale,
                            posterior_grad, sghmc_step, sgld_step, should_yield)

TINY = ModelSection(encoder_hidden=[4], embed_dim=3, proj_hidden=3, proj_dim=2, pred_hidden=3)


def tiny_twin(seed):
    return init_twin(TINY, 3, seed)


def cfg_for(**kw):
    base = dict(kind="csghmc", lr0=0.2, beta=0.9, temperature=0.1,
                cycle_len=50, total_steps=200, noise_start_frac=0.8, prior_std=1.0)
    base.update(kw)
    return SamplerSection(**base)


# ---- schedule ---------------------------------------------------------------


def test_lr_at_cycle_start_is_lr0():
    cfg = cfg_for()
    for k in (0, 50, 100, 150):
        assert cyclic_lr(cfg, k) == pytest.approx(0.2, abs=1e-15)


def test_lr_at_cycle_midpoint():
    cfg = cfg_for()
    assert cyclic_lr(cfg, 25) == pytest.approx(0.1, abs=1e-12)


def test_lr_at_last_step_of_cycle():
    cfg = cfg_for()
    expected = (0.2 / 2) * (np.cos(np.pi * 49 / 50) + 1.0)
    assert cyclic_lr(cfg, 49) == pytest.approx(expected, abs=1e-15)
    assert cyclic_lr(cfg, 49) == pytest.approx(0.2 * 0.000987, rel=1e-2)


def test_lr_is_periodic():
    cfg = cfg_for()
    for k in range(150):
        assert cyclic_lr(cfg, k) == pytest.approx(cyclic_lr(cfg, k + 50), abs=1e-15)


def test_lr_max_over_cycle_is_at_start():
    cfg = cfg_for()
    values = [cyclic_lr(cfg, k) for k in range(50)]
    assert max(values) == values[0] == 0.2


def test_map_sgd_lr_is_constant():
    cfg = cfg_for(kind="map_sgd")
    assert all(cyclic_lr(cfg, k) == 0.2 for k in range(0, 200, 7))


def test_lr_out_of_range_rejected():
    cfg = cfg_for()
    with pytest.raises(ContractError):
        cyclic_lr(cfg, -1)
    with pytest.raises(ContractError):
        cyclic_lr(cfg, 200)


def test_cycle_len_one_gives_constant_schedule():
    cfg = cfg_for(cycle_len=1, noise_start_frac=0.0)
    assert all(cyclic_lr(cfg, k) == pytest.approx(0.2, abs=1e-15) for k in range(20))


# ---- what each kind does ----------------------------------------------------

COSINE = [(0.2 / 2) * (np.cos(np.pi * p / 7) + 1.0) for p in range(7)] * 2
TAIL = ([False] * 4 + [True] * 3) * 2  # positions >= 0.5 * 7 of each cycle


@pytest.mark.parametrize("kind,lrs,noise", [
    ("map_sgd", [0.2] * 14, [False] * 14),
    ("snap_sgd", COSINE, [False] * 14),
    ("sgld", [0.2] * 14, [True] * 14),
    ("sghmc", [0.2] * 14, [True] * 14),
    ("csghmc", COSINE, TAIL),
])
def test_each_kind_has_its_own_lr_and_noise_schedule(kind, lrs, noise):
    # two cycles: only the cyclic kinds restart the cosine and gate the noise
    cfg = cfg_for(kind=kind, cycle_len=7, total_steps=14, noise_start_frac=0.5)
    assert [cyclic_lr(cfg, k) for k in range(14)] == lrs
    assert [noise_active(cfg, k) for k in range(14)] == noise
    assert [k for k in range(14) if should_yield(cfg, k)] == [6, 13]


# ---- noise gating and yields ------------------------------------------------


def test_noise_activates_at_80_percent_of_cycle():
    cfg = cfg_for()
    active = [k for k in range(50) if noise_active(cfg, k)]
    assert active == list(range(40, 50))


def test_noiseless_kinds_never_inject():
    for kind in ("map_sgd", "snap_sgd"):
        cfg = cfg_for(kind=kind, noise_start_frac=0.0)
        assert not any(noise_active(cfg, k) for k in range(200))


def test_noise_start_frac_bounds():
    cfg_on = cfg_for(noise_start_frac=0.0)
    assert all(noise_active(cfg_on, k) for k in range(200))
    # the latest start leaves one noisy step, the last of each cycle
    cfg_last = cfg_for(noise_start_frac=49 / 50)
    assert [k for k in range(200) if noise_active(cfg_last, k)] == [49, 99, 149, 199]
    # a later one leaves none, so csghmc would run as snap_sgd under its own name
    for frac, cycle_len in ((1.0, 50), (0.99, 50), (0.8, 1), (0.6, 2)):
        with pytest.raises(ConfigError, match="leaves no noisy step"):
            cfg_for(noise_start_frac=frac, cycle_len=cycle_len)
    assert cfg_for(noise_start_frac=0.5, cycle_len=2).noise_start_frac == 0.5
    assert cfg_for(kind="snap_sgd", noise_start_frac=1.0, cycle_len=1).cycle_len == 1


def test_should_yield_cycle_end():
    cfg = cfg_for()
    assert should_yield(cfg, 49)
    assert not should_yield(cfg, 48)


def test_exactly_four_yields_in_200_steps():
    cfg = cfg_for()
    yields = [k for k in range(200) if should_yield(cfg, k)]
    assert yields == [49, 99, 149, 199]


def test_all_kinds_collect_equally_many_snapshots():
    counts = {kind: sum(should_yield(cfg_for(kind=kind), k) for k in range(200))
              for kind in ("map_sgd", "snap_sgd", "sgld", "sghmc", "csghmc")}
    assert set(counts.values()) == {4}


# ---- config validation ------------------------------------------------------


def test_config_invariants_enforced():
    with pytest.raises(ConfigError):
        cfg_for(kind="adam")
    with pytest.raises(ConfigError):
        cfg_for(lr0=0.0)
    with pytest.raises(ConfigError):
        cfg_for(beta=1.0)
    with pytest.raises(ConfigError):
        cfg_for(temperature=0.0)
    with pytest.raises(ConfigError):
        cfg_for(noise_start_frac=1.5)
    with pytest.raises(ConfigError):
        cfg_for(prior_std=0.0)


# ---- posterior gradient -----------------------------------------------------


def test_prior_gradient_on_encoder_slice():
    m = tiny_twin(0)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    n = 10
    cfg = cfg_for(prior_std=1.0)
    # zero the likelihood part by comparing two prior scales
    g1, _ = posterior_grad(m, a, a.copy(), cfg, n)
    g2, _ = posterior_grad(m, a, a.copy(), cfg_for(prior_std=1e9), n)
    d_enc = m.encoder_dim
    prior_term = g1 - g2
    assert np.allclose(prior_term[:d_enc], m.online_encoder.flatten() / n, atol=1e-9)
    assert np.allclose(prior_term[d_enc:], 0.0)


def test_prior_vanishes_for_large_dataset():
    m = tiny_twin(1)
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    g_small, _ = posterior_grad(m, a, b, cfg_for(), 10)
    g_large, _ = posterior_grad(m, a, b, cfg_for(), 10_000_000)
    d_enc = m.encoder_dim
    # likelihood part identical; prior shrinks ~ 1/n
    assert np.allclose(g_small[d_enc:], g_large[d_enc:])
    enc = m.online_encoder.flatten()
    assert np.allclose(g_small[:d_enc] - g_large[:d_enc], enc / 10 - enc / 10_000_000)


def test_prior_locality_only_encoder_changes():
    m = tiny_twin(2)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    g_prior, _ = posterior_grad(m, a, b, cfg_for(prior_std=0.3), 5)
    g_flat, _ = posterior_grad(m, a, b, cfg_for(prior_std=1e12), 5)
    d_enc = m.encoder_dim
    assert np.any(g_prior[:d_enc] != g_flat[:d_enc])
    assert np.array_equal(g_prior[d_enc:], g_flat[d_enc:])


def test_likelihood_part_matches_finite_differences():
    m = tiny_twin(3)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    grad, _ = posterior_grad(m, a, b, cfg_for(), 1_000_000_000)  # prior term negligible

    def loss_at(flat):
        probe = copy.deepcopy(m)
        probe.set_online_flat(flat)
        return float(byol_loss_symmetrized(Tape(), probe, a, b).values)

    assert grad_check(loss_at, m.online_flat(), grad, h=1e-5) < 1e-4


def test_empty_batch_rejected():
    m = tiny_twin(0)
    with pytest.raises(ContractError):
        posterior_grad(m, np.zeros((0, 3)), np.zeros((0, 3)), cfg_for(), 1)


# ---- closed-form direction gradient ------------------------------------------


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("rows", [1, 24, 256])
def test_direction_grad_has_the_bits_of_the_tape_direction(activation, rows):
    for seed in range(4):
        m = init_twin(ModelSection(activation=activation), 10, seed)  # the default widths
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, rows, 10))
        a[rng.random(a.shape) < 0.1] = 0.0  # masked coordinates, as augmentation makes them
        grad, loss = direction_grad(m, a, b)
        assert grad.tobytes() == tape_online_grad(byol_loss_one_direction, m, a, b).tobytes()
        assert loss == float(byol_loss_one_direction(Tape(), m, a, b).values)


def test_direction_grad_matches_central_differences():
    # criterion 01's architecture draws, h and tolerances, on one direction
    rng = np.random.default_rng(2024)
    h = 1e-5
    for seed in range(25):
        input_dim = int(rng.integers(2, 5))
        arch = ModelSection(encoder_hidden=[int(rng.integers(2, 5))],
                            embed_dim=int(rng.integers(2, 4)),
                            proj_hidden=int(rng.integers(2, 4)), proj_dim=2,
                            pred_hidden=int(rng.integers(2, 4)))
        m = init_twin(arch, input_dim, seed)
        a = rng.normal(size=(3, input_dim))
        b = rng.normal(size=(3, input_dim))
        analytic, _ = direction_grad(m, a, b)
        probe = copy.deepcopy(m)
        x = m.online_flat()
        numeric = np.zeros_like(x)
        for i in range(x.size):
            losses = []
            for step in (h, -h):
                moved = x.copy()
                moved[i] += step
                probe.set_online_flat(moved)
                losses.append(direction_grad(probe, a, b)[1])
            numeric[i] = (losses[0] - losses[1]) / (2 * h)
        vec_rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
        assert vec_rel < 1e-4, f"seed {seed}"
        mag = np.maximum(np.abs(analytic), np.abs(numeric))
        sound = mag >= 1e-6
        coord_rel = np.abs(analytic - numeric)[sound] / mag[sound]
        assert coord_rel.size == 0 or coord_rel.max() < 1e-4, f"seed {seed}"


def test_direction_grad_rejects_non_finite_views():
    m = tiny_twin(0)
    a = np.zeros((2, 3))
    for bad in (np.nan, np.inf):
        a[1, 0] = bad
        for views in ((a, np.zeros((2, 3))), (np.zeros((2, 3)), a)):
            with pytest.raises(NumericError, match="NaN or Inf"):
                direction_grad(m, *views)


# ---- step updates -----------------------------------------------------------


def test_sgld_zero_grad_zero_noise_keeps_params():
    cfg = cfg_for(kind="sgld")
    state = make_state(3, 0)
    params = np.array([1.0, -2.0, 0.5])
    new = sgld_step(params, state, np.zeros(3), 0.1, cfg, 1, noise_on=True, noise=np.zeros(3))
    assert np.array_equal(new, params)


def test_sghmc_momentum_arithmetic():
    cfg = cfg_for(kind="sghmc", beta=0.5)
    state = make_state(2, 0)
    state.momentum = np.array([1.0, -2.0])
    params = np.zeros(2)
    new = sghmc_step(params, state, np.zeros(2), 0.1, cfg, 1, noise_on=True, noise=np.zeros(2))
    assert np.array_equal(new, [0.5, -1.0])          # theta += beta * m0
    assert np.array_equal(state.momentum, [0.5, -1.0])


def test_sghmc_beta_zero_equals_sgld_bitwise():
    grads = np.random.default_rng(0).normal(size=(100, 4))
    cfg_l = cfg_for(kind="sgld", temperature=0.7)
    cfg_h = cfg_for(kind="sghmc", beta=0.0, temperature=0.7)
    s_l, s_h = make_state(4, 99), make_state(4, 99)
    p_l = p_h = np.zeros(4)
    for g in grads:
        lr = 0.05
        p_l = sgld_step(p_l, s_l, g, lr, cfg_l, 1, noise_on=True)
        p_h = sghmc_step(p_h, s_h, g, lr, cfg_h, 1, noise_on=True)
        assert np.array_equal(p_l, p_h)


def test_noiseless_snap_sgd_beta_zero_is_gradient_descent():
    cfg = cfg_for(kind="snap_sgd", beta=0.0, cycle_len=1, total_steps=100)
    state = make_state(1, 0)
    theta = np.array([1.0])
    for k in range(100):
        grad = theta.copy()  # U = theta^2 / 2
        assert not noise_active(cfg, k)
        theta = sghmc_step(theta, state, grad, cyclic_lr(cfg, k), cfg, 7,
                           noise_on=noise_active(cfg, k))
    # plain GD: theta <- theta * (1 - lr0 * n / 2) each step
    expected = (1.0 - 0.2 * 7 / 2) ** 100
    assert theta[0] == pytest.approx(expected, rel=1e-12)


def test_sghmc_refuses_float_params_with_array_momentum_and_back():
    cfg = cfg_for(kind="sghmc")
    state = make_state(1, 0)  # momentum of shape (1,)
    with pytest.raises(ContractError):
        sghmc_step(0.5, state, 0.5, 0.1, cfg, 1, noise_on=False)
    state.momentum = 0.0
    with pytest.raises(ContractError):
        sghmc_step(np.array([0.5]), state, np.array([0.5]), 0.1, cfg, 1, noise_on=False)


@pytest.mark.parametrize("params", [np.float64(0.5), np.array(0.5)], ids=["float64", "0-d"])
def test_sghmc_accepts_shape_free_params_with_float_momentum(params):
    # only two exact Python floats skip the shape check; these take it, and
    # pass it, since a float64 scalar and a 0-d array have shape () like a float
    cfg = cfg_for(kind="sghmc", beta=0.5)
    state = make_state(1, 0)
    state.momentum = 0.25
    new = sghmc_step(params, state, 0.5, 0.1, cfg, 1, noise_on=False)
    assert new == 0.5 + (0.5 * 0.25 - (0.5 * 0.1) * 0.5)
    assert state.momentum == 0.5 * 0.25 - (0.5 * 0.1) * 0.5


@pytest.mark.parametrize("kind", ["sgld", "sghmc"])
def test_float_step_draws_its_noise_from_state_rng(kind):
    cfg = cfg_for(kind=kind, beta=0.5, temperature=0.37)
    step = sgld_step if kind == "sgld" else sghmc_step
    s_float, s_array, s_quiet = make_state(1, 7), make_state(1, 7), make_state(1, 7)
    s_float.momentum, s_quiet.momentum, s_array.momentum = 0.3, 0.3, np.array([0.3])
    new = step(0.5, s_float, 0.25, 0.1, cfg, 1, noise_on=True)
    ref = step(np.array([0.5]), s_array, np.array([0.25]), 0.1, cfg, 1, noise_on=True)
    assert np.ndim(new) == 0 and new == ref[0]
    assert np.ndim(s_float.momentum) == 0 and np.array_equal(s_float.momentum, s_array.momentum[0])
    assert new != step(0.5, s_quiet, 0.25, 0.1, cfg, 1, noise_on=False)
    # one draw consumed from each stream
    assert s_float.rng.standard_normal() == s_array.rng.standard_normal()


def test_shared_seed_states_draw_identical_noise():
    a, b = make_state(5, 123), make_state(5, 123)
    assert np.array_equal(a.rng.standard_normal(5), b.rng.standard_normal(5))


# ---- lean step against the earlier update arithmetic ------------------------


def ref_drift(grad_u, lr, n_dataset):
    return (0.5 * lr * n_dataset) * grad_u


def ref_noise_scale(cfg, lr, one_minus_beta):
    return float(np.sqrt(cfg.temperature * one_minus_beta * lr))


def ref_sgld_step(params, state, grad_u, lr, cfg, n_dataset, noise_on=True, eps=None):
    """sgld_step as it was before the drift and noise scale were inlined."""
    delta = -ref_drift(grad_u, lr, n_dataset)
    if noise_on:
        if eps is None:
            eps = state.rng.standard_normal(params.shape)
        delta = delta + ref_noise_scale(cfg, lr, 1.0) * eps
    return params + delta


def ref_sghmc_step(params, state, grad_u, lr, cfg, n_dataset, noise_on=True, eps=None):
    """sghmc_step as it was before the drift and noise scale were inlined."""
    m = cfg.beta * state.momentum - ref_drift(grad_u, lr, n_dataset)
    if noise_on:
        if eps is None:
            eps = state.rng.standard_normal(params.shape)
        m = m + ref_noise_scale(cfg, lr, 1.0 - cfg.beta) * eps
    state.momentum = m
    return params + m


@pytest.mark.parametrize("kind,beta", [("sgld", 0.0), ("sgld", 0.9), ("sghmc", 0.0), ("sghmc", 0.9)])
@pytest.mark.parametrize("dim", [1, 3, 50])
@pytest.mark.parametrize("noise_on", [True, False])
def test_lean_step_is_bit_identical_to_reference(kind, beta, dim, noise_on):
    steps = 40
    cfg = cfg_for(kind=kind, beta=beta, temperature=0.37, cycle_len=9, total_steps=steps)
    step_fn, ref_fn = (sgld_step, ref_sgld_step) if kind == "sgld" else (sghmc_step, ref_sghmc_step)
    rng = np.random.default_rng(dim)
    grads = rng.normal(size=(steps, dim))
    # sgld and sghmc run at a constant lr; the cosine schedule varies it per step
    cosine = cfg_for(kind="csghmc", cycle_len=9, total_steps=steps)
    lrs = [cyclic_lr(cosine, k) for k in range(steps)]
    eps = rng.normal(size=(steps, dim))
    # pre-scaled by the caller, one scale per step, and handed to the step as noise=
    noise = np.array([noise_scale(cfg, lr) for lr in lrs])[:, None] * eps
    start = rng.normal(size=dim)
    runs = {}
    for path in ("ref", "noise", "draw", "ref_draw"):
        state = make_state(dim, 5)
        theta = start.copy()
        for k in range(steps):
            fn = ref_fn if path.startswith("ref") else step_fn
            kw = {"ref": {"eps": eps[k]}, "noise": {"noise": noise[k]}}.get(path, {})
            theta = fn(theta, state, grads[k], lrs[k], cfg, 7, noise_on=noise_on, **kw)
        runs[path] = (theta, state.momentum)
    assert np.array_equal(runs["noise"][0], runs["ref"][0])
    assert np.array_equal(runs["noise"][1], runs["ref"][1])
    assert np.array_equal(runs["draw"][0], runs["ref_draw"][0])
    assert np.array_equal(runs["draw"][1], runs["ref_draw"][1])


def test_noise_scale_equals_numpy_sqrt():
    lrs = np.concatenate([np.geomspace(1e-9, 10.0, 97), np.random.default_rng(0).uniform(0, 1, 97)])
    for kind in ("sgld", "sghmc", "csghmc"):
        for beta in (0.0, 0.5, 0.9, 0.99):
            for temperature in (0.01, 0.1, 0.37, 1.0, 3.3):
                cfg = cfg_for(kind=kind, beta=beta, temperature=temperature)
                omb = 1.0 if kind == "sgld" else 1.0 - beta
                for lr in lrs.tolist():
                    assert noise_scale(cfg, lr) == ref_noise_scale(cfg, lr, omb)


def test_step_rejects_mismatched_kind():
    p = np.zeros(2)
    with pytest.raises(ContractError):
        sgld_step(p, make_state(2, 0), p, 0.1, cfg_for(kind="sghmc"), 1)
    with pytest.raises(ContractError):
        sghmc_step(p, make_state(2, 0), p, 0.1, cfg_for(kind="sgld"), 1)


# ---- divergence check -------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (np.nan, True), (np.inf, True), (-np.inf, True),
    (DIVERGENCE_LIMIT, False), (-DIVERGENCE_LIMIT, False),
    (math.nextafter(DIVERGENCE_LIMIT, math.inf), True),
    (-math.nextafter(DIVERGENCE_LIMIT, math.inf), True),
])
def test_diverged_is_nan_inf_or_above_the_limit(value, expected):
    assert diverged(np.array([0.0, value, 1.0])) is expected
    assert diverged(np.array([value])) is expected


def test_divergence_error_names_the_first_offending_entry():
    theta = np.array([0.5, -np.inf, np.nan, 2e6])
    err = divergence_error(9, theta, "lr 0.1")
    assert isinstance(err, DivergenceError)
    assert (err.step, err.quantity, err.value) == (9, "theta[1]", -np.inf)
    assert err.detail == "non-finite parameter; lr 0.1"
    err = divergence_error(0, np.array([1.0, np.nan]))
    assert (err.quantity, math.isnan(err.value), err.detail) == ("theta[1]", True,
                                                                 "non-finite parameter")
    err = divergence_error(3, np.array([1.0, -2e6, np.inf]))
    assert (err.quantity, err.value, err.detail) == ("theta[1]", -2e6, "|theta| > 1e+06")
    assert str(err) == "chain diverged at step 3: theta[1] = -2e+06 (|theta| > 1e+06)"
