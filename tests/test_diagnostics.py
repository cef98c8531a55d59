import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mcbyol import diagnostics
from mcbyol.config import SamplerSection
from mcbyol.diagnostics import QuadraticTarget, run_chain
from mcbyol.errors import ConfigError, ContractError, DimensionError, DivergenceError
from mcbyol.sampler import (DIVERGENCE_LIMIT, cyclic_lr, make_state, noise_active, sghmc_step,
                            sgld_step)


def chain_cfg(kind="sgld", lr0=0.01, beta=0.0, temperature=1.0, steps=20_000):
    return SamplerSection(kind=kind, lr0=lr0, beta=beta, temperature=temperature,
                          cycle_len=1, total_steps=steps, noise_start_frac=0.0)


def quadratic_grad(target, theta):
    """The exact gradient L theta of the energy 0.5 * theta' L theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (target.dim,):
        raise DimensionError(f"theta must have shape ({target.dim},)")
    return target.precision @ theta


def test_quadratic_grad_identity_precision():
    target = QuadraticTarget(dim=2)
    assert np.array_equal(quadratic_grad(target, np.array([1.0, -2.0])), [1.0, -2.0])
    assert np.array_equal(quadratic_grad(target, np.zeros(2)), [0.0, 0.0])


def test_quadratic_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    precision = a @ a.T + 3 * np.eye(3)
    target = QuadraticTarget(dim=3, precision=precision)
    theta = rng.normal(size=3)

    def energy(v):
        return 0.5 * v @ precision @ v

    h = 1e-6
    numeric = np.array([
        (energy(theta + h * e) - energy(theta - h * e)) / (2 * h)
        for e in np.eye(3)
    ])
    assert np.allclose(quadratic_grad(target, theta), numeric, atol=1e-6)


def test_quadratic_grad_dimension_check():
    with pytest.raises(DimensionError):
        quadratic_grad(QuadraticTarget(dim=2), np.zeros(3))


def test_target_validation():
    with pytest.raises(ConfigError):
        QuadraticTarget(dim=2, precision=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        QuadraticTarget(dim=2, precision=-np.eye(2))
    with pytest.raises(ConfigError):
        SamplerSection(temperature=0.0)


def test_run_chain_contract_checks():
    target = QuadraticTarget(dim=1)
    with pytest.raises(ContractError):
        run_chain(chain_cfg(steps=100), target, burn_in=100, seed=0)
    with pytest.raises(ContractError):  # negative burn-in
        run_chain(chain_cfg(steps=1000), target, burn_in=-3, seed=0)
    with pytest.raises(ContractError):  # one sample left: no variance
        run_chain(chain_cfg(steps=2), target, burn_in=1, seed=0)
    assert run_chain(chain_cfg(steps=2), target, burn_in=0, seed=0).sample_count == 2


def test_divergence_detected_and_names_step():
    target = QuadraticTarget(dim=1)
    cfg = chain_cfg(lr0=5.0, steps=10_000)  # far past the stable step size
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow past the divergence
        with pytest.raises(DivergenceError) as err:
            run_chain(cfg, target, burn_in=100, seed=0)
    assert err.value.step == 36  # |1 - lr0/2| = 1.5 per step passes 1e6 here
    assert str(err.value.step) in str(err.value)


def test_nan_start_diverges_at_step_zero():
    cfg = chain_cfg(steps=1_000)
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, QuadraticTarget(dim=1), burn_in=10, seed=0, theta0=np.array([np.nan]))
    assert err.value.step == 0


def test_divergence_names_coordinate_and_value():
    # lr0 * 5 / 2 = 2.5: only the stiff third coordinate is unstable
    target = QuadraticTarget(dim=3, precision=np.diag([0.5, 1.0, 5.0]))
    with pytest.raises(DivergenceError) as err:
        run_chain(chain_cfg(lr0=1.0, steps=1_000), target, burn_in=10, seed=0)
    assert err.value.quantity == "theta[2]"
    assert DIVERGENCE_LIMIT < abs(err.value.value) < np.inf
    assert "theta[2]" in str(err.value) and "|theta| > 1e+06" in str(err.value)

    # the gradient 5 * -1e308 overflows on the second coordinate only
    target = QuadraticTarget(dim=3, precision=np.diag([1.0, 5.0, 1.0]))
    with pytest.raises(DivergenceError) as err:
        run_chain(chain_cfg(steps=1_000), target, burn_in=10, seed=0,
                  theta0=np.array([0.0, -1e308, 0.0]))
    assert (err.value.step, err.value.quantity, err.value.value) == (0, "theta[1]", np.inf)
    assert "non-finite parameter" in str(err.value)


def test_divergence_error_message_omits_missing_parts():
    assert str(DivergenceError(7)) == "chain diverged at step 7"
    assert str(DivergenceError(7, quantity="loss")) == "chain diverged at step 7: loss"
    err = DivergenceError(7, quantity="loss", value=float("nan"), detail="non-finite loss")
    assert str(err) == "chain diverged at step 7: loss = nan (non-finite loss)"
    assert (err.step, err.quantity) == (7, "loss")


@pytest.mark.parametrize("theta0", [np.zeros(2), np.zeros((1, 1)), np.float64(0.5)])
def test_run_chain_rejects_wrong_theta0_shape(theta0):
    with pytest.raises(DimensionError):
        run_chain(chain_cfg(steps=100), QuadraticTarget(dim=1), burn_in=10, seed=0,
                  theta0=theta0)


def reference_chain(cfg, target, steps, burn_in, seed, theta0, step_fn=None):
    """The per-step loop run_chain replaced: one schedule lookup, one noise
    draw and one divergence check per step."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    state = make_state(target.dim, seed)
    samples = np.empty((steps - burn_in, target.dim))
    if step_fn is None:
        step_fn = sgld_step if cfg.kind == "sgld" else sghmc_step
    for k in range(steps):
        grad = target.precision @ theta
        lr = cyclic_lr(cfg, k)
        theta = step_fn(theta, state, grad, lr, cfg, 1, noise_on=noise_active(cfg, k))
        if np.abs(theta).max() > DIVERGENCE_LIMIT:
            i = int(np.argmax(np.abs(theta)))
            raise DivergenceError(step=k, quantity=f"theta[{i}]", value=float(theta[i]))
        if k >= burn_in:
            samples[k - burn_in] = theta
    mean = samples.mean(axis=0)
    centered = samples - mean
    num = (centered[:-1] * centered[1:]).sum(axis=0)
    den = np.sqrt((centered[:-1] ** 2).sum(axis=0) * (centered[1:] ** 2).sum(axis=0))
    lag1 = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return mean, samples.var(axis=0, ddof=1), lag1


@pytest.mark.parametrize("kind,beta", [("sgld", 0.0), ("sghmc", 0.0), ("sghmc", 0.9),
                                       ("csghmc", 0.9)])
# a 1-D chain steps on Python floats: a signed-zero and a large start pin its bits too
@pytest.mark.parametrize("dim,start", [pytest.param(1, None, id="1"), pytest.param(3, None, id="3"),
                                       pytest.param(1, -0.0, id="1-theta0=-0.0"),
                                       pytest.param(1, 1e5, id="1-theta0=1e5")])
@pytest.mark.parametrize("cycle_len,noise_start_frac", [(1, 0.0), (7, 0.5)])
def test_blocked_chain_is_bit_identical_to_per_step_loop(kind, beta, dim, start,
                                                         cycle_len, noise_start_frac):
    # not a multiple of the block, and the burn-in ends inside the second block
    steps, burn_in = diagnostics._BLOCK + 1_234, diagnostics._BLOCK - 100
    cfg = SamplerSection(kind=kind, lr0=0.05, beta=beta, temperature=0.5,
                         cycle_len=cycle_len, total_steps=steps,
                         noise_start_frac=noise_start_frac)
    precision = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])[:dim, :dim]
    target = QuadraticTarget(dim=dim, precision=precision)
    theta0 = np.linspace(0.7, -0.4, dim) if start is None else np.full(dim, start)
    stats = run_chain(cfg, target, burn_in=burn_in, seed=13, theta0=theta0)
    mean, variance, lag1 = reference_chain(cfg, target, steps, burn_in, 13, theta0)
    assert stats.sample_count == steps - burn_in
    assert np.array_equal(stats.mean, mean)
    assert np.array_equal(stats.variance, variance)
    assert np.array_equal(stats.lag1_autocorr, lag1)


def tempered_drift_step(theta, state, grad_u, lr, cfg, n_dataset, noise_on):
    """The update of the former tempered-drift option: the drift divided
    by T and the noise left untempered, in that option's evaluation order."""
    drift = (0.5 * lr * n_dataset) * grad_u / cfg.temperature
    if noise_on:
        one_minus_beta = 1.0 if cfg.kind == "sgld" else 1.0 - cfg.beta
        noise = math.sqrt(one_minus_beta * lr) * state.rng.standard_normal(theta.shape)
    if cfg.kind == "sgld":
        return theta + (noise - drift) if noise_on else theta - drift
    m = cfg.beta * state.momentum - drift
    state.momentum = m + noise if noise_on else m
    return theta + state.momentum


@pytest.mark.parametrize("kind,beta", [("sgld", 0.0), ("sghmc", 0.9), ("csghmc", 0.9)])
def test_tempered_drift_is_the_plain_chain_at_lr0_over_t(kind, beta):
    # at T = 0.5 dividing by T is exact, so every step agrees bit for bit,
    # through the cyclic schedule and the noiseless head of each cycle
    steps, burn_in, temperature = diagnostics._BLOCK + 1_234, 500, 0.5
    tempered = SamplerSection(kind=kind, lr0=0.05, beta=beta, temperature=temperature,
                              cycle_len=7, total_steps=steps, noise_start_frac=0.5)
    plain = dataclasses.replace(tempered, lr0=tempered.lr0 / temperature)
    precision = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    target = QuadraticTarget(dim=3, precision=precision)
    theta0 = np.linspace(0.7, -0.4, 3)
    stats = run_chain(plain, target, burn_in=burn_in, seed=13, theta0=theta0)
    mean, variance, lag1 = reference_chain(tempered, target, steps, burn_in, 13, theta0,
                                           step_fn=tempered_drift_step)
    assert np.array_equal(stats.mean, mean)
    assert np.array_equal(stats.variance, variance)
    assert np.array_equal(stats.lag1_autocorr, lag1)


def test_late_divergence_step_matches_per_step_loop():
    # |1 - lr0/2| = 1.001: the noise grows past the limit in the third block
    steps = 3 * diagnostics._BLOCK
    cfg = chain_cfg(lr0=4.002, steps=steps)
    target = QuadraticTarget(dim=2)
    with pytest.raises(DivergenceError) as expected:
        reference_chain(cfg, target, steps, 100, 0, np.zeros(2))
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, target, burn_in=100, seed=0)
    assert err.value.step == expected.value.step > 2 * diagnostics._BLOCK


def test_late_float_divergence_matches_array_stepped_loop():
    # the dim-1 twin: run_chain steps on floats, the reference on shape-(1,) arrays
    steps = 3 * diagnostics._BLOCK
    cfg = chain_cfg(lr0=4.002, steps=steps)
    target = QuadraticTarget(dim=1)
    with pytest.raises(DivergenceError) as expected:
        reference_chain(cfg, target, steps, 100, 0, np.zeros(1))
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, target, burn_in=100, seed=0)
    assert err.value.step == expected.value.step > 2 * diagnostics._BLOCK
    assert err.value.quantity == expected.value.quantity == "theta[0]"
    assert err.value.value == expected.value.value
    assert DIVERGENCE_LIMIT < abs(err.value.value) < np.inf


def test_moments_centre_the_trajectory_in_place():
    # trajectory (8 B per step and coordinate) plus one full-size temporary;
    # a separate centred copy would add 8 B more
    steps, dim = 25_000, 8
    # one-time allocations
    run_chain(chain_cfg(kind="sghmc", beta=0.9, steps=100), QuadraticTarget(dim=dim),
              burn_in=0, seed=0)
    tracemalloc.start()
    try:
        run_chain(chain_cfg(kind="sghmc", beta=0.9, steps=steps), QuadraticTarget(dim=dim),
                  burn_in=1_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * steps * dim


def test_short_chain_moments_are_sane():
    target = QuadraticTarget(dim=2)
    stats = run_chain(chain_cfg(steps=30_000), target, burn_in=2_000, seed=7)
    assert stats.sample_count == 28_000
    assert np.all(np.abs(stats.mean) < 0.15)
    assert np.all(np.abs(stats.variance - 1.0) < 0.2)
    assert np.all(stats.lag1_autocorr > 0.9)  # small steps, strongly correlated


def test_cold_posterior_contracts_variance():
    target = QuadraticTarget(dim=1)
    warm = run_chain(chain_cfg(temperature=1.0, steps=30_000), target, burn_in=2_000, seed=11)
    cold = run_chain(chain_cfg(temperature=0.1, steps=30_000), target, burn_in=2_000, seed=11)
    assert cold.variance[0] < warm.variance[0]


def test_sgld_and_sghmc_beta_zero_trajectories_match():
    target = QuadraticTarget(dim=3)
    a = run_chain(chain_cfg(kind="sgld", steps=5_000), target, burn_in=0, seed=3)
    b = run_chain(chain_cfg(kind="sghmc", beta=0.0, steps=5_000), target, burn_in=0, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.lag1_autocorr, b.lag1_autocorr)


def test_multidim_chain_moments_within_tolerance():
    # spec-level stationary check away from d=1: mean within 0.05, variance
    # within 10% of T per coordinate
    target = QuadraticTarget(dim=3)
    cfg = chain_cfg(kind="sghmc", beta=0.9, steps=200_000)
    stats = run_chain(cfg, target, burn_in=10_000, seed=21)
    assert np.all(np.abs(stats.mean) < 0.05)
    assert np.all(np.abs(stats.variance - 1.0) < 0.10)
