import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mcbyol import diagnostics
from mcbyol.config import SamplerSection
from mcbyol.diagnostics import QuadraticTarget, run_chain
from mcbyol.errors import ConfigError, ContractError, DivergenceError
from mcbyol.sampler import (DIVERGENCE_LIMIT, cyclic_lr, make_state, noise_active, sghmc_step,
                            sgld_step)


def chain_cfg(kind="sgld", lr0=0.01, beta=0.0, temperature=1.0, steps=20_000):
    return SamplerSection(kind=kind, lr0=lr0, beta=beta, temperature=temperature,
                          cycle_len=1, total_steps=steps, noise_start_frac=0.0)


def test_target_validation():
    with pytest.raises(ConfigError):
        QuadraticTarget(dim=0)
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


def test_divergence_names_coordinate_and_value():
    # lr0 / 2 = 2.5: every coordinate grows by 1.5 per step, from the noise
    steps = 1_000
    cfg = chain_cfg(lr0=5.0, steps=steps)
    with pytest.raises(DivergenceError) as expected:
        reference_chain(cfg, 3, steps, 0)
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, QuadraticTarget(dim=3), burn_in=10, seed=0)
    assert err.value.step == expected.value.step
    assert err.value.quantity == expected.value.quantity
    assert err.value.value == expected.value.value
    assert DIVERGENCE_LIMIT < abs(err.value.value) < np.inf
    assert f"{err.value.quantity} = " in str(err.value) and "|theta| > 1e+06" in str(err.value)


def test_divergence_error_message_omits_missing_parts():
    assert str(DivergenceError(7)) == "chain diverged at step 7"
    assert str(DivergenceError(7, quantity="loss")) == "chain diverged at step 7: loss"
    err = DivergenceError(7, quantity="loss", value=float("nan"), detail="non-finite loss")
    assert str(err) == "chain diverged at step 7: loss = nan (non-finite loss)"
    assert (err.step, err.quantity) == (7, "loss")


def two_pass(samples):
    """numpy's whole-array moments of a (steps, dim) sample: the mean, the
    ddof=1 variance and the lag-1 autocorrelation about the mean.  Each
    coordinate is summed as one contiguous row, which numpy sums pairwise."""
    x = np.ascontiguousarray(samples.T)
    centered = x - x.mean(axis=1, keepdims=True)
    num = (centered[:, :-1] * centered[:, 1:]).sum(axis=1)
    den = np.sqrt((centered[:, :-1] ** 2).sum(axis=1) * (centered[:, 1:] ** 2).sum(axis=1))
    lag1 = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return x.mean(axis=1), x.var(axis=1, ddof=1), lag1


def assert_moments_close(stats, samples, mean_scale=None):
    """stats are samples' two-pass moments within 1e-12: the mean in units of
    the standard deviation (or of mean_scale), the variance relative and
    the lag-1 autocorrelation absolute; the sample count exactly."""
    mean, variance, lag1 = two_pass(samples)
    assert stats.sample_count == len(samples)
    scale = np.sqrt(variance) if mean_scale is None else mean_scale
    assert np.all(np.abs(stats.mean - mean) <= 1e-12 * scale)
    assert np.all(np.abs(stats.variance - variance) <= 1e-12 * variance)
    assert np.all(np.abs(stats.lag1_autocorr - lag1) <= 1e-12)


def reference_chain(cfg, dim, steps, seed, step_fn=None):
    """The per-step loop run_chain replaced, on the unit quadratic from
    theta = 0: one schedule lookup, one noise draw and one divergence check
    per step.  Returns every post-step theta, shape (steps, dim)."""
    theta = np.zeros(dim)
    state = make_state(dim, seed)
    thetas = np.empty((steps, dim))
    if step_fn is None:
        step_fn = sgld_step if cfg.kind == "sgld" else sghmc_step
    for k in range(steps):
        grad = theta.copy()  # the unit quadratic's gradient
        lr = cyclic_lr(cfg, k)
        theta = step_fn(theta, state, grad, lr, cfg, 1, noise_on=noise_active(cfg, k))
        if np.abs(theta).max() > DIVERGENCE_LIMIT:
            i = int(np.argmax(np.abs(theta)))
            raise DivergenceError(step=k, quantity=f"theta[{i}]", value=float(theta[i]))
        thetas[k] = theta
    return thetas


def recorded_chain(monkeypatch, cfg, target, **kwargs):
    """run_chain's stats and every theta its sgld_step/sghmc_step calls
    returned, shape (steps, dim)."""
    thetas = []
    for name in ("sgld_step", "sghmc_step"):
        def record(*args, step=getattr(diagnostics, name), **kw):
            thetas.append(step(*args, **kw))
            return thetas[-1]
        monkeypatch.setattr(diagnostics, name, record)
    stats = run_chain(cfg, target, **kwargs)
    return stats, np.reshape(np.array(thetas, dtype=np.float64), (-1, target.dim))


@pytest.mark.parametrize("kind,beta", [("sgld", 0.0), ("sghmc", 0.0), ("sghmc", 0.9),
                                       ("csghmc", 0.9)])
# a 1-D chain steps on Python floats, the reference on shape-(1,) arrays
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("cycle_len,noise_start_frac", [(1, 0.0), (7, 0.5)])
def test_blocked_chain_is_bit_identical_to_per_step_loop(monkeypatch, kind, beta, dim,
                                                         cycle_len, noise_start_frac):
    # not a multiple of the block, and the burn-in ends inside the second block
    steps, burn_in = diagnostics._BLOCK + 1_234, diagnostics._BLOCK - 100
    cfg = SamplerSection(kind=kind, lr0=0.05, beta=beta, temperature=0.5,
                         cycle_len=cycle_len, total_steps=steps,
                         noise_start_frac=noise_start_frac)
    stats, thetas = recorded_chain(monkeypatch, cfg, QuadraticTarget(dim=dim),
                                   burn_in=burn_in, seed=13)
    expected = reference_chain(cfg, dim, steps, 13)
    assert thetas.tobytes() == expected.tobytes()
    assert_moments_close(stats, expected[burn_in:])


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
def test_tempered_drift_is_the_plain_chain_at_lr0_over_t(monkeypatch, kind, beta):
    # at T = 0.5 dividing by T is exact, so every step agrees bit for bit,
    # through the cyclic schedule and the noiseless head of each cycle
    steps, burn_in, temperature = diagnostics._BLOCK + 1_234, 500, 0.5
    tempered = SamplerSection(kind=kind, lr0=0.05, beta=beta, temperature=temperature,
                              cycle_len=7, total_steps=steps, noise_start_frac=0.5)
    plain = dataclasses.replace(tempered, lr0=tempered.lr0 / temperature)
    stats, thetas = recorded_chain(monkeypatch, plain, QuadraticTarget(dim=3), burn_in=burn_in,
                                   seed=13)
    expected = reference_chain(tempered, 3, steps, 13, step_fn=tempered_drift_step)
    assert thetas.tobytes() == expected.tobytes()
    assert_moments_close(stats, expected[burn_in:])


@pytest.mark.parametrize("kind,beta", [("sgld", 0.0), ("sghmc", 0.9)])
@pytest.mark.parametrize("dim", [1, 3])
# burn-in 0 keeps the first steps from theta = 0; the last block holds one row
@pytest.mark.parametrize("burn_in", [0, diagnostics._BLOCK + 100])
def test_moments_at_block_edges_match_two_pass(monkeypatch, kind, beta, dim, burn_in):
    steps = 3 * diagnostics._BLOCK + 1
    cfg = SamplerSection(kind=kind, lr0=0.05, beta=beta, temperature=0.5, cycle_len=1,
                         total_steps=steps, noise_start_frac=0.0)
    stats, thetas = recorded_chain(monkeypatch, cfg, QuadraticTarget(dim=dim), burn_in=burn_in,
                                   seed=5)
    assert len(thetas) == steps and stats.sample_count == steps - burn_in
    assert_moments_close(stats, thetas[burn_in:])


@pytest.mark.parametrize("sizes", [(4096, 4096, 4096, 1), (1, 100, 4096, 3995, 4096, 1)])
def test_merge_matches_two_pass_at_mean_1e6(sizes):
    # unit spread under a mean of 1e6: a sum of squares about 0 would lose
    # every digit; the second coordinate is a slow random walk
    rng = np.random.default_rng(0)
    samples = 1e6 + rng.standard_normal((sum(sizes), 3))
    samples[:, 1] = 1e6 + 0.01 * np.cumsum(rng.standard_normal(sum(sizes)))
    moments = None
    for rows in np.split(samples, np.cumsum(sizes)[:-1]):
        part = diagnostics._moments(rows)
        moments = part if moments is None else diagnostics._merge(moments, part)
    stats = diagnostics._chain_stats(moments)
    # one ulp of a 1e6 mean is 1.2e-10 standard deviations, so the mean is
    # held to 1e-12 of its own size, and to 2 ulps of the exactly summed mean
    assert_moments_close(stats, samples, mean_scale=1e6)
    exact = np.array([math.fsum(column) for column in samples.T]) / len(samples)
    assert np.all(np.abs(stats.mean - exact) <= 2 * np.spacing(exact))


def test_late_divergence_step_matches_per_step_loop():
    # |1 - lr0/2| = 1.001: the noise grows past the limit in the third block
    steps = 3 * diagnostics._BLOCK
    cfg = chain_cfg(lr0=4.002, steps=steps)
    target = QuadraticTarget(dim=2)
    with pytest.raises(DivergenceError) as expected:
        reference_chain(cfg, 2, steps, 0)
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, target, burn_in=100, seed=0)
    assert err.value.step == expected.value.step > 2 * diagnostics._BLOCK


def test_late_float_divergence_matches_array_stepped_loop():
    # the dim-1 twin: run_chain steps on floats, the reference on shape-(1,) arrays
    steps = 3 * diagnostics._BLOCK
    cfg = chain_cfg(lr0=4.002, steps=steps)
    target = QuadraticTarget(dim=1)
    with pytest.raises(DivergenceError) as expected:
        reference_chain(cfg, 1, steps, 0)
    with pytest.raises(DivergenceError) as err:
        run_chain(cfg, target, burn_in=100, seed=0)
    assert err.value.step == expected.value.step > 2 * diagnostics._BLOCK
    assert err.value.quantity == expected.value.quantity == "theta[0]"
    assert err.value.value == expected.value.value
    assert DIVERGENCE_LIMIT < abs(err.value.value) < np.inf


def test_chain_memory_is_flat_in_steps():
    # the moments are folded block by block: no (steps, dim) trajectory
    dim = 8
    run_chain(chain_cfg(kind="sghmc", beta=0.9, steps=100), QuadraticTarget(dim=dim),
              burn_in=0, seed=0)  # one-time allocations
    peaks = []
    for steps in (25_000, 100_000):
        tracemalloc.start()
        try:
            run_chain(chain_cfg(kind="sghmc", beta=0.9, steps=steps), QuadraticTarget(dim=dim),
                      burn_in=1_000, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


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


def test_lag1_effective_samples_is_the_ar1_estimate_per_coordinate():
    stats = diagnostics.ChainStats(sample_count=1_000, mean=np.zeros(4), variance=np.ones(4),
                                   lag1_autocorr=np.array([0.0, 0.5, 1.0, -1.0]))
    assert diagnostics.lag1_effective_samples(stats) == [1_000.0, 1_000 / 3, 0.0, math.inf]
