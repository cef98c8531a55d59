"""Closed-form Gaussian harness for validating the samplers.

The target is the unit quadratic energy 0.5 * theta' theta, whose
gradient is theta itself: a chain run against it should be stationary
around mean 0 with variance T in every coordinate, T being the [sampler]
temperature.  run_chain starts at theta = 0, runs the section's
total_steps steps and measures the empirical moments so tests (and the
sample-diag subcommand) can compare them with T.

run_chain steps the chain in blocks.  The lr, noise gate and noise scale
of each cycle position are held in arrays; a block finds its positions as
np.arange(start, stop) % cycle_len, takes its lrs, gates and the scales of
its noisy steps from them by fancy and boolean indexing, converts each to
a list once, and draws the noise of its noisy steps at once (the same
Philox stream as one draw per step), scaled once and handed to each step
as its noise= term; one sampler.diverged check covers the block.  Every
step still calls sgld_step/sghmc_step, the update pretraining runs, through
this module's globals and with noise_on= and noise= by keyword: the traced
benchmark (bench/tracing.py) patches those names and reads noise_on from
the keywords, so it counts every step and every noisy one.  Every theta is
bit-identical to a chain stepped and checked one step at a time.

No trajectory is kept: each block's kept rows are reduced to _moments and
merged into the running ones by the pairwise update of Chan, Golub and
LeVeque (1983), so memory is O(_BLOCK * dim) for any step count.  Only the
summation order differs from the whole-array two-pass moments; the tests
pin the two within 1e-12 (the mean in standard deviations, the variance
relative, lag-1 absolute).

A 1-D chain is stepped on Python floats (theta, momentum, gradient, lr and
noise) rather than shape-(1,) arrays: the arithmetic rounds the same, and
each step skips numpy's per-operation dispatch, which is most of a 1-D
step's cost.  The representation is chosen once, before the loop; the one
loop body serves every dim, and each block's values become one array at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SAMPLER_KINDS, SamplerSection
from .errors import ConfigError, ContractError
from .sampler import (cyclic_lr, diverged, divergence_error, make_state, noise_active,
                      noise_scale, sghmc_step, sgld_step)

_BLOCK = 4096  # steps per noise draw and per divergence check
ESS_FLOOR = 100  # sample-diag warns on a coordinate with fewer lag-1 effective samples


@dataclass
class QuadraticTarget:
    """The unit quadratic energy 0.5 * theta' theta in dim >= 1 coordinates."""
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")


@dataclass
class ChainStats:
    sample_count: int
    mean: np.ndarray
    variance: np.ndarray      # per coordinate, ddof=1
    lag1_autocorr: np.ndarray


def lag1_effective_samples(stats: ChainStats) -> list[float]:
    """n (1 - rho) / (1 + rho) per coordinate, n being sample_count and rho
    lag1_autocorr: the effective sample count of an AR(1) chain with that
    lag-1 autocorrelation, inf at rho = -1."""
    n = stats.sample_count
    return [n * (1.0 - rho) / (1.0 + rho) if rho > -1.0 else math.inf
            for rho in stats.lag1_autocorr.tolist()]


def _moments(rows: np.ndarray) -> tuple:
    """(count, reference m, sums of x - m, of (x - m)**2 and of
    (x[i] - m) * (x[i + 1] - m), first row, last row) of consecutive rows x,
    m their mean as computed; the rows are copied, so no view keeps the
    block alive."""
    mean = rows.mean(axis=0)
    dev = rows - mean
    return (len(rows), mean, dev.sum(axis=0), (dev * dev).sum(axis=0),
            (dev[:-1] * dev[1:]).sum(axis=0), rows[0].copy(), rows[-1].copy())


def _about(moments: tuple, ref: np.ndarray) -> tuple:
    """moments with their sums taken about ref instead."""
    n, m, s, ss, c, first, last = moments
    d = m - ref
    return (n, ref, s + n * d, ss + d * (2 * s + n * d),
            c + d * (2 * s - (first - m) - (last - m) + (n - 1) * d), first, last)


def _merge(a: tuple, b: tuple) -> tuple:
    """The moments of a's rows followed by b's: both parts moved to the
    merged mean, keeping each one's sum of deviations (the corrected
    two-pass term), plus the lag-1 pair across the edge."""
    (na, ma, sa, *_), (nb, mb, sb, *_) = a, b
    mean = ma + (sa + sb + nb * (mb - ma)) / (na + nb)
    _, _, sa, ssa, ca, first, last_a = _about(a, mean)
    _, _, sb, ssb, cb, first_b, last = _about(b, mean)
    return (na + nb, mean, sa + sb, ssa + ssb,
            ca + cb + (last_a - mean) * (first_b - mean), first, last)


def _chain_stats(moments: tuple) -> ChainStats:
    """The ChainStats of moments, their sums moved to the rows' mean."""
    n, m, s, *_ = moments
    _, mean, _, ss, c, first, last = _about(moments, m + s / n)
    # the squared deviations of all rows but the last, and of all but the first
    den = np.sqrt((ss - (last - mean) ** 2) * (ss - (first - mean) ** 2))
    lag1 = np.where(den > 0, c / np.maximum(den, 1e-300), 0.0)
    return ChainStats(sample_count=n, mean=mean, variance=ss / (n - 1), lag1_autocorr=lag1)


def run_chain(cfg: SamplerSection, target: QuadraticTarget, burn_in: int,
              seed: int) -> ChainStats:
    """Run the configured sampler for cfg.total_steps steps from theta = 0
    against the unit quadratic, whose gradient is theta itself, and return
    post-burn-in moments.  The energy is supplied whole, so every step runs
    at n_dataset = 1 (no prior/likelihood split here).

    burn_in must be non-negative and leave at least 2 samples, else
    ContractError.  Noise is drawn and scaled once per block of steps and
    handed to the step function row by row through its noise argument.  Each
    block is checked once with sampler.diverged, which also catches NaN and
    inf; a failing check raises DivergenceError naming the first offending
    step, coordinate and value.  A block that passes has its kept rows
    folded into the running moments."""
    steps = cfg.total_steps
    if burn_in < 0:
        raise ContractError("burn_in must be non-negative")
    if steps - burn_in < 2:
        raise ContractError("at least 2 samples must remain after burn_in")

    dim = target.dim
    state = make_state(dim, seed)
    theta = np.zeros(dim)
    if dim == 1:
        theta = state.momentum = 0.0
    step_fn = sghmc_step if SAMPLER_KINDS[cfg.kind].momentum else sgld_step
    # the schedule depends on k only through k % cycle_len
    cycle = range(cfg.cycle_len)
    lr_table = np.array([cyclic_lr(cfg, p) for p in cycle])
    gate_table = np.array([noise_active(cfg, p) for p in cycle])
    scale_table = np.array([noise_scale(cfg, lr) for lr in lr_table.tolist()])
    moments = None
    # past a divergence the block runs on to inf/NaN; the check below catches it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, _BLOCK):
            stop = min(start + _BLOCK, steps)
            positions = np.arange(start, stop) % cfg.cycle_len
            gates = gate_table[positions]
            scales = scale_table[positions[gates]]
            noise = scales[:, None] * state.rng.standard_normal((scales.size, dim))
            rows = iter(noise[:, 0].tolist() if dim == 1 else noise)
            block = []
            append = block.append
            for lr, on in zip(lr_table[positions].tolist(), gates.tolist()):
                theta = step_fn(theta, state, theta, lr, cfg, 1,
                                noise_on=on, noise=next(rows) if on else None)
                append(theta)
            thetas = np.reshape(block, (-1, dim))
            if diverged(thetas):
                k = next(k for k in range(len(thetas)) if diverged(thetas[k]))
                raise divergence_error(start + k, thetas[k])
            if stop > burn_in:
                part = _moments(thetas[max(burn_in - start, 0):])
                moments = part if moments is None else _merge(moments, part)
    return _chain_stats(moments)
