"""Closed-form Gaussian harness for validating the samplers.

A chain run against the quadratic energy 0.5 * theta' L theta should be
stationary around mean 0 with covariance T * inv(L), T being the
[sampler] temperature; run_chain runs the section's total_steps steps and
measures the empirical moments so tests (and the sample-diag subcommand)
can compare them with the analytic values.

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
the keywords, so it counts every step and every noisy one.  The moments
are bit-identical to a chain stepped and checked one step at a time.

A 1-D chain is stepped on Python floats (theta, momentum, gradient, lr and
noise) rather than shape-(1,) arrays: the arithmetic rounds the same, and
each step skips numpy's per-operation dispatch, which is most of a 1-D
step's cost.  The representation is chosen once, before the loop; the one
loop body serves every dim, and each block's values are written to the
trajectory array at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SAMPLER_KINDS, SamplerSection
from .errors import ConfigError, ContractError, DimensionError
from .sampler import (cyclic_lr, diverged, divergence_error, make_state, noise_active,
                      noise_scale, sghmc_step, sgld_step)

_BLOCK = 4096  # steps per noise draw and per divergence check
ESS_FLOOR = 100  # sample-diag warns on a coordinate with fewer lag-1 effective samples


@dataclass
class QuadraticTarget:
    dim: int
    precision: np.ndarray | None = None  # defaults to identity

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.precision is None:
            self.precision = np.eye(self.dim)
        self.precision = np.asarray(self.precision, dtype=np.float64)
        if self.precision.shape != (self.dim, self.dim):
            raise ConfigError("precision matrix shape must be (dim, dim)")
        if not np.allclose(self.precision, self.precision.T):
            raise ConfigError("precision matrix must be symmetric")
        try:
            np.linalg.cholesky(self.precision)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("precision matrix must be positive definite") from exc

    def analytic_covariance(self, temperature: float) -> np.ndarray:
        return temperature * np.linalg.inv(self.precision)


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


def run_chain(cfg: SamplerSection, target: QuadraticTarget, burn_in: int, seed: int,
              theta0: np.ndarray | None = None) -> ChainStats:
    """Run the configured sampler for cfg.total_steps steps against the
    exact quadratic gradient and return post-burn-in moments.  The energy
    is supplied whole, so every step runs at n_dataset = 1 (no
    prior/likelihood split here).

    burn_in must be non-negative and leave at least 2 samples, else
    ContractError.  Noise is drawn and scaled once per block of steps and
    handed to the step function row by row through its noise argument.  The
    trajectory is checked once per block with sampler.diverged, which also
    catches NaN and inf; a failing check raises DivergenceError naming the
    first offending step, coordinate and value.  theta0 must have shape
    (dim,), else DimensionError."""
    steps = cfg.total_steps
    if burn_in < 0:
        raise ContractError("burn_in must be non-negative")
    if steps - burn_in < 2:
        raise ContractError("at least 2 samples must remain after burn_in")

    theta = np.zeros(target.dim) if theta0 is None else np.asarray(theta0, dtype=np.float64).copy()
    if theta.shape != (target.dim,):
        raise DimensionError(f"theta0 must have shape ({target.dim},)")
    dim = target.dim
    state = make_state(dim, seed)
    grad = target.precision.dot
    if dim == 1:
        theta, state.momentum = float(theta[0]), 0.0
        grad = float(target.precision[0, 0]).__mul__
    step_fn = sghmc_step if SAMPLER_KINDS[cfg.kind].momentum else sgld_step
    # the schedule depends on k only through k % cycle_len
    cycle = range(min(cfg.cycle_len, steps))
    lr_table = np.array([cyclic_lr(cfg, p) for p in cycle])
    gate_table = np.array([noise_active(cfg, p) for p in cycle])
    scale_table = np.array([noise_scale(cfg, lr) for lr in lr_table.tolist()])
    trajectory = np.empty((steps, dim))
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
                theta = step_fn(theta, state, grad(theta), lr, cfg, 1,
                                noise_on=on, noise=next(rows) if on else None)
                append(theta)
            trajectory[start:stop] = np.reshape(block, (-1, dim))
            if diverged(trajectory[start:stop]):
                k = next(k for k in range(start, stop) if diverged(trajectory[k]))
                raise divergence_error(k, trajectory[k])
    samples = trajectory[burn_in:]

    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    samples -= mean  # centred in place: samples views our own trajectory
    num = (samples[:-1] * samples[1:]).sum(axis=0)
    den = np.sqrt((samples[:-1] ** 2).sum(axis=0) * (samples[1:] ** 2).sum(axis=0))
    lag1 = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return ChainStats(sample_count=samples.shape[0], mean=mean,
                      variance=variance, lag1_autocorr=lag1)
