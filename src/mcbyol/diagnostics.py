"""Closed-form Gaussian harness for validating the samplers.

A chain run against the quadratic energy 0.5 * theta' L theta should be
stationary around mean 0 with covariance T * inv(L); run_chain measures
the empirical moments so tests (and the sample-diag subcommand) can
compare them with the analytic values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, DivergenceError
from .sampler import (DIVERGENCE_LIMIT, SamplerConfig, cyclic_lr, make_state, noise_active,
                      sghmc_step, sgld_step)


@dataclass
class QuadraticTarget:
    dim: int
    precision: np.ndarray | None = None  # defaults to identity
    temperature: float = 1.0

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
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")

    def analytic_covariance(self) -> np.ndarray:
        return self.temperature * np.linalg.inv(self.precision)


def quadratic_grad(target: QuadraticTarget, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (target.dim,):
        raise DimensionError(f"theta must have shape ({target.dim},)")
    return target.precision @ theta


@dataclass
class ChainStats:
    sample_count: int
    mean: np.ndarray
    variance: np.ndarray      # per coordinate, ddof=1
    lag1_autocorr: np.ndarray


def run_chain(cfg: SamplerConfig, target: QuadraticTarget,
              steps: int, burn_in: int, seed: int,
              theta0: np.ndarray | None = None) -> ChainStats:
    """Run the configured sampler against the exact quadratic gradient and
    return post-burn-in moments.  The energy is supplied whole, so the
    config must use n_dataset = 1 (no prior/likelihood split here)."""
    if steps <= burn_in:
        raise ContractError("steps must exceed burn_in")
    if steps > cfg.total_steps:
        raise ContractError("steps exceeds cfg.total_steps")
    if cfg.n_dataset != 1:
        raise ContractError("diagnostics chains require n_dataset = 1")

    theta = np.zeros(target.dim) if theta0 is None else np.asarray(theta0, dtype=np.float64).copy()
    state = make_state(target.dim, seed)
    samples = np.empty((steps - burn_in, target.dim))
    step_fn = sgld_step if cfg.kind == "sgld" else sghmc_step
    for k in range(steps):
        grad = target.precision @ theta
        lr = cyclic_lr(cfg, k)
        theta = step_fn(theta, state, grad, lr, cfg, noise_on=noise_active(cfg, k))
        if np.abs(theta).max() > DIVERGENCE_LIMIT:
            raise DivergenceError(step=k)
        if k >= burn_in:
            samples[k - burn_in] = theta

    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    centered = samples - mean
    num = (centered[:-1] * centered[1:]).sum(axis=0)
    den = np.sqrt((centered[:-1] ** 2).sum(axis=0) * (centered[1:] ** 2).sum(axis=0))
    lag1 = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return ChainStats(sample_count=samples.shape[0], mean=mean,
                      variance=variance, lag1_autocorr=lag1)
