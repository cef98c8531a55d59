"""Optimizer/sampler family: MAP SGD, cyclic snapshot SGD, SGLD, SGHMC,
and cyclical SGHMC with a cold-posterior temperature.

Update conventions (per step k, learning rate l = cyclic_lr(cfg, k)):

    grad drift     d = (l/2) * n * grad_U        (n = n_dataset)
    SGLD           theta <- theta + (s * eps - d),       s = sqrt(T*l)
    SGHMC          m <- (beta*m - d) + s * eps,          s = sqrt(T*(1-beta)*l)
                   theta <- theta + m

What each [sampler] kind does is one row of config.SAMPLER_KINDS:

    kind       cyclic  noisy  momentum
    map_sgd    no      no     yes
    snap_sgd   yes     no     yes
    sgld       no      yes    no
    sghmc      no      yes    yes
    csghmc     yes     yes    yes

A cyclic kind follows cyclic_lr's cosine schedule, which restarts every
cycle_len steps; the others run at a constant lr0.  A momentum kind steps
with sghmc_step (plain and cyclic SGD are sghmc_step without noise), the
others with sgld_step, and each step function refuses the other's kinds.
Every kind snapshots at the same fixed interval (should_yield).  The drift
coefficient (l/2) * n is the Euler step of Langevin dynamics on the
dataset-scaled energy n * U; the noise scale s = noise_scale(cfg, l) is the
matching fluctuation term, with the friction 1 - beta for the momentum
kinds.  The parenthesised grouping above is the evaluation order, and it
fixes every output bit.

grad_U is the minibatch estimate of the scaled negative log posterior:
the batch-mean twin-network loss gradient plus the Gaussian-prior term
theta / (prior_std^2 * n) on the encoder slice only.  The loss gradient is
the sum of its two directions, each from a tape of its own, one of them
computed by a forked helper process where run_pretrain has one (with 2
or more CPUs, see helper.py): every step is deterministic given the seed,
and the same at any CPU count.  Temperature multiplies the noise
variance only; tempering the drift instead (drift / T, untempered noise)
is exactly this update at lr0 / T.

A step takes its noise one of two ways: drawn from state.rng and scaled
by s (the default), or as an already-scaled noise= term, s * eps.  A
caller that steps many times at known learning rates scales a whole block
of draws at once and passes noise=; both give the same bits for the same
draw.

params, grad_U, noise and state.momentum are float64 arrays of one shape,
or all Python floats for a 1-D chain: IEEE + - * / round the same on both,
so a float step gives the bits of the matching shape-(1,) array step
without numpy's per-call dispatch.

A noisy kind injects noise on every step, except that a cyclic one does
so only in the tail of each cycle (within-cycle position >=
noise_start_frac * cycle_len); map_sgd and snap_sgd are always
noiseless.  Drawing happens only when the noise is active, so two
samplers with the same seed consume identical noise streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tape
from .config import SAMPLER_KINDS, SamplerSection
from .errors import ContractError, DivergenceError
from .model import TwinModel, byol_loss_one_direction
# bench/tracing.py times model.loss_forward at this name
from .model import byol_loss_symmetrized  # noqa: F401

if TYPE_CHECKING:
    from .helper import DirectionHelper

DIVERGENCE_LIMIT = 1e6  # a chain with any |theta| above this has diverged
# the momentum kinds as a set built from the table: the step guards run on
# every step, where a set lookup is about 20 ns cheaper than a row lookup
_MOMENTUM_KINDS = frozenset(kind for kind, row in SAMPLER_KINDS.items() if row.momentum)


@dataclass
class SamplerState:
    """A chain's momentum (unused by sgld) and noise source; callers count steps."""
    momentum: np.ndarray | float  # the parameters' shape, or a float with float parameters
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.Philox(0)))


def make_state(dim: int, seed: int) -> SamplerState:
    """Fresh state: zero momentum, counter-based Gaussian noise source."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return SamplerState(momentum=np.zeros(dim), rng=rng)


def cyclic_lr(cfg: SamplerSection, k: int) -> float:
    """Cosine cyclic schedule; constant lr0 for the non-cyclic kinds."""
    if not 0 <= k < cfg.total_steps:
        raise ContractError(f"step {k} outside [0, {cfg.total_steps})")
    if not SAMPLER_KINDS[cfg.kind].cyclic:
        return cfg.lr0
    pos = k % cfg.cycle_len
    return (cfg.lr0 / 2.0) * (np.cos(np.pi * pos / cfg.cycle_len) + 1.0)


def noise_active(cfg: SamplerSection, k: int) -> bool:
    """True when this step injects Gaussian noise: a noisy kind, and for a
    cyclic one the within-cycle position has reached the sampling stage."""
    kind = SAMPLER_KINDS[cfg.kind]
    if not kind.noisy:
        return False
    if not kind.cyclic:
        return True
    return (k % cfg.cycle_len) >= cfg.noise_start_frac * cfg.cycle_len


def diverged(x: np.ndarray) -> bool:
    """True when any entry of x is NaN, infinite or above DIVERGENCE_LIMIT in
    magnitude (the comparison is False for NaN, so NaN counts as diverged)."""
    return not np.all(np.abs(x) <= DIVERGENCE_LIMIT)


def divergence_error(step: int, theta: np.ndarray, context: str = "") -> DivergenceError:
    """The DivergenceError for a parameter vector that diverged(): it names
    the first offending entry, its value and the check it failed, followed
    by the caller's context (e.g. the lr and noise state)."""
    i = int(np.flatnonzero(~(np.abs(theta) <= DIVERGENCE_LIMIT))[0])
    value = float(theta[i])
    check = "non-finite parameter" if not math.isfinite(value) else f"|theta| > {DIVERGENCE_LIMIT:g}"
    return DivergenceError(step, quantity=f"theta[{i}]", value=value,
                           detail=f"{check}; {context}" if context else check)


def should_yield(cfg: SamplerSection, k: int) -> bool:
    """Snapshot at each cycle end; the non-cyclic kinds use the same fixed
    interval so every baseline collects equally many snapshots."""
    if k < 0:
        raise ContractError("step must be non-negative")
    return (k + 1) % cfg.cycle_len == 0


def direction_grad(model: TwinModel, view_a: np.ndarray,
                   view_b: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient on the online parameters, flat, and value of one direction
    of the twin loss, L(view_a, view_b), from a tape of its own."""
    model.zero_online_grads()
    tape = Tape()
    loss = byol_loss_one_direction(tape, model, view_a, view_b)
    tape.backward(loss)
    return model.online_grad_flat(), float(loss.values)


def posterior_grad(model: TwinModel, view_a: np.ndarray, view_b: np.ndarray,
                   cfg: SamplerSection, n_dataset: int,
                   helper: DirectionHelper | None = None) -> tuple[np.ndarray, float]:
    """Gradient of the minibatch posterior estimate on the online parameters.

    Returns (grad_U, loss) where grad_U = d/dtheta [batch-mean symmetrized
    loss] plus theta / (prior_std^2 * n) on the encoder slice; projector and
    predictor receive only the likelihood gradient.  Callers scale by n.
    With a helper, L(view_b, view_a) runs there while L(view_a, view_b)
    runs here; without one, both run here.  Each weight's gradient is
    g_ab + g_ba either way, the bits of one tape over both directions.
    """
    if helper is None:
        g_ab, l_ab = direction_grad(model, view_a, view_b)
        g_ba, l_ba = direction_grad(model, view_b, view_a)
    else:
        helper.send(model, view_b, view_a)
        try:
            g_ab, l_ab = direction_grad(model, view_a, view_b)
        except BaseException:
            helper.close()  # else its reply would answer the next request
            raise
        g_ba, l_ba = helper.receive()
    grad = g_ab + g_ba
    d_enc = model.encoder_dim
    enc_flat = model.online_encoder.flatten()
    grad[:d_enc] += enc_flat / (cfg.prior_std ** 2 * n_dataset)
    return grad, l_ab + l_ba


def noise_scale(cfg: SamplerSection, lr: float) -> float:
    """Standard deviation of the injected noise at learning rate lr:
    sqrt(T * l) for sgld, sqrt(T * (1 - beta) * l) for the momentum kinds."""
    one_minus_beta = 1.0 - cfg.beta if SAMPLER_KINDS[cfg.kind].momentum else 1.0
    return math.sqrt(cfg.temperature * one_minus_beta * lr)


def sgld_step(params: np.ndarray | float, state: SamplerState, grad_u: np.ndarray | float,
              lr: float, cfg: SamplerSection, n_dataset: int, noise_on: bool = True,
              noise: np.ndarray | float | None = None) -> np.ndarray | float:
    """One Langevin update; returns the new parameter vector."""
    if lr <= 0:
        raise ContractError("lr must be positive")
    if cfg.kind in _MOMENTUM_KINDS:
        raise ContractError(f"kind {cfg.kind!r} steps with sghmc_step")
    drift = (0.5 * lr * n_dataset) * grad_u
    if not noise_on:
        new = params - drift
    else:
        if noise is None:
            noise = noise_scale(cfg, lr) * state.rng.standard_normal(np.shape(params))
        new = params + (noise - drift)
    return new


def sghmc_step(params: np.ndarray | float, state: SamplerState, grad_u: np.ndarray | float,
               lr: float, cfg: SamplerSection, n_dataset: int, noise_on: bool = True,
               noise: np.ndarray | float | None = None) -> np.ndarray | float:
    """One momentum update; mutates state.momentum, returns new parameters.

    With beta = 0 this reproduces sgld_step bit-for-bit under a shared
    noise draw.
    """
    if lr <= 0:
        raise ContractError("lr must be positive")
    if cfg.kind not in _MOMENTUM_KINDS:
        raise ContractError(f"kind {cfg.kind!r} steps with sgld_step")
    if getattr(state.momentum, "shape", ()) != getattr(params, "shape", ()):
        raise ContractError("momentum buffer shape does not match parameters")
    drift = (0.5 * lr * n_dataset) * grad_u
    m = cfg.beta * state.momentum - drift
    if noise_on:
        if noise is None:
            noise = noise_scale(cfg, lr) * state.rng.standard_normal(np.shape(params))
        m = m + noise
    state.momentum = m
    return params + m
