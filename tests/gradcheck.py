"""Gradient oracles shared by the gradient tests: central differences, and
the tape's gradient of a twin loss on the online parameters.  No package
code marks a parameter as needing a gradient: a test that records a tape
over parameters marks its own leaves with requires_grad."""

from typing import Callable

import numpy as np

from mcbyol.autodiff import Tape
from mcbyol.errors import ContractError, DimensionError


def grad_check(loss_fn: Callable[[np.ndarray], float],
               x0: np.ndarray,
               analytic: np.ndarray,
               h: float = 1e-5) -> float:
    """Max relative error between `analytic` and central differences of loss_fn.

    Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    if h <= 0:
        raise ContractError("grad_check: h must be positive")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if x0.shape != analytic.shape:
        raise DimensionError("grad_check: gradient length mismatch")
    worst = 0.0
    x = x0.copy()
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        f_plus = float(loss_fn(x))
        x[i] = orig - h
        f_minus = float(loss_fn(x))
        x[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def requires_grad(params, flag: bool = True) -> None:
    """Marks every tensor of the ParamVector params as a tape leaf that takes
    a gradient, or with flag False as one that does not."""
    for _, t in params.items():
        t.requires_grad = flag


def tape_online_grad(loss, model, view_a: np.ndarray, view_b: np.ndarray) -> np.ndarray:
    """The gradient of loss(tape, model, view_a, view_b) on the online
    parameters, flat in the model's online_flat order, from one tape's
    backward: each online ParamVector's grad_flat, marked as leaves and
    zeroed first."""
    parts = model.online_parts()
    for p in parts:
        requires_grad(p)
        for _, t in p.items():
            t.grad = None
    tape = Tape()
    tape.backward(loss(tape, model, view_a, view_b))
    return np.concatenate([p.grad_flat() for p in parts])
