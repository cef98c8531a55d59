"""Central-difference gradient oracle shared by the gradient tests."""

from typing import Callable

import numpy as np

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
