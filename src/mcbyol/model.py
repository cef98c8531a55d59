"""Twin-network model: online encoder/projector/predictor, EMA target, losses.

The online network is trained; the target network is its exponential
moving average and never receives gradients.  All networks are dense MLPs
(activation on hidden layers, linear output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, mlp_layers
from .config import ModelSection
from .errors import DimensionError
from .params import ParamVector


@dataclass
class TwinModel:
    cfg: ModelSection  # the section it was built from: activation and EMA tau
    online_encoder: ParamVector
    online_projector: ParamVector
    online_predictor: ParamVector
    target_encoder: ParamVector
    target_projector: ParamVector

    # flat-vector view over all online parameters; order is fixed:
    # encoder, projector, predictor (the prior applies to the leading
    # encoder slice, see sampler.posterior_grad)
    def online_parts(self) -> tuple[ParamVector, ParamVector, ParamVector]:
        return self.online_encoder, self.online_projector, self.online_predictor

    @property
    def online_dim(self) -> int:
        return sum(p.total_dim for p in self.online_parts())

    @property
    def encoder_dim(self) -> int:
        return self.online_encoder.total_dim

    @property
    def input_dim(self) -> int:
        return self.online_encoder["layer0.w"].shape[0]

    def online_flat(self) -> np.ndarray:
        return np.concatenate([p.flatten() for p in self.online_parts()])

    def set_online_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.online_dim,):
            raise DimensionError(f"set_online_flat: need {self.online_dim} values")
        offset = 0
        for p in self.online_parts():
            p.set_flat(vec[offset:offset + p.total_dim])
            offset += p.total_dim

    def online_grad_flat(self) -> np.ndarray:
        return np.concatenate([p.grad_flat() for p in self.online_parts()])

    def zero_online_grads(self) -> None:
        for p in self.online_parts():
            p.zero_grad()


def init_mlp(widths: list[int], rng: np.random.Generator, requires_grad: bool) -> ParamVector:
    """Scaled-uniform fan-in init: W, b ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    segments: dict[str, Tensor] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        segments[f"layer{i}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad)
        segments[f"layer{i}.b"] = Tensor(
            rng.uniform(-bound, bound, size=(fan_out,)), requires_grad)
    return ParamVector(segments)


def init_twin(cfg: ModelSection, input_dim: int, seed: int) -> TwinModel:
    """Online weights seeded; target starts as an exact copy of the online
    encoder and projector (the predictor has no target counterpart)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    encoder = init_mlp([input_dim, *cfg.encoder_hidden, cfg.embed_dim], rng, requires_grad=True)
    projector = init_mlp([cfg.embed_dim, cfg.proj_hidden, cfg.proj_dim], rng, requires_grad=True)
    # the predictor maps projection space onto itself
    predictor = init_mlp([cfg.proj_dim, cfg.pred_hidden, cfg.proj_dim], rng, requires_grad=True)
    target_encoder = encoder.copy()
    target_encoder.set_requires_grad(False)
    target_projector = projector.copy()
    target_projector.set_requires_grad(False)
    return TwinModel(cfg, encoder, projector, predictor, target_encoder, target_projector)


def _layers(pv: ParamVector) -> list[tuple[Tensor, Tensor]]:
    return [(pv[f"layer{i}.w"], pv[f"layer{i}.b"]) for i in range(len(pv.names) // 2)]


def mlp_forward(tape: Tape, pv: ParamVector, x: Tensor, activation: str) -> Tensor:
    """Tape-recorded forward pass, one record per network; activation on
    hidden layers only."""
    return tape.mlp(x, _layers(pv), activation)


def mlp_forward_np(pv: ParamVector, x: np.ndarray, activation: str) -> np.ndarray:
    """Inference-mode forward pass, no tape; the same arithmetic as mlp_forward."""
    layers = [(w.values, b.values) for w, b in _layers(pv)]
    return mlp_layers(np.asarray(x, dtype=np.float64), layers, activation)[-1]


def _check_views(model: TwinModel, view_a: np.ndarray, view_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(view_a, dtype=np.float64)
    b = np.asarray(view_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("views must be 2-D batches")
    if a.shape != b.shape:
        raise DimensionError(f"view batch shapes differ: {a.shape} vs {b.shape}")
    if a.shape[1] != model.input_dim:
        raise DimensionError(f"views have width {a.shape[1]}, model expects {model.input_dim}")
    if a.shape[0] < 1:
        raise DimensionError("views must contain at least one row")
    return a, b


def byol_loss_one_direction(tape: Tape, model: TwinModel,
                            view_a: np.ndarray, view_b: np.ndarray) -> Tensor:
    """Mean over the batch of ||q_bar - y_bar||^2 where q_bar is the
    normalized online prediction of view_a and y_bar the normalized target
    projection of view_b.  The target branch carries no gradient."""
    a, b = _check_views(model, view_a, view_b)
    act = model.cfg.activation

    xa = Tensor(a)
    z = mlp_forward(tape, model.online_encoder, xa, act)
    y = mlp_forward(tape, model.online_projector, z, act)
    q = mlp_forward(tape, model.online_predictor, y, act)
    q_bar = tape.l2_normalize(q)

    xb = Tensor(b)
    zt = mlp_forward(tape, model.target_encoder, xb, act)
    yt = mlp_forward(tape, model.target_projector, zt, act)
    y_bar = tape.l2_normalize(yt)

    return tape.mse(q_bar, y_bar)


def byol_loss_symmetrized(tape: Tape, model: TwinModel,
                          view_a: np.ndarray, view_b: np.ndarray) -> Tensor:
    """Sum of the two view assignments, L(a, b) + L(b, a), on one tape.
    sampler.posterior_grad takes each direction from a tape of its own,
    with the same gradient bits."""
    return tape.add(byol_loss_one_direction(tape, model, view_a, view_b),
                    byol_loss_one_direction(tape, model, view_b, view_a))


def ema_update(model: TwinModel) -> None:
    """target <- tau * target + (1 - tau) * online, on encoder and projector."""
    tau = model.cfg.tau
    for target, online in ((model.target_encoder, model.online_encoder),
                           (model.target_projector, model.online_projector)):
        for name, t in target.items():
            t.values = tau * t.values + (1.0 - tau) * online[name].values

