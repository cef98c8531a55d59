"""Twin-network model: online encoder/projector/predictor, EMA target, losses.

The online network is trained; the target network is its exponential
moving average and never receives gradients.  All networks are dense MLPs
(activation on hidden layers, linear output).

A TwinModel keeps its weights in two flat float64 arrays, online and
target; every tensor of its five networks is a reshaped view into one of
them, and every write to the weights is in place.  mlp_forward and the
byol_loss_* functions are the tests' Tape oracle for sampler.direction_grad.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, mlp_layers
from .config import ModelSection
from .errors import ContractError, DimensionError
from .params import ParamVector


@dataclass
class TwinModel:
    cfg: ModelSection  # the section it was built from: activation and EMA tau
    online_encoder: ParamVector
    online_projector: ParamVector
    online_predictor: ParamVector
    target_encoder: ParamVector
    target_projector: ParamVector
    # encoder | projector | predictor (the prior applies to the leading encoder
    # slice, sampler.posterior_grad); target has the layout of online's start
    online: np.ndarray = field(init=False, repr=False, compare=False)
    target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(t.same_layout(o) for t, o in zip(self._parts()[1], self.online_parts())):
            raise DimensionError("the target networks must match the online encoder and projector")
        self.move_to(*(np.empty(sum(p.total_dim for p in ps)) for ps in self._parts()))

    def __deepcopy__(self, memo: dict) -> "TwinModel":  # with arrays of its own
        return TwinModel(copy.deepcopy(self.cfg, memo), *(p.copy() for ps in self._parts() for p in ps))

    def _parts(self) -> tuple[tuple[ParamVector, ...], tuple[ParamVector, ...]]:
        return self.online_parts(), (self.target_encoder, self.target_projector)

    def move_to(self, online: np.ndarray, target: np.ndarray) -> None:
        """Copies the weights into the flat float64 arrays online and target
        and makes every tensor a view of them (DirectionHelper's mmap)."""
        for buf, parts in zip((online, target), self._parts()):
            offset = 0
            for t in (t for p in parts for _, t in p.items()):
                buf[offset:offset + t.size] = t.values.ravel()
                t.values = buf[offset:offset + t.size].reshape(t.shape)
                offset += t.size
        self.online, self.target = online, target

    def online_parts(self) -> tuple[ParamVector, ParamVector, ParamVector]:
        return self.online_encoder, self.online_projector, self.online_predictor

    @property
    def online_dim(self) -> int:
        return self.online.size

    @property
    def encoder_dim(self) -> int:
        return self.online_encoder.total_dim

    @property
    def input_dim(self) -> int:
        return self.online_encoder["layer0.w"].shape[0]

    def online_flat(self) -> np.ndarray:
        """An independent copy of the online weights, flat."""
        return self.online.copy()

    def set_online_flat(self, vec: np.ndarray) -> None:
        """Writes vec, of online_dim values, into the online array in place."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self.online.shape:
            raise DimensionError(f"set_online_flat: need {self.online_dim} values")
        self.online[:] = vec


def init_mlp(widths: list[int], rng: np.random.Generator) -> ParamVector:
    """Scaled-uniform fan-in init: W, b ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    segments: dict[str, np.ndarray] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        segments[f"layer{i}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        segments[f"layer{i}.b"] = rng.uniform(-bound, bound, size=(fan_out,))
    return ParamVector(segments)


def init_twin(cfg: ModelSection, input_dim: int, seed: int) -> TwinModel:
    """Online weights seeded; target starts as an exact copy of the online
    encoder and projector (the predictor has no target counterpart)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    encoder = init_mlp([input_dim, *cfg.encoder_hidden, cfg.embed_dim], rng)
    projector = init_mlp([cfg.embed_dim, cfg.proj_hidden, cfg.proj_dim], rng)
    # the predictor maps projection space onto itself
    predictor = init_mlp([cfg.proj_dim, cfg.pred_hidden, cfg.proj_dim], rng)
    return TwinModel(cfg, encoder, projector, predictor, encoder.copy(), projector.copy())


def _layers(pv: ParamVector) -> list[tuple[Tensor, Tensor]]:
    return [(pv[f"layer{i}.w"], pv[f"layer{i}.b"]) for i in range(len(pv.names) // 2)]


def mlp_forward(tape: Tape, pv: ParamVector, x: Tensor, activation: str) -> Tensor:
    """Tape-recorded forward pass, a matmul -> bias_add -> tanh|relu record
    per layer, with no activation after the last layer."""
    if activation not in ("tanh", "relu"):
        raise ContractError(f"mlp_forward: unknown activation {activation!r}")
    act = tape.tanh if activation == "tanh" else tape.relu
    layers = _layers(pv)
    for i, (w, b) in enumerate(layers):
        x = tape.bias_add(tape.matmul(x, w), b)
        if i < len(layers) - 1:
            x = act(x)
    return x


def mlp_arrays(pv: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (W, b) value arrays of every layer, input side first."""
    return [(w.values, b.values) for w, b in _layers(pv)]


def mlp_forward_np(pv: ParamVector, x: np.ndarray, activation: str, out: list | None = None) -> np.ndarray:
    """Inference-mode forward pass, no tape; the arithmetic of mlp_forward's
    records.  out, where given, takes every layer's output (mlp_layers)."""
    return mlp_layers(np.asarray(x, dtype=np.float64), mlp_arrays(pv), activation, out)[-1]


def check_views(model: TwinModel, view_a: np.ndarray, view_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both views as float64 arrays, which must be equal non-empty 2-D
    batches of the model's input width."""
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
    a, b = check_views(model, view_a, view_b)
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
    Pretraining does not run it: sampler.direction_grad takes each
    direction's gradient in closed form, and posterior_grad sums the two,
    with the bits of this tape's backward."""
    return tape.add(byol_loss_one_direction(tape, model, view_a, view_b),
                    byol_loss_one_direction(tape, model, view_b, view_a))


def ema_update(model: TwinModel) -> None:
    """target <- tau * target + (1 - tau) * online, on encoder and projector,
    in place; elementwise, so with the bits of a loop over the tensors."""
    tau, target = model.cfg.tau, model.target
    target[:] = tau * target + (1.0 - tau) * model.online[:target.size]

