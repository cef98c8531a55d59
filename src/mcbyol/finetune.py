"""Semi-supervised fine-tuning of posterior snapshots into classifiers.

Each snapshot is fine-tuned independently (encoder copy + fresh linear
head) on a stratified labeled subset, by SGD with Nesterov momentum in
lookahead form and no augmentation.  The stored snapshot is never mutated.
Linear evaluation needs no tape: the head gradient on the frozen features
has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .data import Dataset, minibatches
from .errors import ConfigError, ContractError, DataError, DimensionError
from .model import Architecture, mlp_forward, mlp_forward_np
from .params import ParamVector
from .posterior import Snapshot, _pv_from_payload, read_container, softmax, write_container


@dataclass
class ClassifierHead:
    weight: Tensor  # (embed_dim, C)
    bias: Tensor    # (C,)

    @property
    def class_count(self) -> int:
        return self.weight.shape[1]


@dataclass
class FineTuneConfig:
    lr: float = 0.05
    momentum: float = 0.9
    batch: int = 80
    epochs: int = 50
    label_fraction: float = 1.0
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigError("label_fraction must lie in (0, 1]")


def subset_labels(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Stratified labeled subset: per-class counts = fraction of the class
    size rounded half-up, never below one sample per class."""
    if dataset.y is None:
        raise DataError("subset_labels requires a labeled dataset")
    if not 0.0 < fraction <= 1.0:
        raise ContractError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return Dataset(x=dataset.x.copy(), y=dataset.y.copy(),
                       split_tag=dataset.split_tag, gen_meta=dict(dataset.gen_meta))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 4])))
    keep: list[np.ndarray] = []
    for cls in np.unique(dataset.y):
        idx = np.flatnonzero(dataset.y == cls)
        k = max(1, int(np.floor(fraction * idx.size + 0.5)))
        keep.append(rng.choice(idx, size=k, replace=False))
    chosen = np.sort(np.concatenate(keep))
    if chosen.size == 0:
        raise ContractError("fraction selects zero samples")
    return Dataset(x=dataset.x[chosen].copy(), y=dataset.y[chosen].copy(),
                   split_tag=dataset.split_tag,
                   gen_meta={**dataset.gen_meta, "label_fraction": fraction})


def _init_head(embed_dim: int, classes: int, rng: np.random.Generator) -> ClassifierHead:
    bound = 1.0 / np.sqrt(embed_dim)
    return ClassifierHead(
        weight=Tensor(rng.uniform(-bound, bound, size=(embed_dim, classes)), requires_grad=True),
        bias=Tensor(rng.uniform(-bound, bound, size=(classes,)), requires_grad=True))


def _ce_np(logits: np.ndarray, labels: np.ndarray) -> float:
    p = softmax(logits)
    picked = np.maximum(p[np.arange(labels.size), labels], 1e-12)
    return float(-np.log(picked).mean())


def _head_grad(z: np.ndarray, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean softmax cross-entropy of logits = z @ W + b with
    respect to (W, b), flat in (W, b) order.  It runs the numpy operations
    that Tape.backward runs through softmax_cross_entropy, bias_add and
    matmul, in the same order, so its bits equal the tape's."""
    n = labels.size
    zmax = logits.max(axis=1, keepdims=True)
    logp = logits - (np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax)
    p = np.exp(logp)
    p[np.arange(n), labels] -= 1.0
    g = p / n
    grad = np.concatenate([(z.T @ g).ravel(), g.sum(axis=0)])
    grad += 0.0  # the tape accumulates into zeros, which turns -0.0 into +0.0
    return grad


def finetune(snapshot: Snapshot, labeled_data: Dataset, cfg: FineTuneConfig,
             seed: int, arch: Architecture,
             num_classes: int | None = None) -> tuple[ParamVector, ClassifierHead, list[float]]:
    """Returns (fine-tuned encoder copy, trained head, per-epoch loss log).

    freeze_encoder trains the head only (linear evaluation): the encoder's
    features are computed once and the head gradient comes from
    _head_grad, without a tape.  Otherwise the encoder copy is updated
    jointly with the head through a tape.  Both run one Nesterov loop that
    keeps the parameters and the velocity as flat arrays and writes them
    back into the returned tensors at the end of every epoch.
    """
    if labeled_data.y is None or labeled_data.n == 0:
        raise DataError("finetune requires non-empty labeled data")
    classes = int(labeled_data.y.max()) + 1 if num_classes is None else num_classes
    if labeled_data.y.min() < 0 or labeled_data.y.max() >= classes:
        raise DataError("labels out of range")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 5])))
    encoder = snapshot.encoder_params.copy()
    encoder.set_requires_grad(not cfg.freeze_encoder)
    head = _init_head(arch.embed_dim, classes, rng)

    trainable: dict[str, Tensor] = {}
    if not cfg.freeze_encoder:
        trainable.update({f"encoder.{k}": t for k, t in encoder.items()})
    trainable["head.weight"] = head.weight
    trainable["head.bias"] = head.bias
    group = ParamVector(trainable)

    x_all, y_all = labeled_data.x, labeled_data.y
    if cfg.freeze_encoder:
        frozen_z = mlp_forward_np(encoder, x_all, arch.activation)
        w_size, w_shape = head.weight.size, head.weight.shape

        def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
            z = frozen_z[idx]
            return _head_grad(z, z @ point[:w_size].reshape(w_shape) + point[w_size:], y_all[idx])
    else:
        def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
            group.set_flat(point)
            group.zero_grad()
            tape = Tape()
            z = mlp_forward(tape, encoder, Tensor(x_all[idx]), arch.activation)
            logits = tape.bias_add(tape.matmul(z, head.weight), head.bias)
            tape.backward(tape.softmax_cross_entropy(logits, y_all[idx]))
            return group.grad_flat()

    theta = group.flatten()
    velocity = np.zeros(theta.size)
    mu = cfg.momentum
    log: list[float] = []
    for epoch in range(cfg.epochs):
        for idx in minibatches(labeled_data.n, cfg.batch, seed, epoch):
            grad = grad_at(theta + mu * velocity, idx)  # at the lookahead point
            velocity = mu * velocity - cfg.lr * grad
            theta = theta + velocity
        group.set_flat(theta)
        z_eval = frozen_z if cfg.freeze_encoder else mlp_forward_np(encoder, x_all, arch.activation)
        log.append(_ce_np(z_eval @ head.weight.values + head.bias.values, y_all))

    encoder.set_requires_grad(False)
    return encoder, head, log


def predict_logits(encoder: ParamVector, head: ClassifierHead,
                   x: np.ndarray, arch: Architecture) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise DimensionError(f"predict_logits: expected (N, {arch.input_dim}) input")
    z = mlp_forward_np(encoder, x, arch.activation)
    if z.shape[1] != head.weight.shape[0]:
        raise DimensionError("head width does not match encoder embedding dim")
    return z @ head.weight.values + head.bias.values


# ---- member persistence -----------------------------------------------------

def save_member(path, encoder: ParamVector, head: ClassifierHead, meta: dict) -> None:
    head_pv = ParamVector({"weight": head.weight, "bias": head.bias})
    write_container(path, "member", meta,
                    [("encoder", {}, encoder), ("head", {}, head_pv)])


def load_member(path) -> tuple[ParamVector, ClassifierHead, dict]:
    header, payload = read_container(path, expect_kind="member")
    blocks = {b["name"]: b for b in header["blocks"]}
    encoder = _pv_from_payload(blocks["encoder"]["segments"], payload)
    head_pv = _pv_from_payload(blocks["head"]["segments"], payload)
    head = ClassifierHead(weight=head_pv["weight"], bias=head_pv["bias"])
    return encoder, head, header["meta"]
