"""Semi-supervised fine-tuning of posterior snapshots into classifiers.

Every snapshot gets an encoder copy and a fresh linear head, trained on a
stratified labeled subset by SGD with Nesterov momentum in lookahead form
and no augmentation; each has its own seed for the head init and the
minibatch order.  The stored snapshots are never mutated.  One finetune()
call fits all snapshots of a (seed, label fraction) group.  Linear
evaluation fits the group as one stacked (S, D, C) problem without a tape:
the head gradient on the frozen features has a closed form.  Each
member's bits equal those of a fit on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .config import FinetuneSection, ModelSection
from .data import Dataset, minibatch_keys, minibatches
from .errors import ContractError, DataError
from .model import mlp_forward, mlp_forward_np
from .params import ParamVector
from .posterior import Snapshot, _pv_from_payload, _shifted_exp, read_container, write_container


@dataclass
class ClassifierHead:
    weight: Tensor  # (embed_dim, C)
    bias: Tensor    # (C,)

    @property
    def class_count(self) -> int:
        return self.weight.shape[1]


def subset_labels(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Stratified labeled subset: per-class counts = fraction of the class
    size rounded half-up, never below one sample per class."""
    if dataset.y is None:
        raise DataError("subset_labels requires a labeled dataset")
    if not 0.0 < fraction <= 1.0:
        raise ContractError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return Dataset(x=dataset.x.copy(), y=dataset.y.copy())
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 4])))
    keep: list[np.ndarray] = []
    for cls in np.unique(dataset.y):
        idx = np.flatnonzero(dataset.y == cls)
        k = max(1, int(np.floor(fraction * idx.size + 0.5)))
        keep.append(rng.choice(idx, size=k, replace=False))
    chosen = np.sort(np.concatenate(keep))
    if chosen.size == 0:
        raise ContractError("fraction selects zero samples")
    return Dataset(x=dataset.x[chosen].copy(), y=dataset.y[chosen].copy())


def _init_head(embed_dim: int, classes: int, rng: np.random.Generator) -> ClassifierHead:
    bound = 1.0 / np.sqrt(embed_dim)
    return ClassifierHead(
        weight=Tensor(rng.uniform(-bound, bound, size=(embed_dim, classes)), requires_grad=True),
        bias=Tensor(rng.uniform(-bound, bound, size=(classes,)), requires_grad=True))


def _mean_ce(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy of every (N, C) slice of (S, N, C) logits
    against the N labels: posterior.softmax, the picked probability floored
    at 1e-12, and the mean of its log, bit for bit."""
    _, e, total = _shifted_exp(logits)
    picked = e[:, np.arange(labels.size), labels] / total[..., 0]
    return -np.log(np.maximum(picked, 1e-12)).mean(axis=1)


def _head_grad(z: np.ndarray, logits: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Gradients of the mean softmax cross-entropy of logits = z @ W + b
    with respect to (W, b), for S heads at once: z (S, B, D), logits and
    one-hot labels (S, B, C).  Returns (S, P), each row flat in (W, b)
    order.  Per head it does the arithmetic that Tape.backward does through
    softmax_cross_entropy, bias_add and matmul, in the same order
    (subtracting the one-hot 1.0 or 0.0 equals the tape's -1.0 at the
    label), so each row's bits equal the tape's."""
    zmax, _, total = _shifted_exp(logits)
    g = (np.exp(logits - (np.log(total) + zmax)) - onehot) / onehot.shape[1]
    grad = np.concatenate([(z.transpose(0, 2, 1) @ g).reshape(len(g), -1), g.sum(axis=1)],
                          axis=1)
    grad += 0.0  # the tape accumulates into zeros, which turns -0.0 into +0.0
    return grad


def _nesterov(theta: np.ndarray, seeds: list[int], n: int, cfg: FinetuneSection,
              grad_at, epoch_loss) -> tuple[np.ndarray, list[list[float]]]:
    """SGD with Nesterov momentum in lookahead form on every row of theta
    (S, P).  Row s takes its minibatch order in each epoch from the key
    of (seeds[s], epoch); all keys are derived once, and each epoch's
    orders come from one minibatches call.  grad_at(point, idx) gives the
    (S, P) gradients at point on the (S, B) row indices idx;
    epoch_loss(theta) gives the S losses logged after each epoch.  Returns
    (theta, per-row loss logs)."""
    velocity = np.zeros_like(theta)
    mu = cfg.momentum
    logs: list[list[float]] = [[] for _ in seeds]
    keys = minibatch_keys(seeds, cfg.epochs)
    for epoch in range(cfg.epochs):
        for idx in minibatches(n, cfg.batch, keys[:, epoch]):
            grad = grad_at(theta + mu * velocity, idx)  # at the lookahead point
            velocity = mu * velocity - cfg.lr * grad
            theta = theta + velocity
        for log, loss in zip(logs, epoch_loss(theta)):
            log.append(float(loss))
    return theta, logs


def finetune(snapshots: list[Snapshot], labeled_data: Dataset, cfg: FinetuneSection,
             seeds: list[int], model: ModelSection, num_classes: int
             ) -> list[tuple[ParamVector, ClassifierHead, list[float]]]:
    """Fine-tunes each snapshot with its own seed (head init and minibatch
    order) and returns one (encoder copy, trained head, per-epoch loss log)
    per snapshot, in order.  Labels must lie in [0, num_classes).

    freeze_encoder trains the heads only (linear evaluation) as one stacked
    problem: every snapshot's features are computed once into (S, N, D),
    the S heads live as rows of one (S, P) array, and each minibatch
    position takes every head's gradient in one batched call of _head_grad,
    without a tape.  Otherwise each encoder copy is updated jointly with
    its head through a tape, one snapshot after another.  Both run the
    same Nesterov loop; each member's bits equal those of a fit on its own.
    """
    if labeled_data.y is None or labeled_data.n == 0:
        raise DataError("finetune requires non-empty labeled data")
    if labeled_data.y.min() < 0 or labeled_data.y.max() >= num_classes:
        raise DataError("labels out of range")
    if len(seeds) != len(snapshots):
        raise ContractError(f"finetune: {len(snapshots)} snapshots but {len(seeds)} seeds")

    encoders = [snap.encoder_params.copy() for snap in snapshots]
    heads = [_init_head(model.embed_dim, num_classes,
                        np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 5]))))
             for seed in seeds]
    x_all, y_all, act = labeled_data.x, labeled_data.y, model.activation
    if cfg.freeze_encoder:
        logs = _fit_heads(encoders, heads, x_all, y_all, cfg, seeds, act) if seeds else []
    else:
        logs = [_fit_jointly(encoder, head, x_all, y_all, cfg, seed, act)
                for encoder, head, seed in zip(encoders, heads, seeds)]
    for encoder in encoders:
        encoder.set_requires_grad(False)
    return list(zip(encoders, heads, logs))


def _fit_heads(encoders, heads, x_all, y_all, cfg, seeds, activation) -> list[list[float]]:
    """Linear evaluation of S frozen encoders as one stacked fit."""
    z = np.stack([mlp_forward_np(encoder, x_all, activation) for encoder in encoders])
    count, n, dim = z.shape
    classes = heads[0].class_count
    w_size = dim * classes
    z_rows = z.reshape(count * n, dim)
    first_row = (np.arange(count) * n)[:, None]  # of each member's block in z_rows
    onehot = np.eye(classes)[y_all]

    def logits_at(point: np.ndarray, feats: np.ndarray) -> np.ndarray:
        logits = feats @ point[:, :w_size].reshape(count, dim, classes)
        logits += point[:, None, w_size:]
        return logits

    def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
        feats = np.take(z_rows, idx + first_row, axis=0)  # each member's own rows, (S, B, D)
        return _head_grad(feats, logits_at(point, feats), np.take(onehot, idx, axis=0))

    theta0 = np.stack([np.concatenate([h.weight.values.ravel(), h.bias.values]) for h in heads])
    theta, logs = _nesterov(theta0, seeds, n, cfg, grad_at,
                            lambda th: _mean_ce(logits_at(th, z), y_all))
    for head, row in zip(heads, theta):
        head.weight.values = row[:w_size].reshape(dim, classes).copy()
        head.bias.values = row[w_size:].copy()
    return logs


def _fit_jointly(encoder, head, x_all, y_all, cfg, seed, activation) -> list[float]:
    """Joint fine-tuning of one encoder copy and its head through a tape;
    the parameters are written back at the end of every epoch."""
    encoder.set_requires_grad(True)
    group = ParamVector({**{f"encoder.{k}": t for k, t in encoder.items()},
                         "head.weight": head.weight, "head.bias": head.bias})

    def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
        group.set_flat(point[0])
        group.zero_grad()
        tape = Tape()
        z = mlp_forward(tape, encoder, Tensor(x_all[idx[0]]), activation)
        logits = tape.bias_add(tape.matmul(z, head.weight), head.bias)
        tape.backward(tape.softmax_cross_entropy(logits, y_all[idx[0]]))
        return group.grad_flat()[None]

    def epoch_loss(theta: np.ndarray) -> np.ndarray:
        group.set_flat(theta[0])
        z = mlp_forward_np(encoder, x_all, activation)
        return _mean_ce((z @ head.weight.values + head.bias.values)[None], y_all)

    _, (log,) = _nesterov(group.flatten()[None], [seed], len(y_all), cfg, grad_at, epoch_loss)
    return log


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
