"""Semi-supervised fine-tuning of posterior snapshots into classifiers.

Every snapshot gets a fresh linear head, over its own encoder or a copy
trained with it, fit on a stratified labeled subset by SGD with Nesterov
momentum in lookahead form, no augmentation, and its own seed for the head
init and the minibatch order.  The snapshots are never mutated.  One
finetune() call fits a group of snapshots of one (seed, label fraction),
and split_members cuts a seed's snapshots and fractions into such groups
for two processes by what a stacked fit costs.  Linear evaluation fits the
group as one stacked (S, D, C) problem.  Every gradient is taken in closed
form, with a tape's bits, and each member's bits equal those of a fit on
its own.

The stacked fit's elementwise steps, broadcasts and class reductions run
on class-major (C, S, B) planes, so that numpy's inner loops run along the
S * B rows, not along the few classes.  Each reduction keeps numpy's order:
a class max is exact in any order, a class sum follows numpy's pairwise
order (posterior._class_reduce), the bias gradient sums a batch-major copy
row after row, and the loss averages each head's contiguous row.  The two
matmuls keep the tape's operands: feats @ W, and feats' transpose times g
laid out (B, C) per head.

A head is a ParamVector with segments weight (D, C) then bias (C,), the
layout that posterior.save_member writes into a member checkpoint.
"""

from __future__ import annotations

import numpy as np

from .autodiff import mlp_backward, mlp_layers
from .config import FinetuneSection, ModelSection
from .data import Dataset, minibatch_keys, minibatches
from .errors import ContractError, DataError
from .model import mlp_arrays, mlp_forward_np
from .params import ParamVector
from .posterior import Snapshot, _shifted_exp


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


def _init_head(embed_dim: int, classes: int, rng: np.random.Generator) -> ParamVector:
    bound = 1.0 / np.sqrt(embed_dim)
    return ParamVector({
        "weight": rng.uniform(-bound, bound, size=(embed_dim, classes)),
        "bias": rng.uniform(-bound, bound, size=(classes,))})


def _class_major_logits(feats: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """feats @ weight + bias of S heads as class-major (C, S, B) planes, into
    out where given: feats (S, B, D), weight (S, D, C) and bias (S, C)."""
    return np.add((feats @ weight).transpose(2, 0, 1), bias.T[:, :, None], out=out, order="C")


def _mean_ce(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy of each head's N class-major (C, S, N)
    logits against the N labels: posterior.softmax, the picked probability
    floored at 1e-12, and the mean of its log along the rows of an (S, N)
    array, bit for bit."""
    _, e, total = _shifted_exp(logits, axis=0, out=logits)
    picked = np.divide(e.transpose(1, 0, 2)[:, labels, np.arange(labels.size)], total[0],
                       out=total[0])  # contiguous rows, along which numpy's mean sums pairwise
    np.maximum(picked, 1e-12, out=picked)
    return -np.log(picked, out=picked).mean(axis=1)


def _head_grad(feats: np.ndarray, weight: np.ndarray, bias: np.ndarray, onehot: np.ndarray,
               grad: np.ndarray) -> np.ndarray:
    """Gradients of the mean softmax cross-entropy of logits = feats @ W + b
    with respect to (W, b), for S heads at once: feats (S, B, D), W
    (S, D, C), b (S, C) and one-hot labels class-major (C, S, B).  Each
    head's gradient, flat in (W, b) order, fills the last D * C + C columns
    of its row of grad (S, P); returns the logits' own gradient g (S, B, C).
    Per head it does the arithmetic of a tape's backward through
    softmax_cross_entropy, bias_add and matmul, in the same order
    (subtracting the one-hot 1.0 or 0.0 equals the tape's -1.0 at the
    label), so each row's bits equal the tape's.  The elementwise steps run
    on class-major planes; the last one writes g in the tape's (B, C) per
    head, the operand of the weight gradient's matmul, and the bias
    gradient sums a batch-major (B, C, S) copy over its first axis, row
    after row, as numpy sums all but the last axis."""
    count, rows = feats.shape[:2]
    classes = weight.shape[2]
    first, second = np.empty((2, classes * count * rows))  # the class-major planes
    logits = _class_major_logits(feats, weight, bias, out=first.reshape(classes, count, rows))
    zmax, _, total = _shifted_exp(logits, axis=0, out=second.reshape(classes, count, rows))
    np.log(total, out=total)
    total += zmax
    g = np.subtract(logits, total, out=logits)
    np.exp(g, out=g)
    g -= onehot
    by_head = second.reshape(count, rows, classes)
    np.divide(g, rows, out=by_head.transpose(2, 0, 1))  # the mean over the batch
    head = grad[:, grad.shape[1] - weight[0].size - classes:]
    np.matmul(feats.transpose(0, 2, 1), by_head, out=head[:, :-classes].reshape(count, -1, classes))
    by_row = first.reshape(rows, classes, count)
    np.copyto(by_row, by_head.transpose(1, 2, 0))
    np.add.reduce(by_row, axis=0, out=head[:, -classes:].T)
    head += 0.0  # the tape accumulates into zeros, which turns -0.0 into +0.0
    return by_head


def _nesterov(theta: np.ndarray, seeds: list[int], n: int, cfg: FinetuneSection,
              grad_at, epoch_loss) -> tuple[np.ndarray, list[list[float]]]:
    """SGD with Nesterov momentum in lookahead form on every row of theta
    (S, P), updated in place.  Row s takes its minibatch order in each
    epoch from the key of (seeds[s], epoch); all keys are derived once, and
    each epoch's orders come from one minibatches call.  grad_at(point,
    idx) gives the (S, P) gradients at point on the (S, B) row indices idx,
    which the loop may overwrite; epoch_loss(theta) gives the S losses
    logged after each epoch.  Returns (theta, per-row loss logs)."""
    velocity = np.zeros_like(theta)
    point = np.empty_like(theta)
    mu = cfg.momentum
    logs: list[list[float]] = [[] for _ in seeds]
    keys = minibatch_keys(seeds, cfg.epochs)
    for epoch in range(cfg.epochs):
        for idx in minibatches(n, cfg.batch, keys[:, epoch]):
            velocity *= mu
            grad = grad_at(np.add(theta, velocity, out=point), idx)  # at the lookahead point
            grad *= cfg.lr
            velocity -= grad
            theta += velocity
        for log, loss in zip(logs, epoch_loss(theta)):
            log.append(float(loss))
    return theta, logs


def finetune(snapshots: list[Snapshot], labeled_data: Dataset, cfg: FinetuneSection,
             seeds: list[int], model: ModelSection, num_classes: int
             ) -> list[tuple[ParamVector, ParamVector, list[float]]]:
    """Fine-tunes each snapshot with its own seed (head init and minibatch
    order) and returns one (encoder, trained head, per-epoch loss log) per
    snapshot, in order.  Labels must lie in [0, num_classes).  The head is a
    ParamVector: weight (embed_dim, num_classes), bias (num_classes,).

    freeze_encoder trains the heads only, over the snapshots' own encoders,
    as one stacked problem: every snapshot's features go once into (S, N, D),
    the S heads live as rows of one (S, P) array, and each minibatch
    position takes every head's gradient in one batched call of _head_grad.
    Otherwise each encoder copy is updated jointly with its head, one
    snapshot after another (_fit_jointly).  Both run the same Nesterov
    loop; each member's bits equal those of a fit on its own.
    """
    if labeled_data.y is None or labeled_data.n == 0:
        raise DataError("finetune requires non-empty labeled data")
    if labeled_data.y.min() < 0 or labeled_data.y.max() >= num_classes:
        raise DataError("labels out of range")
    if len(seeds) != len(snapshots):
        raise ContractError(f"finetune: {len(snapshots)} snapshots but {len(seeds)} seeds")

    encoders = [snap.encoder_params if cfg.freeze_encoder else snap.encoder_params.copy()
                for snap in snapshots]
    heads = [_init_head(model.embed_dim, num_classes,
                        np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 5]))))
             for seed in seeds]
    x_all, y_all, act = labeled_data.x, labeled_data.y, model.activation
    if cfg.freeze_encoder:
        logs = _fit_heads(encoders, heads, x_all, y_all, cfg, seeds, act) if seeds else []
    else:
        logs = [_fit_jointly(encoder, head, x_all, y_all, cfg, seed, act)
                for encoder, head, seed in zip(encoders, heads, seeds)]
    return list(zip(encoders, heads, logs))


def _fit_heads(encoders, heads, x_all, y_all, cfg, seeds, activation) -> list[list[float]]:
    """Linear evaluation of S frozen encoders as one stacked fit."""
    z = np.stack([mlp_forward_np(encoder, x_all, activation) for encoder in encoders])
    count, n, dim = z.shape
    classes = heads[0]["weight"].shape[1]
    w_size = dim * classes
    z_rows = z.reshape(count * n, dim)
    first_row = (np.arange(count) * n)[:, None]  # of each member's block in z_rows
    onehot = np.eye(classes)[:, y_all]  # class-major (C, n)
    grad = np.empty((count, w_size + classes))

    def heads_at(point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return point[:, :w_size].reshape(count, dim, classes), point[:, w_size:]

    def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
        feats = np.take(z_rows, idx + first_row, axis=0)  # each member's own rows, (S, B, D)
        _head_grad(feats, *heads_at(point), np.take(onehot, idx, axis=1), grad)
        return grad

    theta, logs = _nesterov(np.stack([head.flatten() for head in heads]), seeds, n, cfg, grad_at,
                            lambda th: _mean_ce(_class_major_logits(z, *heads_at(th)), y_all))
    for head, row in zip(heads, theta):
        head.set_flat(row)
    return logs


def _fit_jointly(encoder, head, x_all, y_all, cfg, seed, activation) -> list[float]:
    """Joint fine-tuning of one encoder copy and its head, with the bits of
    a tape's backward: _head_grad for the head, as one stacked head, and
    mlp_backward of its logits adjoint through the encoder."""
    group = ParamVector({**{f"encoder.{k}": t for k, t in encoder.items()},
                         "head.weight": head["weight"], "head.bias": head["bias"]})
    layers, w, b = mlp_arrays(encoder), head["weight"].values, head["bias"].values
    onehot = np.eye(w.shape[1])[:, y_all]  # class-major (C, n)
    grad = np.empty((1, group.total_dim))

    def grad_at(point: np.ndarray, idx: np.ndarray) -> np.ndarray:
        group.set_flat(point[0])
        x = x_all[idx[0]]
        outs = mlp_layers(x, layers, activation)
        g = _head_grad(outs[-1][None], w[None], b[None], onehot[:, idx], grad)
        _, grads = mlp_backward(x, layers, outs, g[0] @ w.T, activation, input_grad=False)
        np.concatenate([a.ravel() for a in grads], out=grad[0, :-head.total_dim])
        np.add(grad, 0.0, out=grad)  # as in _head_grad
        return grad

    def epoch_loss(theta: np.ndarray) -> np.ndarray:
        group.set_flat(theta[0])
        z = mlp_forward_np(encoder, x_all, activation)
        return _mean_ce(_class_major_logits(z[None], w[None], b[None]), y_all)

    _, (log,) = _nesterov(group.flatten()[None], [seed], len(y_all), cfg, grad_at, epoch_loss)
    return log


# a minibatch position's fixed cost in a stacked head fit, counted in heads:
# one position (B = 80, D = 16, C = 4) took 62, 106, 159 and 476 us for 4,
# 12, 20 and 60 heads on a 2-core Xeon, about 32 us plus 7.4 us per head, and
# the epoch loss over 1,000 rows 39-52 us per head, 3-4 us per head per
# position, which puts the fixed cost near 3 or 4 heads; 4 fit wide_ensemble's
# three seeds no faster than 6 in 30 alternating runs, so 6 stays
_POSITION_COST = 6


def split_members(counts: list[int], snapshots: int
                  ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Splits fine-tuning between two processes in units of (label fraction
    index, first snapshot, end snapshot), each one stacked finetune() call.
    counts holds each fraction's minibatches per epoch; a unit of m members
    costs count * (_POSITION_COST + m), a minibatch position's fixed cost
    plus one per head.

    The largest fraction (the first of equals) goes first: whole to the
    first process, or cut at a snapshot k, 0 .. k - 1 to the first process
    and k .. snapshots - 1 to the second.  The other fractions follow
    whole, largest first, each to the process with the smaller cost so
    far, ties to the first and, among equal counts, in list order.  The
    cut whose larger share costs least wins, no cut winning a tie and
    then the larger k.  The cost model picks the schedule only; no output
    depends on it.  Returns each process's units, ascending."""
    order = sorted(range(len(counts)), key=lambda i: -counts[i])

    def schedule(cut: int) -> tuple[int, tuple[list, list]]:
        shares: tuple[list, list] = ([], [])
        loads = [0, 0]

        def give(p: int, i: int, start: int, end: int) -> None:
            shares[p].append((i, start, end))
            loads[p] += counts[i] * (_POSITION_COST + end - start)

        give(0, order[0], 0, cut)
        if cut < snapshots:
            give(1, order[0], cut, snapshots)
        for i in order[1:]:
            give(int(loads[1] < loads[0]), i, 0, snapshots)
        return max(loads), (sorted(shares[0]), sorted(shares[1]))

    if not counts:
        return [], []
    return min((schedule(cut) for cut in range(snapshots, 0, -1)), key=lambda s: s[0])[1]
