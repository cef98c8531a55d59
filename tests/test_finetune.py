import numpy as np
import pytest
from minibatch_reference import reference_minibatches

from mcbyol.autodiff import Tape, Tensor
from mcbyol.config import DataSection, FinetuneSection, ModelSection
from mcbyol.data import Dataset, make_clusters
from mcbyol.errors import ContractError, DataError
from mcbyol.finetune import (ClassifierHead, _init_head, finetune, load_member, save_member,
                             subset_labels)
from mcbyol.model import init_twin, mlp_forward, mlp_forward_np
from mcbyol.params import ParamVector
from mcbyol.posterior import PosteriorEnsemble, _class_reduce, collect, softmax

TINY = ModelSection(encoder_hidden=[6], embed_dim=3, proj_hidden=3, proj_dim=2, pred_hidden=3)


def snapshot_for(seed=0):
    ens = PosteriorEnsemble(run_meta={})
    collect(ens, init_twin(TINY, 4, seed), step=0, cycle=0, loss=0.0)
    return ens.snapshots[0]


def predict_logits(encoder, head, x, arch):
    """A fine-tuned member's logits, as BMA computes them per member."""
    return mlp_forward_np(encoder, x, arch.activation) @ head.weight.values + head.bias.values


def toy_labeled(n_per_class=50, classes=3, seed=0):
    return make_clusters(DataSection(classes=classes, input_dim=4, separation=4.0, seed=seed),
                         n_per_class)


def fit_one(snap, ds, cfg, seed, arch=TINY, num_classes=3):
    """finetune() on a one-snapshot group; returns its (encoder, head, log)."""
    (member,) = finetune([snap], ds, cfg, [seed], arch, num_classes=num_classes)
    return member


# ---- subset selection -------------------------------------------------------


def test_full_fraction_preserves_original_order():
    ds = toy_labeled()
    sub = subset_labels(ds, 1.0, seed=0)
    assert np.array_equal(sub.x, ds.x) and np.array_equal(sub.y, ds.y)


def test_quarter_fraction_takes_25_per_class():
    ds = toy_labeled(n_per_class=100, classes=2)
    sub = subset_labels(ds, 0.25, seed=1)
    assert np.bincount(sub.y).tolist() == [25, 25]


def test_small_class_keeps_at_least_one():
    x = np.random.default_rng(0).normal(size=(105, 4))
    y = np.array([0] * 100 + [1] * 5)
    ds = Dataset(x=x, y=y)
    sub = subset_labels(ds, 0.1, seed=2)
    counts = np.bincount(sub.y)
    assert counts[0] == 10 and counts[1] == 1


def test_subset_deterministic_under_seed():
    ds = toy_labeled()
    a = subset_labels(ds, 0.1, seed=5)
    b = subset_labels(ds, 0.1, seed=5)
    c = subset_labels(ds, 0.1, seed=6)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_subset_counts_exact_for_label_fraction_sweep():
    # 0.1 of 1000 samples -> exactly 100, deterministic
    ds = toy_labeled(n_per_class=250, classes=4)
    sub = subset_labels(ds, 0.1, seed=3)
    assert sub.n == 100


def test_stratified_proportions_within_one_sample():
    ds = toy_labeled(n_per_class=97, classes=3)
    for frac in (0.5, 0.33, 0.2):
        sub = subset_labels(ds, frac, seed=4)
        for c in range(3):
            got = int((sub.y == c).sum())
            assert abs(got - frac * 97) <= 1.0


def test_subset_fraction_bounds():
    ds = toy_labeled()
    with pytest.raises(ContractError):
        subset_labels(ds, 0.0, seed=0)
    with pytest.raises(ContractError):
        subset_labels(ds, 1.5, seed=0)


def test_subset_requires_labels():
    ds = Dataset(x=np.zeros((4, 4)), y=None)
    with pytest.raises(DataError):
        subset_labels(ds, 0.5, seed=0)


# ---- fine-tuning ------------------------------------------------------------


def test_lr_zero_leaves_parameters_unchanged():
    snap = snapshot_for()
    ds = toy_labeled()
    cfg = FinetuneSection(lr=0.0, momentum=0.9, batch=16, epochs=3, freeze_encoder=False)
    enc, head, _ = fit_one(snap, ds, cfg, seed=0)
    assert np.array_equal(enc.flatten(), snap.encoder_params.flatten())
    w0 = head.weight.values.copy()
    enc2, head2, _ = fit_one(snap, ds, cfg, seed=0)
    assert np.array_equal(head2.weight.values, w0)  # deterministic init, untouched


def test_finetune_does_not_mutate_snapshot():
    snap = snapshot_for(1)
    before = snap.encoder_params.flatten().copy()
    ds = toy_labeled()
    cfg = FinetuneSection(lr=0.1, momentum=0.9, batch=32, epochs=5, freeze_encoder=False)
    fit_one(snap, ds, cfg, seed=0)
    assert np.array_equal(snap.encoder_params.flatten(), before)


def test_frozen_encoder_reaches_full_accuracy_on_separable_data():
    # tight input clusters stay tight through the fixed encoder, so the
    # embeddings are linearly separable by construction
    snap = snapshot_for(2)
    rng = np.random.default_rng(9)
    centers = rng.normal(size=(3, 4)) * 2.0
    x = np.concatenate([centers[c] + 0.01 * rng.normal(size=(40, 4)) for c in range(3)])
    y = np.repeat(np.arange(3), 40)
    ds = Dataset(x=x, y=y)
    cfg = FinetuneSection(lr=0.2, momentum=0.9, batch=20, epochs=80, freeze_encoder=True)
    enc, head, log = fit_one(snap, ds, cfg, seed=1)
    logits = predict_logits(enc, head, ds.x, TINY)
    train_acc = float((logits.argmax(axis=1) == ds.y).mean())
    assert train_acc == 1.0
    assert np.array_equal(enc.flatten(), snap.encoder_params.flatten())


def test_frozen_convex_loss_is_monotone_at_small_lr():
    snap = snapshot_for(3)
    ds = toy_labeled(n_per_class=30, classes=3, seed=10)
    cfg = FinetuneSection(lr=1e-3, momentum=0.0, batch=1000, epochs=25, freeze_encoder=True)
    _, _, log = fit_one(snap, ds, cfg, seed=2)
    diffs = np.diff(np.asarray(log))
    assert np.all(diffs <= 1e-12)


def test_unfrozen_finetune_updates_encoder():
    snap = snapshot_for(4)
    ds = toy_labeled()
    cfg = FinetuneSection(lr=0.05, momentum=0.9, batch=32, epochs=5, freeze_encoder=False)
    enc, _, _ = fit_one(snap, ds, cfg, seed=3)
    assert np.any(enc.flatten() != snap.encoder_params.flatten())


def _ce_np(logits, labels):
    p = softmax(logits)
    picked = np.maximum(p[np.arange(labels.size), labels], 1e-12)
    return float(-np.log(picked).mean())


def tape_finetune(snapshot, data, cfg, seed, arch, classes):
    """Reference fit of one snapshot: every minibatch gradient comes from a
    tape, and the parameters are read back and written twice per
    minibatch."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 5])))
    encoder = snapshot.encoder_params.copy()
    encoder.set_requires_grad(not cfg.freeze_encoder)
    head = _init_head(arch.embed_dim, classes, rng)
    trainable = {} if cfg.freeze_encoder else {f"encoder.{k}": t for k, t in encoder.items()}
    trainable["head.weight"] = head.weight
    trainable["head.bias"] = head.bias
    group = ParamVector(trainable)
    frozen_z = mlp_forward_np(encoder, data.x, arch.activation) if cfg.freeze_encoder else None
    velocity = np.zeros(group.total_dim)
    mu = cfg.momentum

    def batch_grad(idx):
        group.zero_grad()
        tape = Tape()
        if cfg.freeze_encoder:
            z = Tensor(frozen_z[idx])
        else:
            z = mlp_forward(tape, encoder, Tensor(data.x[idx]), arch.activation)
        logits = tape.bias_add(tape.matmul(z, head.weight), head.bias)
        tape.backward(tape.softmax_cross_entropy(logits, data.y[idx]))
        return group.grad_flat()

    log = []
    for epoch in range(cfg.epochs):
        for idx in reference_minibatches(data.n, cfg.batch, seed, epoch):
            theta = group.flatten()
            group.set_flat(theta + mu * velocity)
            grad = batch_grad(idx)
            velocity = mu * velocity - cfg.lr * grad
            group.set_flat(theta + velocity)
        z_eval = frozen_z if cfg.freeze_encoder else mlp_forward_np(encoder, data.x, arch.activation)
        log.append(_ce_np(z_eval @ head.weight.values + head.bias.values, data.y))
    return encoder, head, log


def assert_same_member(got, ref):
    (enc, head, log), (ref_enc, ref_head, ref_log) = got, ref
    assert enc.flatten().tobytes() == ref_enc.flatten().tobytes()
    assert head.weight.values.tobytes() == ref_head.weight.values.tobytes()
    assert head.bias.values.tobytes() == ref_head.bias.values.tobytes()
    assert log == ref_log


def relabeled(classes):
    """150 rows whose labels cycle through every class."""
    base = toy_labeled(n_per_class=50, classes=3, seed=11)
    return Dataset(x=base.x, y=np.arange(base.n) % classes)


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("batch", [40, 149])  # final batches of 30 rows and of 1 row
def test_finetune_is_bit_identical_to_tape_reference(freeze, momentum, batch):
    snap = snapshot_for(9)
    ds = toy_labeled(n_per_class=50, classes=3, seed=11)
    cfg = FinetuneSection(lr=0.3, momentum=momentum, batch=batch, epochs=4,
                         freeze_encoder=freeze)
    assert_same_member(fit_one(snap, ds, cfg, seed=5, num_classes=4),
                       tape_finetune(snap, ds, cfg, 5, TINY, 4))


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("classes", [4, 9])  # 9 is above numpy's 8-term pairwise-sum block
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("batch", [40, 149])  # final batches of 30 rows and of 1 row
def test_stacked_linear_eval_is_bit_identical_to_per_member_tape_fits(members, classes,
                                                                       momentum, batch):
    snaps = [snapshot_for(20 + m) for m in range(members)]
    seeds = [7 + 13 * m for m in range(members)]
    ds = relabeled(classes)
    cfg = FinetuneSection(lr=0.3, momentum=momentum, batch=batch, epochs=4, freeze_encoder=True)
    fitted = finetune(snaps, ds, cfg, seeds, TINY, num_classes=classes)
    assert len(fitted) == members
    for got, snap, seed in zip(fitted, snaps, seeds):
        assert_same_member(got, tape_finetune(snap, ds, cfg, seed, TINY, classes))


def test_unfrozen_group_is_bit_identical_to_per_member_tape_fits():
    snaps = [snapshot_for(30 + m) for m in range(3)]
    seeds = [3, 1, 2]
    ds = relabeled(4)
    cfg = FinetuneSection(lr=0.3, momentum=0.9, batch=40, epochs=3, freeze_encoder=False)
    fitted = finetune(snaps, ds, cfg, seeds, TINY, num_classes=4)
    for got, snap, seed in zip(fitted, snaps, seeds):
        assert_same_member(got, tape_finetune(snap, ds, cfg, seed, TINY, 4))


@pytest.mark.parametrize("freeze", [True, False])
def test_empty_group_fits_nothing(freeze):
    cfg = FinetuneSection(lr=0.1, epochs=2, freeze_encoder=freeze)
    assert finetune([], toy_labeled(), cfg, [], TINY, num_classes=3) == []


def test_one_seed_per_snapshot_required():
    cfg = FinetuneSection(lr=0.1, epochs=1, freeze_encoder=True)
    with pytest.raises(ContractError):
        finetune([snapshot_for(), snapshot_for(1)], toy_labeled(), cfg, [0], TINY,
                 num_classes=3)


@pytest.mark.parametrize("ufunc", [np.add, np.maximum])
def test_class_reduce_matches_numpy_row_reduction_at_every_class_count(ufunc):
    rng = np.random.default_rng(12)
    for classes in range(1, 20):
        for rows in (1, 7, 80):
            a = rng.exponential(size=(3, rows, classes))  # exp() terms are non-negative
            got = _class_reduce(a, ufunc)
            assert got.shape == (3, rows, 1)
            for s in range(3):
                ref = ufunc.reduce(a[s], axis=1, keepdims=True)
                assert got[s].tobytes() == ref.tobytes()


def test_label_out_of_range_rejected():
    snap = snapshot_for()
    x = np.zeros((4, 4))
    ds = Dataset(x=x, y=np.array([0, 1, 2, 3]))
    cfg = FinetuneSection(lr=0.1, epochs=1, freeze_encoder=False)
    with pytest.raises(DataError):
        fit_one(snap, ds, cfg, seed=0, num_classes=3)


# ---- prediction -------------------------------------------------------------


def test_zero_head_gives_uniform_softmax():
    snap = snapshot_for(5)
    head = ClassifierHead(weight=Tensor(np.zeros((3, 4))), bias=Tensor(np.zeros(4)))
    x = np.random.default_rng(1).normal(size=(5, 4))
    probs = softmax(predict_logits(snap.encoder_params, head, x, TINY))
    assert np.allclose(probs, 0.25)


def test_logits_match_manual_recomputation():
    rng = np.random.default_rng(2)
    snap = snapshot_for(6)
    head = ClassifierHead(weight=Tensor(rng.normal(size=(3, 5))),
                          bias=Tensor(rng.normal(size=(5,))))
    x = rng.normal(size=(7, 4))
    got = predict_logits(snap.encoder_params, head, x, TINY)
    z = mlp_forward_np(snap.encoder_params, x, "tanh")
    manual = np.empty((7, 5))
    for i in range(7):
        for j in range(5):
            manual[i, j] = float(z[i] @ head.weight.values[:, j]) + head.bias.values[j]
    assert np.allclose(got, manual, atol=1e-12)


def test_logits_batch_independence():
    rng = np.random.default_rng(3)
    snap = snapshot_for(7)
    head = ClassifierHead(weight=Tensor(rng.normal(size=(3, 2))),
                          bias=Tensor(rng.normal(size=(2,))))
    x = rng.normal(size=(6, 4))
    full = predict_logits(snap.encoder_params, head, x, TINY)
    row = predict_logits(snap.encoder_params, head, x[4:5], TINY)
    assert np.allclose(full[4], row[0], atol=1e-12)


# ---- member persistence -----------------------------------------------------


def test_member_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    snap = snapshot_for(8)
    head = ClassifierHead(weight=Tensor(rng.normal(size=(3, 4))),
                          bias=Tensor(rng.normal(size=(4,))))
    path = tmp_path / "member.ckpt"
    save_member(path, snap.encoder_params, head, {"seed": 1, "label_fraction": 0.5})
    enc2, head2, meta = load_member(path)
    assert np.array_equal(enc2.flatten(), snap.encoder_params.flatten())
    assert np.array_equal(head2.weight.values, head.weight.values)
    assert np.array_equal(head2.bias.values, head.bias.values)
    assert meta["label_fraction"] == 0.5
