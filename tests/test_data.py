import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from minibatch_reference import reference_minibatches

from mcbyol import config, pipeline
from mcbyol.config import DataSection
from mcbyol.data import (Dataset, _seed_sequence_keys, _words, augment_pair, load_dataset,
                         make_clusters, make_ood, minibatch_keys, minibatches, save_dataset)
from mcbyol.errors import ConfigError, ContractError, DataError


def clusters(classes, per_class, input_dim, separation, seed):
    return make_clusters(DataSection(classes=classes, input_dim=input_dim,
                                     separation=separation, seed=seed), per_class)


def test_same_seed_bit_identical():
    a = clusters(3, 20, 8, 3.0, seed=42)
    b = clusters(3, 20, 8, 3.0, seed=42)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_row_count_and_label_balance():
    ds = clusters(2, 100, 6, 3.0, seed=0)
    assert ds.x.shape == (200, 6)
    assert np.bincount(ds.y).tolist() == [100, 100]


def test_large_separation_is_nearest_mean_separable():
    ds = clusters(4, 100, 10, 50.0, seed=1)
    mus = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(4)])
    d2 = ((ds.x[:, None, :] - mus[None]) ** 2).sum(axis=2)
    acc = float((d2.argmin(axis=1) == ds.y).mean())
    assert acc >= 0.99


def test_generator_validation():
    with pytest.raises(ConfigError):
        DataSection(classes=1, input_dim=4, separation=3.0, seed=0)
    with pytest.raises(ConfigError):
        clusters(2, 0, 4, 3.0, seed=0)
    with pytest.raises(ConfigError):
        DataSection(classes=2, input_dim=4, separation=0.0, seed=0)


# ---- OOD --------------------------------------------------------------------


def test_ood_shifted_means_distance():
    d = DataSection(classes=4, input_dim=8, separation=3.0, seed=2, ood_mode="shifted_means")
    ref = make_clusters(d, 50)
    from mcbyol.data import _cluster_params, _rng
    means, _ = _cluster_params(d)
    ood = make_ood(d, ref)
    # regenerate the OOD means the same way the generator does, from seed d.seed + 1
    rng = _rng(3, 2)
    dirs = rng.standard_normal((4, 8))
    ood_means = 4.0 * 3.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    dists = np.linalg.norm(ood_means[:, None, :] - means[None], axis=2)
    assert dists.min() >= 3 * 3.0
    assert ood.x.shape == ref.x.shape
    assert ood.y is None


def test_ood_uniform_box_inside_expanded_box():
    d = DataSection(classes=3, input_dim=5, separation=3.0, seed=3, ood_mode="uniform_box")
    ref = make_clusters(d, 40)
    ood = make_ood(d, ref)
    lo, hi = ref.x.min(axis=0), ref.x.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    assert np.all(ood.x >= center - 2 * half) and np.all(ood.x <= center + 2 * half)
    assert ood.x.shape[1] == ref.x.shape[1]


def test_ood_same_seed_identical():
    d = DataSection(classes=3, input_dim=5, separation=3.0, seed=4, ood_mode="scaled_variance")
    ref = make_clusters(d, 30)
    a = make_ood(d, ref)
    b = make_ood(d, ref)
    assert np.array_equal(a.x, b.x)


def test_ood_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        DataSection(classes=3, input_dim=5, separation=3.0, seed=5, ood_mode="mystery")


# the default [data] section's pretrain, train and test splits, then its OOD
# split under each mode: sha256 of x (<f8) followed by y (<i8) when labeled
IN_DIST_SHA256 = ["e0d46279d8ba2637a81cda759b37314e46c9ce30a19f25677eabe1a55d30a39d",
                  "39ea2adc2f55b22aaae0d6259e2faa6913509eddaa7b5ccd056ef40be29d882d",
                  "39cd40abcf1cb27cd919e5dca03f737809837b4005a311398ca72b51b5e49a05"]
OOD_SHA256 = {
    "shifted_means": "d6fa5165a08a7b479f319e036a35364c915e2d0a6c384a01c961e6309bca8edb",
    "scaled_variance": "873fcb4073a6413436aa884c5b7980495bf54961f9ae3a39f1990dd980ba7da1",
    "uniform_box": "36a02c3acffaad1e195ee29b8ac93f3afd32f43893e427c6a6953163cf71902c",
}


@pytest.mark.parametrize("mode", sorted(OOD_SHA256))
def test_default_splits_are_pinned_for_every_ood_mode(mode):
    cfg = config.RunConfig()
    cfg.data = dataclasses.replace(cfg.data, ood_mode=mode)
    digests = []
    for ds in pipeline.make_datasets(cfg):
        h = hashlib.sha256(ds.x.astype("<f8").tobytes())
        if ds.y is not None:
            h.update(ds.y.astype("<i8").tobytes())
        digests.append(h.hexdigest())
    assert digests == IN_DIST_SHA256 + [OOD_SHA256[mode]]


# ---- augmentation -----------------------------------------------------------


def test_identity_augmentation_returns_input():
    cfg = DataSection(noise_std=0.0, mask_prob=0.0, scale_min=1.0, scale_max=1.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 4))
    va, vb = augment_pair(x, cfg, rng)
    assert np.array_equal(va, x) and np.array_equal(vb, x)


def test_mask_prob_one_rejected():
    with pytest.raises(ConfigError):
        DataSection(mask_prob=1.0)
    with pytest.raises(ConfigError):
        DataSection(noise_std=-0.1)
    with pytest.raises(ConfigError):
        DataSection(scale_min=0.0)


def test_default_augmentation_perturbs_but_correlates():
    cfg = DataSection()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 6))
    va, vb = augment_pair(x, cfg, rng)
    assert va.shape == vb.shape == x.shape
    assert np.any(va != x) and np.any(vb != x) and np.any(va != vb)
    assert np.all(np.isfinite(va)) and np.all(np.isfinite(vb))
    corr = np.corrcoef(x.ravel(), va.ravel())[0, 1]
    assert corr > 0.5


def test_views_are_independent_draws():
    cfg = DataSection(noise_std=0.5, mask_prob=0.0, scale_min=1.0, scale_max=1.0)
    rng = np.random.default_rng(2)
    x = np.zeros((100, 4))
    va, vb = augment_pair(x, cfg, rng)
    assert np.corrcoef(va.ravel(), vb.ravel())[0, 1] < 0.2


# ---- minibatches ------------------------------------------------------------


def test_minibatch_sizes_keep_short_final_batch():
    batches = reference_minibatches(10, 3, seed=0, epoch=0)
    assert [len(b) for b in batches] == [3, 3, 3, 1]


def test_epoch_covers_every_index_once():
    batches = reference_minibatches(57, 8, seed=1, epoch=4)
    joined = np.concatenate(batches)
    assert sorted(joined.tolist()) == list(range(57))


def test_minibatch_determinism_and_epoch_variation():
    a = np.concatenate(reference_minibatches(20, 6, seed=3, epoch=2))
    b = np.concatenate(reference_minibatches(20, 6, seed=3, epoch=2))
    c = np.concatenate(reference_minibatches(20, 6, seed=3, epoch=3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# one-, two- and three-word seeds; 4219 * 1009**2 is the first member seed
# of run seed 4219 and lies just above 2**32
WIDE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 4219 * 1009 * 1009, 2**64 - 1, 2**64 + 7,
              2**95 + 2**40 + 9]


def test_minibatch_keys_equal_seed_sequence_state():
    keys = minibatch_keys(WIDE_SEEDS, 6)
    assert keys.shape == (len(WIDE_SEEDS), 6, 2) and keys.dtype == np.uint64
    for s, seed in enumerate(WIDE_SEEDS):
        for epoch in range(6):
            ref = np.random.SeedSequence([seed, 3, epoch]).generate_state(2, np.uint64)
            assert keys[s, epoch].tobytes() == ref.tobytes(), (seed, epoch)
    assert minibatch_keys(WIDE_SEEDS, 0).shape == (len(WIDE_SEEDS), 0, 2)
    assert minibatch_keys([], 4).shape == (0, 4, 2)


@pytest.mark.parametrize("entropy", [[0], [5, 3, 2**32 + 1], [2**64 + 7, 3, 2**64 + 1],
                                     [1, 2, 3, 4, 5, 6, 7, 8, 9], [2**32 - 1] * 4])
def test_seed_sequence_keys_accept_any_entropy_width(entropy):
    words = [w for value in entropy for w in _words(value)]
    (got,) = _seed_sequence_keys([words])
    ref = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    assert got.tobytes() == ref.tobytes()


def test_minibatch_seed_must_be_non_negative():
    with pytest.raises(ContractError):
        minibatch_keys([3, -1], 2)


@pytest.mark.parametrize("batch,n", [(b, n) for b in (1, 80) for n in (1, b - 1, b, b + 1, 1000)]
                         + [(n + 5, n) for n in (1, 79, 80, 81, 1000)])
def test_minibatch_rows_equal_per_call_reference(batch, n):
    epochs = 3
    keys = minibatch_keys(WIDE_SEEDS, epochs)
    for epoch in range(epochs):
        positions = minibatches(n, batch, keys[:, epoch])
        for s, seed in enumerate(WIDE_SEEDS):
            ref = reference_minibatches(n, batch, seed, epoch)
            assert len(ref) == len(positions)
            for got, want in zip(positions, ref):
                assert got.shape == (len(WIDE_SEEDS), want.size)
                assert np.array_equal(got[s], want), (seed, epoch)


def test_minibatch_batch_must_be_positive():
    with pytest.raises(ConfigError):
        minibatches(10, 0, minibatch_keys([4], 1)[:, 0])


# ---- persistence ------------------------------------------------------------


def test_dataset_two_file_roundtrip(tmp_path):
    ds = clusters(3, 25, 6, 2.5, seed=11)
    stem = str(tmp_path / "toy")
    save_dataset(ds, stem)
    loaded = load_dataset(stem)
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.y, ds.y)


def test_dataset_payload_size_mismatch_detected(tmp_path):
    ds = clusters(2, 10, 4, 2.0, seed=12)
    stem = str(tmp_path / "bad")
    save_dataset(ds, stem)
    with open(f"{stem}.bin", "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(DataError):
        load_dataset(stem)


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError):
        Dataset(x=np.array([[np.inf, 0.0]]), y=None)
    with pytest.raises(DataError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(2, dtype=np.int64))


def write_labeled(stem, labels):
    """A one-column labeled dataset file pair with the given raw label values."""
    labels = np.asarray(labels, dtype="<f8")
    Path(f"{stem}.bin").write_bytes(np.zeros(labels.size).tobytes() + labels.tobytes())
    Path(f"{stem}.txt").write_text(f"rows = {labels.size}\ndim = 1\nlabeled = 1\n")


def test_dataset_labels_load_as_int64(tmp_path):
    stem = str(tmp_path / "ok")
    write_labeled(stem, [0.0, 2.0, -0.0, 1.0])
    loaded = load_dataset(stem)
    assert loaded.y.dtype == np.int64 and loaded.y.tolist() == [0, 2, 0, 1]


@pytest.mark.parametrize("bad", [1.7, -0.5, -1.0, np.nan, np.inf, 2.0**63])
def test_dataset_label_that_is_not_a_whole_number_is_data_error(tmp_path, bad):
    stem = str(tmp_path / "bad")
    write_labeled(stem, [0.0, bad, -0.5])
    with pytest.raises(DataError, match=rf"bad\.bin: the label of row 1, {re.escape(repr(bad))}, "):
        load_dataset(stem)


def test_dataset_header_with_generator_lines_still_loads(tmp_path):
    # the earlier header format also carried split_tag and gen.* lines
    ds = clusters(2, 5, 3, 2.0, seed=13)
    stem = str(tmp_path / "old")
    save_dataset(ds, stem)
    Path(f"{stem}.txt").write_text(
        "rows = 10\ndim = 3\nlabeled = 1\nsplit_tag = pretrain\ngen.classes = 2\n"
        "gen.input_dim = 3\ngen.kind = clusters\ngen.per_class = 5\ngen.seed = 13\n"
        "gen.separation = 2.0\n")
    loaded = load_dataset(stem)
    assert np.array_equal(loaded.x, ds.x)
    assert np.array_equal(loaded.y, ds.y)
