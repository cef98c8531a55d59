import numpy as np
import pytest

from mcbyol.autodiff import Tensor
from mcbyol.config import ModelSection
from mcbyol.errors import (CheckpointError, ChecksumError, ContractError, TruncationError,
                           VersionError)
from mcbyol.finetune import ClassifierHead, load_member, save_member
from mcbyol.model import init_twin, mlp_forward_np
from mcbyol.posterior import (PosteriorEnsemble, bma_predict, collect,
                              load_ensemble, predictive_entropy, read_container,
                              recent_mean, save_ensemble, softmax)

TINY = ModelSection(encoder_hidden=[4], embed_dim=3, proj_hidden=3, proj_dim=2, pred_hidden=3)


def make_ensemble(n_snaps=4, seed=0):
    ens = PosteriorEnsemble(run_meta={"seed": seed, "config_digest": "abc",
                                      "sampler_kind": "csghmc"})
    rng = np.random.default_rng(seed)
    for i in range(n_snaps):
        m = init_twin(TINY, 3, seed * 100 + i)
        collect(ens, m, step=50 * (i + 1) - 1, cycle=i, loss=float(rng.uniform(0, 1)))
    return ens


def random_head(rng, embed_dim=3, classes=4):
    return ClassifierHead(weight=Tensor(rng.normal(size=(embed_dim, classes))),
                          bias=Tensor(rng.normal(size=(classes,))))


def members_for(ens, seed=0, classes=4):
    rng = np.random.default_rng(seed)
    return [(s.encoder_params, random_head(rng, classes=classes)) for s in ens.snapshots]


# ---- collect ----------------------------------------------------------------


def test_collect_deep_copies_parameters():
    ens = PosteriorEnsemble(run_meta={})
    m = init_twin(TINY, 3, 0)
    collect(ens, m, step=49, cycle=0, loss=0.5)
    before = ens.snapshots[0].encoder_params.flatten().copy()
    m.set_online_flat(m.online_flat() + 1.0)
    assert np.array_equal(ens.snapshots[0].encoder_params.flatten(), before)


def test_collect_counts():
    assert make_ensemble(4).size == 4
    ens = PosteriorEnsemble(run_meta={})
    collect(ens, init_twin(TINY, 3, 0), 0, 0, 0.1)
    assert ens.size == 1


def test_collect_rejects_mismatched_layout():
    ens = make_ensemble(1)
    other_arch = ModelSection(encoder_hidden=[5], embed_dim=3, proj_hidden=3, proj_dim=2,
                              pred_hidden=3)
    with pytest.raises(ContractError):
        collect(ens, init_twin(other_arch, 3, 0), 0, 0, 0.1)


# ---- prediction -------------------------------------------------------------


def test_bma_single_member_equals_model_softmax():
    ens = make_ensemble(1)
    members = members_for(ens)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    from mcbyol.model import mlp_forward_np
    enc, head = members[0]
    z = mlp_forward_np(enc, x, "tanh")
    direct = softmax(z @ head.weight.values + head.bias.values)
    assert np.array_equal(bma_predict(members, x, TINY), direct)


def numpy_softmax(logits):
    """posterior.softmax as it was before it shared _shifted_exp with finetune."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_matches_numpy_row_softmax_at_every_class_count():
    rng = np.random.default_rng(13)
    for classes in range(1, 20):
        for rows in (1, 7, 2000):
            for scale in (1e-3, 1.0, 30.0):
                logits = scale * rng.normal(size=(rows, classes))
                assert softmax(logits).tobytes() == numpy_softmax(logits).tobytes(), (classes, rows)


def test_bma_averages_probabilities():
    # two synthetic members emitting one-hot opposite predictions
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 3))
    enc = init_twin(TINY, 3, 0).online_encoder.copy()
    for _, t in enc.items():
        t.values[...] = 0.0  # embeddings all zero, logits = bias
    big = 1e3
    head_a = ClassifierHead(weight=Tensor(np.zeros((3, 2))), bias=Tensor([big, 0.0]))
    head_b = ClassifierHead(weight=Tensor(np.zeros((3, 2))), bias=Tensor([0.0, big]))
    probs = bma_predict([(enc, head_a), (enc, head_b)], x, TINY)
    assert np.allclose(probs, 0.5, atol=1e-9)


def test_bma_rows_sum_to_one():
    ens = make_ensemble(4)
    members = members_for(ens)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 3))
    for count in (None, 1, 2, 3, 4):
        probs = bma_predict(members, x, TINY, count=count)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)


def test_bma_count_one_uses_most_recent_snapshot():
    ens = make_ensemble(3)
    members = members_for(ens)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    last_only = bma_predict(members[-1:], x, TINY)
    assert np.array_equal(bma_predict(members, x, TINY, count=1), last_only)


def test_bma_permutation_invariance():
    ens = make_ensemble(4)
    members = members_for(ens)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 3))
    base = bma_predict(members, x, TINY)
    for _ in range(5):
        perm = rng.permutation(4)
        shuffled = [members[i] for i in perm]
        assert np.allclose(bma_predict(shuffled, x, TINY), base, atol=1e-12)


def test_bma_count_bounds_and_empty():
    ens = make_ensemble(2)
    members = members_for(ens)
    x = np.zeros((2, 3))
    with pytest.raises(ContractError):
        bma_predict(members, x, TINY, count=0)
    with pytest.raises(ContractError):
        bma_predict(members, x, TINY, count=3)
    with pytest.raises(ContractError):
        bma_predict([], x, TINY)


def streaming_bma(members, x, count):
    """Reference: run the `count` most recent members oldest-first, keeping
    a running total of their softmax outputs."""
    total = None
    for encoder, head in members[-count:]:
        z = mlp_forward_np(encoder, x, TINY.activation)
        probs = softmax(z @ head.weight.values + head.bias.values)
        total = probs if total is None else total + probs
    return total / count


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_recent_mean_sweep_equals_bma_predict_at_every_size(rows):
    ens = make_ensemble(6, seed=rows)
    members = members_for(ens, seed=rows)
    x = np.random.default_rng(rows).normal(size=(rows, 3))
    per_member = [bma_predict(members[i:i + 1], x, TINY) for i in range(len(members))]
    for k in range(1, len(members) + 1):
        swept = recent_mean(per_member, k)
        assert np.array_equal(swept, bma_predict(members, x, TINY, count=k))
        assert np.array_equal(swept, streaming_bma(members, x, k))
    assert np.array_equal(recent_mean(per_member), bma_predict(members, x, TINY))


@pytest.mark.parametrize("heads", [1, 3])
def test_stacked_heads_give_each_heads_own_bma_bytes(heads):
    # one encoder with G heads stacked as weight (G, D, C) and bias (G, 1, C)
    # gives a (G, N, C) array whose slice g is head g's own one-member BMA
    ens = make_ensemble(1, seed=heads)
    encoder = ens.snapshots[0].encoder_params
    rng = np.random.default_rng(heads)
    for classes in (3, 10):
        own = [random_head(rng, classes=classes) for _ in range(heads)]
        stacked = ClassifierHead(
            weight=Tensor(np.stack([h.weight.values for h in own])),
            bias=Tensor(np.stack([h.bias.values[None, :] for h in own])))
        for rows in (1, 7, 2000):
            x = rng.normal(size=(rows, 3))
            out = bma_predict([(encoder, stacked)], x, TINY)
            assert out.shape == (heads, rows, classes)
            for g, head in enumerate(own):
                assert out[g].tobytes() == bma_predict([(encoder, head)], x, TINY).tobytes()


def test_recent_mean_count_bounds_and_empty():
    probs = [np.full((2, 2), 0.5)] * 2
    with pytest.raises(ContractError):
        recent_mean(probs, 0)
    with pytest.raises(ContractError):
        recent_mean(probs, 3)
    with pytest.raises(ContractError):
        recent_mean([])


# ---- entropy ----------------------------------------------------------------


def test_entropy_uniform_ten_classes():
    p = np.full(10, 0.1)
    assert predictive_entropy(p) == pytest.approx(np.log(10), abs=1e-12)


def test_entropy_one_hot_is_zero():
    p = np.zeros(5)
    p[2] = 1.0
    assert predictive_entropy(p) == 0.0


def test_entropy_two_point_uniform():
    assert predictive_entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(np.log(2), abs=1e-12)


def test_entropy_bounds_over_bma_outputs():
    ens = make_ensemble(4)
    members = members_for(ens, classes=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    h = predictive_entropy(bma_predict(members, x, TINY))
    assert np.all(h >= 0.0) and np.all(h <= np.log(6) + 1e-12)


def test_entropy_rejects_malformed():
    with pytest.raises(ContractError):
        predictive_entropy(np.array([0.7, 0.7]))
    with pytest.raises(ContractError):
        predictive_entropy(np.array([-0.1, 1.1]))


def test_disagreeing_one_hots_raise_entropy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = int(rng.integers(2, 8))
        i, j = rng.choice(c, size=2, replace=False)
        p1 = np.zeros(c); p1[i] = 1.0
        p2 = np.zeros(c); p2[j] = 1.0
        avg = (p1 + p2) / 2
        assert predictive_entropy(avg) > predictive_entropy(p1)
        assert predictive_entropy(avg) > predictive_entropy(p2)


# ---- persistence ------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    ens = make_ensemble(4)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert loaded.size == 4
    assert loaded.run_meta == ens.run_meta
    for a, b in zip(ens.snapshots, loaded.snapshots):
        assert np.array_equal(a.encoder_params.flatten(), b.encoder_params.flatten())
        assert a.encoder_params.shapes() == b.encoder_params.shapes()
        assert (a.step, a.cycle, a.sampler_kind) == (b.step, b.cycle, b.sampler_kind)
        assert a.pretrain_loss == b.pretrain_loss  # bit-exact float round trip


def test_corrupted_payload_byte_raises_checksum_error(tmp_path):
    ens = make_ensemble(2)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0xFF  # payload region
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_ensemble(path)


def test_truncated_file_raises_truncation_error(tmp_path):
    ens = make_ensemble(2)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncationError):
        load_ensemble(path)


def write_checkpoint(kind, path):
    """An ensemble or member file, as the pipeline writes them; returns its loader."""
    if kind == "ensemble":
        save_ensemble(make_ensemble(2), path)
        return load_ensemble
    ens = make_ensemble(1)
    save_member(path, ens.snapshots[0].encoder_params, random_head(np.random.default_rng(0)),
                {"seed": 0, "label_fraction": 0.5, "snapshot": 0})
    return load_member


@pytest.mark.parametrize("kind", ["ensemble", "member"])
def test_every_header_byte_flip_raises_a_checkpoint_error(tmp_path, kind):
    # the header sizes the payload and so locates the CRC: a flip that
    # breaks its structure (say "segments" -> "segmdnts") must still read
    # as a corrupt checkpoint, not as a KeyError
    path = tmp_path / f"{kind}.ckpt"
    load = write_checkpoint(kind, path)
    raw = path.read_bytes()
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    assert b'"segments"' in raw[12:header_end]
    for mask in (0x01, 0x03):  # 0x03 turns "segments" into "segmfnts"
        for i in range(header_end):
            flipped = bytearray(raw)
            flipped[i] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                read_container(path)
            with pytest.raises(CheckpointError):
                load(path)


def test_bad_magic_and_version_raise_version_error(tmp_path):
    ens = make_ensemble(1)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    raw = bytearray(path.read_bytes())
    bad_magic = bytearray(raw); bad_magic[0] = ord("X")
    path.write_bytes(bytes(bad_magic))
    with pytest.raises(VersionError):
        load_ensemble(path)
    bad_version = bytearray(raw); bad_version[4] = 99
    path.write_bytes(bytes(bad_version))
    with pytest.raises(VersionError):
        load_ensemble(path)


def test_empty_ensemble_roundtrip_rejects_prediction(tmp_path):
    ens = PosteriorEnsemble(run_meta={"seed": 0})
    path = tmp_path / "empty.ckpt"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert loaded.size == 0
    with pytest.raises(ContractError):
        bma_predict([], np.zeros((1, 3)), TINY)
