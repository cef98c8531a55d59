import dataclasses
import tracemalloc
import zlib

import numpy as np
import pytest
from gradcheck import requires_grad

from mcbyol.autodiff import Tape
from mcbyol.config import ModelSection
from mcbyol.errors import (CheckpointError, ChecksumError, ContractError, NumericError,
                           TruncationError, VersionError)
from mcbyol.model import byol_loss_one_direction, init_twin, mlp_forward_np
from mcbyol.params import ParamVector
from mcbyol.posterior import (PosteriorEnsemble, bma_predict, collect,
                              load_ensemble, load_member, predictive_entropy, read_container,
                              recent_mean, save_ensemble, save_member, softmax,
                              write_container)
from mcbyol.posterior import _crc

TINY = ModelSection(encoder_hidden=[4], embed_dim=3, proj_hidden=3, proj_dim=2, pred_hidden=3)


def make_ensemble(n_snaps=4, seed=0):
    ens = PosteriorEnsemble(run_meta={"seed": seed, "config_digest": "abc",
                                      "sampler_kind": "csghmc"})
    rng = np.random.default_rng(seed)
    for i in range(n_snaps):
        m = init_twin(TINY, 3, seed * 100 + i)
        collect(ens, m, step=50 * (i + 1) - 1, cycle=i, loss=float(rng.uniform(0, 1)))
    return ens


def head_of(weight, bias):
    return ParamVector({"weight": weight, "bias": bias})


def random_head(rng, embed_dim=3, classes=4):
    return head_of(rng.normal(size=(embed_dim, classes)), rng.normal(size=(classes,)))


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


def test_collected_snapshot_carries_no_gradient():
    # an online encoder that holds gradients, from a tape's backward
    m = init_twin(TINY, 3, 0)
    requires_grad(m.online_encoder)
    views = np.random.default_rng(0).normal(size=(2, 8, 3))
    tape = Tape()
    tape.backward(byol_loss_one_direction(tape, m, views[0], views[1]))
    assert all(t.grad is not None for _, t in m.online_encoder.items())
    ens = PosteriorEnsemble(run_meta={})
    snap = collect(ens, m, step=0, cycle=0, loss=0.0)
    assert all(t.grad is None for _, t in snap.encoder_params.items())


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
    direct = softmax(z @ head["weight"].values + head["bias"].values)
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
    head_a = head_of(np.zeros((3, 2)), [big, 0.0])
    head_b = head_of(np.zeros((3, 2)), [0.0, big])
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
        probs = softmax(z @ head["weight"].values + head["bias"].values)
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
        stacked = head_of(np.stack([h["weight"].values for h in own]),
                          np.stack([h["bias"].values[None, :] for h in own]))
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


@pytest.mark.parametrize("p", [[[np.nan, np.nan]], [[0.5, np.nan]], [np.inf, 0.0],
                               [[1.0, 0.0], [-np.inf, np.inf]], [np.nan]])
def test_entropy_rejects_non_finite(p):
    # NaN passed the row checks and scored entropy -0.0, a certain prediction
    with pytest.raises(ContractError, match="finite probability"):
        predictive_entropy(np.array(p))


def test_entropy_of_finite_rows_keeps_its_bits():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(5), size=30)
    p[::4, 1:3] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = -np.where(p > 0, p * np.log(p), 0.0).sum(axis=1)
    assert predictive_entropy(p).tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("where", ["embed", "hidden"])
def test_a_snapshot_laid_out_unlike_snapshot_0_is_a_checkpoint_error(tmp_path, where):
    # collect refuses this on write; a CRC-valid file is checked on read
    ens = make_ensemble(3)
    other = dataclasses.replace(TINY, **({"embed_dim": 4} if where == "embed"
                                         else {"encoder_hidden": [5]}))
    ens.snapshots[2].encoder_params = init_twin(other, 3, 0).online_encoder
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    with pytest.raises(CheckpointError, match=r"ens\.ckpt: snapshot 2 is laid out unlike snapshot 0$"):
        load_ensemble(path)


@pytest.mark.parametrize("shapes", [
    {},
    {"layer0.w": (3, 4)},
    {"layer0.b": (4,), "layer0.w": (3, 4)},
    {"weight": (3, 4), "bias": (4,)},
    {"layer0.w": (12,), "layer0.b": (4,)},
    {"layer0.w": (3, 4), "layer0.b": (1, 4)},
    {"layer0.w": (3, 4), "layer0.b": (4,), "layer1.w": (5, 2), "layer1.b": (2,)},
    {"layer0.w": (3, 4), "layer0.b": (4,), "layer2.w": (4, 2), "layer2.b": (2,)},
], ids=["empty", "no_bias", "bias_first", "not_layer_names", "flat_weight", "2d_bias",
        "widths_do_not_chain", "layer_skipped"])
def test_a_snapshot_0_that_is_not_an_mlp_encoder_is_a_checkpoint_error(tmp_path, shapes):
    # a frozen member over an empty snapshot would otherwise fail in load_member
    encoder = ParamVector({name: np.zeros(shape) for name, shape in shapes.items()})
    path = tmp_path / "ens.ckpt"
    write_container(path, "ensemble", {}, [("snapshot0", SNAPSHOT_META, encoder)])
    with pytest.raises(CheckpointError) as err:
        load_ensemble(path)
    assert str(err.value) == (f"{path}: snapshot 0 holds {encoder.shapes()}, not an MLP "
                              f"encoder's layer<i>.w and layer<i>.b")


def test_corrupted_payload_byte_raises_checksum_error(tmp_path):
    ens = make_ensemble(2)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0xFF  # payload region
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_ensemble(path)


def test_save_ensemble_streams_its_payload(tmp_path):
    # a 20-snapshot ensemble of the default model: 944,640 payload bytes,
    # held once as the blocks' flattened copies and never joined
    ens = PosteriorEnsemble(run_meta={"seed": 0})
    for i in range(20):
        collect(ens, init_twin(ModelSection(), 10, i), step=i, cycle=i, loss=0.5)
    payload = 8 * sum(s.encoder_params.total_dim for s in ens.snapshots)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)  # one-time allocations
    tracemalloc.start()
    try:
        save_ensemble(ens, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload == 944_640 and peak < 1.5 * payload
    header, stored = read_container(path, expect_kind="ensemble")
    assert np.array_equal(stored, np.concatenate([s.encoder_params.flatten()
                                                  for s in ens.snapshots]))


def test_crc_copies_the_encoder_once():
    # the default model's encoder, 47,232 bytes: flatten's copy, and no second one
    encoder = init_twin(ModelSection(), 10, 0).online_encoder.copy()
    nbytes = 8 * encoder.total_dim
    _crc(encoder)  # one-time allocations
    tracemalloc.start()
    try:
        crc = _crc(encoder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nbytes == 47_232 and peak < 1.2 * nbytes
    assert crc == zlib.crc32(encoder.flatten().astype("<f8").tobytes())


def test_truncated_file_raises_truncation_error(tmp_path):
    ens = make_ensemble(2)
    path = tmp_path / "ens.ckpt"
    save_ensemble(ens, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncationError):
        load_ensemble(path)


def write_checkpoint(kind, path):
    """An ensemble file, or a member file with its encoder (jointly
    fine-tuned) or without (frozen), as the pipeline writes them; returns
    its loader."""
    if kind == "ensemble":
        save_ensemble(make_ensemble(2), path)
        return load_ensemble
    ens = make_ensemble(1)
    save_member(path, ens.snapshots[0].encoder_params, random_head(np.random.default_rng(0)),
                {"seed": 0, "label_fraction": 0.5, "snapshot": 0,
                 "freeze_encoder": kind == "frozen_member"}, ens.snapshots[0].encoder_params)
    return lambda p: load_member(p, ens, 4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["ensemble", "member", "frozen_member"])
def test_a_non_finite_payload_is_a_checkpoint_error_naming_the_file(tmp_path, kind, value):
    # the file's CRC is valid: it was written from weights that held the value
    path = tmp_path / f"{kind}.ckpt"
    load = write_checkpoint(kind, path)
    body = bytearray(path.read_bytes()[:-4])
    body[-8:] = np.array([value], dtype="<f8").tobytes()  # the payload's last value
    path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    for read in (read_container, load):
        with pytest.raises(CheckpointError) as err:
            read(path)
        assert str(err.value) == f"{path}: payload holds NaN or Inf"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["ensemble encoder", "member encoder", "member head",
                                   "frozen_member head"])
def test_a_non_finite_payload_is_never_written(tmp_path, where, value):
    ens = make_ensemble(2)
    snapshot, head = ens.snapshots[1].encoder_params, random_head(np.random.default_rng(0))
    encoder = snapshot if where.startswith("frozen") else snapshot.copy()
    bad = {"ensemble encoder": snapshot, "member encoder": encoder}.get(where, head)
    flat = bad.flatten()
    flat[len(flat) // 2] = value
    bad.set_flat(flat)
    path = tmp_path / "x.ckpt"
    with pytest.raises(NumericError) as err:
        if where == "ensemble encoder":
            save_ensemble(ens, path)
        else:
            save_member(path, encoder, head, {"seed": 0, "label_fraction": 0.5, "snapshot": 1,
                                              "freeze_encoder": where.startswith("frozen")},
                        ens.snapshots[0].encoder_params)
    assert str(err.value) == f"{path}: payload holds NaN or Inf, not written"
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file


@pytest.mark.parametrize("kind", ["ensemble", "member", "frozen_member"])
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


def test_a_frozen_member_loads_as_its_snapshots_own_encoder(tmp_path):
    ens = make_ensemble(3)
    path = tmp_path / "member.ckpt"
    head = random_head(np.random.default_rng(0))
    meta = {"seed": 0, "snapshot": 2, "freeze_encoder": True}
    save_member(path, ens.snapshots[2].encoder_params, head, meta, ens.snapshots[2].encoder_params)
    header, payload = read_container(path, expect_kind="member")
    encoder_bytes = ens.snapshots[2].encoder_params.flatten().astype("<f8").tobytes()
    assert header["blocks"][0] == {"name": "encoder", "segments": [],
                                   "meta": {"crc": zlib.crc32(encoder_bytes)}}
    assert np.array_equal(payload, head.flatten())
    encoder, loaded, loaded_meta = load_member(path, ens, 4)
    assert encoder is ens.snapshots[2].encoder_params
    assert np.array_equal(loaded.flatten(), head.flatten()) and loaded_meta == meta


@pytest.mark.parametrize("snapshot", [0, 1, 5, -1])
def test_a_frozen_member_of_another_encoder_names_both_files(tmp_path, snapshot):
    """Members fitted on one pretrain run do not load against the snapshots
    of another (or a snapshot index the ensemble lacks)."""
    ens_path, path = tmp_path / "ens.ckpt", tmp_path / "member.ckpt"
    save_ensemble(make_ensemble(2, seed=1), ens_path)
    other = load_ensemble(ens_path)
    fitted_on = make_ensemble(2).snapshots[1].encoder_params
    save_member(path, fitted_on, random_head(np.random.default_rng(0)),
                {"seed": 0, "snapshot": snapshot, "freeze_encoder": True}, fitted_on)
    with pytest.raises(CheckpointError) as err:
        load_member(path, other, 4)
    assert str(err.value).startswith(f"{path}: ") and str(ens_path) in str(err.value)


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("segments", [
    {"weight": (3, 4)},
    {"bias": (4,)},
    {"weight": (4, 4), "bias": (4,)},
    {"weight": (3, 4), "bias": (5,)},
    {"weight": (3, 4), "bias": (1, 4)},
    {"weight": (12,), "bias": (4,)},
    {"weight": (3, 4), "bias": (4,), "scale": (4,)},
    {"weight": (3, 5), "bias": (5,)},
], ids=["no_bias", "no_weight", "extra_row", "bias_too_wide", "bias_2d", "weight_1d",
        "extra_segment", "other_classes"])
def test_a_member_head_not_shaped_for_its_encoder_is_a_checkpoint_error(tmp_path, segments,
                                                                        freeze):
    """A head must be weight (D, C) and bias (C,), D the width of the
    encoder it reads (3 here), stored with the member or its snapshot's,
    and C the class count the caller asks for (4 here)."""
    ens = make_ensemble(1)
    rng = np.random.default_rng(0)
    head = ParamVector({name: rng.normal(size=shape) for name, shape in segments.items()})
    path = tmp_path / "member.ckpt"
    snapshot = ens.snapshots[0].encoder_params
    save_member(path, snapshot.copy(), head, {"seed": 0, "snapshot": 0, "freeze_encoder": freeze},
                snapshot)
    with pytest.raises(CheckpointError) as err:
        load_member(path, ens, 4)
    assert str(err.value) == (f"{path}: its head holds {head.shapes()}, not weight (3, 4) "
                              f"and bias (4,) for 4 classes over its encoder's 3 outputs")


def test_a_stored_encoder_without_its_layer_names_is_a_checkpoint_error(tmp_path):
    # its layout is its layer names and shapes, so it is laid out unlike its snapshot
    ens = make_ensemble(1)
    snapshot = ens.snapshots[0].encoder_params
    renamed = ParamVector({name.replace("layer", "l"): t.values for name, t in snapshot.items()})
    path = tmp_path / "member.ckpt"
    save_member(path, renamed, random_head(np.random.default_rng(0)),
                {"seed": 0, "snapshot": 0, "freeze_encoder": False}, snapshot)
    with pytest.raises(CheckpointError) as err:
        load_member(path, ens, 4)
    assert str(err.value) == f"{path}: its encoder is laid out unlike snapshot 0 of {ens.path}"


SNAPSHOT_META = {"step": 49, "cycle": 0, "pretrain_loss": 0.5, "sampler_kind": "csghmc"}
FROZEN = {"seed": 0, "snapshot": 0, "freeze_encoder": True}


@pytest.mark.parametrize("kind,meta,blocks,missing", [
    ("member", FROZEN, ["head"], "encoder"),
    ("member", FROZEN, ["encoder_ref"], "head"),
    ("member", FROZEN, ["encoder_ref_without_crc", "head"], "crc"),
    # the formats written before members recorded their snapshot's CRC: a
    # copy of the encoder, frozen or fine-tuned, and no CRC
    ("member", FROZEN, ["encoder_copy_without_crc", "head"], "crc"),
    ("member", {**FROZEN, "freeze_encoder": False}, ["encoder_copy_without_crc", "head"], "crc"),
    ("member", {"seed": 0}, ["encoder_ref", "head"], "snapshot"),
    ("ensemble", {}, ["snapshot_without_cycle"], "cycle"),
], ids=["no_encoder_block", "no_head_block", "no_crc", "frozen_copy_no_crc", "tuned_copy_no_crc",
        "no_snapshot", "no_cycle"])
def test_a_file_missing_a_block_or_key_of_its_kind_is_a_checkpoint_error(tmp_path, kind, meta,
                                                                         blocks, missing):
    """A sound container that lacks what its kind's loader reads."""
    ens = make_ensemble(1)
    encoder, empty = ens.snapshots[0].encoder_params, ParamVector({})
    made = {"head": ("head", {}, random_head(np.random.default_rng(0))),
            "encoder_ref": ("encoder", {"crc": 0}, empty),
            "encoder_ref_without_crc": ("encoder", {}, empty),
            "encoder_copy_without_crc": ("encoder", {}, encoder),
            "snapshot_without_cycle": ("snapshot0", {k: v for k, v in SNAPSHOT_META.items()
                                                     if k != "cycle"}, encoder)}
    path = tmp_path / f"{kind}.ckpt"
    write_container(path, kind, meta, [made[b] for b in blocks])
    read_container(path, expect_kind=kind)  # passes its CRC
    with pytest.raises(CheckpointError) as err:
        load_member(path, ens, 4) if kind == "member" else load_ensemble(path)
    assert str(err.value) == f"{path}: the {kind} file has no '{missing}'"


@pytest.mark.parametrize("kind", ["ensemble", "member"])
def test_a_missing_file_is_a_checkpoint_error_naming_its_kind_and_path(tmp_path, kind):
    path = tmp_path / f"{kind}.ckpt"
    with pytest.raises(CheckpointError) as err:
        load_member(path, make_ensemble(1), 4) if kind == "member" else load_ensemble(path)
    assert str(err.value) == f"missing {kind} checkpoint: {path}"


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
