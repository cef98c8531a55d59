"""Posterior snapshot collection, marginalized prediction, and checkpoint IO.

This module writes and reads every checkpoint: the per-seed ensembles of
snapshots and the fine-tuned members (a linear head, and a trained encoder
or a frozen one's CRC).  Checkpoint container layout (little-endian):

    magic  b"MCPV" | version u32 | header_len u32 | header JSON (UTF-8)
    payload float64 array | crc32 u32 over everything before it

The JSON header is the human-auditable metadata block: container kind,
run metadata, and one block per stored parameter vector with its segment
table (name, element offset, shape).  Loads are bit-exact; corruption
surfaces as a checksum, truncation, or version error, never silently,
and a missing file, block or key as a CheckpointError.  Every check of a
file is made here, as it loads: load_ensemble refuses a snapshot that is
not an MLP encoder, and load_member a member that does not fit its
snapshot or the caller's class count.
"""

from __future__ import annotations

import json
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .config import ModelSection
from .errors import (ChecksumError, CheckpointError, ContractError, NumericError,
                     TruncationError, VersionError)
from .model import TwinModel, mlp_arrays, mlp_forward_np
from .params import ParamVector

MAGIC = b"MCPV"
FORMAT_VERSION = 1


@dataclass
class Snapshot:
    encoder_params: ParamVector
    step: int
    cycle: int
    pretrain_loss: float
    sampler_kind: str


@dataclass
class PosteriorEnsemble:
    snapshots: list[Snapshot] = field(default_factory=list)
    run_meta: dict = field(default_factory=dict)
    path: str = ""  # the file load_ensemble read it from

    @property
    def size(self) -> int:
        return len(self.snapshots)


def collect(ensemble: PosteriorEnsemble, model: TwinModel,
            step: int, cycle: int, loss: float) -> Snapshot:
    """Deep-copy the online encoder into the ensemble; training state is
    untouched and later model updates do not affect the stored snapshot."""
    params = model.online_encoder.copy()
    if ensemble.snapshots and not params.same_layout(ensemble.snapshots[0].encoder_params):
        raise ContractError("snapshot layout differs from existing ensemble")
    snap = Snapshot(encoder_params=params, step=step, cycle=cycle,
                    pretrain_loss=float(loss),
                    sampler_kind=str(ensemble.run_meta.get("sampler_kind", "")))
    ensemble.snapshots.append(snap)
    return snap


# ---- marginalized prediction ----------------------------------------------

def _fold(ufunc, terms: list[np.ndarray]) -> np.ndarray:
    """ufunc over terms left to right, in place after the first pair."""
    if len(terms) == 1:
        return terms[0]
    out = ufunc(terms[0], terms[1])
    for term in terms[2:]:
        ufunc(out, term, out=out)
    return out


def _pairwise(ufunc, terms: list[np.ndarray]) -> np.ndarray:
    """ufunc over terms in the order of numpy's pairwise sum: below 8 terms
    left to right; up to 128, eight running partial sums over every eighth
    term, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest left to right; above 128, the halves split at a multiple
    of 8."""
    count = len(terms)
    if count > 128:
        half = count // 2 - count // 2 % 8
        return ufunc(_pairwise(ufunc, terms[:half]), _pairwise(ufunc, terms[half:]))
    if count < 8:
        return _fold(ufunc, terms)
    blocks = count - count % 8
    r = [_fold(ufunc, terms[j:blocks:8]) for j in range(8)]
    return _fold(ufunc, [ufunc(ufunc(ufunc(r[0], r[1]), ufunc(r[2], r[3])),
                               ufunc(ufunc(r[4], r[5]), ufunc(r[6], r[7]))), *terms[blocks:]])


def _class_reduce(a: np.ndarray, ufunc, axis: int = -1) -> np.ndarray:
    """ufunc.reduce over the class axis, keepdims, with the bits of numpy's
    own reduction over a contiguous last axis: the last axis (axis=-1), or
    the first of class-major (C, ...) planes (axis=0).  A max is exact in
    any order, and numpy sums a row of non-negative terms in _pairwise's
    order, which a loop over class slices reproduces.  Below 8 classes that
    order is left to right, which is how numpy itself reduces class-major
    planes, plane after plane, in one call."""
    if axis == 0 and a.shape[0] < 8:
        return ufunc.reduce(a, axis=0, keepdims=True)
    return _pairwise(ufunc, [a[c:c + 1] if axis == 0 else a[..., c:c + 1]
                             for c in range(a.shape[axis])])


def _shifted_exp(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class max, exp(logits - class max), class sum of that exp) over the
    class axis (_class_reduce), with the bits of the tape's
    softmax_cross_entropy; the exp goes into out where given."""
    zmax = _class_reduce(logits, np.maximum, axis)
    e = np.subtract(logits, zmax, out=out)
    np.exp(e, out=e)
    return zmax, e, _class_reduce(e, np.add, axis)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Last-axis softmax, rounded as finetune's loss and head gradient (_shifted_exp)."""
    _, e, total = _shifted_exp(logits)
    return e / total


def recent_mean(probs: list[np.ndarray], count: int | None = None) -> np.ndarray:
    """Mean of the `count` most recent per-member probability arrays.

    The arrays are summed oldest-first and the sum is divided by count, so
    an ensemble-size sweep over arrays computed once per member reproduces
    bma_predict(members, x, model, count=k) bit for bit at every k.
    """
    if len(probs) < 1:
        raise ContractError("prediction requires at least one member")
    if count is not None:
        if not 1 <= count <= len(probs):
            raise ContractError(f"count must lie in [1, {len(probs)}], got {count}")
        probs = probs[-count:]
    total = probs[0]
    for p in probs[1:]:
        total = total + p
    return total / len(probs)


def bma_predict(members, x: np.ndarray, model: ModelSection,
                count: int | None = None, out: list[np.ndarray] | None = None) -> np.ndarray:
    """Average the per-member softmax outputs over posterior samples.

    members: (encoder, head) ParamVector pairs in snapshot capture order;
    head has segments weight (embed_dim, C) and bias (C,).  `count`
    selects the most recent members, so count=1 is exactly the final
    snapshot's model (ensemble-size sweeps grow backwards from the end).
    Only the selected members run their encoder.  A sweep over every
    ensemble size calls this once per member (a one-member slice returns
    that member's softmax exactly) and combines the results with
    recent_mean, which gives the same bits as calling it once per size.

    A head may also be a stack of G heads over one encoder: weight
    (G, embed_dim, C) and bias (G, 1, C).  Broadcasting then runs the
    encoder once and returns a (G, N, C) array whose slice g has the bits
    of head g's own one-member call.  out, where given, takes every
    encoder's layer outputs (mlp_layers).
    """
    if count is not None and not 1 <= count <= len(members):
        raise ContractError(f"count must lie in [1, {len(members)}], got {count}")
    used = members if count is None else members[-count:]
    x = np.asarray(x, dtype=np.float64)
    return recent_mean([softmax(mlp_forward_np(encoder, x, model.activation, out)
                                @ head["weight"].values + head["bias"].values)
                        for encoder, head in used])


def predictive_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats per row, with 0 * ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    rows = p if p.ndim == 2 else p[None, :]
    if rows.ndim != 2:
        raise ContractError("predictive_entropy: need a vector or matrix of probabilities")
    # written so that NaN fails both comparisons: a NaN row must not read as certainty
    if not (np.all(rows >= 0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-6)):
        raise ContractError("predictive_entropy: rows must be finite probability vectors")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log(rows), 0.0)
    h = -terms.sum(axis=1)
    return h if p.ndim == 2 else h[0]


# ---- checkpoint container ---------------------------------------------------

def _segment_table(pv: ParamVector, offset: int) -> tuple[list, int]:
    table = []
    for name, t in pv.items():
        table.append([name, offset, list(t.shape)])
        offset += t.size
    return table, offset


def write_container(path, kind: str, meta: dict, blocks: list[tuple[str, dict, ParamVector]]) -> None:
    """blocks: (block_name, block_meta, params) triples, order preserved.
    A payload that read_container would refuse, one holding NaN or Inf,
    raises NumericError naming path before any byte is written.  The file
    is streamed: the header, each block's float64 bytes, then their CRC-32."""
    offset = 0
    header_blocks = []
    payloads = []
    for name, block_meta, pv in blocks:
        table, offset = _segment_table(pv, offset)
        header_blocks.append({"name": name, "meta": block_meta, "segments": table})
        payloads.append(np.asarray(pv.flatten(), dtype="<f8"))
        if not np.isfinite(payloads[-1]).all():
            raise NumericError(f"{path}: payload holds NaN or Inf, not written")
    header = {"kind": kind, "meta": meta, "blocks": header_blocks}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC + FORMAT_VERSION.to_bytes(4, "little")
              + len(header_bytes).to_bytes(4, "little") + header_bytes, *payloads]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_atomic(path, chunks + [crc.to_bytes(4, "little")])


def read_container(path, expect_kind: str | None = None) -> tuple[dict, np.ndarray]:
    """Returns (header, payload), payload a read-only view of the file's
    bytes.  Raises VersionError, TruncationError, or ChecksumError on
    malformed files, and CheckpointError on a missing file or a payload
    that is not finite."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"missing {expect_kind or 'a'} checkpoint: {path}") from exc
    if len(raw) < 16:
        raise TruncationError(f"{path}: file too short to be a checkpoint")
    if raw[:4] != MAGIC:
        raise VersionError(f"{path}: bad magic bytes")
    version = int.from_bytes(raw[4:8], "little")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version}")
    header_len = int.from_bytes(raw[8:12], "little")
    if 12 + header_len + 4 > len(raw):
        raise TruncationError(f"{path}: header extends past end of file")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ChecksumError(f"{path}: header corrupt ({exc})") from exc
    # the CRC sits after the payload, so a header that cannot size the
    # payload is reported as corrupt before the CRC can be checked
    try:
        n_elems = sum(math.prod(seg[2])
                      for block in header["blocks"] for seg in block["segments"])
    except (KeyError, IndexError, TypeError) as exc:
        raise ChecksumError(f"{path}: header corrupt (cannot size the payload: "
                            f"{type(exc).__name__} {exc})") from exc
    if type(n_elems) is not int:
        raise ChecksumError(f"{path}: header corrupt (payload size {n_elems!r})")
    expected = 12 + header_len + 8 * n_elems + 4
    if len(raw) < expected:
        raise TruncationError(f"{path}: payload truncated "
                              f"(expected {expected} bytes, found {len(raw)})")
    if len(raw) > expected:
        raise TruncationError(f"{path}: {len(raw) - expected} trailing bytes")
    stored_crc = int.from_bytes(raw[-4:], "little")
    if zlib.crc32(memoryview(raw)[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: CRC mismatch")
    payload = np.frombuffer(raw, dtype="<f8", count=n_elems, offset=12 + header_len)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(f"{path}: expected a {expect_kind} file, "
                              f"found {header.get('kind')!r}")
    if not np.isfinite(payload).all():
        raise CheckpointError(f"{path}: payload holds NaN or Inf")
    return header, payload


def _pv_from_payload(segments: list, payload: np.ndarray) -> ParamVector:
    arrays = {}
    for name, offset, shape in segments:
        size = math.prod(shape)
        arrays[name] = payload[offset:offset + size].reshape([int(s) for s in shape]).copy()
    return ParamVector(arrays)


@contextmanager
def _complete(path, kind: str):
    """A block or key missing from the container at path is a CheckpointError."""
    try:
        yield
    except KeyError as exc:
        raise CheckpointError(f"{path}: the {kind} file has no {exc}") from exc


def _crc(encoder: ParamVector) -> int:
    # of its little-endian float64 bytes; asarray copies flatten's array only on a big-endian host
    return zlib.crc32(np.asarray(encoder.flatten(), dtype="<f8"))


def save_ensemble(ensemble: PosteriorEnsemble, path) -> None:
    blocks = []
    for i, snap in enumerate(ensemble.snapshots):
        block_meta = {"step": snap.step, "cycle": snap.cycle,
                      "pretrain_loss": snap.pretrain_loss,
                      "sampler_kind": snap.sampler_kind}
        blocks.append((f"snapshot{i}", block_meta, snap.encoder_params))
    write_container(path, "ensemble", dict(ensemble.run_meta), blocks)


def _is_mlp(pv: ParamVector) -> bool:
    """pv holds layer0.w, layer0.b, ..., layer<L-1>.b in that order, L >= 1,
    with 2-D weights, each bias as wide as its weight's outputs and each
    weight's inputs as wide as the layer before's outputs."""
    shapes = pv.shapes()
    n = len(shapes) // 2
    if n < 1 or list(shapes) != [f"layer{i}.{p}" for i in range(n) for p in "wb"]:
        return False
    ws = [shapes[f"layer{i}.w"] for i in range(n)]
    return (all(len(w) == 2 and shapes[f"layer{i}.b"] == w[1:] for i, w in enumerate(ws))
            and all(a[1] == b[0] for a, b in zip(ws, ws[1:])))


def load_ensemble(path) -> PosteriorEnsemble:
    """Every snapshot must be laid out as snapshot 0, an MLP encoder
    (_is_mlp), else CheckpointError."""
    header, payload = read_container(path, expect_kind="ensemble")
    snapshots = []
    with _complete(path, "ensemble"):
        for block in header["blocks"]:
            meta = block["meta"]
            snapshots.append(Snapshot(
                encoder_params=_pv_from_payload(block["segments"], payload),
                step=int(meta["step"]), cycle=int(meta["cycle"]),
                pretrain_loss=float(meta["pretrain_loss"]),
                sampler_kind=str(meta["sampler_kind"])))
            if len(snapshots) == 1 and not _is_mlp(snapshots[0].encoder_params):
                raise CheckpointError(f"{path}: snapshot 0 holds "
                                      f"{snapshots[0].encoder_params.shapes()}, not an MLP "
                                      "encoder's layer<i>.w and layer<i>.b")
            if not snapshots[-1].encoder_params.same_layout(snapshots[0].encoder_params):
                raise CheckpointError(f"{path}: snapshot {len(snapshots) - 1} "
                                      "is laid out unlike snapshot 0")
        return PosteriorEnsemble(snapshots=snapshots, run_meta=header["meta"], path=str(path))


def save_member(path, encoder: ParamVector, head: ParamVector, meta: dict,
                snapshot: ParamVector) -> None:
    """A fine-tuned member, with the CRC-32 of the snapshot encoder it was
    fitted from; a frozen encoder (meta freeze_encoder), which is that
    snapshot's own, is stored as the CRC alone."""
    stored = ParamVector({}) if meta.get("freeze_encoder") else encoder
    write_container(path, "member", meta,
                    [("encoder", {"crc": _crc(snapshot)}, stored), ("head", {}, head)])


def load_member(path, ensemble: PosteriorEnsemble,
                classes: int) -> tuple[ParamVector, ParamVector, dict]:
    """(encoder, head, meta); a frozen encoder is its snapshot's own in
    ensemble.  The recorded CRC must match that snapshot's encoder, a
    stored encoder must be laid out as that snapshot, and the head must
    hold exactly weight (D, classes) and bias (classes,), D the encoder's
    output width."""
    header, payload = read_container(path, expect_kind="member")
    with _complete(path, "member"):
        blocks, meta = {b["name"]: b for b in header["blocks"]}, header["meta"]
        head = _pv_from_payload(blocks["head"]["segments"], payload)
        encoder = _pv_from_payload(blocks["encoder"]["segments"], payload)
        s, crc = meta["snapshot"], blocks["encoder"]["meta"]["crc"]
    snaps = ensemble.snapshots
    if not (type(s) is int and 0 <= s < len(snaps)) or _crc(snaps[s].encoder_params) != crc:
        raise CheckpointError(f"{path}: stale, not fitted on snapshot {s} of {ensemble.path}")
    encoder = encoder if encoder.names else snaps[s].encoder_params
    if not encoder.same_layout(snaps[s].encoder_params):
        raise CheckpointError(f"{path}: its encoder is laid out unlike snapshot {s} "
                              f"of {ensemble.path}")
    width = mlp_arrays(encoder)[-1][1].size  # load_ensemble checked the layout
    if head.shapes() != {"weight": (width, classes), "bias": (classes,)}:
        raise CheckpointError(f"{path}: its head holds {head.shapes()}, not weight "
                              f"({width}, {classes}) and bias ({classes},) for {classes} "
                              f"classes over its encoder's {width} outputs")
    return encoder, head, meta
