"""Posterior snapshot collection, marginalized prediction, and checkpoint IO.

Checkpoint container layout (little-endian):

    magic  b"MCPV" | version u32 | header_len u32 | header JSON (UTF-8)
    payload float64 array | crc32 u32 over everything before it

The JSON header is the human-auditable metadata block: container kind,
run metadata, and one block per stored parameter vector with its segment
table (name, element offset, shape).  Loads are bit-exact; corruption
surfaces as a checksum, truncation, or version error, never silently.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .config import ModelSection
from .errors import (ChecksumError, CheckpointError, ContractError,
                     TruncationError, VersionError)
from .model import TwinModel, mlp_forward_np
from .params import ParamVector
from .autodiff import Tensor

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

    @property
    def size(self) -> int:
        return len(self.snapshots)


def collect(ensemble: PosteriorEnsemble, model: TwinModel,
            step: int, cycle: int, loss: float) -> Snapshot:
    """Deep-copy the online encoder into the ensemble; training state is
    untouched and later model updates do not affect the stored snapshot."""
    params = model.online_encoder.copy()
    params.set_requires_grad(False)
    if ensemble.snapshots and not params.same_layout(ensemble.snapshots[0].encoder_params):
        raise ContractError("snapshot layout differs from existing ensemble")
    snap = Snapshot(encoder_params=params, step=step, cycle=cycle,
                    pretrain_loss=float(loss),
                    sampler_kind=str(ensemble.run_meta.get("sampler_kind", "")))
    ensemble.snapshots.append(snap)
    return snap


# ---- marginalized prediction ----------------------------------------------

def _class_reduce(a: np.ndarray, ufunc) -> np.ndarray:
    """ufunc.reduce over the last (class) axis, keepdims, with the bits of
    numpy's own row reduction.  A max is exact in any order, and below 8
    classes numpy's pairwise sum of non-negative terms is a left-to-right
    loop; a loop over column slices reproduces both several times faster.
    From 8 classes on numpy's reduction itself runs."""
    classes = a.shape[-1]
    if classes >= 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., :1]
    for c in range(1, classes):
        out = ufunc(out, a[..., c:c + 1])
    return out


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row max, exp(logits - row max), row sum of that exp), with the bits
    of the tape's softmax_cross_entropy."""
    zmax = _class_reduce(logits, np.maximum)
    e = np.exp(logits - zmax)
    return zmax, e, _class_reduce(e, np.add)


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
                count: int | None = None) -> np.ndarray:
    """Average the per-member softmax outputs over posterior samples.

    members: (encoder ParamVector, head) pairs in snapshot capture order;
    head carries .weight (embed_dim, C) and .bias (C,) tensors.  `count`
    selects the most recent members, so count=1 is exactly the final
    snapshot's model (ensemble-size sweeps grow backwards from the end).
    Only the selected members run their encoder.  A sweep over every
    ensemble size calls this once per member (a one-member slice returns
    that member's softmax exactly) and combines the results with
    recent_mean, which gives the same bits as calling it once per size.

    A head may also be a stack of G heads over one encoder: weight
    (G, embed_dim, C) and bias (G, 1, C).  Broadcasting then runs the
    encoder once and returns a (G, N, C) array whose slice g has the bits
    of head g's own one-member call.
    """
    if count is not None and not 1 <= count <= len(members):
        raise ContractError(f"count must lie in [1, {len(members)}], got {count}")
    used = members if count is None else members[-count:]
    x = np.asarray(x, dtype=np.float64)
    return recent_mean([softmax(mlp_forward_np(encoder, x, model.activation)
                                @ head.weight.values + head.bias.values)
                        for encoder, head in used])


def predictive_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats per row, with 0 * ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    rows = p if p.ndim == 2 else p[None, :]
    if rows.ndim != 2:
        raise ContractError("predictive_entropy: need a vector or matrix of probabilities")
    if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-6):
        raise ContractError("predictive_entropy: rows must be probability vectors")
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
    """blocks: (block_name, block_meta, params) triples, order preserved."""
    offset = 0
    header_blocks = []
    payload_parts = []
    for name, block_meta, pv in blocks:
        table, offset = _segment_table(pv, offset)
        header_blocks.append({"name": name, "meta": block_meta, "segments": table})
        payload_parts.append(pv.flatten())
    header = {"kind": kind, "meta": meta, "blocks": header_blocks}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = (np.concatenate(payload_parts) if payload_parts else np.zeros(0))
    body = (MAGIC
            + FORMAT_VERSION.to_bytes(4, "little")
            + len(header_bytes).to_bytes(4, "little")
            + header_bytes
            + payload.astype("<f8").tobytes())
    crc = zlib.crc32(body)
    write_atomic(path, body + crc.to_bytes(4, "little"))


def read_container(path, expect_kind: str | None = None) -> tuple[dict, np.ndarray]:
    """Returns (header, payload), payload a read-only view of the file's
    bytes.  Raises VersionError, TruncationError, or ChecksumError on
    malformed files."""
    with open(path, "rb") as f:
        raw = f.read()
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
    return header, payload


def _pv_from_payload(segments: list, payload: np.ndarray) -> ParamVector:
    tensors = {}
    for name, offset, shape in segments:
        size = math.prod(shape)
        vals = payload[offset:offset + size].reshape([int(s) for s in shape])
        tensors[name] = Tensor(vals.copy())
    return ParamVector(tensors)


def save_ensemble(ensemble: PosteriorEnsemble, path) -> None:
    blocks = []
    for i, snap in enumerate(ensemble.snapshots):
        block_meta = {"step": snap.step, "cycle": snap.cycle,
                      "pretrain_loss": snap.pretrain_loss,
                      "sampler_kind": snap.sampler_kind}
        blocks.append((f"snapshot{i}", block_meta, snap.encoder_params))
    write_container(path, "ensemble", dict(ensemble.run_meta), blocks)


def load_ensemble(path) -> PosteriorEnsemble:
    header, payload = read_container(path, expect_kind="ensemble")
    snapshots = []
    for block in header["blocks"]:
        meta = block["meta"]
        snapshots.append(Snapshot(
            encoder_params=_pv_from_payload(block["segments"], payload),
            step=int(meta["step"]), cycle=int(meta["cycle"]),
            pretrain_loss=float(meta["pretrain_loss"]),
            sampler_kind=str(meta["sampler_kind"])))
    return PosteriorEnsemble(snapshots=snapshots, run_meta=header["meta"])
