"""Synthetic datasets, the view-augmentation family, and minibatch iteration.

Clusters are Gaussian blobs around well-separated means pushed through one
fixed random tanh mixing layer, so the observed coordinates are a nonlinear
function of the latent class structure and representation learning has
something to do.  The generators read classes, input_dim, separation,
seed and ood_mode from the [data] section and are pure functions of it.
A Dataset is only its rows x and labels y (None when unlabeled).

Minibatch orders: the order of (seed, epoch) is permutation(n) from a
Philox keyed by SeedSequence([seed, 3, epoch]).generate_state(2, uint64),
at counter 0.  minibatch_keys derives the keys of many (seed, epoch) pairs
in one vectorized pass of SeedSequence's hash, and minibatches re-keys
one reused Philox per order, so no SeedSequence or bit generator is built
per epoch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .config import DataSection
from .errors import ConfigError, ContractError, DataError


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray | None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if not np.all(np.isfinite(self.x)):
            raise DataError("dataset contains non-finite values")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.y.shape[0] != self.x.shape[0]:
                raise DataError("label count does not match row count")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


def _cluster_params(d: DataSection):
    """Class means on a separation-scaled sphere plus the fixed mixing layer.
    Derived from their own seed stream so the OOD generator can replay them."""
    rng = _rng(d.seed, 0)
    dirs = rng.standard_normal((d.classes, d.input_dim))
    means = d.separation * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    mix = rng.standard_normal((d.input_dim, d.input_dim)) / np.sqrt(d.input_dim)
    return means, mix


def make_clusters(d: DataSection, per_class: int) -> Dataset:
    """per_class rows of each of d.classes clusters, in class order."""
    if per_class < 1:
        raise ConfigError("per_class must be >= 1")
    means, mix = _cluster_params(d)
    rng = _rng(d.seed, 1)
    labels = np.repeat(np.arange(d.classes), per_class)
    raw = means[labels] + rng.standard_normal((labels.size, d.input_dim))
    return Dataset(x=np.tanh(raw @ mix), y=labels)


def make_ood(d: DataSection, reference: Dataset) -> Dataset:
    """Unlabeled out-of-distribution analogue of the clusters d generates,
    one row per row of reference, drawn as d.ood_mode says from seed
    d.seed + 1."""
    means, mix = _cluster_params(d)
    n, classes, input_dim = reference.n, d.classes, d.input_dim
    rng = _rng(d.seed + 1, 2)
    assign = np.arange(n) % classes

    if d.ood_mode == "shifted_means":
        # radius 4x separation: at least 3x separation from every reference mean
        dirs = rng.standard_normal((classes, input_dim))
        ood_means = 4.0 * d.separation * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        raw = ood_means[assign] + rng.standard_normal((n, input_dim))
        x = np.tanh(raw @ mix)
    elif d.ood_mode == "scaled_variance":
        raw = means[assign] + 5.0 * rng.standard_normal((n, input_dim))
        x = np.tanh(raw @ mix)
    else:  # uniform_box over the reference's observed bounding box, doubled
        lo, hi = reference.x.min(axis=0), reference.x.max(axis=0)
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        x = rng.uniform(center - 2.0 * half, center + 2.0 * half, size=(n, input_dim))
    return Dataset(x=x, y=None)


def augment_pair(x_batch: np.ndarray, cfg: DataSection,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independent draws from the augmentation family applied to the
    same rows: per-row multiplicative jitter, additive Gaussian noise, then
    independent coordinate masking, as set by the [data] section."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("augment_pair: need a non-empty 2-D batch")

    def one_view() -> np.ndarray:
        jitter = rng.uniform(cfg.scale_min, cfg.scale_max, size=(x.shape[0], 1))
        v = x * jitter
        if cfg.noise_std > 0:
            v = v + cfg.noise_std * rng.standard_normal(x.shape)
        if cfg.mask_prob > 0:
            v = v * (rng.random(x.shape) >= cfg.mask_prob)
        return v

    return one_view(), one_view()


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(value: int) -> list[int]:
    """An int entropy value as SeedSequence reads it: little-endian uint32 words."""
    if value < 0:
        raise ContractError(f"minibatch seeds and epochs must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's word hash: a multiplier that advances on every call."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _seed_sequence_keys(entropy: list[list[int]]) -> np.ndarray:
    """SeedSequence(row).generate_state(2, np.uint64) for every row of
    uint32 entropy words, as one uint32 pass over all rows: hash the words
    into a 4-word pool (zeros past a short row's end), mix every pool word
    into every other, mix in the words past the fourth, then hash the pool
    into four output words.  Returns (rows, 2) uint64."""
    size = max([_POOL, *map(len, entropy)])
    pool = np.array([row + [0] * (size - len(row)) for row in entropy],
                    dtype=np.uint32).reshape(len(entropy), size)
    lengths = np.array([len(row) for row in entropy])
    hashmix = _hasher(_INIT_A, _MULT_A)
    mixer = [hashmix(pool[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], hashmix(mixer[src]))
    for src in range(_POOL, size):
        for dst in range(_POOL):
            mixed = _mix(mixer[dst], hashmix(pool[:, src]))
            mixer[dst] = np.where(lengths > src, mixed, mixer[dst])
    generate = _hasher(_INIT_B, _MULT_B)
    state = [generate(word).astype(np.uint64) for word in mixer]
    # consecutive words pair up little-endian into uint64s
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def minibatch_keys(seeds: Sequence[int], epochs: int) -> np.ndarray:
    """(S, epochs, 2) uint64 Philox keys of the minibatch orders: entry
    [s, e] equals SeedSequence([seeds[s], 3, e]).generate_state(2, np.uint64)."""
    seed_words = [_words(int(s)) + [3] for s in seeds]
    epoch_words = [_words(e) for e in range(epochs)]
    entropy = [sw + ew for sw in seed_words for ew in epoch_words]
    return _seed_sequence_keys(entropy).reshape(len(seed_words), epochs, 2)


def minibatches(n: int, batch: int, keys: np.ndarray) -> list[np.ndarray]:
    """One epoch of minibatches for each row of keys (R, 2), as given by
    minibatch_keys: row r's order is permutation(n) from a Philox with key
    keys[r] at counter 0, chunked into batches; the final short batch is
    kept, so each index appears exactly once per row.  Position i of the
    returned list holds every row's i-th batch as one (R, B) array."""
    if batch < 1:
        raise ConfigError("batch size must be >= 1")
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0 and an exhausted buffer, as every fresh Philox starts
    orders = np.empty((len(keys), n), dtype=np.int64)
    for row, key in enumerate(keys.tolist()):
        state["state"]["key"] = key
        bits.state = state
        orders[row] = rng.permutation(n)
    return [orders[:, i:i + batch] for i in range(0, n, batch)]


# ---- persistence: binary payload + text header -----------------------------

def save_dataset(ds: Dataset, stem: str) -> None:
    """Writes <stem>.bin (float64 LE rows, labels appended when present)
    and <stem>.txt (rows, dim and labeled lines)."""
    labels = b"" if ds.y is None else ds.y.astype("<f8").tobytes()
    write_atomic(f"{stem}.bin", ds.x.astype("<f8").tobytes() + labels)
    write_atomic(f"{stem}.txt", f"rows = {ds.n}\ndim = {ds.input_dim}\n"
                                f"labeled = {int(ds.y is not None)}\n")


def load_dataset(stem: str) -> Dataset:
    """Reads what save_dataset writes; header lines other than rows, dim
    and labeled are ignored.  Every label must be a whole number >= 0."""
    header: dict[str, str] = {}
    with open(f"{stem}.txt") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            header[key.strip()] = val.strip()

    def count(key: str) -> int:
        if key not in header:
            raise DataError(f"{stem}.txt: no {key!r} line")
        if not header[key].isdecimal():
            raise DataError(f"{stem}.txt: {key} = {header[key]!r} is not a non-negative integer")
        return int(header[key])

    rows, dim, labeled = count("rows"), count("dim"), bool(count("labeled"))
    with open(f"{stem}.bin", "rb") as f:
        raw = np.frombuffer(f.read(), dtype="<f8")
    expected = rows * dim + (rows if labeled else 0)
    if raw.size != expected:
        raise DataError(f"{stem}.bin: expected {expected} values, found {raw.size}")
    x = raw[:rows * dim].reshape(rows, dim).copy()
    if not labeled:
        return Dataset(x=x, y=None)
    labels = raw[rows * dim:]
    whole = (np.isfinite(labels) & (labels >= 0) & (labels < 2.0**63)
             & (labels == np.floor(labels)))
    if not whole.all():
        row = int(np.argmin(whole))
        raise DataError(f"{stem}.bin: the label of row {row}, {float(labels[row])!r}, "
                        "is not a whole number >= 0")
    return Dataset(x=x, y=labels.astype(np.int64))
