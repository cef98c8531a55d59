"""Evaluation metrics: accuracy, NLL, Mann-Whitney AUROC, entropy histograms.

All log quantities are natural-log (nats).  Pure functions over immutable
inputs; safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .errors import ContractError

PROB_FLOOR = 1e-12  # clamp for log of predicted probability


def _check_batch(name: str, preds, labels) -> tuple[np.ndarray, np.ndarray]:
    """preds as float64 and labels as int64, which must be a non-empty (N, C)
    batch and its N labels in [0, C); a ContractError names the caller."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ContractError(f"{name}: need a non-empty (N, C) prediction batch")
    if labels.shape != (preds.shape[0],):
        raise ContractError(f"{name}: label count mismatch")
    if labels.min() < 0 or labels.max() >= preds.shape[1]:
        raise ContractError(f"{name}: label out of range")
    return preds, labels


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; argmax ties break
    toward the lowest class index."""
    preds, labels = _check_batch("accuracy", preds, labels)
    return float((preds.argmax(axis=1) == labels).mean())


def nll(preds: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels, in nats."""
    preds, labels = _check_batch("nll", preds, labels)
    picked = preds[np.arange(labels.size), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def auroc(scores_positive: np.ndarray, scores_negative: np.ndarray) -> float:
    """Mann-Whitney statistic: P(pos > neg) + 0.5 * P(pos == neg), computed
    by average ranks so ties count half."""
    pos = np.asarray(scores_positive, dtype=np.float64).ravel()
    neg = np.asarray(scores_negative, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ContractError("auroc: both score sets must be non-empty")
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="mergesort")
    sorted_s = scores[order]
    _, starts = np.unique(sorted_s, return_index=True)
    ends = np.append(starts[1:], scores.size)
    # 1-based ranks; a tie group spanning sorted positions [s, e) gets (s+1+e)/2
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(group_rank, ends - starts)
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


@dataclass
class Histogram:
    edges: np.ndarray   # bins + 1 edges, fixed width
    counts: np.ndarray  # int64, sums to the number of inputs
    clamped: int        # inputs outside the range, folded into the end bins


def entropy_histogram(entropies: np.ndarray, bins: int,
                      lo: float, hi: float) -> Histogram:
    """Fixed-width binning, left-closed: a value on an interior edge falls
    into the bin to its right; the final edge is right-closed.  Out-of-range
    values are clamped into the end bins and counted; NaN or inf raises."""
    if bins < 1:
        raise ContractError("entropy_histogram: bins must be >= 1")
    if not hi > lo:
        raise ContractError("entropy_histogram: need hi > lo")
    e = np.asarray(entropies, dtype=np.float64).ravel()
    if not np.all(np.isfinite(e)):
        raise ContractError("entropy_histogram: entropies must be finite")
    edges = lo + (hi - lo) * np.arange(bins + 1) / bins
    clamped = int(np.count_nonzero(e < lo) + np.count_nonzero(e > hi))
    idx = np.floor((e - lo) / (hi - lo) * bins).astype(np.int64)
    idx = np.clip(idx, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    return Histogram(edges=edges, counts=counts, clamped=clamped)


def aggregate_seeds(per_seed_values) -> tuple[float, float]:
    """Mean and standard error (sample stddev / sqrt(m); zero for m = 1)."""
    vals = np.asarray(list(per_seed_values), dtype=np.float64)
    if vals.size == 0:
        raise ContractError("aggregate_seeds: need at least one value")
    mean = float(vals.mean())
    if vals.size == 1:
        return mean, 0.0
    return mean, float(vals.std(ddof=1) / np.sqrt(vals.size))


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_table(path, columns: list[str], rows: list[tuple]) -> None:
    """Tab-separated table with a header row; deterministic float formatting
    (format_value).  Every row must hold one cell per column.  Where every
    column holds only floats or no float, one format string writes each
    row, with format_value's bytes."""
    if set(map(len, rows)) - {len(columns)}:
        raise ContractError(f"{path}: every row must hold {len(columns)} cells")
    cells = list(zip(*rows))
    floats = [{issubclass(kind, float) for kind in set(map(type, column))} for column in cells]
    if any(len(kinds) > 1 for kinds in floats):  # a column of floats and other cells
        lines = ["\t".join(map(format_value, row)) for row in rows]
    else:
        row_format = "\t".join("{:.10g}" if kinds == {True} else "{!s}" for kinds in floats)
        lines = list(map(row_format.format, *cells)) if cells else []
    write_atomic(path, "\n".join(["\t".join(columns), *lines]) + "\n")


def write_histogram(path, hist: Histogram) -> None:
    """Two-column (bin_left_edge, count) text file; clamp count in a comment."""
    lines = [f"# clamped = {hist.clamped}", "bin_left_edge\tcount"]
    lines += [f"{format_value(float(left))}\t{int(c)}"
              for left, c in zip(hist.edges[:-1], hist.counts)]
    write_atomic(path, "\n".join(lines) + "\n")
