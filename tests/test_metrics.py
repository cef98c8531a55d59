import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mcbyol import config, pipeline
from mcbyol.errors import ContractError
from mcbyol.metrics import (accuracy, aggregate_seeds, auroc, entropy_histogram, format_value,
                            nll, write_histogram, write_table)

ROOT = Path(__file__).resolve().parents[1]


def brute_force_auroc(pos, neg):
    """O(n_pos * n_neg) pairwise count: wins + half-ties."""
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---- accuracy ---------------------------------------------------------------


def test_accuracy_all_correct_and_all_wrong():
    one_hot = np.eye(3)
    assert accuracy(one_hot, np.array([0, 1, 2])) == 1.0
    assert accuracy(one_hot, np.array([1, 2, 0])) == 0.0


def test_accuracy_three_of_four():
    preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
    assert accuracy(preds, np.array([0, 0, 1, 1])) == 0.75


def test_accuracy_tie_breaks_to_lowest_class():
    preds = np.array([[0.5, 0.5]])
    assert accuracy(preds, np.array([0])) == 1.0
    assert accuracy(preds, np.array([1])) == 0.0


def test_accuracy_empty_batch_rejected():
    with pytest.raises(ContractError):
        accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


# ---- NLL --------------------------------------------------------------------


def test_nll_perfect_prediction_is_zero():
    preds = np.eye(4)
    assert nll(preds, np.arange(4)) == 0.0


def test_nll_half_probability_is_ln2():
    preds = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert nll(preds, np.array([0, 1])) == pytest.approx(np.log(2), abs=1e-12)


def test_nll_matches_naive_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, c = int(rng.integers(2, 30)), int(rng.integers(2, 6))
        raw = rng.uniform(0.01, 1.0, size=(n, c))
        preds = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        naive = -sum(np.log(max(preds[i, labels[i]], 1e-12)) for i in range(n)) / n
        assert nll(preds, labels) == pytest.approx(naive, abs=1e-12)


def test_nll_clamps_zero_probability():
    preds = np.array([[1.0, 0.0]])
    assert nll(preds, np.array([1])) == pytest.approx(-np.log(1e-12), abs=1e-9)


# ---- AUROC ------------------------------------------------------------------


def test_auroc_perfect_separation():
    assert auroc([0.8, 0.9], [0.1, 0.2]) == 1.0


def test_auroc_all_ties_is_half():
    assert auroc([0.5], [0.5]) == 0.5


def test_auroc_matches_brute_force_on_200_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n_pos, n_neg = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        # quantize so ties actually occur
        pos = np.round(rng.normal(size=n_pos), 1)
        neg = np.round(rng.normal(size=n_neg), 1)
        assert auroc(pos, neg) == pytest.approx(brute_force_auroc(pos, neg), abs=1e-12)


def test_auroc_antisymmetry_for_tie_free_sets():
    rng = np.random.default_rng(2)
    for _ in range(50):
        scores = rng.permutation(rng.normal(size=20))
        pos, neg = scores[:8], scores[8:]
        assert auroc(pos, neg) + auroc(neg, pos) == pytest.approx(1.0, abs=1e-12)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    pos, neg = rng.normal(size=15), rng.normal(size=10)
    base = auroc(pos, neg)
    for f in (np.exp, np.tanh, lambda v: 3 * v + 7, lambda v: v ** 3):
        assert auroc(f(pos), f(neg)) == pytest.approx(base, abs=1e-12)


def test_auroc_rejects_empty_sets():
    with pytest.raises(ContractError):
        auroc([], [0.5])
    with pytest.raises(ContractError):
        auroc([0.5], [])


# ---- histogram --------------------------------------------------------------


def test_histogram_all_zero_entropies():
    h = entropy_histogram(np.zeros(25), bins=10, lo=0.0, hi=np.log(10))
    assert h.counts[0] == 25 and h.counts[1:].sum() == 0
    assert h.clamped == 0


def test_histogram_edge_rule():
    h = entropy_histogram(np.array([0.1, 0.1, 2.0]), bins=2, lo=0.0, hi=2.302)
    assert h.counts.tolist() == [2, 1]


def test_histogram_final_edge_closed_right():
    h = entropy_histogram(np.array([2.0]), bins=4, lo=0.0, hi=2.0)
    assert h.counts.tolist() == [0, 0, 0, 1]
    assert h.clamped == 0
    # interior edge falls into the right bin
    h2 = entropy_histogram(np.array([0.5]), bins=4, lo=0.0, hi=2.0)
    assert h2.counts.tolist() == [0, 1, 0, 0]


def test_histogram_empty_input():
    h = entropy_histogram(np.array([]), bins=3, lo=0.0, hi=1.0)
    assert h.counts.tolist() == [0, 0, 0]


def test_histogram_clamps_and_counts():
    # -0.5 clamps into bin 0, 0.5 sits on the interior edge (right bin),
    # 9.9 clamps into the last bin; nothing is dropped
    h = entropy_histogram(np.array([-0.5, 0.5, 9.9]), bins=2, lo=0.0, hi=1.0)
    assert h.counts.sum() == 3
    assert h.counts.tolist() == [1, 2]
    assert h.clamped == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_rejects_non_finite_entropies(bad):
    # a NaN fell into bin 0, the most confident one, without counting as clamped
    with pytest.raises(ContractError, match="finite"):
        entropy_histogram(np.array([0.2, bad, 0.7]), bins=2, lo=0.0, hi=1.0)


def test_histogram_validation():
    with pytest.raises(ContractError):
        entropy_histogram(np.zeros(3), bins=0, lo=0.0, hi=1.0)
    with pytest.raises(ContractError):
        entropy_histogram(np.zeros(3), bins=2, lo=1.0, hi=1.0)


# ---- seed aggregation -------------------------------------------------------


def test_aggregate_equal_values():
    mean, se = aggregate_seeds([0.9, 0.9, 0.9])
    assert mean == 0.9 and se == 0.0


def test_aggregate_two_values():
    mean, se = aggregate_seeds([0.8, 1.0])
    assert mean == pytest.approx(0.9, abs=1e-12)
    assert se == pytest.approx(0.1, abs=1e-12)


def test_aggregate_single_value():
    mean, se = aggregate_seeds([0.42])
    assert mean == 0.42 and se == 0.0


# ---- Jensen property --------------------------------------------------------


def test_bma_nll_never_exceeds_mean_member_nll():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s, n, c = int(rng.integers(2, 6)), int(rng.integers(2, 20)), int(rng.integers(2, 5))
        raw = rng.uniform(0.01, 1.0, size=(s, n, c))
        member_probs = raw / raw.sum(axis=2, keepdims=True)
        labels = rng.integers(0, c, size=n)
        bma = member_probs.mean(axis=0)
        mean_member_nll = np.mean([nll(member_probs[i], labels) for i in range(s)])
        assert nll(bma, labels) <= mean_member_nll + 1e-9


# ---- emission ---------------------------------------------------------------


def test_write_table_and_histogram_formats(tmp_path):
    table = tmp_path / "t.tsv"
    write_table(table, ["a", "b"], [(1, 0.5), (2, 0.25)])
    lines = table.read_text().splitlines()
    assert lines[0] == "a\tb"
    assert lines[1] == "1\t0.5"

    hist = entropy_histogram(np.array([0.2, 0.4]), bins=2, lo=0.0, hi=1.0)
    hpath = tmp_path / "h.tsv"
    write_histogram(hpath, hist)
    hlines = hpath.read_text().splitlines()
    assert hlines[0].startswith("# clamped = 0")
    assert hlines[1] == "bin_left_edge\tcount"
    assert len(hlines) == 4


def format_cell_by_cell(columns, rows):
    """write_table's text as format_value gives it, one cell at a time."""
    lines = ["\t".join(columns)] + ["\t".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


FLOATS = [0.5, -0.0, 0.0, 1e-300, 1e300, 5e-324, 1 / 3, -2.5e-7, float("inf"), float("nan")]
OTHERS = [0, -3, 2**70, True, np.int64(7), np.float32(0.1), "csghmc", "", "0.5", None]


def test_write_table_formats_every_cell_as_format_value(tmp_path):
    """Columns of Python floats, of np.float64, of both and of no float at
    all (one format string per row), and a column of every kind mixed
    (format_value per cell): the bytes of format_value cell by cell."""
    np_floats = [np.float64(v) for v in FLOATS]
    mixed = FLOATS + np_floats + OTHERS
    path = tmp_path / "t.tsv"
    tables = [(["float", "np.float64", "both", "other"],
               [(FLOATS[i % 10], np_floats[i % 10], (FLOATS + np_floats)[i % 20], OTHERS[i % 10])
                for i in range(30)]),
              (["other", "mixed"], [(OTHERS[i % 10], v) for i, v in enumerate(mixed)]),
              (["float", "other"], [])]
    for columns, rows in tables:
        write_table(path, columns, rows)
        assert path.read_bytes() == format_cell_by_cell(columns, rows).encode()


def test_write_table_refuses_a_row_of_another_width(tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(ContractError, match="every row must hold 2 cells"):
        write_table(path, ["a", "b"], [(1, 0.5), (2,)])
    assert not path.exists()


@pytest.mark.parametrize("cycle_len", [50, 10])
def test_every_table_of_a_run_has_format_values_bytes(tmp_path, monkeypatch, cycle_len):
    """Every table that a tiny run of configs/default.cfg writes, at its own
    cycle_len and at wide_ensemble's 10, in every stage."""
    cfg = config.load(str(ROOT / "configs" / "default.cfg"))
    cfg = dataclasses.replace(
        cfg, data=dataclasses.replace(cfg.data, per_class_pretrain=30, per_class_train=20,
                                      per_class_test=20),
        sampler=dataclasses.replace(cfg.sampler, cycle_len=cycle_len, total_steps=100, batch=32),
        finetune=dataclasses.replace(cfg.finetune, epochs=3, batch=16),
        run=dataclasses.replace(cfg.run, seeds=(0, 1)))
    written = []

    def recorded(path, columns, rows):
        write_table(path, columns, rows)
        written.append((path, columns, rows))

    monkeypatch.setattr(pipeline, "write_table", recorded)
    out = str(tmp_path)
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, out)
        pipeline.run_finetune(cfg, seed, out)
    pipeline.run_eval(cfg, out)
    pipeline.run_ood(cfg, out)
    pipeline.run_sample_diag(cfg, out, steps=200)
    assert len(written) == 2 + 2 * 3 + 3
    for path, columns, rows in written:
        assert Path(path).read_bytes() == format_cell_by_cell(columns, rows).encode(), path
