"""run_finetune's split of (label fraction, snapshot range) units between
this process and one forked child per seed: which units each process
fits, that the split writes the bytes of an in-process run,
each error of the child reaches the CLI with the exit code an in-process
run gives, and the child is reaped on every way out."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_helper import assert_no_child_process

from mcbyol import cli, config, helper, pipeline
from mcbyol.errors import (CheckpointError, DataError, DivergenceError, HelperError,
                           NumericError)
from mcbyol.finetune import split_members, subset_labels
from mcbyol.posterior import PosteriorEnsemble, save_ensemble

ROOT = Path(__file__).resolve().parents[1]

# 90 train rows in batches of 16: fractions 1.0, 0.25 and 0.1 keep 90, 24
# and 9 rows, so 6, 2 and 1 minibatches per epoch
RUN = """
[data]
classes = 3
per_class_pretrain = 40
per_class_train = 30
per_class_test = 10
input_dim = 6
[model]
encoder_hidden = 8
embed_dim = 4
proj_hidden = 5
proj_dim = 3
pred_hidden = 5
[sampler]
cycle_len = 10
total_steps = 30
batch = 32
[finetune]
batch = 16
epochs = 3
freeze_encoder = {freeze}
label_fractions = {fractions}
[run]
seeds = 0
"""


# the same run with 12 snapshots per seed: fractions 1.0, 0.25 and 0.1 split
# as 1.0's snapshots 0-10 here against its snapshot 11, 0.25 and 0.1 in the child
WIDE_RUN = RUN.replace("cycle_len = 10\ntotal_steps = 30", "cycle_len = 5\ntotal_steps = 60")


@pytest.fixture(scope="module")
def ensemble_files(tmp_path_factory):
    """Seed 0's ensembles of the RUN config (3 snapshots) and of WIDE_RUN
    (12); the finetune section does not change them."""
    files = {}
    for name, template in (("narrow", RUN), ("wide", WIDE_RUN)):
        out = tmp_path_factory.mktemp(name)
        pipeline.run_pretrain(config.parse(template.format(freeze="true", fractions="1.0")), 0,
                              str(out))
        files[name] = out / "ensemble_seed0.ckpt"
    return files


@pytest.fixture
def ensemble_file(ensemble_files):
    return ensemble_files["narrow"]


def finetune_dir(tmp_path, ensemble_file, name):
    out = tmp_path / name
    out.mkdir()
    shutil.copy(ensemble_file, out)
    return out


def counting_children(monkeypatch, cpus):
    """Sets the CPU probe to cpus; returns the list each forked child's
    description joins."""
    forked = []

    class Counted(helper.Child):
        def __init__(self, what, work):
            super().__init__(what, work)
            forked.append(what)

    monkeypatch.setattr(helper, "available_cpus", lambda: cpus)
    monkeypatch.setattr(helper, "Child", Counted)
    return forked


def whole(fractions, snapshots):
    return [(i, 0, snapshots) for i in fractions]


# whole fractions, largest first, each to the process with fewer minibatches so far
WHOLE = [
    ([13, 4, 2], ([0], [1, 2])),
    ([2, 13, 4], ([1], [0, 2])),
    ([4, 2, 13], ([2], [0, 1])),
    ([5], ([0], [])),
    ([], ([], [])),
    ([4, 4], ([0], [1])),  # equal loads: the first process takes the next
    ([3, 3, 3, 3], ([0, 2], [1, 3])),  # equal counts go in list order
    ([1, 2, 2, 1], ([0, 1], [2, 3])),
    ([6, 3, 3], ([0], [1, 2])),
]


# a single snapshot is never cut; a lone fraction of 4 snapshots is (below)
@pytest.mark.parametrize("counts,snapshots,shares", [
    (counts, snapshots, shares) for counts, shares in WHOLE for snapshots in (1, 4)
    if (counts, snapshots) != ([5], 4)])
def test_split_members_keeps_whole_fractions_where_no_cut_wins(counts, snapshots, shares):
    assert split_members(counts, snapshots) == tuple(whole(share, snapshots) for share in shares)


@pytest.mark.parametrize("counts,snapshots,shares", [
    # wide_ensemble: 13 x (6 + 16) here against 13 x (6 + 4) + (4 + 2) x (6 + 20)
    ([13, 4, 2], 20, ([(0, 0, 16)], [(0, 16, 20), (1, 0, 20), (2, 0, 20)])),
    ([2, 13, 4], 20, ([(1, 0, 16)], [(0, 0, 20), (1, 16, 20), (2, 0, 20)])),
    ([5], 4, ([(0, 0, 2)], [(0, 2, 4)])),
    ([5], 5, ([(0, 0, 3)], [(0, 3, 5)])),  # equal shares: the larger cut
    ([6, 2, 1], 12, ([(0, 0, 11)], [(0, 11, 12), (1, 0, 12), (2, 0, 12)])),
    ([13, 4, 2], 60, ([(0, 0, 35), (2, 0, 60)], [(0, 35, 60), (1, 0, 60)])),
])
def test_split_members_cuts_the_largest_fraction_where_that_wins(counts, snapshots, shares):
    assert split_members(counts, snapshots) == shares


def test_split_members_places_every_member_once():
    rng = np.random.default_rng(0)
    for _ in range(300):
        counts = rng.integers(1, 30, size=rng.integers(1, 6)).tolist()
        snapshots = int(rng.integers(1, 70))
        mine, theirs = split_members(counts, snapshots)
        assert mine == sorted(mine) and theirs == sorted(theirs)
        placed = [(i, s) for i, start, end in mine + theirs for s in range(start, end)]
        assert sorted(placed) == [(i, s) for i in range(len(counts)) for s in range(snapshots)]
        assert all(start < end for _, start, end in mine + theirs)
        cut = {i for i, start, end in mine + theirs if (start, end) != (0, snapshots)}
        assert cut <= {int(np.argmax(counts))}  # only the largest fraction, the first of equals


def test_the_benchmark_shapes_keep_their_schedules(tmp_path):
    """paper_default (S = 4) keeps the whole-fraction shares, and
    wide_ensemble (S = 20) gives the child fraction 1.0's last 4 snapshots."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    schedules = {}
    for name in ("paper_default", "wide_ensemble"):
        (path,) = workloads.generate(name, 0, ROOT, tmp_path / name)
        cfg = config.load(str(path))
        _, train, _, _ = pipeline.make_datasets(cfg)
        counts = [-(-subset_labels(train, frac, seed=cfg.data.seed).n // cfg.finetune.batch)
                  for frac in cfg.finetune.label_fractions]
        assert counts == [13, 4, 2]
        snapshots = cfg.sampler.total_steps // cfg.sampler.cycle_len
        schedules[name] = snapshots, split_members(counts, snapshots)
    assert schedules["paper_default"] == (4, (whole([0], 4), whole([1, 2], 4)))
    assert schedules["wide_ensemble"] == (20, ([(0, 0, 16)], [(0, 16, 20), *whole([1, 2], 20)]))


@pytest.mark.parametrize("freeze", ["true", "false"])
@pytest.mark.parametrize("ensemble,fractions,forks", [
    ("narrow", "1.0", 1),  # cut 2 + 1
    ("narrow", "0.25,1.0", 1), ("narrow", "0.1,1.0,0.25", 1),
    ("wide", "1.0,0.25,0.1", 1),  # fraction 1.0's snapshot 11 goes with 0.25 and 0.1
])
def test_forked_and_in_process_finetune_write_the_same_bytes(tmp_path, monkeypatch,
                                                             ensemble_files, freeze, ensemble,
                                                             fractions, forks):
    template = WIDE_RUN if ensemble == "wide" else RUN
    cfg = config.parse(template.format(freeze=freeze, fractions=fractions))
    snapshots = cfg.sampler.total_steps // cfg.sampler.cycle_len
    written = {}
    for cpus in (2, 1):
        forked = counting_children(monkeypatch, cpus)
        out = finetune_dir(tmp_path, ensemble_files[ensemble], f"cpus{cpus}")
        pipeline.run_finetune(cfg, 0, str(out))
        assert len(forked) == (forks if cpus == 2 else 0)
        assert_no_child_process()
        written[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(written[1]) == 1 + len(cfg.finetune.label_fractions) * (snapshots + 1)
    assert written[2] == written[1]


def test_zero_epochs_write_initial_heads_and_empty_logs(tmp_path, monkeypatch, ensemble_files):
    # no loss to share: the (1, 3, 0) loss array is no mmap, which cannot be empty
    cfg = config.parse(RUN.format(freeze="true", fractions="1.0").replace("epochs = 3",
                                                                          "epochs = 0"))
    written = {}
    for cpus in (2, 1):
        forked = counting_children(monkeypatch, cpus)
        out = finetune_dir(tmp_path, ensemble_files["narrow"], f"cpus{cpus}")
        pipeline.run_finetune(cfg, 0, str(out))
        assert len(forked) == cpus - 1
        assert_no_child_process()
        assert (out / "finetune_log_seed0_f1.tsv").read_text() == "snapshot\tepoch\tloss\n"
        written[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(written[1]) == 1 + 3 + 1
    assert written[2] == written[1]


FAILING = RUN.format(freeze="true", fractions="1.0,0.25,0.1")


@pytest.mark.parametrize("fractions,marker", [
    ("1.0,0.25,0.1", "_f0p1_"),  # the child fits 0.25 and 0.1 (2 + 1 minibatches against 6)
    ("1.0", "_f1_snap2."),  # the child fits fraction 1.0's snapshot 2, this process 0 and 1
])
@pytest.mark.parametrize("error,code", [
    (CheckpointError("cannot write member"), cli.EXIT_IO),
    (PermissionError(13, "Permission denied", "member.ckpt"), cli.EXIT_IO),
    (DataError("bad rows"), cli.EXIT_DATA),
    (DivergenceError(7, quantity="loss", value=float("inf"), detail="d"), cli.EXIT_NUMERIC),
])
def test_an_error_in_the_child_exits_as_an_in_process_run_does(tmp_path, monkeypatch, capsys,
                                                                ensemble_file, error, code,
                                                                fractions, marker):
    parent, real, raised_in = os.getpid(), pipeline.save_member, []

    def fails_in_the_childs_share(path, *args):
        if marker in os.path.basename(path):
            raised_in.append(os.getpid() == parent)
            raise error
        return real(path, *args)

    monkeypatch.setattr(pipeline, "save_member", fails_in_the_childs_share)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN.format(freeze="true", fractions=fractions))
    errs = {}
    for cpus in (1, 2):
        forked = counting_children(monkeypatch, cpus)
        out = finetune_dir(tmp_path, ensemble_file, f"cpus{cpus}")
        assert cli.main(["finetune", "--config", str(cfg_path), "--out", str(out)]) == code
        assert len(forked) == cpus - 1
        assert_no_child_process()
        errs[cpus] = capsys.readouterr().err
    assert raised_in == [True]  # the forked runs raised in their child, not here
    assert errs[2] == errs[1] and str(error) in errs[1]
    with pytest.raises(type(error)) as err:
        pipeline.run_finetune(config.load(str(cfg_path)), 0, str(out))
    assert str(err.value) == str(error)
    assert_no_child_process()


@pytest.mark.parametrize("ensemble,fractions,marker,named", [
    ("narrow", "1.0,0.25,0.1", "_f0p25_", "0.25, 0.1"),
    ("narrow", "1.0", "_f1_snap2.", "1.0 at snapshots 2-2"),
    ("wide", "1.0", "_f1_snap7.", "1.0 at snapshots 6-11"),
    ("wide", "1.0,0.25,0.1", "_f0p1_", "1.0 at snapshots 11-11, 0.25, 0.1"),
])
def test_an_unexpected_error_in_the_child_is_a_helper_error(tmp_path, monkeypatch,
                                                            ensemble_files, ensemble, fractions,
                                                            marker, named):
    real = pipeline.save_member

    def fails_in_the_childs_share(path, *args):
        if marker in os.path.basename(path):
            raise KeyError("snapshot")
        return real(path, *args)

    monkeypatch.setattr(pipeline, "save_member", fails_in_the_childs_share)
    counting_children(monkeypatch, 2)
    out = finetune_dir(tmp_path, ensemble_files[ensemble], "o")
    template = WIDE_RUN if ensemble == "wide" else RUN
    with pytest.raises(HelperError) as err:
        pipeline.run_finetune(config.parse(template.format(freeze="true", fractions=fractions)),
                              0, str(out))
    assert str(err.value) == (f"the fine-tuning child of seed 0 (label fractions {named}) "
                              "failed: KeyError: 'snapshot'")
    assert_no_child_process()


def test_the_parent_waits_for_the_child_when_its_own_fit_raises(tmp_path, monkeypatch,
                                                                ensemble_file):
    parent, real = os.getpid(), pipeline.finetune

    def fails_in_the_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise NumericError("parent fit")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "finetune", fails_in_the_parent)
    counting_children(monkeypatch, 2)
    out = finetune_dir(tmp_path, ensemble_file, "o")
    with pytest.raises(NumericError, match="parent fit"):
        pipeline.run_finetune(config.parse(FAILING), 0, str(out))
    assert_no_child_process()
    # the child's fractions were fitted and written before the parent raised;
    # the logs, which this process writes once the child is reaped, were not
    for tag in ("0p1", "0p25"):
        assert len(list(out.glob(f"member_seed0_f{tag}_*"))) == 3
    assert not list(out.glob("member_seed0_f1_*"))
    assert not list(out.glob("finetune_log_*"))


KILLED_CHILD = """
import json, os, signal, sys
from mcbyol import cli, helper, pipeline

helper.available_cpus = lambda: 2
parent, real = os.getpid(), pipeline.finetune

def killed_in_the_child(*args, **kwargs):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)

pipeline.finetune = killed_in_the_child
rc = cli.main(["finetune", "--config", sys.argv[1], "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"rc": rc, "left": left}))
"""


def test_an_ensemble_without_snapshots_is_refused_before_any_fork(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    out.mkdir()
    path = pipeline.ensemble_path(str(out), 0)
    save_ensemble(PosteriorEnsemble(), path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN.format(freeze="true", fractions="1.0,0.25,0.1"))
    forked = counting_children(monkeypatch, 2)
    assert cli.main(["finetune", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_IO
    assert forked == []
    assert_no_child_process()
    assert capsys.readouterr().err == f"i/o error: {path}: the ensemble has no snapshots\n"
    assert sorted(p.name for p in out.iterdir()) == ["ensemble_seed0.ckpt"]


def test_a_killed_child_stops_finetune_with_exit_code_5(tmp_path, ensemble_file):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAILING)
    out = finetune_dir(tmp_path, ensemble_file, "o")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", KILLED_CHILD, str(cfg_path), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": cli.EXIT_HELPER, "left": False}
    assert proc.stderr.strip() == (
        "helper error: the fine-tuning child of seed 0 (label fractions 0.25, 0.1) "
        f"was killed by signal {int(signal.SIGKILL)}")
    assert not list(out.glob("member_seed0_f0p1_*"))
    assert len(list(out.glob("member_seed0_f1_*"))) == 3
