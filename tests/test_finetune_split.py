"""run_finetune's split of label fractions between this process and one
forked child per seed: the split writes the bytes of an in-process run,
each error of the child reaches the CLI with the exit code an in-process
run gives, and the child is reaped on every way out."""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from test_helper import assert_no_child_process

from mcbyol import cli, config, helper, pipeline
from mcbyol.errors import (CheckpointError, DataError, DivergenceError, HelperError,
                           NumericError)

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


@pytest.fixture(scope="module")
def ensemble_file(tmp_path_factory):
    """Seed 0's ensemble of the RUN config; the finetune section does not
    change it."""
    out = tmp_path_factory.mktemp("pretrain")
    pipeline.run_pretrain(config.parse(RUN.format(freeze="true", fractions="1.0")), 0, str(out))
    return out / "ensemble_seed0.ckpt"


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


@pytest.mark.parametrize("counts,shares", [
    ([13, 4, 2], ([0], [1, 2])),
    ([2, 13, 4], ([1], [0, 2])),
    ([4, 2, 13], ([2], [0, 1])),
    ([5], ([0], [])),
    ([], ([], [])),
    ([4, 4], ([0], [1])),  # equal loads: the first process takes the next
    ([3, 3, 3, 3], ([0, 2], [1, 3])),  # equal counts go in list order
    ([1, 2, 2, 1], ([0, 1], [2, 3])),
    ([6, 3, 3], ([0], [1, 2])),
])
def test_split_fractions_is_greedy_largest_first(counts, shares):
    assert pipeline.split_fractions(counts) == shares


@pytest.mark.parametrize("freeze", ["true", "false"])
@pytest.mark.parametrize("fractions,forks", [
    ("1.0", 0), ("0.25,1.0", 1), ("0.1,1.0,0.25", 1)])
def test_forked_and_in_process_finetune_write_the_same_bytes(tmp_path, monkeypatch,
                                                             ensemble_file, freeze,
                                                             fractions, forks):
    cfg = config.parse(RUN.format(freeze=freeze, fractions=fractions))
    written = {}
    for cpus in (2, 1):
        forked = counting_children(monkeypatch, cpus)
        out = finetune_dir(tmp_path, ensemble_file, f"cpus{cpus}")
        pipeline.run_finetune(cfg, 0, str(out))
        assert len(forked) == (forks if cpus == 2 else 0)
        assert_no_child_process()
        written[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(written[1]) == 1 + len(cfg.finetune.label_fractions) * (3 + 1)
    assert written[2] == written[1]


FAILING = RUN.format(freeze="true", fractions="1.0,0.25,0.1")


@pytest.mark.parametrize("error,code", [
    (CheckpointError("cannot write member"), cli.EXIT_IO),
    (PermissionError(13, "Permission denied", "member.ckpt"), cli.EXIT_IO),
    (DataError("bad rows"), cli.EXIT_DATA),
    (DivergenceError(7, quantity="loss", value=float("inf"), detail="d"), cli.EXIT_NUMERIC),
])
def test_an_error_in_the_child_exits_as_an_in_process_run_does(tmp_path, monkeypatch, capsys,
                                                                ensemble_file, error, code):
    # the child fits 0.25 and 0.1 (2 + 1 minibatches against 1.0's 6)
    parent, real, raised_in = os.getpid(), pipeline.save_member, []

    def fails_at_fraction_0_1(path, *args):
        if "_f0p1_" in os.path.basename(path):
            raised_in.append(os.getpid() == parent)
            raise error
        return real(path, *args)

    monkeypatch.setattr(pipeline, "save_member", fails_at_fraction_0_1)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAILING)
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


def test_an_unexpected_error_in_the_child_is_a_helper_error(tmp_path, monkeypatch,
                                                            ensemble_file):
    real = pipeline.save_member

    def fails_at_fraction_0_25(path, *args):
        if "_f0p25_" in os.path.basename(path):
            raise KeyError("snapshot")
        return real(path, *args)

    monkeypatch.setattr(pipeline, "save_member", fails_at_fraction_0_25)
    counting_children(monkeypatch, 2)
    out = finetune_dir(tmp_path, ensemble_file, "o")
    with pytest.raises(HelperError) as err:
        pipeline.run_finetune(config.parse(FAILING), 0, str(out))
    assert str(err.value) == ("the fine-tuning child of seed 0 (label fractions 0.25, 0.1) "
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
    # the child's fractions were fitted and written before the parent raised
    assert sorted(p.name for p in out.glob("finetune_log_*")) == [
        "finetune_log_seed0_f0p1.tsv", "finetune_log_seed0_f0p25.tsv"]
    assert not list(out.glob("member_seed0_f1_*"))


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
