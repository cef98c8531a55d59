"""The split of eval's and ood's sweep between this process and one forked
child per seed (pipeline._sweep): the child forwards the later half of the
seed's snapshots, the split writes the bytes of a run in one process, each
error of the child reaches the CLI with the exit code a run in one process
gives, and the child is reaped on every way out."""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import SWEEP_RUN, per_member_sweep
from test_finetune_split import counting_children
from test_helper import assert_no_child_process

from mcbyol import cli, config, model, pipeline
from mcbyol.errors import CheckpointError, HelperError
from mcbyol.params import ParamVector
from mcbyol.posterior import (PosteriorEnsemble, load_ensemble, load_member, save_ensemble,
                              save_member, write_container)

ROOT = Path(__file__).resolve().parents[1]

# one seed, 3 snapshots: this process forwards snapshots 0 and 1, the child 2
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
epochs = 2
freeze_encoder = {freeze}
label_fractions = 1.0,0.25
[run]
seeds = 0
"""
STAGES = ("eval", "ood")
TABLES = {"eval": "eval_results.tsv", "ood": "ood_results.tsv"}


@pytest.fixture(scope="module", params=["true", "false"])
def finetuned(request, tmp_path_factory):
    """The RUN config's pretrained and fine-tuned output directory."""
    cfg = config.parse(RUN.format(freeze=request.param))
    out = tmp_path_factory.mktemp(f"freeze_{request.param}")
    pipeline.run_pretrain(cfg, 0, str(out))
    pipeline.run_finetune(cfg, 0, str(out))
    return cfg, out


def copy_run(tmp_path, finetuned, name):
    cfg, source = finetuned
    out = tmp_path / name
    shutil.copytree(source, out)
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(config.serialize(cfg))
    return cfg_path, out


def run_stage(stage, cfg_path, out):
    return cli.main([stage, "--config", str(cfg_path), "--out", str(out)])


@pytest.mark.parametrize("freeze", ["true", "false"])
@pytest.mark.parametrize("snapshots,forks", [(1, 0), (2, 1), (3, 1)])
def test_a_split_sweep_writes_the_bytes_of_one_process(tmp_path, monkeypatch, freeze,
                                                       snapshots, forks):
    """Eval and ood at 2 CPUs, where each seed's child takes the later
    snapshots (none of 1, one of 2, one of 3), write the bytes of a run at
    1 CPU and of the per-member sweep."""
    cfg = config.parse(SWEEP_RUN.format(activation="tanh", freeze=freeze)
                       .replace("total_steps = 20", f"total_steps = {10 * snapshots}"))
    out = str(tmp_path)
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, out)
        pipeline.run_finetune(cfg, seed, out)
    assert len(list(tmp_path.glob("member_seed0_f1_snap*.ckpt"))) == snapshots
    written = []
    for cpus in (1, 2, None):
        if cpus is None:
            monkeypatch.setattr(pipeline, "_sweep", per_member_sweep)
        forked = counting_children(monkeypatch, cpus or 1)
        pipeline.run_eval(cfg, out)
        pipeline.run_ood(cfg, out)
        assert len(forked) == (2 * len(cfg.run.seeds) * forks if cpus == 2 else 0)
        assert_no_child_process()
        written.append({name: Path(out, name).read_bytes() for name in TABLES.values()})
    assert written[0] == written[1] == written[2]


def test_every_forward_of_a_sweep_reuses_its_layer_buffers(tmp_path, monkeypatch, finetuned):
    """Within one process's sweep, every encoder forward returns its layers
    in the same arrays, in this process and in the child alike."""
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    cfg = config.load(str(cfg_path))
    log = tmp_path / "layers"
    real = model.mlp_layers

    def recorded(*args):
        outs = real(*args)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {[o.ctypes.data for o in outs]}\n")
        return outs

    monkeypatch.setattr(model, "mlp_layers", recorded)
    forwards_per_snapshot = {"eval": 1 if cfg.finetune.freeze_encoder else 2, "ood": 2}
    for cpus in (1, 2):
        counting_children(monkeypatch, cpus)
        for stage in STAGES:
            log.write_text("")
            getattr(pipeline, f"run_{stage}")(cfg, str(out))
            assert_no_child_process()
            by_pid: dict[str, set[str]] = {}
            lines = log.read_text().splitlines()
            for line in lines:
                pid, arrays = line.split(" ", 1)
                by_pid.setdefault(pid, set()).add(arrays)
            assert len(lines) == 3 * forwards_per_snapshot[stage]
            assert len(by_pid) == cpus
            assert all(len(arrays) == 1 for arrays in by_pid.values())


@pytest.mark.parametrize("stage", STAGES)
def test_members_written_without_a_snapshot_crc_are_an_io_error(tmp_path, monkeypatch, capsys,
                                                                finetuned, stage):
    """Member files in the format written before every member recorded its
    snapshot's CRC, each with a copy of its encoder, are refused: eval and
    ood exit with code 4, naming the file and the missing 'crc', at 1 and
    2 CPUs alike."""
    errs = {}
    for cpus in (1, 2):
        cfg_path, out = copy_run(tmp_path, finetuned, f"cpus{cpus}")
        ensemble = load_ensemble(pipeline.ensemble_path(str(out), 0))
        for path in out.glob("member_*.ckpt"):
            encoder, head, meta = load_member(str(path), ensemble, 3)
            write_container(path, "member", meta, [("encoder", {}, encoder), ("head", {}, head)])
        counting_children(monkeypatch, cpus)
        assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
        assert_no_child_process()
        errs[cpus] = capsys.readouterr().err
        first = pipeline.member_path(str(out), 0, 1.0, 0)
        assert errs[cpus] == f"i/o error: {first}: the member file has no 'crc'\n"
        assert not (out / TABLES[stage]).exists()
    assert errs[1].replace("cpus1", "cpus2") == errs[2]


@pytest.mark.parametrize("stage", STAGES)
def test_a_member_missing_from_the_childs_half_is_an_io_error(tmp_path, monkeypatch, capsys,
                                                              finetuned, stage):
    errs = {}
    for cpus in (1, 2):
        cfg_path, out = copy_run(tmp_path, finetuned, f"cpus{cpus}")
        missing = pipeline.member_path(str(out), 0, 1.0, 2)
        os.remove(missing)
        forked = counting_children(monkeypatch, cpus)
        assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
        assert len(forked) == cpus - 1
        assert_no_child_process()
        errs[cpus] = capsys.readouterr().err
        assert errs[cpus] == f"i/o error: missing member checkpoint: {missing}\n"
        assert not (out / TABLES[stage]).exists()
    assert errs[1].replace("cpus1", "cpus2") == errs[2]


@pytest.mark.parametrize("part", ["head", "encoder"])
@pytest.mark.parametrize("snapshot", [0, 1, 2])  # the first member, this process's half, the child's
def test_a_member_laid_out_unlike_the_first_is_an_io_error(tmp_path, monkeypatch, finetuned,
                                                           snapshot, part):
    """A head with another class count than data.classes, or a stored
    encoder with another hidden width than its snapshot's, which the layer
    buffers would not fit, is refused by load_member, whichever member it
    is."""
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    cfg = config.load(str(cfg_path))
    path = pipeline.member_path(str(out), 0, 1.0, snapshot)
    ensemble_file = pipeline.ensemble_path(str(out), 0)
    ensemble = load_ensemble(ensemble_file)
    encoder, head, meta = load_member(path, ensemble, 3)
    if part == "head":
        head = ParamVector({"weight": head["weight"].values[:, :2],
                            "bias": head["bias"].values[:2]})
        message = (f"{path}: its head holds {head.shapes()}, not weight (4, 3) and bias (3,) "
                   f"for 3 classes over its encoder's 4 outputs")
    else:
        encoder = model.init_mlp([6, 5, 4], np.random.default_rng(0))
        assert encoder.shapes() != ensemble.snapshots[snapshot].encoder_params.shapes()
        meta = {**meta, "freeze_encoder": False}  # a trained encoder is stored whole
        message = f"{path}: its encoder is laid out unlike snapshot {snapshot} of {ensemble_file}"
    save_member(path, encoder, head, meta, ensemble.snapshots[snapshot].encoder_params)
    for cpus in (1, 2):
        counting_children(monkeypatch, cpus)
        for stage in STAGES:
            with pytest.raises(CheckpointError) as err:
                getattr(pipeline, f"run_{stage}")(cfg, str(out))
            assert str(err.value) == message
            assert_no_child_process()


@pytest.mark.parametrize("defect", ["no_bias", "extra_row"])
@pytest.mark.parametrize("snapshot", [0, 1, 2])  # the first member, this process's half, the child's
def test_a_malformed_member_head_is_an_io_error(tmp_path, monkeypatch, capsys, finetuned,
                                                snapshot, defect):
    """A CRC-valid member whose head lacks its bias, or whose weight has a
    row more than its encoder's outputs, stops eval and ood with exit code
    4 naming the file, at 1 and 2 CPUs alike."""
    for cpus in (1, 2):
        cfg_path, out = copy_run(tmp_path, finetuned, f"cpus{cpus}")
        path = pipeline.member_path(str(out), 0, 1.0, snapshot)
        ensemble = load_ensemble(pipeline.ensemble_path(str(out), 0))
        encoder, head, meta = load_member(path, ensemble, 3)
        weight, bias = head["weight"].values, head["bias"].values
        head = ParamVector({"weight": weight} if defect == "no_bias" else
                           {"weight": np.vstack([weight, weight[:1]]), "bias": bias})
        save_member(path, encoder, head, meta, ensemble.snapshots[snapshot].encoder_params)
        forked = counting_children(monkeypatch, cpus)
        for stage in STAGES:
            assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
            assert_no_child_process()
            assert capsys.readouterr().err == (
                f"i/o error: {path}: its head holds {head.shapes()}, not weight (4, 3) "
                f"and bias (3,) for 3 classes over its encoder's 4 outputs\n")
            assert not (out / TABLES[stage]).exists()
        assert len(forked) == (2 if cpus == 2 else 0)  # no member is loaded before the fork


@pytest.mark.parametrize("classes", [2, 5])
@pytest.mark.parametrize("stage", STAGES)
def test_members_fitted_for_another_class_count_are_an_io_error(tmp_path, monkeypatch, capsys,
                                                                finetuned, stage, classes):
    """Eval and ood under a config whose data.classes differs from the 3
    classes of the members' heads exit with code 4 naming the first
    member's file, at 1 and 2 CPUs alike, and write no table."""
    for cpus in (1, 2):
        cfg_path, out = copy_run(tmp_path, finetuned, f"cpus{cpus}")
        cfg = config.load(str(cfg_path))
        cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, classes=classes))
        cfg_path.write_text(config.serialize(cfg))
        forked = counting_children(monkeypatch, cpus)
        assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
        assert len(forked) == cpus - 1
        assert_no_child_process()
        first = pipeline.member_path(str(out), 0, 1.0, 0)
        assert capsys.readouterr().err == (
            f"i/o error: {first}: its head holds {{'weight': (4, 3), 'bias': (3,)}}, not weight "
            f"(4, {classes}) and bias ({classes},) for {classes} classes over its encoder's "
            f"4 outputs\n")
        assert not (out / TABLES[stage]).exists()


@pytest.mark.parametrize("stage", STAGES)
def test_an_unexpected_error_in_the_child_is_a_helper_error(tmp_path, monkeypatch, capsys,
                                                            finetuned, stage):
    real = pipeline.load_member

    def fails_at_snapshot_2(path, ensemble, classes):
        if path.endswith("_snap2.ckpt"):
            raise KeyError("snapshot")
        return real(path, ensemble, classes)

    monkeypatch.setattr(pipeline, "load_member", fails_at_snapshot_2)
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    forked = counting_children(monkeypatch, 2)
    with pytest.raises(HelperError) as err:
        getattr(pipeline, f"run_{stage}")(config.load(str(cfg_path)), str(out))
    assert str(err.value) == ("the sweep child of seed 0 (snapshots 2) failed: "
                              "KeyError: 'snapshot'")
    assert forked == ["the sweep child of seed 0 (snapshots 2)"]
    assert_no_child_process()
    assert run_stage(stage, cfg_path, out) == cli.EXIT_HELPER
    assert_no_child_process()
    assert capsys.readouterr().err == f"helper error: {err.value}\n"


@pytest.mark.parametrize("stage", STAGES)
def test_the_parents_own_error_wins_and_the_child_is_reaped(tmp_path, monkeypatch, finetuned,
                                                            stage):
    """Snapshot 1 (this process's) and snapshot 2 (the child's) both fail:
    the error is snapshot 1's, the one a run in one process raises first."""
    real = pipeline.load_member

    def fails_at_snapshots_1_and_2(path, ensemble, classes):
        if path.endswith(("_snap1.ckpt", "_snap2.ckpt")):
            raise CheckpointError(f"cannot read {os.path.basename(path)}")
        return real(path, ensemble, classes)

    monkeypatch.setattr(pipeline, "load_member", fails_at_snapshots_1_and_2)
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    cfg = config.load(str(cfg_path))
    for cpus in (1, 2):
        forked = counting_children(monkeypatch, cpus)
        with pytest.raises(CheckpointError, match="cannot read member_seed0_f1_snap1.ckpt"):
            getattr(pipeline, f"run_{stage}")(cfg, str(out))
        assert len(forked) == cpus - 1
        assert_no_child_process()


@pytest.mark.parametrize("stage", STAGES)
def test_an_ensemble_without_snapshots_is_refused_before_any_fork(tmp_path, monkeypatch,
                                                                  capsys, finetuned, stage):
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    path = pipeline.ensemble_path(str(out), 0)
    save_ensemble(PosteriorEnsemble(), path)
    forked = counting_children(monkeypatch, 2)
    assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
    assert forked == []
    assert capsys.readouterr().err == f"i/o error: {path}: the ensemble has no snapshots\n"
    assert not (out / TABLES[stage]).exists()


def test_a_snapshot_that_is_not_an_mlp_encoder_is_refused_before_any_fork(tmp_path, monkeypatch,
                                                                          capsys, finetuned):
    """Snapshots with no segments, under frozen members whose CRCs match
    them: load_ensemble refuses the file, so eval and ood exit with code 4
    naming it, at 1 and 2 CPUs alike, and fork no child."""
    empty = ParamVector({})
    for cpus in (1, 2):
        cfg_path, out = copy_run(tmp_path, finetuned, f"cpus{cpus}")
        path = pipeline.ensemble_path(str(out), 0)
        ensemble = load_ensemble(path)
        for s in range(ensemble.size):
            for frac in (1.0, 0.25):
                member = pipeline.member_path(str(out), 0, frac, s)
                _, head, meta = load_member(member, ensemble, 3)
                save_member(member, empty, head, {**meta, "freeze_encoder": True}, empty)
        for snap in ensemble.snapshots:
            snap.encoder_params = empty
        save_ensemble(ensemble, path)
        forked = counting_children(monkeypatch, cpus)
        for stage in STAGES:
            assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
            assert_no_child_process()
            assert capsys.readouterr().err == (
                f"i/o error: {path}: snapshot 0 holds {{}}, not an MLP encoder's "
                f"layer<i>.w and layer<i>.b\n")
            assert not (out / TABLES[stage]).exists()
        assert forked == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_snapshots_of_another_input_width_are_refused_before_any_fork(tmp_path, monkeypatch,
                                                                      capsys, finetuned, cpus):
    """Every snapshot replaced by an MLP over rows of width 7, not the
    data's 6, with each member re-saved over it so that its CRC matches:
    finetune, eval and ood exit with code 4 naming the ensemble file and
    both widths, fork no child and write nothing."""
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    path = pipeline.ensemble_path(str(out), 0)
    ensemble, fitted_on = load_ensemble(path), load_ensemble(path)
    for s, snap in enumerate(ensemble.snapshots):
        snap.encoder_params = model.init_mlp([7, 8, 4], np.random.default_rng(s))
        for frac in (1.0, 0.25):
            member = pipeline.member_path(str(out), 0, frac, s)
            _, head, meta = load_member(member, fitted_on, 3)
            save_member(member, snap.encoder_params, head, meta, snap.encoder_params)
    save_ensemble(ensemble, path)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    forked = counting_children(monkeypatch, cpus)
    for stage in ("finetune", *STAGES):
        assert run_stage(stage, cfg_path, out) == cli.EXIT_IO
        assert_no_child_process()
        assert capsys.readouterr().err == (f"i/o error: {path}: its encoders take rows of "
                                           "width 7, the data's rows have width 6\n")
    assert forked == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


KILLED_CHILD = """
import json, os, signal, sys
from mcbyol import cli, helper, pipeline

helper.available_cpus = lambda: 2
parent, real = os.getpid(), pipeline.bma_predict

def killed_in_the_child(*args, **kwargs):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)

pipeline.bma_predict = killed_in_the_child
rc = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"rc": rc, "left": left}))
"""


@pytest.mark.parametrize("stage", STAGES)
def test_a_killed_child_stops_the_stage_with_exit_code_5(tmp_path, finetuned, stage):
    cfg_path, out = copy_run(tmp_path, finetuned, "o")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", KILLED_CHILD, stage, str(cfg_path), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": cli.EXIT_HELPER, "left": False}
    assert proc.stderr.strip() == ("helper error: the sweep child of seed 0 (snapshots 2) "
                                   f"was killed by signal {int(signal.SIGKILL)}")
    assert not (out / TABLES[stage]).exists()
