"""The gradient helper process of pretraining: a run with it writes the
bytes of a run without it, it is reaped on every way out, and its failure
or death stops the run with an error that names the step."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcbyol import cli, config, helper, pipeline, sampler
from mcbyol.errors import DataError, DimensionError, DivergenceError, HelperError, NumericError
from mcbyol.model import init_twin

ROOT = Path(__file__).resolve().parents[1]

# 120 pretrain rows in batches of 32: every epoch ends with a 24-row batch
RUN = """
[data]
classes = 3
per_class_pretrain = 40
per_class_train = 30
per_class_test = 30
input_dim = 6
[model]
encoder_hidden = 8,8
embed_dim = 4
proj_hidden = 5
proj_dim = 3
pred_hidden = 5
activation = {activation}
[sampler]
kind = {kind}
lr0 = 0.0005
cycle_len = 10
total_steps = 30
batch = {batch}
[run]
seeds = 0
"""

VARIANTS = {
    "csghmc": dict(kind="csghmc", activation="tanh", batch=32),
    "sgld": dict(kind="sgld", activation="tanh", batch=32),
    "map_sgd": dict(kind="map_sgd", activation="tanh", batch=32),
    "relu": dict(kind="csghmc", activation="relu", batch=32),
    "batch_at_least_n": dict(kind="csghmc", activation="tanh", batch=500),
}


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_helpers(monkeypatch, cpus):
    """Sets the CPU probe to cpus; returns the list each started helper's pid joins."""
    started = []

    class Counted(helper.DirectionHelper):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self.pid)

    monkeypatch.setattr(helper, "available_cpus", lambda: cpus)
    monkeypatch.setattr(helper, "DirectionHelper", Counted)
    return started


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_helper_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch, variant):
    cfg = config.parse(RUN.format(**VARIANTS[variant]))
    assert cfg.sampler.batch >= 3 * 40 or 3 * 40 % cfg.sampler.batch == 24
    names = ("ensemble_seed0.ckpt", "pretrain_log_seed0.tsv")
    written = {}
    for cpus in (2, 1):
        started = counting_helpers(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        pipeline.run_pretrain(cfg, 0, str(out))
        assert len(started) == (cpus >= 2)
        assert_no_child_process()
        written[cpus] = {name: (out / name).read_bytes() for name in names}
    assert written[2] == written[1]


def test_posterior_grad_with_a_helper_gives_the_in_process_bits():
    # row counts change between calls, as at the end of an epoch
    model = init_twin(config.ModelSection(encoder_hidden=[5], embed_dim=3, proj_hidden=4,
                                          proj_dim=2, pred_hidden=4), 4, 0)
    cfg = config.SamplerSection()
    rng = np.random.default_rng(0)
    h = helper.DirectionHelper(model, 6)
    try:
        for rows in (6, 2, 6):
            a, b = rng.normal(size=(2, rows, 4))
            g_helper, l_helper = sampler.posterior_grad(model, a, b, cfg, 50, h)
            g_here, l_here = sampler.posterior_grad(model, a, b, cfg, 50)
            assert g_helper.tobytes() == g_here.tobytes()
            assert l_helper == l_here
            model.set_online_flat(model.online_flat() - 0.1 * g_here)
        with pytest.raises(DimensionError):  # more rows than the helper holds
            sampler.posterior_grad(model, *rng.normal(size=(2, 7, 4)), cfg, 50, h)
        assert h.pid is not None  # nothing was sent, so the helper serves on
        a, b = rng.normal(size=(2, 3, 4))
        assert (sampler.posterior_grad(model, a, b, cfg, 50, h)[0].tobytes()
                == sampler.posterior_grad(model, a, b, cfg, 50)[0].tobytes())
    finally:
        h.close()
    assert_no_child_process()


def test_a_failing_parent_direction_reaps_the_helper():
    model = init_twin(config.ModelSection(encoder_hidden=[5], embed_dim=3, proj_hidden=4,
                                          proj_dim=2, pred_hidden=4), 4, 0)
    h = helper.DirectionHelper(model, 3)
    a = np.zeros((3, 4))
    a[1, 2] = np.nan
    with pytest.raises(NumericError):
        sampler.posterior_grad(model, a, np.zeros((3, 4)), config.SamplerSection(), 10, h)
    assert h.pid is None
    assert_no_child_process()
    with pytest.raises(HelperError, match="closed"):
        h.send(model, np.zeros((3, 4)), np.zeros((3, 4)))


def test_a_failing_helper_stops_the_run_naming_the_step(tmp_path, monkeypatch, capsys):
    parent, real, calls = os.getpid(), helper.direction_grad, []

    def fails_in_the_helper_at_step_3(model, a, b):
        if os.getpid() != parent:  # each helper counts its own calls from its fork on
            calls.append(1)
            if len(calls) == 4:
                raise NumericError("boom")
        return real(model, a, b)

    counting_helpers(monkeypatch, 2)
    monkeypatch.setattr(helper, "direction_grad", fails_in_the_helper_at_step_3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN.format(**VARIANTS["csghmc"]))
    with pytest.raises(HelperError) as err:
        pipeline.run_pretrain(config.load(str(cfg_path)), 0, str(tmp_path / "o"))
    assert err.value.step == 3
    assert str(err.value) == ("the gradient helper process failed: NumericError: boom "
                              "at step 3")
    assert_no_child_process()
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_HELPER == 5
    assert "helper error: the gradient helper process failed" in capsys.readouterr().err
    assert_no_child_process()
    assert not (tmp_path / "o" / "ensemble_seed0.ckpt").exists()


KILLED_RUN = """
import json, os, signal, sys
from mcbyol import cli, helper, pipeline

helper.available_cpus = lambda: 2
real, calls = pipeline.posterior_grad, []

def kill_the_helper_at_step_5(*args):
    calls.append(1)
    if len(calls) == 6:
        os.kill(args[5].pid, signal.SIGKILL)
    return real(*args)

pipeline.posterior_grad = kill_the_helper_at_step_5
rc = cli.main(["pretrain", "--config", sys.argv[1], "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"rc": rc, "left": left}))
"""


def test_a_killed_helper_stops_the_run_with_exit_code_5(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN.format(**VARIANTS["csghmc"]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", KILLED_RUN, str(cfg_path), str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 5, "left": False}
    assert proc.stderr.strip() == ("helper error: the gradient helper process was killed "
                                   f"by signal {int(signal.SIGKILL)} at step 5")
    assert not (tmp_path / "o" / "ensemble_seed0.ckpt").exists()


# ---- the fork-and-reap helper -----------------------------------------------


def test_a_child_that_returns_is_joined_once():
    child = helper.Child("a child", lambda: None)
    assert child.pid is not None
    assert child.join() is None
    assert child.pid is None and child.join() is None
    assert_no_child_process()


def test_a_child_hands_its_error_to_the_parent_with_its_fields():
    def diverges():
        raise DivergenceError(4, quantity="loss", value=float("inf"), detail="in the child")

    error = helper.Child("a child", diverges).join()
    assert type(error) is DivergenceError
    assert (error.step, error.quantity, error.value) == (4, "loss", float("inf"))
    assert str(error) == "chain diverged at step 4: loss = inf (in the child)"
    assert_no_child_process()


def test_a_child_error_that_does_not_pickle_keeps_its_type_and_message():
    class Local(Exception):  # pickle cannot find a class defined in a function
        pass

    def fails():
        raise Local("boom")

    error = helper.Child("a child", fails).join()
    assert type(error) is HelperError
    assert str(error) == "a child failed: Local: boom"
    assert_no_child_process()


def test_a_child_that_exits_without_a_report_says_how():
    assert str(helper.Child("a child", lambda: os._exit(3)).join()) == "a child exited with code 3"
    killed = helper.Child("a child", lambda: os.kill(os.getpid(), signal.SIGKILL)).join()
    assert str(killed) == f"a child was killed by signal {int(signal.SIGKILL)}"
    assert_no_child_process()


# ---- prefetching the next step's views ---------------------------------------


def pretrain_both_ways(tmp_path, monkeypatch, cfg):
    """Pretrains cfg with the helper forced on and off; returns the bytes
    each way wrote, after checking that both drew each step's minibatch and
    views once and each epoch's minibatch orders once."""
    names = ("ensemble_seed0.ckpt", "pretrain_log_seed0.tsv")
    s = cfg.sampler
    steps_per_epoch = -(-3 * 40 // s.batch)
    epochs = -(-s.total_steps // steps_per_epoch)
    written = {}
    for cpus in (2, 1):
        started = counting_helpers(monkeypatch, cpus)
        calls = {"augment_pair": 0, "minibatches": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(pipeline, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(pipeline, name, counted)
        out = tmp_path / f"cpus{cpus}"
        pipeline.run_pretrain(cfg, 0, str(out))
        monkeypatch.undo()
        assert len(started) == (cpus >= 2)
        assert calls == {"augment_pair": s.total_steps, "minibatches": epochs}
        assert_no_child_process()
        written[cpus] = {name: (out / name).read_bytes() for name in names}
    assert written[2] == written[1]
    return written[1]


@pytest.mark.parametrize("total_steps,batch", [
    (8, 32),    # 2 whole epochs of 4 steps: the last step has no next epoch
    (1, 32),
    (3, 500),   # one batch of all 120 rows per epoch
    (4, 120),
])
def test_prefetching_runs_write_the_same_bytes_either_way(tmp_path, monkeypatch,
                                                          total_steps, batch):
    text = (RUN.format(**VARIANTS["csghmc"])
            .replace("total_steps = 30", f"total_steps = {total_steps}")
            .replace("batch = 32", f"batch = {batch}").replace("cycle_len = 10", "cycle_len = 1"))
    log = pretrain_both_ways(tmp_path, monkeypatch, config.parse(text))["pretrain_log_seed0.tsv"]
    assert len(log.decode().splitlines()) == 1 + total_steps


@pytest.mark.parametrize("cpus", [2, 1])
def test_a_divergence_names_its_own_step_with_prefetching(tmp_path, monkeypatch, cpus):
    real, calls = pipeline.posterior_grad, []

    def nan_loss_at_step_5(*args):
        calls.append(1)
        grad, loss = real(*args)
        return grad, float("nan") if len(calls) == 6 else loss

    counting_helpers(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "posterior_grad", nan_loss_at_step_5)
    with pytest.raises(DivergenceError) as err:
        pipeline.run_pretrain(config.parse(RUN.format(**VARIANTS["csghmc"])), 0,
                              str(tmp_path / "o"))
    assert err.value.step == 5 and err.value.quantity == "loss"
    assert_no_child_process()


@pytest.mark.parametrize("cpus", [2, 1])
def test_an_error_while_prefetching_closes_the_helper(tmp_path, monkeypatch, cpus):
    real, calls = pipeline.augment_pair, []

    def fails_on_the_views_of_step_3(*args):  # drawn while step 2 runs
        calls.append(1)
        if len(calls) == 4:
            raise DataError("no views")
        return real(*args)

    started = counting_helpers(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "augment_pair", fails_on_the_views_of_step_3)
    with pytest.raises(DataError, match="no views"):
        pipeline.run_pretrain(config.parse(RUN.format(**VARIANTS["csghmc"])), 0,
                              str(tmp_path / "o"))
    assert len(calls) == 4 and len(started) == (cpus >= 2)
    assert_no_child_process()
    assert not (tmp_path / "o" / "ensemble_seed0.ckpt").exists()


def test_posterior_grad_closes_the_helper_when_meanwhile_raises():
    model = init_twin(config.ModelSection(encoder_hidden=[5], embed_dim=3, proj_hidden=4,
                                          proj_dim=2, pred_hidden=4), 4, 0)
    h = helper.DirectionHelper(model, 3)

    def meanwhile():
        raise DataError("prefetch")

    with pytest.raises(DataError, match="prefetch"):
        sampler.posterior_grad(model, np.zeros((3, 4)), np.zeros((3, 4)),
                               config.SamplerSection(), 10, h, meanwhile)
    assert h.pid is None
    assert_no_child_process()
