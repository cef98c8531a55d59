"""The traced benchmark run patches program functions by name
(bench/tracing.py); this checks that every name it patches still exists, that
a traced sample-diag run counts every sampler step, that a traced pipeline run
counts every stacked minibatch position of finetune and one encoder forward
per snapshot and input in eval and ood, and that traced runs write the same
bytes as untraced ones, and that the benchmark's own output checks pass on
the tiny pipeline's outputs.  The tracer sees only its own process's calls, so
the traced runs fix the CPU count that the forks of run_finetune and of
eval's and ood's sweep read."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcbyol import config, pipeline
from mcbyol.finetune import subset_labels

ROOT = Path(__file__).resolve().parents[1]
STEPS = 5_000

TRACED_RUN = """
import json, sys
from mcbyol import config, pipeline
import tracing

tracer = tracing.Tracer("hooks")
tracing.install(tracer)
cfg = config.load(sys.argv[1])
pipeline.run_sample_diag(cfg, sys.argv[2], steps=int(sys.argv[3]))
summary = tracer.summary([1.0])
print(json.dumps({"step_calls": summary["layers"]["sampler.step"]["calls"],
                  "noise_steps": summary["counts"]["sampler.noise_steps"]}))
"""


def diag_config(tmp_path, kind):
    text = (ROOT / "configs" / "default.cfg").read_text()
    text = text.replace("kind = csghmc", f"kind = {kind}").replace("lr0 = 0.0001", "lr0 = 0.01")
    path = tmp_path / f"{kind}.cfg"
    path.write_text(text)
    cfg = config.load(str(path))
    assert (cfg.sampler.kind, cfg.sampler.lr0) == (kind, 0.01)
    return path, cfg


def test_traced_sample_diag_counts_every_step_and_keeps_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    # the 1-D chain hands both step functions Python floats; each step must still be counted
    for kind in ("sgld", "sghmc"):
        path, cfg = diag_config(tmp_path, kind)
        plain, traced = tmp_path / f"{kind}_plain", tmp_path / f"{kind}_traced"
        pipeline.run_sample_diag(cfg, str(plain), steps=STEPS)
        proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(path), str(traced), str(STEPS)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr  # an AttributeError here: a patched name is gone
        counts = json.loads(proc.stdout.splitlines()[-1])
        assert counts == {"step_calls": STEPS, "noise_steps": STEPS}, kind
        name = "chain_stats.tsv"
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), kind


TRACED_PIPELINE = """
import json, sys
from mcbyol import config, helper, pipeline
import tracing

helper.available_cpus = lambda: int(sys.argv[3])

tracer = tracing.Tracer("hooks")
tracing.install(tracer)
cfg = config.parse(sys.argv[1])
for seed in cfg.run.seeds:
    pipeline.run_pretrain(cfg, seed, sys.argv[2])
    pipeline.run_finetune(cfg, seed, sys.argv[2])
pipeline.run_eval(cfg, sys.argv[2])
pipeline.run_ood(cfg, sys.argv[2])
print(json.dumps(tracer.summary([1.0] * (2 * len(cfg.run.seeds) + 2))["counts"]))
"""

TINY_PIPELINE = """
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
label_fractions = 1.0,0.3

[run]
seeds = 0,4219
"""


def traced_tiny_run(tmp_path_factory, cpus):
    """The tiny pipeline traced in a subprocess whose CPU probe reads cpus;
    returns its output directory and trace counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    traced = tmp_path_factory.mktemp(f"traced_cpus{cpus}")
    proc = subprocess.run([sys.executable, "-c", TRACED_PIPELINE, TINY_PIPELINE, str(traced),
                           str(cpus)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr  # an AttributeError here: a patched name is gone
    return traced, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The tiny pipeline run untraced in-process and traced in a subprocess
    that forks nothing, with the subprocess's trace counts."""
    cfg = config.parse(TINY_PIPELINE)
    plain = tmp_path_factory.mktemp("plain")
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, str(plain))
        pipeline.run_finetune(cfg, seed, str(plain))
    pipeline.run_eval(cfg, str(plain))
    pipeline.run_ood(cfg, str(plain))
    return (cfg, plain, *traced_tiny_run(tmp_path_factory, 1))


def test_traced_finetune_counts_stacked_positions_and_keeps_bytes(tiny_runs):
    # tracing counts len() of what finetune.minibatches returns: one entry per
    # minibatch position, each stacking every snapshot's batch
    cfg, plain, traced, counts = tiny_runs
    _, train, _, _ = pipeline.make_datasets(cfg)
    f = cfg.finetune
    positions = sum(f.epochs * -(-subset_labels(train, frac, cfg.data.seed + seed).n // f.batch)
                    for seed in cfg.run.seeds for frac in f.label_fractions)
    assert counts["finetune.minibatches"] == positions
    members = sorted(p.name for p in plain.glob("member_*.ckpt"))
    # 3 snapshots per seed, so the count above is a third of the per-member one
    assert len(members) == 3 * len(cfg.run.seeds) * len(f.label_fractions)
    assert sorted(p.name for p in traced.glob("member_*.ckpt")) == members
    for name in members:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_traced_eval_and_ood_forward_each_snapshot_once_per_input_and_keep_bytes(tiny_runs):
    # under linear evaluation every label fraction's member of a snapshot has
    # that snapshot's encoder: eval runs it once on the test set, and ood
    # once on the test and once on the OOD set
    cfg, plain, traced, counts = tiny_runs
    assert cfg.finetune.freeze_encoder
    snapshots = 3 * len(cfg.run.seeds)
    forwards = snapshots + 2 * snapshots
    assert counts["posterior.encoder_forwards"] == forwards
    assert counts["posterior.distinct_pairs"] == forwards
    for name in ("eval_results.tsv", "ood_results.tsv"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_traced_forked_finetune_counts_the_parents_share_and_keeps_bytes(tiny_runs,
                                                                        tmp_path_factory):
    # with 2 CPUs each seed's finetune forks a child for some fractions; the
    # tracer counts only the parent's positions: fraction 1.0 (90 rows, 6
    # batches of 16) stays here, 0.3 (27 rows, 2 batches) goes to the child
    cfg, plain, _, _ = tiny_runs
    traced, counts = traced_tiny_run(tmp_path_factory, 2)
    _, train, _, _ = pipeline.make_datasets(cfg)
    f = cfg.finetune
    for seed in cfg.run.seeds:
        assert [-(-subset_labels(train, frac, cfg.data.seed + seed).n // f.batch)
                for frac in f.label_fractions] == [6, 2]
    assert counts["finetune.minibatches"] == f.epochs * 6 * len(cfg.run.seeds) == 36
    # eval's and ood's sweeps fork too, and this process forwards snapshots 0
    # and 1 of each seed's 3, once in eval and twice (test, OOD) in ood
    assert counts["posterior.encoder_forwards"] == (2 + 2 * 2) * len(cfg.run.seeds)
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def bench_child():
    """bench/child.py as a module, for its output checks."""
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("freeze", ["true", "false"])
def test_the_benchmarks_output_checks_pass_on_the_tiny_pipeline(tiny_runs, tmp_path_factory,
                                                                 freeze):
    # the checks the benchmark runs on every stage call's outputs: a change
    # of a checkpoint's kind or block count, or of a table's rows, fails here
    cfg, out = tiny_runs[0], tiny_runs[1]
    if freeze == "false":
        cfg = config.parse(TINY_PIPELINE.replace("[finetune]", "[finetune]\nfreeze_encoder = false"))
        out = tmp_path_factory.mktemp("joint")
        for seed in cfg.run.seeds:
            pipeline.run_pretrain(cfg, seed, str(out))
            pipeline.run_finetune(cfg, seed, str(out))
        pipeline.run_eval(cfg, str(out))
        pipeline.run_ood(cfg, str(out))
    assert cfg.finetune.freeze_encoder == (freeze == "true")
    child = bench_child()
    checks = child.Checks()
    calls = [(stage, seed) for stage in ("pretrain", "finetune") for seed in cfg.run.seeds]
    for stage, seed in calls + [("eval", None), ("ood", None)]:
        child.pipeline_check(stage, seed, cfg, out, checks)
    assert checks.problems == []
    assert child.pipeline_quality(out, cfg)["bma_accuracy"] > 0
