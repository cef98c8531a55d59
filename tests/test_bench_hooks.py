"""The traced benchmark run patches program functions by name
(bench/tracing.py); this checks that every name it patches still exists, that
a traced sample-diag run counts every sampler step, that a traced pipeline run
counts every stacked minibatch position of finetune and one encoder forward
per snapshot and input in eval and ood, and that traced runs write the same
bytes as untraced ones."""

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
from mcbyol import config, pipeline
import tracing

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


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The tiny pipeline run untraced in-process and traced in a child, with
    the child's trace counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    cfg = config.parse(TINY_PIPELINE)
    plain, traced = tmp_path_factory.mktemp("plain"), tmp_path_factory.mktemp("traced")
    for seed in cfg.run.seeds:
        pipeline.run_pretrain(cfg, seed, str(plain))
        pipeline.run_finetune(cfg, seed, str(plain))
    pipeline.run_eval(cfg, str(plain))
    pipeline.run_ood(cfg, str(plain))
    proc = subprocess.run([sys.executable, "-c", TRACED_PIPELINE, TINY_PIPELINE, str(traced)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr  # an AttributeError here: a patched name is gone
    return cfg, plain, traced, json.loads(proc.stdout.splitlines()[-1])


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
