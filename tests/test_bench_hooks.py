"""The traced benchmark run patches program functions by name
(bench/tracing.py); this checks that every name it patches still exists and
that a traced sample-diag run counts every sampler step and writes the same
bytes as an untraced one."""

import json
import os
import subprocess
import sys
from pathlib import Path

from mcbyol import config, pipeline

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
