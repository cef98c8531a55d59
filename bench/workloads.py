"""Workload definitions: each turns a benchmark seed into config files.

The program only ever sees the generated configs.  A workload seed `n`
maps onto `run.seeds = 3n, 3n+1, 3n+2` and `data.seed = 1234 + n`, so
seed 0 reproduces `configs/default.cfg` as shipped.  The sampler chain
workload uses `run.seeds = n` as the chain seed.
"""

from __future__ import annotations

from pathlib import Path

SEEDS_PER_RUN = 3

# acceptance criterion 03's chain set: (kind, beta, temperature, tolerance on
# |variance - T| / T); every chain runs 200k steps at lr0 = 0.01
CHAINS = tuple((kind, beta, temp, tol)
               for kind, beta, tol in (("sgld", 0.0, 0.10), ("sghmc", 0.0, 0.10),
                                       ("sghmc", 0.9, 0.15))
               for temp in (1.0, 0.1))
CHAIN_STEPS = 200_000
CHAIN_LR0 = 0.01
CRIT03_MEAN_TOL = 0.05
# The benchmark's own pass/fail bound on a chain.  At 200k steps the SGLD
# chain's T=1 mean and relative variance each have a standard error of about
# 0.046, so criterion 03's tolerances (met at its fixed seed 42) are missed
# on 4 of the chain seeds 0..11.  0.25 is about five standard errors: a
# sampler that draws from the wrong temperature still fails it.
CHAIN_REL_VAR_BOUND = 0.25
CHAIN_MEAN_BOUND = 0.25  # in units of sqrt(T)

WORKLOADS = {
    "paper_default": "configs/default.cfg as shipped: 3 seeds x 200 steps, 4 snapshots "
                     "per seed, 36 head fits; autodiff and model dominate",
    "wide_ensemble": "default with cycle_len = 10: 20 snapshots per seed, 180 head fits; "
                     "posterior BMA, finetune and checkpoint I/O dominate",
    "sampler_chain": "sample-diag over criterion 03's six chains; per-call sampler "
                     "and diagnostics overhead on 1-D parameters dominates",
}


def calls_per_run(workload: str) -> int:
    """Stage calls one run makes: pretrain and finetune per seed, then one
    eval and one ood; or one sample-diag call per chain."""
    return len(CHAINS) if workload == "sampler_chain" else 2 * SEEDS_PER_RUN + 2


def chain_name(kind: str, beta: float, temp: float) -> str:
    return f"{kind}_b{beta:g}_T{temp:g}"


def override(text: str, values: dict[tuple[str, str], str]) -> str:
    """Rewrite `key = value` lines of a sectioned config; every key must exist."""
    out, section, seen = [], None, set()
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = stripped.partition("=")[0].strip()
            if (section, key) in values:
                line = f"{key} = {values[section, key]}"
                seen.add((section, key))
        out.append(line)
    missing = set(values) - seen
    if missing:
        raise KeyError(f"config has no keys {sorted(missing)}")
    return "\n".join(out) + "\n"


def generate(workload: str, seed: int, root: Path, out_dir: Path) -> list[Path]:
    """Write the workload's config files into out_dir and return their paths."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    base = (root / "configs" / "default.cfg").read_text()
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "sampler_chain":
        specs = [(chain_name(kind, beta, temp),
                  {("sampler", "kind"): kind, ("sampler", "beta"): repr(beta),
                   ("sampler", "temperature"): repr(temp),
                   ("sampler", "lr0"): repr(CHAIN_LR0), ("run", "seeds"): str(seed)})
                 for kind, beta, temp, _ in CHAINS]
    else:
        seeds = range(SEEDS_PER_RUN * seed, SEEDS_PER_RUN * (seed + 1))
        values = {("run", "seeds"): ",".join(map(str, seeds)),
                  ("data", "seed"): str(1234 + seed)}
        if workload == "wide_ensemble":
            values["sampler", "cycle_len"] = "10"
        specs = [(workload, values)]
    paths = []
    for name, values in specs:
        path = out_dir / f"{name}.cfg"
        path.write_text(override(base, values))
        paths.append(path)
    return paths
