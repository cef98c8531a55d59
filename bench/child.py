"""One workload run in a fresh process: set up, call every stage, check.

Run by bench/run.py, never imported by it.  The child times set-up
(interpreter start, `import mcbyol`, config load and validate) against
the spawn time the parent passes in, times each stage call with tracing
off or on (in wall and in reference seconds, see speed.py), then checks
every output outside the timed region and writes one JSON result file.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TEXT_COLUMNS = {"method", "mode", "config_digest"}


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def numeric_cells_finite(header: list[str], rows: list[list[str]]) -> bool:
    """Every cell outside the text columns parses as a finite number."""
    numeric = [i for i, name in enumerate(header) if name not in TEXT_COLUMNS]
    try:
        return all(len(row) == len(header) and all(math.isfinite(float(row[i])) for i in numeric)
                   for row in rows)
    except ValueError:
        return False


class Checks:
    """Correctness checks; each failure is pinned on the stage call that
    produced the bad output."""

    def __init__(self):
        self.problems: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def checkpoint(self, path: Path, kind: str, blocks: int) -> bool:
        from mcbyol.errors import CheckpointError
        from mcbyol.posterior import read_container
        if not self.require(path.exists(), f"missing {path.name}"):
            return False
        try:
            header, _ = read_container(str(path), expect_kind=kind)
        except CheckpointError as exc:
            return self.require(False, f"{path.name} does not re-load: {exc}")
        return self.require(len(header["blocks"]) == blocks,
                            f"{path.name}: {len(header['blocks'])} blocks, expected {blocks}")

    def table(self, path: Path, rows: int) -> list[list[str]]:
        if not self.require(path.exists(), f"missing {path.name}"):
            return []
        header, body = read_tsv(path)
        self.require(len(body) == rows, f"{path.name}: {len(body)} rows, expected {rows}")
        self.require(numeric_cells_finite(header, body),
                     f"{path.name}: a numeric cell is missing, malformed or not finite")
        return body


def pipeline_check(call: str, seed, cfg, out: Path, checks: Checks) -> None:
    from mcbyol import pipeline
    k = cfg.sampler.total_steps // cfg.sampler.cycle_len
    fracs = cfg.finetune.label_fractions
    if call == "pretrain":
        checks.checkpoint(Path(pipeline.ensemble_path(str(out), seed)), "ensemble", k)
        checks.table(out / f"pretrain_log_seed{seed}.tsv", cfg.sampler.total_steps)
    elif call == "finetune":
        for frac in fracs:
            for s in range(k):
                checks.checkpoint(Path(pipeline.member_path(str(out), seed, frac, s)), "member", 2)
    elif call == "eval":
        checks.table(out / "eval_results.tsv", len(fracs) * (k + 1))
    elif call == "ood":
        checks.table(out / "ood_results.tsv", k)
        for tag in ("ood", "indist"):
            for size in range(1, k + 1):
                path = out / f"{tag}_hist_{cfg.sampler.kind}_k{size}.tsv"
                checks.require(path.exists(), f"missing {path.name}")


def timed_calls(calls, speed) -> list[dict]:
    """Run (stage, tag, fn) calls in order; a raising call is recorded, not
    fatal."""
    records = []
    for stage, tag, fn in calls:
        r = speed.timed(fn)
        exc = r["error"]
        r["error"] = None if exc is None else f"{stage} {tag} raised {type(exc).__name__}: {exc}"
        records.append({"stage": stage, "seed": tag, **r})
    return records


def totals(records: list[dict]) -> dict:
    stages: dict[str, float] = {}
    for r in records:
        stages[r["stage"]] = stages.get(r["stage"], 0.0) + r["ref_s"]
    return {"stages": stages, "pipeline_s": sum(r["ref_s"] for r in records),
            "pipeline_wall_s": sum(r["wall_s"] for r in records), "peak_rss_mb": peak_rss_mb()}


def pipeline_quality(out: Path, cfg) -> dict:
    fracs = cfg.finetune.label_fractions
    bma = [r for r in read_tsv(out / "eval_results.tsv")[1]
           if r[1] == "bma" and float(r[2]) == max(fracs)]
    last = max(bma, key=lambda r: int(r[3]))
    ood = max(read_tsv(out / "ood_results.tsv")[1], key=lambda r: int(r[1]))
    return {"bma_accuracy": float(last[4]), "bma_nll": float(last[6]),
            "ood_auroc": float(ood[4])}


def run_pipeline(cfg, out: Path, speed) -> dict:
    from mcbyol import pipeline
    o = str(out)
    calls = [("pretrain", s, lambda s=s: pipeline.run_pretrain(cfg, s, o)) for s in cfg.run.seeds]
    calls += [("finetune", s, lambda s=s: pipeline.run_finetune(cfg, s, o)) for s in cfg.run.seeds]
    calls += [("eval", None, lambda: pipeline.run_eval(cfg, o)),
              ("ood", None, lambda: pipeline.run_ood(cfg, o))]
    records = timed_calls(calls, speed)
    result = totals(records)
    checks = Checks()
    for r in records:
        first = len(checks.problems)
        if r["error"] is None:
            pipeline_check(r["stage"], r["seed"], cfg, out, checks)
        r["problems"] = checks.problems[first:]
    ok = all(r["error"] is None and not r["problems"] for r in records)
    names = ["eval_results.tsv", "ood_results.tsv"]
    names += [f"ensemble_seed{s}.ckpt" for s in cfg.run.seeds]
    result.update(calls=records, quality=pipeline_quality(out, cfg) if ok else {},
                  digests={n: sha256(out / n) for n in names if (out / n).exists()})
    return result


def run_chains(cfgs: dict, out: Path, speed) -> dict:
    from mcbyol import pipeline
    from workloads import (CHAIN_MEAN_BOUND, CHAIN_REL_VAR_BOUND, CHAIN_STEPS, CHAINS,
                           CRIT03_MEAN_TOL, chain_name)
    names = [chain_name(kind, beta, temp) for kind, beta, temp, _ in CHAINS]
    stats = {}

    def chain(name):
        stats[name] = pipeline.run_sample_diag(cfgs[name], str(out / name), steps=CHAIN_STEPS)

    records = timed_calls([("sample_diag", n, lambda n=n: chain(n)) for n in names], speed)
    result = totals(records)
    worst, within = 0.0, 0
    for (_, _, temp, tol), name, r in zip(CHAINS, names, records):
        checks = Checks()
        if r["error"] is None:
            rows = checks.table(out / name / "chain_stats.tsv", 1)
            mean, var = float(stats[name].mean[0]), float(stats[name].variance[0])
            rel = abs(var - temp) / temp
            worst = max(worst, rel)
            within += int(rel < tol and abs(mean) < CRIT03_MEAN_TOL)
            checks.require(rel < CHAIN_REL_VAR_BOUND, f"{name}: |var - T|/T = {rel:.4f}")
            checks.require(abs(mean) < CHAIN_MEAN_BOUND * temp ** 0.5, f"{name}: mean {mean:.4f}")
            checks.require(bool(rows) and abs(float(rows[0][2]) - var) <= 1e-9 * var,
                           f"{name}: chain_stats.tsv disagrees with the returned variance")
        r["problems"] = checks.problems
    result.update(calls=records,
                  quality={"diag_var_rel_err": worst, "diag_chains_within_crit03": within},
                  digests={f"{n}/chain_stats.tsv": sha256(out / n / "chain_stats.tsv")
                           for n in names if (out / n / "chain_stats.tsv").exists()})
    return result


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--configs", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this .npz path")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import mcbyol
    from mcbyol import config as cfgmod
    cfgs = {Path(p).stem: cfgmod.load(p) for p in args.configs}
    setup_wall = time.monotonic() - args.spawned_at

    src = Path(mcbyol.__file__).resolve().parent
    if src != ROOT / "src" / "mcbyol":
        print(f"imported mcbyol from {src}, not from this checkout", file=sys.stderr)
        return 2
    from speed import Speed
    speed = Speed()
    result = {"setup_wall_s": setup_wall, "setup_s": setup_wall * speed.scale_now(),
              "config_digests": {n: c.digest() for n, c in cfgs.items()}}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(uuid.uuid4().hex)
            tracing.install(tracer)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if len(cfgs) == 1:
            result.update(run_pipeline(next(iter(cfgs.values())), out, speed))
        else:
            result.update(run_chains(cfgs, out, speed))
        if tracer is not None:
            scale = [r["span_scale"] for r in result["calls"]]
            tracer.save(args.trace, scale)
            result["trace"] = tracer.summary(scale)
        import numpy
        result["speed_iter_s"] = {"samples": len(speed.samples),
                                  "median": float(numpy.median(speed.samples)),
                                  "p10": float(numpy.percentile(speed.samples, 10))}
        result["threads"] = thread_count()
        result["numpy"] = numpy.__version__
        blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        result["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
