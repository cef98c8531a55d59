"""Benchmark entry point: runs one workload (or all) and reports metrics.

    python3 bench/run.py --workload paper_default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1

Every repetition is a fresh child process (bench/child.py) with the BLAS
thread count pinned to 1; repetitions run until `--seconds` have passed.
With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` each repetition is an untraced run followed by a traced run of
the same inputs, and it reports the per-layer metrics.  Human-readable
tables go to stdout first; the last stdout line is one JSON object.  The
full result set, with environment and artifact digests, is written to
.bench_runs/<workload>-seed<n>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

RUNS = ROOT / ".bench_runs"
BLAS_THREADS = 1
MIN_SETUP_SAMPLES = 11
RUN_BUDGET_S = 170  # one workload run, children included, ends within this


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(configs: list[Path], out: Path, result: Path, deadline: float, *,
          trace: Path | None = None, setup_only: bool = False) -> dict | None:
    """Run one child to completion; None when it crashed or missed the deadline."""
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"),
           "--configs", *map(str, configs), "--out", str(out), "--result", str(result)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("child killed at the run's time budget", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcbyol").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spread(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_values(plain: dict, traced: dict) -> dict:
    """Every per-layer number one traced repetition yields, by metric name."""
    summary = traced["trace"]
    flat = {}
    for layer, s in summary["layers"].items():
        flat[f"{layer}.fwd_s" if layer.startswith("autodiff.op.") else f"{layer}_s"] = s["total_s"]
        flat[f"{layer}.self_s"] = s["self_s"]
        flat[f"{layer}.calls"] = s["calls"]
        flat[f"{layer}.p50_ms"] = 1e3 * s["p50_s"]
        flat[f"{layer}.tail_ms"] = 1e3 * s["tail_s"]
    for stage, s in summary["stages"].items():
        flat[f"{stage}.unattributed_s"] = s["unattributed_s"]
    counts = summary["counts"]
    flat.update({k: v for k, v in counts.items() if k != "autodiff.matmul_flop"})
    flat["autodiff.matmul_fwd_gflop_computed"] = counts.get("autodiff.matmul_flop", 0) / 1e9
    forwards = counts.get("posterior.encoder_forwards", 0)
    if forwards:
        flat["posterior.forward_reuse"] = counts["posterior.distinct_pairs"] / forwards
    for stage, t in plain["stages"].items():
        flat[f"stage.{stage}_s"] = t
    flat["trace.pipeline_s"] = traced["pipeline_s"]
    flat["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
    flat.update({f"quality.{k}": v for k, v in traced["quality"].items()})
    return flat


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = RUNS / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    configs = workloads.generate(workload, seed, ROOT, work / "configs")
    # warm-up child: fills the bytecode cache, as any repeat user run finds it
    spawn(configs, work / "warmup", work / "warmup.json", deadline, setup_only=True)

    reps, setups = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < min(seconds, deadline - start):
        i = len(reps)
        pair = {}
        for mode in ("plain", "traced") if trace else ("plain",):
            out = work / f"rep{i}-{mode}"
            spans = work / f"rep{i}-spans.npz" if mode == "traced" else None
            pair[mode] = spawn(configs, out, work / f"rep{i}-{mode}.json", deadline, trace=spans)
            shutil.rmtree(out, ignore_errors=True)  # checked and digested by the child
            if pair[mode] is not None:
                setups.append(pair[mode])
        reps.append(pair)
    while len(setups) < MIN_SETUP_SAMPLES:
        res = spawn(configs, work / "setup", work / "setup.json", deadline, setup_only=True)
        if res is None:
            break
        setups.append(res)

    results = [r for pair in reps for r in pair.values()]
    ok = [r for r in results if r is not None]
    attempted = workloads.calls_per_run(workload) * len(results)
    failed = workloads.calls_per_run(workload) * (len(results) - len(ok))
    problems = []
    for r in ok:
        for c in r["calls"]:
            if c["error"] or c["problems"]:
                failed += 1
                problems.append(c["error"] or "; ".join(c["problems"]))
    # identical inputs must give byte-identical artifacts in every repetition,
    # traced or not; each digested file is written by one call, so a mismatch
    # counts as one failed call
    reference = ok[0]["digests"] if ok else {}
    for r in ok[1:]:
        for name, digest in r["digests"].items():
            if reference.get(name) != digest:
                failed += 1
                problems.append(f"{name} differs between repetitions")
    if trace:
        for r in ok:
            if "trace" in r:
                for stage, s in r["trace"]["stages"].items():
                    if s["sum_error_s"] > 1e-6 * max(s["span_s"], 1.0):
                        problems.append(f"{stage}: self times miss the span by {s['sum_error_s']}")

    plain = [p["plain"] for p in reps if p.get("plain")]
    stage_names = sorted({s for r in plain for s in r["stages"]})
    summary = {
        "workload": workload, "why": workloads.WORKLOADS[workload], "seed": seed,
        "trace": trace, "seconds": seconds, "repetitions": len(reps),
        "attempted": attempted, "failed": failed, "problems": problems,
        "correct": failed == 0 and not problems and bool(ok),
        "environment": {
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": ok[0].get("numpy") if ok else None,
            "blas": ok[0].get("blas") if ok else None,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "child_threads": sorted({r.get("threads") for r in ok}, key=str),
            "config_digests": ok[0]["config_digests"] if ok else {},
        },
        "digests": reference,
        "end_to_end": {
            "setup_s": spread([r["setup_s"] for r in setups]),
            "pipeline_s": spread([r["pipeline_s"] for r in plain]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in plain]),
            "setup_wall_s": spread([r["setup_wall_s"] for r in setups]),
            "pipeline_wall_s": spread([r["pipeline_wall_s"] for r in plain]),
            **{f"{s}_s": spread([r["stages"][s] for r in plain if s in r["stages"]])
               for s in stage_names},
        },
        "quality": plain[0]["quality"] if plain else {},
    }
    if trace:
        pairs = [p for p in reps if p.get("plain") and p.get("traced")]
        layer_sets = [layer_values(p["plain"], p["traced"]) for p in pairs]
        names = sorted({k for s in layer_sets for k in s})
        summary["per_layer"] = {k: spread([s.get(k, 0.0) for s in layer_sets]) for k in names}
    summary["reps"] = reps
    (work / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary


def report(summary: dict, spec: dict) -> dict:
    """Print the human-readable tables; return the object for the last line."""
    env = summary["environment"]
    print(f"== {summary['workload']} seed={summary['seed']} trace={int(summary['trace'])} "
          f"repetitions={summary['repetitions']} ({summary['why']})")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  unit")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = dict(summary["end_to_end"])
    if summary["trace"]:
        rows.update((m["name"], summary["per_layer"].get(m["name"], spread([])))
                    for m in spec["per_layer"])
    for name, s in rows.items():
        unit = units.get(name, "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "")
        print(f"{name:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['n']:4d}  {unit}")
    for name, value in summary["quality"].items():
        print(f"{name:44s} {value:12.6g}")
    rate = summary["failed"] / max(summary["attempted"], 1)
    print(f"{'error_rate':44s} {rate:12.6g}  ({summary['failed']} of {summary['attempted']} "
          "stage calls failed)")
    for name, digest in sorted(summary["digests"].items()):
        print(f"sha256 {digest}  {name}")
    for problem in summary["problems"]:
        print(f"PROBLEM: {problem}")
    traced = [p["traced"] for p in summary["reps"] if p.get("traced")]
    if traced:
        print_stage_breakdown(traced[0]["trace"])

    section = "per_layer" if summary["trace"] else "end_to_end"
    source = summary["per_layer"] if summary["trace"] else summary["end_to_end"]
    metrics = {}
    for m in spec[section]:
        value = source.get(m["name"], {"median": 0.0})["median"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_stage_breakdown(trace: dict) -> None:
    """Self time of every layer inside each stage span (first traced run)."""
    for stage, s in trace["stages"].items():
        print(f"-- {stage}: span {s['span_s']:.4f} s = unattributed "
              f"{s['unattributed_s']:.4f} s + self times below")
        for layer, info in sorted(s["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"   {layer:36s} self {info['self_s']:9.4f} s  calls {info['calls']:8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "mcbyol" / "__init__.py",
                           ROOT / "configs" / "default.cfg", ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"cannot run: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    for name in names:
        outputs[name] = report(run_workload(name, args.seed, seconds, bool(args.trace)), spec)
    print(json.dumps(outputs if args.workload == "all" else outputs[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
