"""Self-test of the benchmark: traced counts repeat exactly between runs.

    python3 bench/selftest.py

Makes two traced runs of seed 0 on each pipeline workload and one on the
sampler chain (about three minutes on two cores).  It exits non-zero when
a run is not correct (a failed stage call, an artifact whose digest differs
between the traced and the untraced run, or self times that do not add up
to their stage span), when any call count or computed count differs
between the two runs, or when a metric named in BENCHMARK.json is produced
by none of the workloads.  It also prints how the counts compare with the
reference values recorded when the benchmark was defined; a change that
alters the work done moves those on purpose, so that comparison informs
and does not fail.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE = {  # paper_default / wide_ensemble at the commit that defined the benchmark
    "posterior.encoder_forwards": (159, 3159),
    "posterior.distinct_pairs": (60, 300),
    "params.set_flat.calls": (29160, 138600),
    "autodiff.op.matmul.calls": (28080, 82800),
    "finetune.load_member.calls": (48, 240),
    "finetune.save_member.calls": (36, 180),
    "finetune.minibatches": (13680, 68400),
}


def counts(summary: dict) -> dict:
    """Every call count and computed count of the run's first traced repetition."""
    rep = summary["reps"][0]
    values = run.layer_values(rep["plain"], rep["traced"])
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k in rep["traced"]["trace"]["counts"]
            or k == "autodiff.matmul_fwd_gflop_computed"}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures, produced = [], set()
    for workload, runs in (("paper_default", 2), ("wide_ensemble", 2), ("sampler_chain", 1)):
        seen = []
        for _ in range(runs):
            summary = run.run_workload(workload, 0, seconds=0, trace=True)
            if not summary["correct"]:
                failures.append(f"{workload}: run not correct: {summary['problems']}")
                continue
            produced |= set(summary["per_layer"]) | set(summary["end_to_end"])
            seen.append(counts(summary))
        if len(seen) == 2:
            differ = [k for k in sorted(set(seen[0]) | set(seen[1]))
                      if seen[0].get(k) != seen[1].get(k)]
            failures += [f"{workload}: {k} did not repeat: {seen[0].get(k)} then "
                         f"{seen[1].get(k)}" for k in differ]
            print(f"{workload}: {len(seen[0]) - len(differ)} of {len(seen[0])} counts "
                  "repeat exactly")
        if workload in ("paper_default", "wide_ensemble") and seen:
            col = 0 if workload == "paper_default" else 1
            for key, ref in REFERENCE.items():
                got = seen[0].get(key)
                verdict = "matches" if got == ref[col] else "DIFFERS from"
                print(f"  {key:32s} {got!s:>10} {verdict} reference {ref[col]}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in produced:
            failures.append(f"metric {m['name']} is produced by no workload")
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
