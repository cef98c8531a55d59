"""Command-line entry point.

Subcommands: pretrain, finetune, eval, ood, sample-diag.  Each takes
--config <path>, --out <dir> and an optional --seed override.  Exit codes:
0 success, 1 config error, 2 data error, 3 numeric/divergence error,
4 I/O error, 5 a forked helper process failed or died: pretrain's gradient
helper, or the child of finetune, eval or ood, whose own config, data,
numeric and I/O errors keep their codes above.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import config as cfgmod
from . import pipeline
from .diagnostics import ESS_FLOOR, lag1_effective_samples
from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     HelperError, NumericError)

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_IO, EXIT_HELPER = 1, 2, 3, 4, 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcbyol",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", default=None,
                       help="comma-separated seed list overriding the config")
        return p

    add("pretrain", "run the snapshot-collecting pretraining loop per seed")
    add("finetune", "fine-tune every snapshot at every label fraction")
    add("eval", "accuracy/NLL tables for single and ensemble prediction")
    add("ood", "entropy histograms and NLL/AUROC table on the OOD pair")
    diag = add("sample-diag", "sampler moments on the unit quadratic")
    diag.add_argument("--steps", type=int, default=200_000)
    diag.add_argument("--burn-in", type=int, default=None)
    diag.add_argument("--dim", type=int, default=1)
    return parser


def _load_config(args) -> tuple[cfgmod.RunConfig, str]:
    cfg = cfgmod.load(args.config)
    if args.seed is not None:
        try:
            seeds = [int(s) for s in args.seed.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seed value: {args.seed!r}") from exc
        cfg = replace(cfg, run=replace(cfg.run, seeds=seeds))
    out_dir = args.out or cfg.run.output_dir
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set run.output_dir")
    return cfg, out_dir


def _dispatch(args) -> None:
    cfg, out_dir = _load_config(args)
    if args.command == "pretrain":
        for seed in cfg.run.seeds:
            pipeline.run_pretrain(cfg, seed, out_dir)
    elif args.command == "finetune":
        for seed in cfg.run.seeds:
            pipeline.run_finetune(cfg, seed, out_dir)
    elif args.command == "eval":
        pipeline.run_eval(cfg, out_dir)
    elif args.command == "ood":
        pipeline.run_ood(cfg, out_dir)
    elif args.command == "sample-diag":
        for flag, value in (("--steps", args.steps), ("--dim", args.dim)):
            if value < 1:
                raise ConfigError(f"{flag} must be >= 1, got {value}")
        burn_in = pipeline.default_burn_in(args.steps) if args.burn_in is None else args.burn_in
        if not 0 <= burn_in <= args.steps - 2:
            raise ConfigError(f"--burn-in must be >= 0 and leave 2 of the {args.steps} "
                              f"steps, got {burn_in}")
        stats = pipeline.run_sample_diag(cfg, out_dir, steps=args.steps,
                                         burn_in=burn_in, dim=args.dim)
        for i in range(stats.mean.size):
            print(f"coord {i}: mean {stats.mean[i]:+.6f} "
                  f"variance {stats.variance[i]:.6f} "
                  f"lag1 {stats.lag1_autocorr[i]:.4f}")
        for i, ess in enumerate(lag1_effective_samples(stats)):
            if ess < ESS_FLOOR:
                print(f"warning: coord {i}: lag1 {stats.lag1_autocorr[i]:.4f} leaves about "
                      f"{ess:.1f} effective samples of {stats.sample_count}, below "
                      f"{ESS_FLOOR}: too few to trust its mean and variance", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HelperError as exc:
        print(f"helper error: {exc}", file=sys.stderr)
        return EXIT_HELPER
    return 0


if __name__ == "__main__":
    sys.exit(main())
