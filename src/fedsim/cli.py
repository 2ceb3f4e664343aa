"""Command-line front end: partition | train | eval | sweep.

Exit codes: 0 ok, 2 invalid config (a config value of the wrong type, out of
range or not among its choices, a checkpoint round out of range, an output
directory that cannot be created), a federation that cannot be trained
(Per-FedAvg batch split, empty server pool) or a client that cannot be
evaluated, 3 numeric failure (a non-finite loss, or non-finite parameters
after a client's last update). FEDSIM_LOG sets verbosity
(debug/info/warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .engine import FederationError, NumericError
from .evaluation import EvalError
from .experiment import ConfigError, ExperimentConfig, run_eval, run_partition, run_train
from .sweep import load_sweep, run_sweep

log = logging.getLogger("fedsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _setup_logging() -> None:
    level = os.environ.get("FEDSIM_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    return cfg.with_overrides(seed=args.seed, out=args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, type=Path, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("partition", help="write client splits and label histograms")
    common(p)

    p = sub.add_parser("train", help="run the federation; writes checkpoint and round CSV")
    common(p)
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint in --out")
    p.add_argument(
        "--stop-after", type=int, default=None,
        help="stop after this round (checkpoint is written; use --resume to finish)",
    )

    p = sub.add_parser("eval", help="evaluate a checkpoint: initial/personalized/template/in-out reports")
    common(p)
    p.add_argument(
        "--checkpoint", type=Path, default=None,
        help="checkpoint directory (defaults to the config's output directory)",
    )

    p = sub.add_parser("sweep", help="run a grid of cells and consolidate results.csv")
    p.add_argument("--config", required=True, type=Path, help="sweep config (JSON)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes for cells")
    p.add_argument("--out", default=None, help="override the sweep output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("stop-after", 0), ("jobs", 1)):
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None and value < least:
            parser.error(f"argument --{flag}: must be at least {least}, not {value}")
    try:
        if args.command == "partition":
            run_partition(_load_config(args))
        elif args.command == "train":
            run_train(_load_config(args), resume=args.resume, stop_after=args.stop_after)
        elif args.command == "eval":
            run_eval(_load_config(args), checkpoint_dir=args.checkpoint)
        elif args.command == "sweep":
            sweep = load_sweep(args.config)
            if args.out:
                sweep["out"] = args.out
            path = run_sweep(sweep, jobs=args.jobs)
            print(path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:  # a FederationError, so caught first
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except FederationError as e:
        print(f"cannot train: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
