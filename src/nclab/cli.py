"""Command-line front end: ``nclab run`` and ``nclab acceptance``."""

from __future__ import annotations

import argparse
import sys

from . import acceptance, harness


THREADS_HELP = ("experiments run side by side; never affects results; peak "
                "memory is up to `threads` experiments at once")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nclab",
        description="Matrix stochastic control laboratory: experiments and "
                    "acceptance checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--out-dir", default=None,
                       help="output directory (or NCLAB_OUT_DIR, or config)")
    p_run.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")

    p_acc = sub.add_parser("acceptance", help="run the acceptance suite")
    p_acc.add_argument("--out-dir", required=True)
    p_acc.add_argument("--threads", type=int, default=1,
                       help="workers for criterion 2's ten n=512 eigensolves; "
                            "never affects results")
    p_acc.add_argument("--only", type=int, nargs="*", default=None,
                       help="subset of criterion numbers to run")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return harness.run(args.config, out_dir=args.out_dir, seed=args.seed,
                           threads=args.threads, fmt=args.format)
    if args.command == "acceptance":
        return harness.exit_code(lambda: acceptance.run_acceptance(
            args.out_dir, threads=args.threads, only=args.only),
            config_errors=harness.ExperimentError)
    return 1


if __name__ == "__main__":
    sys.exit(main())
