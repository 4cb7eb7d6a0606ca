"""Command-line front end: ``nclab run`` and ``nclab acceptance``."""

from __future__ import annotations

import argparse
import sys

from . import acceptance, harness


THREADS_HELP = ("experiments run side by side; never affects results; peak "
                "memory is up to `threads` experiments at once")


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``ExperimentError`` instead of exiting 2, the
    code of a numerical failure; ``--help`` still exits 0."""

    def error(self, message):
        raise harness.ExperimentError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
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

    p_acc = sub.add_parser("acceptance", help="run the acceptance suite")
    p_acc.add_argument("--out-dir", required=True)
    p_acc.add_argument("--only", type=int, nargs="+", default=None,
                       help="one or more criterion numbers to run, each once")
    return parser


def main(argv=None):
    """Exit code of the command ``argv`` (default ``sys.argv[1:]``); a usage
    error prints one line and exits 1, as a configuration error does."""
    try:
        args = build_parser().parse_args(argv)
    except harness.ExperimentError as exc:
        print(f"usage error: {exc}")
        return harness.EXIT_CONFIG
    if args.command == "run":
        return harness.run(args.config, out_dir=args.out_dir, seed=args.seed,
                           threads=args.threads)
    if args.command == "acceptance":
        return harness.exit_code(lambda: acceptance.run_acceptance(
            args.out_dir, only=args.only),
            config_errors=harness.ExperimentError)
    return 1


if __name__ == "__main__":
    sys.exit(main())
