"""Command-line surface.

Subcommands: evaluate, optimize, equilibrium, verify, examples, generate.
Exit codes: 0 ok, --help included; 1 validation or parse error; 2
resource limit exceeded, or a usage error from the argument parser; 141
(128 + SIGPIPE) when the reader of stdout closed it first, --help
included.
Certificate failures from `verify` are findings, not errors, and leave the
exit code at 0 unless --strict is given.

Where each subcommand's code lives: run without cached bytecode
(`PYTHONDONTWRITEBYTECODE`), each process compiles every module it imports
from source, so a process should import only its own subcommand's code.
This module holds the parser and `main`, and reads only the parser's
defaults and the pricing rules (from `auction`) and the error types. Each
subcommand's handler lives in a module that the other subcommands' code
does not need (`evaluate` and `optimize` in `analysis`, `verify` in
`bounds`, `equilibrium` in `equilibrium`, `examples` and `generate` in
`instances`), and its `cmd_<name>` here imports it on call; so an
`equilibrium` process compiles no sweep. The helpers the handlers share
are in `io`, not here: `python -m capauction.cli` runs this module as
`__main__`, and importing it again would compile it twice. Every
subcommand but `examples` and `generate` reads the integer tables of
`auction.Analysis`.

How a process exits: the `capauction` console script and
`python -m capauction.cli` both call `run`, which runs `main` with the
cyclic garbage collector off and then freezes every object. The process
exits next, and the full collections at interpreter shutdown skip frozen
objects; atexit handlers, stream flushes and module teardown still run.
Garbage in reference cycles then lives until the process exits, so a
command must leave no more of it than its parser and, where it writes an
instance file, the JSON encoder do, whatever the input size. `main`
called from Python leaves the collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .auction import (
    DEFAULT_GAP_LIMIT, DEFAULT_PROFILE_LIMIT, DEFAULT_SCENARIO_LIMIT,
    HIGHEST_LOSING, LOWEST_WINNING, PRICING_RULES,
)
from .model import MarketError, TooLargeError, ValidationError

VERIFY_CHECKS = ("priceceil", "optcond", "unsafe", "decomp", "thmq", "main", "all")
# `instances.NAMED_INSTANCES`, spelled out so the parser need not import it.
EXAMPLES = ("demand-reduction", "logscale", "first-best")


def cmd_evaluate(args) -> int:
    from .analysis import cmd_evaluate

    return cmd_evaluate(args)


def cmd_optimize(args) -> int:
    from .analysis import cmd_optimize

    return cmd_optimize(args)


def cmd_equilibrium(args) -> int:
    from .equilibrium import cmd_equilibrium

    return cmd_equilibrium(args)


def cmd_verify(args) -> int:
    from .bounds import cmd_verify

    return cmd_verify(args)


def cmd_examples(args) -> int:
    from .instances import cmd_examples

    return cmd_examples(args)


def cmd_generate(args) -> int:
    from .instances import cmd_generate

    return cmd_generate(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capauction",
        description="Capped uniform-price license auctions: simulate, optimize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=False):
        p.add_argument("--out", help="write the CSV report here")
        p.add_argument("--scenario-limit", type=int, default=DEFAULT_SCENARIO_LIMIT)
        if profile:
            p.add_argument("--profile-limit", type=int, default=DEFAULT_PROFILE_LIMIT)

    p = sub.add_parser("evaluate", help="expected welfare of fixed parameters")
    p.add_argument("instance")
    p.add_argument("--cap", required=True, help="positive integer or 'unbounded'")
    p.add_argument("--floor", required=True)
    p.add_argument("--ceiling", default="inf")
    p.add_argument("--pricing", choices=PRICING_RULES, default=LOWEST_WINNING)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="exhaustive search for the best parameters")
    p.add_argument("instance")
    p.add_argument("--no-ceiling", action="store_true")
    p.add_argument("--safe-only", action="store_true")
    p.add_argument("--cap-limit", type=int)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("equilibrium", help="enumerate grid equilibria")
    p.add_argument("instance")
    p.add_argument("--cap", required=True)
    p.add_argument("--floor", required=True)
    p.add_argument("--pricing", choices=PRICING_RULES, default=HIGHEST_LOSING)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--strict-overbidding", action="store_true",
                   help="dominate marginal by marginal instead of prefix sums")
    common(p, profile=True)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("verify", help="check the welfare guarantees")
    p.add_argument("instance")
    p.add_argument("--which", choices=VERIFY_CHECKS, default="all")
    p.add_argument("--cap")
    p.add_argument("--floor")
    p.add_argument("--ceiling")
    p.add_argument("--cap-limit", type=int,
                   help="largest cap searched (default: the largest pooled demand); "
                        f"also the largest quantity of the unsafe scan (default {DEFAULT_GAP_LIMIT})")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a certificate fails")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="emit a built-in instance file")
    p.add_argument("name", choices=EXAMPLES)
    p.add_argument("-n", type=int, help="scenario count for the scaled families (default 5)")
    p.add_argument("--horizon", type=int, help="marginal-list truncation for first-best")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("generate", help="seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--firms", type=int, default=2)
    p.add_argument("--scenarios", type=int, default=2)
    p.add_argument("--max-units", type=int, default=4)
    p.add_argument("--value-range", type=int, nargs=2, default=(1, 12))
    p.add_argument("--cost-kind", choices=("quadratic", "marginals"), default="quadratic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, MarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Entry point of a CLI process: `main` on `sys.argv`, then the exit
    status. It leaves the collector off and every object frozen, so call
    it only where the process exits next. The parser's exit (help, usage
    error) is a status too, so its text is flushed here as well. When the
    reader of stdout has closed it, the process exits 141 with nothing on
    stderr, and stdout points at the null device so the flush at exit has
    nowhere to fail."""
    gc.disable()
    try:
        try:
            status = main()
        except SystemExit as exc:
            status = exc.code
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
