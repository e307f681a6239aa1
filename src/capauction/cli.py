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
This module holds the subcommands' names and help lines (`COMMANDS`),
`main` and the exit handling, and reads only the error types of `model`.
Each subcommand's arguments, limits and handler live in the module that
`COMMANDS` names for it (`evaluate` and `optimize` in `analysis`,
`equilibrium` in `equilibrium`, `verify` in `bounds`, `examples` and
`generate` in `instances`), whose `add_arguments` declares them and sets
`func` to the handler. `build_parser` imports that module only for the
subcommand the arguments name, so an `equilibrium` process compiles no
sweep and an `examples` process no auction. The helpers the handlers
share are in `io` and `auction`, not here: `python -m capauction.cli`
runs this module as `__main__`, and importing it again would compile it
twice.

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
from importlib import import_module

from .model import MarketError, TooLargeError, ValidationError

# Each subcommand, the module that declares its arguments and holds its
# handler, and its help line, in the order --help lists them.
COMMANDS = (
    ("evaluate", "analysis", "expected welfare of fixed parameters"),
    ("optimize", "analysis", "exhaustive search for the best parameters"),
    ("equilibrium", "equilibrium", "enumerate grid equilibria"),
    ("verify", "bounds", "check the welfare guarantees"),
    ("examples", "instances", "emit a built-in instance file"),
    ("generate", "instances", "seeded random instance"),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`. Every subcommand is registered, so help and
    usage list them all, but only the one argparse dispatches to, the first
    argument that does not start with '-', has its arguments declared."""
    parser = argparse.ArgumentParser(
        prog="capauction",
        description="Capped uniform-price license auctions: simulate, optimize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, module, summary in COMMANDS:
        command = sub.add_parser(name, help=summary)
        if name == chosen:
            import_module(f".{module}", __package__).add_arguments(command, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
