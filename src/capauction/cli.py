"""Command-line surface.

Subcommands: evaluate, optimize, equilibrium, verify, examples, generate.
Exit codes: 0 ok, 1 validation or parse error, 2 resource limit exceeded.
Certificate failures from `verify` are findings, not errors, and leave the
exit code at 0 unless --strict is given.

Where each subcommand's code lives: run without cached bytecode
(`PYTHONDONTWRITEBYTECODE`), each process compiles every module it imports
from source, so a process should import only its own subcommand's code.
This module holds the parser, `main`, and the `evaluate` and `optimize`
handlers, which read only `analysis`, `auction`, `io` and `model`. Each
other subcommand's handler lives in the module that only that subcommand
loads (`verify` in `bounds`, `equilibrium` in `equilibrium`, `examples`
and `generate` in `instances`), and its `cmd_<name>` here imports it on
call. The helpers the handlers share are in `io`, not here: `python -m
capauction.cli` runs this module as `__main__`, and importing it again
would compile it twice. Of the subcommands, only `evaluate` reads the
Fraction scenario rows of `enumerate_scenarios`, to print each scenario's
auction; the others read the integer tables of `analysis.Analysis`.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .analysis import (
    DEFAULT_GAP_LIMIT,
    DEFAULT_PROFILE_LIMIT,
    DEFAULT_SCENARIO_LIMIT,
    Analysis,
    enumerate_scenarios,
    optimize_cap_and_price,
    optimize_safe,
)
from .auction import FLOOR_BINDS, HIGHEST_LOSING, LOWEST_WINNING, AuctionParams, run_auction
from .io import display, load_instance, parse_cap, parse_ceiling, rational_cells, write_report
from .model import MarketError, TooLargeError, ValidationError, rat

VERIFY_CHECKS = ("priceceil", "optcond", "unsafe", "decomp", "thmq", "main", "all")
# `instances.NAMED_INSTANCES`, spelled out so the parser need not import it.
EXAMPLES = ("demand-reduction", "logscale", "first-best")


def cmd_evaluate(args) -> int:
    instance = load_instance(args.instance)
    params = AuctionParams(
        cap=parse_cap(args.cap),
        floor=rat(args.floor),
        ceiling=parse_ceiling(args.ceiling),
        pricing=args.pricing,
    )
    scenarios = enumerate_scenarios(instance, args.scenario_limit)
    outcomes = [run_auction(params, row.valuations, instance.cost) for row in scenarios]
    welfare_total = Fraction(0)
    revenue_total = Fraction(0)
    sold_out = Fraction(0)  # demand at the floor reaches the cap
    for row, outcome in zip(scenarios, outcomes):
        welfare_total += row.probability * outcome.welfare
        revenue_total += row.probability * outcome.revenue
        if outcome.case != FLOOR_BINDS:
            sold_out += row.probability

    print(f"instance: {instance.label or args.instance}")
    print(f"scenarios: {len(scenarios)}")
    print(f"expected welfare: {display(welfare_total)}")
    print(f"expected revenue: {display(revenue_total)}")
    if params.cap is not None:
        print(f"sell-out probability: {display(sold_out)}")
    header = [
        "scenario", "probability", "probability_dec", "allocation", "unit_price",
        "unit_price_dec", "case", "welfare", "welfare_dec", "revenue", "revenue_dec",
    ]
    rows = (
        [str(idx), *rational_cells(row.probability), "|".join(map(str, outcome.allocation)),
         *rational_cells(outcome.unit_price), outcome.case, *rational_cells(outcome.welfare),
         *rational_cells(outcome.revenue)]
        for idx, (row, outcome) in enumerate(zip(scenarios, outcomes))
    )
    write_report(args.out, header, rows)
    return 0


def cmd_optimize(args) -> int:
    instance = load_instance(args.instance)
    analysis = Analysis(instance, args.scenario_limit, args.cap_limit)
    if args.safe_only:
        result = optimize_safe(analysis)
        kind = "best safe-price auction"
    else:
        result = optimize_cap_and_price(analysis, allow_ceiling=not args.no_ceiling)
        kind = "best cap-and-price auction"
    p = result.params
    print(f"instance: {instance.label or args.instance}")
    print(f"{kind} over {result.searched} candidates:")
    print(f"  cap: {p.cap}")
    print(f"  floor: {display(p.floor)}")
    print(f"  ceiling: {display(p.ceiling)}")
    print(f"  expected welfare: {display(result.expected_welfare)}")
    header = ["cap", "floor", "floor_dec", "ceiling", "ceiling_dec", "welfare", "welfare_dec"]
    # A table has few distinct floors, ceilings and welfares: each is
    # formatted once, keyed by its value (not its grid position, since
    # --safe-only floors are off the grid).
    formatted: dict[tuple[int, int], list[str]] = {}

    def cells(value: Fraction | None) -> list[str]:
        if value is None:
            return rational_cells(None)
        key = value.numerator, value.denominator
        got = formatted.get(key)
        if got is None:
            got = formatted[key] = rational_cells(value)
        return got

    rows = (
        [str(cand.cap), *cells(cand.floor), *cells(cand.ceiling), *cells(cand.expected_welfare)]
        for cand in result.table
    )
    write_report(args.out, header, rows)
    return 0


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
    p.add_argument("--pricing", choices=(LOWEST_WINNING, HIGHEST_LOSING),
                   default=LOWEST_WINNING)
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
    p.add_argument("--pricing", choices=(LOWEST_WINNING, HIGHEST_LOSING),
                   default=HIGHEST_LOSING)
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
    p.add_argument("-n", type=int, default=5, help="scenario count for the scaled families")
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


if __name__ == "__main__":
    sys.exit(main())
