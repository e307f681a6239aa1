"""Command-line surface.

Subcommands: evaluate, optimize, equilibrium, verify, examples, generate.
Exit codes: 0 ok, 1 validation or parse error, 2 resource limit exceeded.
Certificate failures from `verify` are findings, not errors, and leave the
exit code at 0 unless --strict is given.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .analysis import (
    DEFAULT_PROFILE_LIMIT,
    DEFAULT_SCENARIO_LIMIT,
    Analysis,
    optimize_cap_and_price,
    optimize_safe,
    sell_out_probability,
)
from .auction import (
    HIGHEST_LOSING,
    LOWEST_WINNING,
    AuctionParams,
    run_auction,
    safe_price,
)
from .instances import NAMED_INSTANCES, generate, named_instance
from .io import (
    format_decimal,
    format_rational,
    load_instance,
    rational_cells,
    save_instance,
    write_csv,
)
from .model import MarketError, TooLargeError, ValidationError, rat, validate

VERIFY_CHECKS = ("priceceil", "optcond", "unsafe", "decomp", "thmq", "main", "all")
DEFAULT_GAP_LIMIT = 20  # largest quantity of the `unsafe` scan without --cap-limit


def _fmt(value: Fraction | None) -> str:
    if value is None:
        return "inf"
    return f"{format_rational(value)} ({format_decimal(value)})"


def _parse_cap(text: str) -> int | None:
    if text in ("unbounded", "inf"):
        return None
    try:
        cap = int(text)
    except ValueError:
        raise ValidationError(f"cap must be an integer or 'unbounded', got {text!r}")
    return cap


def _parse_ceiling(text: str) -> Fraction | None:
    if text in ("inf", "none"):
        return None
    return rat(text)


def _cap_and_floor(args, analysis: Analysis) -> tuple[int | None, Fraction]:
    """--cap and --floor, each defaulting to the best no-ceiling auction's."""
    cap = _parse_cap(args.cap) if args.cap else analysis.no_ceiling_optimum.params.cap
    if args.floor is None:
        return cap, analysis.no_ceiling_optimum.params.floor
    return cap, rat(args.floor)


def _emit(args, header, rows) -> None:
    """Write the report if --out asks for it; `rows` is a generator, so
    rows are formatted only then."""
    if args.out:
        write_csv(args.out, header, rows)
        print(f"report written to {args.out}")


def cmd_evaluate(args) -> int:
    instance = load_instance(args.instance)
    params = AuctionParams(
        cap=_parse_cap(args.cap),
        floor=rat(args.floor),
        ceiling=_parse_ceiling(args.ceiling),
        pricing=args.pricing,
    )
    analysis = Analysis(instance, args.scenario_limit)
    scenarios = analysis.table.rows
    outcomes = [run_auction(params, row.valuations, instance.cost) for row in scenarios]
    welfare_total = Fraction(0)
    revenue_total = Fraction(0)
    for row, outcome in zip(scenarios, outcomes):
        welfare_total += row.probability * outcome.welfare
        revenue_total += row.probability * outcome.revenue

    print(f"instance: {instance.label or args.instance}")
    print(f"scenarios: {len(scenarios)}")
    print(f"expected welfare: {_fmt(welfare_total)}")
    print(f"expected revenue: {_fmt(revenue_total)}")
    if params.cap is not None:
        q = sell_out_probability(analysis, params)
        print(f"sell-out probability: {_fmt(q)}")
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
    _emit(args, header, rows)
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
    print(f"  floor: {_fmt(p.floor)}")
    print(f"  ceiling: {_fmt(p.ceiling)}")
    print(f"  expected welfare: {_fmt(result.expected_welfare)}")
    header = ["cap", "floor", "floor_dec", "ceiling", "ceiling_dec", "welfare", "welfare_dec"]
    rows = (
        [str(cand.cap), *rational_cells(cand.floor), *rational_cells(cand.ceiling),
         *rational_cells(cand.expected_welfare)]
        for cand in result.table
    )
    _emit(args, header, rows)
    return 0


def cmd_equilibrium(args) -> int:
    from .equilibrium import check_poa_bound, find_grid_equilibria

    instance = load_instance(args.instance)
    cap = _parse_cap(args.cap)
    if cap is None:
        raise ValidationError("equilibrium search needs a bounded cap")
    params = AuctionParams(cap=cap, floor=rat(args.floor), ceiling=None, pricing=args.pricing)
    analysis = Analysis(instance, args.scenario_limit)
    report = find_grid_equilibria(
        instance,
        params,
        epsilon=rat(args.epsilon),
        strict=args.strict_overbidding,
        profile_limit=args.profile_limit,
    )
    print(f"instance: {instance.label or args.instance}")
    print(f"profiles searched: {report.searched}")
    print(f"equilibria found: {len(report.profiles)}")
    if report.worst_welfare is not None:
        print(f"worst equilibrium welfare: {_fmt(report.worst_welfare)}")
    if params.floor == safe_price(instance.cost, cap):
        poa = check_poa_bound(analysis, cap, report)
        print(f"safe-price baseline welfare: {_fmt(poa.baseline)}")
        print(f"welfare floor (baseline/3.15): {_fmt(poa.bound)}")
        if poa.ratio is not None:
            print(f"worst/baseline ratio: {_fmt(poa.ratio)}")
        print(f"bound holds: {poa.holds} ({poa.status})")
    header = ["profile", "firm", "type", "bid", "utility", "utility_dec", "welfare", "welfare_dec"]

    def rows():
        for k, (profile, w) in enumerate(zip(report.profiles, report.welfares)):
            welfare = rational_cells(w)
            for i, per_type in enumerate(profile.reports):
                for t, report_vec in enumerate(per_type):
                    bid = "|".join(format_rational(v) for v in report_vec.marginals)
                    u = report.utilities[k][i][t]
                    yield [str(k), str(i), str(t), bid, *rational_cells(u), *welfare]

    _emit(args, header, rows())
    return 0


def _verdict(cert) -> str:
    return "n/a" if cert.holds is None else ("pass" if cert.holds else "FAIL")


def _certificate_rows(certs) -> list[list[str]]:
    rows = []
    for cert in certs:
        rows.append(
            [
                cert.name,
                _verdict(cert),
                cert.status,
                format_rational(cert.lhs),
                format_decimal(cert.lhs),
                format_rational(cert.rhs),
                format_decimal(cert.rhs),
                format_rational(cert.margin),
                "; ".join(f"{k}={v}" for k, v in sorted(cert.witness.items(), key=lambda kv: kv[0])),
            ]
        )
    return rows


def cmd_verify(args) -> int:
    from . import bounds

    which = args.which
    if which in ("thmq", "main", "all") and (args.cap is not None or args.floor is not None):
        certifies = "runs thmq and main, which certify" if which == "all" else "certifies"
        raise ValidationError(
            f"--which {which} {certifies} the no-ceiling optimum; it takes no --cap or --floor"
        )
    instance = load_instance(args.instance)
    analysis = Analysis(instance, args.scenario_limit, args.cap_limit)
    certs = []

    if which in ("priceceil", "all"):
        grid = analysis.grid
        ceiling = rat(args.ceiling) if args.ceiling not in (None, "inf") else grid[-1]
        cap, floor = _cap_and_floor(args, analysis)
        if ceiling <= floor and args.floor is None:
            floor = grid[0]  # only a defaulted floor yields; AuctionParams rejects an explicit one
        certs.append(
            bounds.verify_ceiling_removal(analysis, AuctionParams(cap, floor, ceiling))
        )
    if which in ("optcond", "all"):
        cap, floor = _cap_and_floor(args, analysis)
        certs.append(bounds.verify_sellout_conditional(analysis, AuctionParams(cap, floor)))
    if which in ("unsafe", "all"):
        certs.append(bounds.worst_price_gap(instance.cost, args.cap_limit or DEFAULT_GAP_LIMIT))
    if which in ("decomp", "all"):
        cap, floor = _cap_and_floor(args, analysis)
        report = bounds.decompose_welfare(analysis, cap, floor)
        certs.append(
            bounds.BoundCertificate(
                name="three-term-decomposition",
                lhs=report.term_sum,
                rhs=report.total_welfare,
                holds=report.bounded,
                status=bounds.CHECKED,
                witness={
                    "cap": cap,
                    "floor": format_rational(report.floor),
                    "sell_out_term": format_rational(report.sell_out_term),
                    "above_term": format_rational(report.above_term),
                    "below_term": format_rational(report.below_term),
                },
            )
        )
        certs.extend(bounds.verify_decomposition_bounds(analysis, cap, floor, report))
    if which in ("thmq", "all"):
        certs.append(bounds.verify_sellout_factor(analysis))
    if which in ("main", "all"):
        certs.extend(bounds.verify_single_buyer_cover(analysis))

    print(f"instance: {instance.label or args.instance}")
    failed = 0
    for cert in certs:
        if cert.holds is False:
            failed += 1
        print(
            f"[{_verdict(cert):>4}] {cert.name} ({cert.status}): "
            f"lhs {_fmt(cert.lhs)} vs rhs {_fmt(cert.rhs)}, margin {_fmt(cert.margin)}"
        )
    header = ["certificate", "holds", "status", "lhs", "lhs_dec", "rhs", "rhs_dec", "margin", "witness"]
    _emit(args, header, _certificate_rows(certs))
    if failed and args.strict:
        return 1
    return 0


def cmd_examples(args) -> int:
    instance = named_instance(args.name, n=args.n, horizon=args.horizon)
    save_instance(instance, args.out)
    print(f"wrote {instance.label} to {args.out}")
    return 0


def cmd_generate(args) -> int:
    instance = generate(
        seed=args.seed,
        firms=args.firms,
        scenarios_per_firm=args.scenarios,
        max_units=args.max_units,
        value_low=args.value_range[0],
        value_high=args.value_range[1],
        cost_kind=args.cost_kind,
    )
    problems = validate(instance)
    if problems:  # generator contract: never happens
        raise ValidationError("; ".join(problems))
    save_instance(instance, args.out)
    print(f"wrote {instance.label} to {args.out}")
    return 0


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
    p.add_argument("name", choices=NAMED_INSTANCES)
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
