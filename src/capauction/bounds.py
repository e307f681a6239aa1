"""Machine checks for the welfare guarantees on concrete instances.

Each check produces a self-contained certificate: the two sides of the
inequality as exact rationals, the witness parameters, and a pass flag that
is recomputable from the recorded sides. Every certificate is built by
`_certify`, which sets that flag from the sides, or to None for a
not-applicable or degenerate check. Checks never raise on a failed
inequality; a failure is a finding.

Every certificate reads `auction.Analysis` (its integer welfare rows, cost
list, probability weights, sell-out probabilities, safe prices and cached
no-ceiling and safe-price optima), never a scenario cleared again;
`verify_decomposition_bounds` splits the welfare into its three terms on
those rows. The price-gap certificates (`verify_price_gap`,
`worst_price_gap`) read only the cost curve, through `model.costs`.

Only `verify` loads this module, so it also holds the helpers that only
certificates read (`one_minus_inv_e`, `demand_quantile_cap`,
`best_own_quantity`, `single_buyer_expected`) and the `verify`
subcommand: its checks and limit, its arguments (`add_arguments`) and its
handler, `cmd_verify`. A process compiles every module it imports, and
`evaluate`, `optimize` and `equilibrium` processes need none of this.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from operator import mul, sub
from typing import NamedTuple

from .auction import (
    Analysis, AuctionParams, _integers, _per_scenario, add_common_arguments, check_cap_limit,
    parse_cap,
)
from .io import display, load_instance, parse_ceiling, rational_cells, write_report
from .model import ZERO, CostCurve, Valuation, ValidationError, at_least_one, costs, rat

CHECKED = "checked"
VACUOUS = "vacuous"
NOT_APPLICABLE = "not-applicable"
DEGENERATE = "degenerate"

# Constant in the safe-auction-plus-single-buyer guarantee.
SINGLE_BUYER_COVER_CONSTANT = 26


class BoundCertificate(NamedTuple):
    """One checked inequality, normalized to lhs >= rhs."""

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool | None
    status: str
    witness: dict

    @property
    def margin(self) -> Fraction:
        return self.lhs - self.rhs


def _certify(name: str, lhs: Fraction, rhs: Fraction, status=CHECKED, **witness) -> BoundCertificate:
    """The one constructor of a certificate: a not-applicable or degenerate
    check has no verdict (`holds` is None); any other holds iff lhs >= rhs."""
    holds = None if status in (NOT_APPLICABLE, DEGENERATE) else lhs >= rhs
    return BoundCertificate(name, lhs, rhs, holds, status, witness)


def _best_half(analysis: Analysis, cap: int) -> int:
    """The half of `cap` (either, when odd) whose safe-price auction has
    the larger welfare; ties keep the smaller."""
    return max((cap // 2, (cap + 1) // 2), key=analysis.safe_welfare)


@lru_cache(maxsize=None)
def one_minus_inv_e() -> Fraction:
    """Rational over-approximation of 1 - 1/e, accurate to 50 decimals.

    Built from the exact factorial series for e with a rigorous remainder
    bound, then rounded up, so the returned threshold is strictly above the
    irrational value (comparisons never accept a quantity the exact
    threshold would reject).
    """
    terms = 60  # 61! is far beyond 10**50, so the remainder is negligible
    e_low = sum((Fraction(1, math.factorial(k)) for k in range(terms + 1)), ZERO)
    e_high = e_low + Fraction(2, math.factorial(terms + 1))
    upper = 1 - Fraction(1, 1) / e_high  # strict upper bound on 1 - 1/e
    scale = 10**50
    return Fraction(math.ceil(upper * scale), scale)


def demand_quantile_cap(analysis: Analysis, floor: Fraction) -> int:
    """Largest cap demanded with probability at least 1 - 1/e (its
    `one_minus_inv_e` over-approximation), demand measured at the given
    floor. Returns 0 when even one license is too rarely demanded.
    """
    threshold = one_minus_inv_e()
    # tail = Pr[d >= c] * _weight, scanning demands from the top down: the
    # first to reach the threshold is the largest c with Pr[d >= c] >= it.
    tail = 0
    for demand, weight in sorted(zip(analysis.demand(floor), analysis._probs), reverse=True):
        tail += weight
        if Fraction(tail, analysis._weight) >= threshold:
            return demand
    return 0


def best_own_quantity(valuation: Valuation, cost: CostCurve) -> tuple[int, Fraction]:
    """Smallest maximizer and maximum of V(x) - C(x) for one firm.

    Increments v(x) - (C(x) - C(x-1)) are non-increasing by concavity and
    convexity, so the scan stops at the first non-positive increment. It
    reads each marginal cost once, and none past that increment.
    """
    gains = list(takewhile(lambda gain: gain > 0, map(sub, valuation, cost.marginal_costs())))
    return len(gains), sum(gains, ZERO)


def single_buyer_expected(analysis: Analysis) -> Fraction:
    """Expected welfare of the truthful sell-to-one-firm mechanism.

    A scenario's welfare is the largest stand-alone surplus max_x {V(x) -
    C(x)} of its firms, computed once per type by `best_own_quantity`,
    which reads the cost only as far as that valuation's own optimum. The
    per-scenario maximum is one fold over the scenario factors.
    """
    cost = analysis.instance.cost
    # A surplus is never negative, so -1 marks a scenario with no firm.
    best = _per_scenario(
        ([max((best_own_quantity(v, cost)[1] for v in vs), default=-1) for _, vs in types]
         for types in analysis._factors),
        -1, max,
    )
    if -1 in best:
        raise ValidationError("at least one firm is required")
    return sum(map(mul, analysis._probs, best), ZERO) / analysis._weight


def verify_ceiling_removal(analysis: Analysis, params: AuctionParams) -> BoundCertificate:
    """Some no-ceiling auction recovers half the welfare of a ceiled one.

    The witness is the no-ceiling optimum, the exhaustive search of caps
    and floors that every other check names; also records the two
    construction candidates (same cap and floor without the ceiling,
    and an uncapped auction whose floor is the old ceiling) whose better
    half is the guaranteed witness whenever the base welfare is positive.
    """
    if params.ceiling is None or params.cap is None:
        raise ValidationError("ceiling-removal check needs a bounded cap and finite ceiling")
    # Per scenario the ceiled auction sells at least as much as either
    # construction candidate, so the rows it tabulates cover all three.
    base = analysis.welfare(params.cap, params.floor, params.ceiling)
    w_same = analysis.welfare(params.cap, params.floor)
    w_uncapped = analysis.welfare(None, params.ceiling)
    best = analysis.no_ceiling_optimum.winner  # the optimum every other check names
    status = CHECKED if base > 0 else VACUOUS
    return _certify(
        "ceiling-removal-half",
        best.expected_welfare,
        base / 2,
        status=status,
        base_welfare=base,
        witness_cap=best.cap,
        witness_floor=best.floor,
        same_cap_welfare=w_same,
        uncapped_welfare=w_uncapped,
        shortcut_holds=max(w_same, w_uncapped) >= base / 2,
    )


def verify_sellout_conditional(analysis: Analysis, params: AuctionParams) -> BoundCertificate:
    """At welfare-optimal no-ceiling parameters, expected welfare conditional
    on selling the full cap is non-negative.

    Checked literally on whatever parameters are passed; feeding a
    non-optimal pair can legitimately fail, which demonstrates the premise
    matters.
    """
    if params.cap is None or params.ceiling is not None:
        raise ValidationError("conditional check needs a bounded cap and no ceiling")
    q = analysis.sell_out_probability(params.cap, params.floor)
    if q == 0:
        return _certify(
            "sell-out-conditional-nonnegative", ZERO, ZERO, status=VACUOUS, sell_out_probability=q
        )
    contribution = analysis.sold_out_welfare(params.cap, params.floor)
    return _certify(
        "sell-out-conditional-nonnegative",
        contribution / q,
        ZERO,
        sell_out_probability=q,
        contribution=contribution,
    )


def verify_price_gap(cost: CostCurve, quantity: int, units: int) -> BoundCertificate:
    """Welfare of `units` licenses valued at the safe price is capped by the
    quantity times the safe-price drop from the half quantity.

    With C the cost and k the quantity, the half price is
    (C(floor(k/2)) + C(ceil(k/2))) / k. That is the average cost at k/2 of
    the piecewise-linear extension of C: for even k both terms are C(k/2),
    and for odd k the extension at k/2 is the midpoint (C(floor(k/2)) +
    C(ceil(k/2))) / 2, divided by k/2.
    """
    at_least_one(quantity, "quantity")
    if not 0 <= units <= quantity:
        raise ValidationError(f"units must lie in [0, {quantity}], got {units}")
    c = costs(cost, quantity)
    full_price = c[quantity] / quantity
    half_price = (c[quantity // 2] + c[(quantity + 1) // 2]) / quantity
    lhs = quantity * (full_price - half_price)
    rhs = full_price * units - c[units]
    return _certify(
        "below-safe-price-welfare-gap",
        lhs,
        rhs,
        quantity=quantity,
        units=units,
        full_price=full_price,
        half_price=half_price,
    )


def worst_price_gap(cost: CostCurve, limit: int) -> BoundCertificate:
    """The `verify_price_gap` certificate of least margin over every
    quantity in 1..limit and units in 0..quantity; ties keep the first in
    (quantity, units) order.

    With C the cost, q the quantity and u the units, the certificate's
    margin is C(q) - C(floor(q/2)) - C(ceil(q/2)) - u * C(q)/q + C(u), so
    one table of C(0..limit) over a common denominator ranks every pair.

    Needs C convex with C(0) = 0, which `validate` enforces. Then
    q * C(u) - C(q) * u is convex in u, so its first minimizer is the
    first u with q * (C(u + 1) - C(u)) >= C(q), found by bisection;
    u = q - 1 always qualifies, as C(q) - C(q - 1) >= C(q)/q.
    """
    at_least_one(limit, "quantity limit")
    _, c = _integers(costs(cost, limit))
    worst = None  # (margin * quantity * common denominator, quantity, units)
    for q in range(1, limit + 1):
        u = bisect_left(range(q), True, key=lambda u: q * (c[u + 1] - c[u]) >= c[q])
        gap = q * c[u] - c[q] * u + q * (c[q] - c[q // 2] - c[(q + 1) // 2])
        if worst is None or gap * worst[1] < worst[0] * q:
            worst = (gap, q, u)
    return verify_price_gap(cost, worst[1], worst[2])


def verify_decomposition_bounds(
    analysis: Analysis, cap: int, floor: Fraction
) -> tuple[BoundCertificate, BoundCertificate, BoundCertificate]:
    """The three-term decomposition and the two covering bounds behind the
    sell-out-factor guarantee.

    The welfare of the no-ceiling auction (cap, floor) splits into three
    exact terms. The sell-out term collects scenarios whose demand reaches
    the cap; elsewhere each firm's allocation is split at its threshold
    (largest unit whose marginal clears the safe price r for the cap) into
    units valued above the safe price (the above term) and the rest (the
    below term). The total is bounded above by the three-term sum via cost
    superadditivity.

    Where D_s(floor) = x < cap the floor binds, so firm i buys its whole
    demand D_i(floor), and its threshold is D_i(r). As demand falls with
    the price, min(D_i(floor), D_i(r)) = D_i(max(floor, r)): the above
    units are the firm's marginals at or above max(floor, r). Summed over
    firms they are the a = D_s(max(floor, r)) largest pooled marginals, and
    the below units are the next x - a. So the scenario's above term is
    W_s(a) and its below term is W_s(x) - W_s(a) + C(x) - C(a) - C(x - a).

    First: the three terms sum to at least the total welfare. Second: the
    safe-price auction at the same cap covers the sell-out term plus the
    above term. Third: the safe-price auction at half the cap covers half
    the sell-out probability times the below term (at least one half works
    when the cap is odd). The third bound relies on (cap, floor) being
    welfare-optimal.
    """
    if cap is None:
        raise ValidationError("welfare decomposition needs a bounded cap")
    reference = analysis.safe_price(cap)  # a cost table short of the cap fails here
    floor = rat(floor)
    if floor < 0:  # no AuctionParams validates the floor here; reject it before any welfare
        raise ValidationError(f"price floor must be non-negative, got {floor}")
    analysis._tabulate(cap)  # no scenario short of the cap sells more than it
    cost = analysis._cost
    above = below = 0
    at_floor = analysis.demand(floor)
    at_threshold = analysis.demand(max(floor, reference))
    for p, row, x, a in zip(analysis._probs, analysis._nums, at_floor, at_threshold):
        if x < cap:
            above += row[a]
            below += row[x] - row[a] + p * (cost[x] - cost[a] - cost[x - a])
    above, below = Fraction(above, analysis._den), Fraction(below, analysis._den)
    sell_out = analysis.sold_out_welfare(cap, floor)
    q = analysis.sell_out_probability(cap, floor)
    half = _best_half(analysis, cap)
    return (
        _certify(
            "three-term-decomposition",
            sell_out + above + below,
            analysis.welfare(cap, floor),
            cap=cap,
            floor=floor,
            sell_out_term=sell_out,
            above_term=above,
            below_term=below,
        ),
        _certify("safe-covers-above", analysis.safe_welfare(cap), sell_out + above, cap=cap),
        _certify(
            "half-cap-covers-below",
            analysis.safe_welfare(half),
            q * below / 2,
            cap=cap,
            half_cap=half,
            sell_out_probability=q,
        ),
    )


def verify_sellout_factor(analysis: Analysis) -> BoundCertificate:
    """Some safe-price auction is within factor (1 + 2/q) of the best
    no-ceiling auction, q being the optimum's sell-out probability.

    Not applicable when the optimum never sells out (q = 0).
    """
    opt = analysis.no_ceiling_optimum.winner
    base = opt.expected_welfare
    q = analysis.sell_out_probability(opt.cap, opt.floor)
    if q == 0:
        return _certify(
            "safe-within-sellout-factor", ZERO, base, status=NOT_APPLICABLE, sell_out_probability=q
        )
    factor = 1 + Fraction(2) / q
    best_safe = analysis.safe_optimum.winner
    best_w = best_safe.expected_welfare
    needed = None
    if base > 0 and best_w > 0:
        needed = base / best_w
    return _certify(
        "safe-within-sellout-factor",
        factor * best_w,
        base,
        sell_out_probability=q,
        factor=factor,
        witness_cap=best_safe.cap,
        witness_welfare=best_w,
        multiplier_needed=needed,
        optimum_cap=opt.cap,
        optimum_floor=opt.floor,
    )


def verify_single_buyer_cover(analysis: Analysis) -> tuple[BoundCertificate, BoundCertificate]:
    """The headline guarantee and its four-term refinement.

    (a) Some safe-price auction, scaled by the cover constant, plus the
    single-buyer welfare, covers the best no-ceiling welfare.
    (b) Safe welfare at the optimal cap, plus single-buyer welfare, plus
    4x safe welfare at the quantile cap, plus 21x safe welfare at half the
    quantile cap, covers the same. Needs product form (independence);
    degenerate when the quantile cap is 0.
    """
    if analysis.instance.joint is not None:
        raise ValidationError("single-buyer cover needs independent firms (product form)")
    opt = analysis.no_ceiling_optimum.winner
    base = opt.expected_welfare
    single = single_buyer_expected(analysis)
    best_safe = analysis.safe_optimum.winner
    headline = _certify(
        "safe-plus-single-buyer-cover",
        SINGLE_BUYER_COVER_CONSTANT * best_safe.expected_welfare + single,
        base,
        constant=SINGLE_BUYER_COVER_CONSTANT,
        witness_cap=best_safe.cap,
        single_buyer_welfare=single,
        optimum_cap=opt.cap,
        optimum_floor=opt.floor,
    )

    q = analysis.sell_out_probability(opt.cap, opt.floor)
    quantile_cap = demand_quantile_cap(analysis, opt.floor)
    route = "sellout-factor" if q >= one_minus_inv_e() else "quantile-cap"
    if quantile_cap == 0:
        four_term = _certify(
            "four-term-cover", ZERO, base, status=DEGENERATE, quantile_cap=0, route=route
        )
        return headline, four_term

    safe_at = analysis.safe_welfare
    best_half = _best_half(analysis, quantile_cap)
    lhs = safe_at(opt.cap) + single + 4 * safe_at(quantile_cap) + 21 * safe_at(best_half)
    four_term = _certify(
        "four-term-cover",
        lhs,
        base,
        quantile_cap=quantile_cap,
        half_cap=best_half,
        route=route,
        sell_out_probability=q,
        single_buyer_welfare=single,
        optimum_cap=opt.cap,
        optimum_floor=opt.floor,
    )
    return headline, four_term


# ---- the `verify` subcommand ---------------------------------------------

VERIFY_CHECKS = ("priceceil", "optcond", "unsafe", "decomp", "thmq", "main", "all")
DEFAULT_GAP_LIMIT = 20  # largest quantity of the `unsafe` scan without --cap-limit


def add_arguments(parser, name: str) -> None:
    """Declare the arguments of the `verify` subcommand, `name`, and set
    its handler."""
    parser.add_argument("instance")
    parser.add_argument("--which", choices=VERIFY_CHECKS, default="all")
    parser.add_argument("--cap")
    parser.add_argument("--floor")
    parser.add_argument("--ceiling")
    parser.add_argument(
        "--cap-limit", type=int,
        help="largest cap searched (default: the largest pooled demand); also the largest "
             f"quantity of the unsafe scan (default {DEFAULT_GAP_LIMIT})",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when a certificate fails")
    add_common_arguments(parser)
    parser.set_defaults(func=cmd_verify)


def _cap_and_floor(args, analysis: Analysis) -> tuple[int | None, Fraction]:
    """--cap and --floor, each defaulting to the best no-ceiling auction's."""
    cap = parse_cap(args.cap) if args.cap is not None else analysis.no_ceiling_optimum.winner.cap
    if args.floor is None:
        return cap, analysis.no_ceiling_optimum.winner.floor
    return cap, rat(args.floor)


def _verdict(cert) -> str:
    return "n/a" if cert.holds is None else ("pass" if cert.holds else "FAIL")


def _certificate_rows(certs) -> list[list[str]]:
    return [
        [
            cert.name,
            _verdict(cert),
            cert.status,
            *rational_cells(cert.lhs),
            *rational_cells(cert.rhs),
            str(cert.margin),
            "; ".join(f"{k}={v}" for k, v in sorted(cert.witness.items())),
        ]
        for cert in certs
    ]


def cmd_verify(args) -> int:
    """`capauction verify`: print each selected certificate; with --strict,
    exit 1 when one fails."""
    which = args.which
    if which in ("thmq", "main", "all") and (args.cap is not None or args.floor is not None):
        certifies = "runs thmq and main, which certify" if which == "all" else "certifies"
        raise ValidationError(
            f"--which {which} {certifies} the no-ceiling optimum; it takes no --cap or --floor"
        )
    if which not in ("priceceil", "all") and args.ceiling is not None:
        raise ValidationError(f"--which {which} checks no ceiling; it takes no --ceiling")
    if which == "unsafe" and (args.cap is not None or args.floor is not None):
        raise ValidationError("--which unsafe checks no cap or floor; it takes no --cap or --floor")
    instance = load_instance(args.instance)
    if which == "unsafe":  # the scan reads only the cost curve: no scenario is tabulated
        at_least_one(args.scenario_limit, "scenario limit")
        check_cap_limit(args.cap_limit)
    else:
        analysis = Analysis(instance, args.scenario_limit, args.cap_limit)
    ceiling = parse_ceiling(args.ceiling)
    if which in ("priceceil", "optcond", "decomp", "all"):
        cap, floor = _cap_and_floor(args, analysis)
    certs = []

    if which in ("priceceil", "all"):
        grid = analysis.grid
        if ceiling is None:
            ceiling = grid[-1]
        # Only a defaulted floor yields; AuctionParams rejects an explicit one.
        low = grid[0] if ceiling <= floor and args.floor is None else floor
        certs.append(verify_ceiling_removal(analysis, AuctionParams(cap, low, ceiling)))
    if which in ("optcond", "all"):
        certs.append(verify_sellout_conditional(analysis, AuctionParams(cap, floor)))
    if which in ("unsafe", "all"):
        certs.append(worst_price_gap(instance.cost, args.cap_limit or DEFAULT_GAP_LIMIT))
    if which in ("decomp", "all"):
        certs.extend(verify_decomposition_bounds(analysis, cap, floor))
    if which in ("thmq", "all"):
        certs.append(verify_sellout_factor(analysis))
    if which in ("main", "all"):
        certs.extend(verify_single_buyer_cover(analysis))

    print(f"instance: {instance.label or args.instance}")
    failed = 0
    for cert in certs:
        if cert.holds is False:
            failed += 1
        print(
            f"[{_verdict(cert):>4}] {cert.name} ({cert.status}): "
            f"lhs {display(cert.lhs)} vs rhs {display(cert.rhs)}, margin {display(cert.margin)}"
        )
    header = ["certificate", "holds", "status", "lhs", "lhs_dec", "rhs", "rhs_dec", "margin", "witness"]
    write_report(args.out, header, _certificate_rows(certs))
    if failed and args.strict:
        return 1
    return 0
