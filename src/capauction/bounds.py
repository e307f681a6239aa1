"""Machine checks for the welfare guarantees on concrete instances.

Each check produces a self-contained certificate: the two sides of the
inequality as exact rationals, the witness parameters, and a pass flag that
is recomputable from the recorded sides. Checks never raise on a failed
inequality; a failure is a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    DEFAULT_SCENARIO_LIMIT,
    OptResult,
    _WelfareKernel,
    enumerate_scenarios,
    demand_quantile_cap,
    expected_welfare,
    max_total_demand,
    one_minus_inv_e,
    optimize_cap_and_price,
    safe_welfare_table,
    sell_out_probability,
    single_buyer_expected,
)
from .auction import (
    AuctionParams,
    FLOOR_BINDS,
    make_safe_auction,
    price_candidates,
    run_auction,
    safe_price,
)
from .model import (
    ZERO,
    CostCurve,
    MarginalVector,
    MarketInstance,
    ValidationError,
    average_cost,
    rat,
    welfare_of,
)

CHECKED = "checked"
VACUOUS = "vacuous"
NOT_APPLICABLE = "not-applicable"
DEGENERATE = "degenerate"

# Constant in the safe-auction-plus-single-buyer guarantee.
SINGLE_BUYER_COVER_CONSTANT = 26


@dataclass
class BoundCertificate:
    """One checked inequality, normalized to lhs >= rhs."""

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool | None
    status: str = CHECKED
    witness: dict = field(default_factory=dict)

    @property
    def margin(self) -> Fraction:
        return self.lhs - self.rhs


def _certify(name: str, lhs: Fraction, rhs: Fraction, status=CHECKED, **witness) -> BoundCertificate:
    return BoundCertificate(
        name=name, lhs=lhs, rhs=rhs, holds=lhs >= rhs, status=status, witness=witness
    )


def halves(cap: int) -> tuple[int, ...]:
    """Integer caps standing in for half of `cap` (both when odd)."""
    if cap % 2 == 0:
        return (cap // 2,)
    return (cap // 2, cap // 2 + 1)


def verify_ceiling_removal(
    instance: MarketInstance,
    params: AuctionParams,
    cap_limit: int | None = None,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> BoundCertificate:
    """Some no-ceiling auction recovers half the welfare of a ceiled one.

    Exhaustively searches caps and floors with no ceiling; also records the
    two construction candidates (same cap and floor without the ceiling,
    and an uncapped auction whose floor is the old ceiling) whose better
    half is the guaranteed witness whenever the base welfare is positive.
    """
    if params.ceiling is None or params.cap is None:
        raise ValidationError("ceiling-removal check needs a bounded cap and finite ceiling")
    table = enumerate_scenarios(instance, scenario_limit)
    base = expected_welfare(instance, params, table)
    same_cap = AuctionParams(params.cap, params.floor, None)
    uncapped = AuctionParams(None, params.ceiling, None)
    w_same = expected_welfare(instance, same_cap, table)
    w_uncapped = expected_welfare(instance, uncapped, table)

    if cap_limit is None:
        cap_limit = max(1, max_total_demand(instance))
    kernel = _WelfareKernel(instance, table, cap_limit + 1)
    grid = price_candidates(instance)
    best = None
    witness_params = None
    for cap in range(1, cap_limit + 2):
        for floor in grid:
            w = kernel.welfare(cap, floor)
            if best is None or w > best:
                best, witness_params = w, (cap, floor)
    status = CHECKED if base > 0 else VACUOUS
    return _certify(
        "ceiling-removal-half",
        best,
        base / 2,
        status=status,
        base_welfare=base,
        witness_cap=witness_params[0],
        witness_floor=witness_params[1],
        same_cap_welfare=w_same,
        uncapped_welfare=w_uncapped,
        shortcut_holds=max(w_same, w_uncapped) >= base / 2,
    )


def verify_sellout_conditional(
    instance: MarketInstance,
    params: AuctionParams,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> BoundCertificate:
    """At welfare-optimal no-ceiling parameters, expected welfare conditional
    on selling the full cap is non-negative.

    Checked literally on whatever parameters are passed; feeding a
    non-optimal pair can legitimately fail, which demonstrates the premise
    matters.
    """
    if params.cap is None or params.ceiling is not None:
        raise ValidationError("conditional check needs a bounded cap and no ceiling")
    table = enumerate_scenarios(instance, scenario_limit)
    q = ZERO
    contribution = ZERO
    for row in table.rows:
        if sum(v.demand(params.floor) for v in row.valuations) >= params.cap:
            q += row.probability
            outcome = run_auction(params, row.valuations, instance.cost)
            contribution += row.probability * outcome.welfare
    if q == 0:
        return _certify(
            "sell-out-conditional-nonnegative", ZERO, ZERO, status=VACUOUS, sell_out_probability=q
        )
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

    Fractional half-quantities use the piecewise-linear cost extension.
    """
    if quantity < 1:
        raise ValidationError(f"quantity must be at least 1, got {quantity}")
    if not 0 <= units <= quantity:
        raise ValidationError(f"units must lie in [0, {quantity}], got {units}")
    full_price = safe_price(cost, quantity)
    half_price = average_cost(cost, Fraction(quantity, 2))
    lhs = quantity * (full_price - half_price)
    rhs = full_price * units - cost.cost(units)
    return _certify(
        "below-safe-price-welfare-gap",
        lhs,
        rhs,
        quantity=quantity,
        units=units,
        full_price=full_price,
        half_price=half_price,
    )


def price_gap_at_half(cost: CostCurve, quantity: int) -> Fraction:
    """Half the quantity times the safe-price drop from halving it.

    Non-negative by convexity; zero for linear cost.
    """
    if quantity < 1:
        raise ValidationError(f"quantity must be at least 1, got {quantity}")
    half = Fraction(quantity, 2)
    return half * (safe_price(cost, quantity) - average_cost(cost, half))


@dataclass(frozen=True)
class DecompositionRow:
    probability: Fraction
    valuations: tuple[MarginalVector, ...]
    allocation: tuple[int, ...]
    sold_out: bool
    thresholds: tuple[int, ...]
    above: tuple[int, ...]
    below: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    """Welfare of a no-ceiling auction split into three exact terms.

    `sell_out_term` collects scenarios whose demand reaches the cap;
    elsewhere each firm's allocation is split at its threshold (largest
    unit whose marginal clears the safe price for the cap) into units
    valued above the safe price (`above_term`) and the rest
    (`below_term`). The total is bounded above by the three-term sum via
    cost superadditivity.
    """

    cap: int
    floor: Fraction
    reference_price: Fraction
    sell_out_term: Fraction
    above_term: Fraction
    below_term: Fraction
    total_welfare: Fraction
    rows: tuple[DecompositionRow, ...]

    @property
    def term_sum(self) -> Fraction:
        return self.sell_out_term + self.above_term + self.below_term

    @property
    def bounded(self) -> bool:
        return self.total_welfare <= self.term_sum


def threshold_units(valuation: MarginalVector, price: Fraction) -> int:
    """Largest unit index whose marginal weakly clears `price` (0 if none)."""
    n = 0
    for v in valuation.marginals:
        if v >= price:
            n += 1
        else:
            break
    return n


def decompose_welfare(
    instance: MarketInstance,
    cap: int,
    floor: Fraction,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> DecompositionReport:
    floor = rat(floor)
    params = AuctionParams(cap, floor, None)
    reference = safe_price(instance.cost, cap)
    table = enumerate_scenarios(instance, scenario_limit)
    sell_out_term = ZERO
    above_term = ZERO
    below_term = ZERO
    total = ZERO
    rows = []
    for row in table.rows:
        outcome = run_auction(params, row.valuations, instance.cost)
        total += row.probability * outcome.welfare
        sold_out = sum(v.demand(floor) for v in row.valuations) >= cap
        if sold_out:
            sell_out_term += row.probability * outcome.welfare
            thresholds = tuple(threshold_units(v, reference) for v in row.valuations)
            above = below = tuple(0 for _ in row.valuations)
        else:
            thresholds = tuple(threshold_units(v, reference) for v in row.valuations)
            above = tuple(
                min(x, theta) for x, theta in zip(outcome.allocation, thresholds)
            )
            below = tuple(
                x - a for x, a in zip(outcome.allocation, above)
            )
            above_value = sum(
                (v.value(a) for v, a in zip(row.valuations, above)), ZERO
            )
            below_value = sum(
                (v.gain(b, theta) for v, b, theta in zip(row.valuations, below, thresholds)),
                ZERO,
            )
            above_term += row.probability * (
                above_value - instance.cost.cost(sum(above))
            )
            below_term += row.probability * (
                below_value - instance.cost.cost(sum(below))
            )
        rows.append(
            DecompositionRow(
                probability=row.probability,
                valuations=row.valuations,
                allocation=outcome.allocation,
                sold_out=sold_out,
                thresholds=thresholds,
                above=above,
                below=below,
            )
        )
    return DecompositionReport(
        cap=cap,
        floor=floor,
        reference_price=reference,
        sell_out_term=sell_out_term,
        above_term=above_term,
        below_term=below_term,
        total_welfare=total,
        rows=tuple(rows),
    )


def verify_decomposition_bounds(
    instance: MarketInstance,
    cap: int,
    floor: Fraction,
    report: DecompositionReport | None = None,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> tuple[BoundCertificate, BoundCertificate]:
    """The two covering bounds behind the sell-out-factor guarantee.

    First: the safe-price auction at the same cap covers the sell-out term
    plus the above-price term. Second: the safe-price auction at half the
    cap covers half the sell-out probability times the below-price term
    (at least one half works when the cap is odd). The second bound relies
    on (cap, floor) being welfare-optimal.
    """
    floor = rat(floor)
    if report is None:
        report = decompose_welfare(instance, cap, floor, scenario_limit)
    table = enumerate_scenarios(instance, scenario_limit)
    safe_w = expected_welfare(instance, make_safe_auction(cap, instance.cost), table)
    above_cert = _certify(
        "safe-covers-above",
        safe_w,
        report.sell_out_term + report.above_term,
        cap=cap,
    )
    q = sell_out_probability(instance, AuctionParams(cap, floor, None), table)
    rhs = q * report.below_term / 2
    best_half, best_w = None, None
    for half in halves(cap):
        w = (
            ZERO
            if half == 0
            else expected_welfare(instance, make_safe_auction(half, instance.cost), table)
        )
        if best_w is None or w > best_w:
            best_half, best_w = half, w
    below_cert = _certify(
        "half-cap-covers-below",
        best_w,
        rhs,
        cap=cap,
        half_cap=best_half,
        sell_out_probability=q,
    )
    return above_cert, below_cert


def verify_sellout_factor(
    instance: MarketInstance,
    opt: OptResult | None = None,
    cap_limit: int | None = None,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> BoundCertificate:
    """Some safe-price auction is within factor (1 + 2/q) of the best
    no-ceiling auction, q being the optimum's sell-out probability.

    Not applicable when the optimum never sells out (q = 0).
    """
    if opt is None:
        opt = optimize_cap_and_price(
            instance, allow_ceiling=False, cap_limit=cap_limit, scenario_limit=scenario_limit
        )
    if opt.params.ceiling is not None:
        raise ValidationError("expected a no-ceiling optimum")
    base = opt.expected_welfare
    q = sell_out_probability(instance, opt.params, scenario_limit=scenario_limit)
    if q == 0:
        return BoundCertificate(
            name="safe-within-sellout-factor",
            lhs=ZERO,
            rhs=base,
            holds=None,
            status=NOT_APPLICABLE,
            witness={"sell_out_probability": q},
        )
    factor = 1 + Fraction(2) / q
    safe_table = safe_welfare_table(instance, cap_limit, scenario_limit)
    best_cap = max(
        (c for c in safe_table if c >= 1), key=lambda c: (safe_table[c], -c)
    )
    best_w = safe_table[best_cap]
    needed = None
    if base > 0 and best_w > 0:
        needed = base / best_w
    return _certify(
        "safe-within-sellout-factor",
        factor * best_w,
        base,
        sell_out_probability=q,
        factor=factor,
        witness_cap=best_cap,
        witness_welfare=best_w,
        multiplier_needed=needed,
        optimum_cap=opt.params.cap,
        optimum_floor=opt.params.floor,
    )


def verify_single_buyer_cover(
    instance: MarketInstance,
    opt: OptResult | None = None,
    cap_limit: int | None = None,
    constant: int = SINGLE_BUYER_COVER_CONSTANT,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> tuple[BoundCertificate, BoundCertificate]:
    """The headline guarantee and its four-term refinement.

    (a) Some safe-price auction, scaled by the cover constant, plus the
    single-buyer welfare, covers the best no-ceiling welfare.
    (b) Safe welfare at the optimal cap, plus single-buyer welfare, plus
    4x safe welfare at the quantile cap, plus 21x safe welfare at half the
    quantile cap, covers the same. Needs product form (independence);
    degenerate when the quantile cap is 0.
    """
    if not instance.product_form:
        raise ValidationError("single-buyer cover needs independent firms (product form)")
    if opt is None:
        opt = optimize_cap_and_price(
            instance, allow_ceiling=False, cap_limit=cap_limit, scenario_limit=scenario_limit
        )
    base = opt.expected_welfare
    single = single_buyer_expected(instance, scenario_limit)
    safe_table = safe_welfare_table(instance, cap_limit, scenario_limit)
    best_cap = max(
        (c for c in safe_table if c >= 1), key=lambda c: (safe_table[c], -c)
    )
    headline = _certify(
        "safe-plus-single-buyer-cover",
        constant * safe_table[best_cap] + single,
        base,
        constant=constant,
        witness_cap=best_cap,
        single_buyer_welfare=single,
        optimum_cap=opt.params.cap,
        optimum_floor=opt.params.floor,
    )

    q = sell_out_probability(instance, opt.params, scenario_limit=scenario_limit)
    threshold = one_minus_inv_e()
    quantile_cap = demand_quantile_cap(instance, opt.params.floor, scenario_limit=scenario_limit)
    route = "sellout-factor" if q >= threshold else "quantile-cap"
    if quantile_cap == 0:
        four_term = BoundCertificate(
            name="four-term-cover",
            lhs=ZERO,
            rhs=base,
            holds=None,
            status=DEGENERATE,
            witness={"quantile_cap": 0, "route": route},
        )
        return headline, four_term

    def safe_at(c: int) -> Fraction:
        if c in safe_table:
            return safe_table[c]
        return expected_welfare(
            instance, make_safe_auction(c, instance.cost), scenario_limit=scenario_limit
        )

    best_half = max(halves(quantile_cap), key=lambda h: safe_at(h) if h else ZERO)
    half_w = safe_at(best_half) if best_half else ZERO
    lhs = safe_at(opt.params.cap) + single + 4 * safe_at(quantile_cap) + 21 * half_w
    four_term = _certify(
        "four-term-cover",
        lhs,
        base,
        quantile_cap=quantile_cap,
        half_cap=best_half,
        route=route,
        sell_out_probability=q,
        single_buyer_welfare=single,
        optimum_cap=opt.params.cap,
        optimum_floor=opt.params.floor,
    )
    return headline, four_term
