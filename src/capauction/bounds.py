"""Machine checks for the welfare guarantees on concrete instances.

Each check produces a self-contained certificate: the two sides of the
inequality as exact rationals, the witness parameters, and a pass flag that
is recomputable from the recorded sides. Checks never raise on a failed
inequality; a failure is a finding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .analysis import (
    Analysis,
    demand_quantile_cap,
    expected_welfare,
    one_minus_inv_e,
    optimize_safe,
    sell_out_probability,
    single_buyer_expected,
)
from .auction import AuctionParams, run_auction, safe_price
from .model import (
    ZERO,
    CostCurve,
    MarginalVector,
    ValidationError,
    average_cost,
    rat,
)

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
    return BoundCertificate(
        name=name, lhs=lhs, rhs=rhs, holds=lhs >= rhs, status=status, witness=witness
    )


def halves(cap: int) -> tuple[int, ...]:
    """Integer caps standing in for half of `cap` (both when odd)."""
    if cap % 2 == 0:
        return (cap // 2,)
    return (cap // 2, cap // 2 + 1)


def verify_ceiling_removal(analysis: Analysis, params: AuctionParams) -> BoundCertificate:
    """Some no-ceiling auction recovers half the welfare of a ceiled one.

    Exhaustively searches caps and floors with no ceiling; also records the
    two construction candidates (same cap and floor without the ceiling,
    and an uncapped auction whose floor is the old ceiling) whose better
    half is the guaranteed witness whenever the base welfare is positive.
    """
    if params.ceiling is None or params.cap is None:
        raise ValidationError("ceiling-removal check needs a bounded cap and finite ceiling")
    base = expected_welfare(analysis, params)
    same_cap = AuctionParams(params.cap, params.floor, None)
    uncapped = AuctionParams(None, params.ceiling, None)
    w_same = expected_welfare(analysis, same_cap)
    w_uncapped = expected_welfare(analysis, uncapped)
    # The search's candidates run cap by cap, floors ascending; ties keep the first.
    best = max(analysis.no_ceiling_optimum.table, key=lambda c: c.expected_welfare)
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
    q = sell_out_probability(analysis, params)
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


class DecompositionRow(NamedTuple):
    probability: Fraction
    valuations: tuple[MarginalVector, ...]
    allocation: tuple[int, ...]
    sold_out: bool
    thresholds: tuple[int, ...]
    above: tuple[int, ...]
    below: tuple[int, ...]


class DecompositionReport(NamedTuple):
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


def decompose_welfare(analysis: Analysis, cap: int, floor: Fraction) -> DecompositionReport:
    if cap is None:
        raise ValidationError("welfare decomposition needs a bounded cap")
    floor = rat(floor)
    params = AuctionParams(cap, floor, None)
    cost = analysis.instance.cost
    reference = safe_price(cost, cap)
    sell_out_term = ZERO
    above_term = ZERO
    below_term = ZERO
    total = ZERO
    rows = []
    for row, demand in zip(analysis.table.rows, analysis.demand(floor)):
        outcome = run_auction(params, row.valuations, cost)
        total += row.probability * outcome.welfare
        sold_out = demand >= cap
        thresholds = tuple(v.demand(reference) for v in row.valuations)
        if sold_out:
            sell_out_term += row.probability * outcome.welfare
            above = below = tuple(0 for _ in row.valuations)
        else:
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
                above_value - cost.cost(sum(above))
            )
            below_term += row.probability * (
                below_value - cost.cost(sum(below))
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
    analysis: Analysis,
    cap: int,
    floor: Fraction,
    report: DecompositionReport | None = None,
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
        report = decompose_welfare(analysis, cap, floor)
    above_cert = _certify(
        "safe-covers-above",
        analysis.safe_welfare(cap),
        report.sell_out_term + report.above_term,
        cap=cap,
    )
    q = sell_out_probability(analysis, AuctionParams(cap, floor, None))
    rhs = q * report.below_term / 2
    best_half = max(halves(cap), key=analysis.safe_welfare)  # ties keep the smaller
    below_cert = _certify(
        "half-cap-covers-below",
        analysis.safe_welfare(best_half),
        rhs,
        cap=cap,
        half_cap=best_half,
        sell_out_probability=q,
    )
    return above_cert, below_cert


def verify_sellout_factor(analysis: Analysis) -> BoundCertificate:
    """Some safe-price auction is within factor (1 + 2/q) of the best
    no-ceiling auction, q being the optimum's sell-out probability.

    Not applicable when the optimum never sells out (q = 0).
    """
    opt = analysis.no_ceiling_optimum
    base = opt.expected_welfare
    q = sell_out_probability(analysis, opt.params)
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
    best_safe = optimize_safe(analysis)
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
        witness_cap=best_safe.params.cap,
        witness_welfare=best_w,
        multiplier_needed=needed,
        optimum_cap=opt.params.cap,
        optimum_floor=opt.params.floor,
    )


def verify_single_buyer_cover(
    analysis: Analysis,
    constant: int = SINGLE_BUYER_COVER_CONSTANT,
) -> tuple[BoundCertificate, BoundCertificate]:
    """The headline guarantee and its four-term refinement.

    (a) Some safe-price auction, scaled by the cover constant, plus the
    single-buyer welfare, covers the best no-ceiling welfare.
    (b) Safe welfare at the optimal cap, plus single-buyer welfare, plus
    4x safe welfare at the quantile cap, plus 21x safe welfare at half the
    quantile cap, covers the same. Needs product form (independence);
    degenerate when the quantile cap is 0.
    """
    if not analysis.instance.product_form:
        raise ValidationError("single-buyer cover needs independent firms (product form)")
    opt = analysis.no_ceiling_optimum
    base = opt.expected_welfare
    single = single_buyer_expected(analysis)
    best_safe = optimize_safe(analysis)
    headline = _certify(
        "safe-plus-single-buyer-cover",
        constant * best_safe.expected_welfare + single,
        base,
        constant=constant,
        witness_cap=best_safe.params.cap,
        single_buyer_welfare=single,
        optimum_cap=opt.params.cap,
        optimum_floor=opt.params.floor,
    )

    q = sell_out_probability(analysis, opt.params)
    threshold = one_minus_inv_e()
    quantile_cap = demand_quantile_cap(analysis, opt.params.floor)
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

    safe_at = analysis.safe_welfare
    best_half = max(halves(quantile_cap), key=safe_at)
    lhs = safe_at(opt.params.cap) + single + 4 * safe_at(quantile_cap) + 21 * safe_at(best_half)
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
