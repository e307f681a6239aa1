"""Capped uniform-price license auctions with convex social cost.

Exact-rational simulation of the allocation rule, exhaustive welfare
optimization over caps and price bands, grid-equilibrium search under
no-overbidding, and machine-checked certificates for the welfare
guarantees relating safe-price auctions, sell-out probability, and the
single-buyer mechanism.
"""

from .analysis import (
    Analysis,
    Candidate,
    OptResult,
    ScenarioRow,
    ScenarioTable,
    demand_quantile_cap,
    enumerate_scenarios,
    expected_welfare,
    first_best_expected,
    one_minus_inv_e,
    optimize_cap_and_price,
    optimize_safe,
    safe_welfare_table,
    sell_out_probability,
    single_buyer_expected,
)
from .auction import (
    CAP_BINDS,
    CEILING_BINDS,
    FLOOR_BINDS,
    HIGHEST_LOSING,
    LOWEST_WINNING,
    AuctionParams,
    Outcome,
    SingleBuyerOutcome,
    best_own_quantity,
    make_safe_auction,
    price_candidates,
    run_auction,
    safe_price,
    single_buyer_mechanism,
)
from .bounds import (
    BoundCertificate,
    DecompositionReport,
    decompose_welfare,
    halves,
    price_gap_at_half,
    verify_ceiling_removal,
    verify_decomposition_bounds,
    verify_price_gap,
    verify_sellout_conditional,
    verify_sellout_factor,
    verify_single_buyer_cover,
)
from .equilibrium import (
    POA_FACTOR,
    BestResponse,
    EquilibriumReport,
    PoACheck,
    StrategyProfile,
    best_response,
    bid_grid,
    candidate_reports,
    check_poa_bound,
    find_grid_equilibria,
    satisfies_no_overbidding,
    utility,
)
from .instances import demand_reduction, first_best, generate, logscale, scale_weight
from .io import (
    dumps_instance,
    format_decimal,
    format_rational,
    load_instance,
    loads_instance,
    save_instance,
)
from .model import (
    CostCurve,
    FirmDistribution,
    MarginalCostTable,
    MarginalVector,
    MarketError,
    MarketInstance,
    QuadraticCost,
    TooLargeError,
    ValidationError,
    average_cost,
    combined_valuation,
    cost_table,
    interpolated_cost,
    quadratic,
    rat,
    validate,
    welfare_of,
)

__version__ = "0.1.0"
