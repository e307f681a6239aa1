"""Capped uniform-price license auctions with convex social cost.

Exact-rational simulation of the allocation rule, exhaustive welfare
optimization over caps and price bands, grid-equilibrium search under
no-overbidding, and machine-checked certificates for the welfare
guarantees relating safe-price auctions, sell-out probability, and the
single-buyer mechanism.
"""

from importlib import import_module

# Each public name and the submodule that defines it. A submodule is
# imported on first use of one of its names, so `python -m capauction.cli`
# loads only what its subcommand needs.
_EXPORTS = {
    "analysis": ("Candidate", "OptResult", "optimize_cap_and_price", "optimize_safe"),
    "auction": (
        "CAP_BINDS", "CEILING_BINDS", "FLOOR_BINDS", "HIGHEST_LOSING", "LOWEST_WINNING",
        "Analysis", "AuctionParams", "price_candidates",
    ),
    "bounds": (
        "BoundCertificate", "demand_quantile_cap", "one_minus_inv_e", "single_buyer_expected",
        "verify_ceiling_removal", "verify_decomposition_bounds",
        "verify_price_gap", "verify_sellout_conditional", "verify_sellout_factor",
        "verify_single_buyer_cover", "worst_price_gap",
    ),
    "equilibrium": (
        "POA_FACTOR", "EquilibriumReport", "PoACheck", "check_poa_bound", "find_grid_equilibria",
    ),
    "instances": (
        "demand_reduction", "first_best", "generate", "logscale", "scale_weight",
    ),
    "io": (
        "dumps_instance", "format_decimal", "load_instance", "loads_instance", "save_instance",
    ),
    "model": (
        "CostCurve", "MarginalCostTable", "MarketError", "MarketInstance", "QuadraticCost",
        "TooLargeError", "ValidationError", "costs", "rat", "validate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
