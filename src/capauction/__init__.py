"""Capped uniform-price license auctions with convex social cost.

Exact-rational simulation of the allocation rule, exhaustive welfare
optimization over caps and price bands, grid-equilibrium search under
no-overbidding, and machine-checked certificates for the welfare
guarantees relating safe-price auctions, sell-out probability, and the
single-buyer mechanism.

The package root re-exports nothing; import each name from its module:

- `model`: valuations, instances, cost curves (`costs`) and the errors;
- `auction`: the allocation rule, the price grid, `Analysis` and the limits;
- `analysis`: the cap-and-price sweeps and `evaluate` and `optimize`;
- `equilibrium`: the grid-equilibrium search, its PoA check and `equilibrium`;
- `bounds`: the welfare certificates and `verify`;
- `instances`: the named instances, the generator, `examples` and `generate`;
- `io`: instance files, CSV reports and the text forms of CLI values;
- `cli`: the subcommands' names, dispatch and exit codes.
"""

__version__ = "0.1.0"
