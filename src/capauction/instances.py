"""Built-in market instances and the seeded random generator.

The named instances are the standard demonstration markets: the two-firm
demand-reduction market, the single-firm log-scale market whose demand
variance defeats every safe-price auction, and its pure-linear variant
whose first-best welfare no capped auction approaches.

The `examples` and `generate` subcommands (their arguments, declared by
`add_arguments`, and their handlers) live here, since only those
subcommands load this module; neither loads `auction`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, Iterable

from .model import (
    MarginalCostTable,
    MarketInstance,
    QuadraticCost,
    REPEAT_LAST,
    TooLargeError,
    ValidationError,
    require_valid,
)

# The most marginal values a built instance may hold, about a 10 MB
# instance file: `logscale(18)` and `first_best(15)` fit.
MARGINAL_LIMIT = 10**6


def _check_marginal_count(label: str, counts: Iterable[int]) -> None:
    """Raise TooLargeError, before anything is built, when the per-scenario
    marginal counts `counts` sum past MARGINAL_LIMIT; the sum stops there,
    so `counts` may be as long as the arguments ask."""
    if any(total > MARGINAL_LIMIT for total in accumulate(counts)):
        raise TooLargeError(f"{label} would hold more than {MARGINAL_LIMIT} marginal values")


def demand_reduction() -> MarketInstance:
    """Two point-mass firms, marginals (10,10) and (6,1), linear cost 9x.

    Truthful play sells two licenses to the first firm; shading its second
    bid drops the uniform price enough to flip welfare negative.
    """
    return MarketInstance(
        firms=(
            ((Fraction(1), (Fraction(10), Fraction(10))),),
            ((Fraction(1), (Fraction(6), Fraction(1))),),
        ),
        cost=MarginalCostTable((Fraction(9), Fraction(9)), REPEAT_LAST),
        label="demand-reduction",
    )


def scale_weight(n: int) -> Fraction:
    """Normalization constant of the log-scale distributions: sum of 4^-i."""
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    return sum((Fraction(1, 4**i) for i in range(1, n + 1)), Fraction(0))


def _doubling(n: int, units: Callable[[int], int], label: str) -> MarketInstance:
    """Single firm, n scenarios, quadratic cost: scenario i has units(i)
    marginals of value 2^(i+1) with probability proportional to 4^-i."""
    _check_marginal_count(label, map(units, range(1, n + 1)))
    beta = scale_weight(n)
    scenarios = tuple(
        (Fraction(1, 4**i) / beta, (Fraction(2 ** (i + 1)),) * units(i))
        for i in range(1, n + 1)
    )
    return MarketInstance(firms=(scenarios,), cost=QuadraticCost(Fraction(1)), label=label)


def logscale(n: int) -> MarketInstance:
    """Log-scale market: scenario i has 2^i marginals, so demand doubles
    while probability quarters and no single cap fits more than a constant
    slice of the welfare."""
    return _doubling(n, lambda i: 2**i, f"logscale-{n}")


def first_best(n: int, horizon: int | None = None) -> MarketInstance:
    """Pure-linear variant of the log-scale market.

    Scenario i values every license at 2^(i+1), truncated at a horizon
    past the largest scenario's cost intercept (default 2^(n+1)) so the
    marginal list stays finite without changing any welfare figure.
    """
    # 2^(n+1) is cut where the answer is known: past the limit's bit length the
    # count check fails, and a given horizon's bit length decides horizon < 2^(n+1).
    if horizon is None:
        horizon = 2 ** min(n + 1, MARGINAL_LIMIT.bit_length())
    elif n >= 1 and horizon < 2 ** min(n + 1, horizon.bit_length()):  # n < 1: scale_weight's error
        raise ValidationError(f"horizon {horizon} cuts into the largest scenario's surplus range")
    return _doubling(n, lambda i: horizon, f"first-best-{n}")


NAMED_INSTANCES = ("demand-reduction", "logscale", "first-best")


def named_instance(name: str, n: int | None = None, horizon: int | None = None) -> MarketInstance:
    if horizon is not None and name != "first-best":
        raise ValidationError(f"{name} takes no horizon; only first-best does")
    if name == "demand-reduction":
        if n is not None:
            raise ValidationError(f"{name} takes no -n; only logscale and first-best do")
        return demand_reduction()
    if n is None:
        n = 5
    if name == "logscale":
        return logscale(n)
    if name == "first-best":
        return first_best(n, horizon)
    raise ValidationError(f"unknown example {name!r}; choose from {NAMED_INSTANCES}")


def generate(
    seed: int,
    firms: int = 2,
    scenarios_per_firm: int = 2,
    max_units: int = 4,
    value_low: int = 1,
    value_high: int = 12,
    cost_kind: str = "quadratic",
) -> MarketInstance:
    """Deterministic random instance from a seed; always passes validation.

    Marginals are sorted random integers, probabilities are random positive
    integers normalized exactly, and the cost curve is either a small
    quadratic or a random convex marginal table with a linear tail.
    """
    if firms < 1 or scenarios_per_firm < 1 or max_units < 1:
        raise ValidationError("sizes must be positive")
    if value_low < 0 or value_high < value_low:
        raise ValidationError(f"bad value range [{value_low}, {value_high}]")
    # Each scenario holds at most max_units marginals, and a marginal cost
    # table firms * max_units, no more than the scenarios hold together.
    _check_marginal_count(f"random-{seed}", repeat(max_units, firms * scenarios_per_firm))
    rng = random.Random(seed)
    firm_list = []
    for _ in range(firms):
        weights = [rng.randint(1, 9) for _ in range(scenarios_per_firm)]
        total = sum(weights)
        rows = []
        for w in weights:
            units = rng.randint(1, max_units)
            marginals = sorted(
                (rng.randint(value_low, value_high) for _ in range(units)), reverse=True
            )
            rows.append((Fraction(w, total), tuple(Fraction(v) for v in marginals)))
        firm_list.append(tuple(rows))

    if cost_kind == "quadratic":
        cost = QuadraticCost(Fraction(rng.randint(1, 4), rng.choice((1, 2))))
    elif cost_kind == "marginals":
        length = firms * max_units
        step = Fraction(rng.randint(0, 3))
        steps = []
        for _ in range(length):
            step += rng.randint(0, 3)
            steps.append(step)
        cost = MarginalCostTable(tuple(steps), REPEAT_LAST)
    else:
        raise ValidationError(f"unknown cost kind {cost_kind!r}")

    return MarketInstance(
        firms=tuple(firm_list), cost=cost, label=f"random-{seed}"
    )


def add_arguments(parser, name: str) -> None:
    """Declare the arguments of the `examples` or `generate` subcommand
    and set its handler."""
    if name == "examples":
        parser.add_argument("name", choices=NAMED_INSTANCES)
        parser.add_argument("-n", type=int,
                            help="scenario count for the scaled families (default 5)")
        parser.add_argument("--horizon", type=int, help="marginal-list truncation for first-best")
        parser.set_defaults(func=cmd_examples)
    else:
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--firms", type=int, default=2)
        parser.add_argument("--scenarios", type=int, default=2)
        parser.add_argument("--max-units", type=int, default=4)
        parser.add_argument("--value-range", type=int, nargs=2, default=(1, 12))
        parser.add_argument("--cost-kind", choices=("quadratic", "marginals"), default="quadratic")
        parser.set_defaults(func=cmd_generate)
    parser.add_argument("--out", required=True)


def cmd_examples(args) -> int:
    """`capauction examples`: write a named instance file."""
    from .io import save_instance  # only the handlers write files

    instance = named_instance(args.name, n=args.n, horizon=args.horizon)
    save_instance(instance, args.out)
    print(f"wrote {instance.label} to {args.out}")
    return 0


def cmd_generate(args) -> int:
    """`capauction generate`: write a seeded random instance file."""
    from .io import save_instance  # only the handlers write files

    instance = generate(
        seed=args.seed,
        firms=args.firms,
        scenarios_per_firm=args.scenarios,
        max_units=args.max_units,
        value_low=args.value_range[0],
        value_high=args.value_range[1],
        cost_kind=args.cost_kind,
    )
    require_valid(instance)  # generator contract: never fails
    save_instance(instance, args.out)
    print(f"wrote {instance.label} to {args.out}")
    return 0
