"""Built-in market instances and the seeded random generator.

The named instances are the standard demonstration markets: the two-firm
demand-reduction market, the single-firm log-scale market whose demand
variance defeats every safe-price auction, and its pure-linear variant
whose first-best welfare no capped auction approaches.

The `examples` and `generate` subcommands' handlers live here, since only
those subcommands load this module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import (
    FirmDistribution,
    MarginalCostTable,
    MarginalVector,
    MarketInstance,
    QuadraticCost,
    REPEAT_LAST,
    ValidationError,
    validate,
)


def demand_reduction() -> MarketInstance:
    """Two point-mass firms, marginals (10,10) and (6,1), linear cost 9x.

    Truthful play sells two licenses to the first firm; shading its second
    bid drops the uniform price enough to flip welfare negative.
    """
    return MarketInstance(
        firms=(
            FirmDistribution.point_mass(MarginalVector.of(10, 10)),
            FirmDistribution.point_mass(MarginalVector.of(6, 1)),
        ),
        cost=MarginalCostTable((Fraction(9), Fraction(9)), REPEAT_LAST),
        label="demand-reduction",
    )


def scale_weight(n: int) -> Fraction:
    """Normalization constant of the log-scale distributions: sum of 4^-i."""
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    return sum((Fraction(1, 4**i) for i in range(1, n + 1)), Fraction(0))


def logscale(n: int) -> MarketInstance:
    """Single firm, n geometric scenarios, quadratic cost.

    Scenario i has 2^i marginals of value 2^(i+1) with probability
    proportional to 4^-i: demand doubles while probability quarters, so no
    single cap fits more than a constant slice of the welfare.
    """
    beta = scale_weight(n)
    scenarios = tuple(
        (
            Fraction(1, 4**i) / beta,
            MarginalVector(tuple(Fraction(2 ** (i + 1)) for _ in range(2**i))),
        )
        for i in range(1, n + 1)
    )
    return MarketInstance(
        firms=(FirmDistribution(scenarios),),
        cost=QuadraticCost(Fraction(1)),
        label=f"logscale-{n}",
    )


def first_best(n: int, horizon: int | None = None) -> MarketInstance:
    """Pure-linear variant of the log-scale market.

    Scenario i values every license at 2^(i+1), truncated at a horizon
    past the largest scenario's cost intercept (default 2^(n+1)) so the
    marginal list stays finite without changing any welfare figure.
    """
    beta = scale_weight(n)
    if horizon is None:
        horizon = 2 ** (n + 1)
    if horizon < 2 ** (n + 1):
        raise ValidationError(
            f"horizon {horizon} cuts into the largest scenario's surplus range"
        )
    scenarios = tuple(
        (
            Fraction(1, 4**i) / beta,
            MarginalVector(tuple(Fraction(2 ** (i + 1)) for _ in range(horizon))),
        )
        for i in range(1, n + 1)
    )
    return MarketInstance(
        firms=(FirmDistribution(scenarios),),
        cost=QuadraticCost(Fraction(1)),
        label=f"first-best-{n}",
    )


NAMED_INSTANCES = ("demand-reduction", "logscale", "first-best")


def named_instance(name: str, n: int = 5, horizon: int | None = None) -> MarketInstance:
    if horizon is not None and name != "first-best":
        raise ValidationError(f"{name} takes no horizon; only first-best does")
    if name == "demand-reduction":
        return demand_reduction()
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
            rows.append(
                (Fraction(w, total), MarginalVector(tuple(Fraction(v) for v in marginals)))
            )
        firm_list.append(FirmDistribution(tuple(rows)))

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
    problems = validate(instance)
    if problems:  # generator contract: never happens
        raise ValidationError("; ".join(problems))
    save_instance(instance, args.out)
    print(f"wrote {instance.label} to {args.out}")
    return 0
