"""The exhaustive two-firm universe: every certificate of `verify --which
all`, at its default parameters, on every market of a small closed family.

Each type is a non-increasing vector of one or two units in {1, ..., 4}
(14 vectors). A firm has one type, or two distinct types, taken in either
order, with probabilities (1/2, 1/2) or (1/3, 2/3): 378 firms, each
(1/2, 1/2) firm once per order of its types. The cost is a * x^2
with a in {1/2, 1, 2}. Every unordered pair of firms under each cost is
one market: 214,893 markets.

On each market every certificate but `safe-covers-above` must hold or be
not applicable, every verdict must follow from its recorded sides, and
`safe-covers-above` with the above units charged at the safe price (the
corrected bound of `oracles.safe_covers_charged_above`) must hold. The
script prints the verdict counts and exits 1 on any other outcome.

Not collected by pytest. It takes a few minutes; run from the repository
root with

    PYTHONPATH=src python tests/universe.py

with one worker process per CPU.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from multiprocessing import get_context

from capauction.auction import Analysis
from capauction.bounds import DEFAULT_GAP_LIMIT, worst_price_gap
from capauction.model import MarketInstance
from oracles import (  # this script's directory is on sys.path
    firm_distribution, mv, point_mass, quadratic, safe_covers_charged_above, verify_all,
)

COSTS = (Fraction(1, 2), Fraction(1), Fraction(2))
CHUNK = 2000


def firms() -> list:
    vectors = [mv(v) for v in range(4, 0, -1)] + [
        mv(*pair) for pair in combinations_with_replacement(range(4, 0, -1), 2)
    ]
    return [point_mass(v) for v in vectors] + [
        firm_distribution((p, v), (1 - p, w))
        for p in (Fraction(1, 2), Fraction(1, 3))
        for v, w in permutations(vectors, 2)
    ]


def check(task) -> tuple[Counter, list]:
    """Verdict counts of one chunk of markets, and what went wrong on it."""
    a, pairs = task
    cost = quadratic(a)
    unsafe = worst_price_gap(cost, DEFAULT_GAP_LIMIT)
    counts, wrong = Counter(), []
    for pair in pairs:
        market = MarketInstance(pair, cost)
        analysis = Analysis(market)
        for cert in verify_all(analysis, unsafe):
            verdict = "n/a" if cert.holds is None else ("pass" if cert.holds else "FAIL")
            counts[cert.name, cert.status, verdict] += 1
            if cert.holds is None:
                ok = cert.status in ("not-applicable", "degenerate")
            else:
                ok = cert.holds == (cert.lhs >= cert.rhs)
                ok = ok and (cert.holds or cert.name == "safe-covers-above")
            if not ok:
                wrong.append((market, cert))
        charged = safe_covers_charged_above(analysis)
        counts["charged-safe-covers-above", "checked", "pass" if charged else "FAIL"] += 1
        if not charged:
            wrong.append((market, "charged safe-covers-above fails"))
        counts["markets", "", ""] += 1
    return counts, wrong


def main() -> int:
    pairs = list(combinations_with_replacement(firms(), 2))
    tasks = [(a, pairs[i:i + CHUNK]) for a in COSTS for i in range(0, len(pairs), CHUNK)]
    counts, wrong = Counter(), []
    with get_context("spawn").Pool() as pool:
        for got, bad in pool.imap_unordered(check, tasks):
            counts.update(got)
            wrong.extend(bad)
    for (name, status, verdict), n in sorted(counts.items()):
        print(f"{n:8}  {name} {status} {verdict}".rstrip())
    for market, what in wrong[:20]:
        print(f"WRONG: {what} on {market}", file=sys.stderr)
    if counts["markets", "", ""] != 214_893:
        print(f"expected 214893 markets, got {counts['markets', '', '']}", file=sys.stderr)
        return 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
