"""The benchmark's workloads: which instances each run draws from its seed.

A workload is a list of cases. Each case names an instance (family, seed,
parameters) and the calls made on it: ``certify`` runs ``solve_rawe``,
``solve_rnwe`` and ``pra_report``; ``oracle`` runs ``solve_rnwe`` and
``max_shortest_path_oracle``. One round of a run executes every case once.

The run's seed picks the instance seeds, so different seeds give different
instances of the same make-up. Where an instance's cost follows a property
that can be read off the instance before solving it (its path count), the
draw fills a fixed quota per class of that property, so every seed gets a
round of the same cost; see README.md for the quotas and why.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("certify-general", "certify-wide", "stdev-general", "oracle-sp")

#: Instances per round of certify-general. Costs spread widely (median about
#: 1 ms, the slowest about 70 ms), so only a large draw gives every seed the
#: same throughput and tail.
GENERAL_ROUND = 2000

#: certify-wide path-count classes: the 5% quantiles of the path count over
#: random_general n=20, m=60 seeds 0-2999 that stay within the library's
#: 10,000-path cap (2,913 of them); each round takes WIDE_PER_CLASS from each.
WIDE_CLASS_EDGES = (
    346, 479, 596, 719, 824, 964, 1087, 1231, 1398, 1548,
    1776, 2005, 2266, 2596, 2906, 3371, 4030, 4883, 6652, 10_000,
)
WIDE_PER_CLASS = 3
WIDE_N, WIDE_M = 20, 60

#: stdev-general runs this fixed pool, seeds 0-79, which holds the heavy tail:
#: seed 12 needs 36,659 iterations and seed 49 4,821. About half of all
#: mean-stdev instances are solved in one iteration (1-2 ms) and the rest
#: take 2.5 ms and more; in a pool with exactly half of each, as seeds 0-99
#: are, the median sits in that gap and jumps with timing noise. Seeds 0-79
#: hold 43 one-iteration instances, so the median falls inside that group.
STDEV_POOL = 80

#: oracle-sp quota by path count, close to the shares over random_sp seeds
#: 0-999 (1: 16%, 2: 35%, 3: 26%, 4: 19%, 5: 2.9%, 6: 1.1%). With the three
#: zigzag cases a round holds 100, so the median falls inside the 2-path
#: class and the tail (p90) inside the 4-path class, not on a class boundary.
ORACLE_QUOTA = {1: 17, 2: 35, 3: 25, 4: 17, 5: 2, 6: 1}
ORACLE_GRID = 100
ORACLE_MAX_PATHS = 6
#: Zigzag k with the grid the verify oracle suite uses for it.
ZIGZAG_GRIDS = ((2, 100), (3, 30), (4, 10))
ZIGZAG_MAX_PATHS = 10

#: Seed spacing between runs, so two run seeds never share an instance.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Case:
    kind: str  # "certify" or "oracle"
    family: str
    seed: int | None
    params: dict = field(default_factory=dict)
    grid: int = 0
    max_paths: int = 0

    @property
    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}[seed={self.seed},{extra}]"


def _general(seed: int, risk_model: str) -> Case:
    # drawn as `riskroute verify --suite bound-chain` draws its instances
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = rng.randint(n, 2 * n)
    return Case("certify", "random_general", seed, dict(n=n, m=m, risk_model=risk_model))


def _oracle_sp(seed: int) -> Case:
    # drawn as `riskroute verify --suite oracle` draws its instances
    budget = random.Random(seed).randint(2, 4)
    return Case(
        "oracle",
        "random_sp",
        seed,
        dict(budget=budget, max_paths=ORACLE_MAX_PATHS),
        grid=ORACLE_GRID,
        max_paths=ORACLE_MAX_PATHS,
    )


def _fill_quota(
    start: int,
    make_case: Callable[[int], Case],
    class_of: Callable[[Case], int | None],
    quota: dict[int, int],
) -> list[Case]:
    """Scan instance seeds from ``start`` and keep each case whose class still
    has room, until every class is full; cases come out in seed order."""
    room = dict(quota)
    chosen = []
    seed = start
    while any(room.values()):
        case = make_case(seed)
        cls = class_of(case)
        if room.get(cls, 0) > 0:
            room[cls] -= 1
            chosen.append(case)
        seed += 1
        if seed - start >= SEED_STRIDE:
            raise RuntimeError(f"quota {quota} not met within {SEED_STRIDE} seeds")
    return chosen


def draw(name: str, seed: int, path_count: Callable[[Case], int]) -> list[Case]:
    """The cases of one round of workload ``name`` for run seed ``seed``.

    ``path_count`` returns the number of source-sink paths of a case's
    instance; the quota draws use it to classify candidates.
    """
    start = seed * SEED_STRIDE
    if name == "certify-general":
        return [_general(start + i, "mean-var") for i in range(GENERAL_ROUND)]
    if name == "certify-wide":

        def wide(s: int) -> Case:
            return Case("certify", "random_general", s, dict(n=WIDE_N, m=WIDE_M))

        def ventile(case: Case) -> int | None:
            k = path_count(case)
            # beyond the last edge the library refuses the instance by design
            return bisect.bisect_left(WIDE_CLASS_EDGES, k) if k <= WIDE_CLASS_EDGES[-1] else None

        quota = {c: WIDE_PER_CLASS for c in range(len(WIDE_CLASS_EDGES))}
        return _fill_quota(start, wide, ventile, quota)
    if name == "stdev-general":
        # A seed-drawn pool would hold a 5-20 s instance in some runs and
        # none in others, so the pool is fixed and the seed sets the order.
        cases = [_general(s, "mean-stdev") for s in range(STDEV_POOL)]
        random.Random(seed).shuffle(cases)
        return cases
    if name == "oracle-sp":
        cases = _fill_quota(start, _oracle_sp, path_count, ORACLE_QUOTA)
        for k, grid in ZIGZAG_GRIDS:
            cases.append(
                Case("oracle", "zigzag", None, dict(k=k), grid=grid, max_paths=ZIGZAG_MAX_PATHS)
            )
        return cases
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
