"""Seeded operation streams for the three benchmark workloads.

A workload is a cycle of instance shapes.  Op ``i`` takes its shape from
its position in the cycle, so every run sees the same mix of shapes in the
same proportions.  Its user count n walks the workload's size range along
a golden-ratio sequence, one per shape: n is continuous, and every run,
long or short, spreads each shape's n evenly over the range.  The walks do
not depend on the seed, so op ``i`` has the same shape and n in every run;
the seed draws the instance contents.  Runs on different seeds then differ
in what they solve, not in how their sizes happen to fall, which keeps
percentiles from moving with the seed.  Op ``i`` depends only on the seed,
the workload and ``i``, never on how many ops a run gets through, which is
what lets the first ops of a stream carry pinned answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Shape:
    """One instance class: solve mode, resource count and constraint counts.

    ``counts`` holds ``(field, count)`` pairs: how many constraints of each
    ``GenParams`` species (``sodu``, ``bode``, ``smer``, ...) to draw.
    """

    mode: str
    k: int
    counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[Shape, ...]
    n_min: int
    n_max: int
    log_n: bool

    def op(self, seed: int, i: int, smallest: bool = False) -> tuple[dict, str]:
        """``GenParams`` fields and the solve mode of op ``i``.

        ``smallest`` pins n to the low end of the range, for warm-up ops.
        """
        cycle, pos = divmod(i, len(self.shapes))
        shape = self.shapes[pos]
        start = random.Random(f"{self.name}/shape/{pos}").random()
        u = 0.0 if smallest else (start + cycle * _GOLDEN) % 1.0
        if self.log_n:
            n = round(self.n_min * (self.n_max / self.n_min) ** u)
        else:
            n = round(self.n_min + (self.n_max - self.n_min) * u)
        rng = random.Random(f"{seed}/{self.name}/op/{i}")
        params = dict(shape.counts, n=n, k=shape.k, seed=rng.randrange(1 << 31))
        return params, shape.mode


def _grid(mode: str, ks, species: str) -> tuple[Shape, ...]:
    return tuple(Shape(mode, k, ((species, c),)) for k in ks for c in (2, 3, 4))


# Universal separation only, maximized: pattern enumeration, omega tables,
# matching and the per-pattern check do the work.
SODU_MAX = Workload(
    name="sodu_max",
    shapes=_grid("max", (5, 6, 7), "sodu"),
    n_min=100,
    n_max=400,
    log_n=False,
)

# Existential separation only, maximized: the subset DP does nearly all the
# work; matching, reductions and parsing almost none.
SODE_MAX = Workload(
    name="sode_max",
    shapes=_grid("max", (8, 9, 10), "sode"),
    n_min=20,
    n_max=80,
    log_n=False,
)


def _decide_bulk_shapes() -> tuple[Shape, ...]:
    # Five routes, four variants each, interleaved so that any five
    # consecutive ops cover every route once.  sod_u stays at k <= 4 because
    # its decide mode still runs the full max sweep, whose cost grows with
    # n times the pattern count; the kernel route stays at k = 3, where the
    # kernel search is small.
    per_route = [
        # bod_u_merge
        [Shape("decide", k, (("bodu", 2),)) for k in (3, 4, 5, 6)],
        # bod_e_base
        [Shape("decide", k, (("bode", 2),)) for k in (3, 4, 5, 6)],
        # bod_e_sod_u_wsp
        [Shape("decide", k, (("bode", 1), ("sodu", 1))) for k in (3, 4, 5, 6)],
        # sod_u_patterns
        [Shape("decide", k, (("sodu", c),)) for k in (3, 4) for c in (1, 2)],
        # bounded_kernel
        [Shape("decide", 3, ((kind, 1),)) for kind in ("smer", "teamsod", "smer", "teamsod")],
    ]
    return tuple(route[v] for v in range(4) for route in per_route)


# Decide at large n over five routes: parsing, serialization, Instance.create,
# reductions and standalone verification dominate.
DECIDE_BULK = Workload(
    name="decide_bulk",
    shapes=_decide_bulk_shapes(),
    n_min=2000,
    n_max=20000,
    log_n=True,
)

WORKLOADS = {w.name: w for w in (SODU_MAX, SODE_MAX, DECIDE_BULK)}
