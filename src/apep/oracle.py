"""Exhaustive reference solvers.

These enumerate candidate relations column by column (resource by resource,
non-empty user subsets in increasing mask order), so the first witness found
is the lexicographically least one.  The search keeps two bounds per column:
an assigned column ``j`` has ``lo[j] == hi[j]`` equal to its chosen users, an
unassigned one has ``lo[j] == 0`` and ``hi[j]`` its base column.  Right after
column ``j`` is assigned, each constraint that reads ``j`` checks
``admits(lo, hi)``, which rejects only prefixes that no completion can
satisfy and is exact once every column it reads is assigned.  That makes the
search a sound and complete decision procedure.  A budget on the raw
candidate count guards against silently unbounded runs.

The solvers in :mod:`apep.solve` are tested against these oracles; keep this
module simple and obviously correct.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .model import AuthorizationRelation, Instance
from .verify import check_valid

DEFAULT_BUDGET = 1 << 24


class CapacityError(RuntimeError):
    """Raised when a search space exceeds its configured budget."""


def candidate_count(inst: Instance) -> int:
    """Number of subrelations of the base, the raw search space size."""
    return 1 << inst.base.size


def _check_budget(inst: Instance, budget: int) -> None:
    if candidate_count(inst) > budget:
        raise CapacityError(
            f"candidate space 2^{inst.base.size} exceeds budget {budget}; "
            "raise the budget or reduce the instance first"
        )


def _search(inst: Instance) -> tuple[list[int], Callable[[int], Iterator[int]]]:
    """The lower bounds ``lo`` and the per-column assignment generator.

    ``choices(j)`` assigns column ``j`` each non-empty subset of its base
    column in increasing mask order, and yields the subset when every
    constraint that reads ``j`` still admits the bounds.  Once exhausted it
    leaves column ``j`` unassigned again.
    """
    k = inst.k
    cols = inst.base.cols
    lo, hi = [0] * k, list(cols)
    readers = [
        [c for c in inst.constraints if j in (c.resources or range(k))]
        for j in range(k)
    ]

    def choices(j: int) -> Iterator[int]:
        m = cols[j]
        sub = 0
        while sub != m:
            sub = (sub - m) & m
            lo[j] = hi[j] = sub
            if all(c.admits(lo, hi) for c in readers[j]):
                yield sub
        lo[j], hi[j] = 0, m

    return lo, choices


def brute_decide(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> AuthorizationRelation | None:
    """First (lexicographically least) valid relation, or None when unsat."""
    _check_budget(inst, budget)
    k = inst.k
    lo, choices = _search(inst)

    # a generator left at a witness keeps its column assigned, so on
    # success ``lo`` holds the witness
    def rec(j: int) -> bool:
        return j == k or any(rec(j + 1) for _ in choices(j))

    if not rec(0):
        return None
    rel = AuthorizationRelation.from_cols(inst.n, inst.k, lo)
    assert check_valid(inst, rel).valid
    return rel


def brute_maximize(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> tuple[AuthorizationRelation, int] | None:
    """A maximum-size valid relation and its size, or None when unsat.

    Ties keep the first maximum in enumeration order, so the result is
    deterministic.
    """
    _check_budget(inst, budget)
    k = inst.k
    cols = inst.base.cols
    lo, choices = _search(inst)

    suffix_cap = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix_cap[j] = suffix_cap[j + 1] + cols[j].bit_count()

    best: tuple[int, ...] | None = None
    best_size = -1

    def rec(j: int, acc: int) -> None:
        nonlocal best, best_size
        if j == k:
            if acc > best_size:
                best_size = acc
                best = tuple(lo)
            return
        if acc + suffix_cap[j] <= best_size:
            return
        for sub in choices(j):
            rec(j + 1, acc + sub.bit_count())

    rec(0, 0)
    if best is None:
        return None
    rel = AuthorizationRelation.from_cols(inst.n, inst.k, best)
    assert check_valid(inst, rel).valid and rel.size == best_size
    return rel, best_size
