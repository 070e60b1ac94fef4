"""Solvers and routing.

Specialized algorithms per constraint profile, each returning a uniform
report.  The exponential parts are parameterized by the resource count k
(patterns, subset DP, kernels), never by the user count.
"""

from __future__ import annotations

import functools
import heapq
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

from .matching import max_weight_row_saturating
from .model import (
    AuthorizationRelation,
    Instance,
    PairConstraint,
    eval_constraint,
    indices_of,
    iter_submasks,
)
from .oracle import DEFAULT_BUDGET, CapacityError, brute_decide, brute_maximize
from .reduce import (
    TriviallyUnsat,
    WspInstance,
    _DisjointSet,
    apply_reduction_rule,
    eliminate_bod_u,
    from_wsp_plan,
    lift_merged_classes,
    lift_removed_users,
    to_wsp,
)
from .verify import check_valid, instance_bound

MAX_PATTERN_RESOURCES = 16
MODES = ("decide", "max")


@dataclass(frozen=True)
class SolveReport:
    """Uniform solver outcome.

    ``max_size`` is filled by routes that compute the maximum solution size;
    decision-only routes leave it None.  ``counters`` carries route-specific
    entries: ``patterns_explored`` (the sod_u and planning routes),
    ``dp_states`` (sod_e), ``users_removed`` (the kernel route), ``steps``
    (the planning route's step count) and ``reason`` (why the merge or kernel
    route found the instance unsatisfiable).
    """

    algorithm: str
    satisfiable: bool
    witness: AuthorizationRelation | None = None
    max_size: int | None = None
    counters: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _verify_witness(
    inst: Instance, witness: AuthorizationRelation | None, size: int | None, source: str
) -> None:
    """The one check every returned witness passes.

    The witness must be a valid relation of the instance and, when a size
    is reported, have that many pairs.  Raises ``AssertionError`` itself
    rather than through ``assert``, so the check also runs under
    ``python -O``.
    """
    if witness is None or not check_valid(inst, witness).valid:
        raise AssertionError(f"{source} returned an invalid witness")
    if size is not None and witness.size != size:
        raise AssertionError(
            f"{source} reported size {size} for a witness of size {witness.size}"
        )


class Route:
    """One row of the route table, callable as the solver it names.

    ``algo`` is the name ``apep solve --algo`` selects the route by,
    ``kinds`` the constraint kinds it accepts (None accepts any mix) and
    ``modes`` the solve modes it answers.  A call rejects instances with
    other kinds, times the solver into ``wall_time`` and verifies a sat
    witness once before returning the report.
    """

    def __init__(
        self,
        algo: str,
        kinds: Iterable[str] | None,
        modes: tuple[str, ...],
        fn: Callable[..., SolveReport],
    ):
        self.algo = algo
        self.kinds = None if kinds is None else frozenset(kinds)
        self.modes = modes
        self.fn = fn
        functools.update_wrapper(self, fn)

    def accepts(self, kinds: frozenset[str], mode: str) -> bool:
        return mode in self.modes and (self.kinds is None or kinds <= self.kinds)

    def __call__(self, inst: Instance, *args, **kwargs) -> SolveReport:
        if self.kinds is not None:
            kinds = inst.constraint_kinds()
            if not kinds <= self.kinds:
                raise ValueError(
                    f"the {self.algo} route takes only {'/'.join(sorted(self.kinds))} "
                    f"constraints, got {sorted(kinds)}"
                )
        t0 = time.perf_counter()
        report = self.fn(inst, *args, **kwargs)
        if report.satisfiable:
            _verify_witness(inst, report.witness, report.max_size, report.algorithm)
        return replace(report, wall_time=time.perf_counter() - t0)


def _route(
    algo: str, kinds: Iterable[str] | None, modes: tuple[str, ...] = MODES
) -> Callable[[Callable[..., SolveReport]], Route]:
    return lambda fn: Route(algo, kinds, modes, fn)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """A set partition of the resources into non-empty blocks.

    Blocks are resource masks, disjoint, covering all resources, ordered by
    their smallest member.  A pattern stands for a solution shape: resources
    in one block are served by one dedicated user.
    """

    n_resources: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        union = 0
        prev_low = -1
        for b in self.blocks:
            if b == 0:
                raise ValueError("empty block")
            if b & union:
                raise ValueError("blocks overlap")
            low = b & -b
            if low <= prev_low:
                raise ValueError("blocks must be ordered by smallest member")
            prev_low = low
            union |= b
        if union != (1 << self.n_resources) - 1:
            raise ValueError("blocks must cover every resource")

    @classmethod
    def from_sets(cls, n_resources: int, sets: Sequence[Sequence[int]]) -> "Pattern":
        masks = []
        for s in sets:
            mask = 0
            for r in s:
                mask |= 1 << r
            masks.append(mask)
        masks.sort(key=lambda b: b & -b)
        return cls(n_resources, tuple(masks))


def enumerate_eligible_patterns(
    k: int, conflicts: Sequence[tuple[int, int]]
) -> Iterator[Pattern]:
    """Set partitions of k resources, skipping blocks that contain a
    conflicting pair.

    Enumeration follows restricted growth strings in ascending lexicographic
    order: resource 0 opens block 0, each later resource joins an existing
    block (in order) or opens the next one.
    """
    conf = [0] * k
    for a, b in conflicts:
        conf[a] |= 1 << b
        conf[b] |= 1 << a

    blocks: list[int] = []

    def rec(i: int) -> Iterator[Pattern]:
        if i == k:
            yield Pattern(k, tuple(blocks))
            return
        bit = 1 << i
        for b in range(len(blocks)):
            if blocks[b] & conf[i]:
                continue
            blocks[b] |= bit
            yield from rec(i + 1)
            blocks[b] &= ~bit
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    if k == 0:
        return
    yield from rec(0)


def _independent_sets(k: int, pairs: Iterable[tuple[int, int]]) -> list[bool]:
    """``indep[x]`` is True when no pair lies inside the resource mask x."""
    conf = [0] * k
    for a, b in pairs:
        conf[a] |= 1 << b
        conf[b] |= 1 << a
    indep = [True] * (1 << k)
    for x in range(1, 1 << k):
        low = x & -x
        rest = x ^ low
        indep[x] = indep[rest] and not conf[low.bit_length() - 1] & rest
    return indep


def _conflict_pairs(inst: Instance) -> list[tuple[int, int]]:
    return [(c.r, c.r2) for c in inst.constraints if c.kind == "sod_u"]


class _BlockMatcher:
    """Gives the blocks of a pattern distinct users, maximizing the summed
    ``weight(block, row)`` of the users' rows; None marks a user who cannot
    take a block.

    Each block keeps, built on first use, its ``limit`` users of highest
    weight (lower user index first among equals).  A pattern of d <= limit
    blocks is matched over the union of its blocks' lists only, which is
    exact by exchange: were block b matched to a user outside its list, the
    other d - 1 blocks would hold at most d - 1 of b's list, so a free user
    of that list weighs at least as much and can take b instead.
    """

    def __init__(self, rows: Sequence[int], limit: int, weight: Callable[[int, int], int | None]):
        users_of: dict[int, list[int]] = {}
        for u, row in enumerate(rows):
            users_of.setdefault(row, []).append(u)
        self.pool = [(row, users[:limit]) for row, users in users_of.items()]
        self.rows, self.limit, self.weight = rows, limit, weight
        self._top: dict[int, tuple[list[int], int | None]] = {}

    def top(self, block: int) -> tuple[list[int], int | None]:
        """The block's candidate users, best first, and the best weight
        (None when no user can take the block)."""
        if block not in self._top:
            ranked = heapq.nsmallest(self.limit, (
                (-w, u) for row, users in self.pool
                if (w := self.weight(block, row)) is not None for u in users
            ))
            self._top[block] = ([u for _, u in ranked], -ranked[0][0] if ranked else None)
        return self._top[block]

    def bound(self, pattern: Pattern) -> int | None:
        """Sum of each block's best weight, at least the matched total, or
        None when some block has no user."""
        tops = [self.top(block)[1] for block in pattern.blocks]
        return None if None in tops else sum(tops)

    def match(self, pattern: Pattern) -> tuple[list[int], int] | None:
        """The user of each block and the total weight, or None."""
        blocks = pattern.blocks
        users = sorted({u for block in blocks for u in self.top(block)[0]})
        if len(users) < len(blocks):
            return None
        weight, rows = self.weight, self.rows
        matched = max_weight_row_saturating([[weight(b, rows[u]) for u in users] for b in blocks])
        return None if matched is None else ([users[c] for c in matched[0]], matched[1])


class _PatternContext:
    """Shared tables for valuing patterns against one instance.

    For each distinct base row (user profile) m, ``omega[T]`` is the size of
    the largest conflict-free resource set X with T <= X <= m, or -1 when
    none exists, and ``choice[m][T]`` is the first such X of maximum size
    (smaller mask wins ties).  A user who serves no block takes
    ``choice[m][0]``, which sums to ``base_total`` over all users; serving
    block T gains ``gain[m][T] = omega[T] - omega[0]`` (None when omega[T]
    is -1).  A pattern's value is ``base_total`` plus the gain of a best
    matching of its blocks to users, and only the winner's relation is built.

    ``matcher`` weighs a block for a user by ``gain[m][block]`` and keeps k
    users per block, enough for any pattern by the exchange argument of
    :class:`_BlockMatcher`.  Its ``bound`` plus ``base_total`` is at least
    the pattern's value, so a pattern whose bound cannot beat the best value
    so far needs no matching.
    """

    def __init__(self, inst: Instance):
        if inst.k > MAX_PATTERN_RESOURCES:
            raise CapacityError(
                f"pattern search supports up to {MAX_PATTERN_RESOURCES} resources"
            )
        self.inst = inst
        k, size = inst.k, 1 << inst.k
        indep = _independent_sets(k, _conflict_pairs(inst))
        self.gain: dict[int, list[int | None]] = {}
        self.choice: dict[int, list[int]] = {}
        self.base_total = 0
        for m, count in Counter(inst.base.rows).items():
            omega = [-1] * size
            choice = [0] * size
            for sub in iter_submasks(m):
                if indep[sub]:
                    omega[sub] = sub.bit_count()
                    choice[sub] = sub
            for b in range(k):
                bit = 1 << b
                for t in range(size):
                    if not t & bit:
                        up = t | bit
                        if omega[up] > omega[t] or (
                            omega[up] == omega[t] and choice[up] < choice[t]
                        ):
                            omega[t] = omega[up]
                            choice[t] = choice[up]
            self.gain[m] = [None if w < 0 else w - omega[0] for w in omega]
            self.choice[m] = choice
            self.base_total += omega[0] * count
        gain = self.gain
        self.matcher = _BlockMatcher(inst.base.rows, k, lambda block, m: gain[m][block])

    def value(self, pattern: Pattern) -> tuple[list[int], int] | None:
        """The block users of a best realization of the pattern and its
        size, or None when the pattern cannot be realized."""
        matched = self.matcher.match(pattern)
        return None if matched is None else (matched[0], self.base_total + matched[1])

    def witness(self, pattern: Pattern, users: Sequence[int]) -> AuthorizationRelation:
        """The relation of a realization in which block i goes to ``users[i]``."""
        base, choice = self.inst.base, self.choice
        rows = list(map({m: choice[m][0] for m in choice}.__getitem__, base.rows))
        for u, block in zip(users, pattern.blocks):
            rows[u] = choice[base.rows[u]][block]
        return AuthorizationRelation(base.n_users, base.n_resources, tuple(rows))


def pattern_value(
    inst: Instance, pattern: Pattern
) -> tuple[AuthorizationRelation, int] | None:
    """Best valid relation whose solution shape refines the given pattern.

    The instance may carry universal-xor constraints only.  Returns the
    relation and its size, or None when the pattern needs more dedicated
    users than exist.  Patterns that put a separated pair in one block are
    rejected as errors.
    """
    kinds = inst.constraint_kinds()
    if not kinds <= {"sod_u"}:
        raise ValueError(f"pattern valuation needs universal-xor only, got {sorted(kinds)}")
    if pattern.n_resources != inst.k:
        raise ValueError("pattern resource count does not match the instance")
    for a, b in _conflict_pairs(inst):
        for block in pattern.blocks:
            if block >> a & 1 and block >> b & 1:
                raise ValueError(
                    f"pattern is not eligible: separated pair ({a}, {b}) shares a block"
                )
    ctx = _PatternContext(inst)
    res = ctx.value(pattern)
    if res is None:
        return None
    users, size = res
    witness = ctx.witness(pattern, users)
    _verify_witness(inst, witness, size, "pattern valuation")
    return witness, size


@_route("sodu", {"sod_u"})
def max_sod_u(inst: Instance) -> SolveReport:
    """Maximize for instances with only universal-xor constraints.

    Sweeps eligible patterns and keeps the best realizable one.  Every valid
    relation refines some eligible pattern, so the best pattern value is the
    maximum solution size.  A pattern whose bound cannot strictly beat the
    best value so far is not matched, so the first best pattern still wins.
    """
    ctx = _PatternContext(inst)
    best: tuple[Pattern, list[int], int] | None = None
    explored = 0
    for pattern in enumerate_eligible_patterns(inst.k, _conflict_pairs(inst)):
        explored += 1
        bound = ctx.matcher.bound(pattern)
        if bound is None or best is not None and ctx.base_total + bound <= best[2]:
            continue
        res = ctx.value(pattern)
        if res is not None and (best is None or res[1] > best[2]):
            best = (pattern, *res)
    return SolveReport(
        algorithm="sod_u_patterns",
        satisfiable=best is not None,
        witness=None if best is None else ctx.witness(*best[:2]),
        max_size=None if best is None else best[2],
        counters={"patterns_explored": explored},
    )


# ---------------------------------------------------------------------------
# Weighted partition DP and existential-xor maximization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFamily:
    """Candidate user sets for the existential-xor maximization.

    ``members`` are the distinct candidate user masks, largest first
    (cardinality descending, ascending index order inside equal sizes).
    ``fit_masks[i]`` holds the resources whose permitted set contains member
    i.  ``by_resource[r]`` lists the members contributed by resource r.
    """

    members: tuple[int, ...]
    fit_masks: tuple[int, ...]
    by_resource: tuple[tuple[int, ...], ...]


def _user_mask_sort_key(mask: int):
    return (-mask.bit_count(), indices_of(mask))


def build_index_family(inst: Instance) -> IndexFamily:
    """Pick the candidate user sets that suffice for maximization.

    A resource with a small permitted set contributes all of its non-empty
    subsets.  A large one contributes only its d+1 largest subsets, where d
    counts its distinct existential-xor partners: at most d of the largest
    subsets can be unavailable to it in an optimal partition, one per
    partner forced to differ.
    """
    kinds = inst.constraint_kinds()
    if not kinds <= {"sod_e"}:
        raise ValueError(f"this route needs existential-xor only, got {sorted(kinds)}")
    k = inst.k
    threshold = k.bit_length() - 1
    partners: dict[int, set[int]] = {r: set() for r in range(k)}
    for c in inst.constraints:
        if c.kind == "sod_e":
            partners[c.r].add(c.r2)
            partners[c.r2].add(c.r)

    by_resource: list[tuple[int, ...]] = []
    for r in range(k):
        col = inst.base.cols[r]
        users = indices_of(col)
        if len(users) <= threshold:
            cand = sorted((sub for sub in iter_submasks(col) if sub), key=_user_mask_sort_key)
        else:
            bits = [1 << u for u in users]
            gen = (
                sum(combo)
                for size in range(len(bits), 0, -1)
                for combo in combinations(bits, size)
            )
            cand = list(islice(gen, len(partners[r]) + 1))
        by_resource.append(tuple(cand))

    members = sorted({x for cands in by_resource for x in cands}, key=_user_mask_sort_key)
    fit = []
    for x in members:
        mask = 0
        for r in range(k):
            if x & ~inst.base.cols[r] == 0:
                mask |= 1 << r
        fit.append(mask)
    return IndexFamily(tuple(members), tuple(fit), tuple(by_resource))


def max_weighted_partition(
    k: int, functions: Sequence[Callable[[int], int]]
) -> tuple[tuple[int, ...], int]:
    """Partition k items among the functions to maximize the summed values.

    Each function receives one (possibly empty) block, the blocks are
    disjoint and cover all items.  Layered subset DP, O(p * 3^k) evaluations,
    with back-pointers for the arg-max.  Ties keep the first block in
    ascending submask order, so results are deterministic.
    """
    p = len(functions)
    if p == 0:
        raise ValueError("need at least one function")
    size = 1 << k
    full = size - 1
    neg = -(1 << 60)

    tabs = [[f(T) for T in range(size)] for f in functions]
    h = [0 if S == 0 else neg for S in range(size)]
    bps: list[list[int]] = []
    for tab in tabs:
        nh = [neg] * size
        nbp = [0] * size
        for S in range(size):
            best = neg
            best_t = 0
            T = 0
            while True:
                prev = h[S ^ T]
                if prev > neg:
                    v = prev + tab[T]
                    if v > best:
                        best = v
                        best_t = T
                if T == S:
                    break
                T = (T - S) & S
            nh[S] = best
            nbp[S] = best_t
        h = nh
        bps.append(nbp)

    assignment = [0] * p
    S = full
    for i in range(p - 1, -1, -1):
        assignment[i] = bps[i][S]
        S ^= assignment[i]
    assert S == 0
    return tuple(assignment), h[full]


def _zeta_in_place(values: list[int], k: int) -> None:
    for b in range(k):
        bit = 1 << b
        for S in range(1 << k):
            if S & bit:
                values[S] += values[S ^ bit]


def max_weighted_partition_fast_value(
    k: int, functions: Sequence[Callable[[int], int]]
) -> int:
    """Value of the maximum weighted partition via subset convolution.

    Encodes each table entry v as a huge power of two (one digit of width B
    per unit of value) so that ranked zeta transforms and pointwise products
    compute all p-fold disjoint covers at once; the position of the top
    digit of the final count reads off the maximum.  Matches
    :func:`max_weighted_partition` exactly and runs in O(p^2 * 2^k * k^2)
    big-integer operations.
    """
    p = len(functions)
    if p == 0:
        raise ValueError("need at least one function")
    size = 1 << k
    tabs = [[f(T) for T in range(size)] for f in functions]
    m = max(1, max(abs(v) for tab in tabs for v in tab))
    width = p * k + k + 8  # digit width; counts stay below 2^(p*k + k)

    # hhat[r][S]: encoded count of i-tuples of subsets of S with total rank r
    hhat: list[list[int]] = [[0] * size for _ in range(k + 1)]
    for S in range(size):
        hhat[0][S] = 1

    for tab in tabs:
        fhat: list[list[int]] = [[0] * size for _ in range(k + 1)]
        for T in range(size):
            fhat[T.bit_count()][T] = 1 << (width * (tab[T] + m))
        for r in range(k + 1):
            _zeta_in_place(fhat[r], k)
        nhat: list[list[int]] = [[0] * size for _ in range(k + 1)]
        for r in range(k + 1):
            out = nhat[r]
            for a in range(r + 1):
                ha = hhat[a]
                fb = fhat[r - a]
                for S in range(size):
                    va = ha[S]
                    if va:
                        vb = fb[S]
                        if vb:
                            out[S] += va * vb
        hhat = nhat

    full = size - 1
    total = 0
    for S in range(size):
        c = hhat[k][S]
        if c:
            if (full ^ S).bit_count() & 1:
                total -= c
            else:
                total += c
    assert total > 0, "some partition always exists"
    top_digit = (total.bit_length() - 1) // width
    return top_digit - p * m


@_route("sode", {"sod_e"})
def max_sod_e(inst: Instance) -> SolveReport:
    """Maximize for instances with only existential-xor constraints.

    Candidate user sets from the index family become partition functions:
    assigning block T to candidate X means every resource in T gets exactly
    the users X.  Infeasible combinations score an impossible penalty, so
    the optimum is at least 1 exactly when the instance is satisfiable.
    """
    if inst.k > MAX_PATTERN_RESOURCES:
        raise CapacityError(
            f"subset DP supports up to {MAX_PATTERN_RESOURCES} resources"
        )

    k = inst.k
    indep = _independent_sets(k, [(c.r, c.r2) for c in inst.constraints])
    fam = build_index_family(inst)
    penalty = -(inst.base.size + 1)

    def make_f(x: int, fit: int) -> Callable[[int], int]:
        gain = x.bit_count()

        def f(T: int) -> int:
            if T == 0:
                return 0
            if indep[T] and T & ~fit == 0:
                return T.bit_count() * gain
            return penalty

        return f

    functions = [make_f(x, fit) for x, fit in zip(fam.members, fam.fit_masks)]
    assignment, value = max_weighted_partition(k, functions)
    satisfiable = value >= 1

    witness = None
    if satisfiable:
        cols = [0] * k
        for x, block in zip(fam.members, assignment):
            for r in indices_of(block):
                cols[r] = x
        witness = AuthorizationRelation.from_cols(inst.n, k, cols)

    return SolveReport(
        algorithm="sod_e_partition",
        satisfiable=satisfiable,
        witness=witness,
        max_size=value if satisfiable else None,
        counters={"dp_states": len(functions) << k},
    )


# ---------------------------------------------------------------------------
# Polynomial profiles
# ---------------------------------------------------------------------------


@_route("bodu", {"bod_u"})
def solve_bod_u(inst: Instance) -> SolveReport:
    """Instances whose constraints are all universal-iff (or none).

    Merging resource classes decides everything: satisfiable exactly when
    every class keeps a common permitted user, and the expanded class
    intersections form the largest solution.
    """
    res = eliminate_bod_u(inst)
    if isinstance(res, TriviallyUnsat):
        return SolveReport(
            algorithm="bod_u_merge",
            satisfiable=False,
            counters={"reason": res.reason},
        )
    merged, trace = res
    witness = lift_merged_classes(inst, trace, merged.base)
    return SolveReport(
        algorithm="bod_u_merge",
        satisfiable=True,
        witness=witness,
        max_size=witness.size,
    )


@_route("bode", {"bod_e"})
def solve_bod_e(inst: Instance) -> SolveReport:
    """Instances whose constraints are all existential-iff.

    Shared users only become easier to find as the relation grows, so the
    base relation itself is the decisive candidate and the maximum.
    """
    valid = all(eval_constraint(inst.base, c) for c in inst.constraints)
    return SolveReport(
        algorithm="bod_e_base",
        satisfiable=valid,
        witness=inst.base if valid else None,
        max_size=inst.base.size if valid else None,
    )


# ---------------------------------------------------------------------------
# Kernel route for arbitrary bounded mixes
# ---------------------------------------------------------------------------


@_route("bounded", None, ("decide",))
def solve_bounded(inst: Instance, kernel_budget: int = 1 << 60) -> SolveReport:
    """Decision route for any mix of the modeled constraint species.

    Merges universal-iff classes when only pair constraints are present
    and truncates user families to the instance's core bound, then decides
    the kernel exhaustively.  The kernel has at most 2^k * f users, so the
    search is independent of the original user count.
    """
    work = inst
    merge_trace = None
    if all(isinstance(c, PairConstraint) for c in inst.constraints):
        res = eliminate_bod_u(inst)
        if isinstance(res, TriviallyUnsat):
            return SolveReport(
                algorithm="bounded_kernel",
                satisfiable=False,
                counters={"users_removed": 0, "reason": res.reason},
            )
        work, merge_trace = res

    f = instance_bound(work)
    kernel, kernel_trace = apply_reduction_rule(work, f)
    found = brute_decide(kernel, budget=kernel_budget)
    removed = len(kernel_trace.removed_users)
    if found is None:
        return SolveReport(
            algorithm="bounded_kernel",
            satisfiable=False,
            counters={"users_removed": removed},
        )
    witness = lift_removed_users(work, kernel, found)
    if merge_trace is not None:
        witness = lift_merged_classes(inst, merge_trace, witness)
    return SolveReport(
        algorithm="bounded_kernel",
        satisfiable=True,
        witness=witness,
        counters={"users_removed": removed},
    )


# ---------------------------------------------------------------------------
# Planning route for existential-iff plus universal-xor
# ---------------------------------------------------------------------------


def solve_wsp(
    wsp: WspInstance, stats: dict | None = None
) -> tuple[int, ...] | None:
    """Find a plan for a step instance, or None when there is none.

    Steps tied by equalities are contracted first; the contracted classes
    are then grouped into same-user blocks (patterns again), and a block
    grouping is realizable when distinct users can be matched to blocks,
    each authorized for every step inside their block.
    """
    n_steps = wsp.n_steps
    n_users = len(wsp.user_names)
    dsu = _DisjointSet(n_steps)
    for a, b in wsp.eq_pairs:
        dsu.union(a, b)
    find = dsu.find

    roots = sorted({find(s) for s in range(n_steps)})
    class_index = {root: i for i, root in enumerate(roots)}
    nc = len(roots)
    class_auth = [(1 << n_users) - 1] * nc
    for s in range(n_steps):
        class_auth[class_index[find(s)]] &= wsp.auth[s]

    conflicts = set()
    for a, b in wsp.neq_pairs:
        ca, cb = class_index[find(a)], class_index[find(b)]
        if ca == cb:
            return None  # a step pair must both share and not share a user
        conflicts.add((min(ca, cb), max(ca, cb)))
    if any(a == 0 for a in class_auth):
        return None

    # A user can serve a block when their row of classes holds it; a
    # pattern has at most nc blocks, so nc users of each block suffice.
    rows = AuthorizationRelation.from_cols(n_users, nc, class_auth).rows
    matcher = _BlockMatcher(rows, nc, lambda block, row: None if block & ~row else 0)
    explored = 0
    for pattern in enumerate_eligible_patterns(nc, sorted(conflicts)):
        explored += 1
        matched = None if matcher.bound(pattern) is None else matcher.match(pattern)
        if matched is None:
            continue
        if stats is not None:
            stats["patterns_explored"] = explored
        user_of = {c: u for u, block in zip(matched[0], pattern.blocks) for c in indices_of(block)}
        return tuple(user_of[class_index[find(s)]] for s in range(n_steps))

    if stats is not None:
        stats["patterns_explored"] = explored
    return None


@_route("wsp", {"bod_e", "sod_u"}, ("decide",))
def solve_bod_e_sod_u(inst: Instance) -> SolveReport:
    """Decision route for existential-iff plus universal-xor mixes.

    Rewrites the instance to the step planning form, then maps a solved
    plan back to a relation.
    """
    wsp = to_wsp(inst)
    stats: dict = {}
    plan = solve_wsp(wsp, stats)
    witness = None if plan is None else from_wsp_plan(inst, wsp, plan)
    return SolveReport(
        algorithm="bod_e_sod_u_wsp",
        satisfiable=plan is not None,
        witness=witness,
        counters={
            "steps": wsp.n_steps,
            "patterns_explored": stats.get("patterns_explored", 0),
        },
    )


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


@_route("brute", None)
def _brute_force(inst: Instance, mode: str, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """The exhaustive reference search, for any mix and either mode."""
    if mode == "decide":
        found = brute_decide(inst, budget=budget)
        return SolveReport(algorithm="brute_force", satisfiable=found is not None, witness=found)
    witness, size = brute_maximize(inst, budget=budget) or (None, None)
    return SolveReport(
        algorithm="brute_force", satisfiable=witness is not None, witness=witness, max_size=size
    )


# The route table.  ``dispatch`` takes the first row that accepts the
# instance's constraint kinds and the mode, so the specialised routes come
# before the catch-all ones, and universal-iff comes first so that instances
# without constraints take the merge route.
ROUTES: tuple[Route, ...] = (
    solve_bod_u,
    solve_bod_e,
    max_sod_u,
    max_sod_e,
    solve_bod_e_sod_u,
    solve_bounded,
    _brute_force,
)


def dispatch(inst: Instance, mode: str = "decide", budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Route an instance to the most specific applicable algorithm.

    Decision instances with arbitrary species mixes go through the kernel
    route; maximization falls back to exhaustive search when no specialized
    route applies, guarded by the search ``budget``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    kinds = inst.constraint_kinds()
    route = next(r for r in ROUTES if r.accepts(kinds, mode))
    if route is not _brute_force:
        return route(inst)
    try:
        return route(inst, mode, budget)
    except CapacityError as e:
        raise CapacityError(
            f"{e}; maximization over this constraint mix has no reduced route, "
            "try mode=decide"
        ) from None
