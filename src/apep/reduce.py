"""Instance reductions: user kernelization, resource merging, rewritings.

Every reduction returns a trace alongside the reduced instance.  Traces are
replayable (``replay_trace`` rebuilds the reduced instance from the original
deterministically) and support lifting witnesses found on the reduced
instance back to the original one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    AuthorizationRelation,
    Constraint,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    SmerConstraint,
    TeamSodConstraint,
    constraint_kind,
    indices_of,
    normalize,
)
from .verify import instance_bound


@dataclass(frozen=True)
class TriviallyUnsat:
    """A reduction proved the instance unsatisfiable outright."""

    reason: str


@dataclass(frozen=True)
class FamilyPartition:
    """Users grouped by their base resource set.

    ``masks`` lists the distinct per-user resource masks ascending and
    ``members`` the user ids of each group, ascending.  The groups partition
    the user set; there are at most 2^k of them.
    """

    masks: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict[int, tuple[int, ...]]:
        return dict(zip(self.masks, self.members))


def partition_families(inst: Instance) -> FamilyPartition:
    groups: dict[int, list[int]] = {}
    for u, row in enumerate(inst.base.rows):
        groups.setdefault(row, []).append(u)
    masks = tuple(sorted(groups))
    return FamilyPartition(masks, tuple(tuple(groups[m]) for m in masks))


@dataclass(frozen=True)
class ReductionTrace:
    """What a reduction did, in replayable form.

    ``removed_users`` lists removed user names in removal order.
    ``resource_classes`` lists merged resource groups as name tuples with the
    representative first.  ``constraint_rewrites`` records per original
    constraint index what became of it: ``class-edge`` (consumed to form the
    classes), ``dropped`` (auto-satisfied after merging), ``lifted:<j>`` or
    ``duplicate:<j>`` (position in the reduced constraint list).
    """

    removed_users: tuple[str, ...] = ()
    resource_classes: tuple[tuple[str, ...], ...] = ()
    constraint_rewrites: tuple[tuple[int, str], ...] = ()


def apply_reduction_rule(inst: Instance, f: int) -> tuple[Instance, ReductionTrace]:
    """Truncate every user family to at most ``f`` members.

    Sound for the existence question when ``f`` is at least the instance's
    core size bound: any valid relation can be rewritten, family by family,
    to use only the ``f`` lowest-index surviving members.  Members with the
    largest indices are removed first.  Do not use this before maximizing,
    removed users can carry weight.
    """
    if f < instance_bound(inst):
        raise ValueError(
            f"f={f} is below the instance core bound {instance_bound(inst)}"
        )
    fp = partition_families(inst)
    removed: list[int] = []
    for mask, members in zip(fp.masks, fp.members):
        if len(members) > f:
            overflow = len(members) - f
            removed.extend(members[: -overflow - 1 : -1])

    removed_names = tuple(inst.users[u] for u in removed)
    gone = set(removed)
    keep = [u for u in range(inst.n) if u not in gone]
    reduced = Instance.create(
        users=[inst.users[u] for u in keep],
        resources=inst.resources,
        base=inst.base.restrict_users(keep),
        constraints=inst.constraints,
    )
    return reduced, ReductionTrace(removed_users=removed_names)


def lift_removed_users(
    original: Instance, reduced: Instance, A: AuthorizationRelation
) -> AuthorizationRelation:
    """Re-express a relation over the reduced user set on the original one."""
    rows = [0] * original.n
    for u, row in enumerate(A.rows):
        rows[original.user_index[reduced.users[u]]] = row
    return AuthorizationRelation(original.n, original.k, tuple(rows))


class _DisjointSet:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def eliminate_bod_u(
    inst: Instance,
) -> tuple[Instance, ReductionTrace] | TriviallyUnsat:
    """Merge resources tied by universal iff constraints.

    Each class of resources connected by iff/forall edges collapses into its
    lowest-index representative, whose permitted user set is the intersection
    over the class.  Remaining constraints are rewritten onto representatives
    and deduplicated.  Detects outright unsatisfiability: an empty class
    intersection, or a xor constraint inside a class.

    Only defined for instances whose constraints are all pair constraints.
    """
    if not all(isinstance(c, PairConstraint) for c in inst.constraints):
        raise ValueError("resource merging handles pair constraints only")

    dsu = _DisjointSet(inst.k)
    for c in inst.constraints:
        if c.op == "iff" and c.quant == "forall":
            dsu.union(c.r, c.r2)

    by_root: dict[int, list[int]] = {}
    for r in range(inst.k):
        by_root.setdefault(dsu.find(r), []).append(r)
    reps = sorted(by_root)
    class_pos = {}
    for pos, root in enumerate(reps):
        for r in by_root[root]:
            class_pos[r] = pos

    cols = []
    for root in reps:
        inter = -1
        for r in by_root[root]:
            inter &= inst.base.cols[r]
        if inter == 0:
            names = ", ".join(inst.resources[r] for r in by_root[root])
            return TriviallyUnsat(f"no user is permitted all of: {names}")
        cols.append(inter)

    lifted: list[Constraint] = []
    seen: dict[Constraint, int] = {}
    rewrites: list[tuple[int, str]] = []
    for idx, c in enumerate(inst.constraints):
        if c.op == "iff" and c.quant == "forall":
            rewrites.append((idx, "class-edge"))
            continue
        a, b = class_pos[c.r], class_pos[c.r2]
        if a == b:
            if c.op == "xor":
                name = inst.resources[reps[a]]
                return TriviallyUnsat(
                    f"constraint {idx} separates resources merged into {name}"
                )
            # iff/exists and implies/forall hold on any merged class
            rewrites.append((idx, "dropped"))
            continue
        nc = normalize(PairConstraint(a, b, c.op, c.quant))
        if nc in seen:
            rewrites.append((idx, f"duplicate:{seen[nc]}"))
        else:
            seen[nc] = len(lifted)
            rewrites.append((idx, f"lifted:{len(lifted)}"))
            lifted.append(nc)

    reduced = Instance.create(
        users=inst.users,
        resources=[inst.resources[root] for root in reps],
        base=AuthorizationRelation.from_cols(inst.n, len(reps), cols),
        constraints=lifted,
    )
    classes = tuple(
        tuple([inst.resources[root]] + [inst.resources[r] for r in by_root[root] if r != root])
        for root in reps
    )
    return reduced, ReductionTrace(
        resource_classes=classes, constraint_rewrites=tuple(rewrites)
    )


def lift_merged_classes(
    original: Instance, trace: ReductionTrace, A: AuthorizationRelation
) -> AuthorizationRelation:
    """Expand a relation over merged representatives to all class members."""
    pos_of = {}
    for pos, names in enumerate(trace.resource_classes):
        for name in names:
            pos_of[name] = pos
    cols = [A.cols[pos_of[name]] for name in original.resources]
    return AuthorizationRelation.from_cols(original.n, original.k, cols)


def replay_trace(inst: Instance, trace: ReductionTrace) -> Instance:
    """Rebuild the reduced instance a trace describes, for auditability."""
    current = inst
    if trace.resource_classes:
        pos_of = {}
        for pos, names in enumerate(trace.resource_classes):
            for name in names:
                pos_of[name] = pos
        cols = [-1] * len(trace.resource_classes)
        for r, name in enumerate(current.resources):
            cols[pos_of[name]] &= current.base.cols[r]
        actions = dict(trace.constraint_rewrites)
        new_cons: list[tuple[int, Constraint]] = []
        for idx, c in enumerate(current.constraints):
            action = actions.get(idx, "")
            if not action.startswith("lifted:"):
                continue
            assert isinstance(c, PairConstraint)
            nc = normalize(
                PairConstraint(
                    pos_of[current.resources[c.r]],
                    pos_of[current.resources[c.r2]],
                    c.op,
                    c.quant,
                )
            )
            new_cons.append((int(action.split(":", 1)[1]), nc))
        new_cons.sort()
        current = Instance.create(
            users=current.users,
            resources=[names[0] for names in trace.resource_classes],
            base=AuthorizationRelation.from_cols(current.n, len(cols), cols),
            constraints=[c for _, c in new_cons],
        )
    if trace.removed_users:
        gone = set(trace.removed_users)
        keep = [u for u in range(current.n) if current.users[u] not in gone]
        current = Instance.create(
            users=[current.users[u] for u in keep],
            resources=current.resources,
            base=current.base.restrict_users(keep),
            constraints=current.constraints,
        )
    return current


# ---------------------------------------------------------------------------
# Workflow-style rewriting for existential-iff plus universal-xor instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WspInstance:
    """A step/user planning problem with same-user and distinct-user ties.

    A plan assigns each step an authorized user so that every equality pair
    shares a user and every inequality pair does not.  ``step_resource``
    remembers which resource each step stands for, so plans can be mapped
    back to relations.
    """

    steps: tuple[str, ...]
    user_names: tuple[str, ...]
    auth: tuple[int, ...]
    eq_pairs: tuple[tuple[int, int], ...]
    neq_pairs: tuple[tuple[int, int], ...]
    step_resource: tuple[int, ...]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def to_wsp(inst: Instance) -> WspInstance:
    """Rewrite an instance with only existential-iff and universal-xor
    constraints into the step planning form.

    A resource with existential-iff partners j1 < j2 < ... contributes one
    step per partner; a resource without partners contributes a single step.
    A step for resource i tied to partner j admits the users permitted both
    i and j.  Existential-iff pairs become step equalities, universal-xor
    pairs become all-pairs step inequalities.
    """
    kinds = inst.constraint_kinds()
    if not kinds <= {"bod_e", "sod_u"}:
        raise ValueError(f"rewriting needs existential-iff/universal-xor only, got {sorted(kinds)}")

    partners: dict[int, set[int]] = {r: set() for r in range(inst.k)}
    xor_pairs: set[tuple[int, int]] = set()
    for c in inst.constraints:
        assert isinstance(c, PairConstraint)
        if c.op == "iff":
            partners[c.r].add(c.r2)
            partners[c.r2].add(c.r)
        else:
            xor_pairs.add((c.r, c.r2))

    steps: list[str] = []
    auth: list[int] = []
    step_resource: list[int] = []
    step_id: dict[tuple[int, int | None], int] = {}
    cols = inst.base.cols
    for i in range(inst.k):
        if partners[i]:
            for j in sorted(partners[i]):
                step_id[(i, j)] = len(steps)
                steps.append(f"s{i + 1}_{j + 1}")
                auth.append(cols[i] & cols[j])
                step_resource.append(i)
        else:
            step_id[(i, None)] = len(steps)
            steps.append(f"s{i + 1}")
            auth.append(cols[i])
            step_resource.append(i)

    eq_pairs = sorted(
        (step_id[(i, j)], step_id[(j, i)])
        for i in range(inst.k)
        for j in partners[i]
        if i < j
    )
    neq_pairs: set[tuple[int, int]] = set()
    for i, j in sorted(xor_pairs):
        for s in (s for s in step_id.values() if step_resource[s] == i):
            for s2 in (s2 for s2 in step_id.values() if step_resource[s2] == j):
                neq_pairs.add((min(s, s2), max(s, s2)))

    return WspInstance(
        steps=tuple(steps),
        user_names=inst.users,
        auth=tuple(auth),
        eq_pairs=tuple(eq_pairs),
        neq_pairs=tuple(sorted(neq_pairs)),
        step_resource=tuple(step_resource),
    )


def from_wsp_plan(
    inst: Instance, wsp: WspInstance, plan: "tuple[int, ...] | list[int]"
) -> AuthorizationRelation:
    """Map a valid step plan back to a valid relation for the instance."""
    if len(plan) != wsp.n_steps:
        raise ValueError("plan length does not match step count")
    for s, u in enumerate(plan):
        if not 0 <= u < len(wsp.user_names):
            raise ValueError(f"step {wsp.steps[s]} assigned unknown user id {u}")
        if not wsp.auth[s] >> u & 1:
            raise ValueError(f"step {wsp.steps[s]} assigned unauthorized user id {u}")
    for a, b in wsp.eq_pairs:
        if plan[a] != plan[b]:
            raise ValueError(f"steps {wsp.steps[a]} and {wsp.steps[b]} must share a user")
    for a, b in wsp.neq_pairs:
        if plan[a] == plan[b]:
            raise ValueError(f"steps {wsp.steps[a]} and {wsp.steps[b]} must differ")

    return AuthorizationRelation.from_pairs(
        inst.n, inst.k, [(u, wsp.step_resource[s]) for s, u in enumerate(plan)]
    )


# ---------------------------------------------------------------------------
# Resiliency encoding
# ---------------------------------------------------------------------------


def encode_resiliency(
    A: AuthorizationRelation,
    Q: "frozenset[int] | set[int] | tuple[int, ...] | list[int]",
    d: int,
    t: int,
    *,
    user_names: "tuple[str, ...] | None" = None,
    resource_names: "tuple[str, ...] | None" = None,
    enforce_team_size: bool = True,
) -> Instance | TriviallyUnsat:
    """Pose (d, t)-resiliency of a relation as an existence instance.

    The question: can d pairwise disjoint teams of at most t users each be
    formed so that every team covers every resource in Q?  The encoding
    makes d copies of Q, requires exactly one user per copied resource,
    keeps the copies' user sets disjoint, and caps each copy's distinct
    user count at t.  The instance is satisfiable exactly when the relation
    is (d, t)-resilient for Q.

    ``enforce_team_size=False`` drops the team size caps, answering the
    unlimited-size variant instead.
    """
    qs = sorted(set(Q))
    if not qs:
        raise ValueError("Q must be non-empty")
    if qs[0] < 0 or qs[-1] >= A.n_resources:
        raise ValueError("Q references resources outside the relation")
    if d < 1 or t < 1:
        raise ValueError("need d >= 1 and t >= 1")

    users = user_names if user_names is not None else tuple(
        f"u{i + 1}" for i in range(A.n_users)
    )
    rnames = resource_names if resource_names is not None else tuple(
        f"r{i + 1}" for i in range(A.n_resources)
    )
    for q in qs:
        if A.cols[q] == 0:
            return TriviallyUnsat(f"no user holds {rnames[q]}, no team can cover it")

    new_resources = [f"{rnames[q]}@{copy + 1}" for copy in range(d) for q in qs]
    rows = []
    for u in range(A.n_users):
        row = 0
        for copy in range(d):
            for pos, q in enumerate(qs):
                if A.rows[u] >> q & 1:
                    row |= 1 << (copy * len(qs) + pos)
        rows.append(row)

    def copy_scope(copy: int) -> frozenset[int]:
        return frozenset(range(copy * len(qs), (copy + 1) * len(qs)))

    constraints: list[Constraint] = [GlobalCardConstraint("=", 1)]
    for i in range(d):
        for j in range(i + 1, d):
            constraints.append(TeamSodConstraint(copy_scope(i), copy_scope(j)))
    if enforce_team_size:
        for i in range(d):
            constraints.append(LocalCardConstraint(copy_scope(i), "<=", t))

    return Instance.create(
        users=users,
        resources=new_resources,
        base=AuthorizationRelation(A.n_users, d * len(qs), tuple(rows)),
        constraints=constraints,
    )
