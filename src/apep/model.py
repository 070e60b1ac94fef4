"""Data model for authorization policy existence problems.

An instance consists of a user set, a resource set, a base relation telling
which user may in principle be assigned to which resource, and a collection
of constraints over complete assignment relations.  Users and resources are
dense integer ids; display names live in a table on the instance.  Relations
are stored as per-user bitmasks of resources, with a cached transposed view
(per-resource bitmasks of users) so constraint evaluation is set algebra on
machine integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

UserId = int
ResourceId = int

PAIR_OPS = ("iff", "implies", "implied_by", "xor")
CANONICAL_PAIR_OPS = ("iff", "implies", "xor")
QUANTS = ("forall", "exists")
CMPS = ("<", "<=", "=", ">=", ">")
CANONICAL_CMPS = ("<=", "=", ">=")


def indices_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` (including 0) in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairConstraint:
    """Relates the user sets of two distinct resources.

    ``op`` is one of ``iff`` (same users / shared user), ``implies`` (users of
    ``r`` also hold ``r2``), ``implied_by`` (accepted on input, rewritten by
    ``normalize`` to ``implies`` with the operands swapped) or ``xor``
    (disjoint users / distinct user sets).  ``quant`` selects the universal
    or existential reading.
    """

    r: ResourceId
    r2: ResourceId
    op: str
    quant: str

    def __post_init__(self) -> None:
        if self.r == self.r2:
            raise ValueError("pair constraint needs two distinct resources")
        if self.r < 0 or self.r2 < 0:
            raise ValueError("resource ids must be non-negative")
        if self.op not in PAIR_OPS:
            raise ValueError(f"unknown pair op {self.op!r}")
        if self.quant not in QUANTS:
            raise ValueError(f"unknown quantifier {self.quant!r}")


@dataclass(frozen=True)
class GlobalCardConstraint:
    """Bounds the team size |A(r)| of every resource at once."""

    cmp: str
    t: int

    def __post_init__(self) -> None:
        if self.cmp not in CMPS:
            raise ValueError(f"unknown comparison {self.cmp!r}")
        if self.t < 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class LocalCardConstraint:
    """Bounds the number of distinct users across a set of resources."""

    scope: frozenset[ResourceId]
    cmp: str
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
        if not self.scope:
            raise ValueError("scope must be non-empty")
        if any(r < 0 for r in self.scope):
            raise ValueError("resource ids must be non-negative")
        if self.cmp not in CMPS:
            raise ValueError(f"unknown comparison {self.cmp!r}")
        if self.t < 1:
            raise ValueError("threshold must be at least 1")


@dataclass(frozen=True)
class SmerConstraint:
    """No single user may hold every resource in the scope."""

    scope: frozenset[ResourceId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
        if len(self.scope) < 2:
            raise ValueError("scope needs at least two resources")
        if any(r < 0 for r in self.scope):
            raise ValueError("resource ids must be non-negative")


@dataclass(frozen=True)
class TeamSodConstraint:
    """The user teams of two resource groups must not overlap."""

    left: frozenset[ResourceId]
    right: frozenset[ResourceId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides must be non-empty")
        if self.left & self.right:
            raise ValueError("sides must be disjoint")
        if any(r < 0 for r in self.left | self.right):
            raise ValueError("resource ids must be non-negative")


Constraint = Union[
    PairConstraint,
    GlobalCardConstraint,
    LocalCardConstraint,
    SmerConstraint,
    TeamSodConstraint,
]


def constraint_kind(c: Constraint) -> str:
    """Classification tag used for solver routing.

    Pair constraints are tagged by their normalized species: ``bod_u``
    (iff/forall), ``bod_e`` (iff/exists), ``sod_u`` (xor/forall), ``sod_e``
    (xor/exists) and ``implies`` (implies/forall).
    """
    if isinstance(c, PairConstraint):
        n = normalize(c)
        assert isinstance(n, PairConstraint)
        if n.op == "iff":
            return "bod_u" if n.quant == "forall" else "bod_e"
        if n.op == "xor":
            return "sod_u" if n.quant == "forall" else "sod_e"
        return "implies"
    if isinstance(c, GlobalCardConstraint):
        return "global_card"
    if isinstance(c, LocalCardConstraint):
        return "local_card"
    if isinstance(c, SmerConstraint):
        return "smer"
    if isinstance(c, TeamSodConstraint):
        return "team_sod"
    raise TypeError(f"not a constraint: {c!r}")


def normalize(c: Constraint) -> Constraint:
    """Rewrite a constraint into canonical form.

    Rules:
      * ``implied_by`` becomes ``implies`` with swapped operands.
      * Existential implications (either direction) become existential iff:
        on complete relations they hold exactly when the two resources share
        a user.
      * Symmetric pair ops (iff, xor) order their operands ascending.
      * Strict cardinality comparisons become inclusive ones:
        ``(<, t)`` becomes ``(<=, t - 1)`` and ``(>, t)`` becomes
        ``(>=, t + 1)``.  ``(<, 1)`` is rejected because no complete
        relation can satisfy it.

    Already canonical constraints are returned unchanged (same object).
    """
    if isinstance(c, PairConstraint):
        r, r2, op, quant = c.r, c.r2, c.op, c.quant
        if op == "implied_by":
            r, r2 = r2, r
            op = "implies"
        if op == "implies" and quant == "exists":
            op = "iff"
        if op in ("iff", "xor") and r > r2:
            r, r2 = r2, r
        if (r, r2, op, quant) == (c.r, c.r2, c.op, c.quant):
            return c
        return PairConstraint(r, r2, op, quant)
    if isinstance(c, GlobalCardConstraint):
        cmp, t = _normalize_cmp(c.cmp, c.t)
        if (cmp, t) == (c.cmp, c.t):
            return c
        return GlobalCardConstraint(cmp, t)
    if isinstance(c, LocalCardConstraint):
        cmp, t = _normalize_cmp(c.cmp, c.t)
        if (cmp, t) == (c.cmp, c.t):
            return c
        return LocalCardConstraint(c.scope, cmp, t)
    if isinstance(c, (SmerConstraint, TeamSodConstraint)):
        return c
    raise TypeError(f"not a constraint: {c!r}")


def _normalize_cmp(cmp: str, t: int) -> tuple[str, int]:
    if cmp == "<":
        if t == 1:
            raise ValueError("(<, 1) admits no complete relation")
        return "<=", t - 1
    if cmp == ">":
        return ">=", t + 1
    return cmp, t


def _compare(value: int, cmp: str, t: int) -> bool:
    if cmp == "<":
        return value < t
    if cmp == "<=":
        return value <= t
    if cmp == "=":
        return value == t
    if cmp == ">=":
        return value >= t
    if cmp == ">":
        return value > t
    raise ValueError(f"unknown comparison {cmp!r}")


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuthorizationRelation:
    """A subset of users x resources, stored as per-user resource bitmasks.

    ``rows[u]`` has bit ``r`` set when user ``u`` is assigned resource ``r``.
    The transposed per-resource view ``cols`` is computed lazily and cached.
    Instances are immutable; the editing helpers return new relations.
    """

    n_users: int
    n_resources: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_users < 0 or self.n_resources < 0:
            raise ValueError("negative dimensions")
        if len(self.rows) != self.n_users:
            raise ValueError("row count does not match n_users")
        limit = 1 << self.n_resources
        if any(row < 0 or row >= limit for row in self.rows):
            raise ValueError("row mask out of range")

    @classmethod
    def from_rows(
        cls, n_users: int, n_resources: int, rows: Iterable[int]
    ) -> "AuthorizationRelation":
        return cls(n_users, n_resources, tuple(rows))

    @classmethod
    def from_pairs(
        cls, n_users: int, n_resources: int, pairs: Iterable[tuple[int, int]]
    ) -> "AuthorizationRelation":
        rows = [0] * n_users
        for u, r in pairs:
            if not (0 <= u < n_users and 0 <= r < n_resources):
                raise ValueError(f"pair ({u}, {r}) out of range")
            rows[u] |= 1 << r
        return cls(n_users, n_resources, tuple(rows))

    @classmethod
    def from_cols(
        cls, n_users: int, n_resources: int, cols: Iterable[int]
    ) -> "AuthorizationRelation":
        cols = tuple(cols)
        if len(cols) != n_resources:
            raise ValueError("column count does not match n_resources")
        rows = [0] * n_users
        for r, col in enumerate(cols):
            if col < 0 or col >= 1 << n_users:
                raise ValueError("column mask out of range")
            for u in indices_of(col):
                rows[u] |= 1 << r
        return cls(n_users, n_resources, tuple(rows))

    @classmethod
    def full(cls, n_users: int, n_resources: int) -> "AuthorizationRelation":
        row = (1 << n_resources) - 1
        return cls(n_users, n_resources, (row,) * n_users)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        cols = [0] * self.n_resources
        for u, row in enumerate(self.rows):
            bit = 1 << u
            rest = row
            while rest:
                low = rest & -rest
                cols[low.bit_length() - 1] |= bit
                rest ^= low
        return tuple(cols)

    @cached_property
    def size(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def user_resources(self, u: UserId) -> frozenset[ResourceId]:
        return frozenset(indices_of(self.rows[u]))

    def resource_users(self, r: ResourceId) -> frozenset[UserId]:
        return frozenset(indices_of(self.cols[r]))

    def pairs(self) -> Iterator[tuple[UserId, ResourceId]]:
        for u, row in enumerate(self.rows):
            for r in indices_of(row):
                yield u, r

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, r = pair
        return 0 <= u < self.n_users and bool(self.rows[u] >> r & 1)

    def is_subrelation_of(self, other: "AuthorizationRelation") -> bool:
        if (self.n_users, self.n_resources) != (other.n_users, other.n_resources):
            return False
        return all(row & ~base == 0 for row, base in zip(self.rows, other.rows))

    def without_user(self, u: UserId) -> "AuthorizationRelation":
        """Same shape, with every pair of user ``u`` removed."""
        rows = list(self.rows)
        rows[u] = 0
        return AuthorizationRelation(self.n_users, self.n_resources, tuple(rows))

    def restrict_users(self, keep: Sequence[UserId]) -> "AuthorizationRelation":
        """Relation over ``keep`` only, reindexed in the given order."""
        return AuthorizationRelation(
            len(keep), self.n_resources, tuple(self.rows[u] for u in keep)
        )

    def permute_users(self, sigma: Sequence[UserId]) -> "AuthorizationRelation":
        """Apply a user renaming: pair (u, r) becomes (sigma[u], r)."""
        if sorted(sigma) != list(range(self.n_users)):
            raise ValueError("sigma is not a permutation of the users")
        rows = [0] * self.n_users
        for u, row in enumerate(self.rows):
            rows[sigma[u]] = row
        return AuthorizationRelation(self.n_users, self.n_resources, tuple(rows))


# ---------------------------------------------------------------------------
# Constraint evaluation
# ---------------------------------------------------------------------------


def eval_constraint(A: AuthorizationRelation, c: Constraint) -> bool:
    """Truth value of one constraint against a (complete) relation.

    Total over all constraint forms, including non-canonical ones, which are
    evaluated per their normalized meaning.
    """
    cols = A.cols
    if isinstance(c, PairConstraint):
        r, r2, op, quant = c.r, c.r2, c.op, c.quant
        if op == "implied_by":
            r, r2 = r2, r
            op = "implies"
        m1, m2 = cols[r], cols[r2]
        if op == "iff":
            return m1 == m2 if quant == "forall" else bool(m1 & m2)
        if op == "xor":
            return not m1 & m2 if quant == "forall" else m1 != m2
        # implies
        if quant == "forall":
            return m1 & ~m2 == 0
        return bool(m1 & m2)
    if isinstance(c, GlobalCardConstraint):
        return all(_compare(col.bit_count(), c.cmp, c.t) for col in cols)
    if isinstance(c, LocalCardConstraint):
        union = 0
        for r in c.scope:
            union |= cols[r]
        return _compare(union.bit_count(), c.cmp, c.t)
    if isinstance(c, SmerConstraint):
        inter = -1
        for r in c.scope:
            inter &= cols[r]
        return inter == 0
    if isinstance(c, TeamSodConstraint):
        left = 0
        for r in c.left:
            left |= cols[r]
        right = 0
        for r in c.right:
            right |= cols[r]
        return not left & right
    raise TypeError(f"not a constraint: {c!r}")


def user_independence_witness(
    A: AuthorizationRelation, c: Constraint, sigma: Sequence[UserId]
) -> bool:
    """Check that renaming users leaves the constraint's truth value intact.

    ``sigma`` must be a permutation of ``range(A.n_users)``.  Every modeled
    constraint ignores user identity, so this always returns True; it exists
    as an executable sanity check.
    """
    return eval_constraint(A, c) == eval_constraint(A.permute_users(sigma), c)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """An authorization policy existence problem.

    ``base`` is the relation of permitted assignments; a solution is any
    subrelation that covers every resource and satisfies all constraints.
    Constraints are stored in canonical (normalized) form.  Build instances
    through :meth:`create`, which validates the standing invariants:
    non-empty resource columns and unique names, with all constraint
    resource ids in range.
    """

    users: tuple[str, ...]
    resources: tuple[str, ...]
    base: AuthorizationRelation
    constraints: tuple[Constraint, ...] = ()

    @classmethod
    def create(
        cls,
        users: Sequence[str],
        resources: Sequence[str],
        base: Mapping[str, Iterable[str]] | AuthorizationRelation,
        constraints: Iterable[Constraint] = (),
    ) -> "Instance":
        users = tuple(users)
        resources = tuple(resources)
        if not users:
            raise ValueError("need at least one user")
        if not resources:
            raise ValueError("need at least one resource")
        if len(set(users)) != len(users):
            raise ValueError("duplicate user names")
        if len(set(resources)) != len(resources):
            raise ValueError("duplicate resource names")

        if isinstance(base, AuthorizationRelation):
            rel = base
            if (rel.n_users, rel.n_resources) != (len(users), len(resources)):
                raise ValueError("base relation shape does not match name tables")
        else:
            uidx = {name: i for i, name in enumerate(users)}
            ridx = {name: i for i, name in enumerate(resources)}
            rows = [0] * len(users)
            for uname, rnames in base.items():
                if uname not in uidx:
                    raise ValueError(f"unknown user {uname!r} in base relation")
                for rname in rnames:
                    if rname not in ridx:
                        raise ValueError(f"unknown resource {rname!r} in base relation")
                    rows[uidx[uname]] |= 1 << ridx[rname]
            rel = AuthorizationRelation(len(users), len(resources), tuple(rows))

        empty = [resources[r] for r, col in enumerate(rel.cols) if col == 0]
        if empty:
            raise ValueError(f"resources with no permitted user: {', '.join(empty)}")

        k = len(resources)
        normed = []
        for c in constraints:
            refs = _constraint_resources(c)
            bad = [r for r in refs if r >= k]
            if bad:
                raise ValueError(f"constraint {c!r} references unknown resource ids {bad}")
            normed.append(normalize(c))
        return cls(users, resources, rel, tuple(normed))

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def k(self) -> int:
        return len(self.resources)

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.users)}

    @cached_property
    def resource_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.resources)}

    def relation_from_names(
        self, mapping: Mapping[str, Iterable[str]]
    ) -> AuthorizationRelation:
        """Build a relation over this instance's id space from name lists."""
        rows = [0] * self.n
        for uname, rnames in mapping.items():
            if uname not in self.user_index:
                raise ValueError(f"unknown user {uname!r}")
            try:
                for rname in rnames:
                    if rname not in self.resource_index:
                        raise ValueError(f"unknown resource {rname!r}")
                    rows[self.user_index[uname]] |= 1 << self.resource_index[rname]
            except TypeError:
                raise ValueError(
                    f"user {uname!r}: expected a list of resource names"
                ) from None
        return AuthorizationRelation(self.n, self.k, tuple(rows))

    def relation_to_names(self, A: AuthorizationRelation) -> dict[str, list[str]]:
        """Name-keyed view of a relation, users in table order, empty rows omitted."""
        out: dict[str, list[str]] = {}
        for u, row in enumerate(A.rows):
            if row:
                out[self.users[u]] = [self.resources[r] for r in indices_of(row)]
        return out

    def constraint_kinds(self) -> frozenset[str]:
        return frozenset(constraint_kind(c) for c in self.constraints)


def _constraint_resources(c: Constraint) -> frozenset[int]:
    if isinstance(c, PairConstraint):
        return frozenset((c.r, c.r2))
    if isinstance(c, GlobalCardConstraint):
        return frozenset()
    if isinstance(c, LocalCardConstraint):
        return c.scope
    if isinstance(c, SmerConstraint):
        return c.scope
    if isinstance(c, TeamSodConstraint):
        return c.left | c.right
    raise TypeError(f"not a constraint: {c!r}")


def default_user_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(n))


def default_resource_names(k: int) -> tuple[str, ...]:
    return tuple(f"r{i + 1}" for i in range(k))
