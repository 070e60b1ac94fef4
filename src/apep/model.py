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

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

UserId = int
ResourceId = int

PAIR_OPS = ("iff", "implies", "implied_by", "xor")
QUANTS = ("forall", "exists")
CMPS = ("<", "<=", "=", ">=", ">")


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
#
# Each constraint class states its meaning once, in ``admits(lo, hi)``: can
# the constraint still hold when every column ``c[r]`` (the user mask of
# resource ``r``) lies between ``lo[r]`` and ``hi[r]``, that is, when
# ``lo[r] & ~c[r] == 0`` and ``c[r] & ~hi[r] == 0``?  It answers False only
# when no such columns satisfy the constraint, and it is exact when
# ``lo == hi``.  ``resources`` are the ids it reads (empty: every column),
# ``kind`` is its routing tag and ``normalized()`` its canonical form.

_PAIR_KINDS = {
    ("iff", "forall"): "bod_u",
    ("iff", "exists"): "bod_e",
    ("xor", "forall"): "sod_u",
    ("xor", "exists"): "sod_e",
    ("implies", "forall"): "implies",
}


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

    @property
    def kind(self) -> str:
        c = self.normalized()
        return _PAIR_KINDS[c.op, c.quant]

    @property
    def resources(self) -> frozenset[ResourceId]:
        return frozenset((self.r, self.r2))

    def normalized(self) -> "PairConstraint":
        r, r2, op, quant = self.r, self.r2, self.op, self.quant
        if op == "implied_by":
            r, r2 = r2, r
            op = "implies"
        if op == "implies" and quant == "exists":
            op = "iff"
        if op in ("iff", "xor") and r > r2:
            r, r2 = r2, r
        if (r, r2, op, quant) == (self.r, self.r2, self.op, self.quant):
            return self
        return PairConstraint(r, r2, op, quant)

    def admits(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        a, b, op = self.r, self.r2, self.op
        if op == "implied_by":
            a, b, op = b, a, "implies"
        if self.quant == "exists":
            if op == "xor":  # different users
                return not lo[a] == hi[a] == lo[b] == hi[b]
            return bool(hi[a] & hi[b])  # iff, implies: a shared user
        if op == "iff":  # the same users
            return (lo[a] | lo[b]) & ~(hi[a] & hi[b]) == 0
        if op == "xor":  # no shared user
            return not lo[a] & lo[b]
        return lo[a] & ~hi[b] == 0  # implies: users of a also hold b


def _admits_count(low: int, high: int, cmp: str, t: int) -> bool:
    """Whether some count in ``[low, high]`` satisfies ``count cmp t``."""
    if cmp == "<":
        return low < t
    if cmp == "<=":
        return low <= t
    if cmp == "=":
        return low <= t <= high
    if cmp == ">=":
        return high >= t
    if cmp == ">":
        return high > t
    raise ValueError(f"unknown comparison {cmp!r}")


def _normalized_card(c: GlobalCardConstraint | LocalCardConstraint) -> Constraint:
    """A cardinality constraint with its strict comparison made inclusive."""
    if c.cmp == "<":
        if c.t == 1:
            raise ValueError("(<, 1) admits no complete relation")
        return replace(c, cmp="<=", t=c.t - 1)
    if c.cmp == ">":
        return replace(c, cmp=">=", t=c.t + 1)
    return c


def _union(masks: Sequence[int], ids: Iterable[int]) -> int:
    out = 0
    for r in ids:
        out |= masks[r]
    return out


@dataclass(frozen=True)
class GlobalCardConstraint:
    """Bounds the team size |A(r)| of every resource at once."""

    cmp: str
    t: int

    kind = "global_card"
    resources = frozenset()  # every column

    def __post_init__(self) -> None:
        if self.cmp not in CMPS:
            raise ValueError(f"unknown comparison {self.cmp!r}")
        if self.t < 1:
            raise ValueError("threshold must be at least 1")

    normalized = _normalized_card

    def admits(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        return all(
            _admits_count(low.bit_count(), high.bit_count(), self.cmp, self.t)
            for low, high in zip(lo, hi)
        )


@dataclass(frozen=True)
class LocalCardConstraint:
    """Bounds the number of distinct users across a set of resources."""

    scope: frozenset[ResourceId]
    cmp: str
    t: int

    kind = "local_card"

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

    @property
    def resources(self) -> frozenset[ResourceId]:
        return self.scope

    normalized = _normalized_card

    def admits(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        low = _union(lo, self.scope).bit_count()
        high = _union(hi, self.scope).bit_count()
        return _admits_count(low, high, self.cmp, self.t)


@dataclass(frozen=True)
class SmerConstraint:
    """No single user may hold every resource in the scope."""

    scope: frozenset[ResourceId]

    kind = "smer"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
        if len(self.scope) < 2:
            raise ValueError("scope needs at least two resources")
        if any(r < 0 for r in self.scope):
            raise ValueError("resource ids must be non-negative")

    @property
    def resources(self) -> frozenset[ResourceId]:
        return self.scope

    def normalized(self) -> "SmerConstraint":
        return self

    def admits(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        inter = -1
        for r in self.scope:
            inter &= lo[r]
        return inter == 0


@dataclass(frozen=True)
class TeamSodConstraint:
    """The user teams of two resource groups must not overlap."""

    left: frozenset[ResourceId]
    right: frozenset[ResourceId]

    kind = "team_sod"

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides must be non-empty")
        if self.left & self.right:
            raise ValueError("sides must be disjoint")
        if any(r < 0 for r in self.left | self.right):
            raise ValueError("resource ids must be non-negative")

    @property
    def resources(self) -> frozenset[ResourceId]:
        return self.left | self.right

    def normalized(self) -> "TeamSodConstraint":
        return self

    def admits(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        return not _union(lo, self.left) & _union(lo, self.right)


Constraint = Union[
    PairConstraint,
    GlobalCardConstraint,
    LocalCardConstraint,
    SmerConstraint,
    TeamSodConstraint,
]


def constraint_kind(c: Constraint) -> str:
    """Classification tag used for solver routing: ``c.kind``.

    Pair constraints are tagged by their normalized species: ``bod_u``
    (iff/forall), ``bod_e`` (iff/exists), ``sod_u`` (xor/forall), ``sod_e``
    (xor/exists) and ``implies`` (implies/forall).
    """
    return c.kind


def normalize(c: Constraint) -> Constraint:
    """Rewrite a constraint into canonical form: ``c.normalized()``.

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
    return c.normalized()


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

# Translation tables of the transposes, one per bit j of a byte: the binary
# digit of bit j of each byte value, and each binary digit onto bit j.
_DIGIT_OF_BIT = tuple(bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8))
_BIT_OF_DIGIT = tuple(bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8))


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
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> self.n_resources):
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
        # The inverse of ``cols``: a column's binary digits, last user first,
        # become one byte per user with the column's bit of its chunk set;
        # OR-ing the columns of a chunk gives each user's byte of that chunk.
        width = f"0{n_users}b"
        rows = [0] * n_users
        for lo in range(0, n_resources, 8):
            chunk = 0
            for r in range(lo, min(lo + 8, n_resources)):
                col = cols[r]
                if col < 0 or col >> n_users:
                    raise ValueError("column mask out of range")
                digits = format(col, width).encode().translate(_BIT_OF_DIGIT[r - lo])
                chunk |= int.from_bytes(digits, "big")
            per_user = chunk.to_bytes(n_users, "little")
            if lo:
                rows = list(map(int.__or__, rows, map(lo.__rlshift__, per_user)))
            else:
                rows = list(per_user)
        return cls(n_users, n_resources, tuple(rows))

    @classmethod
    def full(cls, n_users: int, n_resources: int) -> "AuthorizationRelation":
        row = (1 << n_resources) - 1
        return cls(n_users, n_resources, (row,) * n_users)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        # One C-level pass per resource: each user's byte of an 8-resource
        # chunk, last user first, is translated to the binary digit of one
        # resource, and ``int(digits, 2)`` reads the column off the digits.
        # The first chunk needs no shift, and the last no mask.
        cols = []
        backwards = self.rows[::-1]
        for lo in range(0, self.n_resources, 8):
            chunk = map(lo.__rrshift__, backwards) if lo else backwards
            if lo + 8 < self.n_resources:
                chunk = map((0xFF).__and__, chunk)
            chunk = bytes(chunk)
            for r in range(lo, min(lo + 8, self.n_resources)):
                cols.append(int(chunk.translate(_DIGIT_OF_BIT[r - lo]) or b"0", 2))
        return tuple(cols)

    @cached_property
    def size(self) -> int:
        return sum(map(int.bit_count, self.rows))

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
        return not any(map(int.__and__, self.rows, map(int.__invert__, other.rows)))

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
    return c.admits(A.cols, A.cols)


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
        user_index = dict(zip(users, range(len(users))))
        resource_index = dict(zip(resources, range(len(resources))))
        for where, names, index in (
            ("users", users, user_index),
            ("resources", resources, resource_index),
        ):
            if len(index) != len(names):
                dup = next(x for x, m in Counter(names).items() if m > 1)
                raise ValueError(f"{where}: duplicate name {dup!r}")

        if isinstance(base, AuthorizationRelation):
            rel = base
            if (rel.n_users, rel.n_resources) != (len(users), len(resources)):
                raise ValueError("base relation shape does not match name tables")
        else:
            try:
                rel = _relation_from_names(base, user_index, resource_index)
            except ValueError as e:
                raise ValueError(f"base relation: {e}") from None

        held = reduce(or_, rel.rows, 0)
        empty = [name for r, name in enumerate(resources) if not held >> r & 1]
        if empty:
            raise ValueError(
                f"base relation: resources with no permitted user: {', '.join(empty)}"
            )

        k = len(resources)
        normed = []
        for c in constraints:
            bad = [r for r in c.resources if r >= k]
            if bad:
                raise ValueError(f"constraint {c!r} references unknown resource ids {bad}")
            normed.append(c.normalized())
        inst = cls(users, resources, rel, tuple(normed))
        # The cached name indexes are the dicts checked above.
        vars(inst).update(user_index=user_index, resource_index=resource_index)
        return inst

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
        return _relation_from_names(mapping, self.user_index, self.resource_index)

    def relation_to_names(self, A: AuthorizationRelation) -> dict[str, list[str]]:
        """Name-keyed view of a relation, users in table order, empty rows omitted."""
        out: dict[str, list[str]] = {}
        for u, row in enumerate(A.rows):
            if row:
                out[self.users[u]] = [self.resources[r] for r in indices_of(row)]
        return out

    def constraint_kinds(self) -> frozenset[str]:
        return frozenset(c.kind for c in self.constraints)


def _relation_from_names(
    mapping: Mapping[str, Iterable[str]],
    user_index: Mapping[str, int],
    resource_index: Mapping[str, int],
) -> AuthorizationRelation:
    """The relation that lists, per user name, the names of their resources."""
    rows = [0] * len(user_index)
    row_of: dict[tuple, int] = {}  # each distinct list of names is read once
    for uname, rnames in mapping.items():
        u = user_index.get(uname)
        if u is None:
            raise ValueError(f"unknown user {uname!r}")
        try:
            if isinstance(rnames, str):  # iterable, but its characters are no names
                raise TypeError
            key = tuple(rnames)
            row = row_of.get(key)
            if row is None:
                row = 0
                for rname in key:
                    if rname not in resource_index:
                        raise ValueError(f"user {uname!r}: unknown resource {rname!r}")
                    row |= 1 << resource_index[rname]
                row_of[key] = row
        except TypeError:
            raise ValueError(f"user {uname!r}: expected a list of resource names") from None
        rows[u] = row
    return AuthorizationRelation(len(user_index), len(resource_index), tuple(rows))


def default_user_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(n))


def default_resource_names(k: int) -> tuple[str, ...]:
    return tuple(f"r{i + 1}" for i in range(k))
