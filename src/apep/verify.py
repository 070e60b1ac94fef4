"""Validity checking plus required-user cores and their size bounds."""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    AuthorizationRelation,
    Constraint,
    Instance,
    eval_constraint,
    normalize,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of validity checking.

    ``violated`` lists the indices of failed constraints.  Eligibility is
    only assessed on complete relations; an incomplete relation reports
    ``eligible=False`` with no violated indices.
    """

    authorized: bool
    complete: bool
    eligible: bool
    violated: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return self.authorized and self.complete and self.eligible


def check_valid(inst: Instance, A: AuthorizationRelation) -> Verdict:
    """Check a candidate relation against an instance.

    Valid means authorized (a subrelation of the base), complete (every
    resource keeps at least one user) and eligible (every constraint holds).
    """
    if (A.n_users, A.n_resources) != (inst.n, inst.k):
        raise ValueError(
            f"relation shape {A.n_users}x{A.n_resources} does not match "
            f"instance shape {inst.n}x{inst.k}"
        )
    authorized = A.is_subrelation_of(inst.base)
    complete = all(col != 0 for col in A.cols)
    if not complete:
        return Verdict(authorized, False, False, ())
    violated = tuple(
        i for i, c in enumerate(inst.constraints) if not eval_constraint(A, c)
    )
    return Verdict(authorized, True, not violated, violated)


def compute_core(inst: Instance, A: AuthorizationRelation) -> frozenset[int]:
    """Users whose removal from a valid relation breaks validity.

    Requires ``A`` valid for ``inst``.  A user is in the core exactly when
    deleting all of their assignments leaves the remaining relation
    incomplete or ineligible.
    """
    if not check_valid(inst, A).valid:
        raise ValueError("core is only defined for valid relations")
    core = []
    for u, row in enumerate(A.rows):
        if row and not check_valid(inst, A.without_user(u)).valid:
            core.append(u)
    return frozenset(core)


@dataclass(frozen=True)
class CoreBound:
    """Upper bound on core size for one constraint over k resources.

    ``provenance`` records whether the bound restates a published one or is
    a derived safe over-estimate.  ``constraint_index`` is filled by callers
    that track which instance constraint produced the bound.
    """

    bound: int
    provenance: str  # "paper" or "derived"
    constraint_index: int | None = None


def bound_for(c: Constraint, k: int) -> CoreBound:
    """Core size bound contributed by a single constraint.

    Any valid relation has a core of at most this many users when the
    instance carries only this constraint.  The relation's completeness
    alone already forces a core of at most k.  For a mix of constraints use
    :func:`instance_bound`.
    """
    c = normalize(c)
    if c.kind in ("sod_u", "sod_e"):
        return CoreBound(k, "paper")
    if c.kind in ("bod_u", "bod_e", "implies"):
        return CoreBound(k - 1, "paper") if k > 1 else CoreBound(k, "paper")
    if c.kind == "global_card":
        if c.cmp == "<=":
            return CoreBound(k, "paper")
        # Lower-bounded team sizes: k teams of at most t required users each,
        # plus up to k completeness representatives, stays below k * (t + 1).
        return CoreBound(k * (c.t + 1), "derived")
    if c.kind == "local_card":
        if c.cmp == "<=":
            return CoreBound(k, "paper")
        return CoreBound(2 * max(k, c.t), "paper")
    if c.kind in ("smer", "team_sod"):
        return CoreBound(k, "paper")
    raise TypeError(f"not a constraint: {c!r}")


def instance_bound(inst: Instance) -> int:
    """Core size bound for a whole instance, the ``f`` of the family rule.

    f = k + #bod_e + sum of t over local ``=``/``>=`` cards + sum of k*t
    over global ``=``/``>=`` cards, with t after normalization.

    Proof.  A core user's removal breaks completeness, a ``sod_e`` pair (the
    two columns differ in that user alone), a ``bod_e`` pair (the only
    shared user) or a lower-bounded card; it never breaks ``bod_u``,
    ``implies`` or the anti-monotone ``sod_u``, ``smer``, ``team_sod`` and
    ``<=`` cards.  Completeness and ``sod_e`` give at most k core users:
    join the empty set and the distinct columns (at most k + 1 sets) where
    two differ in one user, and label the edge with that user.  A cycle
    flips each user an even number of times, so each label is already on
    a spanning-forest edge, and a forest has at most k edges.  A ``bod_e``
    pair gives at most 1, a local card t and a global card t per resource.
    So every valid relation has a core of at most f, and removing non-core
    users one at a time leaves a valid relation of at most f users: the
    family rule may keep f users of each family.
    """
    k = f = inst.k
    for c in map(normalize, inst.constraints):
        if c.kind == "bod_e":
            f += 1
        elif c.kind in ("local_card", "global_card") and c.cmp != "<=":
            f += c.t if c.kind == "local_card" else k * c.t
    return f
