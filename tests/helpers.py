"""Shared test helpers: naive reference implementations and builders.

Everything here is written per the constraint definitions over user sets,
deliberately ignoring how the package evaluates things (per-user loops and
itertools enumeration instead of mask algebra), so agreement between the two
is meaningful evidence.
"""

from __future__ import annotations

import json
import operator
from functools import cache
from itertools import combinations, product
from pathlib import Path

from apep import (
    AuthorizationRelation,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    SmerConstraint,
    TeamSodConstraint,
    default_resource_names,
    default_user_names,
)
from apep.cli import _constraint_record
from apep.matching import max_weight_row_saturating

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def make(rows, k, cons=()):
    """Instance from per-user resource masks with default names."""
    n = len(rows)
    return Instance.create(
        users=default_user_names(n),
        resources=default_resource_names(k),
        base=AuthorizationRelation(n, k, tuple(rows)),
        constraints=cons,
    )


def mask_eval(cols, n, c):
    """Reference constraint evaluation over per-resource user masks.

    Pair constraints are read as quantified per-user predicates; the
    existential implication takes the shared-user meaning, matching the
    package's normalization.
    """
    if isinstance(c, PairConstraint):
        a_col, b_col = cols[c.r], cols[c.r2]
        op, quant = c.op, c.quant
        if op == "implied_by":
            a_col, b_col = b_col, a_col
            op = "implies"
        if op == "implies" and quant == "exists":
            op = "iff"
        votes = []
        for u in range(n):
            a = bool(a_col >> u & 1)
            b = bool(b_col >> u & 1)
            if op == "iff":
                votes.append(a == b if quant == "forall" else a and b)
            elif op == "xor":
                votes.append(not (a and b) if quant == "forall" else a != b)
            else:
                votes.append(not a or b)
        return all(votes) if quant == "forall" else any(votes)
    if isinstance(c, GlobalCardConstraint):
        return all(
            _CMP[c.cmp](sum(col >> u & 1 for u in range(n)), c.t) for col in cols
        )
    if isinstance(c, LocalCardConstraint):
        users = {u for r in c.scope for u in range(n) if cols[r] >> u & 1}
        return _CMP[c.cmp](len(users), c.t)
    if isinstance(c, SmerConstraint):
        return not any(all(cols[r] >> u & 1 for r in c.scope) for u in range(n))
    if isinstance(c, TeamSodConstraint):
        left = {u for r in c.left for u in range(n) if cols[r] >> u & 1}
        right = {u for r in c.right for u in range(n) if cols[r] >> u & 1}
        return not left & right
    raise TypeError(f"not a constraint: {c!r}")


def nonempty_submasks_ascending(mask):
    out = []
    sub = 0
    while sub != mask:
        sub = (sub - mask) & mask
        out.append(sub)
    return out


def complete_subrelations(inst):
    """All authorized complete column tuples, leftmost column outermost.

    This is the same visiting order as the package's search, so "first hit"
    comparisons are exact.
    """
    choices = [nonempty_submasks_ascending(col) for col in inst.base.cols]
    return product(*choices)


def naive_decide(inst):
    """First eligible column tuple in enumeration order, or None."""
    for cols in complete_subrelations(inst):
        if all(mask_eval(cols, inst.n, c) for c in inst.constraints):
            return AuthorizationRelation.from_cols(inst.n, inst.k, cols)
    return None


def naive_maximize(inst):
    """(relation, size) with the first maximum in enumeration order, or None."""
    best = None
    best_size = -1
    for cols in complete_subrelations(inst):
        if all(mask_eval(cols, inst.n, c) for c in inst.constraints):
            size = sum(col.bit_count() for col in cols)
            if size > best_size:
                best_size = size
                best = cols
    if best is None:
        return None
    return AuthorizationRelation.from_cols(inst.n, inst.k, best), best_size


def core_of_cols(cols, n, constraints):
    """Core user set of a valid relation given as column masks.

    A user belongs to the core when removing them leaves some resource
    uncovered or some constraint false.  Completeness of the input is
    assumed.
    """
    core = []
    for u in range(n):
        bit = 1 << u
        if not any(col & bit for col in cols):
            continue
        stripped = tuple(col & ~bit for col in cols)
        if any(col == 0 for col in stripped) or not all(
            mask_eval(stripped, n, c) for c in constraints
        ):
            core.append(u)
    return frozenset(core)


def reference_serialize_instance(inst, extras=None):
    """The instance writer as ``json.dumps(doc, indent=2)``: the bytes to match."""
    doc = {
        "format": "apep-instance",
        "version": 1,
        "users": list(inst.users),
        "resources": list(inst.resources),
        "base": {
            name: [inst.resources[r] for r in range(inst.k) if inst.base.rows[u] >> r & 1]
            for u, name in enumerate(inst.users)
        },
        "constraints": [_constraint_record(inst, c) for c in inst.constraints],
    }
    extras = dict(extras or {})
    if "metadata" in extras:
        doc["metadata"] = extras.pop("metadata")
    for key in sorted(extras):
        doc[key] = extras[key]
    return json.dumps(doc, indent=2) + "\n"


def reference_serialize_relation(inst, A):
    """The relation writer as ``json.dumps(doc, indent=2)``: the bytes to match."""
    doc = {"format": "apep-relation", "version": 1, "relation": inst.relation_to_names(A)}
    return json.dumps(doc, indent=2) + "\n"


def plan_breaks(wsp, plan):
    """Whether a plan, or the first steps of one, assigns a step a user it
    does not authorize, splits an equality pair or joins an inequality pair."""
    m = len(plan)
    return (
        any(not wsp.auth[s] >> u & 1 for s, u in enumerate(plan))
        or any(plan[a] != plan[b] for a, b in wsp.eq_pairs if a < m and b < m)
        or any(plan[a] == plan[b] for a, b in wsp.neq_pairs if a < m and b < m)
    )


def naive_plan(wsp, plan=()):
    """First plan in lexicographic order, or None: every authorized user is
    tried for every step in turn, and a branch is cut once it breaks a tie."""
    if plan_breaks(wsp, plan):
        return None
    if len(plan) == wsp.n_steps:
        return plan
    auth = wsp.auth[len(plan)]
    for u in range(len(wsp.user_names)):
        if auth >> u & 1:
            found = naive_plan(wsp, plan + (u,))
            if found is not None:
                return found
    return None


def reference_pattern_valuer(inst):
    """A function giving the best size of a valid relation refining a
    pattern of the universal-xor instance, or None: every user is a matching
    column, with no cut of the candidates and no bound.

    A user keeps the largest set of their resources that holds no separated
    pair; serving block T, they keep the largest such set that contains T.
    """
    k, rows = inst.k, inst.base.rows
    pairs = [(c.r, c.r2) for c in inst.constraints]

    @cache
    def largest(row, block):
        held = [r for r in range(k) if row >> r & 1]
        needed = [r for r in range(k) if block >> r & 1]
        for size in range(len(held), -1, -1):
            for combo in combinations(held, size):
                chosen = set(combo)
                if all(r in chosen for r in needed) and not any(
                    a in chosen and b in chosen for a, b in pairs
                ):
                    return size
        return None

    def value(pattern):
        if len(pattern.blocks) > len(rows):
            return None
        weights = [
            [None if largest(row, block) is None else largest(row, block) - largest(row, 0)
             for row in rows]
            for block in pattern.blocks
        ]
        matched = max_weight_row_saturating(weights)
        return None if matched is None else sum(largest(row, 0) for row in rows) + matched[1]

    return value
