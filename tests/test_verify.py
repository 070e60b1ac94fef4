"""Validity verdicts plus required-user cores and their size bounds."""

import random

import pytest

from apep import (
    AuthorizationRelation,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    SmerConstraint,
    TeamSodConstraint,
    bound_for,
    check_valid,
    compute_core,
    instance_bound,
)
from apep.cli import GenParams, generate
from helpers import FIXTURES, make

from apep.cli import load_instance


def test_verdict_fields():
    inst = make([0b11, 0b01], 2, [PairConstraint(0, 1, "xor", "forall")])
    good = AuthorizationRelation(2, 2, (0b10, 0b01))
    v = check_valid(inst, good)
    assert (v.authorized, v.complete, v.eligible, v.violated) == (True, True, True, ())
    assert v.valid

    # unauthorized pair, still complete and eligible
    v = check_valid(inst, AuthorizationRelation(2, 2, (0b10, 0b11)))
    assert not v.authorized and v.complete
    assert not v.valid

    # incomplete relations are ineligible with no violation detail
    v = check_valid(inst, AuthorizationRelation(2, 2, (0b00, 0b01)))
    assert not v.complete and not v.eligible and v.violated == ()

    # constraint violation lists the offending index
    v = check_valid(inst, AuthorizationRelation(2, 2, (0b11, 0b01)))
    assert v.complete and not v.eligible and v.violated == (0,)


def test_verdict_violated_iff_ineligible():
    rng = random.Random(3)
    for seed in range(60):
        inst = generate(
            GenParams(n=4, k=3, seed=seed, sodu=1, bode=1, lcard=1, smer=1)
        )
        rows = tuple(
            inst.base.rows[u] & rng.randrange(1 << 3) for u in range(inst.n)
        )
        v = check_valid(inst, AuthorizationRelation(inst.n, inst.k, rows))
        if v.complete:
            assert bool(v.violated) == (not v.eligible)
        else:
            assert not v.eligible and v.violated == ()


def test_check_valid_shape_mismatch():
    inst = make([0b1], 1)
    with pytest.raises(ValueError):
        check_valid(inst, AuthorizationRelation(2, 1, (1, 0)))


def test_compute_core_examples():
    # a single permitted pair: that user is required
    inst = make([0b1, 0b0], 1)
    assert compute_core(inst, AuthorizationRelation(2, 1, (0b1, 0))) == {0}

    # distinct singletons under separation: everyone is required
    inst = make(
        [0b001, 0b010, 0b100],
        3,
        [PairConstraint(0, 1, "xor", "forall"), PairConstraint(1, 2, "xor", "forall")],
    )
    rel = AuthorizationRelation(3, 3, (0b001, 0b010, 0b100))
    assert compute_core(inst, rel) == {0, 1, 2}

    # two users sharing both resources under a universal iff: nobody is required
    inst = make([0b11, 0b11], 2, [PairConstraint(0, 1, "iff", "forall")])
    assert compute_core(inst, AuthorizationRelation(2, 2, (0b11, 0b11))) == frozenset()


def test_compute_core_requires_validity():
    inst = make([0b1], 1)
    with pytest.raises(ValueError):
        compute_core(inst, AuthorizationRelation(1, 1, (0,)))


def test_core_users_with_empty_rows_are_skipped():
    inst = make([0b1, 0b0], 1)
    core = compute_core(inst, AuthorizationRelation(2, 1, (0b1, 0)))
    assert 1 not in core


def test_bound_for_table():
    k = 4
    assert bound_for(PairConstraint(0, 1, "xor", "forall"), k).bound == k
    assert bound_for(PairConstraint(0, 1, "xor", "exists"), k).bound == k
    assert bound_for(PairConstraint(0, 1, "iff", "forall"), k).bound == k - 1
    assert bound_for(PairConstraint(0, 1, "iff", "exists"), k).bound == k - 1
    assert bound_for(PairConstraint(0, 1, "implies", "forall"), k).bound == k - 1
    assert bound_for(GlobalCardConstraint("<=", 2), k).bound == k
    assert bound_for(LocalCardConstraint({0, 1}, "<=", 2), k).bound == k
    assert bound_for(SmerConstraint({0, 1}), k).bound == k
    assert bound_for(TeamSodConstraint({0}, {1}), k).bound == k
    # lower-bounded team counts over a scope
    assert bound_for(LocalCardConstraint({0, 1}, ">=", 5), 3).bound == 10
    assert bound_for(LocalCardConstraint({0}, "=", 2), 3).bound == 6
    assert bound_for(SmerConstraint({0, 1}), 4).bound == 4
    # lower-bounded global team sizes: derived over-estimate k*(t+1)
    b = bound_for(GlobalCardConstraint(">=", 2), 3)
    assert b.bound == 9 and b.provenance == "derived"
    assert bound_for(GlobalCardConstraint("=", 1), 4).bound == 8
    # strict comparisons are normalized before the table lookup
    assert bound_for(GlobalCardConstraint(">", 1), 2).bound == 6
    assert bound_for(LocalCardConstraint({0}, "<", 3), 5).bound == 5


def test_bound_provenance_values():
    for c in (
        PairConstraint(0, 1, "xor", "forall"),
        GlobalCardConstraint(">=", 2),
        LocalCardConstraint({0}, "=", 3),
        SmerConstraint({0, 1}),
    ):
        assert bound_for(c, 3).provenance in ("paper", "derived")
    assert bound_for(PairConstraint(0, 1, "iff", "forall"), 3).constraint_index is None


def test_instance_bound():
    inst = make([0b111], 3, [LocalCardConstraint({0, 1}, "=", 7)])
    assert instance_bound(inst) == 10
    # the completeness floor k applies with no constraints at all
    assert instance_bound(make([0b111, 0b111], 3)) == 3
    fig = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    assert instance_bound(fig) == 3


def test_core_within_instance_bound_randomized():
    for seed in range(80):
        inst = generate(
            GenParams(n=5, k=3, seed=seed, sodu=1, bode=1, gcard=1, lcard=1, smer=1)
        )
        from apep import brute_decide

        rel = brute_decide(inst)
        if rel is None:
            continue
        assert len(compute_core(inst, rel)) <= instance_bound(inst)


def test_core_monotone_under_base_enlargement():
    """Widening the base to everything never shrinks a relation's core."""
    for seed in range(60):
        inst = generate(GenParams(n=4, k=3, seed=seed, sodu=1, lcard=1))
        from apep import brute_decide

        rel = brute_decide(inst)
        if rel is None:
            continue
        widened = Instance.create(
            inst.users,
            inst.resources,
            AuthorizationRelation.full(inst.n, inst.k),
            inst.constraints,
        )
        assert len(compute_core(widened, rel)) >= len(compute_core(inst, rel))
