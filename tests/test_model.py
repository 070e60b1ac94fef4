"""Model layer: constraints, relations, instances, evaluation."""

import random
from itertools import combinations, product

import pytest

from apep import (
    AuthorizationRelation,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    SmerConstraint,
    TeamSodConstraint,
    constraint_kind,
    default_resource_names,
    default_user_names,
    eval_constraint,
    indices_of,
    iter_submasks,
    normalize,
    user_independence_witness,
)
from helpers import make, mask_eval


def test_indices_of():
    assert indices_of(0) == ()
    assert indices_of(0b1011) == (0, 1, 3)
    for mask in range(64):
        rebuilt = 0
        for i in indices_of(mask):
            rebuilt |= 1 << i
        assert rebuilt == mask


def test_iter_submasks_ascending_and_complete():
    for mask in (0, 0b1, 0b101, 0b1110, 0b11111):
        subs = list(iter_submasks(mask))
        assert subs[0] == 0 and subs[-1] == mask
        assert subs == sorted(subs)
        assert len(subs) == 1 << mask.bit_count()
        assert all(sub & ~mask == 0 for sub in subs)


def test_pair_constraint_validation():
    with pytest.raises(ValueError):
        PairConstraint(1, 1, "iff", "forall")
    with pytest.raises(ValueError):
        PairConstraint(-1, 0, "iff", "forall")
    with pytest.raises(ValueError):
        PairConstraint(0, 1, "nand", "forall")
    with pytest.raises(ValueError):
        PairConstraint(0, 1, "iff", "most")


def test_card_constraint_validation():
    with pytest.raises(ValueError):
        GlobalCardConstraint("~", 1)
    with pytest.raises(ValueError):
        GlobalCardConstraint("<=", 0)
    with pytest.raises(ValueError):
        LocalCardConstraint(frozenset(), "<=", 1)
    with pytest.raises(ValueError):
        LocalCardConstraint(frozenset({0}), "<=", 0)
    # scopes given as plain iterables are frozen
    c = LocalCardConstraint({0, 2}, "<=", 1)
    assert isinstance(c.scope, frozenset)


def test_smer_team_validation():
    with pytest.raises(ValueError):
        SmerConstraint(frozenset({0}))
    with pytest.raises(ValueError):
        TeamSodConstraint(frozenset({0}), frozenset({0, 1}))
    with pytest.raises(ValueError):
        TeamSodConstraint(frozenset(), frozenset({1}))
    c = TeamSodConstraint([0], [1, 2])
    assert isinstance(c.left, frozenset) and isinstance(c.right, frozenset)


def test_normalize_pair_rules():
    # left implication flips into a right one
    assert normalize(PairConstraint(2, 0, "implied_by", "forall")) == PairConstraint(
        0, 2, "implies", "forall"
    )
    # existential implication means a shared user, either direction
    assert normalize(PairConstraint(0, 1, "implies", "exists")) == PairConstraint(
        0, 1, "iff", "exists"
    )
    assert normalize(PairConstraint(1, 0, "implied_by", "exists")) == PairConstraint(
        0, 1, "iff", "exists"
    )
    # symmetric ops sort their operands; implies keeps direction
    assert normalize(PairConstraint(3, 1, "iff", "forall")) == PairConstraint(
        1, 3, "iff", "forall"
    )
    assert normalize(PairConstraint(3, 1, "xor", "exists")) == PairConstraint(
        1, 3, "xor", "exists"
    )
    assert normalize(PairConstraint(3, 1, "implies", "forall")) == PairConstraint(
        3, 1, "implies", "forall"
    )
    # canonical inputs come back as the same object
    c = PairConstraint(0, 2, "xor", "forall")
    assert normalize(c) is c


def test_normalize_cmp_rules():
    assert normalize(GlobalCardConstraint("<", 3)) == GlobalCardConstraint("<=", 2)
    assert normalize(GlobalCardConstraint(">", 3)) == GlobalCardConstraint(">=", 4)
    assert normalize(LocalCardConstraint({0}, "<", 2)) == LocalCardConstraint(
        {0}, "<=", 1
    )
    with pytest.raises(ValueError):
        normalize(GlobalCardConstraint("<", 1))
    with pytest.raises(ValueError):
        normalize(LocalCardConstraint({0, 1}, "<", 1))
    c = GlobalCardConstraint("=", 2)
    assert normalize(c) is c
    sm = SmerConstraint({0, 1})
    assert normalize(sm) is sm


def test_constraint_kind_tags():
    assert constraint_kind(PairConstraint(0, 1, "iff", "forall")) == "bod_u"
    assert constraint_kind(PairConstraint(0, 1, "iff", "exists")) == "bod_e"
    assert constraint_kind(PairConstraint(0, 1, "xor", "forall")) == "sod_u"
    assert constraint_kind(PairConstraint(0, 1, "xor", "exists")) == "sod_e"
    assert constraint_kind(PairConstraint(0, 1, "implies", "forall")) == "implies"
    # input forms are classified by their normalized meaning
    assert constraint_kind(PairConstraint(0, 1, "implied_by", "forall")) == "implies"
    assert constraint_kind(PairConstraint(0, 1, "implies", "exists")) == "bod_e"
    assert constraint_kind(GlobalCardConstraint("<=", 1)) == "global_card"
    assert constraint_kind(LocalCardConstraint({0}, "=", 1)) == "local_card"
    assert constraint_kind(SmerConstraint({0, 1})) == "smer"
    assert constraint_kind(TeamSodConstraint({0}, {1})) == "team_sod"


def test_relation_constructors_agree():
    rows = (0b011, 0b100, 0b000)
    a = AuthorizationRelation(3, 3, rows)
    assert AuthorizationRelation.from_rows(3, 3, list(rows)) == a
    assert AuthorizationRelation.from_pairs(3, 3, [(0, 0), (0, 1), (1, 2)]) == a
    assert AuthorizationRelation.from_cols(3, 3, a.cols) == a
    full = AuthorizationRelation.full(2, 3)
    assert full.rows == (0b111, 0b111) and full.size == 6

    with pytest.raises(ValueError):
        AuthorizationRelation(2, 2, (0b100, 0))
    with pytest.raises(ValueError):
        AuthorizationRelation(2, 2, (0,))
    with pytest.raises(ValueError):
        AuthorizationRelation.from_pairs(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        AuthorizationRelation.from_cols(2, 2, (0b11,))


@pytest.mark.parametrize("k", (1, 7, 8, 9, 16, 17))
def test_transposes_across_chunk_boundaries(k):
    # The transposes work on 8-resource chunks; compare them bit by bit on
    # both sides of a chunk boundary and of a 64-user word boundary.
    rng = random.Random(k)
    for n in (0, 1, 63, 64, 65, 1000):
        rows = tuple(rng.randrange(1 << k) for _ in range(n - 1)) + ((1 << k) - 1,) * (n > 0)
        cols = tuple(sum(1 << u for u in range(n) if rows[u] >> r & 1) for r in range(k))
        assert AuthorizationRelation(n, k, rows).cols == cols, n
        assert AuthorizationRelation.from_cols(n, k, cols).rows == rows, n

    for rows in ((0, -1), (1 << k, 0)):
        with pytest.raises(ValueError, match="row mask out of range"):
            AuthorizationRelation(2, k, rows)
    for bad in (-1, 1 << 3):
        with pytest.raises(ValueError, match="column mask out of range"):
            AuthorizationRelation.from_cols(3, k, (0,) * (k - 1) + (bad,))


def test_relation_views():
    a = AuthorizationRelation(3, 4, (0b0101, 0b0011, 0b1000))
    # transpose checked against a direct double loop
    for r in range(4):
        expect = 0
        for u in range(3):
            if a.rows[u] >> r & 1:
                expect |= 1 << u
        assert a.cols[r] == expect
    assert a.size == 5
    assert a.user_resources(0) == frozenset({0, 2})
    assert a.resource_users(0) == frozenset({0, 1})
    assert sorted(a.pairs()) == [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3)]
    assert (0, 2) in a and (0, 1) not in a and (9, 0) not in a


def test_relation_edits():
    a = AuthorizationRelation(3, 2, (0b01, 0b11, 0b10))
    b = a.without_user(1)
    assert b.rows == (0b01, 0, 0b10) and b.n_users == 3
    c = a.restrict_users([2, 0])
    assert c.n_users == 2 and c.rows == (0b10, 0b01)
    d = a.permute_users([2, 0, 1])
    assert d.rows == (0b11, 0b10, 0b01)
    with pytest.raises(ValueError):
        a.permute_users([0, 0, 1])


def test_is_subrelation():
    base = AuthorizationRelation(2, 2, (0b11, 0b01))
    assert AuthorizationRelation(2, 2, (0b01, 0b01)).is_subrelation_of(base)
    assert not AuthorizationRelation(2, 2, (0b01, 0b11)).is_subrelation_of(base)
    assert not AuthorizationRelation(1, 2, (0b01,)).is_subrelation_of(base)


def _all_species(k):
    cons = []
    for a, b in combinations(range(k), 2):
        for op in ("iff", "implies", "implied_by", "xor"):
            for quant in ("forall", "exists"):
                cons.append(PairConstraint(a, b, op, quant))
                cons.append(PairConstraint(b, a, op, quant))
    for cmp in ("<", "<=", "=", ">=", ">"):
        for t in (1, 2, 3):
            if (cmp, t) == ("<", 1):
                continue
            cons.append(GlobalCardConstraint(cmp, t))
            for size in range(1, k + 1):
                for scope in combinations(range(k), size):
                    cons.append(LocalCardConstraint(frozenset(scope), cmp, t))
    for size in range(2, k + 1):
        for scope in combinations(range(k), size):
            cons.append(SmerConstraint(frozenset(scope)))
    for r in range(k - 1):
        cons.append(TeamSodConstraint(frozenset({r}), frozenset({r + 1})))
    if k >= 3:
        cons.append(TeamSodConstraint(frozenset({0, 1}), frozenset({2})))
    return cons


def test_eval_matches_reference_exhaustively():
    """Mask-algebra evaluation equals the per-user predicate reading."""
    for n, k in ((3, 2), (2, 3)):
        species = _all_species(k)
        for cols in product(range(1, 1 << n), repeat=k):
            rel = AuthorizationRelation.from_cols(n, k, cols)
            for c in species:
                assert eval_constraint(rel, c) == mask_eval(cols, n, c), (cols, c)


def test_admits_rejects_only_prefixes_no_completion_satisfies():
    """Column-by-column prefixes, as the oracle builds them: ``lo`` holds the
    assigned columns and 0 elsewhere, ``hi`` the assigned columns and the base
    elsewhere.  ``admits`` may reject only when no columns between the bounds
    satisfy the reference reading, and it is exact on a full assignment."""
    rng = random.Random(11)
    rejected = 0
    for n, k in ((3, 2), (2, 3)):
        # a right side that precedes its left side in column order, too
        species = _all_species(k) + [TeamSodConstraint({1}, {0})]
        for _ in range(4):
            base = [rng.randrange(1, 1 << n) for _ in range(k)]
            for j in range(k + 1):
                assigned = ([s for s in iter_submasks(b) if s] for b in base[:j])
                for prefix in map(list, product(*assigned)):
                    lo = prefix + [0] * (k - j)
                    hi = prefix + base[j:]
                    fills = list(product(*(iter_submasks(b) for b in base[j:])))
                    for c in species:
                        if c.admits(lo, hi):
                            assert j < k or mask_eval(lo, n, c), (lo, c)
                            continue
                        rejected += 1
                        for fill in fills:
                            assert not mask_eval(prefix + list(fill), n, c), (lo, hi, c)
    assert rejected


def test_eval_normalization_consistency():
    """Every constraint agrees with its normalized form on complete relations."""
    species = _all_species(3)
    for cols in product(range(1, 4), repeat=3):
        rel = AuthorizationRelation.from_cols(2, 3, cols)
        for c in species:
            assert eval_constraint(rel, c) == eval_constraint(rel, normalize(c))


def test_user_independence_random():
    rng = random.Random(7)
    species = _all_species(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = tuple(rng.randrange(1 << 3) for _ in range(n))
        rel = AuthorizationRelation(n, 3, rows)
        sigma = list(range(n))
        rng.shuffle(sigma)
        c = rng.choice(species)
        assert user_independence_witness(rel, c, sigma)


def test_instance_create_validation():
    with pytest.raises(ValueError):
        Instance.create([], ["r1"], {})
    with pytest.raises(ValueError):
        Instance.create(["u1"], [], {})
    with pytest.raises(ValueError, match="^users: duplicate name 'u1'$"):
        Instance.create(["u1", "u1"], ["r1"], {"u1": ["r1"]})
    with pytest.raises(ValueError, match="^resources: duplicate name 'r1'$"):
        Instance.create(["u1"], ["r1", "r1"], {"u1": ["r1"]})
    with pytest.raises(ValueError):
        Instance.create(["u1"], ["r1"], {"ghost": ["r1"]})
    with pytest.raises(ValueError, match="base relation: user 'u1': unknown resource"):
        Instance.create(["u1"], ["r1"], {"u1": ["ghost"]})
    # a string is not read as a list of one-letter names
    with pytest.raises(ValueError, match="base relation: user 'u1': expected a list"):
        Instance.create(["u1"], ["a", "b"], {"u1": "ab"})
    # every resource needs at least one permitted user
    with pytest.raises(ValueError, match="^base relation: resources with no permitted user: r2$"):
        Instance.create(["u1"], ["r1", "r2"], {"u1": ["r1"]})
    # constraints referencing no resources are fine, out-of-range ids are not
    Instance.create(["u1"], ["r1"], {"u1": ["r1"]}, [GlobalCardConstraint("<=", 1)])
    with pytest.raises(ValueError):
        Instance.create(
            ["u1"], ["r1", "r2"], {"u1": ["r1", "r2"]},
            [PairConstraint(0, 5, "iff", "forall")],
        )
    # base given as a relation must match the name tables
    with pytest.raises(ValueError):
        Instance.create(
            ["u1"], ["r1"], AuthorizationRelation(2, 1, (1, 1))
        )


def test_instance_normalizes_constraints():
    inst = make(
        [0b11, 0b11],
        2,
        [PairConstraint(1, 0, "implied_by", "exists"), GlobalCardConstraint("<", 3)],
    )
    assert inst.constraints == (
        PairConstraint(0, 1, "iff", "exists"),
        GlobalCardConstraint("<=", 2),
    )


def test_relation_name_round_trip():
    inst = Instance.create(
        ["alice", "bob"], ["files", "mail"], {"alice": ["files", "mail"], "bob": ["mail"]}
    )
    rel = inst.relation_from_names({"alice": ["files"], "bob": ["mail"]})
    assert rel.rows == (0b01, 0b10)
    assert inst.relation_to_names(rel) == {"alice": ["files"], "bob": ["mail"]}
    # empty rows are omitted from the names view
    assert inst.relation_to_names(AuthorizationRelation(2, 2, (0b01, 0))) == {
        "alice": ["files"]
    }
    with pytest.raises(ValueError):
        inst.relation_from_names({"ghost": ["files"]})
    with pytest.raises(ValueError):
        inst.relation_from_names({"alice": ["ghost"]})
    letters = Instance.create(["u1"], ["a", "b"], {"u1": ["a", "b"]})
    with pytest.raises(ValueError, match="user 'u1': expected a list"):
        letters.relation_from_names({"u1": "ab"})


def test_constraint_kinds_set():
    inst = make(
        [0b111, 0b111],
        3,
        [
            PairConstraint(0, 1, "xor", "forall"),
            PairConstraint(1, 2, "iff", "exists"),
            SmerConstraint({0, 2}),
        ],
    )
    assert inst.constraint_kinds() == frozenset({"sod_u", "bod_e", "smer"})
    assert make([0b1], 1).constraint_kinds() == frozenset()


def test_default_names():
    assert default_user_names(3) == ("u1", "u2", "u3")
    assert default_resource_names(2) == ("r1", "r2")
