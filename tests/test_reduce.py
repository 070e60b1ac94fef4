"""Reductions: family truncation, resource merging, planning rewrite,
resiliency encoding."""

import hashlib
import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from apep import (
    AuthorizationRelation,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    ReductionTrace,
    SmerConstraint,
    TeamSodConstraint,
    TriviallyUnsat,
    apply_reduction_rule,
    brute_decide,
    check_valid,
    dispatch,
    eliminate_bod_u,
    encode_resiliency,
    from_wsp_plan,
    instance_bound,
    lift_merged_classes,
    lift_removed_users,
    partition_families,
    replay_trace,
    to_wsp,
)
from apep.cli import GenParams, generate, load_instance, serialize_instance
from apep.solve import solve_bounded
from helpers import FIXTURES, make, naive_decide


def test_partition_families_fixture():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    fp = partition_families(inst)
    assert fp.masks == (0b011, 0b101, 0b111)
    assert fp.members == ((2, 3, 4, 5, 6), (0, 1), (7,))
    assert fp.as_dict()[0b101] == (0, 1)


def test_partition_families_keeps_empty_row_group():
    inst = make([0b1, 0b0, 0b0], 1)
    fp = partition_families(inst)
    assert fp.masks == (0, 0b1)
    assert fp.members == ((1, 2), (0,))


def test_apply_reduction_rule_removal_order():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    reduced, trace = apply_reduction_rule(inst, 3)
    # largest indices go first, only the oversized family shrinks
    assert trace.removed_users == ("u7", "u6")
    assert reduced.n == 6 and reduced.users == ("u1", "u2", "u3", "u4", "u5", "u8")
    fp = partition_families(reduced)
    assert all(len(members) <= 3 for members in fp.members)
    # survivors keep their base rows
    for name in reduced.users:
        u_new = reduced.user_index[name]
        u_old = inst.user_index[name]
        assert reduced.base.rows[u_new] == inst.base.rows[u_old]


def test_apply_reduction_rule_rejects_small_f():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    with pytest.raises(ValueError):
        apply_reduction_rule(inst, 2)


def test_reduction_preserves_decision_spot():
    for seed in range(60):
        inst = generate(
            GenParams(n=6, k=3, seed=seed, sodu=1, gcard=1, lcard=1, t_max=2)
        )
        reduced, trace = apply_reduction_rule(inst, instance_bound(inst))
        assert (brute_decide(inst) is None) == (brute_decide(reduced) is None), inst


def _full(n, k, cons):
    return make([(1 << k) - 1] * n, k, cons)


def test_kernel_keeps_disjoint_teams_forced_by_cards():
    # three disjoint teams of three: each card wants 3 users, team_sod keeps
    # them apart, so all 9 users of the one family are needed
    cons = [LocalCardConstraint({r}, ">=", 3) for r in range(3)]
    cons += [TeamSodConstraint({a}, {b}) for a, b in combinations(range(3), 2)]
    inst = _full(9, 3, cons)
    assert instance_bound(inst) == 12
    report = dispatch(inst, "decide")
    assert report.algorithm == "bounded_kernel" and report.satisfiable
    assert check_valid(inst, report.witness).valid


def test_kernel_keeps_one_user_per_bod_e_pair():
    # bod_e on all six pairs of four resources and smer on every triple: each
    # user holds at most one pair, so all 6 users are needed
    cons = [PairConstraint(a, b, "iff", "exists") for a, b in combinations(range(4), 2)]
    cons += [SmerConstraint(set(s)) for s in combinations(range(4), 3)]
    inst = _full(6, 4, cons)
    assert instance_bound(inst) == 10
    report = dispatch(inst, "decide")
    assert report.algorithm == "bounded_kernel" and report.satisfiable
    assert check_valid(inst, report.witness).valid
    assert brute_decide(inst) is not None


def _kernel_gadgets():
    """Instances whose valid relations need many users of one family."""
    for k, t, cmp in product((2, 3), (1, 2, 3, 4), (">=", "=")):
        pairs = list(combinations(range(k), 2))
        for seps, cards in product(
            ([TeamSodConstraint({a}, {b}) for a, b in pairs], [SmerConstraint(p) for p in pairs]),
            ([LocalCardConstraint({r}, cmp, t) for r in range(k)], [GlobalCardConstraint(cmp, t)]),
        ):
            for n in range(max(1, k * t - 1), min(k * t + 1, 18 // k) + 1):
                yield _full(n, k, cards + seps)
    smer_triples = [SmerConstraint(set(s)) for s in combinations(range(4), 3)]
    for p in (3, 4, 5):
        for pairs in combinations(combinations(range(4), 2), p):
            bode = [PairConstraint(a, b, "iff", "exists") for a, b in pairs]
            for n in (p - 1, p):
                yield _full(n, 4, bode + smer_triples)


def _family_heavy_mixes(count):
    """Random mixes over at most three base rows, one of them full: large families."""
    rng = random.Random(5)
    for _ in range(count):
        k = rng.choice((2, 3, 4))
        full = (1 << k) - 1
        rows = [full, *(rng.randrange(1, full + 1) for _ in range(rng.randint(0, 2)))]
        cons = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(k), 2)
            cmp, t = rng.choice(("<=", "=", ">=")), rng.randint(1, 3)
            cons.append(rng.choice((
                PairConstraint(a, b, rng.choice(("iff", "xor", "implies")),
                               rng.choice(("forall", "exists"))),
                LocalCardConstraint(set(rng.sample(range(k), rng.randint(1, k))), cmp, t),
                GlobalCardConstraint(cmp, t),
                SmerConstraint({a, b}),
                TeamSodConstraint({a}, {b}),
            )))
        n = rng.randint(2, 18 // k)
        yield make([full] + [rng.choice(rows) for _ in range(n - 1)], k, cons)


def test_kernel_route_matches_brute_on_gadgets_and_family_heavy_mixes():
    instances = [*_kernel_gadgets(), *_family_heavy_mixes(200)]
    assert len(instances) >= 300
    fired = 0
    for inst in instances:
        report = solve_bounded(inst)
        fired += report.counters.get("users_removed", 0) > 0
        assert report.satisfiable == (brute_decide(inst) is not None), inst
        if report.satisfiable:
            assert check_valid(inst, report.witness).valid
    assert fired >= 30


def test_lift_removed_users():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    reduced, _ = apply_reduction_rule(inst, 3)
    found = brute_decide(reduced)
    lifted = lift_removed_users(inst, reduced, found)
    assert lifted.n_users == inst.n
    assert check_valid(inst, lifted).valid
    # removed users carry no assignments
    assert lifted.rows[inst.user_index["u6"]] == 0
    assert lifted.rows[inst.user_index["u7"]] == 0


def test_eliminate_bod_u_merges_chain():
    inst = make(
        [0b011, 0b111, 0b110],
        3,
        [
            PairConstraint(0, 1, "iff", "forall"),
            PairConstraint(1, 2, "iff", "forall"),
        ],
    )
    res = eliminate_bod_u(inst)
    assert not isinstance(res, TriviallyUnsat)
    reduced, trace = res
    assert reduced.resources == ("r1",)
    # class column is the intersection of all member columns
    assert reduced.base.cols == (0b010,)
    assert trace.resource_classes == (("r1", "r2", "r3"),)
    assert trace.constraint_rewrites == ((0, "class-edge"), (1, "class-edge"))


def test_eliminate_bod_u_lifts_and_dedupes():
    inst = make(
        [0b111, 0b111],
        3,
        [
            PairConstraint(0, 1, "iff", "forall"),
            PairConstraint(1, 2, "iff", "exists"),
            PairConstraint(0, 2, "iff", "exists"),
            PairConstraint(0, 1, "implies", "forall"),
        ],
    )
    res = eliminate_bod_u(inst)
    assert not isinstance(res, TriviallyUnsat)
    reduced, trace = res
    assert reduced.resources == ("r1", "r3")
    assert reduced.constraints == (PairConstraint(0, 1, "iff", "exists"),)
    assert trace.constraint_rewrites == (
        (0, "class-edge"),
        (1, "lifted:0"),
        (2, "duplicate:0"),
        (3, "dropped"),
    )


def test_eliminate_bod_u_unsat_cases():
    # two tied resources with no shared permitted user
    inst = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "forall")])
    res = eliminate_bod_u(inst)
    assert isinstance(res, TriviallyUnsat) and "r1" in res.reason

    # separation inside a merged class, both quantifiers
    for quant in ("forall", "exists"):
        inst = make(
            [0b111, 0b111],
            3,
            [
                PairConstraint(0, 1, "iff", "forall"),
                PairConstraint(1, 2, "iff", "forall"),
                PairConstraint(0, 2, "xor", quant),
            ],
        )
        res = eliminate_bod_u(inst)
        assert isinstance(res, TriviallyUnsat)


def test_eliminate_bod_u_rejects_non_pair():
    inst = make([0b11], 2, [SmerConstraint({0, 1})])
    with pytest.raises(ValueError):
        eliminate_bod_u(inst)


def test_eliminate_bod_u_no_edges_is_identity_shape():
    inst = make([0b11, 0b01], 2, [PairConstraint(0, 1, "xor", "exists")])
    res = eliminate_bod_u(inst)
    assert not isinstance(res, TriviallyUnsat)
    reduced, trace = res
    assert reduced.resources == inst.resources
    assert reduced.base == inst.base
    assert reduced.constraints == inst.constraints
    assert trace.resource_classes == (("r1",), ("r2",))


def test_lift_merged_classes_expands():
    inst = make(
        [0b011, 0b111],
        3,
        [PairConstraint(0, 1, "iff", "forall")],
    )
    res = eliminate_bod_u(inst)
    reduced, trace = res
    witness = lift_merged_classes(inst, trace, reduced.base)
    # both class members receive the class column, r3 keeps its own
    assert witness.cols[0] == witness.cols[1] == reduced.base.cols[0]
    assert witness.cols[2] == reduced.base.cols[1]
    assert check_valid(inst, witness).valid


PAIR_SPECIES = ("bodu", "bode", "sodu", "sode", "implies")
REDUCTIONS_SHA256 = "15ac0ca39aeeaf7cc90eaad797b806e8d70ac54f3ef12f31a8b6049e1ef97d98"


def _pair_mixes(count: int):
    """``count`` seeded pair-only ``GenParams`` over every pair species."""
    rng = random.Random(19)
    for seed in range(count):
        k = rng.randint(1, 7)
        room = k * (k - 1) // 2
        counts = {}
        for name in rng.sample(PAIR_SPECIES, len(PAIR_SPECIES)):
            counts[name] = rng.randint(0, min(3, room))
            room -= counts[name]
        yield GenParams(n=rng.randint(1, 40), k=k, seed=seed,
                        density=rng.choice((0.3, 0.6, 0.9, 1.0)), **counts)


def test_replay_trace_rebuilds_reduced_instance():
    # Merge, then truncate families at f = bound + 0..2; every replay,
    # alone and combined, rebuilds the reduced instance.  The digest pins
    # what both reductions output, constraint order and trace labels
    # included.
    h = hashlib.sha256()
    merged = 0
    for params in _pair_mixes(1200):
        inst = generate(params)
        res = eliminate_bod_u(inst)
        if isinstance(res, TriviallyUnsat):
            h.update(f"unsat {res.reason}\n".encode())
            work, merge_trace = inst, ReductionTrace()
        else:
            work, merge_trace = res
            merged += 1
            h.update(f"{serialize_instance(work)}{merge_trace!r}\n".encode())
            assert replay_trace(inst, merge_trace) == work
        for f in range(instance_bound(work), instance_bound(work) + 3):
            kernel, kernel_trace = apply_reduction_rule(work, f)
            h.update(f"{f} {serialize_instance(kernel)}{kernel_trace!r}\n".encode())
            assert replay_trace(work, kernel_trace) == kernel
            if work is not inst:
                both = replace(merge_trace, removed_users=kernel_trace.removed_users)
                assert replay_trace(inst, both) == kernel
    assert merged >= 800
    assert h.hexdigest() == REDUCTIONS_SHA256

    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    reduced, trace = apply_reduction_rule(inst, 3)
    assert replay_trace(inst, trace) == reduced


def test_replay_trace_rejects_traces_of_other_reductions():
    inst = make(
        [0b111, 0b111],
        3,
        [PairConstraint(0, 1, "iff", "forall"), PairConstraint(1, 2, "iff", "exists")],
    )
    reduced, trace = eliminate_bod_u(inst)
    assert replay_trace(inst, trace) == reduced
    bad_traces = [
        # a false rewrite: the iff/exists pair is lifted, not dropped
        replace(trace, constraint_rewrites=((0, "class-edge"), (1, "dropped"))),
        # a class left out, one with an unknown resource, and classes that
        # merge resources no iff/forall constraint ties
        replace(trace, resource_classes=(("r1", "r2"),)),
        replace(trace, resource_classes=(("r1", "r2"), ("r9",))),
        replace(trace, resource_classes=(("r1", "r2", "r3"),)),
        # a removed user the instance does not have
        replace(trace, removed_users=("u9",)),
    ]
    for bad in bad_traces:
        with pytest.raises(ValueError):
            replay_trace(inst, bad)
    # a merge trace replayed on an instance whose merge is unsatisfiable
    unsat = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "forall")])
    with pytest.raises(ValueError, match="no merge"):
        replay_trace(unsat, ReductionTrace(resource_classes=(("r1", "r2"),)))


def test_merge_preserves_decision_spot():
    for seed in range(60):
        inst = generate(
            GenParams(n=5, k=4, seed=seed, bodu=2, sodu=1, bode=1, density=0.6)
        )
        res = eliminate_bod_u(inst)
        sat_before = brute_decide(inst) is not None
        if isinstance(res, TriviallyUnsat):
            assert not sat_before, inst
        else:
            assert (brute_decide(res[0]) is not None) == sat_before, inst


def test_to_wsp_fixture_tables():
    inst = load_instance(str(FIXTURES / "planning_mix_5x4.json"))
    wsp = to_wsp(inst)
    assert wsp.steps == ("s1_2", "s1_3", "s2_1", "s3_1", "s4")
    assert wsp.step_resource == (0, 0, 1, 2, 3)
    # authorization per step: users permitted both tied resources
    assert wsp.auth == (0b01001, 0b00101, 0b01001, 0b00101, 0b10010)
    assert wsp.eq_pairs == ((0, 2), (1, 3))
    assert wsp.neq_pairs == ((0, 4), (1, 4), (2, 4))
    assert wsp.user_names == inst.users


def test_to_wsp_rejects_other_mixes():
    inst = make([0b11], 2, [PairConstraint(0, 1, "xor", "exists")])
    with pytest.raises(ValueError):
        to_wsp(inst)


def naive_wsp_has_plan(wsp):
    n = len(wsp.user_names)
    for plan in product(range(n), repeat=wsp.n_steps):
        if not all(wsp.auth[s] >> u & 1 for s, u in enumerate(plan)):
            continue
        if any(plan[a] != plan[b] for a, b in wsp.eq_pairs):
            continue
        if any(plan[a] == plan[b] for a, b in wsp.neq_pairs):
            continue
        return True
    return False


def test_wsp_round_trip_dual_brute():
    """The instance is satisfiable exactly when its step form has a plan."""
    for seed in range(100):
        inst = generate(
            GenParams(n=4, k=4, seed=seed, bode=2, sodu=2, density=0.6)
        )
        wsp = to_wsp(inst)
        assert naive_wsp_has_plan(wsp) == (naive_decide(inst) is not None), inst


def test_from_wsp_plan_example():
    inst = load_instance(str(FIXTURES / "planning_mix_5x4.json"))
    wsp = to_wsp(inst)
    # u4 covers the r1/r2 tie, u3 the r1/r3 tie, u2 stands alone on r4
    rel = from_wsp_plan(inst, wsp, (3, 2, 3, 2, 1))
    assert inst.relation_to_names(rel) == {
        "u2": ["r4"],
        "u3": ["r1", "r3"],
        "u4": ["r1", "r2"],
    }
    assert check_valid(inst, rel).valid


def test_from_wsp_plan_single_step():
    inst = make([0b1], 1)
    wsp = to_wsp(inst)
    assert wsp.steps == ("s1",)
    rel = from_wsp_plan(inst, wsp, (0,))
    assert rel.rows == (0b1,)


def test_from_wsp_plan_rejections():
    inst = load_instance(str(FIXTURES / "planning_mix_5x4.json"))
    wsp = to_wsp(inst)
    with pytest.raises(ValueError):
        from_wsp_plan(inst, wsp, (3, 2, 3, 2))  # wrong length
    with pytest.raises(ValueError):
        from_wsp_plan(inst, wsp, (3, 2, 3, 2, 9))  # unknown user
    with pytest.raises(ValueError):
        from_wsp_plan(inst, wsp, (3, 2, 3, 2, 0))  # u1 not authorized for s4
    with pytest.raises(ValueError):
        from_wsp_plan(inst, wsp, (3, 2, 0, 2, 1))  # equality pair broken
    inst2 = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    wsp2 = to_wsp(inst2)
    with pytest.raises(ValueError):
        from_wsp_plan(inst2, wsp2, (0, 0))  # inequality pair broken


def test_encode_resiliency_shape():
    A = AuthorizationRelation(2, 2, (0b11, 0b11))
    inst = encode_resiliency(A, {0, 1}, d=2, t=1)
    assert not isinstance(inst, TriviallyUnsat)
    assert inst.resources == ("r1@1", "r2@1", "r1@2", "r2@2")
    kinds = [type(c).__name__ for c in inst.constraints]
    assert kinds.count("GlobalCardConstraint") == 1
    assert kinds.count("TeamSodConstraint") == 1
    assert kinds.count("LocalCardConstraint") == 2
    assert len(inst.constraints) == 1 + 1 + 2
    assert inst.constraints[0] == GlobalCardConstraint("=", 1)

    inst3 = encode_resiliency(A, {0, 1}, d=3, t=1)
    assert inst3.k == 6 and len(inst3.constraints) == 1 + 3 + 3

    uncapped = encode_resiliency(A, {0, 1}, d=3, t=1, enforce_team_size=False)
    assert len(uncapped.constraints) == 1 + 3


def test_encode_resiliency_names_and_rows():
    A = AuthorizationRelation(2, 3, (0b101, 0b011))
    inst = encode_resiliency(
        A, [0, 2], d=2, t=2,
        user_names=("ann", "bo"), resource_names=("x", "y", "z"),
    )
    assert inst.users == ("ann", "bo")
    assert inst.resources == ("x@1", "z@1", "x@2", "z@2")
    # ann holds x and z, bo holds x only; copies repeat the pattern
    assert inst.base.rows == (0b1111, 0b0101)


def test_encode_resiliency_trivial_unsat_and_errors():
    A = AuthorizationRelation(2, 2, (0b01, 0b01))
    res = encode_resiliency(A, {0, 1}, d=1, t=1)
    assert isinstance(res, TriviallyUnsat) and "r2" in res.reason
    with pytest.raises(ValueError):
        encode_resiliency(A, set(), d=1, t=1)
    with pytest.raises(ValueError):
        encode_resiliency(A, {5}, d=1, t=1)
    with pytest.raises(ValueError):
        encode_resiliency(A, {0}, d=0, t=1)
    with pytest.raises(ValueError):
        encode_resiliency(A, {0}, d=1, t=0)


def naive_resilient(A, Q, d, t):
    """Exhaustive team search: label each user with a team or leave them out."""
    n = A.n_users
    for labels in product(range(d + 1), repeat=n):
        ok = True
        for team in range(d):
            members = [u for u in range(n) if labels[u] == team]
            if len(members) > t or not members:
                ok = False
                break
            for q in Q:
                if not any(A.rows[u] >> q & 1 for u in members):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_encode_resiliency_matches_naive_search():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        rows = tuple(rng.randrange(1 << k) for _ in range(n))
        A = AuthorizationRelation(n, k, rows)
        q_count = rng.randint(1, k)
        Q = frozenset(rng.sample(range(k), q_count))
        d = rng.randint(1, 3)
        t = rng.randint(1, 2)
        want = naive_resilient(A, Q, d, t)
        enc = encode_resiliency(A, Q, d, t)
        if isinstance(enc, TriviallyUnsat):
            got = False
        else:
            got = dispatch(enc, "decide").satisfiable
        assert got == want, (rows, sorted(Q), d, t)
