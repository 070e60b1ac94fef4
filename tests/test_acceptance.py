"""End to end gate: fixture behaviors, oracle equivalence, bounds, scale.

Each test covers one shipping criterion, so `pytest -v` prints one
pass/fail line per criterion.  The row-4 attainment test is expected to
fail: the advertised core bound for exact and lower-bounded local
cardinality constraints is sound but not tight, and the companion test
pins down the true maximum.
"""

import random
import time
from itertools import combinations, product

from apep import (
    AuthorizationRelation,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    Pattern,
    SmerConstraint,
    TeamSodConstraint,
    TriviallyUnsat,
    apply_reduction_rule,
    bound_for,
    brute_decide,
    brute_maximize,
    check_valid,
    compute_core,
    default_resource_names,
    default_user_names,
    dispatch,
    eliminate_bod_u,
    encode_resiliency,
    indices_of,
    instance_bound,
    max_sod_u,
    max_weighted_partition,
    max_weighted_partition_fast_value,
    partition_families,
    pattern_value,
    solve_bod_e_sod_u,
    solve_bounded,
    to_wsp,
    user_independence_witness,
)
from apep.cli import GenParams, generate, load_instance
from apep.solve import _PatternContext
from helpers import FIXTURES, core_of_cols, mask_eval


def fixture(name):
    return load_instance(str(FIXTURES / name))


# ---------------------------------------------------------------------------
# Criteria 1-3: fixture behaviors
# ---------------------------------------------------------------------------


def test_criterion_01_family_partition_and_reduction_rule():
    t0 = time.perf_counter()
    inst = fixture("distinct_teams_8x3.json")
    fams = partition_families(inst)
    assert sorted(len(m) for m in fams.members) == [1, 2, 5]

    reduced, trace = apply_reduction_rule(inst, 3)
    assert len(trace.removed_users) == 2
    pair_family = set(fams.members[fams.masks.index(0b011)])
    removed = {inst.users.index(name) for name in trace.removed_users}
    assert removed <= pair_family

    assert brute_decide(inst) is not None
    assert brute_decide(reduced) is not None
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_planning_rewrite():
    t0 = time.perf_counter()
    inst = fixture("planning_mix_5x4.json")
    wsp = to_wsp(inst)
    assert wsp.steps == ("s1_2", "s1_3", "s2_1", "s3_1", "s4")
    assert wsp.auth == (0b01001, 0b00101, 0b01001, 0b00101, 0b10010)
    assert sorted(wsp.eq_pairs) == [(0, 2), (1, 3)]
    assert sorted(wsp.neq_pairs) == [(0, 4), (1, 4), (2, 4)]

    rep = solve_bod_e_sod_u(inst)
    assert rep.satisfiable
    assert check_valid(inst, rep.witness).valid
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_pattern_value_and_maximum():
    t0 = time.perf_counter()
    inst = fixture("separation_chain_5x4.json")
    p = Pattern.from_sets(4, [[0, 3], [1], [2]])
    res = pattern_value(inst, p)
    assert res is not None and res[1] == 7

    # the largest conflict-free resource set u3 can hold around {r3}
    choice = _PatternContext(inst).choice[inst.base.rows[2]]
    assert choice[1 << 2].bit_count() == 2

    rep = max_sod_u(inst)
    best = brute_maximize(inst)
    assert best is not None and rep.max_size == 7 == best[1]
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Criterion 4: routed solvers against the oracle
# ---------------------------------------------------------------------------

MAXIMIZE_PROFILES = ("bodu", "bode", "sodu", "sode")
ALL_PROFILES = MAXIMIZE_PROFILES + ("bode_sodu", "mixed")


def profile_params(profile, seed):
    n = 2 + seed % 5
    k = 2 + seed % 3
    supply = k * (k - 1) // 2
    kw = dict(n=n, k=k, seed=seed, density=0.5)
    if profile in MAXIMIZE_PROFILES:
        kw[profile] = min(2, supply)
    elif profile == "bode_sodu":
        kw["bode"] = 1
        if supply >= 2:
            kw["sodu"] = 1
    else:
        kw.update(bodu=1, gcard=1, lcard=1, smer=1, teamsod=1)
    return GenParams(**kw)


def test_criterion_04_route_oracle_equivalence():
    t0 = time.perf_counter()
    for profile in ALL_PROFILES:
        for seed in range(500):
            inst = generate(profile_params(profile, seed))
            rep = dispatch(inst, "decide")
            assert rep.satisfiable == (brute_decide(inst) is not None), (profile, seed)
            if rep.satisfiable:
                assert check_valid(inst, rep.witness).valid, (profile, seed)
            if profile in MAXIMIZE_PROFILES:
                mrep = dispatch(inst, "max")
                best = brute_maximize(inst)
                if best is None:
                    assert not mrep.satisfiable, (profile, seed)
                else:
                    assert mrep.max_size == best[1], (profile, seed)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: reductions preserve the decision
# ---------------------------------------------------------------------------


def test_criterion_05_reduction_soundness():
    for seed in range(500):
        n = 2 + seed % 5
        k = 2 + seed % 3
        supply = k * (k - 1) // 2
        bodu = min(2, supply)
        rest = supply - bodu
        inst = generate(GenParams(
            n=n, k=k, seed=seed, density=0.5, bodu=bodu,
            bode=1 if rest >= 1 else 0, sodu=1 if rest >= 2 else 0,
        ))
        before = brute_decide(inst) is not None
        res = eliminate_bod_u(inst)
        if isinstance(res, TriviallyUnsat):
            assert not before, seed
        else:
            assert (brute_decide(res[0]) is not None) == before, seed

    for seed in range(500):
        inst = generate(profile_params("mixed", seed))
        reduced, _ = apply_reduction_rule(inst, instance_bound(inst))
        assert (brute_decide(reduced) is not None) == (
            brute_decide(inst) is not None
        ), seed


# ---------------------------------------------------------------------------
# Criterion 6: core bounds
# ---------------------------------------------------------------------------


def species_for(k):
    """Every constraint species expressible over k resources, t up to 5."""
    out = []
    for r, r2 in combinations(range(k), 2):
        for op in ("iff", "xor", "implies"):
            for quant in ("forall", "exists"):
                out.append(PairConstraint(r, r2, op, quant))
    for cmp in ("<=", "=", ">="):
        for t in range(1, 6):
            out.append(GlobalCardConstraint(cmp, t))
    for scope_mask in range(1, 1 << k):
        scope = frozenset(indices_of(scope_mask))
        for cmp in ("<=", "=", ">="):
            for t in range(1, 6):
                out.append(LocalCardConstraint(scope, cmp, t))
        if len(scope) >= 2:
            out.append(SmerConstraint(scope))
    for left_mask in range(1, 1 << k):
        for right_mask in range(1, 1 << k):
            if left_mask & right_mask:
                continue
            left = indices_of(left_mask)
            right = indices_of(right_mask)
            if min(left) > min(right):
                continue
            out.append(TeamSodConstraint(frozenset(left), frozenset(right)))
    return out


def test_criterion_06_core_bounds_sweep_and_attainment_rows_1_to_3():
    # every valid single-constraint relation against a full base respects
    # its species bound; a sampled subset ties the sweep to compute_core
    checked = 0
    sampled = 0
    for k in (1, 2, 3):
        species = species_for(k)
        bounds = [bound_for(c, k).bound for c in species]
        for n in (1, 2, 3, 4, 5):
            full = AuthorizationRelation.full(n, k)
            users = default_user_names(n)
            resources = default_resource_names(k)
            for cols in product(range(1, 1 << n), repeat=k):
                for c, b in zip(species, bounds):
                    if not mask_eval(cols, n, c):
                        continue
                    core = core_of_cols(cols, n, (c,))
                    assert len(core) <= b, (n, k, c, cols)
                    checked += 1
                    if checked % 997 == 0:
                        inst = Instance.create(users, resources, full, [c])
                        rel = AuthorizationRelation.from_cols(n, k, cols)
                        assert compute_core(inst, rel) == frozenset(core), (c, cols)
                        sampled += 1
    assert checked > 2_000_000 and sampled > 1_000

    # attainment: bounds of the first three species groups are reached
    k, n = 3, 3
    full = AuthorizationRelation.full(n, k)
    singles = (0b001, 0b010, 0b100)
    shared = (0b001, 0b001, 0b010)
    cases = [
        (PairConstraint(0, 1, "xor", "forall"), singles),
        (PairConstraint(0, 1, "xor", "exists"), singles),
        (PairConstraint(0, 1, "iff", "forall"), shared),
        (PairConstraint(0, 1, "iff", "exists"), shared),
        (PairConstraint(0, 1, "implies", "forall"), shared),
        (GlobalCardConstraint("<=", 1), singles),
        (LocalCardConstraint(frozenset({0, 1}), "<=", 2), singles),
        (SmerConstraint(frozenset({0, 1})), singles),
        (TeamSodConstraint(frozenset({0}), frozenset({1})), singles),
    ]
    for c, cols in cases:
        inst = Instance.create(
            default_user_names(n), default_resource_names(k), full, [c]
        )
        rel = AuthorizationRelation.from_cols(n, k, cols)
        assert check_valid(inst, rel).valid, c
        assert len(compute_core(inst, rel)) == bound_for(c, k).bound, c


def _row4_cases():
    for k, t in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for cmp in ("=", ">="):
            for scope_mask in range(1, 1 << k):
                yield k, t, LocalCardConstraint(
                    frozenset(indices_of(scope_mask)), cmp, t
                )


def test_criterion_06_row4_bound_attainment_as_stated():
    # expected to fail: no relation reaches a core of 2*max(k, t) under a
    # single exact or lower-bounded local cardinality constraint
    n = 5
    hit = False
    for k, t, c in _row4_cases():
        target = 2 * max(k, t)
        for cols in product(range(1, 1 << n), repeat=k):
            if mask_eval(cols, n, c) and len(core_of_cols(cols, n, (c,))) == target:
                hit = True
    assert hit, (
        "no exact or lower-bounded local cardinality instance attains a core "
        "of 2*max(k, t); the observed maximum is t + k - 1, see the companion "
        "test below"
    )


def test_row4_observed_maximum_core_is_t_plus_k_minus_1():
    # companion to the attainment test above: the bound that is reached
    n = 5
    best = {}
    for k, t, c in _row4_cases():
        for cols in product(range(1, 1 << n), repeat=k):
            if mask_eval(cols, n, c):
                size = len(core_of_cols(cols, n, (c,)))
                key = (k, t)
                best[key] = max(best.get(key, 0), size)
    for (k, t), size in best.items():
        assert size == t + k - 1, (k, t)


# ---------------------------------------------------------------------------
# Criteria 7-10: numerics, scale, encodings, invariance
# ---------------------------------------------------------------------------


def test_criterion_07_partition_dp_cross_check():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 10)
        p = rng.randint(1, 4)
        tabs = [[rng.randint(-8, 8) for _ in range(1 << k)] for _ in range(p)]
        functions = [lambda T, tab=tab: tab[T] for tab in tabs]
        assert max_weighted_partition_fast_value(k, functions) == (
            max_weighted_partition(k, functions)[1]
        )


def test_criterion_08_scale_smoke():
    for seed in (11, 12, 13):
        inst = generate(GenParams(n=1000, k=6, density=0.5, sodu=5, seed=seed))
        rep = max_sod_u(inst)
        assert rep.wall_time < 10.0, seed
        if rep.satisfiable:
            assert check_valid(inst, rep.witness).valid, seed

    extras = [
        LocalCardConstraint(frozenset({0, 1}), "<=", 2),
        SmerConstraint(frozenset({0, 1, 2})),
        TeamSodConstraint(frozenset({0}), frozenset({2})),
    ]
    for seed in (0, 1, 2):
        gen = generate(GenParams(
            n=10_000, k=3, density=0.5, seed=seed, bodu=1, sodu=1
        ))
        inst = Instance.create(
            gen.users, gen.resources, gen.base, list(gen.constraints) + extras
        )
        rep = solve_bounded(inst)
        assert rep.wall_time < 5.0, seed
        assert rep.counters["users_removed"] >= 10_000 - 24, seed
        if rep.satisfiable:
            assert check_valid(inst, rep.witness).valid, seed


def test_criterion_09_resiliency_encoding():
    A = AuthorizationRelation.full(2, 2)
    sat_inst = encode_resiliency(A, [0, 1], 2, 1)
    assert isinstance(sat_inst, Instance)
    rep = dispatch(sat_inst, "decide")
    assert rep.satisfiable and check_valid(sat_inst, rep.witness).valid
    assert brute_decide(sat_inst) is not None

    unsat_inst = encode_resiliency(A, [0, 1], 3, 1)
    assert isinstance(unsat_inst, Instance)
    assert not dispatch(unsat_inst, "decide").satisfiable
    assert brute_decide(unsat_inst) is None


def _random_constraint(rng, name, k):
    r, r2 = rng.sample(range(k), 2)
    if name == "bod_u":
        return PairConstraint(r, r2, "iff", "forall")
    if name == "bod_e":
        return PairConstraint(r, r2, "iff", "exists")
    if name == "sod_u":
        return PairConstraint(r, r2, "xor", "forall")
    if name == "sod_e":
        return PairConstraint(r, r2, "xor", "exists")
    if name == "implies":
        return PairConstraint(r, r2, "implies", "forall")
    if name == "global_card":
        return GlobalCardConstraint(rng.choice(("<=", "=", ">=")), rng.randint(1, 3))
    if name == "local_card":
        scope = frozenset(rng.sample(range(k), rng.randint(1, k)))
        return LocalCardConstraint(scope, rng.choice(("<=", "=", ">=")), rng.randint(1, 3))
    if name == "smer":
        return SmerConstraint(frozenset(rng.sample(range(k), rng.randint(2, k))))
    return TeamSodConstraint(frozenset({r}), frozenset({r2}))


def test_criterion_10_user_independence():
    rng = random.Random(10)
    species = (
        "bod_u", "bod_e", "sod_u", "sod_e", "implies",
        "global_card", "local_card", "smer", "team_sod",
    )
    failures = 0
    for name in species:
        for _ in range(1000):
            n = rng.randint(1, 6)
            k = rng.randint(2, 4)
            cols = [rng.randrange(1, 1 << n) for _ in range(k)]
            A = AuthorizationRelation.from_cols(n, k, cols)
            c = _random_constraint(rng, name, k)
            sigma = list(range(n))
            rng.shuffle(sigma)
            if not user_independence_witness(A, c, sigma):
                failures += 1
    assert failures == 0
