"""Solvers: patterns, partition DP, polynomial routes, kernels, dispatch."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from apep import (
    AuthorizationRelation,
    CapacityError,
    GlobalCardConstraint,
    Instance,
    LocalCardConstraint,
    PairConstraint,
    Pattern,
    SmerConstraint,
    TriviallyUnsat,
    brute_decide,
    brute_maximize,
    build_index_family,
    check_valid,
    dispatch,
    enumerate_eligible_patterns,
    indices_of,
    max_sod_e,
    max_sod_u,
    max_weighted_partition,
    max_weighted_partition_fast_value,
    pattern_value,
    solve_bod_e,
    solve_bod_e_sod_u,
    solve_bod_u,
    solve_bounded,
    solve_wsp,
    to_wsp,
)
from apep.cli import GenParams, generate, load_instance
from helpers import FIXTURES, make, naive_decide


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def test_pattern_validation():
    Pattern(2, (0b01, 0b10))
    with pytest.raises(ValueError):
        Pattern(2, (0b01, 0b00, 0b10))
    with pytest.raises(ValueError):
        Pattern(2, (0b01, 0b11))
    with pytest.raises(ValueError):
        Pattern(2, (0b10, 0b01))  # not ordered by smallest member
    with pytest.raises(ValueError):
        Pattern(3, (0b01, 0b10))  # resource 2 uncovered


def test_pattern_from_sets_sorts_blocks():
    p = Pattern.from_sets(3, [[2], [0, 1]])
    assert p.blocks == (0b011, 0b100)


def test_bell_counts():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for k, count in bell.items():
        assert sum(1 for _ in enumerate_eligible_patterns(k, [])) == count


def test_pattern_enumeration_order():
    got = [p.blocks for p in enumerate_eligible_patterns(3, [])]
    assert got == [
        (0b111,),
        (0b011, 0b100),
        (0b101, 0b010),
        (0b001, 0b110),
        (0b001, 0b010, 0b100),
    ]


def test_pattern_enumeration_filters_conflicts():
    got = list(enumerate_eligible_patterns(2, [(0, 1)]))
    assert [p.blocks for p in got] == [(0b01, 0b10)]

    # chain of three separations over four resources
    chain = [(0, 1), (1, 2), (2, 3)]
    got = [p.blocks for p in enumerate_eligible_patterns(4, chain)]
    assert len(got) == 5
    for blocks in got:
        for a, b in chain:
            assert not any(bl >> a & 1 and bl >> b & 1 for bl in blocks)
    # deterministic
    assert got == [p.blocks for p in enumerate_eligible_patterns(4, chain)]


# ---------------------------------------------------------------------------
# Pattern valuation and the universal-xor maximizer
# ---------------------------------------------------------------------------


def test_pattern_value_fixture():
    inst = load_instance(str(FIXTURES / "separation_chain_5x4.json"))
    p = Pattern.from_sets(4, [[0, 3], [1], [2]])
    res = pattern_value(inst, p)
    assert res is not None
    rel, value = res
    assert value == 7
    assert check_valid(inst, rel).valid and rel.size == 7


def test_pattern_value_trivial_and_none():
    inst = make([0b1], 1)
    res = pattern_value(inst, Pattern(1, (0b1,)))
    assert res is not None and res[1] == 1 and res[0].rows == (0b1,)

    # more blocks than users: unrealizable
    inst = make([0b111, 0b111], 3)
    assert pattern_value(inst, Pattern(3, (0b001, 0b010, 0b100))) is None


def test_pattern_value_rejections():
    inst = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    with pytest.raises(ValueError):
        pattern_value(inst, Pattern(2, (0b11,)))  # separated pair in one block
    with pytest.raises(ValueError):
        pattern_value(inst, Pattern(3, (0b001, 0b010, 0b100)))  # wrong shape
    bad_mix = make([0b11], 2, [PairConstraint(0, 1, "iff", "exists")])
    with pytest.raises(ValueError):
        pattern_value(bad_mix, Pattern(2, (0b01, 0b10)))


def test_max_sod_u_fixture():
    inst = load_instance(str(FIXTURES / "separation_chain_5x4.json"))
    rep = max_sod_u(inst)
    assert rep.algorithm == "sod_u_patterns"
    assert rep.satisfiable and rep.max_size == 7
    assert rep.counters["patterns_explored"] == 5
    assert check_valid(inst, rep.witness).valid and rep.witness.size == 7


def test_max_sod_u_unsat_and_unconstrained():
    inst = make([0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    rep = max_sod_u(inst)
    assert not rep.satisfiable and rep.witness is None and rep.max_size is None

    for seed in range(20):
        inst = generate(GenParams(n=4, k=3, seed=seed, density=0.7))
        rep = max_sod_u(inst)
        assert rep.max_size == inst.base.size


def test_max_sod_u_matches_oracle_random():
    for seed in range(80):
        inst = generate(GenParams(n=4, k=3, seed=seed, sodu=2, density=0.6))
        rep = max_sod_u(inst)
        want = brute_maximize(inst)
        if want is None:
            assert not rep.satisfiable
        else:
            assert rep.max_size == want[1], inst


def test_max_sod_u_wrong_mix():
    with pytest.raises(ValueError):
        max_sod_u(make([0b11], 2, [PairConstraint(0, 1, "iff", "exists")]))


def test_max_sod_u_invariant_under_user_renaming():
    rng = random.Random(31)
    for seed in range(30):
        inst = generate(GenParams(n=5, k=3, seed=seed, sodu=2, density=0.6))
        sigma = list(range(inst.n))
        rng.shuffle(sigma)
        renamed = Instance.create(
            inst.users, inst.resources, inst.base.permute_users(sigma), inst.constraints
        )
        assert max_sod_u(renamed).max_size == max_sod_u(inst).max_size


# ---------------------------------------------------------------------------
# Index families and the weighted partition DP
# ---------------------------------------------------------------------------


def test_build_index_family_small_column():
    # k=2: threshold floor(log2 2) = 1, a singleton column keeps all subsets
    inst = make([0b11, 0b10], 2, [PairConstraint(0, 1, "xor", "exists")])
    fam = build_index_family(inst)
    assert fam.by_resource[0] == (0b01,)
    # column {u1, u2} is above the threshold: d(r)+1 = 2 largest subsets
    assert fam.by_resource[1] == (0b11, 0b01)


def test_build_index_family_large_column_rule():
    # k=4: threshold 2; a 3-user column with one partner keeps the 2 largest
    inst = make(
        [0b1111, 0b1011, 0b1101],
        4,
        [PairConstraint(0, 1, "xor", "exists")],
    )
    fam = build_index_family(inst)
    assert fam.by_resource[0] == (0b111, 0b011)
    # no partners: only the full column survives
    inst2 = make([0b1111, 0b1011, 0b1101], 4)
    fam2 = build_index_family(inst2)
    assert fam2.by_resource[3] == (0b111,)


def test_build_index_family_members_and_fits():
    inst = make([0b11, 0b01], 2, [PairConstraint(0, 1, "xor", "exists")])
    fam = build_index_family(inst)
    # members are deduplicated, largest first, lexicographic inside a size
    assert fam.members == tuple(sorted(
        set(fam.by_resource[0]) | set(fam.by_resource[1]),
        key=lambda m: (-bin(m).count("1"), indices_of(m)),
    ))
    for x, fit in zip(fam.members, fam.fit_masks):
        for r in range(inst.k):
            assert bool(fit >> r & 1) == (x & ~inst.base.cols[r] == 0)


def test_build_index_family_wrong_mix():
    with pytest.raises(ValueError):
        build_index_family(make([0b11], 2, [PairConstraint(0, 1, "xor", "forall")]))


def brute_partition_best(k, functions):
    best = None
    for labels in product(range(len(functions)), repeat=k):
        blocks = [0] * len(functions)
        for item, who in enumerate(labels):
            blocks[who] |= 1 << item
        total = sum(f(T) for f, T in zip(functions, blocks))
        if best is None or total > best:
            best = total
    return best


def test_max_weighted_partition_examples():
    # a single function takes everything
    assignment, value = max_weighted_partition(2, [lambda T: T.bit_count() * 3])
    assert assignment == (0b11,) and value == 6

    f1 = lambda T: T.bit_count()
    f2 = lambda T: 2 if T == 0b10 else 0
    assignment, value = max_weighted_partition(2, [f1, f2])
    assert value == 3 and assignment == (0b01, 0b10)

    with pytest.raises(ValueError):
        max_weighted_partition(2, [])


def test_max_weighted_partition_matches_brute():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(1, 4)
        p = rng.randint(1, 3)
        tabs = [
            [rng.randint(-6, 6) for _ in range(1 << k)] for _ in range(p)
        ]
        functions = [lambda T, tab=tab: tab[T] for tab in tabs]
        assignment, value = max_weighted_partition(k, functions)
        assert value == brute_partition_best(k, functions)
        # the assignment is a disjoint cover realizing the value
        union = 0
        total = 0
        for f, T in zip(functions, assignment):
            assert union & T == 0
            union |= T
            total += f(T)
        assert union == (1 << k) - 1 and total == value


def test_fast_partition_value_matches_dp():
    rng = random.Random(43)
    for _ in range(40):
        k = rng.randint(1, 6)
        p = rng.randint(1, 3)
        tabs = [[rng.randint(-8, 8) for _ in range(1 << k)] for _ in range(p)]
        functions = [lambda T, tab=tab: tab[T] for tab in tabs]
        assert max_weighted_partition_fast_value(k, functions) == (
            max_weighted_partition(k, functions)[1]
        )
    with pytest.raises(ValueError):
        max_weighted_partition_fast_value(3, [])


# ---------------------------------------------------------------------------
# Existential-xor maximizer
# ---------------------------------------------------------------------------


def test_max_sod_e_examples():
    inst = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "exists")])
    rep = max_sod_e(inst)
    assert rep.algorithm == "sod_e_partition"
    assert rep.satisfiable and rep.max_size == 3
    assert check_valid(inst, rep.witness).valid

    # no constraints: the whole base fits
    inst = make([0b101, 0b011], 3)
    assert max_sod_e(inst).max_size == 4

    # one user cannot make two tied columns differ
    inst = make([0b11], 2, [PairConstraint(0, 1, "xor", "exists")])
    rep = max_sod_e(inst)
    assert not rep.satisfiable and rep.max_size is None


def test_max_sod_e_fixture():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    rep = max_sod_e(inst)
    assert rep.satisfiable and rep.max_size == 17
    assert check_valid(inst, rep.witness).valid and rep.witness.size == 17


def test_max_sod_e_matches_oracle_random():
    for seed in range(80):
        inst = generate(GenParams(n=4, k=3, seed=seed, sode=2, density=0.6))
        rep = max_sod_e(inst)
        want = brute_maximize(inst)
        if want is None:
            assert not rep.satisfiable, inst
        else:
            assert rep.max_size == want[1], inst


def test_max_sod_e_wrong_mix():
    with pytest.raises(ValueError):
        max_sod_e(make([0b11], 2, [PairConstraint(0, 1, "iff", "forall")]))


def test_sod_e_candidate_replacement_never_loses():
    """Any valid relation can move each column into the candidate family
    without shrinking: the improvement argument behind the index family."""
    cons = [PairConstraint(0, 1, "xor", "exists")]
    for cols0 in range(1, 8):
        for cols1 in range(1, 8):
            inst = make(
                [
                    row_mask
                    for row_mask in _rows_from_cols((cols0, cols1), 3)
                ],
                2,
                cons,
            )
            fam = build_index_family(inst)
            for cols in product(range(1, 8), repeat=2):
                rel = AuthorizationRelation.from_cols(3, 2, cols)
                if not check_valid(inst, rel).valid:
                    continue
                for r in range(2):
                    if cols[r] in fam.by_resource[r]:
                        continue
                    improved = False
                    for x in fam.by_resource[r]:
                        new_cols = list(cols)
                        new_cols[r] = x
                        cand = AuthorizationRelation.from_cols(3, 2, new_cols)
                        if check_valid(inst, cand).valid and cand.size >= rel.size:
                            improved = True
                            break
                    assert improved, (cols0, cols1, cols, r)


def _rows_from_cols(cols, n):
    rows = [0] * n
    for r, col in enumerate(cols):
        for u in range(n):
            if col >> u & 1:
                rows[u] |= 1 << r
    return rows


# ---------------------------------------------------------------------------
# Polynomial routes
# ---------------------------------------------------------------------------


def test_solve_bod_u_examples():
    inst = make([0b01, 0b11], 2, [PairConstraint(0, 1, "iff", "forall")])
    rep = solve_bod_u(inst)
    assert rep.algorithm == "bod_u_merge" and rep.satisfiable
    assert inst.relation_to_names(rep.witness) == {"u2": ["r1", "r2"]}
    assert rep.max_size == 2

    inst = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "forall")])
    rep = solve_bod_u(inst)
    assert not rep.satisfiable and "r1" in rep.counters["reason"]

    inst = make([0b11, 0b01], 2)
    rep = solve_bod_u(inst)
    assert rep.satisfiable and rep.witness == inst.base

    with pytest.raises(ValueError):
        solve_bod_u(make([0b11], 2, [PairConstraint(0, 1, "xor", "forall")]))


def test_solve_bod_u_maximum_matches_oracle():
    for seed in range(60):
        inst = generate(GenParams(n=4, k=4, seed=seed, bodu=3, density=0.6))
        rep = solve_bod_u(inst)
        want = brute_maximize(inst)
        if want is None:
            assert not rep.satisfiable, inst
        else:
            assert rep.max_size == want[1], inst


def test_solve_bod_e_examples():
    inst = make([0b11, 0b01], 2, [PairConstraint(0, 1, "iff", "exists")])
    rep = solve_bod_e(inst)
    assert rep.algorithm == "bod_e_base" and rep.satisfiable
    assert rep.witness == inst.base and rep.max_size == inst.base.size

    inst = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "exists")])
    assert not solve_bod_e(inst).satisfiable

    inst = make([0b11], 2)
    assert solve_bod_e(inst).satisfiable

    with pytest.raises(ValueError):
        solve_bod_e(make([0b11], 2, [PairConstraint(0, 1, "iff", "forall")]))


def test_solve_bod_e_maximum_matches_oracle():
    for seed in range(60):
        inst = generate(GenParams(n=4, k=4, seed=seed, bode=3, density=0.5))
        rep = solve_bod_e(inst)
        want = brute_maximize(inst)
        if want is None:
            assert not rep.satisfiable, inst
        else:
            assert rep.max_size == want[1], inst


# ---------------------------------------------------------------------------
# Kernel route
# ---------------------------------------------------------------------------


def test_solve_bounded_fixture():
    inst = load_instance(str(FIXTURES / "distinct_teams_8x3.json"))
    rep = solve_bounded(inst)
    assert rep.algorithm == "bounded_kernel"
    assert rep.satisfiable and rep.counters["users_removed"] == 2
    assert check_valid(inst, rep.witness).valid


def test_solve_bounded_identical_users():
    inst = make([0b11] * 100, 2, [PairConstraint(0, 1, "xor", "forall")])
    rep = solve_bounded(inst)
    assert rep.satisfiable and rep.counters["users_removed"] == 98
    assert check_valid(inst, rep.witness).valid


def test_solve_bounded_merge_unsat_shortcut():
    inst = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "forall")])
    rep = solve_bounded(inst)
    assert not rep.satisfiable and "reason" in rep.counters


def test_solve_bounded_capacity():
    inst = make([0b11] * 100, 2, [SmerConstraint({0, 1})])
    with pytest.raises(CapacityError):
        solve_bounded(inst, kernel_budget=4)


def test_solve_bounded_matches_oracle_random():
    for seed in range(60):
        inst = generate(
            GenParams(
                n=5, k=3, seed=seed, bodu=1, sodu=1, lcard=1, smer=1, t_max=2
            )
        )
        rep = solve_bounded(inst)
        assert rep.satisfiable == (brute_decide(inst) is not None), inst
        if rep.satisfiable:
            assert check_valid(inst, rep.witness).valid


# ---------------------------------------------------------------------------
# Planning route
# ---------------------------------------------------------------------------


def test_solve_wsp_single_step():
    inst = make([0b1, 0b1], 1)
    wsp = to_wsp(inst)
    assert solve_wsp(wsp) == (0,)


def test_solve_wsp_contradiction():
    from apep import WspInstance

    wsp = WspInstance(
        steps=("s1", "s2"),
        user_names=("u1", "u2"),
        auth=(0b11, 0b11),
        eq_pairs=((0, 1),),
        neq_pairs=((0, 1),),
        step_resource=(0, 1),
    )
    assert solve_wsp(wsp) is None


def test_solve_wsp_empty_class_auth():
    from apep import WspInstance

    wsp = WspInstance(
        steps=("s1", "s2"),
        user_names=("u1", "u2"),
        auth=(0b01, 0b10),
        eq_pairs=((0, 1),),
        neq_pairs=(),
        step_resource=(0, 1),
    )
    assert solve_wsp(wsp) is None


def test_solve_bod_e_sod_u_fixture():
    inst = load_instance(str(FIXTURES / "planning_mix_5x4.json"))
    rep = solve_bod_e_sod_u(inst)
    assert rep.algorithm == "bod_e_sod_u_wsp"
    assert rep.satisfiable and rep.counters["steps"] == 5
    assert check_valid(inst, rep.witness).valid


def test_solve_bod_e_sod_u_disjoint_tie_unsat():
    inst = make([0b01, 0b10], 2, [PairConstraint(0, 1, "iff", "exists")])
    rep = solve_bod_e_sod_u(inst)
    assert not rep.satisfiable and rep.witness is None


def test_solve_bod_e_sod_u_matches_oracle_random():
    for seed in range(100):
        inst = generate(GenParams(n=4, k=4, seed=seed, bode=2, sodu=2, density=0.6))
        rep = solve_bod_e_sod_u(inst)
        assert rep.satisfiable == (naive_decide(inst) is not None), inst
        if rep.satisfiable:
            assert check_valid(inst, rep.witness).valid


def test_solve_bod_e_sod_u_agrees_with_pattern_route():
    for seed in range(40):
        inst = generate(GenParams(n=4, k=3, seed=seed, sodu=2, density=0.6))
        assert solve_bod_e_sod_u(inst).satisfiable == max_sod_u(inst).satisfiable


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_dispatch_routes():
    bodu = make([0b11], 2, [PairConstraint(0, 1, "iff", "forall")])
    assert dispatch(bodu).algorithm == "bod_u_merge"
    none = make([0b1], 1)
    assert dispatch(none).algorithm == "bod_u_merge"
    bode = make([0b11], 2, [PairConstraint(0, 1, "iff", "exists")])
    assert dispatch(bode).algorithm == "bod_e_base"
    sodu = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "forall")])
    assert dispatch(sodu).algorithm == "sod_u_patterns"
    sode = make([0b11, 0b11], 2, [PairConstraint(0, 1, "xor", "exists")])
    assert dispatch(sode).algorithm == "sod_e_partition"
    planning = make(
        [0b111, 0b111],
        3,
        [PairConstraint(0, 1, "iff", "exists"), PairConstraint(1, 2, "xor", "forall")],
    )
    assert dispatch(planning, "decide").algorithm == "bod_e_sod_u_wsp"
    assert dispatch(planning, "max").algorithm == "brute_force"
    mixed = make([0b11, 0b11], 2, [SmerConstraint({0, 1})])
    assert dispatch(mixed, "decide").algorithm == "bounded_kernel"
    assert dispatch(mixed, "max").algorithm == "brute_force"
    implies = make(
        [0b11, 0b11], 2, [PairConstraint(0, 1, "implies", "forall")]
    )
    assert dispatch(implies, "decide").algorithm == "bounded_kernel"


def test_dispatch_mode_validation():
    with pytest.raises(ValueError):
        dispatch(make([0b1], 1), "best")


def test_dispatch_maximize_capacity_guidance():
    inst = make(
        [0b11] * 30,
        2,
        [PairConstraint(0, 1, "iff", "exists"), PairConstraint(0, 1, "xor", "forall")],
    )
    with pytest.raises(CapacityError) as err:
        dispatch(inst, "max")
    assert "mode=decide" in str(err.value)


def test_dispatch_checks_witnesses_under_optimize():
    # A route that returns an invalid witness must not get past dispatch, not
    # even when python -O strips every assert statement.
    code = """
import sys
from apep import AuthorizationRelation, Instance, PairConstraint, dispatch
from apep.solve import _PatternContext

if not sys.flags.optimize:
    sys.exit("not running under -O")
inst = Instance.create(
    ["u1", "u2"], ["r1", "r2"], {"u1": ["r1", "r2"], "u2": ["r1", "r2"]},
    [PairConstraint(0, 1, "xor", "forall")],
)
full = AuthorizationRelation.full(inst.n, inst.k)
_PatternContext.evaluate = lambda self, pattern: (full, full.size)
try:
    report = dispatch(inst, "max")
except AssertionError as e:
    print(e)
    sys.exit(0)
sys.exit(f"dispatch returned an invalid {report.algorithm} witness")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "sod_u_patterns returned an invalid witness" in proc.stdout


def test_dispatch_deterministic_reports():
    inst = load_instance(str(FIXTURES / "separation_chain_5x4.json"))
    a = dispatch(inst, "max")
    b = dispatch(inst, "max")
    assert a.witness == b.witness
    assert a.max_size == b.max_size
    assert a.counters == b.counters


def test_report_invariants():
    for inst, mode in (
        (load_instance(str(FIXTURES / "separation_chain_5x4.json")), "max"),
        (load_instance(str(FIXTURES / "distinct_teams_8x3.json")), "max"),
        (load_instance(str(FIXTURES / "planning_mix_5x4.json")), "decide"),
    ):
        rep = dispatch(inst, mode)
        if rep.witness is not None:
            assert check_valid(inst, rep.witness).valid
        if rep.max_size is not None:
            assert rep.witness is not None and rep.witness.size == rep.max_size
        assert rep.wall_time >= 0.0
