"""Weighted assignment kernel against a permutation brute force."""

import random
from itertools import permutations

import pytest

from apep.matching import max_weight_row_saturating


def brute_best(weights):
    """Exhaustive row-saturating maximum, or None when rows can't be covered."""
    nrows = len(weights)
    ncols = len(weights[0]) if nrows else 0
    best = None
    for cols in permutations(range(ncols), nrows):
        total = 0
        ok = True
        for i, j in enumerate(cols):
            w = weights[i][j]
            if w is None:
                ok = False
                break
            total += w
        if ok and (best is None or total > best):
            best = total
    return best


def check_assignment(weights, result):
    assignment, total = result
    assert len(assignment) == len(weights)
    assert len(set(assignment)) == len(assignment)
    got = 0
    for i, j in enumerate(assignment):
        assert weights[i][j] is not None
        got += weights[i][j]
    assert got == total


def test_empty():
    assert max_weight_row_saturating([]) == ((), 0)


def test_singleton():
    assert max_weight_row_saturating([[5]]) == ((0,), 5)
    assert max_weight_row_saturating([[None]]) is None


def test_square_hand_case():
    weights = [[3, 1], [1, 3]]
    assert max_weight_row_saturating(weights) == ((0, 1), 6)


def test_rectangular_prefers_extra_columns():
    weights = [[1, 10]]
    assert max_weight_row_saturating(weights) == ((1,), 10)


def test_forbidden_edges_route_around():
    weights = [[None, 4], [7, None]]
    res = max_weight_row_saturating(weights)
    assert res == ((1, 0), 11)


def test_no_perfect_matching():
    # both rows can only use column 0
    weights = [[1, None], [2, None]]
    assert max_weight_row_saturating(weights) is None


def test_negative_weights_still_saturate():
    # saturation is mandatory even when every total is negative
    weights = [[-5, -1], [-1, -5]]
    res = max_weight_row_saturating(weights)
    assert res is not None and res[1] == -2


def test_validation():
    with pytest.raises(ValueError):
        max_weight_row_saturating([[1, 2], [3]])
    with pytest.raises(ValueError):
        max_weight_row_saturating([[1], [2]])


def test_matches_brute_force_randomized():
    rng = random.Random(19)
    for _ in range(300):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(nrows, 5)
        weights = [
            [
                None if rng.random() < 0.3 else rng.randint(-9, 9)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        want = brute_best(weights)
        got = max_weight_row_saturating(weights)
        if want is None:
            assert got is None, weights
        else:
            assert got is not None, weights
            check_assignment(weights, got)
            assert got[1] == want, weights


def test_square_matches_brute_force():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        weights = tuple(
            tuple(
                None if rng.random() < 0.35 else rng.randint(-5, 15)
                for _ in range(n)
            )
            for _ in range(n)
        )
        want = brute_best([list(row) for row in weights])
        got = max_weight_row_saturating(weights)
        if want is None:
            assert got is None
        else:
            assert got is not None and got[1] == want


def test_large_weights_exact():
    big = 1 << 40
    weights = [[big, big - 1], [big - 1, big - 3]]
    res = max_weight_row_saturating(weights)
    # off-diagonal: (big-1) + (big-1) beats diagonal big + (big-3)
    assert res == ((1, 0), 2 * big - 2)
