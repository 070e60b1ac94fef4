"""Maximum weight assignment on small dense bipartite graphs.

The core routine saturates the left side of a rectangular integer weight
matrix (rows <= cols) using the standard shortest-augmenting-path scheme
with potentials, O(rows^2 * cols) time.  Weights may be negative; ``None``
marks a forbidden edge.  A square matrix asks for a perfect matching.
"""

from __future__ import annotations

from typing import Sequence

_INF = 1 << 62


def max_weight_row_saturating(
    weights: Sequence[Sequence[int | None]],
) -> tuple[tuple[int, ...], int] | None:
    """Match every row to a distinct column, maximizing total weight.

    Requires len(rows) <= len(cols).  Returns (assignment, total) or None
    when some row cannot be matched.
    """
    nrows = len(weights)
    if nrows == 0:
        return (), 0
    ncols = len(weights[0])
    if any(len(row) != ncols for row in weights):
        raise ValueError("ragged weight matrix")
    if nrows > ncols:
        raise ValueError("more rows than columns, no row-saturating matching")

    # Minimization form: cost = shift - weight, forbidden = _INF.  The shift
    # is constant per matched row, so the optimum carries over.
    shift = max((w for row in weights for w in row if w is not None), default=0)
    cost = [
        [_INF if w is None else shift - w for w in row] for row in weights
    ]

    # Potentials u (rows, 1-based) and v (cols, 0 = virtual start column).
    u = [0] * (nrows + 1)
    v = [0] * (ncols + 1)
    match = [0] * (ncols + 1)  # match[j] = 1-based row on column j, 0 = free

    for i in range(1, nrows + 1):
        match[0] = i
        j0 = 0
        minv = [_INF] * (ncols + 1)
        way = [0] * (ncols + 1)
        used = [False] * (ncols + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = _INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, ncols + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 == -1:
                return None  # no unused column left, cannot happen with nrows <= ncols
            for j in range(ncols + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    assignment = [-1] * nrows
    for j in range(1, ncols + 1):
        if match[j]:
            assignment[match[j] - 1] = j - 1
    total = 0
    for i, j in enumerate(assignment):
        w = weights[i][j]
        if w is None:
            return None  # only forbidden edges could saturate the rows
        total += w
    return tuple(assignment), total
