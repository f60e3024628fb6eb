"""Minimum-cost bipartite assignment (Munkres), shared by association and OSPA.

`min_cost_assignment` and `gated_assignment` solve one matrix on every call
(a tracker step the gate decides is paired by `track._gated_pairs` without
one) with `linear_sum_assignment`, scipy's solver ported to Python floats,
whose pairs are scipy's, ties included; tests pin it against scipy and
exhaustive permutation enumeration. `batched_assignment` solves a stack of
small matrices of one shape at once by that enumeration, and marks the
matrices whose best assignment is not unique by a safe margin, where a
tie-break decides.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from .sigproc import CHUNK_ELEMENTS

MAX_MAPS = 720  # injective maps one batched shape may enumerate: 6!, as for a 6 x 6 matrix
NEAR_TIE = 1e-9  # totals this close to the best, relative to max(1, best), tie with it


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment, the shortest augmenting path
    solver of Crouse (IEEE TAES 2016), of a list of equal-length rows of
    floats: (rows, cols) lists, rows ascending. It keeps scipy's dual updates,
    column order and tie rule (an unassigned column wins a tie), and scipy's
    ValueErrors for a NaN or -inf entry and for an infeasible matrix."""
    n_rows, n_cols = len(cost), len(cost[0]) if cost else 0
    if not (n_rows and n_cols):
        return [], []
    total = sum(map(sum, cost))  # NaN or -inf if an entry is, or if the sum overflows
    if not -math.inf < total and not all(-math.inf < c for row in cost for c in row):
        raise ValueError("matrix contains invalid numeric entries")
    transpose = n_cols < n_rows
    if transpose:
        cost, n_rows, n_cols = list(zip(*cost)), n_cols, n_rows
    u, v = [0.0] * n_rows, [0.0] * n_cols  # dual variables
    col4row, row4col, path = [-1] * n_rows, [-1] * n_cols, [-1] * n_cols
    order, unreached = list(range(n_cols - 1, -1, -1)), [math.inf] * n_cols
    for current in range(n_rows):
        shortest, remaining = unreached[:], order[:]
        tree, i, min_val = [], current, 0.0  # tree: the columns reached, in order
        while True:  # grow the shortest path tree until it reaches a free column
            row, u_i, lowest, index, k = cost[i], u[i], math.inf, -1, 0
            for j in remaining:  # k counts, faster than enumerate
                r, s = min_val + row[j] - u_i - v[j], shortest[j]
                if r < s:
                    path[j], shortest[j], s = i, r, r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, k
                k += 1
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            remaining[index], remaining[-1] = remaining[-1], remaining[index]
            j = remaining.pop()
            tree.append(j)
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[current] += min_val
        for k in tree:  # the rows reached are those of every column but the free one, j
            if k != j:
                u[row4col[k]] += min_val - shortest[k]
            v[k] -= min_val - shortest[k]
        while True:  # augment along the path back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    if transpose:
        cols = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[j] for j in cols], cols
    return list(range(n_rows)), col4row


def min_cost_assignment(cost: np.ndarray):
    """Optimal row-to-column pairing of a (possibly rectangular) cost matrix.

    Returns (pairs, total_cost) with pairs a list of (row, col). Every row or
    column beyond the smaller dimension is left unassigned.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return [], 0.0
    rows, cols = linear_sum_assignment(cost.tolist())
    total = float(cost[rows, cols].sum())
    return list(zip(rows, cols)), total


def gated_assignment(cost, gate: float):
    """Assignment where pairs costing more than `gate` are inadmissible.

    `cost`, a 2-D array or a list of rows of floats, is solved as given,
    every cost above the gate priced at one sentinel, gate + 1: an
    inadmissible pair then costs what leaving its row or column unpaired
    would, however far past the gate it lies, and the solver's pairs above
    the gate are dropped. A NaN or -inf entry raises the solver's ValueError.
    """
    if not isinstance(cost, list):
        cost = np.atleast_2d(np.asarray(cost, dtype=float)).tolist()
    sentinel = gate + 1.0
    rows, cols = linear_sum_assignment([[sentinel if c > gate else c for c in row]
                                        for row in cost])
    return [(r, c) for r, c in zip(rows, cols) if cost[r][c] <= gate]


def map_count(n_rows: int, n_cols: int) -> int:
    """Injective maps of the smaller side of an (n_rows, n_cols) matrix into the larger."""
    return math.perm(max(n_rows, n_cols), min(n_rows, n_cols))


@cache
def _injections(n_small: int, n_large: int) -> np.ndarray:
    """(maps, n_small) table: row k is the k-th injective map of range(n_small)
    into range(n_large) in `itertools.permutations` order."""
    maps = list(itertools.permutations(range(n_large), n_small))
    table = np.array(maps, dtype=np.intp).reshape(len(maps), n_small)
    table.flags.writeable = False
    return table


def batched_assignment(cost: np.ndarray):
    """Minimum-cost assignment of every matrix of a (T, S, R) cost stack.

    Enumerates the injective maps of the smaller side into the larger one, at
    most MAX_MAPS of them (ValueError otherwise), over chunks of matrices
    that keep T x maps x min(S, R) within `sigproc.CHUNK_ELEMENTS`. A total
    is summed along the smaller side in index order, as `min_cost_assignment`
    sums the rows of a matrix with no more rows than columns.

    Returns (totals (T,), image (T, min(S, R)), near_tie (T,)): each
    matrix's least total, the larger-side index its best map gives each
    smaller-side index (rows when S <= R, else columns), and whether another
    map's total lies within NEAR_TIE of the least, so that which optimum a
    solver returns is left to its tie-break or rounding.
    """
    cost = np.asarray(cost, dtype=float)
    n, s, r = cost.shape
    if s > r:
        cost = cost.swapaxes(1, 2)
    small, large = sorted((s, r))
    if map_count(s, r) > MAX_MAPS:
        raise ValueError(f"{map_count(s, r)} maps of a {s} x {r} matrix exceed {MAX_MAPS}")
    maps = _injections(small, large)
    totals = np.empty(n)
    image = np.empty((n, small), dtype=np.intp)
    near_tie = np.empty(n, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // (len(maps) * max(small, 1)))
    for lo in range(0, n, step):
        block = cost[lo:lo + step]
        total = np.zeros((len(block), len(maps)))
        for k in range(small):
            total += block[:, k, maps[:, k]]
        best = np.argmin(total, axis=1)
        least = total[np.arange(len(block)), best]
        totals[lo:lo + step] = least
        image[lo:lo + step] = maps[best]
        slack = NEAR_TIE * np.maximum(1.0, least)
        near_tie[lo:lo + step] = np.count_nonzero(total <= (least + slack)[:, None], axis=1) > 1
    return totals, image, near_tie
