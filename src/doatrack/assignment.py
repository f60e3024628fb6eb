"""Minimum-cost bipartite assignment (Munkres), shared by association and OSPA.

`min_cost_assignment` and `gated_assignment` solve one matrix with scipy's
Jonker-Volgenant solver on every call (a tracker step the gate decides is
paired by `track._gated_pairs` without one), loading scipy.optimize on the
first solve; tests pin it against
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


def linear_sum_assignment(cost: np.ndarray):
    """scipy's `linear_sum_assignment`, with scipy.optimize loaded on the first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def min_cost_assignment(cost: np.ndarray):
    """Optimal row-to-column pairing of a (possibly rectangular) cost matrix.

    Returns (pairs, total_cost) with pairs a list of (row, col). Every row or
    column beyond the smaller dimension is left unassigned.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return [], 0.0
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum())
    return list(zip(rows.tolist(), cols.tolist())), total


def gated_assignment(cost: np.ndarray, gate: float):
    """Assignment where pairs costing more than `gate` are inadmissible.

    The matrix is padded to a square with sentinel costs just above the
    gate, and every cost above the sentinel is clipped to it; pairs landing
    on a sentinel or above the gate are dropped from the solver's optimum.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return []
    sentinel = gate + 1.0
    size = max(n_rows, n_cols)
    padded = np.full((size, size), sentinel)
    padded[:n_rows, :n_cols] = np.minimum(cost, sentinel)
    pairs, _ = min_cost_assignment(padded)
    return [
        (r, c) for r, c in pairs
        if r < n_rows and c < n_cols and cost[r, c] <= gate
    ]


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
