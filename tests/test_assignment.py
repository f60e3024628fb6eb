import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_solver

from doatrack.assignment import (batched_assignment, gated_assignment, linear_sum_assignment,
                                 min_cost_assignment)


def brute_force_min_cost(cost):
    """Exhaustive minimum assignment cost for a square matrix."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


def test_min_cost_matches_permutation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        cost = rng.uniform(0, 10, (n, n))
        pairs, total = min_cost_assignment(cost)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-12)
        assert len(pairs) == n
        assert sorted(i for i, _ in pairs) == list(range(n))
        assert sorted(j for _, j in pairs) == list(range(n))


def test_min_cost_rectangular():
    cost = np.array([[1.0, 9.0, 2.0], [8.0, 1.0, 9.0]])
    pairs, total = min_cost_assignment(cost)
    assert len(pairs) == 2
    assert total == pytest.approx(2.0)


def test_gated_assignment_drops_over_gate():
    cost = np.array([[0.5, 50.0], [50.0, 0.7]])
    pairs = gated_assignment(cost, gate=1.0)
    assert sorted(pairs) == [(0, 0), (1, 1)]
    assert gated_assignment(cost, gate=0.1) == []


def test_gated_assignment_prefers_total_cost_within_gate():
    # greedy would pair (0,0); the optimal assignment pairs across
    cost = np.array([[1.0, 2.0], [2.0, 10.0]])
    pairs = gated_assignment(cost, gate=20.0)
    assert sorted(pairs) == [(0, 1), (1, 0)]


def test_gated_assignment_rectangular_leaves_extras():
    cost = np.array([[0.1, 0.2, 30.0]])
    pairs = gated_assignment(cost, gate=1.0)
    assert pairs == [(0, 0)]


def padded_gated_assignment(cost, gate):
    """Reference: every matrix padded to a square of sentinels and solved,
    each cost above the gate priced at the sentinel."""
    n_rows, n_cols = cost.shape
    size = max(n_rows, n_cols)
    sentinel = gate + 1.0
    padded = np.full((size, size), sentinel)
    padded[:n_rows, :n_cols] = np.where(cost <= gate, cost, sentinel)
    pairs, _ = min_cost_assignment(padded)
    return [(r, c) for r, c in pairs if r < n_rows and c < n_cols and cost[r, c] <= gate]


def priced_total(cost, gate, pairs):
    """Total of admissible `pairs`, each line of the smaller side of `cost`
    that they leave unpaired charged the sentinel gate + 1."""
    assert all(cost[r, c] <= gate for r, c in pairs)
    assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
    return sum(cost[r, c] for r, c in pairs) + (gate + 1.0) * (min(cost.shape) - len(pairs))


# entries within the gate of 1, just above it, at the sentinel 2 and beyond,
# below -1, and -inf, which the solver rejects
GATED_COSTS = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 2.0, exclude_min=True),
                        st.sampled_from([1.0, 2.0, np.pi + 1.0, np.inf, -1.0, -np.inf]),
                        st.floats(2.0, 50.0), st.floats(-3.0, 0.0))


def _outcome(solve, cost, gate):
    try:
        return solve(cost, gate)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_gated_assignment_equals_the_padded_solve(n_rows, n_cols, data):
    # the plain matrix and its square padded with sentinels have the same
    # optimal admissible pairs; where optima tie, each solve may pick another
    sparse = data.draw(st.booleans())  # mostly sentinels: at most one admissible per line
    values = st.one_of(st.just(2.0), st.floats(0.0, 1.0)) if sparse else GATED_COSTS
    cost = np.array(data.draw(st.lists(values, min_size=n_rows * n_cols,
                                       max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    got = _outcome(gated_assignment, cost, 1.0)
    padded = _outcome(padded_gated_assignment, cost, 1.0)
    assert isinstance(got, str) == isinstance(padded, str)
    if isinstance(got, str):
        assert got == padded
    else:
        assert all(type(i) is int and type(j) is int for i, j in got)
        assert priced_total(cost, 1.0, got) == pytest.approx(priced_total(cost, 1.0, padded),
                                                             rel=0, abs=1e-12)


def _least_priced_total(cost, gate):
    """Brute force: the least total over every injective map of the smaller
    side into the larger, each cost above the gate priced at gate + 1."""
    priced = np.where(cost <= gate, cost, gate + 1.0)
    narrow = priced if cost.shape[0] <= cost.shape[1] else priced.T
    return min(sum(narrow[i, j] for i, j in enumerate(image))
               for image in itertools.permutations(range(narrow.shape[1]), narrow.shape[0]))


# within the gate of 1, just above it (where a pair priced by its own cost
# would undercut one within the gate) and far beyond it
NEAR_GATE_COSTS = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1.5, exclude_min=True),
                            st.sampled_from([1.0, math.nextafter(1.0, 2.0), 2.0]),
                            st.floats(2.0, 50.0))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
@example(2, 2, [0.75, 1.25, 1.25, 2.0])
def test_gated_assignment_reaches_the_least_sentinel_priced_total(n_rows, n_cols, data):
    if isinstance(data, list):
        cost = np.array(data).reshape(n_rows, n_cols)
    else:
        cost = np.array(data.draw(st.lists(NEAR_GATE_COSTS, min_size=n_rows * n_cols,
                                           max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    pairs = gated_assignment(cost, 1.0)
    assert priced_total(cost, 1.0, pairs) == pytest.approx(_least_priced_total(cost, 1.0),
                                                           rel=0, abs=1e-12)


def test_gated_assignment_pairs_the_entries_the_gate_leaves():
    blocked = np.array([[0.3, 2.0, 2.0], [2.0, 2.0, 0.9]])
    assert gated_assignment(blocked, 1.0) == [(0, 0), (1, 2)]


def test_gated_assignment_drops_the_solvers_pairs_over_the_gate():
    # priced by their own costs, two entries just over the gate would beat one
    # within it plus a sentinel (1.25 + 1.25 < 0.75 + 2); priced at the
    # sentinel, they do not, and the gate drops the solver's pair (1, 1)
    near = np.array([[0.75, 1.25], [1.25, 2.0]])
    assert gated_assignment(near, 1.0) == [(0, 0)]


def test_empty_inputs():
    assert gated_assignment(np.zeros((0, 3)), 1.0) == []
    assert gated_assignment(np.zeros((3, 0)), 1.0) == []


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 1), (2, 2), (2, 4), (4, 2), (3, 3),
                                   (3, 5), (6, 6), (0, 3)])
def test_batched_assignment_matches_each_matrix(shape):
    rng = np.random.default_rng(7)
    stack = rng.uniform(0, 10, (40,) + shape)
    stack[::4] = np.round(stack[::4])  # integer costs: some optima are not unique
    totals, image, near_tie = batched_assignment(stack)
    assert image.shape == (40, min(shape))
    for cost, total, best, tie in zip(stack, totals, image, near_tie):
        narrow = cost if shape[0] <= shape[1] else cost.T
        pairs, reference = min_cost_assignment(narrow)
        assert total == pytest.approx(reference, abs=1e-12)
        assert total == sum(narrow[i, j] for i, j in enumerate(best))
        assert len(set(best.tolist())) == len(best)
        # a clear optimum is the one the scipy solver returns
        if not tie:
            assert [j for _, j in pairs] == best.tolist()


def test_batched_assignment_flags_ties_and_refuses_large_shapes():
    # the second best total 4 lies 1e-10 and 1e-8 above the best, relative to it
    _, _, near_tie = batched_assignment(np.array([[[1.0, 1.0], [5.0, 5.0]],
                                                  [[1.0, 2.0], [2.0, 1.0]],
                                                  [[1.0, 2.0], [2.0, 3.0 - 4e-10]],
                                                  [[1.0, 2.0], [2.0, 3.0 - 4e-8]]]))
    assert near_tie.tolist() == [True, False, True, False]
    assert batched_assignment(np.ones((1, 6, 6)))[2].tolist() == [True]
    with pytest.raises(ValueError, match="exceed"):
        batched_assignment(np.zeros((1, 4, 7)))


# The solver is scipy's ported to Python floats; scipy stays only as this
# reference. Small integers make many optima tie, so that the solver's tie
# rule, not the cost, decides which pairs come back.
SOLVER_COSTS = {
    "ties": st.integers(0, 3).map(float),
    "floats": st.floats(-1e3, 1e3),
    "blocked": st.one_of(st.floats(0.0, 3.0), st.just(np.inf)),  # may leave no full assignment
    "invalid": st.one_of(st.integers(0, 3).map(float), st.sampled_from([np.nan, -np.inf])),
}


def _solved(solve, cost):
    """Rows and columns as lists, or the ValueError's message."""
    try:
        rows, cols = solve(cost)
    except ValueError as exc:
        return str(exc)
    return np.asarray(rows).tolist(), np.asarray(cols).tolist()


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(sorted(SOLVER_COSTS)), st.data())
@example(2, 2, "ties", None).via("every pairing of a constant matrix ties")
def test_linear_sum_assignment_returns_scipys_rows_and_columns(n_rows, n_cols, kind, data):
    if data is None:
        cost = np.ones((n_rows, n_cols))
    else:
        cost = np.array(data.draw(st.lists(SOLVER_COSTS[kind], min_size=n_rows * n_cols,
                                           max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    for matrix in (cost, cost.T):
        assert _solved(linear_sum_assignment, matrix.tolist()) == _solved(scipy_solver, matrix)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_gated_sentinel_padding_solves_as_scipy_does(n_rows, n_cols, data):
    # drawn costs clipped to a sentinel gate + 1 and padded with sentinels
    # to a square, whose many tied optima leave the choice to the tie rule
    gate = 1.0
    cost = np.array(data.draw(st.lists(st.one_of(st.integers(0, 4).map(lambda k: k / 2),
                                                 st.floats(0.0, 3.0)),
                                       min_size=n_rows * n_cols, max_size=n_rows * n_cols)))
    size = max(n_rows, n_cols)
    padded = np.full((size, size), gate + 1.0)
    padded[:n_rows, :n_cols] = np.minimum(cost.reshape(n_rows, n_cols), gate + 1.0)
    assert _solved(linear_sum_assignment, padded.tolist()) == _solved(scipy_solver, padded)


def test_linear_sum_assignment_rejects_what_scipy_rejects():
    for cost in ([[1.0, np.nan]], [[1.0, -np.inf]], [[np.inf, np.inf], [1.0, 2.0]]):
        with pytest.raises(ValueError) as ours:
            linear_sum_assignment(cost)
        with pytest.raises(ValueError) as theirs:
            scipy_solver(np.array(cost))
        assert str(ours.value) == str(theirs.value)
    # finite entries whose sum overflows to -inf are valid
    assert linear_sum_assignment([[-1e308, -1e308], [-1e308, 0.0]]) == ([0, 1], [1, 0])
    assert linear_sum_assignment([]) == ([], [])
    assert linear_sum_assignment([[], [], []]) == ([], [])
