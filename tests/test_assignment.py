import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doatrack.assignment import batched_assignment, gated_assignment, min_cost_assignment


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
    """Reference: every matrix padded to a square of sentinels and solved."""
    n_rows, n_cols = cost.shape
    size = max(n_rows, n_cols)
    sentinel = gate + 1.0
    padded = np.full((size, size), sentinel)
    padded[:n_rows, :n_cols] = np.minimum(cost, sentinel)
    pairs, _ = min_cost_assignment(padded)
    return [(r, c) for r, c in pairs if r < n_rows and c < n_cols and cost[r, c] <= gate]


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
    sparse = data.draw(st.booleans())  # mostly sentinels: at most one admissible per line
    values = st.one_of(st.just(2.0), st.floats(0.0, 1.0)) if sparse else GATED_COSTS
    cost = np.array(data.draw(st.lists(values, min_size=n_rows * n_cols,
                                       max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    got = _outcome(gated_assignment, cost, 1.0)
    assert got == _outcome(padded_gated_assignment, cost, 1.0)
    assert isinstance(got, str) or all(type(i) is int and type(j) is int for i, j in got)


def test_gated_assignment_pairs_the_entries_the_gate_leaves():
    blocked = np.array([[0.3, 2.0, 2.0], [2.0, 2.0, 0.9]])
    assert gated_assignment(blocked, 1.0) == [(0, 0), (1, 2)]


def test_gated_assignment_drops_the_solvers_pairs_over_the_gate():
    # two entries just over the gate beat one within it plus a sentinel:
    # 1.25 + 1.25 < 0.75 + 2, so the solver pairs across and the gate drops both
    near = np.array([[0.75, 1.25], [1.25, 2.0]])
    assert gated_assignment(near, 1.0) == []


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
