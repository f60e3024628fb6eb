import itertools

import numpy as np
import pytest

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
