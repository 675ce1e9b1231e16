import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeid import mincostflow
from treeid.core import CapacityBounds
from treeid.mincostflow import (
    CostOverflowError,
    InfeasibleBoundsError,
    TransportInstance,
    solve_balanced_transport,
)

from conftest import brute_force_min_cost


def solve(costs, m, M):
    return solve_balanced_transport(
        TransportInstance(np.asarray(costs, dtype=np.int64), CapacityBounds(m, M))
    )


def test_single_cell():
    assign, cost = solve([[5]], 1, 1)
    assert assign.tolist() == [0] and cost == 5


def test_documented_four_row_instance():
    assign, cost = solve([[36, 16], [16, 36], [121, 1], [400, 100]], 2, 2)
    assert assign.tolist() == [0, 0, 1, 1]
    assert cost == 36 + 16 + 1 + 100 == 153


def test_unconstrained_takes_row_minimum():
    rng = np.random.default_rng(3)
    costs = rng.integers(0, 100, size=(17, 4))
    assign, cost = solve(costs, 0, 17)
    expect = costs.argmin(axis=1)  # argmin ties already go to the lower column
    assert assign.tolist() == expect.tolist()
    assert cost == int(costs.min(axis=1).sum())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_brute_force(data):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, n // k))
    M = data.draw(st.integers(-(-n // k), n))
    costs = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 999), min_size=k, max_size=k), min_size=n, max_size=n))
    )
    _, cost = solve(costs, m, M)
    assert cost == brute_force_min_cost(costs, m, M)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_brute_force_on_ties(data):
    # costs from {0, 1, 2} make many zero reduced-cost paths tie at the
    # nearest demand, which is where the search stops
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(0, n // k))
    M = data.draw(st.integers(-(-n // k), n))
    costs = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=n, max_size=n))
    )
    assign, cost = solve(costs, m, M)
    assert cost == int(costs[np.arange(n), assign].sum())
    assert cost == brute_force_min_cost(costs, m, M)


def test_loads_respect_bounds():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        m = int(rng.integers(0, n // k + 1))
        M = int(rng.integers(-(-n // k), n + 1))
        costs = rng.integers(0, 10_000, size=(n, k))
        assign, _ = solve(costs, m, M)
        loads = np.bincount(assign, minlength=k)
        assert loads.sum() == n
        assert loads.min() >= m and loads.max() <= M


def test_deterministic():
    rng = np.random.default_rng(5)
    costs = rng.integers(0, 50, size=(30, 4))  # small range forces many ties
    first = solve(costs, 7, 8)
    for _ in range(3):
        again = solve(costs, 7, 8)
        assert again[0].tolist() == first[0].tolist() and again[1] == first[1]


def test_infeasible_max():
    with pytest.raises(InfeasibleBoundsError, match=r"k\*max_size = 4 < N = 5"):
        solve(np.zeros((5, 2), dtype=np.int64), 0, 2)


def test_infeasible_min():
    with pytest.raises(InfeasibleBoundsError, match=r"k\*min_size = 6 > N = 5"):
        solve(np.zeros((5, 2), dtype=np.int64), 3, 3)


def test_overflow_guard():
    costs = np.full((4, 2), (1 << 62) // 2, dtype=np.int64)
    with pytest.raises(CostOverflowError):
        solve(costs, 2, 2)


def test_negative_costs_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        TransportInstance(np.array([[-1, 2]]), CapacityBounds(0, 1))


def test_reported_cost_matches_assignment():
    rng = np.random.default_rng(9)
    costs = rng.integers(0, 1000, size=(25, 5))
    assign, cost = solve(costs, 5, 5)
    assert cost == int(costs[np.arange(25), assign].sum())


def pinned_instances():
    """900 seeded instances: two in three small with tie-heavy costs, the rest
    up to 149 rows with wide cost ranges; tight and loose bounds alike."""
    rng = np.random.default_rng(20261018)
    for t in range(900):
        k = int(rng.integers(2, 9))
        if t % 3:
            n = int(rng.integers(2, 60))
            high = int(rng.choice([2, 3, 4, 6, 10]))
        else:
            n = int(rng.integers(1, 150))
            high = (50, 1000, 1 << 20, 1 << 40)[t // 3 % 4]
        costs = rng.integers(0, high, size=(n, k))
        if rng.random() < 0.5:
            m, M = n // k, -(-n // k)
        else:
            m = int(rng.integers(0, n // k + 1))
            M = int(rng.integers(-(-n // k), n + 1))
        yield costs, m, M


@pytest.mark.parametrize(
    "fold_cells", [None, 0, 1 << 62], ids=["default", "numpy-rebuilds", "python-folds"]
)
def test_output_pinned(monkeypatch, fold_cells):
    # the digest was recorded before the solver's constant-factor rewrites;
    # any change to a tie-break or to the search order moves it, and so does
    # a table-rebuild path that disagrees with the others
    if fold_cells is not None:
        monkeypatch.setattr(mincostflow, "FOLD_CELLS", fold_cells)
    h = hashlib.sha256()
    for costs, m, M in pinned_instances():
        assign, total = solve(costs, m, M)
        h.update(assign.astype(np.int64).tobytes() + b"%d;" % total)
    assert h.hexdigest() == "9185eb1583aff4686e335746112afd10850ce988f086116dd7dffbb749129bb3"
