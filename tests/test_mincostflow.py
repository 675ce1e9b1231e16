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
    InvalidStartError,
    TransportInstance,
    solve_balanced_transport,
)

from conftest import brute_force_min_cost, brute_force_optima


def solve(costs, m, M, start=None):
    return solve_balanced_transport(
        TransportInstance(np.asarray(costs, dtype=np.int64), CapacityBounds(m, M)), start=start
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


def perturbed_start(costs, m, M, rng):
    """The cold optimum of a copy of costs moved by up to a quarter of their range."""
    spread = int(costs.max(initial=0)) // 4 + 1
    moved = np.maximum(costs + rng.integers(-spread, spread + 1, size=costs.shape), 0)
    return solve(moved, m, M)[0]


@pytest.mark.parametrize("case", ["default", "numpy-rebuilds", "python-folds", "warm"])
def test_output_pinned(monkeypatch, case):
    # the digest was recorded before the solver's constant-factor rewrites;
    # any change to a tie-break or to the search order moves it, and so does
    # a table-rebuild path that disagrees with the others. The warm case
    # re-solves every instance from the optimum of a perturbed copy and must
    # reproduce the same digest.
    fold_cells = {"numpy-rebuilds": 0, "python-folds": 1 << 62}.get(case)
    if fold_cells is not None:
        monkeypatch.setattr(mincostflow, "FOLD_CELLS", fold_cells)
    warm = []  # per warm solve: whether the re-solve was certified
    cancel = mincostflow._cancel_cycles

    def spy(*args):
        out = cancel(*args)
        warm.append(out is not None)
        return out

    monkeypatch.setattr(mincostflow, "_cancel_cycles", spy)
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for costs, m, M in pinned_instances():
        start = perturbed_start(costs, m, M, rng) if case == "warm" else None
        assign, total = solve(costs, m, M, start)
        h.update(assign.astype(np.int64).tobytes() + b"%d;" % total)
    assert h.hexdigest() == "9185eb1583aff4686e335746112afd10850ce988f086116dd7dffbb749129bb3"
    if case == "warm":
        # both the certified re-solve and the fallback decided a good share
        assert len(warm) == 900 and 200 < sum(warm) < 800, sum(warm)
    else:
        assert not warm


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_warm_matches_brute_force_on_ties(data):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 3 if n > 6 else 4))
    m = data.draw(st.integers(0, n // k))
    M = data.draw(st.integers(-(-n // k), n))
    rows = st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=n, max_size=n)
    costs = np.array(data.draw(rows)).reshape(n, k)
    start = solve(np.array(data.draw(rows)).reshape(n, k), m, M)[0]
    assign, cost = solve(costs, m, M, start)
    assert cost == int(costs[np.arange(n), assign].sum())
    assert cost == brute_force_min_cost(costs, m, M)
    assert assign.tolist() == solve(costs, m, M)[0].tolist()
    # the certificate is exact: too strict would only cost speed, as the cold
    # fallback returns the same answer, so no output test would notice
    certified = mincostflow._cancel_cycles(costs, m, M, start) is not None
    assert certified == (brute_force_optima(costs, m, M) == 1)


def test_tied_optimum_falls_back_to_the_cold_answer():
    # rows 0-2 are the same row: any one of them can join row 3 in column 1,
    # so three assignments share the optimum cost of 3
    costs = np.array([[0, 3], [0, 3], [0, 3], [5, 0]], dtype=np.int64)
    cold, cold_total = solve(costs, 2, 2)
    start = np.array([1, 0, 0, 1])
    assert cold.tolist() != start.tolist()
    assert int(costs[np.arange(4), start].sum()) == cold_total  # start is itself optimal
    assert mincostflow._cancel_cycles(costs, 2, 2, start) is None
    assign, total = solve(costs, 2, 2, start)
    assert assign.tolist() == cold.tolist() and total == cold_total


def test_warm_solve_cancels_cycles_through_the_sink():
    # from a start that puts every row in its worse column, the optimum needs
    # row swaps and moves that only the sink's slack allows
    costs = np.array([[0, 9, 9], [9, 0, 9], [9, 9, 0], [0, 9, 9], [9, 0, 9]], dtype=np.int64)
    start = np.array([1, 2, 0, 2, 0])
    assert mincostflow._cancel_cycles(costs, 1, 2, start).tolist() == [0, 1, 2, 0, 1]
    assert solve(costs, 1, 2, start)[0].tolist() == [0, 1, 2, 0, 1]


@pytest.mark.parametrize(
    "start,match",
    [
        ([0, 1, 0], r"shape \(4,\), got \(3,\)"),
        ([[0, 1], [0, 1]], r"shape \(4,\), got \(2, 2\)"),
        ([0.0, 1.0, 0.0, 1.0], "must be integers"),
        ([0, 1, 2, 1], r"label 2 of row 2 is outside \[0, k\) = \[0, 2\)"),
        ([0, -1, 0, 1], r"label -1 of row 1"),
        ([0, 0, 0, 1], r"load 3 of column 0 is outside \[min_size, max_size\] = \[1, 2\]"),
        ([1, 1, 1, 1], r"load 0 of column 0"),
    ],
)
def test_invalid_start_raises(start, match):
    with pytest.raises(InvalidStartError, match=match) as err:
        solve(np.zeros((4, 2), dtype=np.int64), 1, 2, start)
    assert isinstance(err.value, ValueError)
