"""Exact transport solver against enumeration oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import expansion_solve
from layoutloom.errors import EmptyLayout
from layoutloom.transport import solve_exact


def permutation_assignment_cost(cost):
    """Brute force: min over all n! permutations of the total assignment cost."""
    n = cost.shape[0]
    return min(
        math.fsum(float(cost[i, perm[i]]) for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def polytope_vertex_min(cost):
    """Brute force: minimum cost over all vertices of the transport polytope.

    Vertices are basic feasible solutions; each basis is a set of m+n-1 cells
    whose incidence columns are independent. Enumerate them all, solve the
    marginal equations, and keep the feasible ones.
    """
    m, n = cost.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    rhs = np.array([1.0 / m] * m + [1.0 / n] * (n - 1))  # drop one redundant row
    best = math.inf
    for basis in itertools.combinations(cells, k):
        a = np.zeros((k, k))
        for col, (i, j) in enumerate(basis):
            a[i, col] = 1.0
            if j < n - 1:
                a[m + j, col] = 1.0
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if (x >= -1e-12).all():
            value = math.fsum(float(cost[i, j]) * float(v) for (i, j), v in zip(basis, x))
            best = min(best, value)
    return best


def linprog_min(cost):
    """The m x n transportation LP with uniform marginals, solved by HiGHS."""
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))  # sum_j plan[i][j]
    cols = np.kron(np.ones(m), np.eye(n))  # sum_i plan[i][j]
    result = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                     b_eq=np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)]),
                     bounds=(0, None), method="highs")
    assert result.status == 0
    return result.fun


class TestExactSolver:
    def test_forced_single_cell(self):
        plan = solve_exact(np.array([[0.5]]))
        assert plan.cost == pytest.approx(0.5, abs=1e-15)
        assert plan.mass[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_cost_diagonal(self):
        cost = 1.0 - np.eye(4)
        plan = solve_exact(cost)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)
        # all mass sits on zero-cost cells
        assert float(plan.mass[cost > 0].sum()) == pytest.approx(0.0, abs=1e-12)

    def test_marginals_hold(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            plan = solve_exact(rng.random((m, n)))
            assert np.abs(plan.mass.sum(axis=1) - 1.0 / m).max() < 1e-9
            assert np.abs(plan.mass.sum(axis=0) - 1.0 / n).max() < 1e-9
            assert plan.mass.min() >= 0.0

    def test_cost_equals_plan_dot_cost(self):
        rng = np.random.default_rng(22)
        cost = rng.random((5, 3))
        plan = solve_exact(cost)
        assert plan.cost == pytest.approx(float((plan.mass * cost).sum()), abs=1e-9)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            cost = rng.random((n, n))
            plan = solve_exact(cost)
            assert n * plan.cost == pytest.approx(permutation_assignment_cost(cost), abs=1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 40:
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            cost = rng.random((m, n))
            plan = solve_exact(cost)
            assert plan.cost == pytest.approx(polytope_vertex_min(cost), abs=1e-9)
            checked += 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyLayout):
            solve_exact(np.zeros((0, 3)))

    def test_matches_linprog_oracle(self):
        rng = np.random.default_rng(25)
        sizes = [tuple(int(x) for x in rng.integers(1, 26, size=2)) for _ in range(200)]
        for m, n in sizes + [(24, 25), (23, 25), (25, 24)]:
            cost = rng.random((m, n))
            plan = solve_exact(cost)
            assert abs(plan.cost - linprog_min(cost)) <= 1e-9, (m, n)
            assert np.abs(plan.mass.sum(axis=1) - 1.0 / m).max() <= 1e-9
            assert np.abs(plan.mass.sum(axis=0) - 1.0 / n).max() <= 1e-9
            assert plan.mass.min() >= 0.0
            assert solve_exact(cost.tolist()).cost == plan.cost

    @pytest.mark.parametrize("shape", [(26, 1), (1, 26), (97, 25)])
    def test_oversized_rejected(self, shape):
        with pytest.raises(ValueError, match="at most 25 x 25"):
            solve_exact(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cost_rejected(self, shape, bad):
        cost = np.zeros(shape)
        cost[1, 0] = bad
        with pytest.raises(ValueError, match="finite costs"):
            solve_exact(cost)


# Shapes with m != n up to 25 x 25, always including the largest expansions
# the old solver faced and the thinnest matrices.
_RECTANGLES = st.one_of(
    st.sampled_from([(24, 25), (23, 25), (25, 1), (25, 24), (1, 25)]),
    st.tuples(st.integers(1, 25), st.integers(1, 25)).filter(lambda s: s[0] != s[1]))


def _whole_units(plan, m, n):
    """The plan's flows in units of 1/lcm(m, n), checked to be whole, non-negative
    and to meet both marginals exactly."""
    unit = math.lcm(m, n)
    flow = np.rint(plan.mass * unit)
    assert np.array_equal(flow / unit, plan.mass)
    assert flow.min() >= 0
    assert (flow.sum(axis=1) == unit // m).all()
    assert (flow.sum(axis=0) == unit // n).all()
    return flow


@st.composite
def _tied_costs(draw):
    """Cost matrices whose optimum is rarely unique: repeated rows or columns,
    values in {0, 0.5, 1}, or one value everywhere, at scales 1e-6, 1 and 1e6."""
    m, n = draw(_RECTANGLES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["rows", "columns", "quantized", "constant"]))
    if family == "rows":
        cost = rng.random((m, n))[rng.integers(0, m, size=m)]
    elif family == "columns":
        cost = rng.random((m, n))[:, rng.integers(0, n, size=n)]
    elif family == "quantized":
        cost = rng.choice([0.0, 0.5, 1.0], size=(m, n))
    else:
        cost = np.full((m, n), rng.random())
    return cost * draw(st.sampled_from([1e-6, 1.0, 1e6]))


class TestAgainstExpansion:
    """m != n against the lcm(m, n)**2 assignment, which solve_exact is
    itself where lcm(m, n) <= 25, so these check the simplex on the rest."""

    @settings(max_examples=150, deadline=None)
    @given(_RECTANGLES, st.integers(0, 2**32 - 1))
    def test_generic_costs_give_the_same_plan(self, shape, seed):
        cost = np.random.default_rng(seed).random(shape)
        plan, oracle = solve_exact(cost), expansion_solve(cost)
        assert plan.cost == oracle.cost
        assert np.array_equal(_whole_units(plan, *shape), _whole_units(oracle, *shape))

    @settings(max_examples=150, deadline=None)
    @given(_tied_costs())
    def test_tied_costs_stay_within_rounding(self, cost):
        plan, oracle = solve_exact(cost), expansion_solve(cost)
        _whole_units(plan, *cost.shape)
        # Both plans are optimal, so their exact costs tie. Each cell's
        # mass * cost is rounded twice (relative error below 2**-52) and each
        # fsum once (half an ulp), which bounds the gap between the two.
        assert abs(plan.cost - oracle.cost) <= 2.0**-51 * oracle.cost + math.ulp(oracle.cost)


# Every shape up to 25 x 25 where one size divides the other, squares included.
_DIVISIBLE = [(m, n) for m in range(1, 26) for n in range(1, 26) if m % n == 0 or n % m == 0]


@pytest.mark.parametrize("family", ["random", "quantized"])
def test_divisible_shapes_are_the_expansion_assignment(family):
    """Where lcm(m, n) is max(m, n), solve_exact is the assignment on the
    unit expansion: the same flow and the same cost bits, ties included."""
    rng = np.random.default_rng(31)
    for m, n in _DIVISIBLE:
        for _ in range(3):
            cost = (rng.random((m, n)) if family == "random"
                    else rng.choice([0.0, 0.5, 1.0], size=(m, n)))
            plan, oracle = solve_exact(cost), expansion_solve(cost)
            assert np.array_equal(plan.mass, oracle.mass), (m, n)
            assert plan.cost.hex() == oracle.cost.hex(), (m, n)
