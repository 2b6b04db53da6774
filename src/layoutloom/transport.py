"""Exact solver for balanced optimal transport with uniform marginals.

The problem solved here is

    minimize    sum_ij  plan[i][j] * cost[i][j]
    subject to  plan >= 0,
                sum_j plan[i][j] = 1/m   for every source row i,
                sum_i plan[i][j] = 1/n   for every target column j.

The solver scales the uniform marginals by L = lcm(m, n), so row i supplies
L/m whole mass units and column j demands L/n. The transportation polytope
has integral vertices, so an optimal plan moves whole units. One rule picks
the method. When L is at most ``MAX_ELEMENTS``, the problem is an
assignment on the L x L unit expansion: every row repeated L/m times and
every column L/n times. It is solved by scipy's ``linear_sum_assignment``
and folded back into whole-unit flows; at that size it is faster than the
simplex below. That covers squares (L = m) and every shape where one size
divides the other (L = max(m, n)). Any other shape is
solved by the transportation (network) simplex on the m x n matrix itself
(Peyré & Cuturi, *Computational Optimal Transport*, 2019, §3.5): flows stay
integers, and every basis is a spanning tree of the bipartite row/column
graph. The tree is kept strongly feasible (Cunningham,
1976): rooted at row 0, every tree cell with zero flow has its row as the
parent of its column. The leaving cell is the first blocking cell met going
round the pivot cycle from its apex in the entering cell's direction. That
keeps the tree strongly feasible, which rules out cycling among the many
degenerate bases that uniform marginals give.

Costs stay in floating point throughout; no cost quantization is applied,
so the optimum matches enumeration oracles to solver precision (well below
1e-9 on layout-sized instances). The plan's cost is the ``fsum`` of its
cells, so any exact method that finds the same whole-unit flow gives the
same bits. Where plans tie, or come within rounding of a tie, another exact
method may pick another of them, and the cost can then differ in the last
bit.

``solve_exact`` takes at most ``MAX_ELEMENTS`` rows and columns, the
PubLayNet and PKU preprocessing bound on layout size. Retrieval rejects
larger layouts before they reach here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import EmptyLayout

MAX_ELEMENTS = 25

# A cell prices in when its reduced cost is below -OPTIMALITY_TOL times the
# matrix's largest cost magnitude: potentials summed along a tree path of at
# most 2 * MAX_ELEMENTS cells carry rounding far below it. The bound scales
# with the costs both ways; an absolute floor would stop short of the optimum
# on costs of order 1e-6.
OPTIMALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A feasible transport plan and its total cost."""

    mass: np.ndarray
    cost: float


def solve_exact(cost) -> TransportPlan:
    """Exact uniform-marginal transport in whole units of 1/lcm(m, n), as the
    module docstring describes. Accepts an ndarray or a list of rows, with at
    most ``MAX_ELEMENTS`` rows and columns and finite entries."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise EmptyLayout("transport requires a non-empty cost matrix")
    m, n = c.shape
    if max(m, n) > MAX_ELEMENTS:
        raise ValueError(f"transport supports at most {MAX_ELEMENTS} x {MAX_ELEMENTS} "
                         f"costs, got {m} x {n}")
    if not np.isfinite(c).all():
        raise ValueError("transport requires finite costs")
    unit = math.lcm(m, n)
    rep_r, rep_c = unit // m, unit // n
    if unit <= MAX_ELEMENTS:
        rows, cols = linear_sum_assignment(c.repeat(rep_r, axis=0).repeat(rep_c, axis=1))
        flow = np.bincount(rows // rep_r * n + cols // rep_c, minlength=m * n).reshape(m, n)
    else:
        flow = _transport_simplex(c, rep_r, rep_c)
    mass = flow / float(unit)
    used = flow > 0
    return TransportPlan(mass=mass, cost=math.fsum((mass[used] * c[used]).tolist()))


def _transport_simplex(c: np.ndarray, supply: int, demand: int) -> np.ndarray:
    """Whole-unit optimal flows on ``c`` when every row supplies ``supply``
    units and every column demands ``demand``. Nodes are rows 0..m-1 and
    columns m..m+n-1; tree cells are keyed ``row * n + column``."""
    m, n = c.shape
    order = np.argsort(c, axis=None, kind="stable")
    costs = c.tolist()
    tol = OPTIMALITY_TOL * max(-float(c.flat[order[0]]), float(c.flat[order[-1]]))

    # Greedy start in cost order: each cell takes what its row and column
    # have left, which empties one of them, so the cells form a forest.
    left = [supply] * m + [demand] * n
    flow: dict[int, int] = {}
    adj: list[list[int]] = [[] for _ in range(m + n)]
    cells = list(zip(order.tolist(), (order // n).tolist(), (order % n + m).tolist()))
    unplaced = m * supply
    for cell, i, j in cells:
        q = left[i]
        if q and left[j]:
            q = min(q, left[j])
            flow[cell] = q
            left[i] -= q
            left[j] -= q
            adj[i].append(j)
            adj[j].append(i)
            unplaced -= q
            if not unplaced:
                break

    # Join the forest into a tree rooted at row 0 with zero-flow cells whose
    # row is already in the tree, so each hangs its column below the row.
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)

    def hang(start: int) -> int:
        """Set parent, depth and potential (u_i + v_j = c_ij on tree cells)
        below ``start``, whose own are set; returns the nodes visited."""
        walk = [start]
        for x in walk:
            px, dx, ux = parent[x], depth[x] + 1, pot[x]
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    depth[y] = dx
                    pot[y] = (costs[x][y - m] if x < m else costs[y][x - m]) - ux
                    walk.append(y)
        return len(walk)

    missing = m + n - hang(0)
    for cell, i, j in cells:
        if not missing:
            break
        if (i == 0 or parent[i] >= 0) and parent[j] < 0:
            flow[cell] = 0
            adj[i].append(j)
            adj[j].append(i)
            parent[j], depth[j], pot[j] = i, depth[i] + 1, costs[i][j - m] - pot[i]
            missing -= hang(j)

    while True:
        p = np.array(pot)
        reduced = c - p[:m, None] - p[None, m:]
        cell = int(reduced.argmin())
        if reduced.flat[cell] >= -tol:
            break

        # The cycle the entering cell (k, l) closes runs from the apex down
        # to row k, across to column l and up to the apex. Going round it,
        # flow falls on a tree cell entered from its column (side k: lower
        # node a row; side l: lower node a column) and rises on the others.
        k, l = divmod(cell, n)
        a, b = k, m + l
        side_k: list[int] = []
        side_l: list[int] = []
        while depth[a] > depth[b]:
            side_k.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_l.append(b)
            b = parent[b]
        while a != b:
            side_k.append(a)
            a = parent[a]
            side_l.append(b)
            b = parent[b]
        side_k.reverse()
        keys_k = [x * n + parent[x] - m if x < m else parent[x] * n + x - m for x in side_k]
        keys_l = [y * n + parent[y] - m if y < m else parent[y] * n + y - m for y in side_l]
        # The first blocking cell met going round leaves the tree; the
        # subtree below it, which holds k or l, is hung from the other.
        theta = supply + demand
        for x, e in zip(side_k, keys_k):
            if x < m and flow[e] < theta:
                theta, leave, low, top = flow[e], e, k, m + l
        for y, e in zip(side_l, keys_l):
            if y >= m and flow[e] < theta:
                theta, leave, low, top = flow[e], e, m + l, k
        if theta:
            for x, e in zip(side_k, keys_k):
                flow[e] += -theta if x < m else theta
            for y, e in zip(side_l, keys_l):
                flow[e] += theta if y < m else -theta
        flow[cell] = theta
        del flow[leave]
        i, j = divmod(leave, n)
        adj[i].remove(m + j)
        adj[m + j].remove(i)
        adj[k].append(m + l)
        adj[m + l].append(k)
        parent[low], depth[low], pot[low] = top, depth[top] + 1, costs[k][l] - pot[top]
        hang(low)

    out = np.zeros(m * n, dtype=np.int64)
    out[list(flow)] = list(flow.values())
    return out.reshape(m, n)
