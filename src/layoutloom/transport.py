"""Exact solver for balanced optimal transport with uniform marginals.

The problem solved here is

    minimize    sum_ij  plan[i][j] * cost[i][j]
    subject to  plan >= 0,
                sum_j plan[i][j] = 1/m   for every source row i,
                sum_i plan[i][j] = 1/n   for every target column j.

The exact solver scales the uniform marginals by lcm(m, n) so every supply
and demand is an integer number of mass units, then runs successive shortest
paths with node potentials on the bipartite residual graph. Costs stay in
floating point throughout; no cost quantization is applied, so the optimum
matches enumeration oracles to solver precision (well below 1e-9 on the
instance sizes this package targets, m*n <= 1e4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLayout


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A feasible transport plan and its total cost."""

    rows: int
    cols: int
    mass: np.ndarray
    cost: float

    def row_sums(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.mass.sum(axis=0)


def solve_exact(cost) -> TransportPlan:
    """Exact uniform-marginal transport via min-cost flow on integerized masses.

    Successive shortest paths with Johnson potentials; each augmentation
    pushes the full bottleneck of the shortest source-to-demand path, so the
    iteration count stays tiny for the layout-sized instances seen here.
    Accepts an ndarray or a list of rows; plain lists skip conversion, which
    matters when retrieval runs hundreds of thousands of tiny solves.
    """
    if isinstance(cost, np.ndarray):
        if cost.ndim != 2:
            raise EmptyLayout("transport requires a non-empty cost matrix")
        c = cost.tolist()
    else:
        c = [list(row) for row in cost]
    m = len(c)
    n = len(c[0]) if m else 0
    if m == 0 or n == 0:
        raise EmptyLayout("transport requires a non-empty cost matrix")
    unit = math.lcm(m, n)
    supply = [unit // m] * m
    demand = [unit // n] * n
    flow = [[0] * n for _ in range(m)]
    u = [0.0] * m  # row potentials
    v = [0.0] * n  # column potentials
    remaining = unit
    inf = math.inf

    while remaining > 0:
        dist_r = [0.0 if supply[i] > 0 else inf for i in range(m)]
        dist_c = [inf] * n
        pred_c = [-1] * n  # column reached through a forward arc from this row
        pred_r = [-1] * m  # row reached through a backward arc from this column
        done_r = [False] * m
        done_c = [False] * n

        while True:
            best = inf
            node = -1
            node_is_row = True
            for i in range(m):
                if not done_r[i] and dist_r[i] < best:
                    best, node, node_is_row = dist_r[i], i, True
            for j in range(n):
                if not done_c[j] and dist_c[j] < best:
                    best, node, node_is_row = dist_c[j], j, False
            if node < 0:
                break
            if node_is_row:
                done_r[node] = True
                ci = c[node]
                ui = u[node]
                for j in range(n):
                    if done_c[j]:
                        continue
                    reduced = ci[j] - ui - v[j]
                    if reduced < 0.0:
                        reduced = 0.0  # guard against float jitter in potentials
                    nd = best + reduced
                    if nd < dist_c[j]:
                        dist_c[j] = nd
                        pred_c[j] = node
            else:
                done_c[node] = True
                vj = v[node]
                for i in range(m):
                    if done_r[i] or flow[i][node] == 0:
                        continue
                    reduced = u[i] + vj - c[i][node]
                    if reduced < 0.0:
                        reduced = 0.0
                    nd = best + reduced
                    if nd < dist_r[i]:
                        dist_r[i] = nd
                        pred_r[i] = node

        target = -1
        target_dist = inf
        for j in range(n):
            if demand[j] > 0 and dist_c[j] < target_dist:
                target_dist = dist_c[j]
                target = j
        if target < 0:
            raise AssertionError("transport network became disconnected")

        # Walk the predecessor chain to find the bottleneck.
        bottleneck = demand[target]
        j = target
        while True:
            i = pred_c[j]
            if pred_r[i] < 0:
                if supply[i] < bottleneck:
                    bottleneck = supply[i]
                break
            j_prev = pred_r[i]
            if flow[i][j_prev] < bottleneck:
                bottleneck = flow[i][j_prev]
            j = j_prev

        # Apply the augmentation along the same chain.
        j = target
        while True:
            i = pred_c[j]
            flow[i][j] += bottleneck
            if pred_r[i] < 0:
                supply[i] -= bottleneck
                break
            j_prev = pred_r[i]
            flow[i][j_prev] -= bottleneck
            j = j_prev
        demand[target] -= bottleneck
        remaining -= bottleneck

        for i in range(m):
            if dist_r[i] < inf:
                u[i] -= min(dist_r[i], target_dist)
        for j in range(n):
            if dist_c[j] < inf:
                v[j] += min(dist_c[j], target_dist)

    scale = float(unit)
    mass = np.array(flow, dtype=np.float64) / scale
    total = math.fsum(
        (flow[i][j] / scale) * c[i][j]
        for i in range(m) for j in range(n) if flow[i][j]
    )
    return TransportPlan(rows=m, cols=n, mass=mass, cost=total)
