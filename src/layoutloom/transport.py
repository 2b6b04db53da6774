"""Exact solver for balanced optimal transport with uniform marginals.

The problem solved here is

    minimize    sum_ij  plan[i][j] * cost[i][j]
    subject to  plan >= 0,
                sum_j plan[i][j] = 1/m   for every source row i,
                sum_i plan[i][j] = 1/n   for every target column j.

The solver scales the uniform marginals by lcm(m, n), so row i supplies
lcm/m whole mass units and column j demands lcm/n. The transportation
polytope has integral vertices, so an optimal plan moves whole units, and
the problem is an assignment problem on the cost matrix with each row
repeated lcm/m times and each column lcm/n times (Peyré & Cuturi,
*Computational Optimal Transport*, 2019). scipy's ``linear_sum_assignment``
solves that square problem exactly. Costs stay in floating point
throughout; no cost quantization is applied, so the optimum matches
enumeration oracles to solver precision (well below 1e-9 on layout-sized
instances).

The expanded matrix has lcm(m, n)**2 cells, which grows as (m * n)**2 on
coprime sizes, so ``solve_exact`` takes at most ``MAX_ELEMENTS`` rows and
columns: the PubLayNet and PKU preprocessing keeps layouts of at most 25
elements, and the largest expansion within that bound, 24 x 25, has 600**2
cells (2.9 MB). Retrieval rejects larger layouts before they reach here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import EmptyLayout

MAX_ELEMENTS = 25


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
    """Exact uniform-marginal transport: one assignment on the cost matrix
    with rows and columns repeated as the module docstring describes, folded
    back into whole-unit flows. Accepts an ndarray or a list of rows, with
    at most ``MAX_ELEMENTS`` rows and columns."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise EmptyLayout("transport requires a non-empty cost matrix")
    m, n = c.shape
    if max(m, n) > MAX_ELEMENTS:
        raise ValueError(f"transport supports at most {MAX_ELEMENTS} x {MAX_ELEMENTS} "
                         f"costs, got {m} x {n}")
    unit = math.lcm(m, n)
    rep_r, rep_c = unit // m, unit // n
    rows, cols = linear_sum_assignment(np.repeat(np.repeat(c, rep_r, axis=0), rep_c, axis=1))
    flow = np.bincount(rows // rep_r * n + cols // rep_c, minlength=m * n).reshape(m, n)
    mass = flow / float(unit)
    used = flow > 0
    return TransportPlan(rows=m, cols=n, mass=mass,
                         cost=math.fsum((mass[used] * c[used]).tolist()))
