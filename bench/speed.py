"""Calibration of the CPU speed the benchmark gets from its host.

On a shared virtual machine the speed of pure-Python code drifts by up to
1.7x over seconds to minutes, because other tenants share the physical core
and its caches. The drift moves every timing of a run alike, and a run of
any length this benchmark can afford does not average it away. So the
benchmark times a fixed piece of pure-Python work, the calibration kernel,
before and after every measured pass and every block of set-ups, and
rescales the CPU seconds of each to the kernel's reference time,
``REFERENCE_S``. The kernel runs for about half a second: the host's speed
also changes within a second, and a shorter probe tracks it worse.

The kernel is shaped like the program's hot loops: shortest-path
relaxations over small dense float matrices held as lists of lists, with
small allocations. It belongs to the benchmark and never changes with the
program, so a change to the program moves the rescaled figures fully.
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.5   # kernel time at the reference speed; a fixed constant
ROUNDS = 22500      # matrices per kernel call


def kernel(rounds: int = ROUNDS) -> float:
    """The calibration work. Returns a checksum so none of it is skipped."""
    state = 12345
    total = 0.0
    for r in range(rounds):
        m, n = 3 + r % 6, 4 + r % 5
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                row.append(state / 2147483648.0)
            rows.append(row)
        dist = [math.inf] * n
        done = [False] * n
        for i in range(m):
            ci = rows[i]
            for j in range(n):
                if done[j]:
                    continue
                d = ci[j] + 0.01 * i
                if d < dist[j]:
                    dist[j] = d
            best, node = math.inf, -1
            for j in range(n):
                if not done[j] and dist[j] < best:
                    best, node = dist[j], j
            if node >= 0:
                done[node] = True
                total += best
    return total


def probe() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def at_reference(wall_s: float, cpu_s: float, probes: list[float]) -> float:
    """``wall_s`` with its CPU seconds rescaled to the reference speed.

    ``probes`` are kernel times measured next to the interval; their mean
    gives the speed. Time spent waiting (on a sleeping transport, say) does
    not depend on the CPU's speed and stays as measured.
    """
    busy = min(cpu_s, wall_s)
    return wall_s - busy + busy * scale(probes)


def scale(probes: list[float]) -> float:
    """Factor that takes CPU seconds measured next to ``probes`` to the
    reference speed."""
    return REFERENCE_S / (sum(probes) / len(probes))
