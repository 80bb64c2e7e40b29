"""Workload definitions and the seeded request stream of each workload.

One request is one trial of the program: ``run_suite`` on a one-trial
``SuiteConfig`` followed by ``Report.to_json()``, the path ``lp2dual verify``
takes.  A workload is a fixed set of (suite, p, grid) cells.  Its request
stream is a sequence of rounds; every round visits each cell once, in an
order shuffled from the workload seed, so any prefix of the stream keeps the
mix of the workload.  Request ``i`` gets a master seed derived from the
workload name, the workload seed and ``i``; nothing else reaches the program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    suite: str
    p: float
    grid: int

    @property
    def key(self) -> str:
        return f"{self.suite}|p={self.p:g}|n={self.grid}"


@dataclass(frozen=True)
class Request:
    index: int
    cell: Cell
    master_seed: int


def _cells(suites, p_list, grid):
    return tuple(Cell(s, float(p), grid) for s in suites for p in p_list)


#: Cells of each workload, each visited once per round.
#: ``ratio`` is criterion 7's ratio search, ``pairs`` the short two-norm and
#: g-geometry suites, ``fine`` the 1024-node suites whose iterations are BLAS
#: matvecs rather than interpreter work.
#:
#: Some cells fail a share of their seeded trials on the program as it
#: stands, and those requests count as failed (``fail_frac``, ``pass_frac``):
#:
#: * the ``gahler_norm`` suites (axioms, sandwich_2_2, geometry_volume) at
#:   p = 3: an ascent can exhaust its 200 iterations without converging
#:   (about 1 in 1400 axioms trials);
#: * ``quadrature_convergence`` at p = 1, 1.5 and 3: its level-by-level error
#:   checks fail on some inputs (24 of 1000 trials at p = 1.5, 1 of 1000 at
#:   p = 1, 1 of 300 at p = 3);
#: * ``functional_bounds_2_3_2_6`` at p = 1.5: the ``fnorm_22_H`` ratio search
#:   can end unconverged (about 1 in 520 trials).
WORKLOADS = {
    "ratio": _cells(("functional_bounds_2_3_2_6",), (1.5, 2.0, 3.0), 64),
    "pairs": _cells(("axioms", "sandwich_2_2", "geometry_volume", "g_properties"),
                    (1.0, 1.5, 2.0, 3.0), 256),
    "fine": _cells(("isometry_2_1",), (1.5, 2.0, 3.0), 1024)
    + _cells(("quadrature_convergence",), (1.0, 1.5, 2.0, 3.0), 1024),
}


def rule_sizes(workload: str) -> list[int]:
    """Node counts of the quadrature rules a workload's trials build."""
    from lp2dual import verify

    sizes = {cell.grid for cell in WORKLOADS[workload]}
    if any(cell.suite == "quadrature_convergence" for cell in WORKLOADS[workload]):
        sizes.update(verify._LADDER, (verify._REFERENCE_GRID,))
    return sorted(sizes)


def _derive(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class RequestStream:
    """Deterministic, unbounded request sequence of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.cells = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self._orders: dict[int, list[Cell]] = {}

    def _round(self, r: int) -> list[Cell]:
        order = self._orders.get(r)
        if order is None:
            order = list(self.cells)
            random.Random(_derive(self.workload, self.seed, "round", r)).shuffle(order)
            self._orders[r] = order
        return order

    def __getitem__(self, index: int) -> Request:
        r, j = divmod(index, len(self.cells))
        cell = self._round(r)[j]
        return Request(index, cell, _derive(self.workload, self.seed, "measure", index))

    def warmup(self) -> list[Request]:
        """One request per suite, from seeds disjoint from the measured stream."""
        first = {}
        for cell in self.cells:
            first.setdefault(cell.suite, cell)
        return [Request(-1, cell, _derive(self.workload, self.seed, "warmup", cell.key))
                for cell in first.values()]
