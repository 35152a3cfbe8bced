"""Combinatorial rounding of reconstructed primal factors.

Cut rounding takes signs of the factor columns and keeps the heaviest cut;
assignment rounding reshapes each column into a square block, projects it
onto permutations by maximum linear alignment, and keeps the permutation
with the best objective.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import GraphInstance, QapInstance

__all__ = ["CutResult", "PermResult", "maxcut_round", "hungarian", "qap_round"]


@dataclass
class CutResult:
    assignment: np.ndarray  # entries in {-1, +1}
    value: float


@dataclass
class PermResult:
    perm: np.ndarray
    objective: float
    relative_gap: Optional[float] = None


def maxcut_round(u: np.ndarray, g: GraphInstance) -> CutResult:
    """Evaluate the sign cut of every factor column and keep the largest.

    Sign cuts are counted over the edge list: a column's cut is the weight
    of the edges whose ends take different signs, summed one column at a
    time.  Zero entries sign to +1 to keep runs deterministic, and the first
    column with the largest cut is kept.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.ndim != 2 or u.shape[0] != g.n or u.shape[1] == 0:
        raise ValueError("factor must be a nonempty n x r matrix")
    side = u >= 0.0
    cuts = [g.edges_w @ (side[g.edges_u, j] != side[g.edges_v, j]) for j in range(u.shape[1])]
    best = int(np.argmax(cuts))
    return CutResult(assignment=np.where(side[:, best], 1, -1), value=float(cuts[best]))


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum_i cost[i, p[i]]; deterministic under ties."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    # only assignment rounding needs scipy.optimize; importing it at module
    # level costs every MaxCut process about 17 MB and 0.4 s of start-up
    from scipy.optimize import linear_sum_assignment

    # the row indices of a square assignment are arange(n)
    return linear_sum_assignment(cost)[1]


def assignment_objective(q: QapInstance, perm: np.ndarray) -> float:
    d_p = q.distances[np.ix_(perm, perm)]
    return float(np.sum(q.weights * d_p))


def qap_round(u: np.ndarray, q: QapInstance, known_optimum: Optional[float] = None) -> PermResult:
    """Round each factor column to a permutation and keep the best objective.

    Columns drop the leading affine entry, reshape column-major into a
    square block, and are projected onto permutations by maximizing the
    linear alignment (assignment on the negated block).
    """
    n = q.size
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != n * n + 1:
        raise ValueError(f"factor must have {n * n + 1} rows")
    best: PermResult | None = None
    for j in range(u.shape[1]):
        block = u[1:, j].reshape(n, n, order="F")
        perm = hungarian(-block)
        obj = assignment_objective(q, perm)
        if best is None or obj < best.objective:
            best = PermResult(perm=perm, objective=obj)
    if known_optimum is not None and known_optimum != 0:
        best.relative_gap = (best.objective - known_optimum) / known_optimum
    return best

