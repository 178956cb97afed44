"""Four-point hyperbolicity constants of finite metric graphs.

The exhaustive mode returns the exact four-point constant: the smallest
delta such that d(x,y)+d(z,w) <= max(d(x,z)+d(y,w), d(x,w)+d(y,z)) + 2*delta
over all vertex quadruples.

It starts from one basepoint: the (max,min) product of the Gromov-product
matrices at the most eccentric vertex gives the largest defect among the
quadruples through it, a lower bound.  When that is zero, the standard
basepoint-change bound (a factor of two) certifies delta = 0, which keeps
large trees cheap.

Otherwise it scans pairs, following Cohen, Coudert and Lancin, "On
computing the Gromov hyperbolicity" (ACM JEA 2015):

- Only far-apart pairs take part.  (x, y) is far-apart when no neighbour of
  x is farther from y than x is, and no neighbour of y farther from x.  If
  the pair of the largest sum of a quadruple is not far-apart, moving one
  point to such a neighbour raises that sum by one and the other two by at
  most one, so the defect does not fall; hence some quadruple realising the
  constant has both pairs of its largest sum far-apart (Soto 2011; Borassi,
  Coudert, Crescenzi and Marino, "On computing the hyperbolicity of
  real-world graphs", ESA 2015).
- The pairs are taken by decreasing distance, each against all pairs
  before it in one vector operation.
- The doubled defect of a quadruple is at most min(d(x,y), d(z,w)) for the
  pair of its largest sum (by the triangle inequality, the other two sums
  add up to at least 2*max(d(x,y), d(z,w))).  So the scan stops at the first
  pair whose distance is at most the best doubled defect found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, DisconnectedGraphError
from .graphs import MetricGraph

EXHAUSTIVE_CELL_LIMIT = 40_000_000_000  # pair comparisons of the exhaustive scan


@dataclass(frozen=True)
class DeltaEstimate:
    delta: float
    mode: str  # "exhaustive" | "sampled"
    quadruples_checked: int
    method: str = "scan"
    samples: int | None = None
    seed: int | None = None
    truncation: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "delta": self.delta,
            "mode": self.mode,
            "quadruples_checked": self.quadruples_checked,
            "method": self.method,
            "truncation": self.truncation,
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


def _doubled_products(dist: np.ndarray, p: int) -> np.ndarray:
    # 2*(x|y)_p as integers
    col = dist[p].astype(np.int64)
    return col[:, None] + col[None, :] - dist.astype(np.int64)


def _basepoint_doubled_delta(dist: np.ndarray, p: int) -> int:
    """Max over x,y,z of min((x|z)_p,(z|y)_p) - (x|y)_p, doubled.

    Equals the largest doubled four-point defect among quadruples containing
    the basepoint p.
    """
    a = _doubled_products(dist, p)
    n = a.shape[0]
    best = np.full((n, n), np.iinfo(np.int64).min, dtype=np.int64)
    for z in range(n):
        np.maximum(best, np.minimum(a[:, z][:, None], a[z, :][None, :]), out=best)
    return int((best - a).max())


def _distance_matrix(graph: MetricGraph) -> np.ndarray:
    dist = graph.distance_matrix()
    if (dist < 0).any():
        raise DisconnectedGraphError("four-point scan needs a connected graph")
    return dist


def _far_apart_pairs(graph: MetricGraph, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Far-apart pairs x < y, by decreasing distance (stable in row order)."""
    # farthest[x, y]: the largest d(x', y) over the neighbours x' of x
    farthest = np.empty_like(dist)
    for x, nbrs in enumerate(graph.adjacency):
        farthest[x] = dist[list(nbrs)].max(axis=0)
    keep = (farthest <= dist) & (farthest.T <= dist)
    xs, ys = np.nonzero(np.triu(keep, 1))
    order = np.argsort(-dist[xs, ys], kind="stable")
    return xs[order], ys[order]


def _pair_scan_doubled_delta(dist: np.ndarray, xs: np.ndarray, ys: np.ndarray, best: int) -> int:
    """Largest doubled defect over quadruples made of two of the given pairs,
    at least ``best``; pairs come by decreasing distance."""
    dxy = dist[xs, ys]
    for i in range(1, len(xs)):
        if dxy[i] <= best:
            break
        rx, ry = dist[xs[i]], dist[ys[i]]
        zs, ws = xs[:i], ys[:i]
        other = np.maximum(rx[zs] + ry[ws], rx[ws] + ry[zs])
        best = max(best, int((dxy[:i] - other).max()) + int(dxy[i]))
    return best


def four_point_delta(
    graph: MetricGraph,
    mode: str = "exhaustive",
    samples: int = 100_000,
    seed: int = 0,
    truncation: dict | None = None,
) -> DeltaEstimate:
    """Four-point constant, exact (exhaustive) or a sampled lower bound."""
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = len(graph)
    trunc = dict(truncation or {})
    trunc.setdefault("vertices", n)
    total = math.comb(n, 4)
    if n < 4:
        return DeltaEstimate(0.0, mode, 0, method="degenerate", truncation=trunc)
    if mode == "exhaustive":
        dist = _distance_matrix(graph)
        ecc = dist.max(axis=1)
        p0 = int(ecc.argmax())
        d0 = _basepoint_doubled_delta(dist, p0)
        if d0 == 0:
            # basepoint-change: delta <= 2 * (basepoint constant) = 0
            return DeltaEstimate(
                0.0, "exhaustive", total, method="basepoint-certificate", truncation=trunc
            )
        xs, ys = _far_apart_pairs(graph, dist)
        f = len(xs)
        if f * (f - 1) // 2 > EXHAUSTIVE_CELL_LIMIT:
            raise BudgetExceededError(
                f"hyperbolicity: exhaustive scan of {n} vertices needs "
                f"{f * (f - 1) // 2} pair comparisons ({f} far-apart pairs), "
                f"over the budget of {EXHAUSTIVE_CELL_LIMIT}; use sampled mode"
            )
        best = _pair_scan_doubled_delta(dist, xs, ys, d0)
        return DeltaEstimate(best / 2, "exhaustive", total, method="scan", truncation=trunc)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    dist = _distance_matrix(graph).astype(np.int64)
    rng = np.random.default_rng(seed)
    best = 0
    remaining = samples
    batch = 65_536
    while remaining > 0:
        m = min(batch, remaining)
        remaining -= m
        quad = rng.integers(0, n, size=(m, 4))
        x, y, z, w = quad.T
        s1 = dist[x, y] + dist[z, w]
        s2 = dist[x, z] + dist[y, w]
        s3 = dist[x, w] + dist[y, z]
        gap = s1 - np.maximum(s2, s3)
        np.maximum(gap, s2 - np.maximum(s1, s3), out=gap)
        np.maximum(gap, s3 - np.maximum(s1, s2), out=gap)
        best = max(best, int(gap.max()))
    return DeltaEstimate(
        best / 2,
        "sampled",
        samples,
        method="uniform-quadruples",
        samples=samples,
        seed=seed,
        truncation=trunc,
    )
