"""Four-point hyperbolicity constants of finite metric graphs.

The exhaustive mode returns the exact four-point constant: the smallest
delta such that d(x,y)+d(z,w) <= max(d(x,z)+d(y,w), d(x,w)+d(y,z)) + 2*delta
over all vertex quadruples.

Every block (biconnected component) is an isometric subgraph, and the
constant of a connected graph is the largest constant of its blocks (Cohen,
Coudert and Lancin, "On computing the Gromov hyperbolicity", ACM JEA 2015).
So one depth-first search over the neighbour lists of the graph's CSR finds
the blocks (Hopcroft and Tarjan, CACM 1973) and refuses disconnected graphs.
Cliques are 0-hyperbolic and are skipped, so a block graph, trees included,
has nothing to scan and is certified delta = 0 with no distance matrix;
these are exactly the 0-hyperbolic graphs (Howorka, JCTB 1979; Bandelt and
Mulder, "Distance-hereditary graphs", JCTB 1986).  Every other block gets
its own subgraph, the edge rows inside it, and its own distance matrix, and
is scanned by pairs:

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

The sampled mode draws uniform quadruples (with repeats) from one seeded
generator, in blocks of ``SAMPLE_BLOCK``, and reads the int32 distance
matrix of the whole graph through flat codes x*n + y; the draws do not
depend on the block size, so a seed gives the same bound at any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DisconnectedGraphError
from .graphs import MetricGraph

EXHAUSTIVE_CELL_LIMIT = 40_000_000_000  # pair comparisons of the exhaustive scan
# sampled quadruples: the scan reads 27 M/s at n = 212 and 7.5 M/s at
# n = 12,101 (2-CPU machine), so the limit costs about 40 s to 130 s
SAMPLE_LIMIT = 1_000_000_000
SAMPLE_BLOCK = 8_192  # quadruples drawn and scanned at once


@dataclass(frozen=True)
class DeltaEstimate:
    delta: float
    mode: str  # "exhaustive" | "sampled"
    quadruples_checked: int
    method: str  # "scan" | "block-graph-certificate" | "degenerate" | "uniform-quadruples"
    truncation: dict
    samples: int | None = None
    seed: int | None = None

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


def _blocks(graph: MetricGraph) -> list[list[int]]:
    """The vertex lists of the blocks that are not cliques, by one iterative
    DFS from vertex 0; DisconnectedGraphError when it misses a vertex.  An
    edge is counted at its later-found end, in the block of that end's tree
    edge."""
    n = len(graph)
    ends = np.cumsum(np.bincount(graph.edges.ravel(), minlength=n)).tolist()
    flat = graph.csr[0].tolist()
    adjacency = [flat[a:b] for a, b in zip([0] + ends, ends)]  # CSR segments as lists
    disc, low, at = [-1] * n, [0] * n, [0] * n
    disc[0], found, blocks = 0, 1, []
    members, counts = [], []  # vertices of open blocks, edges to earlier-found neighbours
    stack = [(0, iter(adjacency[0]))]
    while stack:
        u, nbrs = stack[-1]
        for v in nbrs:
            if disc[v] < 0:
                disc[v] = low[v] = found
                found += 1
                at[v] = len(counts)
                members.append(v)
                counts.append(sum(disc[w] >= 0 for w in adjacency[v]))
                stack.append((v, iter(adjacency[v])))
                break
            low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:  # p closes a block: p and the vertices from u on
                    k = len(counts) - at[u] + 1
                    if sum(counts[at[u]:]) < k * (k - 1) // 2:
                        blocks.append([p] + members[at[u]:])
                    del members[at[u]:], counts[at[u]:]
    if found < n:
        raise DisconnectedGraphError("four-point scan needs a connected graph")
    return blocks


def _far_apart_pairs(graph: MetricGraph, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Far-apart pairs x < y, by decreasing distance (stable in row order)."""
    # farthest[x, y]: the largest d(x', y) over the neighbours x' of x, whose
    # CSR segment is the x-th, as the graph is connected
    farthest = np.empty_like(dist)
    for x, nbrs in enumerate(np.split(graph.csr[0], graph.csr[2][1:])):
        farthest[x] = dist[nbrs].max(axis=0)
    keep = (farthest <= dist) & (farthest.T <= dist)
    xs, ys = np.nonzero(np.triu(keep, 1))
    order = np.argsort(-dist[xs, ys], kind="stable")
    return xs[order], ys[order]


def _pair_scan_doubled_delta(dist: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int:
    """Largest doubled defect over quadruples made of two of the given pairs;
    pairs come by decreasing distance."""
    dxy = dist[xs, ys]
    best = 0
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
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if samples > SAMPLE_LIMIT:
            raise BudgetExceededError(
                f"hyperbolicity: sampled scan asks for {samples} quadruples, "
                f"over the budget of {SAMPLE_LIMIT}"
            )
    n = len(graph)
    trunc = dict(truncation or {})
    trunc.setdefault("vertices", n)
    total = math.comb(n, 4)
    if n < 4:
        return DeltaEstimate(0.0, mode, 0, method="degenerate", truncation=trunc)
    blocks = _blocks(graph)
    if mode == "exhaustive":
        best = 0
        for block in blocks:
            sub, block = graph, np.sort(block)
            if len(block) < n:  # the edge rows inside the block, relabelled
                rows = graph.edges[np.isin(graph.edges, block).all(axis=1)]
                sub = MetricGraph([graph.vertices[i] for i in block.tolist()],
                                  np.searchsorted(block, rows))
            dist = sub.distance_matrix()
            xs, ys = _far_apart_pairs(sub, dist)
            f = len(xs)
            if f * (f - 1) // 2 > EXHAUSTIVE_CELL_LIMIT:
                raise BudgetExceededError(
                    f"hyperbolicity: exhaustive scan of a block of {len(block)} "
                    f"vertices needs {f * (f - 1) // 2} pair comparisons ({f} "
                    f"far-apart pairs), over the budget of {EXHAUSTIVE_CELL_LIMIT}; "
                    f"use sampled mode"
                )
            best = max(best, _pair_scan_doubled_delta(dist, xs, ys))
        method = "scan" if blocks else "block-graph-certificate"
        return DeltaEstimate(best / 2, "exhaustive", total, method=method, truncation=trunc)
    # the int32 matrix as it is, read through flat codes x*n + y; every sum
    # below is at most 6*(n-1), under 2**31 at the all-pairs cap
    flat = graph.distance_matrix().reshape(-1)
    rng = np.random.default_rng(seed)
    best = 0
    for start in range(0, samples, SAMPLE_BLOCK):
        quad = rng.integers(0, n, size=(min(SAMPLE_BLOCK, samples - start), 4))
        x, y, z, w = quad.T
        xn, yn = x * n, y * n
        s1 = flat.take(xn + y) + flat.take(z * n + w)
        s2 = flat.take(xn + z) + flat.take(yn + w)
        s3 = flat.take(xn + w) + flat.take(yn + z)
        # the largest sum minus the middle one
        top = np.maximum(np.maximum(s1, s2), s3)
        gap = 2 * top + np.minimum(np.minimum(s1, s2), s3) - (s1 + s2 + s3)
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
