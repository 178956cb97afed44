"""Finite undirected graphs with typed vertices and shortest-path metric.

Vertices are (element, level, coset) triples: level 0 with coset 0 for
Cayley-graph vertices, level >= 1 with a positive coset index for horoball
vertices.  Every distance comes from one breadth-first search,
``multi_source_distances``: single rows, the all-pairs matrix, penumbra and
the omega-excisive check.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, DecompositionError, UnknownVertexError

ALL_PAIRS_LIMIT = 20_000  # beyond this, refuse to materialize a matrix


class Vertex(NamedTuple):
    element: object  # group element (str) or base-space label (int)
    level: int
    coset: int


def _label_key(element):
    if isinstance(element, bool) or not isinstance(element, (int, str)):
        return (2, repr(element))
    if isinstance(element, int):
        return (0, element, "")
    return (1, len(element), element)


def vertex_key(v: Vertex):
    return (v.coset, v.level, _label_key(v.element))


class MetricGraph:
    """Immutable undirected graph with its shortest-path metric."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple], meta=None):
        # endpoints already given as Vertex (every caller in the package) are
        # not wrapped again
        vs = sorted({v if type(v) is Vertex else Vertex(*v) for v in vertices}, key=vertex_key)
        self.vertices: tuple[Vertex, ...] = tuple(vs)
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(vs)}
        index = self.index
        adj: list[set[int]] = [set() for _ in vs]
        edge_set = set()
        for u, v in edges:
            if type(u) is not Vertex:
                u = Vertex(*u)
            if type(v) is not Vertex:
                v = Vertex(*v)
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                raise UnknownVertexError(f"edge endpoint not a vertex: {u} -- {v}")
            if iu == iv:
                raise ValueError(f"self-loop at {u}")
            adj[iu].add(iv)
            adj[iv].add(iu)
            edge_set.add((min(iu, iv), max(iu, iv)))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self.edges: frozenset[tuple[int, int]] = frozenset(edge_set)
        self.meta = dict(meta) if meta else {}

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self.index

    def _require(self, v: Vertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertexError(f"{v} is not a vertex") from None

    def distance(self, u: Vertex, v: Vertex):
        """Shortest-path length, math.inf when disconnected."""
        d = self.multi_source_distances([u])[self._require(Vertex(*v))]
        return math.inf if d < 0 else d

    def distance_matrix(self) -> np.ndarray:
        """Dense all-pairs matrix (-1 for unreachable); refuses large graphs."""
        n = len(self.vertices)
        if n > ALL_PAIRS_LIMIT:
            raise BudgetExceededError(
                f"graphs: all-pairs distance matrix of {n} vertices is over "
                f"the cap of {ALL_PAIRS_LIMIT} vertices"
            )
        out = np.empty((n, n), dtype=np.int32)
        for i, v in enumerate(self.vertices):
            out[i] = self.multi_source_distances([v])
        return out

    def multi_source_distances(self, sources: Iterable[Vertex]) -> list[int]:
        """Distance of every vertex to the nearest source (-1 if unreachable)."""
        row = [-1] * len(self.vertices)
        q = deque()
        for v in sources:
            i = self._require(Vertex(*v))
            if row[i] < 0:
                row[i] = 0
                q.append(i)
        while q:
            u = q.popleft()
            du = row[u]
            for w in self.adjacency[u]:
                if row[w] < 0:
                    row[w] = du + 1
                    q.append(w)
        return row

    # -- interchange -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": "horokit-graph",
            "version": 1,
            "vertices": [[v.element, v.level, v.coset] for v in self.vertices],
            "edges": sorted([a, b] for a, b in self.edges),
            "meta": {k: v for k, v in self.meta.items() if _jsonable(v)},
        }

    @staticmethod
    def from_json(data: dict) -> "MetricGraph":
        vs = [Vertex(e, lv, c) for e, lv, c in data["vertices"]]
        edges = [(vs[a], vs[b]) for a, b in data["edges"]]
        return MetricGraph(vs, edges, meta=data.get("meta"))

    def to_dot(self) -> str:
        def name(v):
            return f'"{v.element}|{v.level}|{v.coset}"'

        lines = ["graph horokit {"]
        for v in self.vertices:
            lines.append(f"  {name(v)};")
        for a, b in sorted(self.edges):
            lines.append(f"  {name(self.vertices[a])} -- {name(self.vertices[b])};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _jsonable(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def pen(graph: MetricGraph, region: Iterable[Vertex], radius: int) -> set[Vertex]:
    """Closed radius-neighborhood of a vertex set; pen(A, 0) == A."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    region = [Vertex(*v) for v in region]
    row = graph.multi_source_distances(region)
    return {graph.vertices[i] for i, d in enumerate(row) if 0 <= d <= radius}


def omega_excisive_check(
    graph: MetricGraph,
    part_a: Iterable[Vertex],
    part_b: Iterable[Vertex],
    radii: Iterable[int],
) -> list[tuple[int, int | None]]:
    """For each R, the least S with pen(A,R) & pen(B,R) inside pen(A&B, S).

    Returns (R, S) pairs, S = None when no finite S works (some point of the
    intersection cannot reach A & B).  Raises DecompositionError unless
    A union B covers the graph.
    """
    a = {Vertex(*v) for v in part_a}
    b = {Vertex(*v) for v in part_b}
    if a | b != set(graph.vertices):
        raise DecompositionError("parts do not cover the vertex set")
    core = a & b
    core_row = graph.multi_source_distances(core) if core else None
    out = []
    for radius in radii:
        overlap = pen(graph, a, radius) & pen(graph, b, radius)
        if not overlap:
            out.append((radius, 0))
            continue
        if core_row is None:
            out.append((radius, None))
            continue
        dists = [core_row[graph.index[v]] for v in overlap]
        out.append((radius, None) if min(dists) < 0 else (radius, max(dists)))
    return out
