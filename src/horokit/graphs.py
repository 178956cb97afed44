"""Finite undirected graphs with typed vertices and shortest-path metric.

Vertices are (element, level, coset) triples: level 0 with coset 0 for
Cayley-graph vertices, level >= 1 with a positive coset index for horoball
vertices.  Every distance comes from one breadth-first search,
``MetricGraph._bfs``: single pairs, multi-source rows (penumbra, interior
windows, the omega-excisive check) and the all-pairs matrix.

The search is bit-parallel (multi-source BFS; Then et al., "The More the
Merrier: Efficient Multi-Source Graph Traversal", PVLDB 2014).  Each vertex
holds a packed bitset with one bit per search column, the columns that have
reached it.  A round ORs every vertex's neighbours' bitsets with one
``np.bitwise_or.reduceat`` over the CSR adjacency, so after round r a
vertex's bitset holds the columns within distance r of it; the new bits
get the round number, and the search stops at the first round with none.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, DecompositionError, UnknownVertexError

ALL_PAIRS_LIMIT = 20_000  # beyond this, refuse to materialize a matrix
SOURCE_BLOCK = 512  # search columns per bit-parallel BFS of the all-pairs matrix


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
        self._csr_arrays = None

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
        for s in range(0, n, SOURCE_BLOCK):
            e = min(s + SOURCE_BLOCK, n)
            j = np.arange(e - s, dtype=np.uint64)
            seen = np.zeros((n, (e - s + 63) // 64), dtype="<u8")
            seen[s + j, j >> 6] = np.uint64(1) << (j & 63)
            self._bfs(seen, out[s:e])
        return out

    def multi_source_distances(self, sources: Iterable[Vertex]) -> list[int]:
        """Distance of every vertex to the nearest source (-1 if unreachable)."""
        seen = np.zeros((len(self.vertices), 1), dtype="<u8")
        for v in sources:
            seen[self._require(Vertex(*v))] = 1
        out = np.empty((1, len(self.vertices)), dtype=np.int32)
        self._bfs(seen, out)
        return out[0].tolist()

    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adjacency as CSR, built on the first distance query: the
        neighbour list, the vertices of degree >= 1 and their segment
        starts in it."""
        if self._csr_arrays is None:
            degree = np.fromiter(map(len, self.adjacency), dtype=np.intp, count=len(self))
            starts = np.zeros(len(self), dtype=np.intp)
            np.cumsum(degree[:-1], out=starts[1:])
            nbrs = np.fromiter(itertools.chain.from_iterable(self.adjacency), dtype=np.intp,
                               count=int(degree.sum()))
            live = np.flatnonzero(degree)
            self._csr_arrays = (nbrs, live, starts[live])
        return self._csr_arrays

    def _bfs(self, seen: np.ndarray, out: np.ndarray) -> None:
        """Bit-parallel BFS of k search columns at once.  ``seen`` (vertices
        x words, little-endian uint64) holds the seeds, bit j of a vertex's
        row for column j; row j of ``out`` (k x vertices, int32) gets every
        vertex's distance to column j's seeds, -1 where they are out of
        reach.  A distance is kept in bit planes while the search runs
        (plane b holds bit b of the rounds found so far) and is unpacked
        once at the end."""
        nbrs, live, starts = self._csr()
        planes = []
        r = 0
        while len(live):
            r += 1
            # reduceat over live vertices only: on an empty segment (a vertex
            # of degree 0) it would return the next neighbour's bits
            new = np.bitwise_or.reduceat(seen[nbrs], starts, axis=0)
            new &= ~seen[live]
            hit = np.flatnonzero(new.any(axis=1))
            if not len(hit):
                break
            new, at = new[hit], live[hit]
            seen[at] |= new
            if r >> len(planes):
                planes.append(np.zeros_like(seen))
            for b, plane in enumerate(planes):
                if r >> b & 1:
                    plane[at] |= new

        def unpack(bits):  # vertices x k, one uint8 per bit
            return np.unpackbits(bits.view(np.uint8), axis=1, count=len(out), bitorder="little")

        dist = np.zeros((len(seen), len(out)), dtype=np.int32)
        for plane in reversed(planes):
            dist <<= 1
            dist |= unpack(plane)
        dist -= unpack(~seen)
        out[...] = dist.T

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
