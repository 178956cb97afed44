"""Finite undirected graphs with typed vertices and shortest-path metric.

Vertices are (element, level, coset) triples: level 0 with coset 0 for
Cayley-graph vertices, level >= 1 with a positive coset index for horoball
vertices.  Edges are one array of vertex index pairs, and every reader takes
it or its CSR.  Every word or graph distance in the package, the normal-form
oracles aside, comes from one breadth-first search, ``bfs``, over the CSR
arrays of ``csr``: single pairs, multi-source rows (penumbra, interior
windows, the omega-excisive check), the all-pairs matrix, and, on a
``groups.WordBall``'s Cayley graph, the coset bases' matrices and the
covers' Cayley columns.

The search is bit-parallel (multi-source BFS; Then et al., "The More the
Merrier: Efficient Multi-Source Graph Traversal", PVLDB 2014).  Each vertex
holds a packed bitset with one bit per search column, the columns that have
reached it.  A round ORs every vertex's neighbours' bitsets with one
``np.bitwise_or.reduceat`` over the CSR adjacency, so after round r a
vertex's bitset holds the columns within distance r of it; the new bits
get the round number, and the search stops at the first round with none,
or at a round cap.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BudgetExceededError, DecompositionError, UnknownVertexError

ALL_PAIRS_LIMIT = 20_000  # beyond this, refuse to materialize a matrix
SOURCE_BLOCK = 512  # search columns per bit-parallel BFS of a block of distance rows


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
    """Immutable undirected graph with its shortest-path metric.  The
    constructor takes ``edges`` as index pairs into ``vertices`` as given,
    counting repeated and reversed pairs once.  The graph holds the vertices
    sorted by ``vertex_key``, each edge once as a row (a, b), a < b, of the
    (m, 2) intp array ``edges`` in lexicographic order, and ``csr`` of it."""

    def __init__(self, vertices: Iterable[Vertex], edges, meta=None):
        vs = [v if type(v) is Vertex else Vertex(*v) for v in vertices]
        n = len(vs)
        order = sorted(range(n), key=lambda i: vertex_key(vs[i]))
        self.vertices: tuple[Vertex, ...] = tuple(vs[i] for i in order)
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) < n:
            raise ValueError("graph vertex rows repeat")
        pairs = np.asarray(edges, np.intp).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            raise UnknownVertexError(f"edge {pairs[bad][0].tolist()} names no vertex of {n}")
        a, b = np.argsort(order)[pairs.T]  # the pairs' ranks in sorted order
        if (a == b).any():
            raise ValueError(f"self-loop at {self.vertices[a[a == b][0]]}")
        codes = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        codes = codes[np.diff(codes, prepend=-1) != 0]  # ``np.unique`` imports ``numpy.ma``
        self.edges: np.ndarray = np.stack([codes // n, codes % n], axis=1)
        self.meta = dict(meta) if meta else {}
        self.csr = csr(n, *self.edges.T)

    def __len__(self):
        return len(self.vertices)

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
        distance_rows(self.csr, np.arange(n), out)
        return out

    def multi_source_distances(self, sources: Iterable[Vertex]) -> list[int]:
        """Distance of every vertex to the nearest source (-1 if unreachable)."""
        rank = np.full(len(self.vertices), -1)
        for v in sources:
            rank[self._require(Vertex(*v))] = 0
        out = np.empty((1, len(self.vertices)), dtype=np.int32)
        distance_rows(self.csr, rank, out)
        return out[0].tolist()

    # -- interchange -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": "horokit-graph",
            "version": 1,
            "vertices": [[v.element, v.level, v.coset] for v in self.vertices],
            "edges": self.edges.tolist(),
            "meta": {k: v for k, v in self.meta.items() if _jsonable(v)},
        }

    @staticmethod
    def from_json(data: dict) -> "MetricGraph":
        """The graph of ``to_json``: distinct vertex rows [element, level,
        coset], the element an int or a string, edges as row index pairs, and
        an optional ``meta`` object."""
        for field, kind, name in (("vertices", list, "list"), ("edges", list, "list"),
                                  ("meta", dict, "object")):
            if not isinstance(data.get(field, {}), kind):
                raise ValueError(f"graph field {field!r} is not a JSON {name}")
        rows, edges = data["vertices"], data["edges"]
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and type(row[0]) in (int, str)
                    and type(row[1]) is type(row[2]) is int):
                raise ValueError(f"graph vertex {row!r} is not [element, level, coset]")
        for pair in edges:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(i) is int and 0 <= i < len(rows) for i in pair)):
                raise UnknownVertexError(f"graph edge {pair!r} names no vertex of {len(rows)}")
        return MetricGraph(rows, edges, meta=data.get("meta"))

    def to_dot(self) -> str:
        def name(v):
            return f'"{v.element}|{v.level}|{v.coset}"'

        lines = ["graph horokit {"]
        for v in self.vertices:
            lines.append(f"  {name(v)};")
        for a, b in self.edges.tolist():
            lines.append(f"  {name(self.vertices[a])} -- {name(self.vertices[b])};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _jsonable(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


def csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The undirected graph on vertices 0..n-1 with edges u[k] -- v[k], each
    given once, as CSR: the neighbour list, the vertices of degree >= 1 and
    their segment starts in it.  Given rows u < v in lexicographic order (a
    ``MetricGraph``'s edges), each segment is increasing."""
    ends = np.concatenate([v, u])
    order = np.argsort(ends, kind="stable")
    nbrs = np.concatenate([u, v])[order]
    degree = np.bincount(ends, minlength=n)
    live = np.flatnonzero(degree)
    return nbrs, live, (np.cumsum(degree) - degree)[live]


def bfs(adjacency, rank: np.ndarray, s: int, e: int, rounds: int,
        out: np.ndarray | None) -> np.ndarray:
    """Bit-parallel BFS of the k = e - s search columns s..e-1 at once, for
    at most ``rounds`` rounds, over the ``csr`` arrays ``adjacency``; the
    vertices of ``rank`` j seed column j - s (rank -1: none).  Returns
    ``seen`` (vertices x words, little-endian uint64), whose row has bit j
    set iff the vertex lies within ``rounds`` of column j's seeds.  Row j of
    ``out`` (k x vertices, int32), if given, gets every vertex's distance to
    column j's seeds, -1 where they are out of reach.  A distance is kept in
    bit planes while the search runs (plane b holds bit b of the rounds
    found so far) and is unpacked once at the end; with no ``out`` there are
    no planes."""
    at = np.flatnonzero((rank >= s) & (rank < e))
    j = (rank[at] - s).astype(np.uint64)
    seen = np.zeros((len(rank), (e - s + 63) // 64), dtype="<u8")
    seen[at, j >> 6] = np.uint64(1) << (j & 63)
    nbrs, live, starts = adjacency
    planes = []
    r = 0
    while r < rounds and len(live):
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
        if out is not None and r >> len(planes):
            planes.append(np.zeros_like(seen))
        for b, plane in enumerate(planes):
            if r >> b & 1:
                plane[at] |= new
    if out is not None:
        dist = np.zeros((len(seen), len(out)), dtype=np.int32)
        for plane in reversed(planes):
            dist <<= 1
            dist |= unpack(plane, len(out))
        dist -= unpack(~seen, len(out))
        out[...] = dist.T
    return seen


def unpack(bits: np.ndarray, k: int) -> np.ndarray:
    """Bitset rows (vertices x words, as in ``bfs``) as a vertices x k
    matrix with one uint8 per bit, column j for bit j."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little")


def distance_rows(adjacency, rank: np.ndarray, out: np.ndarray) -> None:
    """Row j of ``out`` gets every vertex's distance to the vertices of rank
    j (-1 where they are out of reach), ``SOURCE_BLOCK`` rows per search."""
    for s in range(0, len(out), SOURCE_BLOCK):
        e = min(s + SOURCE_BLOCK, len(out))
        bfs(adjacency, rank, s, e, len(rank), out[s:e])


def pen(graph: MetricGraph, region: Iterable[Vertex], radius: int) -> set[Vertex]:
    """Closed radius-neighborhood of a vertex set; pen(A, 0) == A."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
