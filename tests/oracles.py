"""Conversions at the test boundary between the oracles' Python-int bitsets
(a set of points as an int, bit p for point p; a graph as one int of
neighbours per vertex) and the arrays the package takes: ``PointSets`` for a
family of sets, upper-neighbour compressed rows for a graph.  Also the dense
oracle for the lattices of ``horokit.snf``: the Hermite form normalised on an
object matrix and the membership walk that scans each column for its pivot,
with the conversions between dense matrices and sparse columns.

The graph oracles: ``reference_graph``, the per-edge loop over ``Vertex``
pairs that ``graphs.MetricGraph`` replaces with index arrays, with a
breadth-first search of its own; and ``build_vertex_space``, the augmented
space built a second way, from normal forms and the word metric alone, with
the ball, coset and representative helpers that only it reads."""

from collections import deque
from math import gcd
from typing import Sequence

import numpy as np

from horokit.complexes import PointSets
from horokit.covers import Cover
from horokit.errors import BudgetExceededError, UnknownVertexError, vertex_budget
from horokit.graphs import MetricGraph, Vertex, vertex_key
from horokit.groups import CosetTable, GroupSpec, WordBall
from horokit.snf import _bezout


def bits(mask: int) -> list[int]:
    """The set bits of a nonnegative int, increasing."""
    return [i for i, b in enumerate(reversed(bin(mask)[2:])) if b == "1"]


def as_sets(masks) -> PointSets:
    """A family of int masks as point lists."""
    points = [bits(m) for m in masks]
    indptr = np.zeros(len(points) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in points], out=indptr[1:])
    return PointSets(indptr, np.array([p for ps in points for p in ps], dtype=np.int32))


def as_masks(sets: PointSets) -> list[int]:
    """A family of point lists as int masks."""
    pts = sets.points.tolist()
    ptr = sets.indptr.tolist()
    return [sum(1 << p for p in pts[a:b]) for a, b in zip(ptr, ptr[1:])]


def upper_rows(adj) -> tuple[np.ndarray, np.ndarray]:
    """A graph given as neighbour bitsets as upper-neighbour rows."""
    ups = [[j for j in bits(a) if j > i] for i, a in enumerate(adj)]
    starts = np.zeros(len(ups) + 1, dtype=np.int64)
    np.cumsum([len(u) for u in ups], out=starts[1:])
    return starts, np.array([j for u in ups for j in u], dtype=np.int64)


def as_adjacency(rows) -> list[int]:
    """Upper-neighbour rows as symmetric neighbour bitsets."""
    starts, nbrs = rows
    adj = [0] * (len(starts) - 1)
    for i in range(len(adj)):
        for j in nbrs[starts[i] : starts[i + 1]].tolist():
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def mask_cover(masks, level: int = 0, coset: int = 0) -> Cover:
    """A cover with no space whose column i, centered at (i, level, coset),
    holds the points of mask i."""
    return Cover(None, 1, [Vertex(i, level, coset) for i in range(len(masks))], as_sets(masks))


# -- dense lattices ----------------------------------------------------------


def columns(mat) -> list[dict[int, int]]:
    """The columns of a dense integer matrix as sparse {row: value} dicts."""
    return [{i: int(x) for i, x in enumerate(col) if x} for col in np.asarray(mat).T]


def dense(lattice: dict, rows: int) -> np.ndarray:
    """A lattice's sparse Hermite form as the rows x columns object matrix
    of its basis, columns in pivot order."""
    out = np.zeros((rows, len(lattice)), dtype=object)
    for j, col in enumerate(lattice.values()):
        for r, v in col.items():
            out[r, j] = v
    return out


def dense_column_hnf(mat) -> np.ndarray:
    """Canonical column Hermite form of a dense matrix, as a dense matrix:
    the columns absorbed into a sparse echelon by Bezout steps, then written
    out and normalised on the matrix, pivots made positive and the entries
    left of each pivot reduced modulo it."""
    A = np.array(mat, dtype=object)
    basis: dict[int, dict[int, int]] = {}
    for v in columns(A):
        while v:
            p = min(v)
            b = basis.get(p)
            if b is None:
                basis[p] = v
                break
            g = gcd(b[p], v[p])
            s, t = _bezout(b[p], v[p])
            bp_g, vp_g = b[p] // g, v[p] // g
            nb, nv = {}, {}
            for i in set(b) | set(v):
                bi, vi = b.get(i, 0), v.get(i, 0)
                x, y = s * bi + t * vi, bp_g * vi - vp_g * bi
                if x:
                    nb[i] = x
                if y:
                    nv[i] = y
            basis[p], v = nb, nv
    pivots = sorted(basis)
    H = dense({p: basis[p] for p in pivots}, A.shape[0])
    for j, p in enumerate(pivots):
        if H[p, j] < 0:
            H[:, j] = -H[:, j]
    for j, p in enumerate(pivots):
        for j2 in range(j):
            q = H[p, j2] // H[p, j]
            if q:
                H[:, j2] -= q * H[:, j]
    return H


def dense_kernel_lattice(mat, rel) -> np.ndarray:
    """The preimage of the span of the columns of ``rel`` under a dense
    matrix, as the bottom parts of the HNF columns of [[mat, -rel], [I, 0]]
    with no pivot in the top rows."""
    M = np.array(mat, dtype=object)
    t, s = M.shape
    graph = np.zeros((t + s, s + rel.shape[1]), dtype=object)
    graph[:t, :s] = M
    graph[:t, s:] = -rel
    graph[t:, :s] = np.eye(s, dtype=object)
    h = dense_column_hnf(graph)
    return h[t:, [j for j in range(h.shape[1]) if not h[:t, j].any()]]


def dense_lattice_coords(hnf: np.ndarray, vec) -> list[int] | None:
    """Coordinates of ``vec`` in the columns of a dense canonical HNF, or
    None: each column's pivot is found by a scan, and the walk subtracts over
    every row from the pivot down."""
    v = [int(x) for x in vec]
    coords = []
    for j in range(hnf.shape[1]):
        col = hnf[:, j]
        p = next(i for i, x in enumerate(col) if x)
        q = v[p] // col[p]
        coords.append(q)
        if q:
            for i in range(p, len(v)):
                v[i] -= q * col[i]
    return None if any(v) else coords


# -- graphs ---------------------------------------------------------------


class ReferenceGraph:
    """A graph built edge by edge from ``Vertex`` pairs: vertices sorted by
    ``vertex_key`` with repeats dropped, edges as a set of index pairs
    (a, b) with a < b, and sorted neighbour tuples."""

    def __init__(self, vertices, edges):
        vs = sorted({Vertex(*v) for v in vertices}, key=vertex_key)
        self.vertices = tuple(vs)
        index = {v: i for i, v in enumerate(vs)}
        adj: list[set[int]] = [set() for _ in vs]
        edge_set = set()
        for u, v in edges:
            u, v = Vertex(*u), Vertex(*v)
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                raise UnknownVertexError(f"edge endpoint not a vertex: {u} -- {v}")
            if iu == iv:
                raise ValueError(f"self-loop at {u}")
            adj[iu].add(iv)
            adj[iv].add(iu)
            edge_set.add((min(iu, iv), max(iu, iv)))
        self.edges = edge_set
        self.adjacency = tuple(tuple(sorted(s)) for s in adj)

    def distances(self, sources) -> list[int]:
        """Distance of every vertex to the nearest source index, -1 where
        none reaches, by a queue."""
        row = [-1] * len(self.vertices)
        queue = deque(sources)
        for s in sources:
            row[s] = 0
        while queue:
            x = queue.popleft()
            for y in self.adjacency[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
        return row


def ball_words(spec: GroupSpec, radius: int) -> list[str]:
    """All elements with word length <= radius, in BFS discovery order, by a
    breadth-first search over normal forms."""
    order, seen = [""], {""}
    for w in order:  # the loop sees the appended elements
        if len(w) < radius:
            for c in spec.alphabet:
                x = spec.normal_form(w + c)
                if x not in seen:
                    seen.add(x)
                    order.append(x)
    return order


def coset_rep(spec: GroupSpec, word: str, atom_idx: int) -> str:
    """Shortlex-least representative of word * <atom>.

    Stripping a trailing syllable of the atom leaves the unique shortest
    element of the coset, since appending any nontrivial atom element
    extends the normal form syllable-wise.
    """
    syl = spec.syllables(spec.normal_form(word))
    if syl and syl[-1][0] == atom_idx:
        syl = syl[:-1]
    return "".join(s for _, s in syl)


def enumerate_cosets(spec: GroupSpec, peripherals: Sequence[int], radius: int) -> CosetTable:
    """Enumerate cosets g*P_r meeting the radius ball (``WordBall.coset_table``)."""
    return WordBall(spec, radius).coset_table(peripherals)


def build_vertex_space(
    spec: GroupSpec,
    peripherals: Sequence[int],
    rg: int,
    lmax: int,
) -> MetricGraph:
    """Distance-one presentation of the augmented space (second construction).

    Group-level horizontal edges are the distance-1 pairs of the word metric,
    horoball levels start at 1 over every enumerated coset.  Kept independent
    of build_augmented on purpose: for word metrics the two presentations
    produce the same graph, which the tests exploit as an oracle.
    """
    cap = vertex_budget()
    words = ball_words(spec, rg)
    table = enumerate_cosets(spec, tuple(peripherals), rg)
    vertices = [Vertex(x, 0, 0) for x in words]
    edges = []
    for i, x in enumerate(words):
        for y in words[i + 1 :]:
            if spec.word_metric(x, y) == 1:
                edges.append((Vertex(x, 0, 0), Vertex(y, 0, 0)))
    for entry in table.entries:
        base = [x for x in words if coset_rep(spec, x, entry.atom) == entry.rep]
        vertices.extend(
            Vertex(x, l, entry.index) for x in base for l in range(1, lmax + 1)
        )
        if len(vertices) > cap:
            raise BudgetExceededError(f"vertex space exceeds budget {cap}")
        for t in range(1, lmax + 1):
            reach = 2**t
            for i, x in enumerate(base):
                for y in base[i + 1 :]:
                    d = spec.word_metric(x, y)
                    if 0 < d <= reach:
                        edges.append((Vertex(x, t, entry.index), Vertex(y, t, entry.index)))
        if lmax < 1:
            continue
        for x in base:
            edges.append((Vertex(x, 0, 0), Vertex(x, 1, entry.index)))
            for t in range(1, lmax):
                edges.append((Vertex(x, t, entry.index), Vertex(x, t + 1, entry.index)))
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [(index[u], index[v]) for u, v in edges]
    meta = {"kind": "vertex-space", "rg": rg, "lmax": lmax}
    return MetricGraph(vertices, pairs, meta=meta)
