"""Conversions at the test boundary between the oracles' Python-int bitsets
(a set of points as an int, bit p for point p; a graph as one int of
neighbours per vertex) and the arrays the package takes: ``PointSets`` for a
family of sets, upper-neighbour compressed rows for a graph."""

import numpy as np

from horokit.complexes import PointSets
from horokit.covers import Cover
from horokit.graphs import Vertex


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

