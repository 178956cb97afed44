"""Rips complexes over leveled metric graphs and the window decompositions.

Faces of the Rips complex at parameter D are the vertex sets of diameter at
most D (graph metric), up to a dimension cap.  Level windows select the full
subcomplexes on deep vertices (level >= r), shallow-plus-group vertices
(level <= R), and the band between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex, clique_complex
from .graphs import MetricGraph


@dataclass(frozen=True)
class LevelWindow:
    low: int  # r
    high: int  # R

    def __post_init__(self):
        if not (1 <= self.low <= self.high):
            raise ValueError("window needs 1 <= r <= R")


def rips(graph: MetricGraph, diameter: int, cap: int) -> SimplicialComplex:
    """Rips complex: faces are subsets of diameter <= the parameter."""
    if diameter < 1:
        raise ValueError("diameter parameter must be >= 1")
    dist = graph.distance_matrix()
    # the pairs i < j within the diameter, row by row: upper-neighbour rows
    i, j = np.nonzero(np.triu((dist >= 0) & (dist <= diameter), 1))
    starts = np.searchsorted(i, np.arange(len(graph) + 1))
    return clique_complex(graph.vertices, (starts, j), cap, what="rips complex")


def _window_vertices(complex_: SimplicialComplex, window: LevelWindow, which: str):
    if which == "lower":  # deep part: levels >= r
        keep = [i for i, v in enumerate(complex_.labels) if v.level >= window.low]
    elif which == "upper":  # group part plus levels <= R
        keep = [i for i, v in enumerate(complex_.labels) if v.level <= window.high]
    elif which == "band":  # levels r..R, no group vertices
        keep = [
            i
            for i, v in enumerate(complex_.labels)
            if window.low <= v.level <= window.high
        ]
    else:
        raise ValueError(f"unknown window selector {which!r}")
    return keep


def full_subcomplex(
    complex_: SimplicialComplex, window: LevelWindow, which: str
) -> SimplicialComplex:
    """Full subcomplex on the window's vertex selection."""
    keep = _window_vertices(complex_, window, which)
    sub, _ = complex_.induced(keep)
    return sub


@dataclass
class DecompositionCheck:
    union_ok: bool
    band_ok: bool
    witnesses: list[tuple]

    @property
    def ok(self) -> bool:
        return self.union_ok and self.band_ok

    def as_dict(self):
        return {
            "union_ok": self.union_ok,
            "band_ok": self.band_ok,
            "witnesses": [[repr(v) for v in w] for w in self.witnesses],
        }


def remark_decomposition_check(
    graph: MetricGraph, diameter: int, low: int, high: int, cap: int
) -> DecompositionCheck:
    """Face-set identities of the window decomposition of a Rips complex.

    Checks that every face lies in the deep or the shallow subcomplex, and
    that the band subcomplex carries exactly the faces common to both,
    comparing materialized face sets.  Returns failing faces as witnesses
    (at most ten).
    """
    window = LevelWindow(low, high)
    c = rips(graph, diameter, cap)
    levels = [v.level for v in c.labels]
    union_ok = True
    witnesses = []

    def label_faces(sub):
        return {
            frozenset(sub.labels[v] for v in f) for fs in sub.faces for f in fs.tolist()
        }

    lower_faces = label_faces(full_subcomplex(c, window, "lower"))
    upper_faces = label_faces(full_subcomplex(c, window, "upper"))
    band_faces = label_faces(full_subcomplex(c, window, "band"))
    for fs in c.faces:
        for f in fs.tolist():
            lf = frozenset(c.labels[v] for v in f)
            if lf not in lower_faces and lf not in upper_faces:
                union_ok = False
                if len(witnesses) < 10:
                    witnesses.append(tuple(c.labels[v] for v in f))
    band_ok = band_faces == (lower_faces & upper_faces)
    if not band_ok:
        for lf in (band_faces ^ (lower_faces & upper_faces)):
            if len(witnesses) < 10:
                witnesses.append(tuple(lf))
    return DecompositionCheck(union_ok, band_ok, witnesses)
