"""Abstract finite simplicial complexes, vertex maps, and subdivision.

A complex holds its faces per dimension, up to a recorded dimension cap, as
one int32 array per dimension: row j of array p is the j-th p-face, its p+1
local vertex indices increasing, and the rows are lexicographic without
repeats.  A complex answers from these arrays alone.  A face is found by its
integer code (``SimplicialComplex._find``), and the facet table behind the
boundary, coboundary and chain maps is built from the arrays in numpy.

Every nerve and Rips face is enumerated here, by the clique kernel
``clique_complex``, which builds each dimension from the one below in numpy
blocks and checks the face budget on each block before storing it;
``set_nerve`` builds the nerves of covers on it, and ``rips`` the Rips
complexes.  Below the cap, ``mv`` and ``opencone`` take homology on the
nerve of a family's dominated-column core (``set_core_nerve``) instead.

A family of sets (cover columns, balls) is one ``PointSets``: int32 point
lists as compressed rows.  Meeting and containment are read off the point
stars (the same rows transposed): ``set_adjacency`` pairs the sets within
each star, ``set_core`` ANDs the stars as bitsets over the kept sets.  Where
a bitset of points is the fast path (a face's common points, contiguity),
each set's nonzero 64-bit words are built from its points (``_set_words``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, NotSimplicialError, vertex_budget
from .snf import CSC, _spans


class SimplicialComplex:
    def __init__(
        self,
        labels: Sequence,
        faces_by_dim: Sequence[np.ndarray],
        cap: int,
    ):
        """A complex on the given face arrays, kept as they come: entry p holds
        the p-faces as the rows of an n_p x (p+1) integer array, each row
        increasing, the rows in lexicographic order without repeats.
        ``clique_complex`` (increasing extensions) and ``induced`` (an
        increasing remap) hand over arrays in that form; ``from_faces`` and
        ``_subdivide_once`` sort theirs first.  An array out of order, or a
        face whose facet is missing, is refused by the first lookup in its
        dimension.

        A face is looked up by its integer code, not by a table of tuples (as
        Ripser indexes simplices by number: Bauer, "Ripser", JACT 2021).  The
        code of a vertex is the vertex; the code of a q-face is the index of
        the face without its last vertex, times the vertex count n, plus that
        vertex.  The rows are lexicographic, so each dimension's codes
        increase and a lookup is a ``searchsorted`` on them.  A code is below
        (n_{q-1} + 1) * n, far from 2^63 for any vertex and face budget whose
        faces fit in memory."""
        self.labels = tuple(labels)
        self.cap = cap
        self.faces: list[np.ndarray] = [fs.astype(np.int32, copy=False) for fs in faces_by_dim]
        while len(self.faces) <= cap:
            self.faces.append(np.empty((0, len(self.faces) + 1), dtype=np.int32))
        # per dimension, built on first use: the sorted integer codes of the
        # faces (``_find``) and the facet table (``facets``)
        self._codes: dict[int, np.ndarray] = {}
        self._facets: dict[int, np.ndarray] = {}
        # (torsion, rank, unit pivot rows) of each boundary map C_p -> C_{p-1},
        # by p; filled in by homology._boundary_type, which eliminates each
        # transpose once and drops the columns of d_{p+1}^T on the p-faces
        # that were unit pivot rows of d_p^T (clearing, de Silva, Morozov and
        # Vejdemo-Johansson 2011; Chen and Kerber 2011)
        self.boundary_types: dict[int, tuple[tuple[int, ...], int, frozenset[int]]] = {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_faces(labels: Sequence, faces: Iterable[Sequence[int]], cap: int | None = None):
        """Downward closure of the given faces (local vertex indices)."""
        faces = [sorted(set(f)) for f in faces]
        if cap is None:
            cap = max((len(f) - 1 for f in faces), default=0)
        by_size: dict[int, list[list[int]]] = {}
        for f in faces:
            if f:
                by_size.setdefault(len(f), []).append(f)
        blocks: list[list[np.ndarray]] = [[] for _ in range(cap + 1)]
        blocks[0].append(np.arange(len(labels)).reshape(-1, 1))
        for size, fs in by_size.items():
            rows = np.array(fs, dtype=np.int64)
            for k in range(1, min(size, cap + 1) + 1):
                for cols in combinations(range(size), k):
                    blocks[k - 1].append(rows[:, list(cols)])
        by_dim = [np.unique(np.concatenate(b), axis=0) for b in blocks if b]
        return SimplicialComplex(labels, by_dim, cap)

    @staticmethod
    def from_label_faces(faces: Iterable[Sequence], cap: int | None = None):
        labels = sorted({v for f in faces for v in f}, key=repr)
        pos = {v: i for i, v in enumerate(labels)}
        return SimplicialComplex.from_faces(
            labels, [[pos[v] for v in f] for f in faces], cap
        )

    # -- queries ------------------------------------------------------------

    def n_faces(self, p: int) -> int:
        return len(self.faces[p]) if 0 <= p < len(self.faces) else 0

    def face_indices(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row of a k x (q+1) integer array among the
        q-faces, or -1 where the row is not a q-face (a vertex out of range
        or not above the one before it included), found by code."""
        rows = np.asarray(rows, dtype=np.int64)
        q = rows.shape[1] - 1
        if not 0 <= q < len(self.faces):
            return np.full(len(rows), -1, dtype=np.int64)
        n = len(self.labels)
        valid = (rows[:, 0] >= 0) & (rows[:, q] < n) & np.all(rows[:, 1:] > rows[:, :-1], axis=1)
        index = self._find(0, np.where(valid, rows[:, 0], -1))
        for k in range(1, q + 1):
            code = index * n + rows[:, k]
            code[index < 0] = -1
            index = self._find(k, code)
        return index

    def _find(self, q: int, codes: np.ndarray) -> np.ndarray:
        """Indices of the q-faces with the given codes, -1 for a code that is
        no q-face's."""
        return _lookup(self._face_codes(q), codes)

    def _face_codes(self, q: int) -> np.ndarray:
        """The codes of the q-faces, increasing (checked with the facet
        table, which holds each face's prefix index)."""
        codes = self._codes.get(q)
        if codes is None:
            codes = self.faces[q][:, q].astype(np.int64)
            if q:
                codes += np.multiply(self.facets(q)[:, q], len(self.labels), dtype=np.int64)
            elif np.any(codes[1:] <= codes[:-1]):
                raise ValueError("face lists must be lexicographic and without repeats")
            self._codes[q] = codes
        return codes

    def facets(self, p: int) -> np.ndarray:
        """The facet table of dimension p >= 1: an n_p x (p+1) int32 array
        whose entry (j, i) is the index of the (p-1)-face left when p-face j
        drops its vertex i, which has boundary sign (-1)^i.

        The rows are lexicographic, so the faces with one prefix f[:p] (the
        last facet) form a run, and each run's prefix is looked up once; the
        prefix indices must increase from run to run, and the last vertices
        within a run, so that the codes increase.  Dropping v_i, i < p,
        leaves facet i of the prefix followed by v_p, whose code (int64, as
        an index times n overflows int32) comes from the prefix's own row of
        the table below."""
        table = self._facets.get(p)
        if table is None:
            fs, n = self.faces[p], len(self.labels)
            first = np.ones(len(fs), dtype=bool)  # the first face of each run
            first[1:] = np.any(fs[1:, :p] != fs[:-1, :p], axis=1)
            runs = np.flatnonzero(first)
            prefix = self.face_indices(fs[runs, :p])
            if np.any(prefix < 0):
                raise ValueError(f"a face has a facet missing from the {p - 1}-faces")
            if np.any(prefix[1:] <= prefix[:-1]) or np.any(~first[1:] & (fs[1:, p] <= fs[:-1, p])):
                raise ValueError("face lists must be lexicographic and without repeats")
            table = np.empty((len(fs), p + 1), dtype=np.int32)
            head = table[:, p]
            head[:] = np.repeat(prefix.astype(np.int32), np.diff(runs, append=len(fs)))
            for i in range(p):
                if p > 1:
                    code = np.multiply(self.facets(p - 1)[head, i], n, dtype=np.int64)
                    code += fs[:, p]
                else:
                    code = fs[:, p].astype(np.int64)
                table[:, i] = self._find(p - 1, code)
            if np.any(table < 0):
                raise ValueError(f"a face has a facet missing from the {p - 1}-faces")
            self._facets[p] = table
        return table

    def boundary_columns(self, p: int) -> list[dict[int, int]]:
        """Columns of the boundary map C_p -> C_{p-1} as {row: coefficient}."""
        if p <= 0 or p >= len(self.faces):
            return [{} for _ in range(self.n_faces(max(p, 0)))] if p == 0 else []
        signs = _signs(p)
        return [dict(zip(row, signs)) for row in self.facets(p).tolist()]

    def coboundary_columns(self, p: int, cleared: frozenset[int]) -> CSC:
        """The transpose of the boundary C_p -> C_{p-1}, in compressed sparse
        columns: one column per (p-1)-face not in ``cleared``, in index order,
        holding its p-cofaces in increasing order (int32 rows) with their
        boundary signs (int8 values).

        A matrix and its transpose have the same invariant factors, and the
        transpose needs far fewer columns: ``homology._boundary_type`` clears
        the (p-1)-faces that were unit pivot rows of d_{p-1}^T, since those
        columns are integer combinations of the kept ones (de Silva, Morozov
        and Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011;
        Chen and Kerber, "Persistent homology computation with a twist",
        EuroCG 2011; the argument is at ``snf._eliminate``).  Of the kept
        columns only about beta_{p-1} reduce to zero, where the boundary's own
        columns leave dim Z_p zero columns.  ``boundary_columns`` stays for
        homology coordinates and chain splitting; the benchmark traces it
        under that name, not this one.
        """
        if not 0 < p < len(self.faces):
            raise ValueError(f"no coboundary columns in degree {p}")
        table = self.facets(p)
        n, size = self.n_faces(p - 1), table.size
        keep = np.ones(n, dtype=bool)
        keep[np.fromiter(cleared, np.int64, len(cleared))] = False
        # one int64 key per entry: its (p-1)-face times the table size, plus
        # its place in the table, the cleared faces moved past the last face
        # (below (n_{p-1} + 1) * (p + 1) * n_p, far from 2^63).  The keys are
        # distinct, so an in-place sort orders the entries as a stable sort
        # by face would: each column's cofaces increasing, the cleared
        # entries last, where they are cut off.
        key = np.multiply(table, size, dtype=np.int64)
        key[~keep[table]] = n * size
        key += np.arange(0, size, p + 1)[:, None]
        key += np.arange(p + 1)
        key = key.ravel()
        key.sort()
        indptr = np.searchsorted(key, np.append(np.flatnonzero(keep), n) * size)
        at = key[: indptr[-1]]
        at %= size  # the entry's place in the table: coface * (p+1) + facet
        rows = np.empty(len(at), dtype=np.int32)
        np.floor_divide(at, p + 1, out=rows, casting="unsafe")
        at %= p + 1
        return CSC(indptr, rows, np.array(_signs(p), dtype=np.int8)[at])

    def chain_boundary(self, p: int, chain: dict[int, int]) -> dict[int, int]:
        """Boundary of a p-chain {face index: coefficient}, zeros dropped."""
        if p == 0 or not chain:
            return {}
        signs = _signs(p)
        out: dict[int, int] = {}
        for row, coeff in zip(self.facets(p)[list(chain)].tolist(), chain.values()):
            for key, sign in zip(row, signs):
                out[key] = out.get(key, 0) + sign * coeff
        return {r: v for r, v in out.items() if v}

    def components(self) -> list[int]:
        """Component id per vertex, from the 1-skeleton."""
        parent = list(range(len(self.labels)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in self.faces[1].tolist() if len(self.faces) > 1 else []:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        roots = {}
        out = []
        for i in range(len(self.labels)):
            r = find(i)
            out.append(roots.setdefault(r, len(roots)))
        return out

    def induced(self, keep: Iterable[int]) -> tuple["SimplicialComplex", dict[int, int]]:
        keep = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep)}
        new = np.full(len(self.labels), -1, dtype=np.int64)
        new[keep] = np.arange(len(keep))
        by_dim = []
        for fs in self.faces:
            image = new[fs]
            by_dim.append(image[np.all(image >= 0, axis=1)])
        labels = [self.labels[i] for i in keep]
        return SimplicialComplex(labels, by_dim, self.cap), remap


def _signs(p: int) -> list[int]:
    """The boundary signs (-1)^i of the p+1 facets of a p-face."""
    return [1 - 2 * (i % 2) for i in range(p + 1)]


FACES_PER_VERTEX = 10  # the face budget is this many times the vertex budget
_BLOCK = 1 << 16  # candidate faces per numpy block of the clique kernel
_POINT_BLOCK = 1 << 20  # gathered star entries per numpy block of ``set_adjacency``


@dataclass(frozen=True, eq=False)
class PointSets:
    """A family of sets of points as compressed rows: set i holds the int32
    points ``points[indptr[i]:indptr[i + 1]]``, increasing."""

    indptr: np.ndarray  # int64: the start of each set, and the end
    points: np.ndarray

    def __len__(self):
        return len(self.indptr) - 1

    def take(self, rows) -> "PointSets":
        """The family of the given sets, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = self.indptr[rows + 1] - self.indptr[rows]
        return PointSets(_offsets(lens), self.points[_spans(self.indptr[rows], lens)])


def point_sets(rows: np.ndarray) -> PointSets:
    """The family whose set i is the true columns of row i of a boolean matrix."""
    at = np.flatnonzero(rows) % max(rows.shape[1], 1)
    return PointSets(_offsets(np.count_nonzero(rows, axis=1)), at.astype(np.int32))


def _stars(sets: PointSets):
    """The family transposed: the star of each point up to the largest (the
    sets that hold it, increasing) as compressed rows, and the place of each
    entry of ``sets.points`` among the stars' entries."""
    order = np.argsort(sets.points, kind="stable")
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.arange(len(order))
    owner = np.repeat(np.arange(len(sets), dtype=np.int32), np.diff(sets.indptr))
    return _offsets(np.bincount(sets.points)), owner[order], place


def clique_complex(labels: Sequence, adjacency, cap: int,
                   sets: PointSets | None = None, *,
                   what: str) -> SimplicialComplex:
    """Complex of the cliques of the graph ``adjacency`` with at most cap+1
    vertices.  The graph comes as upper-neighbour compressed rows (start per
    vertex and the end, int64 neighbours): row i holds the neighbours j > i,
    increasing, as ``set_adjacency`` gives them.  With ``sets`` a clique of
    two or more vertices counts only when their sets have a common point (a
    nerve).  No clique past the cap is looked for.

    Each dimension is built from the one below by increasing extensions
    (Zomorodian, "Fast construction of the Vietoris-Rips complex", 2010), as
    one array, in numpy blocks of about ``_BLOCK`` candidates.  The
    candidates of a p-face are the upper neighbours of its last vertex (of
    the kept edges, once there are edges), in increasing order, so each
    dimension comes out lexicographic.  A candidate is kept when it is
    adjacent to every other vertex of the face, looked up by edge code, and,
    in a nerve, when the face's common points meet the candidate's set; the
    common points are kept as their nonzero 64-bit words (``_set_words``),
    so every face passes the full test.  The kept faces count against the
    face budget, ``FACES_PER_VERTEX`` times the vertex budget, block by
    block: a block that takes the count past it is refused before it is
    stored."""
    limit = vertex_budget() * FACES_PER_VERTEX
    starts, nbrs = adjacency
    n = len(starts) - 1
    count = n
    _check_budget(count, limit, what)
    faces = [np.arange(n, dtype=np.int32).reshape(n, 1)]
    commons = columns = edge_codes = None
    if sets is not None and len(nbrs):
        commons, columns = _set_words(sets)
    for p in range(cap):
        cur = faces[p]
        deg = np.diff(starts)[cur[:, p]]
        if not deg.any():
            break
        grow = commons is not None and p + 1 < cap  # the next dimension needs them
        ends = np.cumsum(deg)
        # the dimension is written once, into arrays with room for every
        # candidate (or the rest of the budget), a kept face's common words
        # being at most its face's; room never written takes no memory, and
        # is cut off in place at the end (``resize`` reallocates, a slice
        # would be copied)
        room = min(int(ends[-1]), limit - count)
        new = np.empty((room, p + 2), dtype=np.int32)
        used = 0
        if grow:
            per_face = np.diff(commons[0])
            wroom = min(int(deg @ per_face), room * int(per_face.max()))
            sizes = np.empty(room, dtype=np.int64)
            positions = np.empty(wroom, dtype=np.int64)
            words = np.empty(wroom, dtype=np.uint64)
            wused = 0
        lo = 0
        while lo < len(cur):
            hi = max(int(np.searchsorted(ends, ends[lo] - deg[lo] + _BLOCK, "right")), lo + 1)
            rep = np.repeat(np.arange(lo, hi), deg[lo:hi])  # the face of each candidate
            cand = nbrs[_spans(starts[cur[lo:hi, p]], deg[lo:hi])]
            for t in range(p):  # adjacent to the face's other vertices too
                keep = _lookup(edge_codes, cur[rep, t] * np.int64(n) + cand) >= 0
                rep, cand = rep[keep], cand[keep]
            if commons is not None:
                keep, meet = _meet(commons, rep, cand, columns)
                rep, cand = rep[keep], cand[keep]
            count += len(rep)
            _check_budget(count, limit, what)
            end = used + len(rep)
            new[used:end, : p + 1] = cur[rep]
            new[used:end, p + 1] = cand
            if grow:
                wend = wused + len(meet[1])
                sizes[used:end], positions[wused:wend], words[wused:wend] = meet
                wused = wend
            used = end
            lo = hi
        new.resize((used, p + 2), refcheck=False)
        faces.append(new)
        if p == 0:  # from here on, the candidates are the kept edges' ends
            starts = np.searchsorted(faces[1][:, 0], np.arange(n + 1))
            nbrs = faces[1][:, 1].astype(np.int64)
            edge_codes = faces[1][:, 0] * np.int64(n) + nbrs
        if grow:
            positions.resize(wused, refcheck=False)
            words.resize(wused, refcheck=False)
            commons = (_offsets(sizes[:used]), positions, words)
    return SimplicialComplex(labels, faces, cap)


def _check_budget(count: int, limit: int, what: str) -> None:
    if count > limit:
        raise BudgetExceededError(
            f"complexes: {what} has at least {count} faces, over the face budget of {limit}"
        )


def _offsets(counts) -> np.ndarray:
    """The start of each run of the given lengths, and the total at the end."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _lookup(known: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The position of each code in the increasing array ``known``, or -1."""
    if not len(known):
        return np.full(len(codes), -1, dtype=np.int64)
    pos = np.searchsorted(known, codes)
    np.minimum(pos, len(known) - 1, out=pos)
    pos[known[pos] != codes] = -1
    return pos


def _set_words(sets: PointSets):
    """Each set's points as its nonzero 64-bit words, point p being bit
    p & 63 of the word at position p >> 6: as compressed rows (start per set
    and the end, word positions, words), and keyed for lookup by
    ``set * width + position``, which increases: (keys, words, width)."""
    width = (int(sets.points.max(initial=0)) >> 6) + 1
    position = sets.points >> 6
    new = np.diff(position, prepend=-1) != 0
    new[sets.indptr[:-1][np.diff(sets.indptr) > 0]] = True
    first = np.flatnonzero(new)  # each word's first point
    bits = (sets.points & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    words = np.bitwise_or.reduceat(bits, first) if len(first) else bits
    owner = np.searchsorted(sets.indptr, first, "right") - 1
    position = position[first]
    rows = (_offsets(np.bincount(owner, minlength=len(sets))), position, words)
    return rows, (owner * width + position, words, width)


def _meet(commons, rows, cand, columns):
    """Which of the given rows of the word rows ``commons``, each with its
    candidate set, keep a common point: the row's words ANDed with the
    candidate's (looked up in the keyed words ``columns``) are not all zero.
    Also the common words of the kept rows, as (word count per kept row,
    word positions, words)."""
    ptr, position, values = commons
    keys, words, width = columns
    first = ptr[rows]
    lens = ptr[rows + 1] - first
    at = _spans(first, lens)
    owner = np.repeat(np.arange(len(rows)), lens)
    pos = _lookup(keys, np.multiply(cand[owner], width, dtype=np.int64) + position[at])
    both = np.zeros(len(at), dtype=np.uint64)
    found = pos >= 0
    both[found] = values[at[found]] & words[pos[found]]
    hit = both != 0
    per_face = np.bincount(owner[hit], minlength=len(rows))
    keep = per_face > 0
    return keep, (per_face[keep], position[at[hit]], both[hit])


def _common_point(words, ptr: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Whether the sets of each group have a common point, an empty group
    included: group g is the sets ``members[ptr[g]:ptr[g + 1]]`` of the
    word rows ``words`` (``_set_words``).  Round k ANDs the k-th member into
    the groups' common words (the first with itself), and a group leaves
    once they are zero or it has no member left."""
    sizes = np.diff(ptr)
    out = np.ones(len(sizes), dtype=bool)
    live = np.flatnonzero(sizes)
    commons, rows, k = words[0], members[ptr[live]], 0
    while len(live):
        keep, (count, *meet) = _meet(commons, rows, members[ptr[live] + k], words[1])
        out[live[~keep]] = False
        live, commons, k = live[keep], (_offsets(count), *meet), k + 1
        rows = np.flatnonzero(sizes[live] > k)
        live = live[rows]
    return out


def set_adjacency(sets: PointSets) -> tuple[np.ndarray, np.ndarray]:
    """The graph of the sets that meet, as upper-neighbour compressed rows:
    row i holds the sets j > i that share a point with set i, increasing.

    Two sets meet iff some point lies in both (Dowker, "Homology groups of
    relations", Annals 1952), so the upper neighbours of i are the sets past
    i in the stars of its points, the tails of those stars past its own
    entries.  Blocks of sets in turn gather their tails, coded i * n + j,
    sorted and made unique.  Each pair that meets is a face
    of a nerve, so the count is checked against the face budget block by
    block."""
    n, limit = len(sets), vertex_budget() * FACES_PER_VERTEX
    starts, members, place = _stars(sets)
    tail = starts[sets.points.astype(np.int64) + 1] - place - 1
    ends = _offsets(tail)[sets.indptr]  # the tail entries before each set
    codes, count, a = [], n, 0
    while a < n:
        b = min(max(int(np.searchsorted(ends, ends[a] + _POINT_BLOCK, "right")) - 1, a + 1), n)
        lo, hi = sets.indptr[a], sets.indptr[b]
        code = np.repeat(np.arange(a, b, dtype=np.int64) * n, np.diff(sets.indptr[a : b + 1]))
        code = np.repeat(code, tail[lo:hi]) + members[_spans(place[lo:hi] + 1, tail[lo:hi])]
        code.sort()  # and made unique (``np.unique`` would import ``numpy.ma``)
        codes.append(code[np.diff(code, prepend=-1) != 0])
        count += len(codes[-1])
        _check_budget(count, limit, "nerve")
        a = b
    code = np.concatenate(codes) if codes else np.empty(0, np.int64)
    return _offsets(np.bincount(code // max(n, 1), minlength=n)), code % max(n, 1)


def set_nerve(labels: Sequence, sets: PointSets, cap: int) -> SimplicialComplex:
    """Nerve of a family of point sets up to the cap: a simplex per
    subfamily with a common point."""
    return clique_complex(labels, set_adjacency(sets), cap, sets, what="nerve")


def set_core(sets: PointSets) -> tuple[list[int], list[int]]:
    """The dominated-column core of a family of point sets: (kept, retract).

    If set a is a nonempty subset of set b, a is a dominated vertex of the
    nerve (every face with a stays a face with b added), and deleting it is a
    strong collapse, which keeps the homotopy type (Barmak and Minian, "Strong
    homotopy types, nerves and collapses", DCG 2012; Boissonnat, Pritam and
    Pareek, "Strong collapse for persistence", ESA 2018).  The sets are
    scanned by decreasing size, ties by index, and a set is kept unless an
    already-kept set contains it, so among equal sets the least index
    stays.  ``kept`` lists the kept sets in increasing order; ``retract[i]``
    is the first kept set of the scan that contains set i (i itself when
    kept).  An empty set is an isolated vertex and is always kept.

    Containment is read off point stars (Dowker, Annals 1952, as in
    ``set_adjacency``): bit k of a point's kept star, a Python int as wide as
    the kept sets, is set when the k-th kept set holds the point, so the AND
    of the kept stars of i's points holds i's kept containers, and its
    lowest bit, as bit order is scan order, is the first of the scan.
    Keeping only kept sets in the stars misses no container: a dominated
    one's kept container, scanned before it, contains i too.

    The retraction is simplicial at every cap, since a dominator's set only
    grows; with j the inclusion, r∘j = id and j∘r is contiguous to the
    identity through faces of one more dimension.  So a cap-c nerve of the
    core has the full cap-c nerve's H_p, through r and j, for every p < c."""
    indptr = sets.indptr.tolist()
    scanned: list[int] = []  # the kept sets, in scan order
    stars: dict[int, int] = {}
    retract = list(range(len(sets)))
    for i in np.argsort(-np.diff(sets.indptr), kind="stable").tolist():
        points = sets.points[indptr[i] : indptr[i + 1]].tolist()
        common = -1 if points else 0
        for p in points:
            common &= stars.get(p, 0)
            if not common:
                break
        if common:
            retract[i] = scanned[(common & -common).bit_length() - 1]
            continue
        bit = 1 << len(scanned)
        scanned.append(i)
        for p in points:
            stars[p] = stars.get(p, 0) | bit
    return sorted(scanned), retract


def set_core_nerve(labels: Sequence, sets: PointSets,
                   cap: int) -> tuple[SimplicialComplex, dict]:
    """The nerve of the ``set_core`` of a family of point sets, labelled as
    the family is, and the retraction as {label: index of its core vertex}.
    Its H_p is the full nerve's for p < cap, not at the cap."""
    kept, retract = set_core(sets)
    cx = set_nerve([labels[i] for i in kept], sets.take(kept), cap)
    index = {k: v for v, k in enumerate(kept)}
    return cx, {label: index[r] for label, r in zip(labels, retract)}


def full_simplex(n: int) -> SimplicialComplex:
    """The genuine n-vertex full simplex (all faces, no cap truncation)."""
    return SimplicialComplex.from_faces(list(range(n)), [tuple(range(n))])


class SimplicialMap:
    """A vertex map between complexes, checked to send simplices to simplices."""

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_images: Sequence[int],
        check: bool = True,
        name: str = "",
    ):
        if len(vertex_images) != len(source.labels):
            raise ValueError("need one image per source vertex")
        self.source = source
        self.target = target
        self.vertex_images = tuple(vertex_images)
        self.name = name
        if check:
            self.verify()

    def verify(self):
        """Every source face must land on a face of the target; an image past
        the target's cap is not among its faces, so it is refused too.  The
        image sets of each dimension are looked up by code, one batch per
        set size.  The witness is the first failing face by dimension, then
        in lexicographic order."""
        images = np.asarray(self.vertex_images, dtype=np.int64)
        for fs in self.source.faces:
            found = np.ones(len(fs), dtype=bool)
            image = np.sort(images[fs], axis=1)
            new = np.ones(image.shape, dtype=bool)  # a vertex's first copy in its row
            new[:, 1:] = image[:, 1:] != image[:, :-1]
            size = new.sum(axis=1)
            for k in range(1, image.shape[1] + 1):  # each image set by its size
                rows = size == k
                if rows.any():
                    sets = image[rows][new[rows]].reshape(-1, k)
                    found[rows] = self.target.face_indices(sets) >= 0
            if not found.all():
                raise NotSimplicialError(
                    tuple(self.source.labels[v] for v in fs[np.argmin(found)].tolist()),
                    f"map {self.name or '<anon>'} is not simplicial",
                )

    def chain_columns(self, p: int) -> list[dict[int, int]]:
        """Matrix of the induced chain map in degree p (degenerate -> 0)."""
        fs = self.source.faces[p]
        index, sign = push_faces(self.target, np.asarray(self.vertex_images, dtype=np.int64)[fs])
        missing = np.flatnonzero(sign.astype(bool) & (index < 0))
        if len(missing):
            raise NotSimplicialError(
                tuple(self.source.labels[v] for v in fs[missing[0]].tolist()),
                "image simplex missing from target (cap too low?)",
            )
        return [{i: s} if s else {} for i, s in zip(index.tolist(), sign.tolist())]


def push_faces(target: SimplicialComplex, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The images of oriented faces under a vertex map, given as the rows of
    their vertices' images: the index of each sorted image among the target's
    faces of its dimension (-1 when it is none of them), and the sign of the
    sorting permutation, (-1) to the number of inversions; a degenerate image,
    where two vertices meet, is 0 and gets sign 0."""
    inversions = np.zeros(len(images), dtype=np.int64)
    degenerate = np.zeros(len(images), dtype=bool)
    for i, j in combinations(range(images.shape[1]), 2):
        inversions += images[:, i] > images[:, j]
        degenerate |= images[:, i] == images[:, j]
    sign = np.where(degenerate, 0, 1 - 2 * (inversions % 2))
    return target.face_indices(np.sort(images, axis=1)), sign


def barycentric_subdivision(c: SimplicialComplex, times: int = 1) -> SimplicialComplex:
    """Iterated barycentric subdivision; vertices of the result are faces."""
    if times < 0:
        raise ValueError("times must be >= 0")
    for _ in range(times):
        c = _subdivide_once(c)
    return c


def _subdivide_once(c: SimplicialComplex) -> SimplicialComplex:
    # vertices of the subdivision are faces of c; its k-simplices are strict
    # chains f0 < f1 < ... < fk of faces under inclusion
    all_faces = [tuple(f) for fs in c.faces for f in fs.tolist()]
    pos = {f: i for i, f in enumerate(all_faces)}
    labels = [tuple(c.labels[v] for v in f) for f in all_faces]
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[tuple[int, ...]]):
        chains.append(tuple(sorted(pos[f] for f in chain)))
        smallest = chain[-1]
        for k in range(1, len(smallest)):
            for g in combinations(smallest, k):
                grow(chain + [g])

    for f in all_faces:
        grow([f])
    top = max(len(ch) for ch in chains)
    by_dim: list[set] = [set() for _ in range(top)]
    for ch in chains:
        by_dim[len(ch) - 1].add(ch)
    return SimplicialComplex(labels, [np.array(sorted(fs)) for fs in by_dim], cap=top - 1)
