"""Abstract finite simplicial complexes, vertex maps, and subdivision.

Faces are stored per dimension as sorted tuples of local vertex indices, up
to a recorded dimension cap, and a complex answers from these face lists.

Every nerve and Rips face is enumerated here, by the clique kernel
``clique_complex``, which fills the per-dimension face lists in one recursive
pass; ``mask_nerve`` builds the nerves of covers on it, and ``rips`` the Rips
complexes.  Below the cap, ``mv`` and ``opencone`` take homology on the
nerve of a family's dominated-column core (``mask_core_nerve``) instead.
Meeting and containment are read off point stars (the bitsets of the sets
that hold a point): ``mask_adjacency`` ORs them, ``mask_core`` ANDs them.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, NotSimplicialError, vertex_budget
from .snf import CSC


class SimplicialComplex:
    def __init__(
        self,
        labels: Sequence,
        faces_by_dim: Sequence[list[tuple[int, ...]]],
        cap: int,
    ):
        """A complex on the given face lists, kept as they come: list p holds
        the p-faces as increasing vertex tuples, in lexicographic order,
        without repeats.  ``clique_complex`` (increasing extensions) and
        ``induced`` (an increasing remap) hand over lists in that form;
        ``from_faces`` and ``_subdivide_once`` canonicalise theirs first."""
        self.labels = tuple(labels)
        self.cap = cap
        self.faces: list[list[tuple[int, ...]]] = list(faces_by_dim)
        while len(self.faces) <= cap:
            self.faces.append([])
        # per dimension, built on first use: {face: index}, the facet table,
        # and the sorted integer codes of the faces (``facets``)
        self._face_index: dict[int, dict[tuple[int, ...], int]] = {}
        self._facets: dict[int, np.ndarray] = {}
        self._codes: dict[int, np.ndarray] = {}
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
        faces = [tuple(sorted(set(f))) for f in faces]
        if cap is None:
            cap = max((len(f) - 1 for f in faces), default=0)
        by_dim: list[set] = [set() for _ in range(cap + 1)]
        for i in range(len(labels)):
            by_dim[0].add((i,))
        for f in faces:
            for k in range(1, min(len(f), cap + 1) + 1):
                for sub in combinations(f, k):
                    by_dim[k - 1].add(sub)
        return SimplicialComplex(labels, [sorted(fs) for fs in by_dim], cap)

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

    def has_face(self, vertices: Iterable[int]) -> bool:
        f = tuple(sorted(set(vertices)))
        return f in self.face_index(len(f) - 1)

    def face_index(self, p: int) -> dict[tuple[int, ...], int]:
        """{p-face: its index}, built on the first lookup in dimension p.
        Boundaries never need it (they read ``facets``), so group types on a
        large nerve build none."""
        index = self._face_index.get(p)
        if index is None:
            fs = self.faces[p] if 0 <= p < len(self.faces) else []
            index = self._face_index[p] = dict(zip(fs, range(len(fs))))
        return index

    def facets(self, p: int) -> np.ndarray:
        """The facet table of dimension p >= 1: an n_p x (p+1) int64 array
        whose entry (j, i) is the index of the (p-1)-face left when p-face j
        drops its vertex i, which has boundary sign (-1)^i.

        Faces are looked up by integer code, not by tuple (as Ripser indexes
        simplices by number: Bauer, "Ripser", JACT 2021).  The code of a
        q-face is the index of the face without its last vertex, times the
        vertex count n, plus that vertex.  The face lists are lexicographic,
        so each list's codes increase and a facet's index is a
        ``searchsorted``.  A code is below (n_{q-1} + 1) * n for any cap, far
        from 2^63 for the 200,000-vertex budget and any face count that fits
        in memory."""
        table = self._facets.get(p)
        if table is None:
            n = len(self.labels)
            table = self._vertex_array(p)  # overwritten in place, column by column
            last = table[:, p].copy()
            # the index of each prefix f[:1], f[:2], ..., f[:p]
            head = self._find(0, table[:, 0])
            for k in range(1, p):
                head *= n
                head += table[:, k]
                head = self._find(k, head)
            # dropping v_i, i < p, leaves facet i of f[:p] followed by v_p
            for i in range(p):
                code = self.facets(p - 1)[head, i] * n if p > 1 else np.zeros_like(last)
                code += last
                table[:, i] = self._find(p - 1, code)
            table[:, p] = head
            head *= n
            head += last
            self._codes[p] = _increasing(head)
            self._facets[p] = table
        return table

    def _vertex_array(self, p: int) -> np.ndarray:
        fs = self.faces[p]
        flat = np.fromiter(chain.from_iterable(fs), np.int64, count=len(fs) * (p + 1))
        return flat.reshape(len(fs), p + 1)

    def _find(self, q: int, codes: np.ndarray) -> np.ndarray:
        """Indices of the q-faces with the given codes."""
        if q not in self._codes:
            if q == 0:
                self._codes[0] = _increasing(self._vertex_array(0)[:, 0])
            else:
                self.facets(q)
        known = self._codes[q]
        pos = np.searchsorted(known, codes)
        found = known[np.minimum(pos, len(known) - 1)] if len(known) else known
        if not np.array_equal(found, codes):
            raise ValueError(f"a face has a facet missing from the {q}-faces")
        return pos

    def boundary_columns(self, p: int) -> list[dict[int, int]]:
        """Columns of the boundary map C_p -> C_{p-1} as {row: coefficient}."""
        if p <= 0 or p >= len(self.faces):
            return [{} for _ in range(self.n_faces(max(p, 0)))] if p == 0 else []
        signs = _signs(p)
        return [dict(zip(row, signs)) for row in self.facets(p).tolist()]

    def coboundary_columns(self, p: int, cleared: frozenset[int]) -> CSC:
        """The transpose of the boundary C_p -> C_{p-1}, in compressed sparse
        columns: one column per (p-1)-face not in ``cleared``, in index order,
        holding its p-cofaces in increasing order with their boundary signs
        (int8 values).

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
        flat = self.facets(p).ravel()
        n = self.n_faces(p - 1)
        keep = np.ones(n, dtype=bool)
        keep[np.fromiter(cleared, np.int64, len(cleared))] = False
        indptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=n)[keep])))
        # a stable sort by column keeps each column's cofaces increasing; the
        # cleared faces sort last, and are cut off
        entries = np.argsort(np.where(keep[flat], flat, n), kind="stable")[: indptr[-1]]
        signs = np.array(_signs(p), dtype=np.int8)
        values = signs[entries % (p + 1)]
        entries //= p + 1
        return CSC(indptr, entries, values)

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

        for a, b in self.faces[1] if len(self.faces) > 1 else []:
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
        by_dim = []
        for fs in self.faces:
            by_dim.append(
                [tuple(remap[v] for v in f) for f in fs if all(v in remap for v in f)]
            )
        labels = [self.labels[i] for i in keep]
        return SimplicialComplex(labels, by_dim, self.cap), remap


def _signs(p: int) -> list[int]:
    """The boundary signs (-1)^i of the p+1 facets of a p-face."""
    return [1 - 2 * (i % 2) for i in range(p + 1)]


def _increasing(codes: np.ndarray) -> np.ndarray:
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("face lists must be lexicographic and without repeats")
    return codes


FACES_PER_VERTEX = 10  # the face budget is this many times the vertex budget


def clique_complex(labels: Sequence, adj: Sequence[int], cap: int,
                   masks: Sequence[int] | None = None, *,
                   what: str) -> SimplicialComplex:
    """Complex of the cliques of the bitset adjacency ``adj`` (``adj[i]``
    holds the neighbours of i) with at most cap+1 vertices.  With ``masks`` a
    clique of two or more vertices counts only when their masks have a
    nonzero AND (a nerve).  No clique past the cap is looked for.

    Each face is built from its prefix by increasing extensions (Zomorodian,
    "Fast construction of the Vietoris-Rips complex", 2010), so every
    per-dimension list comes out lexicographic.  The kept faces count against
    the face budget, ``FACES_PER_VERTEX`` times the vertex budget, checked
    after each root vertex."""
    limit = vertex_budget() * FACES_PER_VERTEX
    if masks is None:
        masks = [-1] * len(adj)
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
    by_dim[0] = [(i,) for i in range(len(adj))]
    for i in range(len(adj)):
        if cap > 0:
            _extend(by_dim, by_dim[0][i], masks[i], adj[i] & -(1 << (i + 1)), adj, masks, cap)
        count = sum(map(len, by_dim))
        if count > limit:
            raise BudgetExceededError(
                f"complexes: {what} has at least {count} faces, over the face budget of {limit}"
            )
    return SimplicialComplex(labels, by_dim, cap)


def _extend(by_dim, face, common, cand, adj, masks, cap) -> None:
    """Append the cliques that extend ``face`` by its candidate vertices
    (bits of ``cand``, all above the face), in preorder, up to cap+1
    vertices.  (Module level, not a closure: a closure that calls itself
    holds a reference cycle, and the face lists with it, until a full
    collection.)"""
    k = len(face)
    while cand:
        j = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        nc = common & masks[j]
        if nc:
            grown = face + by_dim[0][j]  # shares vertex j's int with every face
            by_dim[k].append(grown)
            if k < cap:
                _extend(by_dim, grown, nc, cand & adj[j], adj, masks, cap)


def mask_adjacency(masks: Sequence[int]) -> list[int]:
    """Bitset adjacency of the sets whose masks meet pairwise.

    Two sets meet iff some point lies in both (Dowker, "Homology groups of
    relations", Annals 1952), so ``adj[i]`` is the union of the stars of the
    points of set i, less i itself; the star of a point is the bitset of the
    sets that contain it, built in one pass over each mask's points."""
    points = [_set_bits(mask) for mask in masks]
    stars: dict[int, int] = {}
    for i, pts in enumerate(points):
        bit = 1 << i
        for p in pts:
            stars[p] = stars.get(p, 0) | bit
    adj = []
    for i, pts in enumerate(points):
        row = 0
        for p in pts:
            row |= stars[p]
        adj.append(row & ~(1 << i))
    return adj


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of a nonnegative int, increasing; ``bin``
    starts at the lowest set bit, as a horoball column's bits sit high."""
    low = (mask & -mask).bit_length() - 1
    if low < 0:
        return []
    bits = bin(mask >> low)[:1:-1]  # bit low + k at index k
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(low + k)
        k = bits.find("1", k + 1)
    return out


def mask_nerve(labels: Sequence, masks: Sequence[int], cap: int) -> SimplicialComplex:
    """Nerve of a family of bitmask sets up to the cap: a simplex per
    subfamily whose masks have a nonzero AND."""
    return clique_complex(labels, mask_adjacency(masks), cap, masks, what="nerve")


def mask_core(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """The dominated-column core of a mask family: (kept, retract).

    If mask(a) is a nonempty subset of mask(b), a is a dominated vertex of the
    nerve (every face with a stays a face with b added), and deleting it is a
    strong collapse, which keeps the homotopy type (Barmak and Minian, "Strong
    homotopy types, nerves and collapses", DCG 2012; Boissonnat, Pritam and
    Pareek, "Strong collapse for persistence", ESA 2018).  The columns are
    scanned by decreasing popcount, ties by index, and a column is kept unless
    an already-kept mask contains it, so among equal masks the least index
    stays.  ``kept`` lists the kept columns in increasing order; ``retract[i]``
    is the first kept column of the scan that contains column i (i itself
    when kept).  An empty mask is an isolated vertex and is always kept.

    Containment is read off point stars (Dowker, Annals 1952, as in
    ``mask_adjacency``): bit k of a point's kept star is set when the k-th
    kept column holds the point, so the AND of the kept stars of i's points
    holds i's kept containers, and its lowest bit, as bit order is scan
    order, is the first of the scan.  Keeping only kept columns in the stars
    misses no container: a dominated one's kept container, scanned before
    it, contains i too.

    The retraction is simplicial at every cap, since a dominator's mask only
    grows; with j the inclusion, r∘j = id and j∘r is contiguous to the
    identity through faces of one more dimension.  So a cap-c nerve of the
    core has the full cap-c nerve's H_p, through r and j, for every p < c."""
    order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))
    scanned: list[int] = []  # the kept columns, in scan order
    stars: dict[int, int] = {}
    retract = list(range(len(masks)))
    for i in order:
        points = _set_bits(masks[i])
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


def mask_core_nerve(labels: Sequence, masks: Sequence[int],
                    cap: int) -> tuple[SimplicialComplex, dict]:
    """The nerve of the ``mask_core`` of a mask family, labelled as the family
    is, and the retraction as {label: index of its core vertex}.  Its H_p is
    the full nerve's for p < cap, not at the cap."""
    kept, retract = mask_core(masks)
    cx = mask_nerve([labels[i] for i in kept], [masks[i] for i in kept], cap)
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
        the target's cap is not among its faces, so it is refused too."""
        for fs in self.source.faces:
            for f in fs:
                image = {self.vertex_images[v] for v in f}
                if not self.target.has_face(image):
                    raise NotSimplicialError(
                        tuple(self.source.labels[v] for v in f),
                        f"map {self.name or '<anon>'} is not simplicial",
                    )

    def chain_columns(self, p: int) -> list[dict[int, int]]:
        """Matrix of the induced chain map in degree p (degenerate -> 0)."""
        cols = []
        tgt_index = self.target.face_index(p)
        for f in self.source.faces[p]:
            image = push_face([self.vertex_images[v] for v in f])
            if image is None:
                cols.append({})
                continue
            key, sign = image
            if key not in tgt_index:
                raise NotSimplicialError(
                    tuple(self.source.labels[v] for v in f),
                    "image simplex missing from target (cap too low?)",
                )
            cols.append({tgt_index[key]: sign})
        return cols


def push_face(image: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """The image of an oriented face under a vertex map, given as the list of
    its vertices' images: (the sorted face, the sign of the sorting
    permutation), or None when two vertices meet (a degenerate face, 0)."""
    if len(set(image)) < len(image):
        return None
    order = sorted(range(len(image)), key=lambda i: image[i])
    return tuple(image[i] for i in order), _permutation_sign(order)


def _permutation_sign(order: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
    all_faces = [f for fs in c.faces for f in fs]
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
    return SimplicialComplex(labels, [sorted(fs) for fs in by_dim], cap=top - 1)
