"""Abstract finite simplicial complexes, vertex maps, and subdivision.

Faces are stored per dimension as sorted tuples of local vertex indices, up
to a recorded dimension cap.  A complex may carry a ``span_test`` deciding
whether an arbitrary vertex set spans a simplex (nerves answer this from
column intersections, so spans beyond the cap remain decidable).

Every nerve and Rips face is enumerated here, by the clique kernel
``clique_faces``; ``mask_nerve`` builds the nerves of covers (``covers``,
``mv``, ``opencone``) and ``clique_complex`` the Rips complexes (``rips``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, MapDomainMismatchError, NotSimplicialError, vertex_budget


class SimplicialComplex:
    def __init__(
        self,
        labels: Sequence,
        faces_by_dim: Sequence[list[tuple[int, ...]]],
        cap: int,
        span_test: Callable[[tuple[int, ...]], bool] | None = None,
        truncated_at_cap: bool = False,
    ):
        """A complex on the given face lists, kept as they come: list p holds
        the p-faces as increasing vertex tuples, in lexicographic order,
        without repeats.  ``clique_complex`` (DFS preorder with increasing
        extensions) and ``induced`` (an increasing remap) hand over lists in
        that form; ``from_faces`` and ``_subdivide_once`` canonicalise theirs
        first."""
        self.labels = tuple(labels)
        self.cap = cap
        self.truncated_at_cap = truncated_at_cap
        self.faces: list[list[tuple[int, ...]]] = list(faces_by_dim)
        while len(self.faces) <= cap:
            self.faces.append([])
        self.face_index: list[dict[tuple[int, ...], int]] = [
            dict(zip(fs, range(len(fs)))) for fs in self.faces
        ]
        self._span_test = span_test
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
        top = max((len(f) - 1 for f in faces), default=0)
        if cap is None:
            cap = top
        by_dim: list[set] = [set() for _ in range(cap + 1)]
        for i in range(len(labels)):
            by_dim[0].add((i,))
        for f in faces:
            for k in range(1, min(len(f), cap + 1) + 1):
                for sub in combinations(f, k):
                    by_dim[k - 1].add(sub)
        return SimplicialComplex(
            labels, [sorted(fs) for fs in by_dim], cap, truncated_at_cap=top > cap
        )

    @staticmethod
    def from_label_faces(faces: Iterable[Sequence], cap: int | None = None):
        labels = sorted({v for f in faces for v in f}, key=repr)
        pos = {v: i for i, v in enumerate(labels)}
        return SimplicialComplex.from_faces(
            labels, [[pos[v] for v in f] for f in faces], cap
        )

    # -- queries ------------------------------------------------------------

    @property
    def dim(self) -> int:
        for p in range(len(self.faces) - 1, -1, -1):
            if self.faces[p]:
                return p
        return -1

    def n_faces(self, p: int) -> int:
        return len(self.faces[p]) if 0 <= p < len(self.faces) else 0

    def has_face(self, vertices: Iterable[int]) -> bool:
        f = tuple(sorted(set(vertices)))
        p = len(f) - 1
        return 0 <= p < len(self.faces) and f in self.face_index[p]

    def spans(self, vertices: Iterable[int]) -> bool:
        """Whether the vertex set spans a simplex, beyond the cap if needed."""
        f = tuple(sorted(set(vertices)))
        if self._span_test is not None:
            return self._span_test(f)
        if len(f) - 1 <= self.cap:
            return self.has_face(f)
        if not self.truncated_at_cap:
            return False  # face lists are complete, so absence is decisive
        raise ValueError(
            f"cannot decide span of {len(f)} vertices beyond cap {self.cap}"
        )

    def boundary_columns(self, p: int) -> list[dict[int, int]]:
        """Columns of the boundary map C_p -> C_{p-1} as {row: coefficient}."""
        if p <= 0 or p >= len(self.faces):
            return [{} for _ in range(self.n_faces(max(p, 0)))] if p == 0 else []
        idx = self.face_index[p - 1]
        cols = []
        for f in self.faces[p]:
            col = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                col[idx[sub]] = -1 if i % 2 else 1
            cols.append(col)
        return cols

    def coboundary_columns(self, p: int, cleared: frozenset[int]) -> list[dict[int, int]]:
        """Columns of the transpose of the boundary C_p -> C_{p-1}: one per
        (p-1)-face not in ``cleared``, in index order, holding its p-cofaces
        as {row: boundary sign}.

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
        cols = {r: {} for r in range(self.n_faces(p - 1)) if r not in cleared}
        idx = self.face_index[p - 1]
        for j, f in enumerate(self.faces[p]):
            for i in range(len(f)):
                col = cols.get(idx[f[:i] + f[i + 1 :]])
                if col is not None:
                    col[j] = -1 if i % 2 else 1
        return list(cols.values())

    def chain_boundary(self, p: int, chain: dict[int, int]) -> dict[int, int]:
        """Boundary of a p-chain {face index: coefficient}, zeros dropped."""
        if p == 0:
            return {}
        idx = self.face_index[p - 1]
        out: dict[int, int] = {}
        for r, coeff in chain.items():
            f = self.faces[p][r]
            for i in range(len(f)):
                key = idx[f[:i] + f[i + 1 :]]
                out[key] = out.get(key, 0) + (-coeff if i % 2 else coeff)
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

    def to_json(self) -> dict:
        return {
            "format": "horokit-complex",
            "version": 1,
            "labels": [repr(l) for l in self.labels],
            "cap": self.cap,
            "faces": [[list(f) for f in fs] for fs in self.faces],
        }


def clique_faces(adj: Sequence[int], cap: int, masks: Sequence[int] | None = None,
                 probe: bool = False):
    """Cliques of the bitset adjacency ``adj`` (``adj[i]`` holds the neighbours
    of i) with at most cap+1 vertices: lazily, as increasing vertex tuples, in
    DFS preorder.  With ``masks`` a clique of two or more vertices counts only
    when their masks have a nonzero AND (a nerve).  With ``probe`` the first
    clique of cap+2 vertices is yielded too, in its preorder place, as the
    witness that the cap truncates; no later one is looked for."""
    if masks is None:
        masks = [-1] * len(adj)
    probing = probe

    def grow(face, common, cand):
        # the extensions of an already yielded face by its candidate vertices
        nonlocal probing
        if len(face) > cap and not probing:
            return
        c = cand
        while c:
            j = (c & -c).bit_length() - 1
            c &= c - 1
            nc = common & masks[j]
            if nc:
                yield face + (j,)
                if len(face) > cap:
                    probing = False
                    return
                yield from grow(face + (j,), nc, cand & adj[j] & -(1 << (j + 1)))

    for i in range(len(adj)):
        yield (i,)
        yield from grow((i,), masks[i], adj[i] & -(1 << (i + 1)))


def clique_complex(labels: Sequence, faces: Iterable[tuple[int, ...]], cap: int,
                   span_test: Callable[[tuple[int, ...]], bool],
                   budget: int | None = None, what: str = "complex") -> SimplicialComplex:
    """Complex of a probed ``clique_faces`` stream: a face past the cap only
    sets ``truncated_at_cap``, and the kept faces count against the face
    budget (ten times the vertex budget unless given)."""
    limit = vertex_budget(budget) * 10 if budget is None else budget
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(cap + 1)]
    count = 0
    truncated = False
    for face in faces:
        if len(face) > cap + 1:
            truncated = True
            continue
        by_dim[len(face) - 1].append(face)
        count += 1
        if count > limit:
            raise BudgetExceededError(f"{what} exceeds face budget {limit}")
    return SimplicialComplex(labels, by_dim, cap, span_test=span_test, truncated_at_cap=truncated)


def mask_adjacency(masks: Sequence[int]) -> list[int]:
    """Bitset adjacency of the sets whose masks meet pairwise."""
    m = len(masks)
    adj = [0] * m
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if mi & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def mask_nerve(labels: Sequence, masks: Sequence[int], cap: int, budget: int | None = None,
               faces: Iterable[tuple[int, ...]] | None = None) -> SimplicialComplex:
    """Nerve of a family of bitmask sets up to the cap: a simplex per
    subfamily whose masks have a nonzero AND.  ``faces`` is the probed clique
    stream of the masks, when the caller enumerates it.  The span test answers
    from the masks, so spans beyond the cap stay decidable (contiguity needs
    that)."""
    if faces is None:
        faces = clique_faces(mask_adjacency(masks), cap, masks, probe=True)

    def span_test(vertices: tuple[int, ...]) -> bool:
        common = -1
        for v in vertices:
            common &= masks[v]
            if common == 0:
                return False
        return True

    return clique_complex(labels, faces, cap, span_test, budget, "nerve")


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
        for fs in self.source.faces:
            for f in fs:
                image = {self.vertex_images[v] for v in f}
                if not self.target.spans(image):
                    raise NotSimplicialError(
                        tuple(self.source.labels[v] for v in f),
                        f"map {self.name or '<anon>'} is not simplicial",
                    )

    def chain_columns(self, p: int) -> list[dict[int, int]]:
        """Matrix of the induced chain map in degree p (degenerate -> 0)."""
        cols = []
        tgt_index = self.target.face_index[p] if p < len(self.target.faces) else {}
        for f in self.source.faces[p]:
            image = [self.vertex_images[v] for v in f]
            if len(set(image)) < len(image):
                cols.append({})
                continue
            order = sorted(range(len(image)), key=lambda i: image[i])
            sign = _permutation_sign(order)
            key = tuple(image[i] for i in order)
            if key not in tgt_index:
                raise NotSimplicialError(
                    tuple(self.source.labels[v] for v in f),
                    "image simplex missing from target (cap too low?)",
                )
            cols.append({tgt_index[key]: sign})
        return cols

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other (other first)."""
        if other.target is not self.source:
            raise MapDomainMismatchError("composition needs matching middle complex")
        images = tuple(self.vertex_images[v] for v in other.vertex_images)
        return SimplicialMap(
            other.source, self.target, images, check=False,
            name=f"{self.name}*{other.name}",
        )

    def to_csv_rows(self):
        for v, w in enumerate(self.vertex_images):
            yield (repr(self.source.labels[v]), repr(self.target.labels[w]))

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["source", "target"])
            w.writerows(self.to_csv_rows())


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


def contiguous(f: SimplicialMap, g: SimplicialMap):
    """Contiguity: f(s) | g(s) spans a target simplex for every source face.

    Returns (True, None) or (False, witness face as label tuple).
    """
    if f.source is not g.source or f.target is not g.target:
        raise MapDomainMismatchError("contiguity needs shared source and target")
    for fs in f.source.faces:
        for face in fs:
            union = {f.vertex_images[v] for v in face} | {
                g.vertex_images[v] for v in face
            }
            if not f.target.spans(union):
                return False, tuple(f.source.labels[v] for v in face)
    return True, None


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
