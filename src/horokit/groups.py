"""Finitely generated groups with computable normal forms.

Supported families: free groups, free-abelian groups, and free products of
such atoms.  An element is a canonical word over a symmetrized single-letter
alphabet; the formal inverse of a lowercase generator is its uppercase twin.
Left cosets of a designated peripheral atom are enumerated with shortlex-least
representatives and round-robin interleaved indices.

``WordBall`` is a ball as integer element ids.  Its breadth-first search
forms each product once, and those products give the Cayley edges too.  The
ball is geodesically convex, so the word metric |x^-1 y| on it is the
distance in its Cayley graph, which ``graphs.bfs`` searches; no normal form
of x^-1 y is formed.  ``GroupSpec.word_metric`` stays the normal-form oracle.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, UnknownLetterError, vertex_budget
from .graphs import csr

_FREE_POOL = "abcdefgh"
_ABELIAN_POOL = "xyzuvw"


@dataclass(frozen=True)
class Atom:
    """One free factor: a free or free-abelian group with named generators."""

    kind: str  # "free" | "abelian"
    letters: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("free", "abelian"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if not self.letters:
            raise ValueError("atom needs at least one generator")
        for s in self.letters:
            if len(s) != 1 or not s.islower():
                raise ValueError(f"generator names must be single lowercase letters, got {s!r}")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate generator names in atom")

    @property
    def rank(self) -> int:
        return len(self.letters)


class GroupSpec:
    """A free product of free / free-abelian atoms with a symmetrized alphabet.

    The alphabet lists, for each atom in order, each generator followed by its
    formal inverse, e.g. ``(x, X, y, Y, t, T)``.  Words are plain strings over
    this alphabet; ``normal_form`` returns the canonical representative.
    """

    def __init__(self, atoms: Sequence[Atom]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        seen = set()
        for a in atoms:
            for s in a.letters:
                if s in seen:
                    raise ValueError(f"generator {s!r} used by two atoms")
                seen.add(s)
        self.atoms = atoms
        alphabet = []
        atom_of = {}
        for i, a in enumerate(atoms):
            for s in a.letters:
                alphabet.extend((s, s.upper()))
                atom_of[s] = i
                atom_of[s.upper()] = i
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self._atom_of = atom_of
        self._pos = {c: i for i, c in enumerate(self.alphabet)}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def free(rank: int, names: Sequence[str] | None = None) -> "GroupSpec":
        """Free group of the given rank, one rank-1 atom per generator.

        Splitting into rank-1 atoms leaves normal forms and the word metric
        unchanged and makes every cyclic factor available as a peripheral.
        """
        names = tuple(names) if names else tuple(_FREE_POOL[:rank])
        if len(names) != rank:
            raise ValueError("need one name per generator")
        return GroupSpec([Atom("free", (s,)) for s in names])

    @staticmethod
    def free_abelian(rank: int, names: Sequence[str] | None = None) -> "GroupSpec":
        names = tuple(names) if names else tuple(_ABELIAN_POOL[:rank])
        if len(names) != rank:
            raise ValueError("need one name per generator")
        return GroupSpec([Atom("abelian", names)])

    @staticmethod
    def free_product(*parts: "GroupSpec") -> "GroupSpec":
        atoms = []
        for p in parts:
            atoms.extend(p.atoms)
        return GroupSpec(atoms)

    @staticmethod
    def from_config(cfg) -> tuple["GroupSpec", tuple[int, ...]]:
        """Read a spec and peripheral atom indices from a config mapping or JSON path."""
        if isinstance(cfg, (str, bytes)):
            with open(cfg) as fh:
                cfg = json.load(fh)
        family = cfg["family"]
        if family == "free":
            spec = GroupSpec.free(int(cfg["rank"]), cfg.get("names"))
        elif family == "free-abelian":
            spec = GroupSpec.free_abelian(int(cfg["rank"]), cfg.get("names"))
        elif family == "free-product":
            atoms = []
            for a in cfg["atoms"]:
                names = a.get("names")
                if a["kind"] == "free":
                    atoms.extend(GroupSpec.free(int(a["rank"]), names).atoms)
                elif a["kind"] == "free-abelian":
                    atoms.extend(GroupSpec.free_abelian(int(a["rank"]), names).atoms)
                else:
                    raise ValueError(f"unknown atom kind {a['kind']!r}")
            spec = GroupSpec(atoms)
        else:
            raise ValueError(f"unknown family {family!r}")
        peripherals = tuple(int(i) for i in cfg.get("peripherals", ()))
        for i in peripherals:
            if not 0 <= i < len(spec.atoms):
                raise ValueError(f"peripheral atom index {i} out of range")
        return spec, peripherals

    # -- words -------------------------------------------------------------

    def check_letters(self, word: Iterable[str]):
        for c in word:
            if c not in self._atom_of:
                raise UnknownLetterError(c)

    def _canon_syllable(self, atom_idx: int, letters: str) -> str:
        atom = self.atoms[atom_idx]
        if atom.kind == "abelian":
            exps = {s: 0 for s in atom.letters}
            for c in letters:
                exps[c.lower()] += 1 if c.islower() else -1
            out = []
            for s in atom.letters:
                e = exps[s]
                out.append((s if e > 0 else s.upper()) * abs(e))
            return "".join(out)
        # free atom: stack reduction
        stack: list[str] = []
        for c in letters:
            if stack and stack[-1] == c.swapcase():
                stack.pop()
            else:
                stack.append(c)
        return "".join(stack)

    def normal_form(self, word: Iterable[str]) -> str:
        """Canonical form: per-atom reduction with cascading syllable merges."""
        letters = word if isinstance(word, str) else "".join(word)
        self.check_letters(letters)
        # reduce each run of same-atom letters; a vanishing syllable may expose
        # a same-atom merge with the previous result entry, which the next run
        # then absorbs
        result: list[tuple[int, str]] = []
        for atom_idx, raw in self.syllables(letters):
            if result and result[-1][0] == atom_idx:
                raw = result.pop()[1] + raw
            canon = self._canon_syllable(atom_idx, raw)
            if canon:
                result.append((atom_idx, canon))
        return "".join(s for _, s in result)

    def word_metric(self, x: str, y: str) -> int:
        """Left-invariant word metric: geodesic length of x^-1 y.  The normal
        form is canonical, so x^-1 y needs one reduction, not one for x^-1
        and another for the product."""
        return len(self.normal_form(x.swapcase()[::-1] + y))

    def syllables(self, word: str) -> list[tuple[int, str]]:
        """Split a word into its runs of same-atom letters, as (atom index,
        syllable) pairs."""
        out: list[tuple[int, str]] = []
        for c in word:
            i = self._atom_of[c]
            if out and out[-1][0] == i:
                out[-1] = (i, out[-1][1] + c)
            else:
                out.append((i, c))
        return out

    def shortlex_key(self, word: str):
        return (len(word), tuple(self._pos[c] for c in word))

    # -- balls and cosets --------------------------------------------------

    def _bfs(self, radius: int) -> tuple[list[str], list[tuple[int, int]]]:
        """The ball in BFS discovery order, and its Cayley edges as (inner,
        outer) positions in that order.  Every generator changes the total
        exponent by one and every relator has even length, so the Cayley
        graph is bipartite: each edge joins consecutive spheres and is found
        once, from its inner end."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        cap = vertex_budget()
        order = [""]
        index = {"": 0}
        edges = []
        for i, w in enumerate(order):  # the loop sees the appended elements
            if len(w) == radius:
                continue
            for c in self.alphabet:
                nxt = self.normal_form(w + c)
                j = index.get(nxt)
                if j is None:
                    if len(order) >= cap:
                        raise BudgetExceededError(
                            f"ball of radius {radius} exceeds vertex budget {cap}"
                        )
                    j = index[nxt] = len(order)
                    order.append(nxt)
                if len(nxt) > len(w):
                    edges.append((i, j))
        return order, edges


@dataclass(frozen=True)
class CosetEntry:
    index: int  # global index, = a*k + r with r the 1-based peripheral slot
    rep: str  # shortlex-least representative
    slot: int  # 1-based position within the peripheral list
    atom: int  # atom index of the peripheral subgroup


@dataclass(frozen=True)
class CosetTable:
    """Cosets of the peripheral atoms meeting a word-metric ball.

    Entries carry global indices ``a*k + r`` so that index mod k identifies
    the peripheral; indices whose coset does not meet the ball are skipped.
    """

    entries: tuple[CosetEntry, ...]
    peripherals: tuple[int, ...]
    radius: int

    def __len__(self):
        return len(self.entries)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "representative", "peripheral"])
            for e in self.entries:
                w.writerow([e.index, e.rep, e.slot])


class WordBall:
    """The elements of length <= radius as integer ids, with the ball's
    Cayley graph as ``graphs.csr`` arrays (``csr``).

    Ids follow BFS discovery order (``words``); ``edges`` are the Cayley
    edges the BFS formed, each once, as an (m, 2) intp array of (inner,
    outer) id pairs.  ``graphs.bfs`` on ``csr`` gives the word metric
    |x^-1 y| of the ball's elements, in three steps.

    1. The ball is geodesically convex.  Take x and y in it, with normal
       forms c s ... and c t ..., where c is their longest common syllable
       prefix.  A geodesic from x to y runs down x's normal form to c and
       then up y's, through prefixes of x and y.  Where the next syllables s
       and t share an atom, it goes from c s to c t inside c times that
       atom: for a free-abelian atom along a monotone L1 path that first
       shrinks each |coordinate|, and for a free atom along the tree path
       through the common prefix of s and t.  No point c a on it is longer
       than an endpoint, since |c a| = |c| + |a| and |a| <= max(|s|, |t|).
       So a geodesic of every pair lies in the ball, and as no path is
       shorter than a geodesic, the ball's Cayley graph distance is |x^-1 y|.
    2. A coset base g P ∩ ball, with g the shortlex-least representative,
       is g times a ball of P, since g's normal form ends in no syllable of
       P and so |g p| = |g| + |p|.  By step 1 for the one-atom group P, that
       ball is convex in P's Cayley graph.
    3. A Cayley edge with both ends in g P is exactly an edge labelled by a
       letter of P, and d(g p, g q) = |p^-1 q| is P's word metric.  So the
       base's induced Cayley edges give d(g p, g q) (``spaces``).
    """

    def __init__(self, spec: GroupSpec, radius: int):
        self.spec = spec
        self.radius = radius
        self.words, edges = spec._bfs(radius)
        self.edges = np.array(edges, np.intp).reshape(-1, 2)
        self.index = {w: i for i, w in enumerate(self.words)}
        self._buckets: dict[int, dict[str, list[int]]] = {}
        self.csr = csr(len(self.words), *self.edges.T)

    def __len__(self):
        return len(self.words)

    def cosets(self, atom: int) -> dict[str, list[int]]:
        """The ball's ids bucketed by left coset of the atom, keyed by the
        coset's shortlex-least representative (the word without a trailing
        syllable of the atom); one pass, cached."""
        buckets = self._buckets.get(atom)
        if buckets is None:
            atom_of = self.spec._atom_of
            buckets = {}
            for i, w in enumerate(self.words):
                k = len(w)
                while k and atom_of[w[k - 1]] == atom:
                    k -= 1
                buckets.setdefault(w[:k], []).append(i)
            self._buckets[atom] = buckets
        return buckets

    def coset_table(self, peripherals: Sequence[int]) -> CosetTable:
        """Cosets g*P_r meeting the ball, round-robin over r.

        Within each peripheral the cosets are ordered by representative, and
        the global index interleaves peripherals so index = a*k + r.
        """
        spec = self.spec
        peripherals = tuple(peripherals)
        if not peripherals:
            raise ValueError("need at least one peripheral atom")
        for i in peripherals:
            if not 0 <= i < len(spec.atoms):
                raise ValueError(f"peripheral atom index {i} out of range")
        if len(set(peripherals)) != len(peripherals):
            raise ValueError("peripheral atoms must be distinct")
        k = len(peripherals)
        per_slot = [sorted(self.cosets(a), key=spec.shortlex_key) for a in peripherals]
        entries = []
        for a in range(max(len(r) for r in per_slot)):
            for slot0, reps in enumerate(per_slot):
                if a < len(reps):
                    entries.append(
                        CosetEntry(
                            index=a * k + slot0 + 1,
                            rep=reps[a],
                            slot=slot0 + 1,
                            atom=peripherals[slot0],
                        )
                    )
        return CosetTable(entries=tuple(entries), peripherals=peripherals, radius=self.radius)
