import pytest
from hypothesis import example, given, settings, strategies as st

from horokit.errors import BUDGET_ENV_VAR, BudgetExceededError, UnknownLetterError
import numpy as np

from horokit.groups import Atom, GroupSpec, WordBall, enumerate_cosets

F2 = GroupSpec.free(2)
ZA2 = GroupSpec.free_abelian(2, names=("x", "y"))
PROD = GroupSpec.free_product(
    GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
)


def test_alphabet_is_symmetrized():
    for spec in (F2, ZA2, PROD):
        letters = set(spec.alphabet)
        assert all(c.swapcase() in letters for c in letters)
        assert "" not in letters


def test_normal_form_free_reduction():
    assert F2.normal_form("aAb") == "b"
    assert F2.normal_form("abBA") == ""
    assert F2.normal_form("abA") == "abA"


def test_normal_form_abelian_sorting():
    assert ZA2.normal_form("xyx") == "xxy"
    assert ZA2.normal_form("yxY") == "x"
    assert ZA2.normal_form("xX") == ""


def test_normal_form_free_product_syllables():
    w = PROD.normal_form("xtxT")
    assert w == "xtxT"
    assert len(w) == 4
    assert [a for a, _ in PROD.syllables(w)] == [0, 1, 0, 1]


def test_normal_form_unknown_letter():
    with pytest.raises(UnknownLetterError) as exc:
        F2.normal_form("az")
    assert "z" in str(exc.value)


def _oracle_reduce(spec, word):
    # test-local syllable reducer: repeatedly canonicalize adjacent runs
    atom_of = {c: i for i, a in enumerate(spec.atoms) for s in a.letters for c in (s, s.upper())}
    syl = [(atom_of[c], c) for c in word]
    changed = True
    while changed:
        changed = False
        out = []
        for a, s in syl:
            if out and out[-1][0] == a:
                out[-1] = (a, out[-1][1] + s)
                changed = True
            else:
                out.append((a, s))
        syl = []
        for a, s in out:
            canon = spec._canon_syllable(a, s)
            if canon != s:
                changed = True
            if canon:
                syl.append((a, canon))
    return "".join(s for _, s in syl)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xXyYtT", max_size=8))
def test_normal_form_matches_independent_reducer(word):
    assert PROD.normal_form(word) == _oracle_reduce(PROD, word)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="aAbB", max_size=8))
def test_normal_form_idempotent_free(word):
    nf = F2.normal_form(word)
    assert F2.normal_form(nf) == nf


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="xXyY", max_size=8))
def test_normal_form_idempotent_abelian(word):
    nf = ZA2.normal_form(word)
    assert ZA2.normal_form(nf) == nf


def _inverse(spec, word):
    return spec.normal_form(word.swapcase()[::-1])


def test_inverse_involution():
    for spec, word in ((F2, "abA"), (ZA2, "xxY"), (PROD, "xtxT")):
        w = spec.normal_form(word)
        assert spec.normal_form(w + _inverse(spec, w)) == ""
        assert _inverse(spec, _inverse(spec, w)) == w


def test_word_metric_basics():
    assert F2.word_metric("", "") == 0
    assert ZA2.word_metric("", "xxyyy") == 5
    assert F2.word_metric("a", "b") == 2


def test_word_metric_axioms_and_left_invariance():
    ball = PROD.ball(2)
    small = ball[:12]
    for x in small:
        assert PROD.word_metric(x, x) == 0
        for y in small:
            d = PROD.word_metric(x, y)
            assert d == PROD.word_metric(y, x)
            assert (d == 0) == (x == y)
    g = "t"
    for x in small:
        for y in small:
            gx, gy = PROD.normal_form(g + x), PROD.normal_form(g + y)
            assert PROD.word_metric(gx, gy) == PROD.word_metric(x, y)


def test_triangle_inequality_sampled():
    ball = F2.ball(3)
    pts = ball[::7]
    for x in pts:
        for y in pts:
            for z in pts:
                assert F2.word_metric(x, z) <= F2.word_metric(x, y) + F2.word_metric(y, z)


def test_ball_counts():
    assert len(F2.ball(1)) == 5
    assert len(F2.ball(2)) == 17
    assert len(ZA2.ball(2)) == 13  # 2r^2 + 2r + 1


def test_ball_bfs_order_and_oracle():
    # independent BFS oracle using multiplication only
    ball = F2.ball(2)
    seen = {""}
    frontier = [""]
    for _ in range(2):
        nxt = []
        for w in frontier:
            for c in F2.alphabet:
                y = F2.normal_form(w + c)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    assert set(ball) == seen
    # BFS order: lengths nondecreasing
    lengths = [len(w) for w in ball]
    assert lengths == sorted(lengths)


def test_ball_budget(monkeypatch):
    size = len(F2.ball(4))
    monkeypatch.setenv(BUDGET_ENV_VAR, str(size))
    assert len(F2.ball(4)) == size
    monkeypatch.setenv(BUDGET_ENV_VAR, str(size - 1))
    with pytest.raises(BudgetExceededError):
        F2.ball(4)


def test_coset_enumeration_free2():
    table = enumerate_cosets(F2, (0,), 1)
    assert [(e.index, e.rep) for e in table.entries] == [(1, ""), (2, "b"), (3, "B")]
    # oracle: strip trailing powers of a from every ball element, dedupe
    oracle = {F2.coset_rep(x, 0) for x in F2.ball(1)}
    assert {e.rep for e in table.entries} == oracle


def test_coset_radius_zero():
    table = enumerate_cosets(PROD, (0,), 0)
    assert len(table) == 1 and table.entries[0].rep == ""


def test_coset_round_robin_two_peripherals():
    table = enumerate_cosets(PROD, (0, 1), 0)
    assert [(e.index, e.slot) for e in table.entries] == [(1, 1), (2, 2)]


def test_coset_reps_pairwise_inequivalent():
    table = enumerate_cosets(PROD, (0,), 2)
    reps = [e.rep for e in table.entries]
    atom_letters = {c for s in PROD.atoms[0].letters for c in (s, s.upper())}
    for i, g in enumerate(reps):
        for h in reps[i + 1 :]:
            quotient = PROD.normal_form(_inverse(PROD, g) + h)
            assert quotient and not set(quotient) <= atom_letters


def test_coset_reps_are_shortlex_least():
    table = enumerate_cosets(PROD, (0,), 2)
    ball = PROD.ball(2)
    for e in table.entries:
        members = [x for x in ball if PROD.coset_rep(x, 0) == e.rep]
        best = min(members, key=PROD.shortlex_key)
        assert e.rep == best


def test_coset_csv(tmp_path):
    table = enumerate_cosets(F2, (0,), 1)
    path = tmp_path / "cosets.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,representative,peripheral"
    assert len(lines) == 4


def test_from_config_roundtrip(tmp_path):
    cfg = {
        "family": "free-product",
        "atoms": [
            {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
            {"kind": "free", "rank": 1, "names": ["t"]},
        ],
        "peripherals": [0],
    }
    spec, peripherals = GroupSpec.from_config(cfg)
    assert spec.alphabet == PROD.alphabet
    assert peripherals == (0,)
    import json

    path = tmp_path / "group.json"
    path.write_text(json.dumps(cfg))
    spec2, _ = GroupSpec.from_config(str(path))
    assert spec2.alphabet == spec.alphabet


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("free", ())
    with pytest.raises(ValueError):
        Atom("weird", ("a",))
    with pytest.raises(ValueError):
        GroupSpec.free_product(GroupSpec.free(1, ("a",)), GroupSpec.free(1, ("a",)))


@st.composite
def free_products(draw):
    """1-3 atoms: free of rank 1-2 (a rank-2 free atom is one syllable of
    several letters) or free-abelian of rank 1-3, with distinct letters."""
    pool = iter("abcdefghijklmnopqrsuvw")
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["free", "abelian"]))
        rank = draw(st.integers(1, 2 if kind == "free" else 3))
        atoms.append(Atom(kind, tuple(next(pool) for _ in range(rank))))
    return GroupSpec(atoms)


def _small_ball(spec, most=90):
    radius = 4
    while len(spec.ball(radius)) > most:
        radius -= 1
    return WordBall(spec, radius)


@settings(max_examples=40, deadline=None)
@given(free_products())
@example(GroupSpec.free(1, ("a",)))
@example(GroupSpec([Atom("free", ("a", "b"))]))
@example(GroupSpec.free_abelian(1, ("x",)))
@example(GroupSpec.free_abelian(2, ("x", "y")))
@example(GroupSpec.free_abelian(3, ("x", "y", "z")))
@example(PROD)
@example(
    GroupSpec([Atom("abelian", ("x",)), Atom("free", ("a", "b")), Atom("abelian", ("y", "z"))])
)
def test_syllable_metric_matches_word_metric(spec):
    ball = _small_ball(spec)
    assert ball.words == spec.ball(ball.radius)
    ids = np.arange(len(ball))
    dist = ball.distances(ids, ids)
    for i, x in enumerate(ball.words):
        for j, y in enumerate(ball.words):
            assert dist[i, j] == spec.word_metric(x, y), (x, y)


def test_word_ball_edges_are_the_cayley_edges():
    ball = WordBall(PROD, 3)
    expected = set()
    for i, x in enumerate(ball.words):
        for c in PROD.alphabet:
            j = ball.index.get(PROD.normal_form(x + c))
            if j is not None:
                expected.add((min(i, j), max(i, j)))
    assert sorted(ball.edges) == sorted(expected)  # each edge once


def test_word_ball_cosets_match_coset_rep():
    for spec, atom in ((PROD, 0), (PROD, 1), (F2, 1)):
        ball = WordBall(spec, 3)
        buckets = ball.cosets(atom)
        assert sorted(i for ids in buckets.values() for i in ids) == list(range(len(ball)))
        for rep, ids in buckets.items():
            assert all(spec.coset_rep(ball.words[i], atom) == rep for i in ids)
