import random
from itertools import product

import pytest

from wqokit import (
    INF,
    Alphabet,
    DimensionMismatch,
    LabeledWord,
    UpSet,
    Word,
    dickson_upset,
    format_upset_block,
    intersect_dickson,
    labeled_leq,
    leq_E,
    leq_e,
    parse_upset_block,
    parse_vec,
    parse_word,
    phi_slice,
    quotient,
    som,
    word_upset,
)

from oracles import (
    box,
    embeds_recursive,
    minimal_elements,
    phi_slice_scan,
    rand_letters,
    rand_vec,
    vec_le,
    vec_points,
    word_points,
    words_upto,
)

AB = Alphabet.from_letters("ab")


def wup(*texts: str) -> UpSet:
    return word_upset(parse_word(t, AB) for t in texts)


def test_normalize_examples():
    assert dickson_upset([(1, 2), (2, 1), (2, 2)]).gens == ((1, 2), (2, 1))
    assert dickson_upset([]).gens == ()
    x = wup("ab", "ba", "aba")
    assert tuple(str(g) for g in x.gens) == ("ab", "ba")


def test_normalize_is_canonical_and_idempotent():
    rng = random.Random(15)

    def check_vectors(gens):
        x = dickson_upset(gens)
        assert dickson_upset(x.gens) == x
        assert dickson_upset(reversed(gens)) == x
        assert set(x.gens) == minimal_elements(gens, vec_le)
        assert list(x.gens) == sorted(x.gens, key=lambda g: (len(g), g))

    for _ in range(300):
        check_vectors([rand_vec(rng, 2, 4) for _ in range(rng.randint(0, 5))])
    # dimension 1, 1,202 and 0
    pad = (0,) * 1200
    for _ in range(100):
        check_vectors([rand_vec(rng, 1, 4) for _ in range(rng.randint(0, 5))])
        check_vectors([rand_vec(rng, 2, 4) + pad for _ in range(rng.randint(0, 5))])
    check_vectors([(), ()])

    abc = Alphabet.from_letters("abc")

    def word_key(w):
        return (len(w.letters), w.letters)

    def rand_gen(leq):
        w = Word(abc, rand_letters(rng, 3, 4))
        if leq is labeled_leq:
            return LabeledWord(w, {l for l in range(3) if rng.random() < 0.5})
        return w

    for leq in (leq_e, leq_E, labeled_leq):
        for _ in range(300):
            gens = [rand_gen(leq) for _ in range(rng.randint(0, 6))]
            x = UpSet(leq, gens)
            assert UpSet(leq, x.gens) == x
            assert UpSet(leq, reversed(gens)) == x
            assert set(x.gens) == minimal_elements(gens, leq)
            if leq is labeled_leq:
                key = lambda g: (*word_key(g.word), tuple(sorted(g.support)))
            else:
                key = word_key
            assert list(x.gens) == sorted(x.gens, key=key)


def test_member_examples():
    assert dickson_upset([(1, 2)]).member((3, 2))
    assert not wup("ab").member(parse_word("ba", AB))
    empty = dickson_upset([])
    for p in box(2, 2):
        assert not empty.member(p)


def test_includes_examples():
    # includes(X, Y) decides Y inside X
    assert dickson_upset([(0, 1)]).includes(dickson_upset([(1, 2)]))
    assert not dickson_upset([(1, 2)]).includes(dickson_upset([(0, 1)]))
    x = wup("ab", "ba")
    assert x.includes(x)


def test_union_examples():
    assert dickson_upset([(1, 0)]).union(dickson_upset([(0, 1)])).gens == (
        (0, 1),
        (1, 0),
    )
    assert dickson_upset([(1, 0)]).union(dickson_upset([(2, 0)])) == (
        dickson_upset([(1, 0)])
    )
    x = wup("ab", "ba")
    assert x.union(word_upset([])) == x


def test_intersect_examples():
    assert intersect_dickson(
        dickson_upset([(1, 0)]), dickson_upset([(0, 1)])
    ).gens == ((1, 1),)
    assert intersect_dickson(
        dickson_upset([(2, 1)]), dickson_upset([(1, 2)])
    ).gens == ((2, 2),)
    x = dickson_upset([(1, 2), (3, 0)])
    assert intersect_dickson(x, x) == x


def test_vector_ops_match_point_semantics():
    rng = random.Random(16)
    pts = box(4, 2)
    for _ in range(150):
        gx = [rand_vec(rng, 2, 4) for _ in range(rng.randint(1, 4))]
        gy = [rand_vec(rng, 2, 4) for _ in range(rng.randint(1, 4))]
        x, y = dickson_upset(gx), dickson_upset(gy)
        ex, ey = vec_points(gx, pts), vec_points(gy, pts)
        assert {p for p in pts if x.member(p)} == ex
        assert x.includes(y) == (ey <= ex)
        assert {p for p in pts if x.union(y).member(p)} == (ex | ey)
        assert {p for p in pts if intersect_dickson(x, y).member(p)} == (ex & ey)


def test_word_ops_match_point_semantics():
    rng = random.Random(17)
    universe = words_upto(2, 5)
    memo: dict = {}
    for _ in range(100):
        gx = [rand_letters(rng, 2, 4) for _ in range(rng.randint(1, 3))]
        gy = [rand_letters(rng, 2, 4) for _ in range(rng.randint(1, 3))]
        x = word_upset(Word(AB, g) for g in gx)
        y = word_upset(Word(AB, g) for g in gy)
        ex = word_points(gx, universe, memo)
        ey = word_points(gy, universe, memo)
        assert {t for t in universe if x.member(Word(AB, t))} == ex
        assert x.includes(y) == (ey <= ex)
        assert {t for t in universe if x.union(y).member(Word(AB, t))} == (
            ex | ey
        )


def test_phi_slice_examples():
    f = dickson_upset([(1, 2), (3, 0)])
    assert phi_slice(f, (0,)) == INF
    assert phi_slice(f, (1,)) == 2
    assert phi_slice(f, (3,)) == 0


def test_phi_slice_matches_scan_oracle():
    rng = random.Random(18)
    for _ in range(300):
        gens = [rand_vec(rng, 3, 5) for _ in range(rng.randint(1, 4))]
        f = dickson_upset(gens)
        a = rand_vec(rng, 2, 6)
        want = phi_slice_scan(gens, a)
        got = phi_slice(f, a)
        assert got == (INF if want is None else want)


def test_phi_slice_dimension_check():
    f = dickson_upset([(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        phi_slice(f, (1, 2, 3))


def test_quotient_examples():
    assert tuple(str(g) for g in quotient(0, wup("ab", "ba")).gens) == ("b",)
    assert tuple(str(g) for g in quotient(0, wup("b")).gens) == ("b",)
    assert quotient(0, wup("a")).gens == (Word(AB),)  # the full set


def test_quotient_matches_definition():
    rng = random.Random(19)
    universe = words_upto(2, 5)
    memo: dict = {}
    for _ in range(150):
        gens = [rand_letters(rng, 2, 4) for _ in range(rng.randint(1, 3))]
        x = word_upset(Word(AB, g) for g in gens)
        a = rng.randrange(2)
        q = quotient(a, x)
        for t in universe:
            want = any(embeds_recursive(g, (a,) + t, memo) for g in gens)
            assert q.member(Word(AB, t)) == want


def test_som_examples():
    assert som(wup("ab", "ba")) == {0, 1}
    assert som(wup("")) == frozenset()
    assert som(word_upset([])) == frozenset()


def test_mixed_orders_and_dimensions_rejected():
    with pytest.raises(ValueError):
        dickson_upset([(1, 2)]).union(wup("ab"))
    with pytest.raises(DimensionMismatch):
        dickson_upset([(1, 2), (1, 2, 3)])
    # the first vector in canonical order and the first of another dimension
    mixes = [
        ([(1, 2, 3, 4), (1, 2, 3), (1, 2)], "(1,2) is 2-dimensional, (1,2,3) is 3-dimensional"),
        ([(5,), (), (4,)], "() is 0-dimensional, (4) is 1-dimensional"),
        ([(3,), (2, 0), (1, 1)], "(3) is 1-dimensional, (1,1) is 2-dimensional"),
    ]
    for gens, message in mixes:
        with pytest.raises(DimensionMismatch) as err:
            dickson_upset(gens)
        assert str(err.value) == "dimension mismatch: " + message
    wide = (0,) * 1200
    with pytest.raises(DimensionMismatch, match=r"is 1200-dimensional, .* is 1201-dimensional$"):
        dickson_upset([wide + (0,), wide])
    with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: \(1\) is 1-dim"):
        dickson_upset([(1,)]).union(dickson_upset([wide]))


def test_upsets_hash_by_canonical_form():
    a = dickson_upset([(1, 2), (2, 1), (2, 2)])
    b = dickson_upset([(2, 1), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_saturating_unions_stabilize_on_minimal_elements():
    # unions over a growing prefix stop changing once every minimal
    # element of the input has appeared
    rng = random.Random(21)
    for _ in range(100):
        elems = [rand_vec(rng, 2, 4) for _ in range(rng.randint(1, 12))]
        acc = dickson_upset([])
        prev = acc
        for e in elems:
            acc = acc.union(dickson_upset([e]))
            assert acc.includes(prev)
            prev = acc
        assert set(acc.gens) == minimal_elements(elems, vec_le)


def test_block_parse_and_format_roundtrip():
    name, toks = parse_upset_block("upset F { (1,2) (3,0) }")
    assert name == "F" and toks == ["(1,2)", "(3,0)"]
    name, toks = parse_upset_block("upset X {\n  ab\n  ba\n}")
    assert name == "X" and toks == ["ab", "ba"]
    name, toks = parse_upset_block("upset {\n}")
    assert name is None and toks == []
    with pytest.raises(ValueError):
        parse_upset_block("(1,2) (3,0)")

    f = dickson_upset([(3, 0), (1, 2)])
    block = format_upset_block(f, "F")
    assert block == "upset F {\n  (1,2)\n  (3,0)\n}"
    name2, toks2 = parse_upset_block(block)
    assert name2 == "F"
    assert dickson_upset(parse_vec(t) for t in toks2) == f

    x = wup("ba", "ab")
    assert format_upset_block(x) == "upset {\n  ab\n  ba\n}"
