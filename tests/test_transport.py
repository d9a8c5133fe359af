import random
from collections import Counter
from itertools import product

import pytest

from wqokit import (
    Alphabet,
    QuasiEmbedding,
    UpSet,
    Word,
    check_quasi_embedding,
    dickson_to_word,
    dickson_upset,
    dickson_word_embedding,
    labeled_leq,
    labeling_embedding,
    leq,
    leq_E,
    leq_e,
    phi,
    transport_upset,
    word_to_labeled,
)

from oracles import box, rand_vec, words_upto

AB = Alphabet.from_letters("ab")


def test_dickson_to_word_examples():
    assert str(dickson_to_word((2, 0, 1))) == "113"
    assert dickson_to_word((0, 0, 0)).letters == ()
    u, v = dickson_to_word((1, 1)), dickson_to_word((0, 2))
    assert str(u) == "12" and str(v) == "22"
    assert not leq_e(u, v)
    assert not leq((1, 1), (0, 2))


def test_dickson_word_embedding_validation():
    with pytest.raises(ValueError):
        dickson_word_embedding(0)


def test_word_to_labeled_examples():
    lw = word_to_labeled(Word(AB, (0, 1, 0, 1)))
    assert lw.word.letters == (0, 2, 1, 3)
    assert lw.support == {0, 1}
    empty = word_to_labeled(Word(AB))
    assert empty.word.letters == () and empty.support == frozenset()
    assert labeled_leq(
        word_to_labeled(Word(AB, (0, 1))), word_to_labeled(Word(AB, (0, 0, 1, 1)))
    ) == leq_E(Word(AB, (0, 1)), Word(AB, (0, 0, 1, 1)))


def test_check_quasi_embedding_small_boxes():
    f = dickson_word_embedding(2)
    pts = box(3, 2)
    ok, witness = check_quasi_embedding(f, product(pts, pts))
    assert ok and witness is None

    g = labeling_embedding()
    ws = [Word(AB, t) for t in words_upto(2, 4)]
    ok, witness = check_quasi_embedding(g, product(ws, ws))
    assert ok and witness is None


def test_check_quasi_embedding_counterexample():
    collapse = QuasiEmbedding(
        name="collapse-to-empty",
        source_leq=leq,
        target_leq=leq_e,
        mapping=lambda x: Word(AB),
    )
    ok, witness = check_quasi_embedding(collapse, [(((1, 0)), ((0, 1)))])
    assert not ok
    assert witness == ((1, 0), (0, 1))


class CountingMap:
    """A mapping that records how often it is called on each element."""

    def __init__(self, mapping):
        self.mapping = mapping
        self.calls = Counter()

    def __call__(self, x):
        self.calls[x] += 1
        return self.mapping(x)


def test_check_quasi_embedding_maps_each_element_once():
    pts = box(3, 2)
    counting = CountingMap(dickson_to_word)
    f = QuasiEmbedding("counted", leq, leq_e, counting)
    ok, witness = check_quasi_embedding(f, product(pts, pts))
    assert ok and witness is None
    assert counting.calls == Counter(pts)


@pytest.mark.parametrize("image", [None, 0, ()], ids=repr)
def test_check_quasi_embedding_maps_each_element_once_whatever_the_image(image):
    # points with a zero coordinate all map to `image`, the others to themselves
    pts = box(3, 2)
    counting = CountingMap(lambda x: image if 0 in x else x)
    target = lambda p, q: p is not image and q is not image and leq(p, q)
    f = QuasiEmbedding("falsy", leq, target, counting)
    ok, witness = check_quasi_embedding(f, product(pts, pts))
    assert ok and witness is None
    assert counting.calls == Counter(pts)


def length_only(x):
    """Vector to a one-letter word of length sum(x): not order-reflecting."""
    return Word(Alphabet.indexed(1), (0,) * sum(x))


def test_check_quasi_embedding_witness_matches_plain_loop():
    rng = random.Random(26)
    pts = box(2, 2)
    for _ in range(50):
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(rng.randint(1, 12))]
        expected = next(
            (
                (a1, a2)
                for a1, a2 in pairs
                if leq_e(length_only(a1), length_only(a2)) and not leq(a1, a2)
            ),
            None,
        )
        counting = CountingMap(length_only)
        f = QuasiEmbedding("length-only", leq, leq_e, counting)
        assert check_quasi_embedding(f, pairs) == (expected is None, expected)
        assert set(counting.calls.values()) == {1}


def test_dickson_to_word_is_monotone():
    pts = box(3, 3)
    for x, y in product(pts, pts):
        if leq(x, y):
            assert leq_e(dickson_to_word(x), dickson_to_word(y))


def test_transport_examples():
    f = dickson_word_embedding(2)
    t = transport_upset(f, dickson_upset([(1, 1)]))
    assert tuple(str(g) for g in t.gens) == ("12",)
    assert transport_upset(f, dickson_upset([])).gens == ()
    full = transport_upset(f, dickson_upset([(0, 0)]))
    assert full.gens == (Word(Alphabet.indexed(2)),)


def test_transport_membership_matches_pointwise_image():
    # w lies in the transported set iff some source point below the box
    # cap maps under it; entries <= 4 make the box a complete search space
    f = dickson_word_embedding(2)
    rng = random.Random(23)
    pts = box(4, 2)
    alpha = Alphabet.indexed(2)
    universe = [Word(alpha, t) for t in words_upto(2, 4)]
    for _ in range(50):
        gens = [rand_vec(rng, 2, 3) for _ in range(rng.randint(1, 3))]
        x = dickson_upset(gens)
        t = transport_upset(f, x)
        for w in universe:
            want = any(x.member(p) and leq_e(f(p), w) for p in pts)
            assert t.member(w) == want


def test_transport_through_labeling_preserves_membership():
    g = labeling_embedding()
    rng = random.Random(24)
    universe = [Word(AB, t) for t in words_upto(2, 4)]
    for _ in range(50):
        gens = [
            Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))))
            for _ in range(rng.randint(1, 3))
        ]
        x = UpSet(leq_E, gens)
        t = transport_upset(g, x)
        for u in universe:
            assert t.member(phi(u)) == x.member(u)


def test_transport_reflects_inclusion():
    f = dickson_word_embedding(2)
    rng = random.Random(25)
    fired = 0
    for _ in range(200):
        gx = [rand_vec(rng, 2, 3) for _ in range(rng.randint(1, 3))]
        gy = list(gx) + [rand_vec(rng, 2, 3)] if rng.random() < 0.5 else [
            rand_vec(rng, 2, 3) for _ in range(rng.randint(1, 3))
        ]
        x, y = dickson_upset(gx), dickson_upset(gy)
        tx, ty = transport_upset(f, x), transport_upset(f, y)
        assert y.includes(x) == ty.includes(tx)
        if ty.includes(tx):
            fired += 1
            assert y.includes(x)
    assert fired > 20
