import copy
import pickle
import random
import types
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wqokit import (
    INF,
    Alphabet,
    DimensionMismatch,
    LabeledWord,
    UpSet,
    Word,
    dickson_upset,
    format_upset_block,
    format_vec,
    intersect_dickson,
    labeled_leq,
    leq,
    leq_E,
    leq_e,
    parse_upset_block,
    parse_vec,
    parse_word,
    phi,
    phi_slice,
    quotient,
    som,
    word_upset,
)
from wqokit import upset
from wqokit.transport import dickson_word_embedding, labeling_embedding, transport_upset

from oracles import (
    box,
    embeds_recursive,
    flag_occurrences,
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
    with pytest.raises(DimensionMismatch) as err:
        phi_slice(f, (1, 2, 3))
    assert str(err.value) == "slice point (1,2,3) needs generators of dimension 4, got (1,2,3)"


def _nat_vecs(m: int, hi: int):
    return st.tuples(*[st.integers(0, hi)] * m)


@st.composite
def slice_cases(draw):
    """Generators of dimension m + 1, a point of dimension m, and a point of
    another dimension."""
    m = draw(st.integers(0, 3))
    gens = draw(st.lists(_nat_vecs(m + 1, 4), max_size=5))
    wrong = draw(st.integers(0, 4).filter(lambda n: n != m))
    return gens, draw(_nat_vecs(m, 5)), draw(_nat_vecs(wrong, 5))


@settings(max_examples=300, deadline=None)
@given(slice_cases())
def test_phi_slice_matches_scan_oracle_in_every_dimension(case):
    gens, a, wrong = case
    f = dickson_upset(gens)
    want = phi_slice_scan(gens, a)
    assert phi_slice(f, a) == (INF if want is None else want)
    if not gens:
        assert phi_slice(f, wrong) == INF
        return
    with pytest.raises(DimensionMismatch) as err:
        phi_slice(f, wrong)
    assert str(err.value) == (
        f"slice point {format_vec(wrong)} needs generators of dimension "
        f"{len(wrong) + 1}, got {format_vec(f.gens[0])}"
    )


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
    with pytest.raises(ValueError, match="^cannot combine upsets over different orders$"):
        intersect_dickson(dickson_upset([(1, 2)]), UpSet(_custom_leq, [(1, 2)]))
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


# ------------------------------------------------ the kernels of UpSet

XY = Alphabet.from_letters("xy")  # as large as AB, other names
ABC = Alphabet.from_letters("abc")  # room for "ab" to embed in "abc", another support
_MEMO: dict = {}


def _embeds_rec(u: tuple, v: tuple) -> bool:
    return embeds_recursive(u, v, _MEMO)


def _custom_leq(a, b) -> bool:
    """An order the kernel table does not know: it takes the default row."""
    return leq(a, b)


# order -> the oracle deciding it from first principles
ORACLES = {
    leq: vec_le,
    _custom_leq: vec_le,
    leq_e: lambda u, v: _embeds_rec(u.letters, v.letters),
    leq_E: lambda u, v: set(u.letters) == set(v.letters)
    and _embeds_rec(flag_occurrences(u.letters), flag_occurrences(v.letters)),
    labeled_leq: lambda p, q: p.support == q.support
    and _embeds_rec(p.word.letters, q.word.letters),
}
LIBRARY_ORDERS = (leq, leq_e, leq_E, labeled_leq)


def _letters(k: int):
    return st.lists(st.integers(0, k - 1), max_size=4).map(tuple)


def _elements(order, alpha: Alphabet, dim: int):
    """A strategy for the elements of one carrier of order."""
    if order in (leq, _custom_leq):
        return _nat_vecs(dim, 3)
    if order is labeled_leq:
        double = alpha.doubled()
        return st.builds(
            lambda t, sup: LabeledWord(Word(double, t), sup),
            _letters(double.size),
            st.frozensets(st.integers(0, alpha.size - 1)),
        )
    return _letters(alpha.size).map(lambda t: Word(alpha, t))


@st.composite
def kernel_cases(draw, orders=tuple(ORACLES), dims=st.integers(1, 3)):
    """An order, generators, a second generating set, queries, and one
    element of another carrier (another dimension or alphabet)."""
    order = draw(st.sampled_from(orders))
    dim = draw(dims)
    elems = _elements(order, AB, dim)
    other_dim = draw(st.integers(0, 4).filter(lambda n: n != dim))
    stranger = draw(_elements(order, XY, other_dim))
    return (
        order,
        draw(st.lists(elems, max_size=6)),
        draw(st.lists(elems, max_size=4)),
        draw(st.lists(elems, min_size=1, max_size=4)),
        stranger,
    )


def _pairwise_minimal(order, elems) -> tuple:
    """Normalization with the checked predicate on every pair."""
    kept: list = []
    for x in sorted(dict.fromkeys(elems), key=upset._key):
        if not any(order(y, x) for y in kept):
            kept.append(x)
    return tuple(kept)


def _raised(f, *args):
    """The type and text of what f(*args) raises; None if it returns."""
    try:
        f(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def _w(*letters: int) -> Word:
    return Word(AB, letters)


def _lw(sup, *letters: int) -> LabeledWord:
    return LabeledWord(Word(AB.doubled(), letters), frozenset(sup))


@settings(max_examples=400, deadline=None)
# vectors of dimension 0 as well as 1-6, whose tries have up to five levels
@given(kernel_cases(dims=st.integers(0, 6)))
# the empty word as a generator
@example((leq_e, [_w(), _w(0, 1)], [_w(1)], [_w(), _w(1, 0)], Word(XY)))
# a query shorter than every generator
@example((leq_E, [_w(0, 1), _w(1, 1, 0)], [_w(1, 0)], [_w(0), _w()], Word(XY)))
# a query equal to a generator
@example((leq_e, [_w(0, 1), _w(1, 1)], [_w(0, 1)], [_w(1, 1), _w(0, 1)], Word(XY)))
@example((
    labeled_leq,
    [phi(_w(0, 1)), phi(_w(1))],
    [phi(_w(0, 1))],
    [phi(_w(0, 1)), phi(_w(1))],
    phi(Word(XY)),
))
# leq_E words of one length with different supports
@example((leq_E, [_w(0, 0), _w(0, 1)], [_w(1, 1), _w(1, 0)], [_w(1, 1), _w(0, 0, 1)], Word(XY)))
@example((
    leq_E,
    [_w(0, 1), _w(0, 0), _w(1, 1)],
    [_w(1, 0), _w(0, 0)],
    [_w(1, 0), _w(1, 1), _w(0, 1, 1)],
    Word(XY),
))
# a leq_E query whose letters embed in a generator's, with another support
@example((
    leq_E,
    [parse_word(t, ABC) for t in ("ab", "c")],
    [parse_word("abc", ABC)],
    [parse_word(t, ABC) for t in ("abc", "abcab", "ab", "cab")],
    Word(XY),
))
# labeled words with the same letters and different supports
@example((
    labeled_leq,
    [_lw({0, 1}, 0, 2), _lw({0}, 0, 2)],
    [_lw({1}, 0, 2), _lw({0, 1}, 0, 2, 2)],
    [_lw({0}, 0, 2), _lw({1}, 0, 2, 2), _lw({0, 1}, 0, 2), _lw((), 0, 2)],
    phi(Word(XY)),
))
def test_kernels_agree_with_the_oracles(case):
    order, gens, others, queries, _ = case
    oracle = ORACLES[order]
    x, y = UpSet(order, gens), UpSet(order, others)
    assert set(x.gens) == minimal_elements(gens, oracle)
    assert x.gens == _pairwise_minimal(order, gens)
    for q in queries:
        assert x.member(q) == any(oracle(g, q) for g in gens)
    for big, small in (((x, gens), (y, others)), ((y, others), (x, gens))):
        want = all(any(oracle(g, h) for g in big[1]) for h in small[1])
        assert big[0].includes(small[0]) == want


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_a_stranger_raises_what_the_checked_predicate_raises(case):
    order, gens, _, _, stranger = case
    x = UpSet(order, gens)
    assert _raised(UpSet, order, gens + [stranger]) == _raised(
        _pairwise_minimal, order, gens + [stranger]
    )
    if not x.gens:
        assert not x.member(stranger)
        return
    expected = _raised(order, x.gens[0], stranger)
    assert expected is not None
    assert _raised(x.member, stranger) == expected
    assert _raised(x.includes, UpSet(order, [stranger])) == expected


@settings(max_examples=100, deadline=None)
@given(kernel_cases(LIBRARY_ORDERS))
def test_copies_rebuild_the_keys(case):
    order, gens, _, queries, _ = case
    x = UpSet(order, gens)
    clones = [copy.copy(x), copy.deepcopy(x)] + [
        pickle.loads(pickle.dumps(x, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert clone == x and hash(clone) == hash(x) and repr(clone) == repr(x)
        assert clone._keys == x._keys
        assert [clone.member(q) for q in queries] == [x.member(q) for q in queries]
    # the keys are derived, not a field
    bare = copy.copy(x)
    UpSet._keys.__set__(bare, ())
    assert bare == x and hash(bare) == hash(x) and repr(bare) == repr(x)
    assert UpSet.__match_args__ == ("leq", "gens")
    match bare:
        case UpSet(o, g):
            assert (o, g) == (order, x.gens)


# n distinct elements of one carrier, none below another, and a query
CHECK_CASES = {
    "dickson": (leq, [(0, 3), (1, 1), (3, 0)], (2, 2)),
    "leq_e": (leq_e, [Word(AB, t) for t in ((0, 0), (0, 1), (1, 0))], Word(AB, (1, 0, 1))),
    "leq_E": (leq_E, [Word(AB, t) for t in ((0,), (1,), (0, 1))], Word(AB, (0, 1, 1))),
    "labeled": (
        labeled_leq,
        [LabeledWord(Word(AB.doubled(), t), {0}) for t in ((0,), (1, 1), (2, 3))],
        LabeledWord(Word(AB.doubled(), (0, 1)), {0}),
    ),
}


@pytest.mark.parametrize("name", CHECK_CASES)
def test_each_call_checks_the_carrier_once(name, monkeypatch):
    order, elems, query = CHECK_CASES[name]
    check, keyof, raw, size = upset._KERNELS[order]
    pairs = []

    def counted(a, b):
        pairs.append((a, b))
        check(a, b)

    monkeypatch.setitem(upset._KERNELS, order, (counted, keyof, raw, size))
    x = UpSet(order, elems + elems[::-1])
    assert len(x.gens) == len(elems) and len(pairs) == len(elems) - 1
    pairs.clear()
    assert x.member(query) and pairs == [(x.gens[0], query)]
    pairs.clear()
    assert not UpSet(order).member(query) and pairs == []
    assert x.includes(x) and pairs == [(x.gens[0], x.gens[0])]


# ------------------------------------- comparisons the length rule saves

WORD_ORDERS = (leq_e, leq_E, labeled_leq)
# all 27 words of length 3 over abc: each word order keeps them all
ABC3 = [Word(Alphabet.from_letters("abc"), t) for t in product(range(3), repeat=3)]


def _element(order, w: Word):
    return phi(w) if order is labeled_leq else w


def test_sizes_are_read_without_a_python_call():
    # member and includes bisect the keys by size on every query
    for order, (_, _, _, size) in upset._KERNELS.items():
        assert size is None or not isinstance(size, types.FunctionType), order


def _counted_raw(monkeypatch, order) -> list:
    """The pairs of keys that order's raw comparison sees from now on."""
    check, keyof, raw, size = upset._KERNELS[order]
    seen = []

    def counted(j, k):
        seen.append((j, k))
        return raw(j, k)

    monkeypatch.setitem(upset._KERNELS, order, (check, keyof, counted, size))
    return seen


@pytest.mark.parametrize("order", WORD_ORDERS, ids=lambda o: o.__name__)
def test_words_of_one_length_are_never_compared(order, monkeypatch):
    seen = _counted_raw(monkeypatch, order)
    elems = [_element(order, w) for w in ABC3]
    x, subset, overlap = (UpSet(order, elems[i:j]) for i, j in ((0, 20), (5, 15), (15, 25)))
    calls = {"building": len(seen)}
    seen.clear()
    for name, ask, want in (
        ("a generator", lambda: x.member(elems[3]), True),
        ("another word", lambda: x.member(elems[20]), False),
        ("a subset", lambda: x.includes(subset), True),
        ("an overlap", lambda: x.includes(overlap), False),
    ):
        assert ask() is want
        calls[name] = len(seen)
        seen.clear()
    assert len(x.gens) == 20
    # comparing every pair makes 190 + 45 + 45 when building the three
    # upsets, then 4, 20, 105 and 110 (a pass over x up to the first hit)
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("order", WORD_ORDERS, ids=lambda o: o.__name__)
def test_only_shorter_generators_are_compared(order, monkeypatch):
    seen = _counted_raw(monkeypatch, order)
    abc = ABC3[0].alphabet
    x = UpSet(order, [_element(order, Word(abc, t)) for t in ((0,), (1, 2), (2, 2), (1, 1, 1))])
    assert len(x.gens) == 4
    seen.clear()
    # cbb meets a, bc and cc, and not bbb, which is of its own length
    assert not x.member(_element(order, Word(abc, (2, 1, 1))))
    assert len(seen) == 3


def test_a_quotient_makes_a_pinned_number_of_comparisons(monkeypatch):
    abc = ABC3[0].alphabet
    x = word_upset(parse_word(t, abc) for t in ("aab", "abc", "bbb", "bcc", "cab", "ccc"))
    seen = _counted_raw(monkeypatch, leq_e)
    q = quotient(0, x)
    assert [str(g) for g in q.gens] == ["ab", "bc", "bbb", "ccc"]
    # the tails ab and bc are not compared with each other, nor ccc with
    # bbb, the word of its length kept before it: comparing every pair
    # makes 9
    assert len(seen) == 7


# ------------------------------------------- the laws of the upset algebra


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_union_includes_and_intersection_laws(case):
    # the universe holds every generator of x and y, so inclusion on it
    # is inclusion of the sets
    order, gens, others, queries, _ = case
    x, y = UpSet(order, gens), UpSet(order, others)
    universe = gens + others + queries
    xy = x.union(y)
    for v in universe:
        assert xy.member(v) == (x.member(v) or y.member(v))
    for big, small in ((x, y), (y, x), (xy, x), (xy, y)):
        assert big.includes(small) == all(big.member(v) for v in universe if small.member(v))
    assert (x.includes(y) and y.includes(x)) == (x == y)
    if order is leq:
        both = intersect_dickson(x, y)
        for v in universe:
            assert both.member(v) == (x.member(v) and y.member(v))


@settings(max_examples=300, deadline=None)
@given(kernel_cases((leq_e, leq_E)), st.integers(0, 1))
# a.ba = aba lies above ab under leq_E, so ba is in that quotient
@example((leq_E, [Word(AB, (0, 1))], [], [Word(AB, (1, 0))], Word(XY)), 0)
def test_quotient_law_or_refusal(case, a):
    order, gens, _, queries, _ = case
    x = UpSet(order, gens)
    try:
        q = quotient(a, x)
    except ValueError:
        assert order is not leq_e
        return
    for y in queries:
        assert q.member(y) == x.member(Word(AB, (a,) + y.letters))


@settings(max_examples=200, deadline=None)
@given(kernel_cases((leq, leq_E)))
def test_transport_reflects_membership(case):
    order, gens, _, queries, _ = case
    f = dickson_word_embedding(len(queries[0])) if order is leq else labeling_embedding()
    x = UpSet(order, gens)
    t = transport_upset(f, x)
    for v in queries:
        assert t.member(f(v)) == x.member(v)


@settings(max_examples=200, deadline=None)
@given(kernel_cases((leq,)))
def test_phi_slice_is_antitone(case):
    _, gens, _, queries, _ = case
    f = dickson_upset(gens)
    points = [v[:-1] for v in queries]
    for a, b in product(points, points):
        if leq(a, b):
            assert phi_slice(f, a) >= phi_slice(f, b)


# one element of each order's carrier
ELEMENT = {
    leq: (1, 2),
    _custom_leq: (1, 2),
    leq_e: Word(AB, (0, 1)),
    leq_E: Word(AB, (0, 1)),
    labeled_leq: phi(Word(AB, (0, 1))),
}
# operation -> (call on one upset, the orders it takes as named, the orders it refuses)
REFUSALS = {
    "quotient": (lambda x: quotient(0, x), "leq_e", (leq, _custom_leq, leq_E, labeled_leq)),
    "som": (som, "a word order", (leq, labeled_leq, _custom_leq)),
    "intersect_dickson": (
        lambda x: intersect_dickson(x, x), "leq", (_custom_leq, leq_e, leq_E, labeled_leq)
    ),
    "phi_slice": (lambda x: phi_slice(x, (1,)), "leq", (_custom_leq, leq_e, leq_E, labeled_leq)),
}


@pytest.mark.parametrize("op,order", [
    pytest.param(op, order, id=f"{op}-{order.__name__}")
    for op, (_, _, refused) in REFUSALS.items()
    for order in refused
])
def test_each_operation_refuses_the_orders_it_does_not_take(op, order):
    call, takes, _ = REFUSALS[op]
    # som refuses a custom order by its generators, so it answers the
    # empty upset (test_som_under_a_custom_order_reads_the_generators)
    empty = () if (op, order) == ("som", _custom_leq) else (UpSet(order),)
    for x in (*empty, UpSet(order, [ELEMENT[order]])):
        with pytest.raises(ValueError) as err:
            call(x)
        assert str(err.value) == f"{op} takes upsets under {takes}, not under {order.__name__}"


def _custom_word_leq(u, v) -> bool:
    """A word order the kernel table does not know."""
    return leq_e(u, v)


def test_som_under_a_custom_order_reads_the_generators():
    assert som(UpSet(_custom_word_leq, [parse_word(t, AB) for t in ("ab", "ba", "bab")])) == {0, 1}
    assert som(UpSet(_custom_word_leq)) == frozenset()
    assert som(UpSet(_custom_leq)) == frozenset()


def test_a_generator_of_an_unsupported_type_is_refused():
    for gens in ([1], [(1, 2), 1]):
        with pytest.raises(TypeError, match="^unsupported generator type int$"):
            UpSet(_custom_leq, gens)
