import functools
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqokit import (
    Alphabet,
    AlphabetMismatch,
    LabeledWord,
    Word,
    labeled_leq,
    labeled_upset,
    leq_E,
    leq_e,
    parse_word,
    phi,
    support,
)
from wqokit import words

from oracles import embeds_recursive, flag_occurrences, words_upto

AB = Alphabet.from_letters("ab")
ABC = Alphabet.from_letters("abc")


def w(text: str, alpha: Alphabet = AB) -> Word:
    return parse_word(text, alpha)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert Alphabet.indexed(3).names == ("1", "2", "3")
    assert ABC.size == 3
    assert ABC.index("c") == 2
    with pytest.raises(ValueError):
        ABC.index("z")


@pytest.mark.parametrize("letters", ["a,b", "a b", "ab\n", "\ta", "(a", "b)", "[", "]", "{a}"])
def test_from_letters_follows_the_letter_form_rule(letters):
    with pytest.raises(ValueError) as info:
        Alphabet.from_letters(letters)
    assert str(info.value) == (
        f"bad alphabet {letters!r}: letters cannot be spaces or any of (),[]{{}}"
    )


def test_from_letters_keeps_other_characters():
    assert Alphabet.from_letters("a1-_.").names == ("a", "1", "-", "_", ".")
    with pytest.raises(ValueError, match="at least one letter"):
        Alphabet.from_letters("")
    with pytest.raises(ValueError, match="duplicate"):
        Alphabet.from_letters("aba")


def test_doubled_alphabet_layout():
    d = AB.doubled()
    # one object per alphabet, equal alphabets included
    assert AB.doubled() is d and Alphabet.from_letters("ab").doubled() is d
    # letter i with flag f must sit at index 2*i + f
    assert d.names == ("a0", "a1", "b0", "b1")
    assert d.index("b0") == 2 * 1 + 0


def test_word_validation_and_str():
    with pytest.raises(ValueError):
        Word(AB, (0, 2))
    assert str(w("ab")) == "ab"
    assert str(w("")) == "[]"
    assert str(Word(AB.doubled(), (0, 2))) == "[0,2]"
    # the empty word, and every word over multi-character names, is an index list
    multi = Alphabet(("x1", "y"))
    for word in (w(""), Word(ABC), Word(AB.doubled(), (0, 2)), Word(multi), Word(multi, (1, 0))):
        assert str(word) == words._index_form(word)
    assert len(w("aab")) == 3
    assert w("aab").tail() == w("ab")


def test_parse_word_forms():
    assert parse_word("aabbca", ABC).letters == (0, 0, 1, 1, 2, 0)
    assert parse_word("[0,0,1]", AB).letters == (0, 0, 1)
    assert parse_word("[]", AB).letters == ()
    assert parse_word("", AB).letters == ()
    with pytest.raises(ValueError):
        parse_word("[0,x]", AB)
    with pytest.raises(ValueError):
        parse_word("[0,1", AB)
    with pytest.raises(ValueError):
        parse_word("az", AB)
    with pytest.raises(ValueError):
        parse_word("ab", AB.doubled())  # multi-character names need indices


def test_parse_word_is_linear_in_the_word():
    # 20,000 distinct letters; a scan of the alphabet per letter took 7-9 s
    # on a 2-core VM
    text = "".join(chr(0x4E00 + i) for i in range(20_000))
    alpha = Alphabet.from_letters(text)
    start = time.perf_counter()
    word = parse_word(text, alpha)
    assert time.perf_counter() - start < 2.0
    assert word.letters == tuple(range(20_000))
    with pytest.raises(ValueError, match="^letter 'x' is not in alphabet "):
        parse_word(text + "x", alpha)
    # 20,000 one-letter words over the same alphabet: its name table and
    # letter form are worked out once, not once per word parsed or printed
    start = time.perf_counter()
    singles = [parse_word(ch, alpha) for ch in text]
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    printed = [str(u) for u in singles]
    assert time.perf_counter() - start < 2.0
    assert printed == list(text)
    with pytest.raises(ValueError) as info:
        parse_word("x", alpha)
    assert str(info.value) == f"letter 'x' is not in alphabet {text}"


@pytest.mark.parametrize("text", ["a b", "a\tb", "a,b", "a(b", "ab)", "a]", "{a}", "a[0]"])
def test_parse_word_refuses_what_letter_form_excludes(text):
    # even when the alphabet names the character (from_letters refuses such names)
    alpha = Alphabet(tuple("ab \t,()[]{}0"))
    with pytest.raises(ValueError, match="letter-form word"):
        parse_word(text, alpha)


def test_leq_e_examples():
    assert leq_e(w("aabbca", ABC), w("abababcac", ABC))
    assert not leq_e(w("abababcac", ABC), w("aabbca", ABC))
    assert not leq_e(w("ab"), w("ba"))
    for text in ("", "a", "bba"):
        assert leq_e(w(""), w(text))


def test_leq_e_alphabet_mismatch_reports_operands():
    with pytest.raises(AlphabetMismatch) as err:
        leq_e(w("ab", AB), w("ab", ABC))
    assert "ab" in str(err.value) and "abc" in str(err.value)


def test_labeled_leq_checks_the_alphabets_before_the_supports():
    u, v = w("ab", AB), w("ab", ABC)
    with pytest.raises(AlphabetMismatch) as err:
        leq_e(phi(u).word, phi(v).word)
    for sup in ({0, 1}, {0}, set()):  # equal supports, then differing ones
        p, q = LabeledWord(phi(u).word, {0, 1}), LabeledWord(phi(v).word, sup)
        for a, b in ((p, q), (q, p)):
            with pytest.raises(AlphabetMismatch) as got:
                labeled_leq(a, b)
            if a is p:
                assert str(got.value) == str(err.value)
    with pytest.raises(AlphabetMismatch):
        labeled_upset([LabeledWord(phi(u).word, {0}), LabeledWord(phi(v).word, {1})])


def test_leq_e_matches_recursive_definition_random():
    rng = random.Random(5)
    memo: dict = {}
    for _ in range(2000):
        k = rng.choice((2, 3))
        alpha = AB if k == 2 else ABC
        ut = tuple(rng.randrange(k) for _ in range(rng.randint(0, 6)))
        vt = tuple(rng.randrange(k) for _ in range(rng.randint(0, 6)))
        assert leq_e(Word(alpha, ut), Word(alpha, vt)) == embeds_recursive(
            ut, vt, memo
        )


def test_phi_examples():
    p = phi(w("abab"))
    assert p.word.letters == (0, 2, 1, 3)
    assert p.support == {0, 1}
    assert phi(w("aab")).word.letters == (0, 1, 2)
    empty = phi(w(""))
    assert empty.word.letters == () and empty.support == frozenset()


def test_phi_flag_one_only_after_flag_zero():
    for t in words_upto(2, 5):
        seen = set()
        for l in phi(Word(AB, t)).word.letters:
            base, flag = divmod(l, 2)
            if flag:
                assert base in seen
            seen.add(base)


def test_phi_injective_and_support_readable():
    ws = [Word(AB, t) for t in words_upto(2, 5)]
    images = {phi(u).word.letters for u in ws}
    assert len(images) == len(ws)
    for u in ws:
        p = phi(u)
        assert p.support == support(u)
        assert p.support == {l // 2 for l in p.word.letters if l % 2 == 0}


def test_support():
    assert support(w("aabbca", ABC)) == {0, 1, 2}
    assert support(w("")) == frozenset()
    assert support(w("bbb")) == {1}


def test_leq_E_examples():
    assert not leq_E(w("a"), w("ab"))  # supports differ
    assert leq_E(w("ab"), w("aabb"))
    rng = random.Random(6)
    for _ in range(50):
        u = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))))
        assert leq_E(u, u)


def test_leq_E_is_labeled_product_order():
    ws = [Word(AB, t) for t in words_upto(2, 4)]
    for u, v in product(ws, ws):
        assert leq_E(u, v) == labeled_leq(phi(u), phi(v))


def test_embedding_orders_are_partial_orders():
    ws = [Word(AB, t) for t in words_upto(2, 4)]
    n = len(ws)
    for rel in (leq_e, leq_E):
        le = [[rel(ws[i], ws[j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert le[i][i]
            for j in range(n):
                if le[i][j] and le[j][i]:
                    assert i == j
        for i in range(n):
            for j in range(n):
                if not le[i][j]:
                    continue
                for k in range(n):
                    if le[j][k]:
                        assert le[i][k]


def test_strict_embedding_shrinks_length():
    ws = [Word(AB, t) for t in words_upto(2, 5)]
    for u, v in product(ws, ws):
        if leq_e(u, v):
            assert len(u) <= len(v)
            if u != v:
                assert len(u) < len(v)
        if leq_E(u, v) and u != v:
            assert len(u) < len(v)


@st.composite
def word_pairs(draw):
    """Two random words over one alphabet of 1 to 4 letters."""
    k = draw(st.integers(1, 4))
    alpha = Alphabet.from_letters("abcd"[:k])
    letters = st.lists(st.integers(0, k - 1), max_size=8).map(tuple)
    return Word(alpha, draw(letters)), Word(alpha, draw(letters))


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_leq_E_is_product_order_on_phi(pair):
    u, v = pair
    assert leq_E(u, v) == labeled_leq(phi(u), phi(v))


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_leq_E_matches_flagged_recursive_embedding(pair):
    u, v = pair
    expected = set(u.letters) == set(v.letters) and embeds_recursive(
        flag_occurrences(u.letters), flag_occurrences(v.letters), {}
    )
    assert leq_E(u, v) == expected


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_phi_round_trips_and_shares_the_doubled_alphabet(pair):
    u, v = pair
    assert tuple(l // 2 for l in phi(u).word.letters) == u.letters
    assert phi(u).word.alphabet is phi(v).word.alphabet


@settings(max_examples=200, deadline=None)
@given(word_pairs())
def test_alphabet_check_compares_names_not_objects(pair):
    u, v = pair
    k = u.alphabet.size
    twin = Word(Alphabet.from_letters("abcd"[:k]), v.letters)
    assert twin.alphabet is not v.alphabet
    assert leq_e(u, twin) == leq_e(u, v)
    assert leq_E(u, twin) == leq_E(u, v)
    other = Word(Alphabet.from_letters("wxyz"[:k]), v.letters)
    for rel in (leq_e, leq_E):
        with pytest.raises(AlphabetMismatch):
            rel(u, other)


def _assert_leq_E_and_phi_match_the_oracles(u: Word, v: Word) -> None:
    expected = set(u.letters) == set(v.letters) and embeds_recursive(
        flag_occurrences(u.letters), flag_occurrences(v.letters), {}
    )
    assert leq_E(u, v) == expected
    assert labeled_leq(phi(u), phi(v)) == expected
    for x in (u, v):
        assert phi(x).word.letters == flag_occurrences(x.letters)
        assert phi(x).support == support(x)


@functools.cache
def _filler() -> list[Word]:
    """More distinct words than the flagged-form cache holds, each longer
    than any word of word_pairs()."""
    size = words._flagged.cache_info().maxsize
    return [Word(AB, tuple(int(b) for b in format(n, "b"))) for n in range(512, 513 + size)]


@settings(max_examples=50, deadline=None)
@given(word_pairs())
def test_leq_E_and_phi_survive_cache_clear_and_eviction(pair):
    u, v = pair
    cache = words._flagged
    assert cache.cache_info().maxsize is not None
    cache.cache_clear()
    _assert_leq_E_and_phi_match_the_oracles(u, v)
    # equal letter tuples, already cached, over another alphabet
    other = Alphabet.from_letters("wxyz"[: u.alphabet.size])
    for a, b in ((u, Word(other, u.letters)), (Word(other, v.letters), v)):
        with pytest.raises(AlphabetMismatch):
            leq_E(a, b)
    assert phi(Word(other, u.letters)).word.alphabet == other.doubled()
    for f in _filler():
        assert leq_E(f, f)
    misses = cache.cache_info().misses
    _assert_leq_E_and_phi_match_the_oracles(u, v)
    # u and v were evicted, so the first lookup of each missed
    assert cache.cache_info().misses - misses == len({u.letters, v.letters})
