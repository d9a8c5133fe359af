import random
import time

import pytest

from wqokit import (
    Alphabet,
    PairClass,
    SubseqClass,
    Word,
    classify,
    find_good_pair,
    homogeneous_subsequence,
    is_bad,
    leq,
    leq_E,
    leq_e,
    parse_word,
)

from oracles import first_good_pair, pair_tag, smallest_homogeneous

INT_LE = lambda x, y: x <= y  # noqa: E731
AB = Alphabet(("a", "b"))

TAG_TO_SHAPE = {
    "eq": SubseqClass.CONSTANT,
    "gt": SubseqClass.DESCENDING,
    "lt": SubseqClass.ASCENDING,
    "none": SubseqClass.ANTICHAIN,
}


def test_classify_examples():
    assert classify((1, 2), (1, 2), leq) is PairClass.EQUAL
    assert classify((1, 0), (0, 1), leq) is PairClass.INCOMPARABLE
    abc = Alphabet.from_letters("abc")
    u = parse_word("aabbca", abc)
    v = parse_word("abababcac", abc)
    assert classify(u, v, leq_e) is PairClass.LESS
    assert classify(v, u, leq_e) is PairClass.GREATER


def test_classify_symmetry():
    rng = random.Random(2)
    flipped = {
        PairClass.LESS: PairClass.GREATER,
        PairClass.GREATER: PairClass.LESS,
        PairClass.EQUAL: PairClass.EQUAL,
        PairClass.INCOMPARABLE: PairClass.INCOMPARABLE,
    }
    for _ in range(500):
        a = (rng.randint(0, 3), rng.randint(0, 3))
        b = (rng.randint(0, 3), rng.randint(0, 3))
        assert classify(b, a, leq) is flipped[classify(a, b, leq)]


def test_find_good_pair_examples():
    assert find_good_pair([(1, 0), (0, 1), (1, 1)], leq) == (0, 2)
    assert find_good_pair([(1, 0), (0, 1)], leq) is None
    assert find_good_pair([(2, 2), (1, 1)], leq) is None
    assert find_good_pair([], leq) is None


def test_find_good_pair_matches_scan():
    rng = random.Random(4)
    for _ in range(500):
        seq = [
            (rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(0, 10))
        ]
        assert find_good_pair(seq, leq) == first_good_pair(seq, leq)


def test_is_bad():
    assert is_bad([(1, 0), (0, 1)], leq)
    assert not is_bad([(0, 0), (1, 1)], leq)
    # reversed linear extensions of the box {0,1}^2 are bad
    for ext in (
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
    ):
        assert is_bad(list(reversed(ext)), leq)


def test_bad_means_no_pair_is_less_or_equal():
    rng = random.Random(8)
    for _ in range(300):
        seq = [
            (rng.randint(0, 2), rng.randint(0, 2))
            for _ in range(rng.randint(0, 8))
        ]
        expect = all(
            classify(seq[i], seq[j], leq)
            in (PairClass.GREATER, PairClass.INCOMPARABLE)
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
        )
        assert is_bad(seq, leq) == expect


def test_homogeneous_examples():
    got = homogeneous_subsequence([3, 1, 4, 1, 5, 9, 2, 6], 4, INT_LE)
    assert got is not None
    assert got.shape is SubseqClass.ASCENDING
    assert got.indices == (0, 2, 4, 5)

    got = homogeneous_subsequence([(1, 0), (0, 1)], 2, leq)
    assert got == ((0, 1), SubseqClass.ANTICHAIN)

    assert homogeneous_subsequence([5], 2, INT_LE) is None


def test_homogeneous_constant_and_priority():
    # three equal copies hide among incomparable noise; constant wins
    seq = [(1, 1), (2, 0), (1, 1), (0, 2), (1, 1)]
    got = homogeneous_subsequence(seq, 3, leq)
    assert got == ((0, 2, 4), SubseqClass.CONSTANT)


def test_homogeneous_k_validation():
    with pytest.raises(ValueError):
        homogeneous_subsequence([1, 2], 0, INT_LE)
    got = homogeneous_subsequence([3, 1], 1, INT_LE)
    assert got == ((0,), SubseqClass.CONSTANT)


def test_homogeneous_matches_exhaustive_search():
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(0, 9)
        k = rng.randint(1, 4)
        kind = rng.randrange(4)
        if kind == 0:
            seq = [rng.randint(0, 5) for _ in range(n)]
            lq = INT_LE
        elif kind == 1:
            seq = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
            lq = leq
        else:
            seq = [
                Word(AB, tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))))
                for _ in range(n)
            ]
            lq = leq_e if kind == 2 else leq_E
        want = smallest_homogeneous(seq, k, lq)
        got = homogeneous_subsequence(seq, k, lq)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.indices == want[0]
            assert got.shape is TAG_TO_SHAPE[want[1]]


def test_homogeneous_long_chain_needs_no_backtracking():
    # an inexact bound on the remaining room would backtrack exponentially
    start = time.perf_counter()
    got = homogeneous_subsequence(list(range(200)), 150, INT_LE)
    assert got == (tuple(range(150)), SubseqClass.ASCENDING)
    # 1,0,3,2,...: 2**16 ascending runs of length 16 and none of length 17
    assert homogeneous_subsequence([i ^ 1 for i in range(32)], 17, INT_LE) is None
    assert time.perf_counter() - start < 1.0


def test_homogeneous_witness_is_uniform():
    rng = random.Random(13)
    want_tag = {v: k for k, v in TAG_TO_SHAPE.items()}
    for _ in range(300):
        seq = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(10)]
        got = homogeneous_subsequence(seq, 3, leq)
        if got is None:
            continue
        idxs = got.indices
        assert list(idxs) == sorted(set(idxs))
        for x in range(len(idxs)):
            for y in range(x + 1, len(idxs)):
                tag = pair_tag(seq[idxs[x]], seq[idxs[y]], leq)
                assert tag == want_tag[got.shape]
