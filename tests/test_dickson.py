import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqokit import dickson
from wqokit import (
    DimensionMismatch,
    format_vec,
    is_bad,
    join,
    leq,
    monus,
    parse_vec,
)

from oracles import box, minimal_elements, vec_le


def test_leq_basics():
    assert leq((1, 2), (1, 3))
    assert not leq((2, 0), (1, 3))
    for v in box(3, 3):
        assert leq((0, 0, 0), v)


def test_leq_is_partial_order_exhaustive():
    # reflexivity, antisymmetry, transitivity over the whole box {0..3}^3
    pts = box(3, 3)
    n = len(pts)
    le = [[leq(pts[i], pts[j]) for j in range(n)] for i in range(n)]
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


def test_join_is_least_upper_bound():
    assert join((1, 0), (0, 1)) == (1, 1)
    assert join((2, 1), (1, 2)) == (2, 2)
    pts = box(3, 2)
    for a in pts:
        assert join(a, a) == a
    for a, b in product(pts, pts):
        j = join(a, b)
        assert leq(a, j) and leq(b, j)
        for c in pts:
            if leq(a, c) and leq(b, c):
                assert leq(j, c)


def test_leq_and_join_match_the_oracle():
    for m in (0, 1, 3):
        pts = box(3, m)
        for a, b in product(pts, pts):
            assert leq(a, b) == vec_le(a, b)
            assert join(a, b) == tuple(max(x, y) for x, y in zip(a, b))


def test_monus():
    assert monus((0, 2), (-1, 1)) == (1, 1)
    assert monus((1, 1), (2, 0)) == (0, 1)
    rng = random.Random(1)
    for _ in range(200):
        a = tuple(rng.randint(0, 5) for _ in range(3))
        assert monus(a, (0, 0, 0)) == a
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        assert all(x >= 0 for x in monus(a, d))


def test_dimension_mismatch_reports_both_operands():
    with pytest.raises(DimensionMismatch) as err:
        leq((1, 2), (1, 2, 3))
    assert "(1,2)" in str(err.value) and "(1,2,3)" in str(err.value)
    with pytest.raises(DimensionMismatch):
        join((1,), (1, 2))
    with pytest.raises(DimensionMismatch):
        monus((1,), (1, 2))


def test_parse_and_format_roundtrip():
    assert parse_vec("(1,2,0)") == (1, 2, 0)
    assert parse_vec(" ( 1 , 2 ) ") == (1, 2)
    assert format_vec((1, 2, 0)) == "(1,2,0)"
    rng = random.Random(3)
    for _ in range(100):
        v = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
        assert parse_vec(format_vec(v)) == v


@pytest.mark.parametrize(
    "bad", ["", "1,2", "(1,2", "1,2)", "()", "(1,,2)", "(a,b)", "(-1,2)"]
)
def test_parse_vec_rejects(bad):
    with pytest.raises(ValueError):
        parse_vec(bad)


def test_no_long_bad_sequences_in_a_box():
    # a bad sequence cannot repeat an element, so its length is capped by
    # the box size; any longer sequence must contain a good pair
    pts = box(1, 2)
    rng = random.Random(9)
    for _ in range(200):
        seq = [rng.choice(pts) for _ in range(len(pts) + 1)]
        assert not is_bad(seq, leq)


@st.composite
def vector_runs(draw):
    m = draw(st.integers(1, 6))
    return m, draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), max_size=30))


def trie_paths(node: dict, depth: int, leaf: int, m: int, prefix=()):
    """Walk the trie by hand: no node is empty, and the leaf level holds
    generators of length m whose first leaf + 1 coordinates are their path."""
    assert node, f"empty node under {prefix}"
    for k, child in node.items():
        if depth == leaf:
            assert len(child) == m and child[: depth + 1] == prefix + (k,)
            yield child
        else:
            yield from trie_paths(child, depth + 1, leaf, m, prefix + (k,))


@settings(max_examples=300, deadline=None)
@given(vector_runs())
def test_trie_keeps_the_minimal_elements(run):
    m, vecs = run
    leaf = max(m - 2, 0)  # the leaf depth of an m-dimensional trie
    root: dict = {}
    basis: set = set()
    for k, c in enumerate(vecs):
        kept = set(basis)
        # one insertion as a saturation round makes it
        added = not dickson._has_below(root, c, leaf)
        if added:
            dickson._evict_above(root, c, leaf, basis)
            dickson._insert(root, c, leaf)
            basis.add(c)
        assert added == (not any(leq(b, c) for b in kept))
        want = minimal_elements(vecs[: k + 1], leq)
        paths = list(trie_paths(root, 0, leaf, m))
        assert len(paths) == len(want) == len(basis)
        assert set(paths) == basis == want
