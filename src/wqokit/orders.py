"""Pair classification and sequence analyses over arbitrary partial orders.

An order is passed around as a plain callable ``leq(a, b) -> bool``; every
function here works for any partial order on any carrier. Witness-producing
searches break ties deterministically: the lexicographically smallest witness
is always returned.

The searches compare the way upsets do (``upset._keyed``). Under a library
order (``leq``, ``leq_e``, ``leq_E``, ``labeled_leq``) a search checks each
element's carrier against the first element's once per call, then compares
precomputed keys without further checks; so a sequence that mixes
dimensions or alphabets raises before any answer, with the error the
order gives for the first element and the first one of another carrier.
Under the word orders an element strictly below another is strictly
shorter, so a pair is compared only when its first element is the
shorter one, and a pair of one length is decided by key equality.
A custom order is called itself on every pair, as it is given.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Callable, NamedTuple, Sequence, TypeVar

from .upset import _keyed

T = TypeVar("T")
Leq = Callable[[T, T], bool]


class PairClass(Enum):
    """The unique relation holding between an ordered pair of elements."""

    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class SubseqClass(Enum):
    """Shapes of homogeneous subsequences, in tie-break priority order."""

    CONSTANT = "constant"
    DESCENDING = "descending"
    ASCENDING = "ascending"
    ANTICHAIN = "antichain"


# Pairwise relation that every (i, j) with i < j must satisfy, per shape.
_PAIR_FOR = {
    SubseqClass.CONSTANT: PairClass.EQUAL,
    SubseqClass.DESCENDING: PairClass.GREATER,
    SubseqClass.ASCENDING: PairClass.LESS,
    SubseqClass.ANTICHAIN: PairClass.INCOMPARABLE,
}


class Homogeneous(NamedTuple):
    indices: tuple[int, ...]
    shape: SubseqClass


def classify(a: T, b: T, leq: Leq) -> PairClass:
    """Classify the pair (a, b) as equal, less, greater, or incomparable."""
    ab = leq(a, b)
    ba = leq(b, a)
    if ab and ba:
        return PairClass.EQUAL
    if ab:
        return PairClass.LESS
    if ba:
        return PairClass.GREATER
    return PairClass.INCOMPARABLE


def find_good_pair(seq: Sequence[T], leq: Leq) -> tuple[int, int] | None:
    """Smallest (i, j) with i < j and seq[i] <= seq[j], or None if none exists.

    A sequence without such a pair is called bad. Indices are compared
    lexicographically, so the witness is deterministic.
    """
    keys, key_leq = _keyed(leq, seq)
    for i, k in enumerate(keys):
        for j in range(i + 1, len(keys)):
            if key_leq(k, keys[j]):
                return (i, j)
    return None


def is_bad(seq: Sequence[T], leq: Leq) -> bool:
    """True iff no earlier element is <= a later one (vacuously true if short)."""
    return find_good_pair(seq, leq) is None


def homogeneous_subsequence(
    seq: Sequence[T], k: int, leq: Leq
) -> Homogeneous | None:
    """Search for a length-k subsequence that is uniformly one shape.

    A subsequence is homogeneous of a given shape when every index pair
    i < j inside it classifies to that shape's pairwise relation (equal,
    strictly greater, strictly less, or incomparable). Shapes are tried
    in the priority order constant, descending, ascending, antichain; the
    first shape admitting a witness wins and the lexicographically
    smallest index list within it is returned.

    The search is exhaustive and intended for short sequences; no bound
    on guaranteed existence is promised.
    """
    if k < 1:
        raise ValueError("subsequence length k must be at least 1")
    keys, key_leq = _keyed(leq, seq)
    n = len(keys)
    if k > n:
        return None
    # the class of each pair (i, j) with i < j
    rel = {(i, j): classify(keys[i], keys[j], key_leq) for i, j in combinations(range(n), 2)}
    for shape in SubseqClass:
        indices = _smallest(rel, n, k, _PAIR_FOR[shape])
        if indices is not None:
            return Homogeneous(indices, shape)
    return None


def _smallest(rel, n: int, k: int, want: PairClass) -> tuple[int, ...] | None:
    # Lexicographic backtracking: a candidate must relate by `want` to every
    # index already chosen. room[j], the longest run from j whose consecutive
    # pairs relate by `want`, bounds how many indices can still be chosen
    # from j on. Equal/less/greater are transitive, so for them every such
    # run qualifies, the bound is exact and the search never backtracks.
    room = [1] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rel[i, j] is want and room[j] >= room[i]:
                room[i] = room[j] + 1
    chosen: list[int] = []
    j = 0
    while len(chosen) < k:
        if j < n:
            if room[j] >= k - len(chosen) and all(rel[i, j] is want for i in chosen):
                chosen.append(j)
            j += 1
        elif chosen:
            j = chosen.pop() + 1
        else:
            return None
    return tuple(chosen)
