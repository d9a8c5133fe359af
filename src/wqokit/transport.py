"""Quasi-embeddings between orders and transport of upward closed sets.

A quasi-embedding f reflects the order: f(a1) <= f(a2) in the target
forces a1 <= a2 in the source. The two maps provided here send vectors
to words (run-length style) and words to support-labeled words; both are
also monotone, which is what lets transport_upset push an upset through
by mapping generators only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from .dickson import NatVec, _Value
from .dickson import leq as dickson_leq
from .upset import UpSet
from .words import Alphabet, LabeledWord, Word, labeled_leq, leq_E, leq_e, phi


class QuasiEmbedding(_Value):
    """A mapping bundled with its source and target orders."""

    __slots__ = ("name", "source_leq", "target_leq", "mapping")
    name: str
    source_leq: Callable[[Any, Any], bool]
    target_leq: Callable[[Any, Any], bool]
    mapping: Callable[[Any], Any]

    def __init__(
        self,
        name: str,
        source_leq: Callable[[Any, Any], bool],
        target_leq: Callable[[Any, Any], bool],
        mapping: Callable[[Any], Any],
    ):
        self._init(name, source_leq, target_leq, mapping)

    def __call__(self, x):
        return self.mapping(x)


@lru_cache(maxsize=None)
def _numeric_alphabet(m: int) -> Alphabet:
    return Alphabet.indexed(m)


def dickson_to_word(x: NatVec) -> Word:
    """x1 copies of letter 1, then x2 copies of letter 2, and so on.

    Monotone, and embedding of images reflects the componentwise order:
    the letter blocks cannot borrow from each other.
    """
    letters: list[int] = []
    for i, count in enumerate(x):
        letters.extend([i] * count)
    return Word(_numeric_alphabet(len(x)), tuple(letters))


def word_to_labeled(u: Word) -> LabeledWord:
    """Pair the first-occurrence-flagged form of u with its support."""
    return phi(u)


def dickson_word_embedding(m: int) -> QuasiEmbedding:
    """The vector-to-word quasi-embedding at dimension m."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    return QuasiEmbedding(
        name=f"dickson-to-word[{m}]",
        source_leq=dickson_leq,
        target_leq=leq_e,
        mapping=dickson_to_word,
    )


def labeling_embedding() -> QuasiEmbedding:
    """The word-to-labeled-word quasi-embedding (source order is leq_E)."""
    return QuasiEmbedding(
        name="word-to-labeled",
        source_leq=leq_E,
        target_leq=labeled_leq,
        mapping=word_to_labeled,
    )


def check_quasi_embedding(
    f: QuasiEmbedding, sample
) -> tuple[bool, tuple[Any, Any] | None]:
    """Test f(a1) <= f(a2) implies a1 <= a2 over an iterable of pairs.

    Returns (True, None) if every sampled pair satisfies the implication,
    else (False, pair) for the first violation encountered. Each distinct
    element is mapped once; elements must be hashable.
    """
    images: dict = {}
    for a1, a2 in sample:
        # one lookup per element; each image is kept in a 1-tuple, which is
        # true even when the image is None or 0, so `or` maps an element once
        b1 = images.get(a1) or images.setdefault(a1, (f(a1),))
        b2 = images.get(a2) or images.setdefault(a2, (f(a2),))
        if f.target_leq(b1[0], b2[0]) and not f.source_leq(a1, a2):
            return False, (a1, a2)
    return True, None


def transport_upset(f: QuasiEmbedding, x: UpSet) -> UpSet:
    """Push an upset through f by mapping its generators.

    Valid when f is monotone: everything above a generator g maps above
    f(g), so normalizing the generator images represents the upward
    closure of the whole image.
    """
    return UpSet(f.target_leq, [f(g) for g in x.gens])
