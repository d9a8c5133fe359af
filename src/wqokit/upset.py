"""Upward closed sets stored as the antichain of their minimal elements.

An UpSet keeps the finite set of minimal generators, deduplicated and
sorted into a canonical order, so two values denote the same upward
closed set exactly when their representations compare equal. The carrier
order is a plain binary predicate; vector- and word-specific operations
(intersection, slicing, letter quotients) live alongside as functions.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable

from .dickson import DimensionMismatch, NatVec, _Value, format_vec, join
from .dickson import leq as vec_leq
from .words import LabeledWord, Word, labeled_leq, leq_e

ExtendedNat = int | float
INF: ExtendedNat = math.inf


def _key(g):
    # length-then-lexicographic; vector generators all share one length
    if isinstance(g, tuple):
        return (len(g), g)
    if isinstance(g, Word):
        return (len(g.letters), g.letters)
    if isinstance(g, LabeledWord):
        return (len(g.word.letters), g.word.letters, tuple(sorted(g.support)))
    raise TypeError(f"unsupported generator type {type(g).__name__}")


def _show(g) -> str:
    if isinstance(g, tuple):
        return format_vec(g)
    return str(g)


def _minimal(leq: Callable[[Any, Any], bool], elems: Iterable) -> list:
    # one pass in _key order: whatever lies strictly below x sorts before
    # it, and whatever lies below a dropped element lies below a kept one
    kept: list = []
    for x in sorted(dict.fromkeys(elems), key=_key):
        if not any(leq(y, x) for y in kept):
            kept.append(x)
    return kept


class UpSet(_Value):
    """Upward closed set over an arbitrary order.

    The constructor normalizes: dominated and duplicate generators are
    dropped and the rest sorted, so construction from any generating set
    yields the canonical representation. Like the other value classes it
    is immutable, and it compares and hashes by the pair (leq, gens).

    Normalization needs `leq` to be a partial order under which an
    element strictly below another sorts first by length, then
    lexicographically; `vec_leq`, `leq_e`, `leq_E` and `labeled_leq` are.
    """

    __slots__ = ("leq", "gens")

    def __init__(self, leq: Callable[[Any, Any], bool], gens: Iterable = ()):
        self._init(leq, tuple(_minimal(leq, gens)))

    def member(self, x) -> bool:
        """True iff x lies above some generator."""
        return any(self.leq(g, x) for g in self.gens)

    def includes(self, other: "UpSet") -> bool:
        """True iff other is contained in self.

        Generator criterion: every minimal element of other is a member.
        """
        self._check_order(other)
        return all(self.member(g) for g in other.gens)

    def union(self, other: "UpSet") -> "UpSet":
        self._check_order(other)
        return UpSet(self.leq, self.gens + other.gens)

    def is_empty(self) -> bool:
        return not self.gens

    def _check_order(self, other: "UpSet") -> None:
        if self.leq is not other.leq:
            raise ValueError("cannot combine upsets over different orders")

    def __repr__(self) -> str:
        return "UpSet({%s})" % ", ".join(_show(g) for g in self.gens)


def _antichain_upset(leq: Callable[[Any, Any], bool], gens: Iterable) -> UpSet:
    """UpSet of gens that are already an antichain under leq: only sorted."""
    x = UpSet.__new__(UpSet)
    x._init(leq, tuple(sorted(gens, key=_key)))
    return x


def dickson_upset(gens: Iterable[NatVec] = ()) -> UpSet:
    """Upset of vectors under the componentwise order."""
    return UpSet(vec_leq, gens)


def word_upset(gens: Iterable[Word] = ()) -> UpSet:
    """Upset of words under the embedding order."""
    return UpSet(leq_e, gens)


def labeled_upset(gens: Iterable[LabeledWord] = ()) -> UpSet:
    """Upset of labeled words under the product order."""
    return UpSet(labeled_leq, gens)


def intersect_dickson(x: UpSet, y: UpSet) -> UpSet:
    """Intersection of two vector upsets.

    A vector lies above g and above h iff it lies above join(g, h), so
    the pairwise joins of generators generate the intersection.
    """
    return dickson_upset(join(g, h) for g in x.gens for h in y.gens)


def phi_slice(f: UpSet, a: NatVec) -> ExtendedNat:
    """Least c such that a extended by c is in f; INF when there is none.

    Closed form from the generators: any g = (g', c) with g' <= a admits
    its last component, and the minimum over those is least overall.
    The result is antitone in a.
    """
    # a vector upset has one dimension, so the first generator speaks for all
    if f.gens and len(f.gens[0]) != len(a) + 1:
        raise DimensionMismatch(
            f"slice point {format_vec(a)} needs generators of dimension "
            f"{len(a) + 1}, got {format_vec(f.gens[0])}"
        )
    return min((g[-1] for g in f.gens if vec_leq(g[:-1], a)), default=INF)


def quotient(a: int, x: UpSet) -> UpSet:
    """The words whose extension by the letter a on the left lands in x.

    b <= a.y iff b <= y, or b starts with a and tail(b) <= y; hence the
    quotient is generated by the generators of x together with the tails
    of those that start with a.
    """
    extra = [g.tail() for g in x.gens if g.letters and g.letters[0] == a]
    return UpSet(x.leq, list(x.gens) + extra)


def som(x: UpSet) -> frozenset[int]:
    """Starting letters of the minimal elements of a word upset."""
    return frozenset(g.letters[0] for g in x.gens if g.letters)


_BLOCK_RE = re.compile(r"^\s*upset(?:\s+(\w+))?\s*\{(.*)\}\s*$", re.DOTALL)
# the last alternative takes a delimiter no other one does, to refuse it
_TOKEN_RE = re.compile(r"\([^()]*\)|\[[^\[\]]*\]|[^\s{}()]+|[{}()]")
_STRAY = frozenset("{}()")


def parse_upset_block(text: str) -> tuple[str | None, list[str]]:
    """Split an `upset name { ... }` block into its name and raw generators.

    Generators may sit one per line or share lines; interpretation of the
    tokens (vectors vs words) is up to the caller. A brace or parenthesis
    outside a vector is refused.
    """
    m = _BLOCK_RE.match(text)
    if m is None:
        raise ValueError("expected a block of the form 'upset name { ... }'")
    tokens = _TOKEN_RE.findall(m.group(2))
    for t in tokens:
        if t in _STRAY:
            raise ValueError(f"unexpected {t!r} in an upset block")
    return m.group(1), tokens


def format_upset_block(
    x: UpSet, name: str | None = None, show: Callable[[Any], str] = _show
) -> str:
    """Canonical text form, one generator per line, each printed by show."""
    head = f"upset {name} {{" if name else "upset {"
    return "\n".join([head, *("  " + show(g) for g in x.gens), "}"])
