"""Upward closed sets stored as the antichain of their minimal elements.

An UpSet keeps the finite set of minimal generators, deduplicated and
sorted into a canonical order, so two values denote the same upward
closed set exactly when their representations compare equal. The carrier
order is a plain binary predicate; vector- and word-specific operations
live alongside as functions and take only the orders they are defined
for: `intersect_dickson` and `phi_slice` take `vec_leq`, `quotient` takes
`leq_e`, and `som` takes any order but `vec_leq` and `labeled_leq`. Any
other order is refused with a ValueError naming the operation and the
order. The checks read the module's order names when called, so an order
rebound here (as a tracer does) is the one they take.

Each library order has a kernel row in `_KERNELS`: a check that two
elements share a carrier (one dimension, one alphabet), the key of an
element (the vector; the letters; the length, support and flagged
letters), a raw comparison of two keys that checks nothing, and the size
of a key.
An UpSet keeps the keys of its generators in the derived slot `_keys`,
which is not a field. So the carrier is checked once per call at the
UpSet boundary: member and includes check one pair, normalization checks
each element against the first, and every comparison after that compares
keys. `_keyed` is that step for a list of elements: normalization and the
sequence searches of `orders` both take it. An order that has no row, a
custom predicate or a wrapped one, takes the default row: no check, the
element as its own key, the order itself as the comparison, which checks
what it checks on every pair, and no size.

The size is the length rule of the three word orders, `leq_e`, `leq_E`
and `labeled_leq`: it is the length of the letters, and an element
strictly below another is strictly shorter, since an embedding between
words of one length is the identity. A `leq_E` or `labeled_leq` key is
(length, support, letters), so every size is read by a C function (`len`,
or `operator.itemgetter(0)`): member and includes find the size range of
a query by bisection without a Python call. So normalization compares an
element only with the generators kept at shorter lengths, and member
and includes run the raw comparison only on the generators shorter than
the query and answer one of its own length by key equality. The
comparison that `_keyed` gives the sequence searches follows the same
rule: raw on a shorter first key, key equality otherwise. `vec_leq`
and custom orders have no size. Under `vec_leq`'s own row,
normalization goes through the coordinate trie of `dickson`, the one
that backward saturation keeps its basis in: a vector meets only the
kept generators whose keys it cannot rule out level by level. Member
and includes under `vec_leq`, and custom orders throughout, compare
against every generator.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Sequence

from .dickson import DimensionMismatch, NatVec, _below, _has_below, _insert
from .dickson import _require_same_dim, _Value
from .dickson import format_vec, join
from .dickson import leq as vec_leq
from .words import LabeledWord, Word, _embeds, _flagged, _require_same_alphabet
from .words import _supported_embeds, labeled_leq, leq_E, leq_e

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


def _itself(x):
    return x


def _unchecked(a, b) -> None:
    pass


# order -> (check of two elements, key of an element, raw comparison of
# two keys, size of a key as a C function or None): leq(a, b) is
# check(a, b), then raw(key(a), key(b)); with a size, raw(j, k) holds for
# j != k only if size(j) < size(k)
_KERNELS = {
    vec_leq: (_require_same_dim, _itself, _below, None),
    leq_e: (_require_same_alphabet, attrgetter("letters"), _embeds, len),
    leq_E: (
        _require_same_alphabet,
        lambda w: _flagged(w.letters),
        _supported_embeds,
        itemgetter(0),
    ),
    labeled_leq: (
        lambda p, q: _require_same_alphabet(p.word, q.word),
        lambda p: (len(p.word.letters), p.support, p.word.letters),
        _supported_embeds,
        itemgetter(0),
    ),
}


def _kernel(leq: Callable[[Any, Any], bool]) -> tuple:
    """The kernel row of leq; any other order checks nothing and compares itself.

    An unhashable callable (its __hash__ is None) is never a library order,
    so it is not looked up.
    """
    return (leq.__hash__ and _KERNELS.get(leq)) or (_unchecked, _itself, leq, None)


def _keyed(leq: Callable[[Any, Any], bool], elems: Sequence) -> tuple:
    """The keys of elems under leq's kernel row (a list) and a comparison of two keys.

    Each element is checked against the first one only: that is the first
    pair a checked comparison of elems would meet, so the same element
    raises the same error. An order without a row checks nothing and
    keys each element as itself. Under a row with a size the comparison
    is the length rule: raw on a shorter first key, key equality
    otherwise; under any other row it is raw.
    """
    check, keyof, raw, size = _kernel(leq)
    for x in elems[1:]:
        check(elems[0], x)
    le = raw if size is None else lambda j, k: raw(j, k) if size(j) < size(k) else j == k
    return list(map(keyof, elems)), le


def _minimal(leq: Callable[[Any, Any], bool], elems: Iterable) -> tuple[tuple, tuple]:
    """The minimal elements of elems in _key order, and their keys.

    Under vec_leq's own row the kept vectors are indexed by the coordinate
    trie of dickson, which only searches and inserts: in _key order no
    element lies below an earlier one, so none is evicted. Under an order
    with a size (the word orders) an element is compared only with the
    keys kept before its length began: a kept element of its own length
    is another word of that length, never below it. Any other order
    compares an element with every kept key.
    """
    # one pass in _key order: whatever lies strictly below x sorts before
    # it, and whatever lies below a dropped element lies below a kept one
    elems = sorted(dict.fromkeys(elems), key=_key)
    all_keys, _ = _keyed(leq, elems)
    _, _, raw, size = _kernel(leq)
    kept, keys = [], []
    # the vectors have one dimension, checked above; two distinct ones
    # have a coordinate to key on, and one is minimal alone
    if raw is _below and len(elems) > 1:
        root, leaf = {}, max(len(elems[0]) - 2, 0)
        for x in elems:
            if not _has_below(root, x, leaf):
                _insert(root, x, leaf)
                kept.append(x)
        kept = tuple(kept)  # a vector is its own key
        return kept, kept
    below, length = keys, None
    for x, k in zip(elems, all_keys):
        # _key sorts by length first: snapshot the shorter keys once per length
        if size is not None and size(k) != length:
            below, length = keys[:], size(k)
        if not any(map(raw, below, repeat(k))):
            kept.append(x)
            keys.append(k)
    return tuple(kept), tuple(keys)


class UpSet(_Value):
    """Upward closed set over an arbitrary order.

    The constructor normalizes: dominated and duplicate generators are
    dropped and the rest sorted, so construction from any generating set
    yields the canonical representation. Like the other value classes it
    is immutable, and it compares and hashes by the pair (leq, gens).

    Normalization needs `leq` to be a partial order under which an
    element strictly below another sorts first by length, then
    lexicographically; `vec_leq`, `leq_e`, `leq_E` and `labeled_leq` are.
    Under the three word orders an element strictly below another is
    strictly shorter, so normalization, member and includes compare only
    against shorter generators. Vectors normalize through a coordinate
    trie; their member and includes, and custom orders throughout,
    compare against every generator.
    """

    __slots__ = ("leq", "gens", "_keys")

    def __init__(self, leq: Callable[[Any, Any], bool], gens: Iterable = ()):
        self._init(leq, *_minimal(leq, gens))

    def member(self, x) -> bool:
        """True iff x lies above some generator."""
        if not self.gens:
            return False
        check, keyof, raw, size = _kernel(self.leq)
        check(self.gens[0], x)
        return self._above(raw, size, keyof(x))

    def includes(self, other: "UpSet") -> bool:
        """True iff other is contained in self.

        Generator criterion: every minimal element of other is a member.
        """
        self._check_order(other)
        if not (self.gens and other.gens):
            return not other.gens
        check, _, raw, size = _kernel(self.leq)
        check(self.gens[0], other.gens[0])
        return all(self._above(raw, size, k) for k in other._keys)

    def _above(self, raw, size, k) -> bool:
        """True iff the key k lies above the key of some generator."""
        keys = self._keys
        if size is None:
            return any(map(raw, keys, repeat(k)))
        # the keys sort by size: shorter ones may lie below k, and of k's
        # own size only k itself does
        n = size(k)
        lo = bisect_left(keys, n, key=size)
        hi = bisect_right(keys, n, lo, key=size)
        return k in keys[lo:hi] or any(map(raw, keys[:lo], repeat(k)))

    def union(self, other: "UpSet") -> "UpSet":
        self._check_order(other)
        return UpSet(self.leq, self.gens + other.gens)

    def _check_order(self, other: "UpSet") -> None:
        if self.leq is not other.leq:
            raise ValueError("cannot combine upsets over different orders")

    def __repr__(self) -> str:
        return "UpSet({%s})" % ", ".join(_show(g) for g in self.gens)


def _antichain_upset(gens: Iterable[NatVec]) -> UpSet:
    """UpSet of vectors that are already an antichain under vec_leq: only sorted.

    Vectors of one dimension sort by themselves as by _key, (len, g).
    """
    x = UpSet.__new__(UpSet)
    gens = tuple(sorted(gens))
    x._init(vec_leq, gens, gens)  # a vector is its own key
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


def _require(op: str, x: UpSet, takes: bool, orders: str) -> None:
    """Refuse x unless takes: op is defined for upsets under `orders` only."""
    if not takes:
        name = getattr(x.leq, "__qualname__", x.leq)
        raise ValueError(f"{op} takes upsets under {orders}, not under {name}")


def intersect_dickson(x: UpSet, y: UpSet) -> UpSet:
    """Intersection of two vector upsets, both under vec_leq.

    A vector lies above g and above h iff it lies above join(g, h), so
    the pairwise joins of generators generate the intersection.
    """
    x._check_order(y)
    _require("intersect_dickson", x, x.leq is vec_leq, "leq")
    return dickson_upset(join(g, h) for g in x.gens for h in y.gens)


def phi_slice(f: UpSet, a: NatVec) -> ExtendedNat:
    """Least c such that a extended by c is in f; INF when there is none.

    Closed form from the generators: any g = (g', c) with g' <= a admits
    its last component, and the minimum over those is least overall.
    The result is antitone in a. f must be an upset under vec_leq.
    """
    _require("phi_slice", f, f.leq is vec_leq, "leq")
    # a vector upset has one dimension, so the first generator speaks for all
    if f.gens and len(f.gens[0]) != len(a) + 1:
        raise DimensionMismatch(
            f"slice point {format_vec(a)} needs generators of dimension "
            f"{len(a) + 1}, got {format_vec(f.gens[0])}"
        )
    # _below stops at the end of a, so g's last component takes no part
    return min((g[-1] for g in f.gens if _below(g, a)), default=INF)


def quotient(a: int, x: UpSet) -> UpSet:
    """The words whose extension by the letter a on the left lands in x.

    x must be an upset under leq_e. b <= a.y iff b <= y, or b starts with
    a and tail(b) <= y. A generator that starts with a lies above its own
    tail, so the tails replace those generators and keep the rest.
    """
    _require("quotient", x, x.leq is leq_e, "leq_e")
    return UpSet(x.leq, [g.tail() if g.letters[:1] == (a,) else g for g in x.gens])


def som(x: UpSet) -> frozenset[int]:
    """Starting letters of the minimal elements of a word upset.

    x may be under any order but vec_leq and labeled_leq, and its
    generators must be words.
    """
    takes = x.leq is not vec_leq and x.leq is not labeled_leq
    _require("som", x, takes and all(isinstance(g, Word) for g in x.gens), "a word order")
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
