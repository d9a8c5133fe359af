"""Backward coverability for vector addition systems.

Markings are vectors of token counts, one per place; a transition fires
from any marking that dominates its consume vector and moves the marking
by produce - consume. backward_cover saturates the upward closed set of
markings that can reach a covering of the target, walking predecessor
steps from the target upward. The saturation always terminates: the
iterates form an ascending chain of upward closed sets of vectors, and
no such chain is strictly increasing forever.

The saturation is frontier-driven, as in the classic backward algorithm
for well-structured systems (Abdulla, Cerans, Jonsson and Tsay, 1996;
Finkel and Schnoebelen, 2001). The pre-image distributes over union and
is monotone, so a round need only take pre-images of the generators the
previous round added: those of older generators are already in the set.
A round does not even collect a pre-image c that lies above the
generator g it was made from: g is in the basis when the round starts
(no generator is evicted in the round that inserted it), a generator
that evicts g lies below g, so some generator stays below c and
_has_below would refuse it. c >= g holds exactly when g[i] <= consume[i]
at every place i where t gains tokens; on a chain net, where t_i turns
one token on place i into two on place i+1, that is t_i acting on any g
with g[i+1] = 0. _moves lists those places first, so _pre decides this
before it copies g and returns None, building no list and no tuple.
The round collects its candidates as a set, so each is met once, drops
those already in the basis, and inserts the rest into the antichain in
lexicographic order. A candidate is dropped when some generator lies
below it; otherwise it evicts the generators above it and goes in.
All generators have one dimension, so b <= c with b != c puts b first
in that order: no candidate is evicted by a later one of the same
round, and every insertion is a generator the round keeps. Every round
yields the same upward closed set as renormalizing the whole basis
would, so verdicts, round counts and bases are unchanged. A pre-image
is computed only on the places the transition reads or changes; it
copies every other coordinate from its generator.

The antichain is a set of generators, indexed by the coordinate trie of
dickson (_has_below, _evict_above, _insert), the one every vector upset
normalizes through. The search enters the children of a node newest
first. On the chain nets every refused candidate measured was refused
by a generator inserted earlier in its own round, and the keys such a
generator adds are the newest of their nodes; the order changes how
soon a search ends, never its answer. Eviction deletes the nodes it
empties and removes their generators from the set, which stays the one
record of the basis: its size, its members and the result. The walks
keep their own stack, so a net may have any number of places. The
limit is the basis itself: it can grow doubly exponentially in the net
(Rackoff 1978), and every candidate still meets the generators it
cannot rule out by a key.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from operator import add, le, sub
from typing import NamedTuple

from .dickson import DimensionMismatch, IntVec, NatVec, _require_same_dim, _Value
from .dickson import _evict_above, _has_below, _insert, format_vec, is_decimal, parse_vec
from .dickson import leq as vec_leq
from .upset import UpSet, _antichain_upset, dickson_upset

class SaturationLimit(RuntimeError):
    """A resource limit on the saturation was reached.

    Bases can legitimately grow doubly exponentially in the size of the
    net (Rackoff 1978), so hitting a limit says the query is too large
    for the limit, not that the computation went wrong.
    """


class NetParseError(ValueError):
    """Malformed net file; carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, column {self.column}: {self.message}"
        return self.message


class Transition(_Value):
    __slots__ = ("name", "consume", "produce")
    name: str
    consume: NatVec
    produce: NatVec

    def __init__(self, name: str, consume: NatVec, produce: NatVec):
        if len(consume) != len(produce):
            raise DimensionMismatch(
                f"transition {name}: consume {format_vec(consume)} "
                f"and produce {format_vec(produce)} differ in dimension"
            )
        self._init(name, consume, produce)


class Vas(_Value):
    __slots__ = ("places", "transitions")
    places: int
    transitions: tuple[Transition, ...]

    def __init__(self, places: int, transitions: tuple[Transition, ...] = ()):
        if places < 1:
            raise ValueError("a net needs at least one place")
        transitions = tuple(transitions)
        for t in transitions:
            if len(t.consume) != places:
                raise DimensionMismatch(
                    f"transition {t.name} has dimension {len(t.consume)}, "
                    f"net has {places} places"
                )
        self._init(places, transitions)


class CoverQuery(_Value):
    __slots__ = ("net", "initial", "target")
    net: Vas
    initial: NatVec
    target: NatVec

    def __init__(self, net: Vas, initial: NatVec, target: NatVec):
        for label, v in (("initial", initial), ("target", target)):
            if len(v) != net.places:
                raise DimensionMismatch(
                    f"{label} marking {format_vec(v)} has dimension {len(v)}, "
                    f"net has {net.places} places"
                )
        self._init(net, initial, target)


class CoverResult(NamedTuple):
    coverable: bool
    basis: UpSet
    iterations: int


def _delta(t: Transition) -> IntVec:
    """Firing effect produce - consume."""
    return tuple(map(sub, t.produce, t.consume))


def _moves(t: Transition) -> list[tuple[int, int, int]]:
    """(place, produce - consume, consume) at each place that t reads or changes.

    The places where t gains tokens come first: _pre reads them alone to
    decide whether the pre-image lies above its generator.
    """
    pairs = enumerate(zip(t.consume, t.produce))
    return sorted(((i, p - k, k) for i, (k, p) in pairs if k or p), key=lambda m: m[1] <= 0)


def _pre(g: NatVec, moves: list[tuple[int, int, int]]) -> NatVec | None:
    """Least marking from which firing the transition of moves lands above g,
    or None when that marking lies above g.

    Firing from v requires v >= consume and yields v + delta, so the least
    such v is max(g - delta, consume), componentwise; consume >= 0 keeps
    it natural. That is g itself at every place the transition neither
    reads nor changes, so only the places of moves are computed. It falls
    below g at place i exactly when the transition gains tokens there and
    g[i] > consume[i]; moves lists those places first, so the marking is
    known to lie above g before g is copied. The caller has checked the
    dimensions.
    """
    for i, d, k in moves:
        if d <= 0:
            return None
        if g[i] > k:
            break
    else:
        return None
    c = list(g)
    for i, d, k in moves:
        x = g[i] - d
        if x < k:
            x = k
        c[i] = x
    return tuple(c)


def pre_step(x: UpSet, t: Transition) -> UpSet:
    """Minimal markings from which firing t lands in x: max(g - delta, consume)."""
    # a vector upset has one dimension, so the first generator speaks for all
    if x.gens:
        _require_same_dim(x.gens[0], t.consume)
    delta = _delta(t)
    return dickson_upset(tuple(map(max, map(sub, g, delta), t.consume)) for g in x.gens)


def backward_cover(
    q: CoverQuery,
    max_iterations: int | None = None,
    max_basis: int = 1_000_000,
) -> CoverResult:
    """Decide whether the initial marking can cover the target.

    Saturates X0 = up(target), X_{k+1} = X_k joined with pre_step(X_k, t)
    for every transition, until the set stops growing; iterations counts
    the rounds that added something. Returns as soon as the initial
    marking becomes a member. The basis is then only the part of the
    coverable region built up to that round, not the full fixpoint; an
    uncoverable answer carries the full basis.

    Raises SaturationLimit when max_iterations rounds have added
    something and the saturation has neither covered the initial marking
    nor reached the fixpoint, or when a round ends with more than
    max_basis generators; raises ValueError for a negative max_iterations.
    """
    if max_iterations is not None and max_iterations < 0:
        raise ValueError("max_iterations must be at least 0")
    steps = [_moves(t) for t in q.net.transitions]
    # the basis, and the trie that indexes it
    basis, root = {q.target}, {}
    leaf = max(q.net.places - 2, 0)
    _insert(root, q.target, leaf)
    frontier = [q.target]
    iterations = 0
    while True:
        # older generators were already found not to lie below initial;
        # one checked comparison per new generator, not per candidate
        if any(map(vec_leq, frontier, repeat(q.initial))):
            return CoverResult(True, _antichain_upset(basis), iterations)
        if max_iterations is not None and iterations >= max_iterations:
            raise SaturationLimit(
                f"no fixpoint within {max_iterations} rounds; "
                f"the basis has {len(basis)} generators"
            )
        # g is still in the basis, so _pre skips a c above it: _has_below would refuse c
        candidates = {c for g in frontier for moves in steps if (c := _pre(g, moves))}
        # b <= c, b != c sorts b first: no candidate evicts one inserted before it.
        # A generator under c's key is comparable to c, so evicting first keeps
        # _insert from overwriting one
        frontier = []
        for c in sorted(candidates - basis):
            if not _has_below(root, c, leaf):
                _evict_above(root, c, leaf, basis)
                _insert(root, c, leaf)
                basis.add(c)
                frontier.append(c)
        if len(basis) > max_basis:
            raise SaturationLimit(
                f"basis reached {len(basis)} generators in round {iterations + 1}, "
                f"over the limit of {max_basis}"
            )
        if not frontier:
            return CoverResult(False, _antichain_upset(basis), iterations)
        iterations += 1


_MAX_MARKINGS = 10**6


def forward_cover_oracle(q: CoverQuery, bound: NatVec) -> bool:
    """BFS over markings dominated by bound; true iff one covers the target.

    Sound when it answers true (the witnessed path is real). A false
    answer is only conclusive relative to the bound: covering runs that
    leave the box are never seen. Raises ValueError once more than
    _MAX_MARKINGS markings have been visited.
    """
    # checked, so a bound of the wrong dimension is refused; the BFS
    # compares raw, since the net has checked every other dimension
    if not vec_leq(q.initial, bound):
        raise ValueError(
            f"initial marking {format_vec(q.initial)} exceeds "
            f"oracle bound {format_vec(bound)}"
        )
    steps = [(t.consume, _delta(t)) for t in q.net.transitions]
    seen = {q.initial}
    frontier = [q.initial]
    while frontier:
        fresh: list[NatVec] = []
        for m in frontier:
            if all(map(le, q.target, m)):
                return True
            for consume, delta in steps:
                if not all(map(le, consume, m)):
                    continue
                succ = tuple(map(add, m, delta))
                if all(map(le, succ, bound)) and succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
                    if len(seen) > _MAX_MARKINGS:
                        raise ValueError(
                            f"the forward oracle visited {len(seen)} markings, "
                            f"over the limit of {_MAX_MARKINGS}"
                        )
        frontier = fresh
    return False


# directive -> the words after it: keywords, and <values> (a <count> is decimal).
# Keywords sit at the odd positions, so a line's words toks[2::2] (the head
# is toks[0]) must equal _KEYWORDS[head].
_DIRECTIVES = {
    "places": ("<count>",),
    "transition": ("<name>", "consume", "<vec>", "produce", "<vec>"),
    "initial": ("<vec>",),
    "target": ("<vec>",),
}
_KEYWORDS = {head: list(words[1::2]) for head, words in _DIRECTIVES.items()}


def _column(line: str, k: int) -> int:
    """1-based column of word k of line, counting words from 0.

    str.split() splits on exactly the characters the regex \\s matches,
    so word k starts where the k-th run of \\S+ does.
    """
    return next(islice(re.finditer(r"\S+", line), k, None)).start() + 1


def parse_net(text: str) -> CoverQuery:
    """Parse the line-oriented net format.

        places 2
        transition t1 consume (1,0) produce (0,1)
        initial (2,0)
        target (0,2)

    Each line is one directive of _DIRECTIVES; blank lines and # comments
    are skipped. places, initial and target appear exactly once, in any
    order, but places must come before the transitions, which may repeat.
    An initial or target line read before places is checked against the
    place count when the query is built, raising DimensionMismatch.

    A line's words are what str.split() makes of it once its comment is
    cut: runs of characters that are not whitespace in the sense of
    str.isspace(), so a tab, a no-break space or an ideographic space
    separates words as a space does. A NetParseError carries the 1-based
    line and the column of the word at fault, where a tab counts as one
    column; the column is computed only when the error is raised.
    """
    seen: dict = {}  # places, initial and target, once read
    transitions: list[Transition] = []

    def error(message: str, k: int = 0) -> NetParseError:
        # word k of the line being read
        return NetParseError(message, lineno, _column(line, k))

    def vec(k: int) -> NatVec:
        # word k as a vector; once places is known, of that dimension
        try:
            v = parse_vec(toks[k])
        except ValueError as exc:
            raise error(str(exc), k) from None
        if places is not None and len(v) != places:
            raise error(
                f"vector {format_vec(v)} has dimension {len(v)}, net has {places} places",
                k,
            )
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        words = _DIRECTIVES.get(head)
        places = seen.get("places")
        if words is None:
            raise error(f"unknown directive {head!r}")
        if head == "places" and places is not None:
            raise error("duplicate places line")
        if head == "transition" and places is None:
            raise error("places must be declared before transitions")
        if (
            len(toks) != len(words) + 1
            or toks[2::2] != _KEYWORDS[head]
            or (head == "places" and not is_decimal(toks[1]))
        ):
            raise error("expected: " + " ".join((head, *words)))
        if head == "places":
            seen[head] = int(toks[1])
            if seen[head] < 1:
                raise error("a net needs at least one place", 1)
        elif head == "transition":
            transitions.append(Transition(toks[1], vec(3), vec(5)))
        else:
            v = vec(1)
            if head in seen:
                raise error(f"duplicate {head} line")
            seen[head] = v
    for head in ("places", "initial", "target"):
        if head not in seen:
            raise NetParseError(f"missing {head} line")
    net = Vas(seen["places"], tuple(transitions))
    return CoverQuery(net, seen["initial"], seen["target"])
