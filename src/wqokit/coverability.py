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
Each candidate is inserted into the antichain once. It is dropped when
some generator lies below it; otherwise it evicts the generators above
it. Every round yields the same upward closed set as renormalizing the
whole basis would, so verdicts, round counts and bases are unchanged.

The antichain is a set of generators, indexed by a coordinate trie (the
covering sharing trees of Delzanno, Raskin and Van Begin, 2004, with
shared prefixes only): nested dicts with one level per place, each
root-to-leaf path one generator. b <= c holds iff b[i] <= c[i] at every
level, so the search for a generator below c enters only the children
keyed <= c[i], and eviction enters only those keyed >= c[i]; a whole
subtrie is skipped on one comparison of its key. Eviction deletes the
nodes it empties and removes their generators from the set, which stays
the one record of the basis: its size, its members and the result. The
limit is the basis itself: it can grow doubly exponentially in the net
(Rackoff 1978), and every candidate still meets the generators it
cannot rule out by a key.
"""

from __future__ import annotations

import re
from operator import add, sub
from typing import NamedTuple

from .dickson import DimensionMismatch, IntVec, NatVec, _require_same_dim, _Value
from .dickson import format_vec, is_decimal, parse_vec
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


def _pre(g: NatVec, consume: NatVec, delta: IntVec) -> NatVec:
    """Least marking from which firing (consume, delta) lands above g.

    Firing from v requires v >= consume and yields v + delta, so the least
    such v is max(g - delta, consume), componentwise; consume >= 0 keeps
    it natural. The caller has checked the dimensions.
    """
    return tuple(map(max, map(sub, g, delta), consume))


def pre_step(x: UpSet, t: Transition) -> UpSet:
    """Minimal markings from which firing t lands in x."""
    # a vector upset has one dimension, so the first generator speaks for all
    if x.gens:
        _require_same_dim(x.gens[0], t.consume)
    delta = _delta(t)
    return dickson_upset(_pre(g, t.consume, delta) for g in x.gens)


def _add(root: dict, c: NatVec, last: int, basis: set) -> bool:
    """Add c to basis unless a generator lies below it; evict those above it.

    root is the coordinate trie of basis: nested dicts, one level per
    place, each root-to-leaf path one generator, the last level mapping
    c[-1] to c itself, and no node empty. Returns whether c was added.
    """
    if _has_below(root, c, 0, last):
        return False
    _evict_above(root, c, 0, last, basis)
    node = root
    for x in c[:-1]:
        node = node.setdefault(x, {})
    node[c[-1]] = c
    basis.add(c)
    return True


def _has_below(node: dict, c: NatVec, i: int, last: int) -> bool:
    """Whether some path under node, at depth i, is <= c[i:].

    Only keys <= c[i] can start such a path, so no other child is entered.
    """
    ci = c[i]
    if i == last:
        for k in node:
            if k <= ci:
                return True
        return False
    for k, child in node.items():
        if k <= ci and _has_below(child, c, i + 1, last):
            return True
    return False


def _evict_above(node: dict, c: NatVec, i: int, last: int, basis: set) -> None:
    """Delete the paths under node, at depth i, that are >= c[i:], from basis too.

    Only keys >= c[i] can start such a path. Nodes left empty are
    deleted too.
    """
    ci = c[i]
    for k in [k for k in node if k >= ci]:
        if i == last:
            basis.remove(node.pop(k))
            continue
        child = node[k]
        _evict_above(child, c, i + 1, last, basis)
        if not child:
            del node[k]


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
    steps = [(t.consume, _delta(t)) for t in q.net.transitions]
    root: dict = {}
    last = q.net.places - 1
    basis: set = set()
    _add(root, q.target, last, basis)
    frontier = [q.target]
    iterations = 0
    while True:
        # older generators were already found not to lie below initial;
        # one checked comparison per new generator, not per candidate
        if any(vec_leq(g, q.initial) for g in frontier):
            return CoverResult(True, _antichain_upset(vec_leq, basis), iterations)
        if max_iterations is not None and iterations >= max_iterations:
            raise SaturationLimit(
                f"no fixpoint within {max_iterations} rounds; "
                f"the basis has {len(basis)} generators"
            )
        added = []
        for g in frontier:
            for consume, delta in steps:
                c = _pre(g, consume, delta)
                if _add(root, c, last, basis):
                    added.append(c)
        if len(basis) > max_basis:
            raise SaturationLimit(
                f"basis reached {len(basis)} generators in round {iterations + 1}, "
                f"over the limit of {max_basis}"
            )
        if not added:
            return CoverResult(False, _antichain_upset(vec_leq, basis), iterations)
        frontier = [c for c in added if c in basis]
        iterations += 1


_MAX_MARKINGS = 10**6


def forward_cover_oracle(q: CoverQuery, bound: NatVec) -> bool:
    """BFS over markings dominated by bound; true iff one covers the target.

    Sound when it answers true (the witnessed path is real). A false
    answer is only conclusive relative to the bound: covering runs that
    leave the box are never seen. Raises ValueError once more than
    _MAX_MARKINGS markings have been visited.
    """
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
            if vec_leq(q.target, m):
                return True
            for consume, delta in steps:
                if not vec_leq(consume, m):
                    continue
                succ = tuple(map(add, m, delta))
                if vec_leq(succ, bound) and succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
                    if len(seen) > _MAX_MARKINGS:
                        raise ValueError(
                            f"the forward oracle visited {len(seen)} markings, "
                            f"over the limit of {_MAX_MARKINGS}"
                        )
        frontier = fresh
    return False


# directive -> the words after it: keywords, and <values> (a <count> is decimal)
_DIRECTIVES = {
    "places": ("<count>",),
    "transition": ("<name>", "consume", "<vec>", "produce", "<vec>"),
    "initial": ("<vec>",),
    "target": ("<vec>",),
}


def _net_vec(token: str, line: int, column: int, places: int | None) -> NatVec:
    """Parse a vector token; once places is known, check its dimension."""
    try:
        v = parse_vec(token)
    except ValueError as exc:
        raise NetParseError(str(exc), line, column) from None
    if places is not None and len(v) != places:
        raise NetParseError(
            f"vector {format_vec(v)} has dimension {len(v)}, net has {places} places",
            line,
            column,
        )
    return v


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
    """
    seen: dict = {}  # places, initial and target, once read
    transitions: list[Transition] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not toks:
            continue
        (head, col), args = toks[0], toks[1:]
        words = _DIRECTIVES.get(head)
        places = seen.get("places")
        if words is None:
            raise NetParseError(f"unknown directive {head!r}", lineno, col)
        if head == "places" and places is not None:
            raise NetParseError("duplicate places line", lineno, col)
        if head == "transition" and places is None:
            raise NetParseError(
                "places must be declared before transitions", lineno, col
            )
        if len(args) != len(words) or any(
            tok != w if w[0] != "<" else (w == "<count>" and not is_decimal(tok))
            for (tok, _), w in zip(args, words)
        ):
            raise NetParseError("expected: " + " ".join((head, *words)), lineno, col)
        if head == "places":
            seen[head] = int(args[0][0])
            if seen[head] < 1:
                raise NetParseError(
                    "a net needs at least one place", lineno, args[0][1]
                )
            continue
        vecs = [
            _net_vec(tok, lineno, c, places)
            for (tok, c), w in zip(args, words)
            if w == "<vec>"
        ]
        if head == "transition":
            transitions.append(Transition(args[0][0], *vecs))
        elif head in seen:
            raise NetParseError(f"duplicate {head} line", lineno, col)
        else:
            seen[head] = vecs[0]
    for head in ("places", "initial", "target"):
        if head not in seen:
            raise NetParseError(f"missing {head} line")
    net = Vas(seen["places"], tuple(transitions))
    return CoverQuery(net, seen["initial"], seen["target"])
