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
it. The antichain is bucketed by coordinate sum, since b <= c implies
sum(b) <= sum(c): only buckets of smaller or equal sum can hold an
element below the candidate, and only buckets of greater sum one above.
Every round yields the same upward closed set as renormalizing the
whole basis would, so verdicts, round counts and bases are unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .dickson import DimensionMismatch, NatVec, format_vec, is_decimal
from .dickson import leq as vec_leq
from .dickson import monus, join, parse_vec
from .upset import UpSet, dickson_upset


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


@dataclass(frozen=True)
class Transition:
    name: str
    consume: NatVec
    produce: NatVec

    def __post_init__(self):
        if len(self.consume) != len(self.produce):
            raise DimensionMismatch(
                f"transition {self.name}: consume {format_vec(self.consume)} "
                f"and produce {format_vec(self.produce)} differ in dimension"
            )


@dataclass(frozen=True)
class Vas:
    places: int
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self):
        if self.places < 1:
            raise ValueError("a net needs at least one place")
        object.__setattr__(self, "transitions", tuple(self.transitions))
        for t in self.transitions:
            if len(t.consume) != self.places:
                raise DimensionMismatch(
                    f"transition {t.name} has dimension {len(t.consume)}, "
                    f"net has {self.places} places"
                )


@dataclass(frozen=True)
class CoverQuery:
    net: Vas
    initial: NatVec
    target: NatVec

    def __post_init__(self):
        for label, v in (("initial", self.initial), ("target", self.target)):
            if len(v) != self.net.places:
                raise DimensionMismatch(
                    f"{label} marking {format_vec(v)} has dimension {len(v)}, "
                    f"net has {self.net.places} places"
                )


class CoverResult(NamedTuple):
    coverable: bool
    basis: UpSet
    iterations: int


def _pre(g: NatVec, t: Transition) -> NatVec:
    """Least marking from which firing t lands above g.

    Firing t from v requires v >= consume and yields v + produce - consume.
    monus undoes the firing effect without going negative, join restores
    enabledness.
    """
    delta = tuple(p - c for c, p in zip(t.consume, t.produce))
    return join(monus(g, delta), t.consume)


def pre_step(x: UpSet, t: Transition) -> UpSet:
    """Minimal markings from which firing t lands in x."""
    return dickson_upset(_pre(g, t) for g in x.gens)


def _insert(basis: dict[int, list[NatVec]], c: NatVec) -> bool:
    """Add c to the antichain unless it is dominated; evict what it dominates.

    basis maps a coordinate sum to the generators with that sum. Returns
    whether c was added.
    """
    s = sum(c)
    for k, bucket in basis.items():
        if k <= s and any(vec_leq(b, c) for b in bucket):
            return False
    for k, bucket in basis.items():
        if k > s:
            bucket[:] = [b for b in bucket if not vec_leq(c, b)]
    basis.setdefault(s, []).append(c)
    return True


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
    max_basis generators.
    """
    basis = {sum(q.target): [q.target]}
    frontier = [q.target]
    iterations = 0
    while True:
        # older generators were already found not to lie below initial
        if any(vec_leq(g, q.initial) for g in frontier):
            return CoverResult(True, _upset(basis), iterations)
        if max_iterations is not None and iterations >= max_iterations:
            raise SaturationLimit(
                f"no fixpoint within {max_iterations} rounds; "
                f"the basis has {_size(basis)} generators"
            )
        added = []
        for g in frontier:
            for t in q.net.transitions:
                c = _pre(g, t)
                if _insert(basis, c):
                    added.append(c)
        size = _size(basis)
        if size > max_basis:
            raise SaturationLimit(
                f"basis reached {size} generators in round {iterations + 1}, "
                f"over the limit of {max_basis}"
            )
        if not added:
            return CoverResult(False, _upset(basis), iterations)
        frontier = [c for c in added if c in basis[sum(c)]]
        iterations += 1


def _size(basis: dict[int, list[NatVec]]) -> int:
    return sum(map(len, basis.values()))


def _upset(basis: dict[int, list[NatVec]]) -> UpSet:
    return dickson_upset(g for bucket in basis.values() for g in bucket)


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
    seen = {q.initial}
    frontier = [q.initial]
    while frontier:
        fresh: list[NatVec] = []
        for m in frontier:
            if vec_leq(q.target, m):
                return True
            for t in q.net.transitions:
                if not vec_leq(t.consume, m):
                    continue
                succ = tuple(
                    v - c + p for v, c, p in zip(m, t.consume, t.produce)
                )
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
