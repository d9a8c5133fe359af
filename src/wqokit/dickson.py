"""Componentwise order on vectors of natural numbers.

Vectors are plain tuples of non-negative ints; the tuple length is the
dimension. Operations on two vectors require equal dimensions. An
antichain of vectors is kept in a coordinate trie (_insert, _has_below,
_evict_above): vector upsets normalize through it, and backward
saturation keeps its basis in it.
"""

from __future__ import annotations

from operator import le

NatVec = tuple[int, ...]
IntVec = tuple[int, ...]


class _Value:
    """Immutable record whose fields are the subclass's public ``__slots__``.

    A subclass's ``__init__`` validates its arguments and hands the field
    values to ``_init`` in slot order. The field tuple is kept as well, so
    equality (same class, equal fields) and hashing (the field tuple's
    hash) cost one tuple operation. Copying and pickling rebuild the value
    through ``__init__``; ``match`` takes the fields positionally. A slot
    whose name starts with ``_`` is no field: it holds a fact that
    ``__init__`` derives from the fields, and it takes no part in
    equality, hashing, ``repr``, copying or ``match``. Such slots follow
    the fields in ``__slots__``, and ``_init`` takes their values after
    the fields' values, in the same order, and keeps only the fields in
    the field tuple.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # a slot's own descriptor writes past the refusing __setattr__, and
        # faster than object.__setattr__, which looks the slot up by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)
        _Value._values.__set__(self, values[:len(self.__match_args__)])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values


class DimensionMismatch(ValueError):
    """Raised when two vectors of different dimensions are combined."""


def _require_same_dim(a, b) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(
            f"dimension mismatch: {format_vec(a)} is {len(a)}-dimensional, "
            f"{format_vec(b)} is {len(b)}-dimensional"
        )


# the longest decimal read: Python 3.11's int() limit, kept on 3.10 too
_MAX_DIGITS = 4300
# the least natural with more digits; format_vec refuses it, so whatever
# is printed reads back
_TOO_LONG = 10**_MAX_DIGITS


def is_decimal(s: str) -> bool:
    """True iff s is a run of 1 to _MAX_DIGITS of the ASCII digits 0-9.

    str.isdigit alone also accepts other scripts' digits and superscripts.
    """
    return len(s) <= _MAX_DIGITS and s.isascii() and s.isdigit()


def leq(a: NatVec, b: NatVec) -> bool:
    """True iff every component of a is <= the matching component of b."""
    _require_same_dim(a, b)
    # _below's body, not a call to it: saturation calls leq once per new
    # generator, and the extra frame cost cover-deep about 1%
    return all(map(le, a, b))


def _below(a: NatVec, b: NatVec) -> bool:
    """leq without the dimension check; it stops at the end of the shorter."""
    return all(map(le, a, b))


# An antichain of vectors of one dimension d >= 1 is indexed by a
# coordinate trie (the covering sharing trees of Delzanno, Raskin and Van
# Begin, 2004, with shared prefixes only): nested dicts keyed by the first
# leaf + 1 coordinates, leaf = max(d - 2, 0), no node empty. The deepest
# level, at depth leaf, maps c[leaf] to the generator c itself, whose last
# coordinate is then compared directly; with one or two coordinates, the
# root is that level. It holds one generator per key: two vectors that
# agree on every coordinate but the last are comparable, and the basis is
# an antichain. b <= c holds iff b[i] <= c[i] at every level and
# b[-1] <= c[-1], so the search for a generator below c enters only the
# children keyed <= c[i], and eviction only those keyed >= c[i]: a whole
# subtrie is skipped on one comparison of its key. Neither walk recurses,
# so a vector may have any dimension. Each keeps a stack of iterators over
# the children of the nodes it is in, one slot per depth above the last
# two levels, and scans those two levels where it meets them: most nodes
# a walk enters are there, and a pass through the stack loop for each
# cost cover-deep about 4%.


def _insert(root: dict, c: NatVec, leaf: int) -> None:
    """Put c into the trie at root; no generator may lie below or above it."""
    node = root
    for x in c[:leaf]:
        node = node.setdefault(x, {})
    node[c[leaf]] = c


def _has_below(root: dict, c: NatVec, leaf: int) -> bool:
    """Whether some generator in the trie at root is <= c.

    The children of a node are taken newest first: a search made while a
    basis grows mostly meets its refuser among the latest generators.
    The order changes how soon a search ends, never its answer.
    """
    x, z = c[leaf], c[-1]
    if not leaf:
        for k, g in reversed(root.items()):
            if k <= x and g[-1] <= z:
                return True
        return False
    y, up = c[leaf - 1], leaf - 2
    # with two levels the walk starts one level up, at a stand-in parent
    # that holds the root under y = c[0], a key every test passes
    walks = [reversed(root.items()) if up >= 0 else iter(((y, root),))] * leaf
    i = 0
    while i >= 0:
        ci = c[i]
        for k, node in walks[i]:
            if k <= ci:
                if i < up:
                    i += 1
                    walks[i] = reversed(node.items())
                    break
                for k, parent in reversed(node.items()):
                    if k <= y:
                        for j, g in reversed(parent.items()):
                            if j <= x and g[-1] <= z:
                                return True
        else:
            i -= 1
    return False


def _evict_above(root: dict, c: NatVec, leaf: int, basis: set) -> None:
    """Delete the generators in the trie at root that are >= c, from basis too.

    A dict cannot change while it is walked, so the walk collects the dead
    generators first. Each is then deleted along its own key path, with
    the nodes it leaves empty.
    """
    x, z = c[leaf], c[-1]
    # with one level, the root is the leaf level and there is no walk
    dead = [] if leaf else [g for k, g in root.items() if k >= x and g[-1] >= z]
    y, up = c[leaf - 1], leaf - 2
    # with two levels, a stand-in parent holds the root, as in _has_below
    walks = [iter(root.items() if up >= 0 else ((y, root),))] * leaf
    i = 0 if leaf else -1
    while i >= 0:
        ci = c[i]
        for k, node in walks[i]:
            if k >= ci:
                if i < up:
                    i += 1
                    walks[i] = iter(node.items())
                    break
                for k, parent in node.items():
                    if k >= y:
                        for j, g in parent.items():
                            if j >= x and g[-1] >= z:
                                dead.append(g)
        else:
            i -= 1
    for g in dead:
        basis.remove(g)
        # the entry that goes is the one under the deepest node on g's key
        # path that holds another entry, or under the root
        node = cut = root
        at = 0
        for i in range(leaf):
            node = node[g[i]]
            if len(node) > 1:
                cut, at = node, i + 1
        del cut[g[at]]


def join(a: NatVec, b: NatVec) -> NatVec:
    """Componentwise maximum: the least vector above both a and b."""
    _require_same_dim(a, b)
    return tuple(map(max, a, b))


def monus(a: NatVec, d: IntVec) -> NatVec:
    """Truncated subtraction max(a - d, 0), componentwise; d may be signed."""
    _require_same_dim(a, d)
    return tuple(max(x - y, 0) for x, y in zip(a, d))


def parse_vec(text: str) -> NatVec:
    """Parse "(1,2,0)" into a vector of naturals."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ValueError(f"expected a parenthesized vector, got {text!r}")
    body = stripped[1:-1]
    if not body.strip():
        raise ValueError("a vector needs at least one component")
    return _decimals(body, "vector component", text)


def _decimals(body: str, what: str, text: str) -> tuple[int, ...]:
    """The comma-separated decimals of body; `what` names one in the error."""
    out = []
    for part in body.split(","):
        item = part.strip()
        if not is_decimal(item):
            if len(item) > _MAX_DIGITS:
                raise ValueError(
                    f"{what} of {len(item)} characters is over the limit of "
                    f"{_MAX_DIGITS} digits"
                )
            raise ValueError(f"bad {what} {item!r} in {text!r}")
        out.append(int(item))
    return tuple(out)


def format_vec(v: NatVec) -> str:
    for x in v:
        if x >= _TOO_LONG:
            raise ValueError(
                f"cannot print a vector component over the limit of {_MAX_DIGITS} digits"
            )
    return "(" + ",".join(str(x) for x in v) + ")"
