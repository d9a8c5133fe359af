"""Componentwise order on vectors of natural numbers.

Vectors are plain tuples of non-negative ints; the tuple length is the
dimension. Operations on two vectors require equal dimensions.
"""

from __future__ import annotations

NatVec = tuple[int, ...]
IntVec = tuple[int, ...]


class _Value:
    """Immutable record whose fields are the subclass's ``__slots__``.

    A subclass's ``__init__`` validates its arguments and hands the field
    values to ``_init`` in slot order. The field tuple is kept as well, so
    equality (same class, equal fields) and hashing (the field tuple's
    hash) cost one tuple operation. Copying and pickling rebuild the value
    through ``__init__``; ``match`` takes the fields positionally.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        # a slot's own descriptor writes past the refusing __setattr__, and
        # faster than object.__setattr__, which looks the slot up by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)
        _Value._values.__set__(self, values)

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
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
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


def is_decimal(s: str) -> bool:
    """True iff s is a non-empty run of the ASCII digits 0-9.

    str.isdigit alone also accepts other scripts' digits and superscripts.
    """
    return s.isascii() and s.isdigit()


def leq(a: NatVec, b: NatVec) -> bool:
    """True iff every component of a is <= the matching component of b."""
    _require_same_dim(a, b)
    return all(x <= y for x, y in zip(a, b))


def join(a: NatVec, b: NatVec) -> NatVec:
    """Componentwise maximum: the least vector above both a and b."""
    _require_same_dim(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


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
            raise ValueError(f"bad {what} {item!r} in {text!r}")
        out.append(int(item))
    return tuple(out)


def format_vec(v: NatVec) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"
