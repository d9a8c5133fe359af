"""Words over a finite alphabet and their embedding orders.

Two orders live here. The plain embedding order ``leq_e(u, v)`` holds when u
can be obtained from v by deleting letters; it is decided by greedy leftmost
matching. The support-sensitive order ``leq_E(u, v)`` additionally requires u
and v to use exactly the same set of letters, and compares the words after
marking each letter occurrence with a first-seen flag (``phi``).
"""

from __future__ import annotations

import re
from functools import lru_cache

from .dickson import _Value, _decimals


class AlphabetMismatch(ValueError):
    """Raised when words over different alphabets are combined."""


class Alphabet(_Value):
    """Finite alphabet; letters are the indices 0..size-1 with display names."""

    __slots__ = ("names",)
    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if not names:
            raise ValueError("an alphabet needs at least one letter")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate letter names in {names!r}")
        self._init(names)

    @classmethod
    def from_letters(cls, letters: str) -> "Alphabet":
        """Alphabet with one single-character name per character of `letters`.

        Letters follow the letter-form rule of parse_word: no whitespace
        and none of (),[]{}, so every word over the alphabet prints in a
        form that parses back.
        """
        if letters and not _LETTER_FORM.fullmatch(letters):
            raise ValueError(
                f"bad alphabet {letters!r}: letters cannot be spaces or any of (),[]{{}}"
            )
        return cls(tuple(letters))

    @classmethod
    def indexed(cls, size: int) -> "Alphabet":
        """Alphabet of the given size with names "1", "2", ..., str(size)."""
        return cls(tuple(str(i + 1) for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"letter {name!r} is not in alphabet {self}") from None

    def doubled(self) -> "Alphabet":
        """Flagged letters, letter i with flag f at 2*i + f; one object per alphabet."""
        return _doubled(self)

    def __str__(self) -> str:
        if all(len(n) == 1 for n in self.names):
            return "".join(self.names)
        return ",".join(self.names)


@lru_cache(maxsize=None)
def _doubled(alphabet: Alphabet) -> Alphabet:
    return Alphabet(tuple(f"{n}{f}" for n in alphabet.names for f in (0, 1)))


class Word(_Value):
    """Finite sequence of letter indices over a fixed alphabet."""

    __slots__ = ("alphabet", "letters")
    alphabet: Alphabet
    letters: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...] = ()):
        letters = tuple(letters)
        size = alphabet.size
        for l in letters:
            if not 0 <= l < size:
                raise ValueError(f"letter index {l} out of range for alphabet {alphabet}")
        self._init(alphabet, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def tail(self) -> "Word":
        return Word(self.alphabet, self.letters[1:])

    def __str__(self) -> str:
        if not self.letters:
            return "[]"
        names = self.alphabet.names
        if all(len(n) == 1 for n in names):
            return "".join(names[l] for l in self.letters)
        return "[" + ",".join(str(l) for l in self.letters) + "]"


class LabeledWord(_Value):
    """A word over a doubled alphabet paired with a set of base letters."""

    __slots__ = ("word", "support")
    word: Word
    support: frozenset[int]

    def __init__(self, word: Word, support: frozenset[int]):
        self._init(word, frozenset(support))

    def __str__(self) -> str:
        sup = ",".join(str(l) for l in sorted(self.support))
        return f"({self.word}, {{{sup}}})"


def _require_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise AlphabetMismatch(
            f"alphabet mismatch: {u} is over {u.alphabet}, {v} is over {v.alphabet}"
        )


def leq_e(u: Word, v: Word) -> bool:
    """True iff u embeds into v, i.e. deleting letters of v can yield u.

    Greedy leftmost matching: each letter of u is matched to the earliest
    unused occurrence in v. Greedy matching succeeds iff any matching does.
    """
    _require_same_alphabet(u, v)
    remaining = iter(v.letters)
    return all(c in remaining for c in u.letters)


def support(u: Word) -> frozenset[int]:
    """The set of letters occurring in u."""
    return frozenset(u.letters)


def _flagged(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Letter a becomes 2*a at its first occurrence and 2*a + 1 afterwards."""
    seen: set[int] = set()
    out = []
    for a in letters:
        out.append(2 * a + (a in seen))
        seen.add(a)
    return tuple(out)


def phi(u: Word) -> LabeledWord:
    """Flag each occurrence: 0 for a letter's first appearance, 1 afterwards.

    The result word lives over the doubled alphabet (letter i with flag f is
    encoded as 2*i + f) and is paired with the support of u.
    """
    return LabeledWord(Word(u.alphabet.doubled(), _flagged(u.letters)), support(u))


def leq_E(u: Word, v: Word) -> bool:
    """Support-sensitive embedding: equal supports and phi(u) embeds in phi(v).

    Decided on the flagged letter tuples directly, by the greedy leftmost
    matching of leq_e; the support check comes first as the cheap rejection.
    """
    _require_same_alphabet(u, v)
    if set(u.letters) != set(v.letters):
        return False
    remaining = iter(_flagged(v.letters))
    return all(c in remaining for c in _flagged(u.letters))


def labeled_leq(p: LabeledWord, q: LabeledWord) -> bool:
    """Product order on labeled words: equal supports and embedded words."""
    return p.support == q.support and leq_e(p.word, q.word)


# A letter-form word is a run of non-space characters, none of them one
# of the delimiters of vectors, index lists and upset blocks.
_LETTER_FORM = re.compile(r"[^\s(),\[\]{}]+")


def _check_letter_form(text: str) -> None:
    if not _LETTER_FORM.fullmatch(text):
        raise ValueError(
            f"bad word {text!r}: a letter-form word has no spaces and none of (),[]{{}}"
        )


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse juxtaposed letter names ("aabbca") or an index list ("[0,1,2]").

    The empty word is written "[]" (an empty string also parses to it).
    Letter form admits no spaces and none of the characters (),[]{}.
    """
    stripped = text.strip()
    if stripped in ("", "[]"):
        return Word(alphabet)
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise ValueError(f"unterminated index list {text!r}")
        return Word(alphabet, _decimals(stripped[1:-1], "letter index", text))
    if not all(len(n) == 1 for n in alphabet.names):
        raise ValueError(
            f"alphabet {alphabet} has multi-character names; "
            f"write the word as an index list"
        )
    _check_letter_form(stripped)
    return Word(alphabet, tuple(alphabet.index(ch) for ch in stripped))
