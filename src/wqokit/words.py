"""Words over a finite alphabet and their embedding orders.

Two orders live here. The plain embedding order ``leq_e(u, v)`` holds when u
can be obtained from v by deleting letters; it is decided by greedy leftmost
matching. The support-sensitive order ``leq_E(u, v)`` additionally requires u
and v to use exactly the same set of letters, and compares the words after
marking each letter occurrence with a first-seen flag (``phi``).

A word's flagged letters and its letter set are computed once per distinct
letter tuple and kept in a bounded least-recently-used cache, which
``leq_E`` and ``phi`` share; a comparison only looks them up.

Each order is its alphabet check followed by an unchecked comparison of
letter tuples. ``_embeds`` is the greedy matcher of ``leq_e``. ``leq_E``
compares (length, support, flagged letters) keys with
``_supported_embeds``: equal supports, then the same greedy match, in one
frame; the upset kernel of ``labeled_leq`` compares (length, support,
letters) keys with it too. The length comes first so that an upset reads
the size of a key with ``operator.itemgetter(0)``, without a Python call.
Upsets call these kernels directly once they have checked the alphabet
(see ``upset``).

An alphabet works out two facts about its names once, when it is built:
the table from name to index, and whether every name is one character.
They are derived slots, not fields. So parsing a letter-form word costs
one table lookup per letter, and printing a word or an alphabet does not
rescan the names, however many words are read or printed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import repeat
from operator import contains

from .dickson import _Value, _decimals


class AlphabetMismatch(ValueError):
    """Raised when words over different alphabets are combined."""


class Alphabet(_Value):
    """Finite alphabet; letters are the indices 0..size-1 with display names.

    The one field is `names`. Two facts are built from it once and kept in
    private slots, which are not fields: `_index`, the table from name to
    index that `index` reads, and `_one_char`, whether every name is one
    character, which decides letter form in printing and parsing.
    """

    __slots__ = ("names", "_index", "_one_char")
    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if not names:
            raise ValueError("an alphabet needs at least one letter")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError(f"duplicate letter names in {names!r}")
        self._init(names, index, all(len(n) == 1 for n in names))

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
            return self._index[name]
        except KeyError:
            raise ValueError(f"letter {name!r} is not in alphabet {self}") from None

    @lru_cache(maxsize=None)
    def doubled(self) -> "Alphabet":
        """Flagged letters, letter i with flag f at 2*i + f; one object per alphabet."""
        return Alphabet(tuple(f"{n}{f}" for n in self.names for f in (0, 1)))

    def __str__(self) -> str:
        return ("" if self._one_char else ",").join(self.names)


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
        if self.letters and self.alphabet._one_char:
            return "".join(map(self.alphabet.names.__getitem__, self.letters))
        return _index_form(self)


def _index_form(w: Word) -> str:
    """The word as a list of its letter indices, "[0,1]"; the empty word is "[]"."""
    return "[" + ",".join(map(str, w.letters)) + "]"


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
    return _embeds(u.letters, v.letters)


def _embeds(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Greedy leftmost matching of the letter tuple u into v, unchecked."""
    # contains(it, x) is `x in it`, which advances the one shared iterator
    # past x: still the greedy leftmost match, with no Python-level call
    return all(map(contains, repeat(iter(v)), u))


def support(u: Word) -> frozenset[int]:
    """The set of letters occurring in u."""
    return frozenset(u.letters)


# Distinct letter tuples whose flagged form is kept; a words-query pass of
# the benchmark meets about 500.
_FLAGGED_CACHE_SIZE = 4096


@lru_cache(maxsize=_FLAGGED_CACHE_SIZE)
def _flagged(letters: tuple[int, ...]) -> tuple[int, frozenset[int], tuple[int, ...]]:
    """The length of a word, its support and its flagged letters: its leq_E key.

    Letter a becomes 2*a at its first occurrence and 2*a + 1 afterwards.
    The length leads, so an upset reads the size of the key in C.
    """
    seen: set[int] = set()
    out = []
    for a in letters:
        out.append(2 * a + (a in seen))
        seen.add(a)
    return len(out), frozenset(seen), tuple(out)


def phi(u: Word) -> LabeledWord:
    """Flag each occurrence: 0 for a letter's first appearance, 1 afterwards.

    The result word lives over the doubled alphabet (letter i with flag f is
    encoded as 2*i + f) and is paired with the support of u.
    """
    _, sup, flagged = _flagged(u.letters)
    return LabeledWord(Word(u.alphabet.doubled(), flagged), sup)


def leq_E(u: Word, v: Word) -> bool:
    """Support-sensitive embedding: equal supports and phi(u) embeds in phi(v).

    Decided on the flagged letter tuples directly, by the greedy leftmost
    matching of leq_e; the support check comes first as the cheap rejection.
    """
    _require_same_alphabet(u, v)
    return _supported_embeds(_flagged(u.letters), _flagged(v.letters))


def labeled_leq(p: LabeledWord, q: LabeledWord) -> bool:
    """Product order on labeled words: equal supports and embedded words.

    Words over different alphabets raise AlphabetMismatch, whether or not
    the supports agree.
    """
    _require_same_alphabet(p.word, q.word)
    return p.support == q.support and _embeds(p.word.letters, q.word.letters)


def _supported_embeds(p: tuple, q: tuple) -> bool:
    """The kernel of leq_E and labeled_leq on (length, support, letters) keys, unchecked.

    The length takes no part: equal supports, then the greedy match.
    """
    # _embeds written out: a call to it would be a second Python frame on
    # every comparison of the two orders
    return p[1] == q[1] and all(map(contains, repeat(iter(q[2])), p[2]))


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
    if not alphabet._one_char:
        raise ValueError(
            f"alphabet {alphabet} has multi-character names; "
            f"write the word as an index list"
        )
    _check_letter_form(stripped)
    return Word(alphabet, tuple(map(alphabet.index, stripped)))
