"""The contract of the immutable value classes.

Alphabet, Word, LabeledWord, Transition, Vas, CoverQuery,
QuasiEmbedding and UpSet compare, hash, print, copy, pickle and match by
their fields, refuse assignment and deletion, and validate on
construction.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wqokit
from wqokit import (
    Alphabet,
    CoverQuery,
    DimensionMismatch,
    LabeledWord,
    QuasiEmbedding,
    Transition,
    UpSet,
    Vas,
    Word,
    dickson_upset,
    labeled_leq,
    labeling_embedding,
    leq,
    leq_E,
    word_to_labeled,
)

AB = Alphabet(("a", "b"))
WORD = Word(AB, (0, 1, 0))
LABELED = LabeledWord(Word(AB.doubled(), (0, 2)), frozenset({0, 1}))
T = Transition("t", (1, 0), (0, 1))
NET = Vas(2, (T,))
QUERY = CoverQuery(NET, (1, 0), (0, 1))
EMBED = labeling_embedding()
UPSET = dickson_upset([(2, 1), (3, 3), (1, 2)])

# each value with its field tuple, in declaration order
VALUES = [
    (AB, (("a", "b"),)),
    (WORD, (AB, (0, 1, 0))),
    (LABELED, (Word(AB.doubled(), (0, 2)), frozenset({0, 1}))),
    (T, ("t", (1, 0), (0, 1))),
    (NET, (2, (T,))),
    (QUERY, (NET, (1, 0), (0, 1))),
    (EMBED, ("word-to-labeled", leq_E, labeled_leq, word_to_labeled)),
    (UPSET, (leq, ((1, 2), (2, 1)))),
]
IDS = [type(v).__name__ for v, _ in VALUES]


def test_repr():
    words_repr = "Word(alphabet=Alphabet(names=('a', 'b')), letters=(0, 1, 0))"
    transition_repr = "Transition(name='t', consume=(1, 0), produce=(0, 1))"
    net_repr = f"Vas(places=2, transitions=({transition_repr},))"
    assert repr(AB) == "Alphabet(names=('a', 'b'))"
    assert repr(WORD) == words_repr
    assert repr(LABELED) == (
        "LabeledWord(word=Word(alphabet=Alphabet(names=('a0', 'a1', 'b0', 'b1')), "
        "letters=(0, 2)), support=frozenset({0, 1}))"
    )
    assert repr(T) == transition_repr
    assert repr(NET) == net_repr
    assert repr(QUERY) == f"CoverQuery(net={net_repr}, initial=(1, 0), target=(0, 1))"
    assert repr(EMBED) == (
        f"QuasiEmbedding(name='word-to-labeled', source_leq={leq_E!r}, "
        f"target_leq={labeled_leq!r}, mapping={word_to_labeled!r})"
    )
    assert repr(UPSET) == "UpSet({(1,2), (2,1)})"
    assert repr(UpSet(leq_E, [WORD])) == "UpSet({aba})"


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_fields(value, fields):
    twin = type(value)(*fields)
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(value) == hash(fields) == hash(twin)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented


def test_values_of_different_classes_differ():
    values = [v for v, _ in VALUES]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and not a == b
    assert Word(AB) != Word(Alphabet(("a", "c")))
    assert WORD != Word(AB, (0, 1))
    assert Vas(2) != Vas(3)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(value, fields):
    for name in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert type(value)(*fields) == value


def test_keyword_construction_and_defaults():
    assert Alphabet(names=("a", "b")) == AB
    assert Word(alphabet=AB, letters=(0, 1, 0)) == WORD
    assert Word(alphabet=AB) == Word(AB, ())
    assert LabeledWord(word=LABELED.word, support={0, 1}) == LABELED
    assert Transition(name="t", consume=(1, 0), produce=(0, 1)) == T
    assert Vas(places=2, transitions=[T]) == NET
    assert Vas(places=2).transitions == ()
    assert CoverQuery(net=NET, initial=(1, 0), target=(0, 1)) == QUERY
    assert QuasiEmbedding(
        name="word-to-labeled", source_leq=leq_E,
        target_leq=labeled_leq, mapping=word_to_labeled,
    ) == EMBED
    assert UpSet(leq=leq, gens=[(1, 2), (2, 1)]) == UPSET
    assert UpSet(leq) == UpSet(leq, ())


def test_construction_normalizes_sequences():
    assert Alphabet(["a", "b"]).names == ("a", "b")
    assert Word(AB, [1, 0]).letters == (1, 0)
    assert type(LabeledWord(WORD, {0}).support) is frozenset
    assert Vas(2, [T]).transitions == (T,)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value, fields):
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is type(value) and clone == value


def test_positional_match():
    match WORD:
        case Word(alpha, letters):
            assert (alpha, letters) == (AB, (0, 1, 0))
        case _:
            pytest.fail("Word did not match positionally")
    match QUERY:
        case CoverQuery(Vas(places, (Transition(name, _, produce),)), initial, _):
            assert (places, name, produce, initial) == (2, "t", (0, 1), (1, 0))
        case _:
            pytest.fail("CoverQuery did not match positionally")
    match LABELED:
        case LabeledWord(Word(_, letters), support):
            assert (letters, support) == ((0, 2), {0, 1})
        case _:
            pytest.fail("LabeledWord did not match positionally")
    match UPSET:
        case UpSet(order, (first, *rest)):
            assert (order, first, rest) == (leq, (1, 2), [(2, 1)])
        case _:
            pytest.fail("UpSet did not match positionally")
    assert [type(v).__match_args__ for v, _ in VALUES] == [
        ("names",),
        ("alphabet", "letters"),
        ("word", "support"),
        ("name", "consume", "produce"),
        ("places", "transitions"),
        ("net", "initial", "target"),
        ("name", "source_leq", "target_leq", "mapping"),
        ("leq", "gens"),
    ]


@pytest.mark.parametrize("make,error,message", [
    (lambda: Alphabet(()), ValueError, "an alphabet needs at least one letter"),
    (lambda: Alphabet(["a", "a"]), ValueError, "duplicate letter names in ('a', 'a')"),
    (lambda: Word(AB, (0, 2)), ValueError, "letter index 2 out of range for alphabet ab"),
    (lambda: Word(AB, [-1, 5]), ValueError, "letter index -1 out of range for alphabet ab"),
    (lambda: Transition("t", (1, 0), (0, 1, 0)), DimensionMismatch,
     "transition t: consume (1,0) and produce (0,1,0) differ in dimension"),
    (lambda: Vas(0, [Transition("t", (1,), (0,))]), ValueError,
     "a net needs at least one place"),
    (lambda: Vas(3, [T]), DimensionMismatch, "transition t has dimension 2, net has 3 places"),
    (lambda: CoverQuery(NET, (1, 0, 0), (0,)), DimensionMismatch,
     "initial marking (1,0,0) has dimension 3, net has 2 places"),
    (lambda: CoverQuery(NET, (1, 0), (0,)), DimensionMismatch,
     "target marking (0) has dimension 1, net has 2 places"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(wqokit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import wqokit.cli, sys; assert 'dataclasses' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
