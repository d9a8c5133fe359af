import random
import re
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqokit import coverability, dickson
from wqokit import (
    CoverQuery,
    DimensionMismatch,
    NatVec,
    NetParseError,
    SaturationLimit,
    Transition,
    Vas,
    backward_cover,
    dickson_upset,
    forward_cover_oracle,
    leq,
    parse_net,
    pre_step,
)

from oracles import box, minimal_elements, pre_image, pre_points, rand_vec, vec_le

WORKED = CoverQuery(
    Vas(2, (Transition("t1", (1, 0), (0, 1)),)),
    initial=(2, 0),
    target=(0, 2),
)

WORKED_TEXT = """\
places 2
transition t1 consume (1,0) produce (0,1)
initial (2,0)
target (0,2)
"""


def test_construction_validates_dimensions():
    with pytest.raises(DimensionMismatch):
        Transition("t", (1, 0), (0, 1, 0))
    with pytest.raises(DimensionMismatch):
        Vas(3, (Transition("t", (1, 0), (0, 1)),))
    with pytest.raises(DimensionMismatch):
        CoverQuery(Vas(2), (1, 0, 0), (0, 1))
    with pytest.raises(ValueError):
        Vas(0)
    with pytest.raises(DimensionMismatch):
        pre_step(dickson_upset([(0, 2, 0)]), WORKED.net.transitions[0])


def test_a_vector_upset_has_one_dimension():
    # pre_step checks only its first generator against the transition
    with pytest.raises(DimensionMismatch):
        dickson_upset([(1,), (1, 2)])
    with pytest.raises(DimensionMismatch) as err:
        pre_step(dickson_upset([(0, 2, 0), (1, 1, 1)]), WORKED.net.transitions[0])
    assert str(err.value) == (
        "dimension mismatch: (0,2,0) is 3-dimensional, (1,0) is 2-dimensional"
    )


def test_pre_step_examples():
    t = WORKED.net.transitions[0]
    assert pre_step(dickson_upset([(0, 2)]), t).gens == ((1, 1),)
    assert pre_step(dickson_upset([(1, 1)]), t).gens == ((2, 0),)
    assert pre_step(dickson_upset([]), t).gens == ()


def test_pre_step_matches_forward_firing():
    rng = random.Random(27)
    pts = box(5, 2)
    for _ in range(200):
        t = Transition("t", rand_vec(rng, 2, 2), rand_vec(rng, 2, 2))
        gens = [rand_vec(rng, 2, 3) for _ in range(rng.randint(1, 3))]
        pre = pre_step(dickson_upset(gens), t)
        want = pre_points(gens, t.consume, t.produce, pts)
        assert {p for p in pts if pre.member(p)} == want


def test_backward_cover_worked_example():
    result = backward_cover(WORKED)
    assert result.coverable
    assert result.basis.gens == ((0, 2), (1, 1), (2, 0))
    assert result.iterations <= 3


def test_backward_cover_no_transitions():
    result = backward_cover(CoverQuery(Vas(2), (0, 0), (1, 0)))
    assert not result.coverable
    assert result.basis.gens == ((1, 0),)


def test_backward_cover_immediate_membership():
    result = backward_cover(CoverQuery(Vas(2), (3, 1), (1, 1)))
    assert result.coverable
    assert result.iterations == 0


def test_backward_cover_saturation_is_monotone():
    # replay the rounds from the definitions (as round_by_round does) and
    # compare against the library result
    current = {WORKED.target}
    while True:
        pre = {pre_image(g, t.consume, t.produce) for g in current for t in WORKED.net.transitions}
        nxt = minimal_elements(current | pre, vec_le)
        # each round includes the last: every old generator lies above a new one
        assert all(any(vec_le(h, g) for h in nxt) for g in current)
        if nxt == current:
            break
        current = nxt
    assert any(vec_le(g, WORKED.initial) for g in current)
    # the library exits early at membership, so its basis is contained in
    # the full fixpoint reached by the replay
    assert set(backward_cover(WORKED).basis.gens) <= current


def test_backward_cover_basis_is_antichain():
    rng = random.Random(28)
    for _ in range(50):
        m = rng.randint(1, 3)
        ts = tuple(
            Transition(f"t{i}", rand_vec(rng, m, 2), rand_vec(rng, m, 2))
            for i in range(rng.randint(1, 3))
        )
        q = CoverQuery(Vas(m, ts), rand_vec(rng, m, 2), rand_vec(rng, m, 2))
        basis = backward_cover(q).basis
        for g in basis.gens:
            for h in basis.gens:
                if g != h:
                    assert not leq(g, h)


def test_backward_cover_iteration_cap():
    # single place, free production: the saturation walks the target down
    # one token per round, so a small cap trips before the fixpoint
    q = CoverQuery(Vas(1, (Transition("t", (0,), (1,)),)), (0,), (5,))
    assert backward_cover(q).coverable
    with pytest.raises(SaturationLimit, match="no fixpoint within 2 rounds"):
        backward_cover(q, max_iterations=2)
    # a cap of 0 still answers when the target already covers the start
    assert backward_cover(CoverQuery(q.net, (5,), (5,)), max_iterations=0).coverable
    with pytest.raises(ValueError) as err:
        backward_cover(q, max_iterations=-5)
    assert type(err.value) is ValueError
    assert str(err.value) == "max_iterations must be at least 0"


def chain(n: int, initial: NatVec, last: int) -> CoverQuery:
    """Place i turns one token into two tokens of place i+1."""
    ts = tuple(
        Transition(
            f"t{i}",
            tuple(int(j == i) for j in range(n)),
            tuple(2 * (j == i + 1) for j in range(n)),
        )
        for i in range(n - 1)
    )
    return CoverQuery(Vas(n, ts), initial, (0,) * (n - 1) + (last,))


def test_backward_cover_basis_limit_is_a_resource_limit():
    q = chain(4, (1, 0, 0, 0), 9)
    assert len(backward_cover(q).basis.gens) > 5
    with pytest.raises(
        SaturationLimit,
        match=r"basis reached \d+ generators in round \d+, over the limit of 5$",
    ):
        backward_cover(q, max_basis=5)


def test_saturation_limit_messages():
    q = chain(4, (1, 0, 0, 0), 9)
    with pytest.raises(SaturationLimit) as err:
        backward_cover(q, max_basis=5)
    assert str(err.value) == "basis reached 6 generators in round 3, over the limit of 5"
    with pytest.raises(SaturationLimit) as err:
        backward_cover(q, max_iterations=2)
    assert str(err.value) == "no fixpoint within 2 rounds; the basis has 4 generators"


@pytest.mark.parametrize("n", [500, 1200])
def test_backward_cover_answers_wide_nets(n):
    # the trie's walks keep their own stack, so a net may have any width
    t = Transition("t", (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,))
    r = backward_cover(CoverQuery(Vas(n, (t,)), (0,) * n, (0,) * (n - 1) + (2,)))
    assert (r.coverable, r.iterations) == (False, 2)
    zeros = (0,) * (n - 2)
    assert r.basis.gens == ((0, *zeros, 2), (1, *zeros, 1), (2, *zeros, 0))


def chain_minimal_solutions(n: int, target: int) -> list:
    """Brute-force minimal m with sum m_i 2^(n-1-i) >= target.

    One token on place i becomes 2^(n-1-i) tokens on the last place, so
    these generate the coverable region of chain(n, ., target). The last
    place is forced once the others are set, and m is minimal iff
    removing any one token leaves the region.
    """
    w = [2 ** (n - 1 - i) for i in range(n)]
    minimal = []
    for m in product(*(range(-(-target // wi) + 1) for wi in w[:-1])):
        m += (max(0, target - sum(map(mul, m, w))),)
        total = sum(map(mul, m, w))
        if all(total - wi < target for wi, mi in zip(w, m) if mi):
            minimal.append(m)
    return minimal


def _check_chain_basis(n: int, size: int, rounds: int) -> None:
    target = 2 ** (n - 1) + 1
    minimal = chain_minimal_solutions(n, target)
    result = backward_cover(chain(n, (1,) + (0,) * (n - 1), target))
    assert not result.coverable
    assert result.iterations == rounds
    assert result.basis.gens == tuple(sorted(minimal))
    assert len(minimal) == size


def test_backward_cover_chain6_basis_is_all_minimal_solutions():
    _check_chain_basis(6, 255, 36)


def test_backward_cover_chain7_basis_is_all_minimal_solutions():
    _check_chain_basis(7, 2083, 69)


def round_by_round(
    q: CoverQuery, max_iterations: int | None = None, max_basis: int | None = None
):
    """Reference saturation: renormalize the whole basis every round.

    It calls no library code: the pre-images come from their definition,
    the basis from oracles.minimal_elements, membership from a plain scan.
    Returns (coverable, sorted basis, iterations).
    """
    current = {q.target}
    iterations = 0
    while True:
        if any(vec_le(g, q.initial) for g in current):
            return True, tuple(sorted(current)), iterations
        if max_iterations is not None and iterations >= max_iterations:
            raise SaturationLimit("reference cap")
        pre = {pre_image(g, t.consume, t.produce) for g in current for t in q.net.transitions}
        nxt = minimal_elements(current | pre, vec_le)
        if max_basis is not None and len(nxt) > max_basis:
            raise SaturationLimit("reference size cap")
        if nxt == current:
            return False, tuple(sorted(current)), iterations
        current = nxt
        iterations += 1


@st.composite
def small_queries(draw):
    m = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 2)] * m)
    pairs = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=3))
    ts = tuple(Transition(f"t{i}", c, p) for i, (c, p) in enumerate(pairs))
    return CoverQuery(Vas(m, ts), draw(vec), draw(vec))


def _outcome(run, q, **caps):
    try:
        return run(q, **caps)
    except SaturationLimit:
        return "limit"


def _cover(q: CoverQuery, **caps) -> tuple:
    """backward_cover's answer in round_by_round's form."""
    r = backward_cover(q, **caps)
    return r.coverable, r.basis.gens, r.iterations


def _assert_matches_round_by_round(q: CoverQuery) -> None:
    coverable, gens, iterations = _cover(q)
    assert (coverable, gens, iterations) == round_by_round(q)
    for cap in range(iterations + 2):
        mine = _outcome(_cover, q, max_iterations=cap)
        assert mine == _outcome(round_by_round, q, max_iterations=cap)
    for cap in range(len(gens) + 2):
        mine = _outcome(_cover, q, max_basis=cap)
        assert mine == _outcome(round_by_round, q, max_basis=cap)
    if iterations:
        with pytest.raises(SaturationLimit):
            backward_cover(q, max_iterations=iterations - 1)


@settings(max_examples=300, deadline=None)
@given(small_queries())
def test_backward_cover_matches_round_by_round_saturation(q):
    _assert_matches_round_by_round(q)


# nets with a transition whose pre-image of some generator lies above it
SELF_COVERING = {
    "identity": CoverQuery(
        Vas(2, (Transition("i", (1, 0), (1, 0)), Transition("t", (1, 0), (0, 2)))),
        initial=(2, 0),
        target=(0, 5),
    ),
    "gain on a consumed place": CoverQuery(
        Vas(2, (Transition("g", (1, 0), (2, 0)), Transition("t", (1, 0), (0, 1)))),
        initial=(1, 0),
        target=(0, 3),
    ),
    "zero consume": CoverQuery(
        Vas(
            3,
            (
                Transition("z", (0, 0, 0), (0, 0, 1)),
                Transition("t", (1, 0, 0), (0, 2, 0)),
                Transition("u", (0, 1, 1), (0, 0, 0)),
            ),
        ),
        initial=(1, 0, 0),
        target=(0, 3, 0),
    ),
}


@pytest.mark.parametrize("q", SELF_COVERING.values(), ids=SELF_COVERING)
def test_backward_cover_matches_round_by_round_on_self_covering_pre_images(q):
    steps = [coverability._moves(t) for t in q.net.transitions]
    gens = backward_cover(q).basis.gens
    # _pre gives None exactly when the pre-image lies above g
    assert any(coverability._pre(g, s) is None for g in gens for s in steps)
    _assert_matches_round_by_round(q)


def _assert_no_same_round_eviction(q: CoverQuery) -> None:
    """No vector a round inserts is evicted before that round ends.

    The target is inserted before round 1, and a candidate of round k is
    the pre-image of a generator inserted in round k - 1: the round that
    inserts a vector is read off the last _pre call that made it.
    """
    round_of: dict = {}  # inserted vector -> the round that inserted it
    made_from: dict = {}  # candidate -> the generator it was last made from
    pre, insert, evict = coverability._pre, coverability._insert, coverability._evict_above

    def round_inserting(c):
        return round_of[made_from[c]] + 1 if c in made_from else 0

    def recording_pre(g, moves):
        c = pre(g, moves)
        if c is not None:
            made_from[c] = g
        return c

    def recording_insert(root, c, last):
        insert(root, c, last)
        round_of[c] = round_inserting(c)

    def recording_evict(root, c, last, basis):
        before = set(basis)
        evict(root, c, last, basis)
        gone = before - basis
        adding = round_inserting(c)
        assert all(round_of[g] < adding for g in gone), (adding, gone)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_pre", recording_pre)
        mp.setattr(coverability, "_insert", recording_insert)
        mp.setattr(coverability, "_evict_above", recording_evict)
        result = backward_cover(q)
    assert max(round_of.values()) == result.iterations


def test_chain6_evicts_no_generator_in_the_round_that_added_it():
    _assert_no_same_round_eviction(chain(6, (1, 0, 0, 0, 0, 0), 33))


@settings(max_examples=300, deadline=None)
@given(small_queries())
def test_backward_cover_evicts_no_generator_in_the_round_that_added_it(q):
    _assert_no_same_round_eviction(q)


def _assert_no_candidate_only_above_its_sources(q: CoverQuery) -> None:
    """Every vector the round searches the basis for has a source not below it.

    A round makes all its candidates with _pre before it searches for any,
    so a _pre call that follows a search starts a new round. The target
    goes in unsearched.
    """
    sources: dict = {}  # candidate -> the generators it was made from this round
    adding = False
    pre, has_below = coverability._pre, coverability._has_below

    def recording_pre(g, moves):
        nonlocal adding
        if adding:
            sources.clear()
            adding = False
        c = pre(g, moves)
        if c is not None:
            sources.setdefault(c, []).append(g)
        return c

    def recording_has_below(root, c, last):
        nonlocal adding
        assert not all(leq(g, c) for g in sources[c]), (c, sources[c])
        adding = True
        return has_below(root, c, last)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_pre", recording_pre)
        mp.setattr(coverability, "_has_below", recording_has_below)
        backward_cover(q)


def test_chain6_adds_no_candidate_that_lies_above_all_its_sources():
    _assert_no_candidate_only_above_its_sources(chain(6, (1, 0, 0, 0, 0, 0), 33))


@settings(max_examples=300, deadline=None)
@given(small_queries())
def test_backward_cover_adds_no_candidate_that_lies_above_all_its_sources(q):
    _assert_no_candidate_only_above_its_sources(q)


def _saturation_work(q: CoverQuery) -> tuple:
    """(_pre calls, vectors offered, inserted, dropped, evicted) of backward_cover(q).

    The target and every candidate a round searches for are offered: the
    target is inserted, and a candidate is dropped or inserted.
    """
    pres = inserted = dropped = evicted = 0
    pre, has_below = coverability._pre, coverability._has_below
    insert, evict = coverability._insert, coverability._evict_above

    def counting_pre(*args):
        nonlocal pres
        pres += 1
        return pre(*args)

    def counting_has_below(*args):
        nonlocal dropped
        found = has_below(*args)
        dropped += found
        return found

    def counting_insert(*args):
        nonlocal inserted
        inserted += 1
        insert(*args)

    def counting_evict(root, c, last, basis):
        nonlocal evicted
        before = len(basis)
        evict(root, c, last, basis)
        evicted += before - len(basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_pre", counting_pre)
        mp.setattr(coverability, "_has_below", counting_has_below)
        mp.setattr(coverability, "_insert", counting_insert)
        mp.setattr(coverability, "_evict_above", counting_evict)
        backward_cover(q)
    return pres, inserted + dropped, inserted, dropped, evicted


@pytest.mark.parametrize(
    "n, work",
    [(6, (3_335, 1_026, 667, 359, 412)), (7, (39_432, 10_649, 6_572, 4_077, 4_489))],
)
def test_chain_saturation_work_is_pinned(n, work):
    # hardware-independent counts: a change to constant factors keeps them
    q = chain(n, (1,) + (0,) * (n - 1), 2 ** (n - 1) + 1)
    assert _saturation_work(q) == work


def _search_work(q: CoverQuery) -> tuple:
    """(_pre's Nones, nodes visited by refused searches, by accepted ones).

    A search is one _has_below call, and it visits one trie node each
    time it takes the children of a node, newest first, with reversed.
    """
    nones = visits = 0
    by_answer = {True: 0, False: 0}  # whether a generator lies below
    pre, has_below = coverability._pre, coverability._has_below

    def counting_pre(g, moves):
        nonlocal nones
        c = pre(g, moves)
        nones += c is None
        return c

    def counting_reversed(items):
        nonlocal visits
        visits += 1
        return reversed(items)

    def counting_has_below(root, c, leaf):
        start = visits
        found = has_below(root, c, leaf)
        by_answer[found] += visits - start
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_pre", counting_pre)
        mp.setattr(coverability, "_has_below", counting_has_below)
        mp.setattr(dickson, "reversed", counting_reversed, raising=False)
        backward_cover(q)
    return nones, by_answer[True], by_answer[False]


@pytest.mark.parametrize(
    "n, work", [(6, (1_501, 2_060, 7_345)), (7, (16_979, 34_486, 141_537))]
)
def test_chain_search_work_is_pinned(n, work):
    # hardware-independent counts; a refused search meets the generators
    # of its own round first, because it enters the newest children first.
    # The target goes in unsearched: a search of the empty trie would visit
    # its root, one more accepted visit
    q = chain(n, (1,) + (0,) * (n - 1), 2 ** (n - 1) + 1)
    assert _search_work(q) == work


@st.composite
def transitions_and_markings(draw):
    m = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(0, 3)] * m)
    # all-zero and identity transitions among them
    consume = draw(st.just((0,) * m) | vec)
    produce = draw(st.sampled_from([(0,) * m, consume]) | vec)
    return Transition("t", consume, produce), draw(vec)


@settings(max_examples=300, deadline=None)
@given(transitions_and_markings())
def test_pre_of_moves_is_the_least_marking_that_fires_above_g(case):
    t, g = case
    want = tuple(max(x - (p - k), k) for x, k, p in zip(g, t.consume, t.produce))
    moves = coverability._moves(t)
    got = coverability._pre(g, moves)
    if leq(g, want):
        assert got is None
    else:
        assert got == want
    # the places where t gains tokens come first
    gains = [d > 0 for _, d, _ in moves]
    assert gains == sorted(gains, reverse=True)
    zero = Transition("z", (0,) * len(g), (0,) * len(g))
    assert coverability._moves(zero) == []


@settings(max_examples=300, deadline=None)
@given(transitions_and_markings(), st.data())
def test_pre_step_is_the_minimal_elements_of_the_pre_images(case, data):
    t, g = case
    vec = st.tuples(*[st.integers(0, 3)] * len(g))
    x = dickson_upset([g, *data.draw(st.lists(vec, max_size=4))])
    images = [
        tuple(max(a - (p - k), k) for a, k, p in zip(h, t.consume, t.produce))
        for h in x.gens
    ]
    assert pre_step(x, t).gens == tuple(sorted(minimal_elements(images, leq)))


def _answer(q: CoverQuery, **caps):
    try:
        return backward_cover(q, **caps)
    except SaturationLimit as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(small_queries(), st.data())
def test_backward_cover_ignores_the_order_of_transitions(q, data):
    ts = data.draw(st.permutations(q.net.transitions))
    p = CoverQuery(Vas(q.net.places, ts), q.initial, q.target)
    r = backward_cover(q)
    assert backward_cover(p) == r
    for cap in range(r.iterations + 2):
        assert _answer(p, max_iterations=cap) == _answer(q, max_iterations=cap)
    for cap in range(len(r.basis.gens) + 2):
        assert _answer(p, max_basis=cap) == _answer(q, max_basis=cap)


def test_forward_oracle_examples():
    assert forward_cover_oracle(WORKED, (4, 4))
    assert not forward_cover_oracle(CoverQuery(Vas(2), (0, 0), (1, 0)), (4, 4))
    assert forward_cover_oracle(CoverQuery(Vas(2), (0, 0), (0, 0)), (4, 4))


def test_forward_oracle_is_bound_relative():
    # covering needs to pass through 4 tokens; a bound of 3 hides the run
    q = CoverQuery(Vas(1, (Transition("t", (0,), (2,)),)), (0,), (3,))
    assert backward_cover(q).coverable
    assert not forward_cover_oracle(q, (3,))
    assert forward_cover_oracle(q, (4,))


def test_forward_oracle_rejects_small_bound():
    q = CoverQuery(Vas(1), (2,), (0,))
    with pytest.raises(ValueError):
        forward_cover_oracle(q, (1,))


def test_forward_oracle_caps_visited_markings(monkeypatch):
    counter = CoverQuery(Vas(1, (Transition("t", (0,), (1,)),)), (0,), (100,))
    assert forward_cover_oracle(counter, (10**9,))
    monkeypatch.setattr(coverability, "_MAX_MARKINGS", 5)
    with pytest.raises(ValueError, match="visited 6 markings, over the limit of 5"):
        forward_cover_oracle(counter, (10**9,))


def test_forward_oracle_cap_counts_reachable_markings_not_the_box(monkeypatch):
    # three reachable markings in a box of 10^18: exactly at the cap is fine
    monkeypatch.setattr(coverability, "_MAX_MARKINGS", 3)
    assert forward_cover_oracle(WORKED, (10**9, 10**9))
    far = CoverQuery(WORKED.net, WORKED.initial, (0, 3))
    assert not forward_cover_oracle(far, (10**9, 10**9))


def test_basis_generators_cover_from_themselves():
    # every basis generator admits a forward run covering the target
    result = backward_cover(WORKED)
    for g in result.basis.gens:
        assert forward_cover_oracle(
            CoverQuery(WORKED.net, g, WORKED.target), (4, 4)
        )


def test_parse_net_roundtrip():
    q = parse_net(WORKED_TEXT)
    assert q == WORKED
    assert q.net.transitions[0].name == "t1"


def test_parse_net_skips_blanks_and_comments():
    q = parse_net(
        "# demo\nplaces 1\n\ninitial (0) # start empty\ntarget (1)\n"
    )
    assert q.net.places == 1 and q.net.transitions == ()


_COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
_NAME = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="#"),
    min_size=1,
    max_size=4,
)


@st.composite
def net_texts(draw, blanks=" \t"):
    """A random query and a text for it: spacing, blank lines, comments,
    leading zeros, and initial/target anywhere, before places too.
    Words are separated by runs of the characters of blanks."""
    space = st.text(blanks, max_size=2)
    gap = st.text(blanks, min_size=1, max_size=3)
    m = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 12)] * m)

    def write(v):
        digits = [draw(st.sampled_from(["", "0"])) + str(x) for x in v]
        return "(" + ",".join(digits) + ")"

    def line(*words):
        text = draw(space) + "".join(w + draw(gap) for w in words)
        if draw(st.booleans()):
            text = text.rstrip(blanks) + draw(space) + "#" + draw(_COMMENT)
        return text

    pairs = draw(st.lists(st.tuples(_NAME, vec, vec), max_size=4))
    lines = [line("places", str(m))]
    for n, c, p in pairs:
        lines.append(line("transition", n, "consume", write(c), "produce", write(p)))
    initial, target = draw(vec), draw(vec)
    for head, v in (("initial", initial), ("target", target)):
        lines.insert(draw(st.integers(0, len(lines))), line(head, write(v)))
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", draw(gap), "#" + draw(_COMMENT)]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    net = Vas(m, tuple(Transition(n, c, p) for n, c, p in pairs))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return CoverQuery(net, initial, target), text


@settings(max_examples=300, deadline=None)
@given(net_texts())
def test_parse_net_accepts_every_well_formed_text(case):
    q, text = case
    assert parse_net(text) == q


# every character that is whitespace but not a line end; str.splitlines()
# also breaks lines at those of _SPLITLINES_ONLY, parse_net does not
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BLANKS = (
    "\t\x1f \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
    + _SPLITLINES_ONLY
)


@settings(max_examples=300, deadline=None)
@given(net_texts(_BLANKS), st.data())
def test_parse_net_reports_the_column_of_a_broken_vector(case, data):
    """A vector broken in a text spaced with any blanks is reported at
    the line and column where the regex \\S+ finds it."""
    _, text = case
    lines = text.split("\n")
    vectors = []  # (line index, match of a vector word)
    for i, line in enumerate(lines):
        words = list(re.finditer(r"\S+", line.split("#", 1)[0]))
        head = words[0].group() if words else None
        at = {"transition": (3, 5), "initial": (1,), "target": (1,)}.get(head, ())
        vectors += [(i, words[k]) for k in at]
    i, m = data.draw(st.sampled_from(vectors))
    broken = "(x" + m.group()[1:]
    lines[i] = lines[i][: m.start()] + broken + lines[i][m.end() :]
    with pytest.raises(NetParseError) as err:
        parse_net("\n".join(lines))
    item = broken[1:-1].split(",")[0]
    assert str(err.value) == (
        f"line {i + 1}, column {m.start() + 1}: "
        f"bad vector component {item!r} in {broken!r}"
    )


# (text, fragment, exact message). The fragment names the branch and
# keeps the test ids of the earlier fragment-only table.
PARSE_NET_ERRORS = [
    ("places 0\ninitial (0)\ntarget (0)", "at least one place",
     "line 1, column 8: a net needs at least one place"),
    ("places 1\nplaces 1\ninitial (0)\ntarget (0)", "duplicate places",
     "line 2, column 1: duplicate places line"),
    ("transition t consume (1) produce (0)\nplaces 1", "before transitions",
     "line 1, column 1: places must be declared before transitions"),
    ("places 1\ntransition t consume (1)\ninitial (0)\ntarget (0)", "expected",
     "line 2, column 1: expected: transition <name> consume <vec> produce <vec>"),
    ("places 1\ninitial (0,0)\ntarget (0)", "dimension",
     "line 2, column 9: vector (0,0) has dimension 2, net has 1 places"),
    ("places 1\ninitial (x)\ntarget (0)", "component",
     "line 2, column 9: bad vector component 'x' in '(x)'"),
    ("places 1\nfoo bar\ninitial (0)\ntarget (0)", "unknown directive",
     "line 2, column 1: unknown directive 'foo'"),
    ("places 1\ninitial (0)", "missing target", "missing target line"),
    ("initial (0)\ntarget (0)", "missing places", "missing places line"),
    ("places 1\ntarget (0)", "missing initial", "missing initial line"),
    # places
    ("places x\ninitial (0)\ntarget (0)", "count not a number",
     "line 1, column 1: expected: places <count>"),
    ("places 1 2\ninitial (0)\ntarget (0)", "two counts",
     "line 1, column 1: expected: places <count>"),
    ("places\ninitial (0)\ntarget (0)", "no count",
     "line 1, column 1: expected: places <count>"),
    ("places 1\nplaces x\ninitial (0)\ntarget (0)", "duplicate before count",
     "line 2, column 1: duplicate places line"),
    ("places 1\nPlaces 1\ninitial (0)\ntarget (0)", "directives are case-sensitive",
     "line 2, column 1: unknown directive 'Places'"),
    # transitions
    ("transition t\nplaces 1", "places first before shape",
     "line 1, column 1: places must be declared before transitions"),
    ("places 1\ntransition t produce (1) consume (0)\ninitial (0)\ntarget (0)",
     "swapped keywords",
     "line 2, column 1: expected: transition <name> consume <vec> produce <vec>"),
    ("places 1\ninitial (0)\ntarget (0)\ntransition t consume (1) produce (0) x",
     "extra word",
     "line 4, column 1: expected: transition <name> consume <vec> produce <vec>"),
    ("places 2\ntransition t consume (1) produce (0,0)\ninitial (0,0)\ntarget (0,0)",
     "consume dimension",
     "line 2, column 22: vector (1) has dimension 1, net has 2 places"),
    ("places 2\ntransition t consume (1,0) produce (0)\ninitial (0,0)\ntarget (0,0)",
     "produce dimension",
     "line 2, column 36: vector (0) has dimension 1, net has 2 places"),
    ("places 1\ntransition t consume (x) produce (0)\ninitial (0)\ntarget (0)",
     "consume component",
     "line 2, column 22: bad vector component 'x' in '(x)'"),
    ("places 1\ntransition t consume (1) produce 0\ninitial (0)\ntarget (0)",
     "produce not a vector",
     "line 2, column 34: expected a parenthesized vector, got '0'"),
    ("places 1\ntransition t consume (x) produce (0,0)\ninitial (0)\ntarget (0)",
     "consume before produce",
     "line 2, column 22: bad vector component 'x' in '(x)'"),
    # initial and target
    ("places 1\ninitial (0)\ninitial (1)\ntarget (0)", "duplicate initial",
     "line 3, column 1: duplicate initial line"),
    ("places 1\ninitial (0)\ntarget (0)\n  target (1)", "duplicate target",
     "line 4, column 3: duplicate target line"),
    ("places 1\ninitial (0)\ninitial (x)\ntarget (0)", "vector before duplicate",
     "line 3, column 9: bad vector component 'x' in '(x)'"),
    ("places 1\ninitial (0)\ninitial (0,0)\ntarget (0)", "dimension before duplicate",
     "line 3, column 9: vector (0,0) has dimension 2, net has 1 places"),
    ("places 1\ninitial # (0)\ntarget (0)", "inline comment",
     "line 2, column 1: expected: initial <vec>"),
    ("places 1\ninitial (0) (0)\ntarget (0)", "two vectors",
     "line 2, column 1: expected: initial <vec>"),
    ("places 1\ninitial ()\ntarget (0)", "empty vector",
     "line 2, column 9: a vector needs at least one component"),
    ("places 1\n\tinitial\t(x)\ntarget (0)", "tabs count one column",
     "line 2, column 10: bad vector component 'x' in '(x)'"),
]


@pytest.mark.parametrize(
    "text,fragment,message",
    PARSE_NET_ERRORS,
    ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_NET_ERRORS],
)
def test_parse_net_errors(text, fragment, message):
    with pytest.raises(NetParseError) as err:
        parse_net(text)
    assert type(err.value) is NetParseError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("initial (0,0)\nplaces 1\ntarget (0)",
         "initial marking (0,0) has dimension 2, net has 1 places"),
        ("target (0,0)\nplaces 1\ninitial (0)",
         "target marking (0,0) has dimension 2, net has 1 places"),
    ],
)
def test_parse_net_checks_markings_before_places_when_building(text, message):
    with pytest.raises(DimensionMismatch) as err:
        parse_net(text)
    assert type(err.value) is DimensionMismatch
    assert str(err.value) == message


@pytest.mark.parametrize("blank", _SPLITLINES_ONLY)
def test_parse_net_ends_lines_only_at_line_ends(blank):
    # a blank ending line 2 adds no line, one before "bad" is a column
    text = f"places 1\ninitial (0){blank}\ntarget (1)\n\n{blank}bad\n"
    with pytest.raises(NetParseError) as err:
        parse_net(text)
    assert str(err.value) == "line 5, column 2: unknown directive 'bad'"
    # nor does one end a comment
    assert parse_net(f"places 1 # two{blank}places 2\ninitial (0)\ntarget (1)") == (
        CoverQuery(Vas(1), (0,), (1,))
    )


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_parse_net_takes_crlf_and_cr_line_ends(end):
    assert parse_net(WORKED_TEXT.replace("\n", end)) == WORKED
    with pytest.raises(NetParseError, match="^line 3, column 9: "):
        parse_net(end.join(["places 1", "", "initial (x)", "target (0)"]))


def test_parse_net_error_carries_line_and_column():
    with pytest.raises(NetParseError) as err:
        parse_net("places 1\ninitial (y)\ntarget (0)")
    assert err.value.line == 2
    assert err.value.column == 9
    assert "line 2" in str(err.value)
