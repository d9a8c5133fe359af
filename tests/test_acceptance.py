"""Acceptance gate: the eight checks this package is contracted to pass.

Run `pytest tests/test_acceptance.py -v -s` for one [PASS]/[FAIL] line
per criterion. Each check prints its verdict before asserting, so the
report survives a failure. Criteria compare the library against the
independent reference implementations in oracles.py. One more test,
which is no criterion, checks that acceptance 7's forward referee and
the library's forward_cover_oracle agree on that criterion's nets.
"""

from __future__ import annotations

import random
import time
from itertools import product

from wqokit import (
    INF,
    Alphabet,
    CoverQuery,
    SubseqClass,
    Transition,
    UpSet,
    Vas,
    Word,
    backward_cover,
    check_quasi_embedding,
    dickson_upset,
    dickson_word_embedding,
    find_good_pair,
    forward_cover_oracle,
    homogeneous_subsequence,
    intersect_dickson,
    labeling_embedding,
    leq,
    leq_E,
    leq_e,
    parse_word,
    phi_slice,
    quotient,
    som,
    transport_upset,
    word_upset,
)

from oracles import (
    box,
    embeds_recursive,
    first_good_pair,
    forward_covers,
    phi_slice_scan,
    rand_letters,
    rand_vec,
    vec_le,
    vec_points,
    word_points,
    words_upto,
)

AB = Alphabet.from_letters("ab")
INT_LE = lambda x, y: x <= y  # noqa: E731


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {label}")
    assert ok, f"acceptance {num}: {label}"


def _rand_word_upset(rng) -> UpSet:
    gens = [Word(AB, rand_letters(rng, 2, 5)) for _ in range(rng.randint(1, 4))]
    return word_upset(gens)


def test_1_greedy_embedding_equals_recursive_definition():
    t0 = time.perf_counter()
    tuples = words_upto(2, 8)
    ws = [Word(AB, t) for t in tuples]
    memo: dict = {}
    mismatches = 0
    for ut, u in zip(tuples, ws):
        for vt, v in zip(tuples, ws):
            if leq_e(u, v) != embeds_recursive(ut, vt, memo):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        f"greedy embedding vs recursive definition on {len(ws) ** 2} pairs, "
        f"{mismatches} mismatches, {elapsed:.1f}s (limit 30s)",
        mismatches == 0 and elapsed < 30.0,
    )


def test_2_cancelling_letters_example():
    t0 = time.perf_counter()
    abc = Alphabet.from_letters("abc")
    u = parse_word("aabbca", abc)
    v = parse_word("abababcac", abc)
    ok = leq_e(u, v) and not leq_e(v, u)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        f"aabbca embeds in abababcac and not conversely "
        f"({elapsed * 1000:.1f}ms)",
        ok and elapsed < 1.0,
    )


def test_3_upset_algebra_matches_point_semantics():
    t0 = time.perf_counter()
    rng = random.Random(33)
    bad = 0

    pts = box(4, 3)
    vec_cases = []
    for _ in range(500):
        gens = [rand_vec(rng, 3, 4) for _ in range(rng.randint(1, 4))]
        vec_cases.append((dickson_upset(gens), vec_points(gens, pts)))
    for x, ext in vec_cases:
        if {p for p in pts if x.member(p)} != ext:
            bad += 1
    for i, (x, ex) in enumerate(vec_cases):
        y, ey = vec_cases[(i * 31 + 7) % len(vec_cases)]
        if x.includes(y) != (ey <= ex):
            bad += 1
        if {p for p in pts if x.union(y).member(p)} != (ex | ey):
            bad += 1
        if {p for p in pts if intersect_dickson(x, y).member(p)} != (ex & ey):
            bad += 1

    universe = words_upto(2, 5)
    uws = [Word(AB, t) for t in universe]
    memo: dict = {}
    word_cases = []
    for _ in range(500):
        gens = [rand_letters(rng, 2, 5) for _ in range(rng.randint(1, 4))]
        word_cases.append(
            (
                gens,
                word_upset(Word(AB, g) for g in gens),
                word_points(gens, universe, memo),
            )
        )
    for _, x, ext in word_cases:
        if {t for t, u in zip(universe, uws) if x.member(u)} != ext:
            bad += 1
    for i, (_, x, ex) in enumerate(word_cases):
        _, y, ey = word_cases[(i * 17 + 3) % len(word_cases)]
        if x.includes(y) != (ey <= ex):
            bad += 1
        if {t for t, u in zip(universe, uws) if x.union(y).member(u)} != (
            ex | ey
        ):
            bad += 1
    for gens, x, _ in word_cases:
        a = rng.randrange(2)
        q = quotient(a, x)
        for t, u in zip(universe, uws):
            if q.member(u) != any(
                embeds_recursive(g, (a,) + t, memo) for g in gens
            ):
                bad += 1
                break

    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        f"member/includes/union/intersect/quotient vs point semantics, "
        f"500 vector + 500 word upsets, {bad} mismatches, "
        f"{elapsed:.1f}s (limit 60s)",
        bad == 0 and elapsed < 60.0,
    )


def test_4_quotient_lemma_suite():
    t0 = time.perf_counter()
    rng = random.Random(44)
    universe = [Word(AB, t) for t in words_upto(2, 5)]
    violations = 0

    # item (1): X is contained in every letter quotient of X
    for _ in range(1000):
        x = _rand_word_upset(rng)
        a = rng.randrange(2)
        if not quotient(a, x).includes(x):
            violations += 1

    # item (2): quotient by a starting letter grows the set strictly,
    # and a brute-force scan exhibits a new element
    done = 0
    while done < 1000:
        x = _rand_word_upset(rng)
        starts = som(x)
        if not starts:
            continue
        a = rng.choice(sorted(starts))
        q = quotient(a, x)
        strict = q.includes(x) and not x.includes(q)
        witness = next(
            (u for u in universe if q.member(u) and not x.member(u)), None
        )
        if not strict or witness is None:
            violations += 1
        done += 1

    # item (3): when X is not everything and every starting-letter
    # quotient of X sits inside the same quotient of Y, X sits inside Y
    fired = 0
    for trial in range(1000):
        x = _rand_word_upset(rng)
        if x.member(Word(AB)):  # X is the full set; the lemma excludes it
            continue
        if trial % 2 == 0:
            y = x.union(_rand_word_upset(rng))
        else:
            y = _rand_word_upset(rng)
        if all(quotient(b, y).includes(quotient(b, x)) for b in som(x)):
            fired += 1
            if not y.includes(x):
                violations += 1

    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        f"quotient lemma items (1)-(3) on 1000 instances each "
        f"(item 3 hypothesis fired {fired}x, floor 300), "
        f"{violations} violations, {elapsed:.1f}s (limit 30s)",
        violations == 0 and fired >= 300 and elapsed < 30.0,
    )


def test_5_phi_slice_antitone_and_inclusion_criterion():
    t0 = time.perf_counter()
    rng = random.Random(55)
    violations = 0
    for m in (2, 3):
        pts = box(5, m - 1)
        le_pairs = [(a, b) for a in pts for b in pts if vec_le(a, b)]
        for _ in range(200):
            fg = [rand_vec(rng, m, 5) for _ in range(rng.randint(1, 4))]
            gg = [rand_vec(rng, m, 5) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                gg = gg + fg
            f, g = dickson_upset(fg), dickson_upset(gg)
            for a, b in le_pairs:
                if not phi_slice(f, a) >= phi_slice(f, b):
                    violations += 1
                    break
            a = pts[rng.randrange(len(pts))]
            want = phi_slice_scan(fg, a)
            if phi_slice(f, a) != (INF if want is None else want):
                violations += 1
            incl = g.includes(f)
            criterion = all(phi_slice(f, a) >= phi_slice(g, a) for a in pts)
            if incl != criterion:
                violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        f"phi-slice antitone + inclusion criterion, boxes (0..5)^(m-1) "
        f"for m in (2,3), 200 pairs each, {violations} violations, "
        f"{elapsed:.1f}s",
        violations == 0,
    )


def test_6_quasi_embedding_suite():
    t0 = time.perf_counter()
    violations = 0

    f3 = dickson_word_embedding(3)
    pts3 = box(4, 3)
    ok, witness = check_quasi_embedding(f3, product(pts3, pts3))
    if not ok:
        violations += 1

    lab = labeling_embedding()
    ws = [Word(AB, t) for t in words_upto(2, 5)]
    ok, witness = check_quasi_embedding(lab, product(ws, ws))
    if not ok:
        violations += 1

    images = {p: f3(p) for p in pts3}
    for x, y in product(pts3, pts3):
        if vec_le(x, y) and not leq_e(images[x], images[y]):
            violations += 1
            break

    rng = random.Random(66)
    f2 = dickson_word_embedding(2)
    fired = 0
    for i in range(250):
        gx = [rand_vec(rng, 2, 4) for _ in range(rng.randint(1, 4))]
        if i % 2 == 0:
            gy = gx + [rand_vec(rng, 2, 4)]
        else:
            gy = [rand_vec(rng, 2, 4) for _ in range(rng.randint(1, 4))]
        x, y = dickson_upset(gx), dickson_upset(gy)
        if transport_upset(f2, y).includes(transport_upset(f2, x)):
            fired += 1
            if not y.includes(x):
                violations += 1
    for i in range(250):
        wx = [Word(AB, rand_letters(rng, 2, 4)) for _ in range(rng.randint(1, 3))]
        if i % 2 == 0:
            wy = wx + [Word(AB, rand_letters(rng, 2, 4))]
        else:
            wy = [Word(AB, rand_letters(rng, 2, 4)) for _ in range(rng.randint(1, 3))]
        x, y = UpSet(leq_E, wx), UpSet(leq_E, wy)
        if transport_upset(lab, y).includes(transport_upset(lab, x)):
            fired += 1
            if not y.includes(x):
                violations += 1

    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        f"quasi-embedding checks exhaustive on (0..4)^3 and words <= 5, "
        f"monotonicity, transport inclusion-reflection on 500 pairs "
        f"(fired {fired}x, floor 150), {violations} violations, "
        f"{elapsed:.1f}s (limit 60s)",
        violations == 0 and fired >= 150 and elapsed < 60.0,
    )


def _acceptance_7_nets():
    """The 300 random queries of acceptance 7, 1-3 places, entries 0-2."""
    rng = random.Random(77)
    for _ in range(300):
        m = rng.randint(1, 3)
        ts = tuple(
            Transition(f"t{i}", rand_vec(rng, m, 2), rand_vec(rng, m, 2))
            for i in range(rng.randint(1, 3))
        )
        yield CoverQuery(Vas(m, ts), rand_vec(rng, m, 2), rand_vec(rng, m, 2))


def _forward_referee(q: CoverQuery, bound: tuple) -> bool:
    steps = [(t.consume, t.produce) for t in q.net.transitions]
    return forward_covers(steps, q.initial, q.target, bound)


def test_7_coverability_backward_vs_forward():
    t0 = time.perf_counter()
    violations = 0
    unsound = 0
    compared = 0
    for q in _acceptance_7_nets():
        result = backward_cover(q, max_iterations=10_000)
        bound = (6,) * q.net.places
        fwd = _forward_referee(q, bound)
        if fwd and not result.coverable:
            unsound += 1
        if all(vec_le(g, bound) for g in result.basis.gens):
            compared += 1
            if result.coverable != fwd:
                violations += 1

    worked = CoverQuery(
        Vas(2, (Transition("t1", (1, 0), (0, 1)),)), (2, 0), (0, 2)
    )
    wres = backward_cover(worked)
    worked_ok = wres.coverable and wres.basis.gens == ((0, 2), (1, 1), (2, 0))

    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        f"backward vs forward cover on 300 nets "
        f"({compared} with bound-dominated basis, floor 100), "
        f"{violations} disagreements, {unsound} soundness breaks, "
        f"worked example {'ok' if worked_ok else 'WRONG'}, "
        f"{elapsed:.1f}s (limit 60s)",
        violations == 0
        and unsound == 0
        and worked_ok
        and compared >= 100
        and elapsed < 60.0,
    )


def test_7_forward_referee_agrees_with_the_library_forward_oracle():
    for q in _acceptance_7_nets():
        bound = (6,) * q.net.places
        assert _forward_referee(q, bound) == forward_cover_oracle(q, bound), q


def test_8_sequence_analyses():
    t0 = time.perf_counter()
    rng = random.Random(88)
    violations = 0
    for k in (3, 4):
        n = (k - 1) ** 2 + 1
        for _ in range(200):
            seq = rng.sample(range(1000), n)
            got = homogeneous_subsequence(seq, k, INT_LE)
            if got is None or got.shape not in (
                SubseqClass.ASCENDING,
                SubseqClass.DESCENDING,
            ):
                violations += 1
                continue
            vals = [seq[i] for i in got.indices]
            up = all(x < y for x, y in zip(vals, vals[1:]))
            down = all(x > y for x, y in zip(vals, vals[1:]))
            if not (up or down) or len(vals) != k:
                violations += 1
    for _ in range(1000):
        seq = [rand_vec(rng, 2, 3) for _ in range(rng.randint(0, 12))]
        if find_good_pair(seq, leq) != first_good_pair(seq, vec_le):
            violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        f"monotone subsequences of length k in (k-1)^2+1 distinct values "
        f"(k=3,4; 200 runs each) and good-pair scan on 1000 sequences, "
        f"{violations} violations, {elapsed:.1f}s",
        violations == 0,
    )
